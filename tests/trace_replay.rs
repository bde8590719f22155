//! End-to-end checks of the trace-replay engine, the runner's only way of
//! driving a cell:
//!
//! 1. **Cell identity** — every `SchemeSpec` × `PredicationModel` cell
//!    (with the shadow predictor attached) produces equal statistics from
//!    an inline `Machine` and from a cursor over a capture of the same
//!    binary, on both compile modes. The check oracle's lockstep cell
//!    relies on this equivalence.
//! 2. **Telemetry** — the runner reports shared captures: far fewer
//!    captures than jobs, with the shared-capture hit rate accounting for
//!    the rest of the simulated jobs.

use std::sync::Arc;

use ppsim::compiler::{compile, spec2000_suite, CompileOptions};
use ppsim::core::{experiments, ExperimentConfig, Runner, RunnerOptions};
use ppsim::isa::{Machine, TraceBuffer, TraceCursor};
use ppsim::pipeline::{CoreConfig, PredicationModel, SimOptions};
use ppsim::predictors::SchemeSpec;

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        commits: 20_000,
        profile_steps: 50_000,
        only: vec!["gzip".into(), "twolf".into()],
        ..ExperimentConfig::default()
    }
}

#[test]
fn every_cell_matches_inline_statistics() {
    const COMMITS: u64 = 10_000;
    let suite = spec2000_suite();
    let vpr = suite.iter().find(|s| s.name == "vpr").unwrap();
    for ifconv in [false, true] {
        let mut copts = if ifconv {
            CompileOptions::with_ifconv()
        } else {
            CompileOptions::no_ifconv()
        };
        copts.profile_steps = 50_000;
        let program = compile(vpr, &copts).unwrap().program;
        let trace = Arc::new(TraceBuffer::capture(&program, COMMITS).unwrap());
        for scheme in SchemeSpec::ALL {
            for predication in [PredicationModel::Cmov, PredicationModel::Selective] {
                let opts = SimOptions::new(scheme, predication)
                    .core(CoreConfig::paper())
                    .shadow(true);
                let inline = opts
                    .build_source(Machine::new(&program))
                    .unwrap()
                    .run(COMMITS);
                let replay = opts
                    .build_source(TraceCursor::new(Arc::clone(&trace)))
                    .unwrap()
                    .run(COMMITS);
                assert!(inline.stats.committed >= COMMITS);
                assert_eq!(
                    inline.stats,
                    replay.stats,
                    "cell {}/{predication:?} (ifconv={ifconv}) diverged under replay",
                    scheme.name()
                );
            }
        }
    }
}

#[test]
fn replay_telemetry_reports_shared_captures() {
    let cfg = tiny_cfg();
    let r = Runner::new(RunnerOptions {
        jobs: 4,
        cache: false,
        ..RunnerOptions::default()
    });
    experiments::full_report_json(&r, &cfg);
    let t = r.telemetry();
    // Two benchmarks, two compile modes, one commit budget → a handful of
    // distinct captures serve the whole sweep.
    assert!(t.captures > 0);
    assert!(
        t.captures < t.jobs_run,
        "captures ({}) must be shared across the {} simulated jobs",
        t.captures,
        t.jobs_run
    );
    // Each benchmark's Figure 6a predicate/selective cell is derived from
    // its Figure 6b shadow twin; every other job simulated.
    assert_eq!(t.jobs_derived, 2);
    assert_eq!(
        t.captures + t.trace_memo_hits,
        t.jobs_run - t.jobs_derived,
        "every simulated job either captured or replayed a shared capture"
    );
    assert!(t.trace_memo_hit_rate() > 0.5);
    let json = t.to_json().to_string();
    for key in ["captures", "trace_memo_hits", "trace_memo_hit_rate"] {
        assert!(json.contains(key), "telemetry JSON missing {key}");
    }
}
