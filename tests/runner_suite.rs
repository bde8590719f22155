//! End-to-end properties of the experiment runner (the acceptance
//! criteria of the parallel-execution subsystem):
//!
//! 1. **Determinism** — the consolidated suite report is byte-identical
//!    for any worker count.
//! 2. **Caching** — a warm-cache rerun executes zero simulations (every
//!    job is a cache hit) and reproduces the exact same report.
//! 3. **Artifacts** — the JSON report round-trips through the hand-rolled
//!    parser and carries the figure data and telemetry.
//! 4. **One job per cell** — per-cell statistics do not depend on the
//!    worker count, and each stream is captured once.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use ppsim::compiler::{compile, spec2000_suite, CompileOptions};
use ppsim::core::{
    experiments, trace_report, ExperimentConfig, Json, Runner, RunnerOptions, TraceWorkload,
};
use ppsim::pipeline::{LaneSet, SimOptions, TraceBuffer, TraceCursor};

/// A fast configuration: one benchmark, small budgets. Big enough to
/// exercise every scheme, compile mode and the shadow predictor.
fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        commits: 25_000,
        profile_steps: 50_000,
        only: vec!["gzip".into()],
        ..ExperimentConfig::default()
    }
}

/// A per-test cache directory under the target dir (never the user's
/// real cache; removed at the start so reruns of the test start cold).
fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppsim-runner-suite-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn runner(jobs: usize, cache_dir: Option<PathBuf>) -> Runner {
    Runner::new(RunnerOptions {
        jobs,
        cache: cache_dir.is_some(),
        cache_dir,
        ..RunnerOptions::default()
    })
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let cfg = tiny_cfg();
    let serial = experiments::full_report(&runner(1, None), &cfg);
    let parallel = experiments::full_report(&runner(8, None), &cfg);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "--jobs must never change report bytes");
}

#[test]
fn warm_cache_rerun_executes_zero_simulations() {
    let cfg = tiny_cfg();
    let dir = fresh_cache_dir("warm");

    // Cold run. Figures share cells (e.g. fig6a's selective-predication
    // job reappears in the IPC ablation), so even a cold run hits the
    // cache for repeats — but most jobs must actually simulate.
    let cold = runner(8, Some(dir.clone()));
    let cold_report = experiments::full_report(&cold, &cfg);
    let t = cold.telemetry();
    assert!(t.jobs_total > 0);
    assert!(t.jobs_run > 0, "cold cache must simulate");
    assert_eq!(t.jobs_run + t.cache_hits, t.jobs_total);

    // Warm run: same grid, fresh runner — 100% cache hits, zero
    // simulations, identical bytes.
    let warm = runner(8, Some(dir.clone()));
    let warm_report = experiments::full_report(&warm, &cfg);
    let t = warm.telemetry();
    assert_eq!(t.jobs_run, 0, "warm cache must execute zero simulations");
    assert_eq!(t.cache_hits, t.jobs_total, "every job served from cache");
    assert_eq!(
        cold_report, warm_report,
        "cache state must never change report bytes"
    );

    // And caching itself must not change the result vs. no cache at all.
    let uncached = experiments::full_report(&runner(1, None), &cfg);
    assert_eq!(uncached, warm_report);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changing_an_input_axis_misses_the_cache() {
    let cfg = tiny_cfg();
    let dir = fresh_cache_dir("axis");

    let first = runner(2, Some(dir.clone()));
    experiments::fig5(&first, &cfg, false);
    let baseline = first.telemetry().jobs_run;
    assert!(baseline > 0);

    // Different commit budget → different job hashes → all misses.
    let bumped = ExperimentConfig {
        commits: cfg.commits + 1,
        ..cfg.clone()
    };
    let second = runner(2, Some(dir.clone()));
    experiments::fig5(&second, &bumped, false);
    let t = second.telemetry();
    assert_eq!(t.cache_hits, 0, "changed commit budget must invalidate");
    assert_eq!(t.jobs_run, t.jobs_total);

    // The original config still hits.
    let third = runner(2, Some(dir.clone()));
    experiments::fig5(&third, &cfg, false);
    let t = third.telemetry();
    assert_eq!(t.jobs_run, 0);
    assert_eq!(t.cache_hits, t.jobs_total);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_report_round_trips_and_carries_metrics() {
    let cfg = tiny_cfg();
    let r = runner(4, None);
    let doc = experiments::full_report_json(&r, &cfg);
    let text = doc.to_string();
    let parsed = Json::parse(&text).expect("emitted JSON parses");
    assert_eq!(parsed, doc, "round trip is lossless");

    for figure in ["fig5", "fig6a", "fig6b", "ipc_ablation"] {
        assert!(parsed.get(figure).is_some(), "missing {figure}");
    }
    let fig5_rows = parsed
        .get("fig5")
        .and_then(|f| f.get("rows"))
        .and_then(Json::as_arr)
        .expect("fig5.rows is an array");
    assert_eq!(fig5_rows.len(), 1, "one selected benchmark");
    assert_eq!(
        fig5_rows[0].get("benchmark").and_then(Json::as_str),
        Some("gzip")
    );
    let rates = fig5_rows[0]
        .get("misprediction_rates")
        .and_then(Json::as_arr)
        .expect("rates array");
    for rate in rates {
        let v = rate.as_f64().expect("numeric rate");
        assert!((0.0..=1.0).contains(&v));
    }

    // Each run carries its full metric block: counters, stall buckets,
    // per-PC histogram.
    let metrics = fig5_rows[0]
        .get("metrics")
        .and_then(Json::as_arr)
        .expect("metrics array");
    assert_eq!(metrics.len(), 2, "one block per scheme column");
    let counters = metrics[0].get("counters").expect("counters object");
    let cycles = counters.get("cycles").and_then(Json::as_i64).unwrap();
    assert!(cycles > 0);
    let stall_sum: i64 = [
        "stall.fetch_miss",
        "stall.rename_stall",
        "stall.issue_wait",
        "stall.commit_bound",
        "stall.flush_recovery",
        "stall.predication_flush",
    ]
    .iter()
    .map(|k| counters.get(k).and_then(Json::as_i64).expect(k))
    .sum();
    assert_eq!(stall_sum, cycles, "stall buckets partition the cycles");
    assert!(metrics[0].get("per_pc").is_some(), "per-PC histograms");

    // Telemetry deliberately lives OUTSIDE the deterministic report; the
    // runner exposes it separately.
    assert!(parsed.get("telemetry").is_none());
    let telemetry = r.telemetry().to_json();
    let total = telemetry.get("jobs_total").and_then(Json::as_i64).unwrap();
    let run = telemetry.get("jobs_run").and_then(Json::as_i64).unwrap();
    let hits = telemetry.get("cache_hits").and_then(Json::as_i64).unwrap();
    assert!(total > 0);
    assert_eq!(run + hits, total);
}

#[test]
fn per_cell_jobs_give_identical_stats_at_any_worker_count() {
    // Every cell is its own pool job, so the worker count decides which
    // thread runs a cell and which cells run side by side. Neither may
    // reach the statistics: the FULL Figure-6a grid (every benchmark ×
    // every scheme column) and a six-scheme grid over one imported
    // stream must report identical per-cell stats at 1, 2 and 4 workers.
    let cfg = ExperimentConfig {
        commits: 8_000,
        profile_steps: 20_000,
        ..ExperimentConfig::default()
    };
    let jobs = experiments::plan(&cfg, experiments::PlanSpec::Fig6a);
    assert!(jobs.len() >= 60, "full grid: {} cells", jobs.len());
    let spec = spec2000_suite()
        .into_iter()
        .find(|s| s.name == "gzip")
        .expect("gzip is in the suite");
    let compiled = compile(&spec, &CompileOptions::with_ifconv()).expect("gzip compiles");
    let capture = TraceBuffer::capture(&compiled.program, cfg.commits).expect("capture");
    let workload = TraceWorkload::from_capture("gzip", "", capture);

    let serial = runner(1, None);
    let grid = serial.run_grid(&jobs);
    let traced = trace_report(&serial, &cfg, &workload, 5);
    assert_eq!(traced.runs.len(), 6, "six scheme columns");
    for workers in [2, 4] {
        let r = runner(workers, None);
        for ((job, a), b) in jobs.iter().zip(&grid).zip(r.run_grid(&jobs)) {
            assert_eq!(
                a.stats,
                b.stats,
                "cell {} at {workers} workers",
                job.canon()
            );
            assert_eq!(a.static_insns, b.static_insns, "{}", job.canon());
        }
        let report = trace_report(&r, &cfg, &workload, 5);
        for (scheme, (a, b)) in traced
            .schemes
            .iter()
            .zip(traced.runs.iter().zip(&report.runs))
        {
            assert_eq!(a, b, "traced {scheme} at {workers} workers");
        }
    }
}

#[test]
fn full_report_grid_captures_each_stream_once() {
    // The full report spans 44 (binary, budget) streams, and Figures 6b
    // and the IPC ablation return to the if-converted binaries. Stream-
    // ordered jobs must still capture each stream exactly once, serially
    // and with two workers each partway through a different stream and
    // one stream straddling the two workers' chunks.
    let cfg = ExperimentConfig {
        commits: 2_000,
        profile_steps: 20_000,
        ..ExperimentConfig::default()
    };
    let jobs = experiments::plan(&cfg, experiments::PlanSpec::FullReport);
    let streams: HashSet<(&str, bool)> = jobs
        .iter()
        .map(|j| (j.benchmark.as_str(), j.ifconv))
        .collect();
    assert_eq!(streams.len(), 44);
    for workers in [1, 2] {
        let r = runner(workers, None);
        r.run_grid(&jobs);
        let t = r.telemetry();
        assert_eq!(t.captures, streams.len() as u64, "--jobs {workers}");
        assert_eq!(r.live_streams(), 0, "no capture outlives the grid");
    }
}

#[test]
fn full_report_holds_few_captures_at_once() {
    // A capture lives from its stream's first cell to its last. Stream
    // order keeps each worker on one stream at a time, so the full
    // report never holds more than two captures per worker.
    let cfg = ExperimentConfig {
        commits: 2_000,
        profile_steps: 20_000,
        ..ExperimentConfig::default()
    };
    let jobs = experiments::plan(&cfg, experiments::PlanSpec::FullReport);
    let workers = 2;
    let r = runner(workers, None);
    let most = std::sync::Mutex::new(0);
    r.run_grid_reporting(&jobs, &|_, _| {
        let mut most = most.lock().unwrap();
        *most = (*most).max(r.live_streams());
    });
    let most = most.into_inner().unwrap();
    assert!(
        (1..=2 * workers).contains(&most),
        "{most} captures held at once"
    );
    assert_eq!(r.live_streams(), 0);
    assert_eq!(r.telemetry().captures, 44);
}

#[test]
fn fused_fig6a_identity_survives_tracing_and_phase_profiling() {
    // Event tracing and phase profiling are monomorphized variants of
    // the same record loop; both must be observation-only. This pins the
    // fig-6a scheme columns, fused, in all four instantiations of the
    // loop against the plain solo replay of each cell.
    use ppsim::core::experiments::FIG6A_SCHEMES;

    const COMMITS: u64 = 8_000;
    let spec = spec2000_suite()
        .into_iter()
        .find(|s| s.name == "gzip")
        .expect("gzip is in the suite");
    let compiled = compile(&spec, &CompileOptions::with_ifconv()).expect("gzip compiles");
    let trace = Arc::new(TraceBuffer::capture(&compiled.program, COMMITS).expect("capture"));

    let solo: Vec<_> = FIG6A_SCHEMES
        .iter()
        .map(|&(scheme, predication, _)| {
            SimOptions::new(scheme, predication)
                .build_source(TraceCursor::new(Arc::clone(&trace)))
                .expect("fig-6a cells carry no overrides")
                .run(COMMITS)
                .stats
        })
        .collect();

    // (event-ring capacity, phase profiling): the four monomorphized
    // instantiations of the record loop.
    for (events, phases) in [(0usize, false), (512, false), (0, true), (512, true)] {
        let opts: Vec<SimOptions> = FIG6A_SCHEMES
            .iter()
            .map(|&(scheme, predication, _)| {
                SimOptions::new(scheme, predication)
                    .trace_events(events)
                    .profile_phases(phases)
            })
            .collect();
        let mut set = LaneSet::new(TraceCursor::new(Arc::clone(&trace)), &opts)
            .expect("fig-6a cells carry no overrides");
        let runs = set.run(COMMITS);
        for ((run, solo), &(scheme, _, _)) in runs.iter().zip(&solo).zip(&FIG6A_SCHEMES) {
            assert_eq!(
                run.stats,
                *solo,
                "events={events} phases={phases}: {} lane diverged from plain solo replay",
                scheme.name()
            );
        }
        // Profiled lanes carry an attribution report; unprofiled lanes
        // carry none — and only profiled lanes pay for one.
        let reports = set.phase_reports();
        for report in &reports {
            assert_eq!(report.is_some(), phases, "events={events} phases={phases}");
        }
        if phases {
            let records: u64 = reports.iter().flatten().map(|r| r.records).sum();
            assert_eq!(
                records,
                trace.len() * FIG6A_SCHEMES.len() as u64,
                "every lane profiles every record exactly once"
            );
            let total: u64 = reports.iter().flatten().map(|r| r.total_nanos()).sum();
            assert!(total > 0, "profiled lanes must attribute time");
        }
    }
}
