//! End-to-end properties of the observability layer (the acceptance
//! criteria of the metric/stall/trace subsystem):
//!
//! 1. **Stall invariant** — on compiled benchmarks, every scheme and
//!    if-conversion setting charges each cycle to exactly one bucket:
//!    `stall.total() == cycles`.
//! 2. **Metric export** — the metric block renders to JSON and parses
//!    back losslessly.
//! 3. **Cache replay** — a warm-cache rerun executes zero simulations and
//!    reproduces the full metric block byte-for-byte.

use std::path::PathBuf;

use ppsim::compiler::{compile, CompileOptions};
use ppsim::core::{experiments, ExperimentConfig, Json, Runner, RunnerOptions};
use ppsim::isa::Machine;
use ppsim::prelude::*;

fn compiled(ifconv: bool) -> ppsim::compiler::Compiled {
    let spec = ppsim::compiler::spec2000_suite()
        .into_iter()
        .find(|s| s.name == "gzip")
        .unwrap();
    let mut opts = if ifconv {
        CompileOptions::with_ifconv()
    } else {
        CompileOptions::no_ifconv()
    };
    opts.profile_steps = 50_000;
    compile(&spec, &opts).unwrap()
}

#[test]
fn stall_buckets_partition_cycles_for_every_scheme_and_compile_mode() {
    for ifconv in [false, true] {
        let compiled = compiled(ifconv);
        for scheme in SchemeSpec::ALL {
            for predication in [PredicationModel::Cmov, PredicationModel::Selective] {
                let mut sim = SimOptions::new(scheme, predication)
                    .build_source(Machine::new(&compiled.program))
                    .unwrap();
                let r = sim.run(25_000);
                let s = &r.stats;
                assert_eq!(
                    s.stall.total(),
                    s.cycles,
                    "cycles leaked out of the stall partition \
                     (ifconv={ifconv}, {scheme:?}, {predication:?})"
                );
                // Every bucket reaches the metric registry.
                let m = s.metrics();
                let sum: u64 = StallBucket::ALL
                    .iter()
                    .map(|b| {
                        m.counter_value(&format!("stall.{}", b.name()))
                            .expect("bucket registered")
                    })
                    .sum();
                assert_eq!(sum, s.cycles);
            }
        }
    }
}

#[test]
fn metric_block_round_trips_through_json() {
    let compiled = compiled(true);
    let mut sim = SimOptions::new(SchemeSpec::Predicate, PredicationModel::Selective)
        .shadow(true)
        .build_source(Machine::new(&compiled.program))
        .unwrap();
    let r = sim.run(25_000);
    let doc = r.stats.metrics().to_json();
    let text = doc.to_string();
    let parsed = Json::parse(&text).expect("metric JSON parses");
    // The block is written text (a raw node), which parsing turns into
    // a tree: the round trip compares rendered bytes.
    assert_eq!(
        parsed.to_string(),
        text,
        "metric block round trip is lossless"
    );
    assert_eq!(
        r.stats.metrics_json().to_string(),
        text,
        "the block written straight from the metric table"
    );

    let counters = parsed.get("counters").expect("counters object");
    assert!(counters.get("cycles").and_then(Json::as_i64).unwrap() > 0);
    assert!(counters.get("mem.l1i.accesses").is_some());
    let ipc = parsed
        .get("ratios")
        .and_then(|r| r.get("ipc"))
        .expect("ipc ratio");
    assert!(ipc.get("value").and_then(Json::as_f64).unwrap() > 0.0);
    let sites = parsed
        .get("per_pc")
        .and_then(|p| p.get("branch_sites"))
        .and_then(Json::as_arr)
        .expect("branch_sites histogram");
    assert!(!sites.is_empty(), "per-PC rows survive the export");
    // Rows are sorted by PC — the fix for the HashMap-order export.
    let pcs: Vec<i64> = sites
        .iter()
        .map(|row| row.as_arr().unwrap()[0].as_i64().unwrap())
        .collect();
    let mut sorted = pcs.clone();
    sorted.sort();
    assert_eq!(pcs, sorted, "per-PC rows must be PC-sorted");
}

#[test]
fn event_trace_is_bounded_and_exportable() {
    let compiled = compiled(true);
    let mut sim = SimOptions::new(SchemeSpec::Predicate, PredicationModel::Selective)
        .trace_events(64)
        .build_source(Machine::new(&compiled.program))
        .unwrap();
    sim.run(25_000);
    let ring = sim.events().expect("tracing enabled");
    assert!(ring.len() <= 64, "ring respects its capacity");
    assert!(ring.recorded() > ring.len() as u64, "long run overflows 64");
    let doc = ring.to_json();
    let parsed = Json::parse(&doc.to_string()).expect("trace JSON parses");
    assert_eq!(
        parsed.get("recorded").and_then(Json::as_i64).unwrap() as u64,
        ring.recorded()
    );
    assert_eq!(
        parsed.get("events").and_then(Json::as_arr).unwrap().len(),
        ring.len()
    );
}

#[test]
fn warm_cache_rerun_replays_metrics_byte_identically() {
    let cfg = ExperimentConfig {
        commits: 25_000,
        profile_steps: 50_000,
        only: vec!["gzip".into()],
        ..ExperimentConfig::default()
    };
    let dir: PathBuf = std::env::temp_dir().join(format!("ppsim-obs-suite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = |d: &PathBuf| {
        Runner::new(RunnerOptions {
            jobs: 4,
            cache: true,
            cache_dir: Some(d.clone()),
            ..RunnerOptions::default()
        })
    };

    let cold = runner(&dir);
    let cold_doc = experiments::full_report_json(&cold, &cfg).to_string();
    assert!(cold.telemetry().jobs_run > 0, "cold cache must simulate");

    let warm = runner(&dir);
    let warm_doc = experiments::full_report_json(&warm, &cfg).to_string();
    let t = warm.telemetry();
    assert_eq!(t.jobs_run, 0, "warm cache must execute zero simulations");
    assert_eq!(t.cache_hits, t.jobs_total);
    assert_eq!(
        cold_doc, warm_doc,
        "cached results must replay the full metric block bit-identically"
    );
    // Belt and braces: the replayed document still contains the stall
    // counters and per-PC histograms (i.e. the cache carries them, they
    // aren't just zero-defaults).
    let parsed = Json::parse(&warm_doc).unwrap();
    let metrics = parsed
        .get("fig6a")
        .and_then(|f| f.get("rows"))
        .and_then(Json::as_arr)
        .and_then(|rows| rows[0].get("metrics"))
        .and_then(Json::as_arr)
        .expect("metric blocks in replayed report")
        .to_vec();
    let counters = metrics[0].get("counters").unwrap();
    let cycles = counters.get("cycles").and_then(Json::as_i64).unwrap();
    let stall_sum: i64 = [
        "stall.fetch_miss",
        "stall.rename_stall",
        "stall.issue_wait",
        "stall.commit_bound",
        "stall.flush_recovery",
        "stall.predication_flush",
    ]
    .iter()
    .map(|k| counters.get(k).and_then(Json::as_i64).unwrap())
    .sum();
    assert!(cycles > 0);
    assert_eq!(stall_sum, cycles, "replayed stall buckets still partition");

    let _ = std::fs::remove_dir_all(&dir);
}
