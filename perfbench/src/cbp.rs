//! `trace-cbp`: a seeded CBP-style branch log, imported and simulated
//! across the six Figure 6a schemes in one fused pass.
//!
//! Why: half of its records are branches spread over thousands of static
//! sites, so predictor tables and misprediction recovery carry the cost,
//! where suite-full's 3–5 static branches per program leave them idle.
//! It is also the only path through the trace importer.

use std::hint::black_box;
use std::time::Instant;

use ppsim_core::experiments::{fig6a_col, FIG6A_SCHEMES};
use ppsim_core::{trace_report, ExperimentConfig, Job, Runner, TraceReport, TraceWorkload};
use ppsim_isa::TraceCursor;
use ppsim_pipeline::SimOptions;
use ppsim_predictors::SchemeSpec;

use crate::gen::{self, CbpParams, Rng};
use crate::kernels::{self, Kernels};
use crate::measure::{
    median, peak_rss_mib, reset_peak_rss, runs_json, samples_json, Interval, Spans, Stopwatch,
    Tally,
};
use crate::{batch_metrics, nproc, runner_at, Args, Metrics, Outcome, TempDir};

/// Read-and-import samples whose median is `setup_s`: one before the
/// timed phase, the rest after it.
const SETUP_SAMPLES: usize = 5;

/// H2P rows per scheme in the rendered report (the CLI default).
const TOP_N: usize = 10;

/// Simulates and renders the imported log with a fresh cache, as
/// `ppsim trace import` does after reading the file.
fn simulate(runner: &Runner, cfg: &ExperimentConfig, w: &TraceWorkload) -> (TraceReport, String) {
    let report = trace_report(runner, cfg, w, TOP_N);
    let text = report.text();
    (report, text)
}

fn committed(report: &TraceReport) -> u64 {
    report.runs.iter().map(|s| s.committed).sum()
}

pub fn run(args: &Args, tmp: &TempDir) -> Result<Outcome, String> {
    let p = &gen::CBP;
    let mut tally = Tally::default();
    let (text, truth) = gen::cbp_log(args.seed, p);
    let path = tmp.join("branches.cbp");
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;

    // Set-up: read the log and import it. The timed phase follows a single
    // import, as in `ppsim trace import`: a repeated import would leave
    // its freed buffers resident in the heap, where `peak_rss_mb` would
    // count them. The other samples are taken after the timed phase, each
    // replacing the workload, so only one imported copy is ever alive.
    let mut setup = Vec::new();
    let mut import = Vec::new();
    let set_up = |setup: &mut Vec<f64>, import: &mut Vec<f64>| {
        let started = Instant::now();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading log: {e}"))?;
        let t = Instant::now();
        let imported = TraceWorkload::from_cbp_text("cbp-generated", &text)
            .map_err(|e| format!("importing log: {e}"))?;
        import.push(t.elapsed().as_secs_f64());
        setup.push(started.elapsed().as_secs_f64());
        Ok::<_, String>(imported)
    };
    let (mut w, summary) = set_up(&mut setup, &mut import)?;
    tally.op(
        summary.branches == truth.branches
            && summary.taken == truth.taken
            && summary.static_branches == truth.static_branches,
        || format!("importer summary {summary:?} differs from the generated {truth:?}"),
    );
    let cfg = ExperimentConfig {
        commits: w.records(),
        ..ExperimentConfig::default()
    };
    if args.trace {
        return traced(args, tmp, p, &cfg, &w, median(&import), tally);
    }

    let pid = std::process::id();
    let mut runs: Vec<Interval> = Vec::new();
    let mut peaks = Vec::new();
    let mut minsts = Vec::new();
    let mut first: Option<String> = None;
    let phase = Instant::now();
    let report = loop {
        let i = runs.len();
        let dir = tmp.join(&format!("cache{i}"));
        let runner = runner_at(dir.clone());
        reset_peak_rss(pid)?;
        let sw = Stopwatch::start(pid)?;
        let (report, text) = simulate(&runner, &cfg, &w);
        let iv = sw.stop()?;
        peaks.push(peak_rss_mib(pid)?);
        drop(runner);
        let _ = std::fs::remove_dir_all(dir);
        tally.ok(report.runs.len() as u64);
        minsts.push(committed(&report) as f64 / 1e6 / iv.cpu);
        runs.push(iv);
        match &first {
            None => first = Some(text),
            Some(f) => tally.op(*f == text, || {
                format!("report of iteration {i} differs from iteration 0")
            }),
        }
        if phase.elapsed().as_secs_f64() >= args.seconds {
            break report;
        }
    };
    while setup.len() < SETUP_SAMPLES {
        drop(w);
        w = set_up(&mut setup, &mut import)?.0;
    }
    check_solo(&mut tally, args.seed, &cfg, &w, &report);

    let misp = report.runs[fig6a_col(SchemeSpec::Predicate)].misprediction_rate() * 100.0;
    Ok(Outcome {
        tally,
        metrics: batch_metrics(&setup, &runs, &minsts, &peaks, misp),
        stamp: stamp(p, &w, &runs).field("setup_s", samples_json(&setup)),
        spans: None,
    })
}

fn stamp(p: &CbpParams, w: &TraceWorkload, runs: &[Interval]) -> ppsim_obs::Json {
    ppsim_obs::Json::obj()
        .field("sites", p.sites)
        .field("branches", p.branches)
        .field("zipf", p.zipf)
        .field("records", w.records())
        .field("lanes", FIG6A_SCHEMES.len())
        .field("workers", nproc())
        .field("runs", runs_json(runs))
}

/// One seeded scheme re-simulated on its own must equal its fused lane.
fn check_solo(
    tally: &mut Tally,
    seed: u64,
    cfg: &ExperimentConfig,
    w: &TraceWorkload,
    report: &TraceReport,
) {
    let col = Rng::new(seed, 4).below(FIG6A_SCHEMES.len() as u64) as usize;
    let (scheme, predication, _) = FIG6A_SCHEMES[col];
    let solo = SimOptions::new(scheme, predication)
        .core(cfg.core)
        .build_source(TraceCursor::new(w.buf.clone()))
        .map(|mut sim| sim.run(cfg.commits).stats);
    match solo {
        Ok(stats) => tally.op(stats == report.runs[col], || {
            format!(
                "{} simulated solo differs from its fused lane",
                scheme.name()
            )
        }),
        Err(e) => tally.error(scheme.name(), e),
    }
}

/// The jobs `trace_report` builds for `w` (for replaying their cache
/// entries).
fn lane_jobs(runner: &Runner, cfg: &ExperimentConfig, w: &TraceWorkload) -> Vec<Job> {
    let id = w.register(runner);
    FIG6A_SCHEMES
        .iter()
        .map(|&(scheme, predication, _)| {
            Job::traced(
                w.name.as_str(),
                id,
                scheme,
                predication,
                cfg.commits,
                cfg.core,
            )
        })
        .collect()
}

fn traced(
    args: &Args,
    tmp: &TempDir,
    p: &CbpParams,
    cfg: &ExperimentConfig,
    w: &TraceWorkload,
    import_s: f64,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let untraced = {
        let runner = runner_at(tmp.join("untraced"));
        let started = Instant::now();
        black_box(simulate(&runner, cfg, w));
        started.elapsed().as_secs_f64()
    };

    let mut spans = Spans::default();
    let dir = tmp.join("traced");
    let root = spans.enter("bench", "trace-cbp");
    let runner = spans.time("runner", "Runner::new", || runner_at(dir.clone()));
    let sim = spans.enter("core", "tracework::trace_report");
    let report = trace_report(&runner, cfg, w, TOP_N);
    spans.exit(sim);
    let render = spans.enter("core", "TraceReport::text+to_json");
    black_box((report.text(), report.to_json().to_string()));
    spans.exit(render);
    spans.exit(root);
    tally.ok(report.runs.len() as u64);
    check_solo(&mut tally, args.seed, cfg, w, &report);

    let tel = runner.telemetry();
    let sim_s = tel.per_job.iter().map(|t| t.sim_micros).sum::<u64>() as f64 / 1e6;
    let job_s = tel.per_job.iter().map(|t| t.wall_micros).sum::<u64>() as f64 / 1e6;
    // All six lanes run as one fused pass on one worker, so the pass's
    // wall is the layer's share of the traced wall.
    spans.attribute("core", "pipeline", job_s);
    let hash_started = Instant::now();
    black_box(ppsim_isa::pptrace::content_hash(&w.buf));
    spans.attribute("core", "isa", hash_started.elapsed().as_secs_f64());
    let jobs = lane_jobs(&runner, cfg, w);
    let (loaded, load_us) = kernels::cache_loads(&dir, &jobs)?;
    let store_ms = kernels::cache_stores(&tmp.join("store-replay"), &jobs, &loaded)?;
    spans.attribute(
        "core",
        "runner",
        (store_ms * 1e-3 + load_us * 1e-6) * jobs.len() as f64,
    );

    let mut k = Kernels::default();
    let cells: Vec<SimOptions> = jobs.iter().map(kernels::sim_options).collect();
    k.add_stream(&w.buf, &cells)?;

    let traced_wall = spans.duration(root);
    let mut m = Metrics::default();
    k.set_metrics(&mut m);
    m.set("compiler.compile_s", 0.0);
    m.set("isa.capture_s", 0.0);
    m.set("isa.captures", tel.captures as f64);
    m.set("isa.cbp_import_s", import_s);
    m.set("pipeline.sim_s", sim_s);
    m.set(
        "pipeline.ns_per_lane_record",
        sim_s * 1e9 / committed(&report).max(1) as f64,
    );
    m.set(
        "runner.worker_busy_pct",
        job_s / (nproc() as f64 * spans.duration(sim)) * 100.0,
    );
    m.set("runner.fused_passes", tel.fused_passes as f64);
    m.set("runner.lanes_per_pass", tel.lanes_per_pass());
    m.set("runner.cache_stores", tel.jobs_run as f64);
    m.set("runner.cache_store_ms", store_ms);
    m.set("runner.cache_loads", tel.jobs_total as f64);
    m.set("runner.cache_load_us", load_us);
    m.set(
        "runner.loads_per_cell",
        tel.jobs_total as f64 / jobs.len() as f64,
    );
    m.set("core.render_ms", spans.duration(render) * 1e3);
    for name in ["serve.cell_hit_us", "serve.report_warm_ms", "serve.wire_us"] {
        m.set(name, 0.0);
    }
    m.set_self_times(&spans, traced_wall);
    m.set("trace_overhead_pct", (traced_wall / untraced - 1.0) * 100.0);
    Ok(Outcome {
        tally,
        metrics: m,
        stamp: stamp(p, w, &[]).field("untraced_wall_s", untraced),
        spans: Some(spans),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_counter_registers_as_a_failed_operation() {
        let (text, _) = gen::cbp_log(3, &gen::CBP_TEST);
        let (w, _) = TraceWorkload::from_cbp_text("test", &text).unwrap();
        let cfg = ExperimentConfig {
            commits: w.records(),
            ..ExperimentConfig::default()
        };
        let mut report = trace_report(&Runner::serial_no_cache(), &cfg, &w, TOP_N);
        let mut tally = Tally::default();
        check_solo(&mut tally, 3, &cfg, &w, &report);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        for lane in &mut report.runs {
            lane.mispredicts += 1;
        }
        check_solo(&mut tally, 3, &cfg, &w, &report);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
