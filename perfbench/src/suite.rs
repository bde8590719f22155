//! `suite-full`: `ppsim suite`'s path, cold, over all 22 programs.
//!
//! Why: it is the paper's evaluation, and most of its job time is the
//! pipeline's per-record loop. Every iteration uses a fresh cache, so it
//! also pays compilation, functional capture and 220 fsync'd cache
//! stores, the write side of the cache.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ppsim_core::experiments::{fig6a_col, full_results, plan, PlanResults, PlanSpec};
use ppsim_core::{ExperimentConfig, Job};
use ppsim_predictors::SchemeSpec;

use crate::gen::Rng;
use crate::kernels::{self, Kernels};
use crate::measure::{
    peak_rss_mib, reset_peak_rss, runs_json, samples_json, Interval, Spans, Stopwatch, Tally,
};
use crate::{batch_metrics, nproc, runner_at, Args, Metrics, Outcome, TempDir};

/// Set-ups timed together as one `setup_s` sample: one takes about half
/// a millisecond, so a sample averages a hundred.
const SETUP_BATCH: usize = 100;

/// `setup_s` samples, all taken before the timed phase: `ppsim suite`
/// sets up once, in a fresh process, and a process that has run cold
/// suites sets up measurably slower.
const SETUP_SAMPLES: usize = 10;

/// Cells re-simulated solo by the output check.
const SOLO_CHECKS: usize = 4;

/// Set-up: what `ppsim suite` does before its grid runs — build the
/// runner (suite specs, cache handle) and plan the 220 cells. Returns the
/// mean seconds of one set-up over a batch of [`SETUP_BATCH`].
///
/// The cache directory `dir` exists already, as `ppsim suite`'s usually
/// does: creating a fresh one per set-up would time the filesystem,
/// whose `mkdir` here takes from 70 µs to 700 µs depending on its state.
fn setup_sample(cfg: &ExperimentConfig, dir: &Path) -> f64 {
    let started = Instant::now();
    for _ in 0..SETUP_BATCH {
        let runner = runner_at(dir.to_path_buf());
        let jobs = plan(cfg, PlanSpec::FullReport);
        black_box((runner, jobs));
    }
    started.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

/// The predicate scheme's Figure 6a column average, in percent.
fn predicate_misp_pct(results: &PlanResults, cfg: &ExperimentConfig) -> f64 {
    results
        .fig6a(cfg)
        .average_rate(fig6a_col(SchemeSpec::Predicate))
        * 100.0
}

pub fn run(args: &Args, tmp: &TempDir) -> Result<Outcome, String> {
    let cfg = ExperimentConfig::default();
    let jobs = plan(&cfg, PlanSpec::FullReport);
    if args.trace {
        return traced(args, tmp, &cfg, &jobs);
    }
    let setup_dir = tmp.join("setup");
    std::fs::create_dir_all(&setup_dir).map_err(|e| format!("creating cache dir: {e}"))?;
    let setup: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| setup_sample(&cfg, &setup_dir))
        .collect();

    let pid = std::process::id();
    let mut tally = Tally::default();
    let mut runs: Vec<Interval> = Vec::new();
    let mut peaks = Vec::new();
    let mut minsts = Vec::new();
    let mut first_text: Option<String> = None;
    let mut last: Option<(PlanResults, String, PathBuf)> = None;
    let phase = Instant::now();
    while runs.is_empty() || phase.elapsed().as_secs_f64() < args.seconds {
        let i = runs.len();
        if let Some((_, _, dir)) = last.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = tmp.join(&format!("cold{i}"));
        let runner = runner_at(dir.clone());
        reset_peak_rss(pid)?;
        let sw = Stopwatch::start(pid)?;
        let results = full_results(&runner, &cfg);
        let text = results.report_text(&cfg);
        let iv = sw.stop()?;
        peaks.push(peak_rss_mib(pid)?);
        drop(runner);
        tally.ok(jobs.len() as u64);
        let committed: u64 = jobs.iter().map(|j| results.stats_of(j).committed).sum();
        minsts.push(committed as f64 / 1e6 / iv.cpu);
        runs.push(iv);
        match &first_text {
            None => first_text = Some(text.clone()),
            Some(first) => tally.op(*first == text, || {
                format!("cold report of iteration {i} differs from iteration 0")
            }),
        }
        last = Some((results, text, dir));
    }
    let (results, text, dir) = last.expect("at least one iteration ran");
    check(&mut tally, args.seed, &cfg, &jobs, &results, &text, dir);

    let misp = predicate_misp_pct(&results, &cfg);
    Ok(Outcome {
        tally,
        metrics: batch_metrics(&setup, &runs, &minsts, &peaks, misp),
        stamp: stamp(&cfg, &jobs, &runs).field("setup_s", samples_json(&setup)),
        spans: None,
    })
}

fn stamp(cfg: &ExperimentConfig, jobs: &[Job], runs: &[Interval]) -> ppsim_obs::Json {
    ppsim_obs::Json::obj()
        .field("cells", jobs.len())
        .field("commits", cfg.commits)
        .field("workers", nproc())
        .field("runs", runs_json(runs))
}

/// The output checks, outside the timed phase: the cold report equals a
/// warm re-render from the cache the run wrote (with nothing
/// re-simulated), and seeded cells re-simulated solo equal their fused
/// lanes.
fn check(
    tally: &mut Tally,
    seed: u64,
    cfg: &ExperimentConfig,
    jobs: &[Job],
    results: &PlanResults,
    text: &str,
    dir: PathBuf,
) {
    let runner = runner_at(dir);
    let warm = full_results(&runner, cfg).report_text(cfg);
    let resimulated = runner.telemetry().jobs_run;
    tally.op(warm == text && resimulated == 0, || {
        format!("warm re-render differs from the cold report ({resimulated} cells re-simulated)")
    });
    let mut rng = Rng::new(seed, 3);
    for _ in 0..SOLO_CHECKS {
        let job = &jobs[rng.below(jobs.len() as u64) as usize];
        let solo = kernels::compile_job(job)
            .and_then(|p| kernels::capture(&p, job.commits))
            .and_then(|t| kernels::solo(job, t));
        match solo {
            Ok(stats) => tally.op(stats == *results.stats_of(job), || {
                format!("{} simulated solo differs from its fused lane", job.label())
            }),
            Err(e) => tally.error(&job.label(), e),
        }
    }
}

/// The traced run: one untraced pass for reference, one pass with spans
/// around each call into a crate, then kernels over the suite's own
/// streams and cache entries.
fn traced(
    args: &Args,
    tmp: &TempDir,
    cfg: &ExperimentConfig,
    jobs: &[Job],
) -> Result<Outcome, String> {
    let untraced = {
        let runner = runner_at(tmp.join("untraced"));
        let started = Instant::now();
        let text = full_results(&runner, cfg).report_text(cfg);
        black_box(text);
        started.elapsed().as_secs_f64()
    };

    let mut spans = Spans::default();
    let dir = tmp.join("traced");
    let root = spans.enter("bench", "suite-full");
    let runner = spans.time("runner", "Runner::new", || runner_at(dir.clone()));
    let planned = spans.time("core", "experiments::plan", || {
        plan(cfg, PlanSpec::FullReport)
    });
    let grid = spans.enter("runner", "PlanResults::collect/Runner::run_grid");
    let results = PlanResults::collect(&runner, cfg, &planned);
    spans.exit(grid);
    let render = spans.enter("core", "PlanResults::report_text");
    let text = results.report_text(cfg);
    spans.exit(render);
    spans.exit(root);

    // The runner's own per-job split, in worker-thread seconds; divided
    // by the worker count it is the share of the grid's wall each layer
    // would hold with every worker busy.
    let tel = runner.telemetry();
    let sum = |f: fn(&ppsim_runner::JobTiming) -> u64| {
        tel.per_job.iter().map(f).sum::<u64>() as f64 / 1e6
    };
    let compile_s = sum(|t| t.compile_micros);
    let capture_s = sum(|t| t.capture_micros);
    let sim_s = sum(|t| t.sim_micros);
    let job_s = sum(|t| t.wall_micros);
    let workers = nproc() as f64;
    spans.attribute("runner", "compiler", compile_s / workers);
    spans.attribute("runner", "isa", capture_s / workers);
    spans.attribute(
        "runner",
        "pipeline",
        (job_s - compile_s - capture_s) / workers,
    );

    let mut tally = Tally::default();
    tally.ok(jobs.len() as u64);
    check(
        &mut tally,
        args.seed,
        cfg,
        jobs,
        &results,
        &text,
        dir.clone(),
    );

    let k = Kernels::over_grid(jobs)?;
    let (loaded, load_us) = kernels::cache_loads(&dir, jobs)?;
    let store_ms = kernels::cache_stores(&tmp.join("store-replay"), jobs, &loaded)?;

    let committed: u64 = jobs.iter().map(|j| results.stats_of(j).committed).sum();
    let traced_wall = spans.duration(root);
    let mut m = Metrics::default();
    k.set_metrics(&mut m);
    m.set("compiler.compile_s", compile_s);
    m.set("isa.capture_s", capture_s);
    m.set("isa.captures", tel.captures as f64);
    m.set("isa.cbp_import_s", 0.0);
    m.set("pipeline.sim_s", sim_s);
    m.set(
        "pipeline.ns_per_lane_record",
        sim_s * 1e9 / committed.max(1) as f64,
    );
    m.set(
        "runner.worker_busy_pct",
        job_s / (workers * spans.duration(grid)) * 100.0,
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
        stamp: stamp(cfg, jobs, &[]).field("untraced_wall_s", untraced),
        spans: Some(spans),
    })
}
