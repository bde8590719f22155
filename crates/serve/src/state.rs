//! Persistent server state: the warm runner, the in-flight table, the
//! admission lanes and the service counters.
//!
//! State ownership (DESIGN.md §8): exactly one [`Runner`] lives for the
//! daemon's lifetime and owns every piece of warm state — the on-disk
//! result cache and the compile memo. Captured traces are not warm
//! state: the runner holds each only while queued cells need it, so
//! requests running at the same time share a capture and a later
//! request on the same stream captures it again. Handler threads never
//! hold state of their own; they borrow `ServerState` and stream
//! events.
//!
//! Scheduling is two-lane so cheap requests never queue behind cold
//! simulations:
//!
//! * **warm lane** — a disk-cache probe ([`Runner::probe`]). Hits are
//!   answered immediately without touching any permit or lock.
//! * **cold lane** — misses enter the [`Inflight`] table (duplicate
//!   concurrent cells coalesce onto one leader) and the leader takes one
//!   simulation permit before running; permits bound concurrent cold
//!   simulations to `--jobs`.
//!
//! Grid ops (`fig6a`, `report`, `sweep`, `check`) parallelize internally
//! through the runner's own pool, so they serialize against each other
//! on a single grid lane and coalesce at op granularity: an identical
//! concurrent grid request joins the running one instead of re-entering
//! the lane.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use ppsim_check::{run_check, CheckOptions};
use ppsim_core::{experiments, sweep, ExperimentConfig, Job, Json, Runner, SampleSpec};
use ppsim_obs::MetricSet;
use ppsim_runner::Inflight;

use crate::protocol::{CheckRequest, GridRequest, SweepKind, SweepRequest};
use crate::ServeOptions;

/// A counting semaphore (std has none): `acquire` blocks while no
/// permits remain; the returned guard releases on drop.
pub struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    /// A semaphore holding `n` permits (`n >= 1`).
    pub fn new(n: usize) -> Semaphore {
        assert!(n >= 1, "a semaphore needs at least one permit");
        Semaphore {
            permits: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a permit is free, then takes it.
    pub fn acquire(&self) -> SemaphoreGuard<'_> {
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.cv.wait(permits).unwrap();
        }
        *permits -= 1;
        SemaphoreGuard { sem: self }
    }
}

/// Releases its permit on drop.
pub struct SemaphoreGuard<'a> {
    sem: &'a Semaphore,
}

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        *self.sem.permits.lock().unwrap() += 1;
        self.sem.cv.notify_one();
    }
}

/// Service counters, reported by the `stats` op. Purely observational —
/// nothing here feeds back into result bytes.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused at the `--max-clients` cap.
    pub connections_refused: u64,
    /// Request lines that parsed and dispatched.
    pub requests: u64,
    /// Terminal `result` events sent.
    pub results: u64,
    /// Terminal `error` events sent (parse failures included).
    pub errors: u64,
    /// Lines dropped for exceeding [`crate::protocol::MAX_LINE`].
    pub oversized_lines: u64,
    /// Cell requests answered from the disk cache: warm-lane hits, and
    /// cold-lane leaders (a sampled cell's windows, or a cell a
    /// just-closed flight stored) that found every result cached.
    pub warm_hits: u64,
    /// Requests that joined another client's in-flight run.
    pub coalesced: u64,
    /// Cell requests that went to the cold lane as leader and simulated.
    pub cold_runs: u64,
    /// Grid-shaped ops executed (fig6a/report/sweep/check leaders).
    pub grid_ops: u64,
}

impl Counters {
    /// The counters as a metric registry (uniform JSON rendering).
    pub fn metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        m.counter("connections", self.connections);
        m.counter("connections_refused", self.connections_refused);
        m.counter("requests", self.requests);
        m.counter("results", self.results);
        m.counter("errors", self.errors);
        m.counter("oversized_lines", self.oversized_lines);
        m.counter("warm_hits", self.warm_hits);
        m.counter("coalesced", self.coalesced);
        m.counter("cold_runs", self.cold_runs);
        m.counter("grid_ops", self.grid_ops);
        m
    }
}

/// How a request's answer was produced (reported in the `result` event,
/// never inside its `data`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Simulated now, by this request: a cell, or a `fig6a`/`report`
    /// grid that simulated at least one cell (`sweep` and `check` always
    /// answer cold).
    Cold,
    /// Replayed from the disk cache: a cell hit, a sampled cell whose
    /// every window was a hit, or a `fig6a`/`report` grid whose every
    /// cell was a hit.
    Warm,
    /// Joined another client's in-flight run.
    Coalesced,
}

impl Provenance {
    /// The `warm` flag of the result event.
    pub fn warm(self) -> bool {
        matches!(self, Provenance::Warm)
    }

    /// The `coalesced` flag of the result event.
    pub fn coalesced(self) -> bool {
        matches!(self, Provenance::Coalesced)
    }
}

/// The daemon's shared state (see module docs for the ownership story).
pub struct ServerState {
    /// The warm runner. Public to the crate so tests can reach
    /// telemetry; handlers use the op methods below.
    pub runner: Runner,
    /// Cold-lane coalescing: one flight per canonical cell, holding the
    /// rendered result `data` text and whether it came from the cache.
    cells: Inflight<String, (String, bool)>,
    /// Op-level coalescing for grid-shaped requests, holding the
    /// rendered `data` text and how the leader produced it.
    grids: Inflight<String, (String, Provenance)>,
    /// Cold-simulation permits (`--jobs` of them).
    sim_permits: Semaphore,
    /// Grid lane: serializes grid ops against each other.
    grid_lane: Mutex<()>,
    /// Set by SIGINT or a `shutdown` request; the accept loop and the
    /// handlers poll it.
    pub stop: AtomicBool,
    counters: Mutex<Counters>,
    jobs: usize,
}

impl ServerState {
    /// Builds the state from validated options (the runner opens the
    /// cache; serve requires one, since warm state is the point).
    pub fn new(opts: &ServeOptions) -> ServerState {
        let effective_jobs = if opts.runner.jobs > 0 {
            opts.runner.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        ServerState {
            runner: Runner::new(opts.runner.clone()),
            cells: Inflight::new(),
            grids: Inflight::new(),
            sim_permits: Semaphore::new(effective_jobs),
            grid_lane: Mutex::new(()),
            stop: AtomicBool::new(false),
            counters: Mutex::new(Counters::default()),
            jobs: effective_jobs,
        }
    }

    /// Whether shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown (idempotent).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Runs `f` over the counters under the lock.
    pub fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut self.counters.lock().unwrap());
    }

    /// A snapshot of the counters.
    pub fn counters(&self) -> Counters {
        self.counters.lock().unwrap().clone()
    }

    /// Renders one full cell result — the deterministic `data` payload.
    fn render_cell(&self, job: &Job, r: &ppsim_runner::JobResult) -> String {
        Json::obj()
            .field("key", job.hash_hex().as_str())
            .field("label", job.label().as_str())
            .field("static_insns", r.static_insns)
            .field("static_cond_branches", r.static_cond_branches)
            .field("stats", r.stats.metrics().to_json())
            .to_string()
    }

    /// Answers a cell request: warm lane (cache probe, no permit), then
    /// cold lane (coalesced, permit-bounded). Returns the rendered
    /// `data` text plus how it was produced. `Err` only if a coalesced
    /// leader panicked.
    pub fn run_cell(&self, job: &Job) -> Result<(String, Provenance), String> {
        if let Some(hit) = self.runner.probe(job) {
            self.count(|c| c.warm_hits += 1);
            return Ok((self.render_cell(job, &hit), Provenance::Warm));
        }
        self.cold_lane(job.canon(), || {
            // run_job re-probes the cache first, so a leader that waited
            // out a just-finished flight replays instead of simulating.
            let r = self.runner.run_job(job);
            (self.render_cell(job, &r), r.from_cache)
        })
    }

    /// A sampled cell: always the cold lane (per-window results are
    /// cached inside the runner; the aggregate is cheap to rebuild). It
    /// answers warm when every window came from the cache.
    pub fn run_cell_sampled(
        &self,
        job: &Job,
        spec: SampleSpec,
    ) -> Result<(String, Provenance), String> {
        let key = format!("sampled|{}|{}", spec.canon(), job.canon());
        self.cold_lane(key, || {
            let s = self.runner.run_job_sampled(job, spec);
            let mut data = Json::obj()
                .field("key", job.hash_hex().as_str())
                .field("label", job.label().as_str())
                .field("sample", spec.canon().as_str())
                .field("static_insns", s.aggregate.static_insns)
                .field("static_cond_branches", s.aggregate.static_cond_branches)
                .field("stats", s.aggregate.stats.metrics().to_json());
            data = data.field(
                "windows",
                Json::Arr(
                    s.samples
                        .iter()
                        .map(|w| w.stats.metrics().to_json())
                        .collect(),
                ),
            );
            (data.to_string(), s.aggregate.from_cache)
        })
    }

    /// Runs a cell on the cold lane: coalesced under `key`, the leader
    /// holding a simulation permit. `work` renders the `data` text and
    /// says whether every result it used came from the disk cache; the
    /// leader then answers (and counts) warm instead of cold.
    fn cold_lane(
        &self,
        key: String,
        work: impl FnOnce() -> (String, bool),
    ) -> Result<(String, Provenance), String> {
        let (outcome, led) = self.cells.run(key, || {
            let _permit = self.sim_permits.acquire();
            work()
        });
        let provenance = match (led, &outcome) {
            (false, _) => Provenance::Coalesced,
            (true, Ok((_, true))) => Provenance::Warm,
            (true, _) => Provenance::Cold,
        };
        self.count(|c| match provenance {
            Provenance::Warm => c.warm_hits += 1,
            Provenance::Cold => c.cold_runs += 1,
            Provenance::Coalesced => c.coalesced += 1,
        });
        Ok((outcome?.0, provenance))
    }

    /// Runs a grid-shaped op under the grid lane with op-level
    /// coalescing. `render` executes with the lane held and says how its
    /// answer was produced; progress streaming happens inside it (the
    /// leader owns the connection that asked first).
    fn run_grid_op<F: FnOnce() -> (String, Provenance)>(
        &self,
        key: String,
        render: F,
    ) -> Result<(String, Provenance), String> {
        let (outcome, led) = self.grids.run(key, || {
            let _lane = self.grid_lane.lock().unwrap();
            render()
        });
        self.count(|c| {
            if led {
                c.grid_ops += 1;
            } else {
                c.coalesced += 1;
            }
        });
        let (data, provenance) = outcome?;
        Ok((
            data,
            if led {
                provenance
            } else {
                Provenance::Coalesced
            },
        ))
    }

    /// Collects a plan in one pass — one cache probe per unique cell, the
    /// misses in one pool run — streaming `progress(resolved, total)`
    /// from the pool's workers through a lock, and renders the answer.
    /// The provenance is warm when no cell was simulated.
    fn one_pass(
        &self,
        cfg: &ExperimentConfig,
        spec: experiments::PlanSpec,
        progress: impl FnMut(u64, u64) + Send,
        render: impl FnOnce(&experiments::PlanResults) -> String,
    ) -> (String, Provenance) {
        let jobs = experiments::plan(cfg, spec);
        let progress = Mutex::new(progress);
        let results = experiments::PlanResults::collect_reporting(
            &self.runner,
            cfg,
            &jobs,
            &|done, total| (progress.lock().unwrap())(done, total),
        );
        let provenance = if results.simulated() == 0 {
            Provenance::Warm
        } else {
            Provenance::Cold
        };
        (render(&results), provenance)
    }

    /// The `fig6a` op: the grid in one pass (see `one_pass`), rendered
    /// as the comparison JSON (identical bytes to the batch `fig6a`
    /// artifact). `progress` hears `(resolved, total)` once after the
    /// cache probe and once per simulated cell, so a warm grid reports
    /// once.
    pub fn run_fig6a(
        &self,
        req: &GridRequest,
        progress: impl FnMut(u64, u64) + Send,
    ) -> Result<(String, Provenance), String> {
        let cfg = req.config();
        self.run_grid_op(format!("fig6a|{}", req.canon()), || {
            self.one_pass(&cfg, experiments::PlanSpec::Fig6a, progress, |results| {
                results.fig6a(&cfg).to_json().to_string()
            })
        })
    }

    /// The `report` op: every suite cell in one pass (see `one_pass`;
    /// `progress` reports as for [`ServerState::run_fig6a`]), rendered
    /// as the consolidated report. `data.text` is byte-identical to
    /// `ppsim suite` stdout for the same configuration; `data.json` is
    /// the `--json` artifact's deterministic `data` object.
    pub fn run_report(
        &self,
        req: &GridRequest,
        progress: impl FnMut(u64, u64) + Send,
    ) -> Result<(String, Provenance), String> {
        let cfg = req.config();
        self.run_grid_op(format!("report|{}", req.canon()), || {
            self.one_pass(
                &cfg,
                experiments::PlanSpec::FullReport,
                progress,
                |results| {
                    // One collection serves both renderings — the text
                    // body and the JSON artifact assemble from the same
                    // results.
                    Json::obj()
                        .field("text", results.report_text(&cfg).as_str())
                        .field("json", results.report_json(&cfg))
                        .to_string()
                },
            )
        })
    }

    /// The `sweep` op.
    pub fn run_sweep(&self, req: &SweepRequest) -> Result<(String, Provenance), String> {
        let cfg = req.grid.config();
        let kind = req.kind;
        let ifconv = req.ifconv;
        let key = format!(
            "sweep|{}|ifconv={}|{}",
            kind.name(),
            ifconv,
            req.grid.canon()
        );
        self.run_grid_op(key, move || {
            let data = match kind {
                SweepKind::Size => sweep::size_sweep(&self.runner, &cfg, ifconv)
                    .to_json()
                    .to_string(),
                SweepKind::History => sweep::history_sweep(&self.runner, &cfg, ifconv)
                    .to_json()
                    .to_string(),
                SweepKind::Threshold => {
                    sweep::threshold_json(&sweep::threshold_sweep(&self.runner, &cfg)).to_string()
                }
            };
            (data, Provenance::Cold)
        })
    }

    /// The `check` op: a differential-cosimulation sweep sharing the
    /// server's cache directory and job budget.
    pub fn run_check_op(&self, req: &CheckRequest) -> Result<(String, Provenance), String> {
        let opts = CheckOptions {
            seed: req.seed,
            iters: req.iters,
            jobs: self.jobs,
            cache_dir: self.runner.cache().map(|c| c.dir().join("check")),
            dump_dir: None,
            sample_epsilon: req.sample_epsilon,
            ..CheckOptions::default()
        };
        let key = format!(
            "check|seed={}|iters={}|eps={:?}",
            req.seed, req.iters, req.sample_epsilon
        );
        self.run_grid_op(key, move || {
            let report = run_check(&opts);
            let data = Json::obj()
                .field("passed", report.passed())
                .field("findings", report.findings.len())
                .field("summary", report.summary().as_str())
                .to_string();
            (data, Provenance::Cold)
        })
    }

    /// The `stats` op: server counters + runner telemetry + cache
    /// usage. Deliberately *not* deterministic — it describes execution,
    /// not experiments.
    pub fn stats_json(&self) -> Json {
        let cache = match self.runner.cache() {
            Some(c) => {
                let usage = c.usage();
                Json::obj()
                    .field("entries", usage.entries)
                    .field("bytes", usage.bytes)
                    .field("evictions", c.evictions())
            }
            None => Json::Null,
        };
        Json::obj()
            .field("server", self.counters().metrics().to_json())
            .field("telemetry", self.runner.telemetry().to_json())
            .field("cache", cache)
    }
}
