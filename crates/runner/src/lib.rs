//! `ppsim-runner` — parallel, cache-aware experiment execution.
//!
//! The runner owns the path from "a grid of experiment cells" to "a vector
//! of results": it probes the on-disk cache, memoizes compilation per
//! (benchmark, compile-flags), captures each stream once and holds the
//! capture only while queued cells still need it, fans cache misses
//! across a deterministic work-stealing thread pool one cell per job,
//! stores fresh results back, and assembles everything in canonical grid
//! order. Reports built from a grid are byte-identical for any `--jobs N`
//! and for cold vs. warm caches; only the telemetry (wall times, hit
//! counts) differs, and that never enters the deterministic report
//! stream.
//!
//! ```text
//! Vec<Job> ──cache probe──▶ misses ──pool──▶ simulate ──store──▶
//!          ──────────────── hits ─────────────────────▶ assemble (grid order)
//! ```

pub mod cache;
pub mod hash;
pub mod inflight;
pub mod job;
mod memo;
pub mod pool;

/// The hand-rolled JSON value (moved to `ppsim-obs`; re-exported so
/// `ppsim_runner::json::Json` paths keep working).
pub use ppsim_obs::json;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use ppsim_compiler::{compile, spec2000_suite, CompileOptions, Compiled, WorkloadSpec};
use ppsim_pipeline::{SampleSpec, SimOptions, TraceBuffer, TraceCursor};

use memo::Memo;

pub use cache::{CacheUsage, DiskCache};
pub use inflight::Inflight;
pub use job::{Job, JobResult, SampleSlice, TraceId};
pub use ppsim_obs::Json;

/// Upper bound on explicit worker counts. Worker threads each cost a
/// stack and scheduler churn; anything beyond this is a typo, not a
/// machine.
pub const MAX_JOBS: usize = 1024;

/// How a [`Runner`] executes grids.
#[derive(Clone, Debug)]
pub struct RunnerOptions {
    /// Worker threads; `0` means "one per available CPU".
    pub jobs: usize,
    /// Consult and populate the on-disk result cache.
    pub cache: bool,
    /// Cache directory override (`None` = [`DiskCache::default_dir`]).
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the on-disk cache (`None` = unbounded). When set,
    /// every store evicts least-recently-used entries down to the cap.
    pub cache_max_bytes: Option<u64>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            jobs: 0,
            cache: true,
            cache_dir: None,
            cache_max_bytes: None,
        }
    }
}

impl RunnerOptions {
    /// Parses `--jobs N`, `--no-cache`, `--cache-dir P` and
    /// `--cache-max-bytes B` from a raw argument list, returning the
    /// validated options and the unconsumed arguments.
    pub fn from_args(args: &[String]) -> Result<(RunnerOptions, Vec<String>), String> {
        let mut opts = RunnerOptions::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--jobs" | "-j" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
                    if n == 0 {
                        return Err(
                            "--jobs must be at least 1 (omit the flag for one worker per CPU)"
                                .to_string(),
                        );
                    }
                    opts.jobs = n;
                }
                "--no-cache" => opts.cache = false,
                "--cache-dir" => {
                    let v = it.next().ok_or("--cache-dir needs a value")?;
                    opts.cache_dir = Some(PathBuf::from(v));
                }
                "--cache-max-bytes" => {
                    let v = it.next().ok_or("--cache-max-bytes needs a value")?;
                    let b: u64 = v
                        .parse()
                        .map_err(|_| format!("bad --cache-max-bytes value `{v}`"))?;
                    opts.cache_max_bytes = Some(b);
                }
                _ => rest.push(a.clone()),
            }
        }
        opts.validate()?;
        Ok((opts, rest))
    }

    /// Rejects nonsensical combinations before they reach the pool: a
    /// worker count beyond [`MAX_JOBS`], an empty cache-directory path,
    /// or a byte budget on a disabled cache. `jobs == 0` remains the
    /// *programmatic* "one worker per CPU" default — only the explicit
    /// CLI flag refuses it (in [`RunnerOptions::from_args`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.jobs > MAX_JOBS {
            return Err(format!(
                "--jobs {} is beyond the supported maximum of {MAX_JOBS}",
                self.jobs
            ));
        }
        if let Some(dir) = &self.cache_dir {
            if dir.as_os_str().is_empty() {
                return Err("--cache-dir must not be empty".to_string());
            }
        }
        if self.cache_max_bytes.is_some() && !self.cache {
            return Err("--cache-max-bytes is meaningless with --no-cache".to_string());
        }
        Ok(())
    }

    fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Execution telemetry for one grid (and cumulatively for a runner's
/// lifetime). Telemetry is *observational*: it never feeds back into
/// results or report bytes.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Jobs requested.
    pub jobs_total: u64,
    /// Jobs computed rather than read from the cache (cache misses):
    /// simulated, or derived from a simulated shadow twin
    /// ([`Telemetry::jobs_derived`] of them). So `jobs_run + cache_hits
    /// == jobs_total`, and every job counted here was stored.
    pub jobs_run: u64,
    /// Cache misses derived from their shadow twin's simulation in the
    /// same grid instead of simulated (see [`Runner::run_grid`]). They
    /// count in [`Telemetry::jobs_run`] and add no [`Telemetry::per_job`]
    /// row, time or capture.
    pub jobs_derived: u64,
    /// Jobs served from the on-disk cache.
    pub cache_hits: u64,
    /// Wall time of simulated jobs, summed (µs).
    pub wall_micros_total: u64,
    /// Fresh trace captures performed: one per (binary, budget) stream
    /// while cells are queued on it, so a grid captures each of its
    /// streams once and a later grid captures them again.
    pub captures: u64,
    /// Simulated jobs that replayed a capture another cell made: a cell
    /// of the same grid, or of a grid running at the same time that
    /// still had cells queued on the stream.
    pub trace_memo_hits: u64,
    /// Wall time spent capturing traces, summed (µs).
    pub capture_micros_total: u64,
    /// Binaries evicted (least recently used first) from the in-process
    /// compile memo by its size cap — a long-lived runner (`ppsim serve`)
    /// that has compiled more than 256 binaries. Captured traces are
    /// never memoized, so they are never evicted.
    pub memo_evictions: u64,
    /// Fused lane-parallel passes executed. Always 0: every cell runs as
    /// its own pool job. The field (and its `fused_passes` JSON key)
    /// stays for readers written against fused grids.
    pub fused_passes: u64,
    /// Per-simulated-job timing phases, in grid order. Capped at
    /// [`Telemetry::MAX_PER_JOB`] entries (oldest dropped) so a
    /// long-running daemon's telemetry stays bounded.
    pub per_job: Vec<JobTiming>,
}

/// Wall-time phases of one simulated job: compilation (0 when the memo
/// already held the binary), trace capture (0 when another cell captured
/// the stream, or for an external trace), simulation, and everything
/// else (cache store, bookkeeping) folded into the total.
#[derive(Clone, Debug, Default)]
pub struct JobTiming {
    /// The job's [`Job::label`].
    pub label: String,
    /// End-to-end wall time (µs).
    pub wall_micros: u64,
    /// Time spent compiling the benchmark (µs).
    pub compile_micros: u64,
    /// Time spent capturing the functional trace (µs).
    pub capture_micros: u64,
    /// Time spent inside `Simulator::run` (µs).
    pub sim_micros: u64,
}

impl Telemetry {
    /// Upper bound on retained [`Telemetry::per_job`] rows.
    pub const MAX_PER_JOB: usize = 1024;

    fn absorb(&mut self, jobs: &[Job], results: &[JobResult]) {
        self.jobs_total += jobs.len() as u64;
        for (job, r) in jobs.iter().zip(results) {
            if r.from_cache {
                self.cache_hits += 1;
            } else if r.derived {
                self.jobs_run += 1;
                self.jobs_derived += 1;
            } else {
                self.jobs_run += 1;
                self.wall_micros_total += r.wall_micros;
                if r.capture_micros > 0 {
                    self.captures += 1;
                    self.capture_micros_total += r.capture_micros;
                }
                if r.trace_memo_hit {
                    self.trace_memo_hits += 1;
                }
                self.per_job.push(JobTiming {
                    label: job.label(),
                    wall_micros: r.wall_micros,
                    compile_micros: r.compile_micros,
                    capture_micros: r.capture_micros,
                    sim_micros: r.sim_micros,
                });
            }
        }
        if self.per_job.len() > Self::MAX_PER_JOB {
            let excess = self.per_job.len() - Self::MAX_PER_JOB;
            self.per_job.drain(..excess);
        }
    }

    /// Average lanes per fused pass. Always 0, like
    /// [`Telemetry::fused_passes`].
    pub fn lanes_per_pass(&self) -> f64 {
        0.0
    }

    /// Fraction of simulated benchmark jobs that replayed another cell's
    /// capture (`trace_memo_hits / (trace_memo_hits + captures)`; 0 when
    /// no benchmark job ran).
    pub fn trace_memo_hit_rate(&self) -> f64 {
        let lookups = self.trace_memo_hits + self.captures;
        if lookups == 0 {
            0.0
        } else {
            self.trace_memo_hits as f64 / lookups as f64
        }
    }

    /// Renders the telemetry as a JSON object (for `--json` artifacts).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("jobs_total", self.jobs_total)
            .field("jobs_run", self.jobs_run)
            .field("jobs_derived", self.jobs_derived)
            .field("cache_hits", self.cache_hits)
            .field("wall_micros_total", self.wall_micros_total)
            .field("captures", self.captures)
            .field("trace_memo_hits", self.trace_memo_hits)
            .field("trace_memo_hit_rate", self.trace_memo_hit_rate())
            .field("capture_micros_total", self.capture_micros_total)
            .field("memo_evictions", self.memo_evictions)
            .field("fused_passes", self.fused_passes)
            .field("lanes_per_pass", self.lanes_per_pass())
            .field(
                "per_job",
                Json::Arr(
                    self.per_job
                        .iter()
                        .map(|t| {
                            Json::obj()
                                .field("job", t.label.as_str())
                                .field("wall_micros", t.wall_micros)
                                .field("compile_micros", t.compile_micros)
                                .field("capture_micros", t.capture_micros)
                                .field("sim_micros", t.sim_micros)
                        })
                        .collect(),
                ),
            )
    }

    /// One-line human summary (stderr-friendly).
    pub fn summary(&self) -> String {
        format!(
            "{} jobs: {} simulated, {} derived from a shadow twin, {} from cache, \
             {:.2}s simulation time",
            self.jobs_total,
            self.jobs_run - self.jobs_derived,
            self.jobs_derived,
            self.cache_hits,
            self.wall_micros_total as f64 / 1e6,
        )
    }
}

/// Compilation memo key: everything that affects the compiled binary.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CompileKey {
    benchmark: String,
    ifconv: bool,
    /// `f64::to_bits` of the threshold override (`u64::MAX` = none).
    threshold_bits: u64,
    profile_steps: u64,
}

impl CompileKey {
    fn of(job: &Job) -> CompileKey {
        CompileKey {
            benchmark: job.benchmark.clone(),
            ifconv: job.ifconv,
            threshold_bits: job.ifconv_threshold.map_or(u64::MAX, f64::to_bits),
            profile_steps: job.profile_steps,
        }
    }
}

/// Identity of a captured stream: the binary plus the capture length.
/// Jobs with different commit budgets need different capture lengths, so
/// the budget is part of the key (a sweep uses one budget, so every cell
/// of a binary shares one capture; a sampled grid's windows all share one
/// capture spanning the last window's end).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct TraceKey {
    compile: CompileKey,
    steps: u64,
}

/// The stream a cell replays.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Stream {
    /// A registered external trace, by content hash.
    External(u64),
    /// A capture of the job's binary.
    Capture(TraceKey),
}

impl Stream {
    fn of(job: &Job) -> Stream {
        match job.trace {
            Some(id) => Stream::External(id.content),
            None => Stream::Capture(TraceKey {
                compile: CompileKey::of(job),
                steps: job.sample.map_or(job.commits, |slice| slice.spec.span()),
            }),
        }
    }
}

/// A captured stream that queued cells still need.
struct LiveStream {
    /// Cells holding a [`Claim`] on the stream.
    pending: usize,
    /// The capture, made by the first of those cells to run.
    trace: Arc<OnceLock<Arc<TraceBuffer>>>,
}

/// The live-stream table: captures keyed by stream, each removed when
/// the last cell claiming it finishes.
type LiveStreams = Mutex<HashMap<TraceKey, LiveStream>>;

/// One queued cell's hold on its stream's capture. Dropping it — when
/// the cell finishes, when its job panics, or with the grid for a cell
/// that never ran — releases the hold, and the last release removes the
/// stream from the table, so nothing pins a capture past its cells.
struct Claim<'r> {
    live: &'r LiveStreams,
    key: TraceKey,
    trace: Arc<OnceLock<Arc<TraceBuffer>>>,
}

impl Claim<'_> {
    /// The claimed stream's capture of `compiled`, made now if no other
    /// cell has made it. Yields `(trace, capture_micros, replayed)`:
    /// `capture_micros` is nonzero only for the cell that captured. Full
    /// runs capture `job.commits` records; sampled runs capture the
    /// schedule's span once and window into it.
    fn capture(&self, compiled: &Compiled) -> (Arc<TraceBuffer>, u64, bool) {
        let mut capture_micros = 0u64;
        let mut fresh = false;
        let trace = self
            .trace
            .get_or_init(|| {
                fresh = true;
                let started = Instant::now();
                let buf = TraceBuffer::capture(&compiled.program, self.key.steps)
                    .unwrap_or_else(|e| panic!("functional machine died: {e}"));
                capture_micros = started.elapsed().as_micros() as u64;
                Arc::new(buf)
            })
            .clone();
        (trace, capture_micros, !fresh)
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        // This runs while a failed job unwinds, so it must not panic.
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(stream) = live.get_mut(&self.key) {
            stream.pending -= 1;
            if stream.pending == 0 {
                live.remove(&self.key);
            }
        }
    }
}

/// One sampled grid cell after aggregation: the merged estimate plus the
/// per-window results it was built from (reports show both).
#[derive(Clone, Debug)]
pub struct SampledResult {
    /// Counter-summed aggregate of every window (see
    /// `SimStats::merge`): rates derived from it are the sampled
    /// estimates of the full run's rates.
    pub aggregate: JobResult,
    /// Per-window results, in window order.
    pub samples: Vec<JobResult>,
}

/// The experiment execution engine.
pub struct Runner {
    opts: RunnerOptions,
    cache: Option<DiskCache>,
    suite: Vec<WorkloadSpec>,
    /// Per-key compile memo: compile once per binary.
    compiled: Mutex<Memo<CompileKey, Arc<Compiled>>>,
    /// Captures that queued cells still need: the first cell of a stream
    /// captures it, every other cell claiming it replays that capture,
    /// and the last one to finish drops it.
    live: LiveStreams,
    /// Externally supplied trace streams, keyed by content hash (see
    /// [`Runner::register_trace`]). Unlike captures these are provided,
    /// not derived, so they are held for the runner's lifetime: the
    /// runner cannot recreate them.
    ext_traces: Mutex<HashMap<u64, Arc<TraceBuffer>>>,
    telemetry: Mutex<Telemetry>,
}

impl Runner {
    /// A runner with the given options. Cache-open failures degrade to
    /// running without a cache rather than erroring.
    pub fn new(opts: RunnerOptions) -> Runner {
        let cache = if opts.cache {
            let dir = opts
                .cache_dir
                .clone()
                .unwrap_or_else(DiskCache::default_dir);
            DiskCache::open_capped(dir, opts.cache_max_bytes).ok()
        } else {
            None
        };
        Runner {
            opts,
            cache,
            suite: spec2000_suite(),
            compiled: Mutex::new(Memo::new(Self::COMPILE_MEMO_CAP)),
            live: Mutex::new(HashMap::new()),
            ext_traces: Mutex::new(HashMap::new()),
            telemetry: Mutex::new(Telemetry::default()),
        }
    }

    /// Registers an externally supplied trace stream (an imported
    /// `.pptrace` file or CBP import) and returns the [`TraceId`] that
    /// names it in [`Job::trace`]. The identity is the stream's content
    /// hash, so registering the same stream twice is idempotent and two
    /// renamed copies of one file share cache entries.
    pub fn register_trace(&self, trace: Arc<TraceBuffer>, branches_only: bool) -> TraceId {
        let content = ppsim_isa::pptrace::content_hash(&trace);
        self.ext_traces.lock().unwrap().insert(content, trace);
        TraceId {
            content,
            branches_only,
        }
    }

    /// Looks up a registered external trace.
    fn ext_trace(&self, id: TraceId) -> Arc<TraceBuffer> {
        self.ext_traces
            .lock()
            .unwrap()
            .get(&id.content)
            .cloned()
            .unwrap_or_else(|| {
                panic!(
                    "trace {:016x} was not registered with this runner",
                    id.content
                )
            })
    }

    /// A serial, cache-less runner (unit tests; guaranteed hermetic).
    pub fn serial_no_cache() -> Runner {
        Runner::new(RunnerOptions {
            jobs: 1,
            cache: false,
            cache_dir: None,
            ..RunnerOptions::default()
        })
    }

    /// Cumulative telemetry since construction.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.lock().unwrap().clone()
    }

    /// The on-disk result cache, when one is open.
    pub fn cache(&self) -> Option<&DiskCache> {
        self.cache.as_ref()
    }

    /// Probes the on-disk cache for `job` without simulating or touching
    /// telemetry — the warm fast path of a serving front end: a hit can
    /// be returned immediately, bypassing any scheduling or coalescing
    /// machinery reserved for cold simulations.
    pub fn probe(&self, job: &Job) -> Option<JobResult> {
        self.cache.as_ref()?.load(job)
    }

    /// Captured streams the runner holds right now: streams whose first
    /// queued cell has captured them and whose last has not finished. It
    /// reads 0 whenever no grid is running.
    pub fn live_streams(&self) -> usize {
        self.live
            .lock()
            .expect("live-stream lock poisoned")
            .values()
            .filter(|s| s.trace.get().is_some())
            .count()
    }

    /// Runs a grid of jobs and returns results in grid order.
    ///
    /// Cache hits are resolved serially up front (file reads — not worth
    /// threading); each miss is one pool job, and misses are scheduled
    /// stream by stream so each capture serves its cells back to back and
    /// is dropped when its last cell finishes. A miss whose twin with the
    /// shadow predictor (`shadow: true`, every other input equal) also
    /// misses is not scheduled: the shadow predictor only observes, so
    /// the twin's statistics with `shadow_mispredicts` and
    /// `early_resolved_saves` zeroed are this cell's, and they are stored
    /// under this cell's own key. Results are assembled by grid index, so
    /// the output order — and any report rendered from it — is
    /// independent of worker count and scheduling.
    pub fn run_grid(&self, jobs: &[Job]) -> Vec<JobResult> {
        self.run_grid_reporting(jobs, &|_, _| {})
    }

    /// [`Runner::run_grid`], reporting `progress(resolved, total)` over
    /// the grid's cells: once after the cache probe, with the hits
    /// resolved, then once per simulated cell as the pool finishes it (a
    /// cell derived from a shadow twin resolves with its twin). Workers
    /// count and report under one lock, so `resolved` never goes
    /// backwards and the last report reads `resolved == total`. A
    /// simulated cell releases its stream before it reports.
    pub fn run_grid_reporting(
        &self,
        jobs: &[Job],
        progress: &(dyn Fn(u64, u64) + Sync),
    ) -> Vec<JobResult> {
        // Each cell's canonical key, derived once for its load and its
        // store.
        let canons: Vec<String> = jobs.iter().map(Job::canon).collect();
        // 1. Serial cache probe.
        let mut slots: Vec<Option<JobResult>> = match &self.cache {
            Some(cache) => canons.iter().map(|c| cache.load_canon(c)).collect(),
            None => vec![None; jobs.len()],
        };

        // 2. Simulate the misses, one cell per pool job, each holding a
        //    claim on its stream until it finishes; cells with a missing
        //    shadow twin wait for the twin instead.
        let twins = Self::shadow_twins(jobs, &slots);
        let mut resolves = vec![1u64; jobs.len()];
        for &(_, twin) in &twins {
            resolves[twin] += 1;
        }
        let order = Self::stream_order(jobs, &slots, &twins);
        let claims = self.claim_streams(jobs, &order);
        let total = jobs.len() as u64;
        let hits = total - (order.len() + twins.len()) as u64;
        progress(hits, total);
        let resolved = Mutex::new(hits);
        let fresh = pool::run_indexed(order.len(), self.opts.effective_jobs(), |k| {
            let claim = claims[k].lock().expect("claim lock poisoned").take();
            let result = self.execute(&jobs[order[k]], claim.as_ref());
            drop(claim);
            let mut resolved = resolved.lock().expect("progress lock poisoned");
            *resolved += resolves[order[k]];
            progress(*resolved, total);
            result
        });

        // 3. Store fresh and derived results under their canonical keys
        //    and fill their slots.
        let store = |i: usize, result: &JobResult| {
            if let Some(cache) = &self.cache {
                // A failed store is not fatal — the result is still
                // good, the next run just recomputes.
                let _ = cache.store_canon(&canons[i], result);
            }
        };
        for (&i, result) in order.iter().zip(fresh) {
            store(i, &result);
            slots[i] = Some(result);
        }
        for &(i, twin) in &twins {
            let simulated = slots[twin].as_ref().expect("twins simulate");
            let mut stats = simulated.stats.clone();
            stats.shadow_mispredicts = 0;
            stats.early_resolved_saves = 0;
            let result = JobResult {
                stats,
                static_insns: simulated.static_insns,
                static_cond_branches: simulated.static_cond_branches,
                derived: true,
                ..JobResult::default()
            };
            store(i, &result);
            slots[i] = Some(result);
        }

        let results: Vec<JobResult> = slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect();
        self.telemetry
            .lock()
            .expect("telemetry lock poisoned")
            .absorb(jobs, &results);
        results
    }

    /// Pairs each cache miss without the shadow predictor with a missing
    /// twin that differs from it only in carrying one, as
    /// `(cell, twin)`. The full report has such a pair per program: the
    /// Figure 6a `predicate/selective` cell and its Figure 6b twin.
    fn shadow_twins(jobs: &[Job], slots: &[Option<JobResult>]) -> Vec<(usize, usize)> {
        let missing = |i: &usize| slots[*i].is_none();
        let shadowed: Vec<usize> = (0..jobs.len())
            .filter(missing)
            .filter(|&i| jobs[i].shadow)
            .collect();
        if shadowed.is_empty() {
            return Vec::new();
        }
        (0..jobs.len())
            .filter(missing)
            .filter(|&i| !jobs[i].shadow)
            .filter_map(|i| {
                let twin = Job {
                    shadow: true,
                    ..jobs[i].clone()
                };
                shadowed.iter().find(|&&j| jobs[j] == twin).map(|&j| (i, j))
            })
            .collect()
    }

    /// Orders the cache misses (the empty `slots`) that simulate — all
    /// but the shadow-twin cells — stream by stream: cells replaying one
    /// stream become adjacent, streams in order of first appearance and
    /// cells in grid order within each. The pool seeds each worker with a
    /// contiguous run of this order, so a stream's cells replay back to
    /// back and its capture is dropped soon after it is made. Plan order
    /// would scatter them: the full report returns to each if-converted
    /// binary in Figures 6a and 6b and the IPC ablation.
    fn stream_order(
        jobs: &[Job],
        slots: &[Option<JobResult>],
        twins: &[(usize, usize)],
    ) -> Vec<usize> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<Stream, usize> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            if slots[i].is_some() || twins.iter().any(|&(cell, _)| cell == i) {
                continue;
            }
            let g = *group_of.entry(Stream::of(job)).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }
        groups.concat()
    }

    /// Adds one pending count per cell of `order` that replays a capture
    /// to its stream's entry in the live-stream table, creating the entry
    /// (with an empty capture) on first use, and returns each cell's
    /// [`Claim`] in `order` position (`None` for an external trace). A
    /// stream another grid already holds is shared, capture included.
    fn claim_streams(&self, jobs: &[Job], order: &[usize]) -> Vec<Mutex<Option<Claim<'_>>>> {
        let mut live = self.live.lock().expect("live-stream lock poisoned");
        order
            .iter()
            .map(|&i| {
                let Stream::Capture(key) = Stream::of(&jobs[i]) else {
                    return Mutex::new(None);
                };
                let stream = live.entry(key.clone()).or_insert_with(|| LiveStream {
                    pending: 0,
                    trace: Arc::default(),
                });
                stream.pending += 1;
                Mutex::new(Some(Claim {
                    live: &self.live,
                    key,
                    trace: Arc::clone(&stream.trace),
                }))
            })
            .collect()
    }

    /// Runs a single job (grid of one).
    pub fn run_job(&self, job: &Job) -> JobResult {
        self.run_grid(std::slice::from_ref(job)).pop().unwrap()
    }

    /// Runs a grid of cells in sampled mode: each cell expands into
    /// `spec.count` window jobs (cached and scheduled independently, like
    /// any other job), and the windows' counters are merged back into one
    /// aggregate per cell. Results come back in grid order, so reports
    /// built from them are as deterministic as full-run reports.
    ///
    /// Cells carrying their own `sample` slice are rejected — the
    /// schedule is this call's to assign.
    pub fn run_grid_sampled(&self, jobs: &[Job], spec: SampleSpec) -> Vec<SampledResult> {
        self.run_grid_sampled_reporting(jobs, spec, &|_, _| {})
    }

    /// [`Runner::run_grid_sampled`], reporting progress as
    /// [`Runner::run_grid_reporting`] does, counted over window jobs
    /// (`spec.count` per cell).
    pub fn run_grid_sampled_reporting(
        &self,
        jobs: &[Job],
        spec: SampleSpec,
        progress: &(dyn Fn(u64, u64) + Sync),
    ) -> Vec<SampledResult> {
        assert!(
            jobs.iter().all(|j| j.sample.is_none()),
            "sampled grids are expanded here; cells must not pre-assign windows"
        );
        let expanded: Vec<Job> = jobs
            .iter()
            .flat_map(|j| {
                (0..spec.count).map(move |index| Job {
                    sample: Some(SampleSlice { spec, index }),
                    ..j.clone()
                })
            })
            .collect();
        let results = self.run_grid_reporting(&expanded, progress);
        results
            .chunks(spec.count as usize)
            .map(|samples| {
                let mut aggregate = samples[0].clone();
                aggregate.stats = samples[0].stats.clone();
                for s in &samples[1..] {
                    aggregate.stats.merge(&s.stats);
                    aggregate.from_cache &= s.from_cache;
                    aggregate.derived &= s.derived;
                    aggregate.wall_micros += s.wall_micros;
                    aggregate.compile_micros += s.compile_micros;
                    aggregate.capture_micros += s.capture_micros;
                    aggregate.sim_micros += s.sim_micros;
                    aggregate.trace_memo_hit |= s.trace_memo_hit;
                }
                SampledResult {
                    aggregate,
                    samples: samples.to_vec(),
                }
            })
            .collect()
    }

    /// Runs a single cell in sampled mode (sampled grid of one).
    pub fn run_job_sampled(&self, job: &Job, spec: SampleSpec) -> SampledResult {
        self.run_grid_sampled(std::slice::from_ref(job), spec)
            .pop()
            .unwrap()
    }

    /// Compile-memo size cap, so a long-lived runner (`ppsim serve`)
    /// holds bounded memory. Overflow evicts the least recently used
    /// binary (see [`Memo`]), which is invisible to results.
    const COMPILE_MEMO_CAP: usize = 256;

    /// Compiles (or returns the memoized binary for) a job's benchmark.
    fn compiled_for(&self, job: &Job) -> Arc<Compiled> {
        let (cell, evicted) = self
            .compiled
            .lock()
            .expect("compile memo lock poisoned")
            .cell(CompileKey::of(job));
        if evicted {
            self.telemetry
                .lock()
                .expect("telemetry lock poisoned")
                .memo_evictions += 1;
        }
        cell.get_or_init(|| {
            let spec = self
                .suite
                .iter()
                .find(|s| s.name == job.benchmark)
                .unwrap_or_else(|| panic!("unknown benchmark `{}`", job.benchmark));
            let mut opts = if job.ifconv {
                CompileOptions::with_ifconv()
            } else {
                CompileOptions::no_ifconv()
            };
            opts.profile_steps = job.profile_steps;
            if let Some(t) = job.ifconv_threshold {
                opts.ifconvert.misp_threshold = t;
            }
            Arc::new(compile(spec, &opts).expect("suite benchmarks compile"))
        })
        .clone()
    }

    /// The simulator options a job's cell axes translate to.
    fn sim_options_for(job: &Job) -> SimOptions {
        let mut opts = SimOptions::new(job.scheme, job.predication)
            .core(job.core)
            .shadow(job.shadow);
        if let Some(p) = job.perceptron {
            opts = opts.perceptron(p);
        }
        if let Some(p) = job.predicate {
            opts = opts.predicate(p);
        }
        opts
    }

    /// Simulates one cell (a cache miss): takes the cell's stream, seeks
    /// one cursor into it and runs. The stream is a registered external
    /// trace, or the capture of the job's binary its `claim` holds —
    /// `job.commits` records for a full run, the schedule's span for a
    /// sampled window.
    fn execute(&self, job: &Job, claim: Option<&Claim<'_>>) -> JobResult {
        let started = Instant::now();
        let (trace, compile_micros, capture_micros, trace_memo_hit) = match job.trace {
            Some(id) => (self.ext_trace(id), 0, 0, false),
            None => {
                let claim = claim.expect("benchmark cells claim their stream");
                let compiled = self.compiled_for(job);
                let compile_micros = started.elapsed().as_micros() as u64;
                let (trace, capture_micros, replayed) = claim.capture(&compiled);
                (trace, compile_micros, capture_micros, replayed)
            }
        };
        let static_insns = trace.code().len() as u64;
        let static_cond_branches =
            trace.code().iter().filter(|i| i.is_cond_branch()).count() as u64;
        let cursor = match job.sample {
            Some(slice) => TraceCursor::window(
                trace,
                slice.spec.window_start(slice.index),
                slice.spec.warmup + slice.spec.measure,
            ),
            None => TraceCursor::new(trace),
        };
        let mut sim = Self::sim_options_for(job)
            .build_source(cursor)
            .expect("grid jobs carry only applicable overrides");
        let sim_started = Instant::now();
        let run = match job.sample {
            Some(slice) => sim.run_sample(slice.spec.warmup, slice.spec.measure),
            None => sim.run(job.commits),
        };
        let sim_micros = sim_started.elapsed().as_micros() as u64;
        JobResult {
            stats: run.stats,
            static_insns,
            static_cond_branches,
            from_cache: false,
            wall_micros: started.elapsed().as_micros() as u64,
            compile_micros,
            capture_micros,
            sim_micros,
            trace_memo_hit,
            derived: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim_pipeline::{CoreConfig, PredicationModel, SchemeSpec};

    fn tiny(scheme: SchemeSpec) -> Job {
        Job::new(
            "gzip",
            false,
            scheme,
            PredicationModel::Cmov,
            5_000,
            20_000,
            CoreConfig::paper(),
        )
    }

    #[test]
    fn serial_runner_produces_nonempty_stats() {
        let r = Runner::serial_no_cache();
        let out = r.run_job(&tiny(SchemeSpec::Conventional));
        assert!(out.stats.committed >= 5_000);
        assert!(out.stats.cond_branches > 0);
        assert!(out.static_insns > 0);
        assert!(out.static_cond_branches > 0);
        assert!(!out.from_cache);
    }

    #[test]
    fn compile_memo_shares_across_jobs() {
        let r = Runner::serial_no_cache();
        let grid = vec![tiny(SchemeSpec::Conventional), tiny(SchemeSpec::Predicate)];
        let out = r.run_grid(&grid);
        assert_eq!(out.len(), 2);
        // Same binary → same static counts.
        assert_eq!(out[0].static_insns, out[1].static_insns);
        assert_eq!(
            r.compiled.lock().unwrap().len(),
            1,
            "one compile for two jobs"
        );
    }

    #[test]
    fn telemetry_counts_runs() {
        let r = Runner::serial_no_cache();
        r.run_grid(&[tiny(SchemeSpec::Conventional)]);
        let t = r.telemetry();
        assert_eq!(t.jobs_total, 1);
        assert_eq!(t.jobs_run, 1);
        assert_eq!(t.cache_hits, 0);
        assert_eq!(t.per_job.len(), 1);
        assert_eq!(t.per_job[0].label, "gzip/conventional");
        assert!(
            t.per_job[0].wall_micros >= t.per_job[0].sim_micros,
            "phases nest inside the total"
        );
    }

    #[test]
    fn cells_of_a_stream_share_one_capture() {
        let r = Runner::serial_no_cache();
        let grid = vec![
            tiny(SchemeSpec::Conventional),
            tiny(SchemeSpec::Predicate),
            tiny(SchemeSpec::PepPa),
        ];
        let out = r.run_grid(&grid);
        let t = r.telemetry();
        assert_eq!(t.captures, 1, "one capture, three cells");
        assert_eq!(t.trace_memo_hits, 2);
        assert!((t.trace_memo_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            out.iter().filter(|o| o.trace_memo_hit).count(),
            2,
            "exactly the two replaying cells report a shared capture"
        );
        assert_eq!(
            out.iter().filter(|o| o.capture_micros > 0).count(),
            1,
            "only the capturing cell is charged capture time"
        );
        assert!(
            r.live.lock().unwrap().is_empty(),
            "no capture outlives its grid"
        );
    }

    #[test]
    fn distinct_budgets_capture_separately() {
        let r = Runner::serial_no_cache();
        let long = Job {
            commits: 6_000,
            ..tiny(SchemeSpec::Conventional)
        };
        r.run_grid(&[tiny(SchemeSpec::Conventional), long]);
        assert_eq!(
            r.telemetry().captures,
            2,
            "a longer budget needs its own (longer) capture"
        );
        assert_eq!(r.compiled.lock().unwrap().len(), 1, "but shares the binary");
        assert!(r.live.lock().unwrap().is_empty());
    }

    #[test]
    fn sampled_grid_shares_one_capture_and_merges_windows() {
        let spec = SampleSpec {
            skip: 1_000,
            warmup: 500,
            measure: 1_000,
            stride: 2_000,
            count: 3,
        };
        let r = Runner::serial_no_cache();
        let base = tiny(SchemeSpec::Conventional);
        let out = r.run_grid_sampled(std::slice::from_ref(&base), spec);
        assert_eq!(out.len(), 1);
        let cell = &out[0];
        assert_eq!(cell.samples.len(), 3);
        for s in &cell.samples {
            assert_eq!(s.stats.committed, spec.measure, "one measured window");
            assert_eq!(s.stats.stall.total(), s.stats.cycles);
        }
        assert_eq!(cell.aggregate.stats.committed, 3 * spec.measure);
        assert_eq!(
            cell.aggregate.stats.stall.total(),
            cell.aggregate.stats.cycles,
            "the invariant survives aggregation"
        );
        assert_eq!(
            r.telemetry().captures,
            1,
            "three windows share one span capture"
        );
        assert!(r.live.lock().unwrap().is_empty());
    }

    #[test]
    fn options_parse_runner_flags() {
        let args: Vec<String> = [
            "--json",
            "out.json",
            "--jobs",
            "4",
            "--no-cache",
            "--cache-dir",
            "/tmp/c",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (opts, rest) = RunnerOptions::from_args(&args).unwrap();
        assert_eq!(opts.jobs, 4);
        assert!(!opts.cache);
        assert_eq!(
            opts.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
        assert_eq!(rest, vec!["--json".to_string(), "out.json".to_string()]);
    }

    #[test]
    fn bad_jobs_value_is_an_error() {
        let args = vec!["--jobs".to_string(), "many".to_string()];
        assert!(RunnerOptions::from_args(&args).is_err());
    }

    #[test]
    fn zero_jobs_flag_is_an_error() {
        let args = vec!["--jobs".to_string(), "0".to_string()];
        let err = RunnerOptions::from_args(&args).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        // The programmatic default (0 = one worker per CPU) stays legal.
        assert!(RunnerOptions::default().validate().is_ok());
    }

    #[test]
    fn nonsensical_options_are_rejected() {
        let absurd = RunnerOptions {
            jobs: MAX_JOBS + 1,
            ..RunnerOptions::default()
        };
        assert!(absurd.validate().is_err());
        let empty_dir = RunnerOptions {
            cache_dir: Some(PathBuf::new()),
            ..RunnerOptions::default()
        };
        assert!(empty_dir.validate().is_err());
        let capped_no_cache = RunnerOptions {
            cache: false,
            cache_max_bytes: Some(1 << 20),
            ..RunnerOptions::default()
        };
        assert!(capped_no_cache.validate().is_err());
        let args = vec!["--jobs".to_string(), (MAX_JOBS + 1).to_string()];
        assert!(RunnerOptions::from_args(&args).is_err());
    }

    #[test]
    fn cache_max_bytes_flag_parses() {
        let args: Vec<String> = ["--cache-max-bytes", "1048576"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, rest) = RunnerOptions::from_args(&args).unwrap();
        assert_eq!(opts.cache_max_bytes, Some(1 << 20));
        assert!(rest.is_empty());
    }

    #[test]
    fn probe_misses_cold_and_hits_warm() {
        let dir = std::env::temp_dir().join(format!("ppsim-probe-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = Runner::new(RunnerOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..RunnerOptions::default()
        });
        let job = tiny(SchemeSpec::Conventional);
        assert!(r.probe(&job).is_none(), "cold cache must miss");
        let fresh = r.run_job(&job);
        let hit = r.probe(&job).expect("warm cache must hit");
        assert!(hit.from_cache);
        assert_eq!(hit.stats, fresh.stats, "probe replays the stored stats");
        // Probing never counts as a runner job.
        assert_eq!(r.telemetry().jobs_total, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_progress_reports_hits_then_each_simulated_cell() {
        let dir = std::env::temp_dir().join(format!("ppsim-progress-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = Runner::new(RunnerOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            ..RunnerOptions::default()
        });
        let reports = |grid: &[Job]| {
            let seen = Mutex::new(Vec::new());
            r.run_grid_reporting(grid, &|done, total| {
                seen.lock().unwrap().push((done, total))
            });
            seen.into_inner().unwrap()
        };
        let grid: Vec<Job> = SchemeSpec::ALL[..3].iter().map(|&s| tiny(s)).collect();
        assert_eq!(reports(&grid), [(0, 3), (1, 3), (2, 3), (3, 3)], "cold");
        assert_eq!(reports(&grid), [(3, 3)], "a warm grid reports once");
        let mut wider = grid.clone();
        wider.push(tiny(SchemeSpec::ALL[3]));
        assert_eq!(reports(&wider), [(3, 4), (4, 4)], "hits resolve first");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cacheless_runner_never_probes() {
        let r = Runner::serial_no_cache();
        assert!(r.cache().is_none());
        assert!(r.probe(&tiny(SchemeSpec::Conventional)).is_none());
    }

    /// Compiles `gzip` exactly as the runner does for [`tiny`] jobs and
    /// captures `steps` records of its stream.
    fn gzip_trace(steps: u64) -> Arc<TraceBuffer> {
        let suite = spec2000_suite();
        let spec = suite.iter().find(|s| s.name == "gzip").unwrap();
        let mut opts = CompileOptions::no_ifconv();
        opts.profile_steps = 20_000;
        let compiled = compile(spec, &opts).unwrap();
        Arc::new(TraceBuffer::capture(&compiled.program, steps).unwrap())
    }

    #[test]
    fn registered_trace_replays_like_the_benchmark() {
        let r = Runner::serial_no_cache();
        let id = r.register_trace(gzip_trace(5_000), false);
        for scheme in [SchemeSpec::Conventional, SchemeSpec::Predicate] {
            let bench = tiny(scheme);
            let traced = Job {
                trace: Some(id),
                ..bench.clone()
            };
            let a = r.run_job(&traced);
            let b = r.run_job(&bench);
            assert_eq!(
                a.stats, b.stats,
                "an exported/registered stream must be indistinguishable \
                 from the in-process capture ({scheme:?})"
            );
            assert_eq!(a.static_insns, b.static_insns);
            assert_eq!(a.static_cond_branches, b.static_cond_branches);
        }
    }

    #[test]
    fn registering_the_same_stream_twice_is_idempotent() {
        let r = Runner::serial_no_cache();
        let a = r.register_trace(gzip_trace(2_000), false);
        let b = r.register_trace(gzip_trace(2_000), false);
        assert_eq!(a, b, "content-addressed identity");
        assert_eq!(r.ext_traces.lock().unwrap().len(), 1);
    }

    #[test]
    fn trace_cells_hit_the_disk_cache() {
        let dir = std::env::temp_dir().join(format!("ppsim-trace-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..RunnerOptions::default()
        };
        let cold = Runner::new(opts.clone());
        let id = cold.register_trace(gzip_trace(2_000), false);
        let job = Job {
            trace: Some(id),
            commits: 2_000,
            ..tiny(SchemeSpec::Predicate)
        };
        let fresh = cold.run_job(&job);
        assert!(!fresh.from_cache);
        // A new runner (same cache dir) serves the cell without needing
        // the trace registered at all — the cache carries the stats.
        let warm = Runner::new(opts);
        let hit = warm.run_job(&job);
        assert!(hit.from_cache, "trace cells are cached by content hash");
        assert_eq!(hit.stats, fresh.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_trace_windows_match_sampled_benchmark() {
        let spec = SampleSpec {
            skip: 1_000,
            warmup: 500,
            measure: 1_000,
            stride: 2_000,
            count: 2,
        };
        let r = Runner::serial_no_cache();
        // The benchmark path captures the schedule's span; hand the
        // runner an identical external capture.
        let id = r.register_trace(gzip_trace(spec.span()), false);
        let bench = tiny(SchemeSpec::Predicate);
        let traced = Job {
            trace: Some(id),
            ..bench.clone()
        };
        let a = r.run_job_sampled(&traced, spec);
        let b = r.run_job_sampled(&bench, spec);
        assert_eq!(a.aggregate.stats, b.aggregate.stats);
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.stats, y.stats, "per-window agreement");
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_trace_panics_with_a_clear_message() {
        let r = Runner::serial_no_cache();
        let job = Job {
            trace: Some(TraceId {
                content: 0x1234,
                branches_only: false,
            }),
            ..tiny(SchemeSpec::Conventional)
        };
        r.run_job(&job);
    }

    #[test]
    fn single_stream_grid_runs_one_job_per_cell() {
        let r = Runner::new(RunnerOptions {
            jobs: 2,
            cache: false,
            ..RunnerOptions::default()
        });
        let grid: Vec<Job> = SchemeSpec::ALL[..6].iter().map(|&s| tiny(s)).collect();
        r.run_grid(&grid);
        let t = r.telemetry();
        assert_eq!(t.jobs_run, 6);
        assert_eq!(t.per_job.len(), 6, "one timing row per cell");
        for (row, job) in t.per_job.iter().zip(&grid) {
            assert_eq!(row.label, job.label(), "rows follow grid order");
            assert!(row.sim_micros > 0 && row.wall_micros >= row.sim_micros);
        }
        assert_eq!(t.captures, 1, "six cells, one stream, one capture");
        assert_eq!(t.trace_memo_hits, 5);
        assert_eq!(t.fused_passes, 0);
        assert_eq!(t.lanes_per_pass(), 0.0);
    }

    #[test]
    fn a_later_grid_captures_the_stream_again() {
        let r = Runner::serial_no_cache();
        r.run_grid(&[tiny(SchemeSpec::Conventional), tiny(SchemeSpec::Predicate)]);
        assert!(
            r.live.lock().unwrap().is_empty(),
            "released with its last cell"
        );
        let again = r.run_job(&tiny(SchemeSpec::PepPa));
        assert!(
            !again.trace_memo_hit,
            "nothing kept the first grid's capture"
        );
        assert!(again.capture_micros > 0);
        let t = r.telemetry();
        assert_eq!(t.captures, 2);
        assert_eq!(t.memo_evictions, 0);
        assert_eq!(
            r.compiled.lock().unwrap().len(),
            1,
            "the binary is memoized"
        );
    }

    #[test]
    fn a_panicking_cell_pins_no_stream() {
        // The unknown benchmark's cell runs first and panics; neither its
        // claim nor those of the gzip cells that never ran may keep a
        // stream in the table.
        let r = Runner::serial_no_cache();
        let bogus = Job {
            benchmark: "no-such-benchmark".into(),
            ..tiny(SchemeSpec::Conventional)
        };
        let grid = [
            bogus,
            tiny(SchemeSpec::Conventional),
            tiny(SchemeSpec::Predicate),
        ];
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.run_grid(&grid)));
        assert!(run.is_err());
        assert!(r.live.lock().unwrap().is_empty());
        assert_eq!(r.run_grid(&grid[1..]).len(), 2, "the runner still works");
        assert!(r.live.lock().unwrap().is_empty());
    }

    #[test]
    fn streams_stay_live_only_while_cells_are_queued() {
        let r = Runner::new(RunnerOptions {
            jobs: 2,
            cache: false,
            ..RunnerOptions::default()
        });
        // Eight streams (distinct budgets) of three cells each: a stream
        // whose first cell has reported is still live until its third.
        let grid: Vec<Job> = (0..8)
            .flat_map(|n| {
                SchemeSpec::ALL[..3].iter().map(move |&s| Job {
                    commits: 2_000 + n,
                    ..tiny(s)
                })
            })
            .collect();
        let most = Mutex::new(0);
        r.run_grid_reporting(&grid, &|_, _| {
            let mut most = most.lock().unwrap();
            *most = (*most).max(r.live_streams());
        });
        let most = most.into_inner().unwrap();
        assert!((1..=4).contains(&most), "{most} captures held at once");
        assert_eq!(r.live_streams(), 0);
        assert_eq!(r.telemetry().captures, 8);
    }

    #[test]
    fn shadow_twin_derives_the_plain_cell_at_any_worker_count() {
        let plain = Job {
            predication: PredicationModel::Selective,
            ..tiny(SchemeSpec::Predicate)
        };
        let twin = Job {
            shadow: true,
            ..plain.clone()
        };
        let direct = Runner::serial_no_cache().run_job(&plain);
        assert!(!direct.derived, "a lone cell simulates");
        for jobs in [1, 2] {
            let r = Runner::new(RunnerOptions {
                jobs,
                cache: false,
                ..RunnerOptions::default()
            });
            let seen = Mutex::new(Vec::new());
            let out = r.run_grid_reporting(&[plain.clone(), twin.clone()], &|done, total| {
                seen.lock().unwrap().push((done, total))
            });
            assert!(out[0].derived && !out[1].derived, "jobs={jobs}");
            assert_eq!(
                out[0].stats, direct.stats,
                "derived == simulated, jobs={jobs}"
            );
            assert_eq!(out[0].static_insns, direct.static_insns);
            assert_eq!(out[0].static_cond_branches, direct.static_cond_branches);
            assert!(out[1].stats.shadow_mispredicts > 0, "the twin observes");
            assert_eq!(
                seen.into_inner().unwrap(),
                [(0, 2), (2, 2)],
                "the derived cell resolves with its twin"
            );
            let t = r.telemetry();
            assert_eq!((t.jobs_total, t.jobs_run, t.jobs_derived), (2, 2, 1));
            assert_eq!(t.per_job.len(), 1, "only the twin took time");
            assert_eq!(t.captures, 1);
        }
    }

    #[test]
    fn derived_cells_are_stored_and_read_back_warm() {
        let dir = std::env::temp_dir().join(format!("ppsim-derived-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..RunnerOptions::default()
        };
        let plain = tiny(SchemeSpec::Predicate);
        let twin = Job {
            shadow: true,
            ..plain.clone()
        };
        let cold = Runner::new(opts.clone()).run_grid(&[plain.clone(), twin]);
        assert!(cold[0].derived);
        let warm = Runner::new(opts);
        let hit = warm.run_job(&plain);
        assert!(
            hit.from_cache,
            "the derived cell was stored under its own key"
        );
        assert_eq!(hit.stats, cold[0].stats);
        assert_eq!(warm.telemetry().jobs_run, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
