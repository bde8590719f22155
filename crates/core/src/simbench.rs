//! `ppsim bench` — wall-clock benchmark of the simulation engine itself.
//!
//! Unlike the experiments (which measure the *modelled* machine), this
//! module measures the *simulator*: committed instructions per host
//! second for every cell of a fig-6a-style grid, run twice — once
//! through the inline functional machine and once through the
//! capture-once/replay-many trace engine — plus the one-off capture
//! cost. The result quantifies the trace engine's speedup and proves
//! bit-identity of the statistics on the same grid that motivated it.
//!
//! Everything here is dependency-free and cache-free on purpose: no
//! runner, no disk cache, no memoization — each timing is one honest
//! `Instant` around one `Simulator::run`. Timings are host-dependent
//! and excluded from the deterministic report surface; only the
//! `identical` flags and committed counts are stable across machines.

use std::sync::Arc;
use std::time::Instant;

use ppsim_compiler::{compile, spec2000_suite, CompileOptions};
use ppsim_isa::Machine;
use ppsim_pipeline::{
    phases, LaneSet, PhaseReport, PredicationModel, SampleSpec, SchemeSpec, SimOptions, SimStats,
    TraceBuffer, TraceCursor,
};

use crate::Json;

/// The benchmarked grid: the paper's Figure-6a schemes on if-converted
/// binaries, plus the selective-predication headline cell and a TAGE
/// lane (the frontier scheme with the heaviest per-prediction work) —
/// the cells a default suite sweep spends its time in.
pub const CELLS: [(SchemeSpec, PredicationModel); 5] = [
    (SchemeSpec::PepPa, PredicationModel::Cmov),
    (SchemeSpec::Conventional, PredicationModel::Cmov),
    (SchemeSpec::Predicate, PredicationModel::Cmov),
    (SchemeSpec::Predicate, PredicationModel::Selective),
    (SchemeSpec::Tage, PredicationModel::Cmov),
];

/// Configuration for one [`run`].
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Committed instructions per cell.
    pub commits: u64,
    /// Restrict to benchmarks whose name appears here (empty = all).
    pub only: Vec<String>,
    /// Timed repetitions per measurement; the report carries the median
    /// (lower median on even counts) and the minimum, so one noisy host
    /// scheduling event cannot masquerade as a regression.
    pub repeat: u32,
    /// Also run one phase-profiled fused pass per benchmark and attach
    /// the `process()` time attribution (see [`ppsim_pipeline::phases`]).
    pub phases: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            commits: 500_000,
            only: Vec::new(),
            repeat: 1,
            phases: false,
        }
    }
}

/// Lower median of a timing sample: `sorted[(n-1)/2]`, deterministic on
/// integer inputs.
fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[(samples.len() - 1) / 2]
}

/// The commit hash stamped into benchmark artifacts so a checked-in
/// `BENCH_sim.json` records which code produced it; `"unknown"` outside a
/// git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One (scheme, predication) cell timed both ways.
#[derive(Clone, Debug)]
pub struct CellBench {
    /// Branch-prediction organization.
    pub scheme: SchemeSpec,
    /// Predication model.
    pub predication: PredicationModel,
    /// Instructions committed (equal on both paths when `identical`).
    pub committed: u64,
    /// Median wall time of the inline-machine runs.
    pub inline_micros: u64,
    /// Median wall time of the trace-replay runs (capture excluded; it
    /// is amortized once per benchmark, see [`BenchRow::capture_micros`]).
    pub replay_micros: u64,
    /// Fastest inline-machine repetition.
    pub inline_min_micros: u64,
    /// Fastest trace-replay repetition.
    pub replay_min_micros: u64,
    /// Whether every repetition of both paths produced equal statistics.
    pub identical: bool,
}

impl CellBench {
    fn label(&self) -> String {
        let model = match self.predication {
            PredicationModel::Cmov => "cmov",
            PredicationModel::Selective => "selective",
        };
        format!("{}/{model}", self.scheme.name())
    }
}

/// One benchmark: its capture cost and the timed cells.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Benchmark name.
    pub benchmark: String,
    /// One-off trace-capture wall time, shared by every cell.
    pub capture_micros: u64,
    /// Records in the capture.
    pub records: u64,
    /// Heap footprint of the capture in bytes.
    pub trace_bytes: usize,
    /// Median wall time of one fused [`LaneSet`] pass running every cell
    /// over a single decode of the capture (capture excluded, as for
    /// replay).
    pub fused_micros: u64,
    /// Fastest fused repetition.
    pub fused_min_micros: u64,
    /// Whether every fused lane's statistics matched its solo replay, on
    /// every repetition.
    pub fused_identical: bool,
    /// Per-cell timings.
    pub cells: Vec<CellBench>,
    /// Phase-profiled fused pass, when [`BenchConfig::phases`] is set.
    pub phases: Option<PhasesBench>,
}

/// One phase-profiled fused pass: where `process()` time went, plus the
/// proof that profiling did not perturb the simulated statistics.
#[derive(Clone, Debug)]
pub struct PhasesBench {
    /// Accumulated per-section attribution, merged across all lanes.
    pub report: PhaseReport,
    /// Wall time of the whole profiled pass (decode + `process()`).
    pub wall_nanos: u64,
    /// Whether every profiled lane's statistics matched its unprofiled
    /// solo replay bit for bit.
    pub identical: bool,
}

impl PhasesBench {
    fn merge(&mut self, other: &PhasesBench) {
        self.report.merge(&other.report);
        self.wall_nanos += other.wall_nanos;
        self.identical &= other.identical;
    }

    fn to_json(&self) -> Json {
        let mut j = Json::obj().field("records", self.report.records);
        for (name, nanos) in phases::NAMES.iter().zip(self.report.nanos) {
            j = j.field(format!("{name}_nanos").as_str(), nanos);
        }
        j.field("process_nanos", self.report.total_nanos())
            .field("wall_nanos", self.wall_nanos)
            .field("reports_identical", self.identical)
    }
}

/// The full benchmark outcome.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Committed-instruction budget per cell.
    pub commits: u64,
    /// Timed repetitions behind every median/min pair.
    pub repeat: u32,
    /// Per-benchmark rows.
    pub rows: Vec<BenchRow>,
}

/// Instructions per host second, safe on sub-microsecond timings.
fn insns_per_sec(committed: u64, micros: u64) -> f64 {
    committed as f64 / (micros.max(1) as f64 / 1_000_000.0)
}

impl BenchReport {
    /// Total inline-machine simulation time.
    pub fn inline_micros(&self) -> u64 {
        self.rows
            .iter()
            .flat_map(|r| &r.cells)
            .map(|c| c.inline_micros)
            .sum()
    }

    /// Total replay simulation time, *including* each benchmark's one-off
    /// capture — the honest cost of the replay path.
    pub fn replay_micros(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.capture_micros + r.cells.iter().map(|c| c.replay_micros).sum::<u64>())
            .sum()
    }

    /// Aggregate throughput ratio of replay (capture amortized across the
    /// grid) over the inline path. Committed counts are equal on both
    /// paths, so this is simply inline time over replay time.
    pub fn speedup(&self) -> f64 {
        self.inline_micros() as f64 / self.replay_micros().max(1) as f64
    }

    /// Whether every cell produced bit-identical statistics on both paths.
    pub fn reports_identical(&self) -> bool {
        self.rows.iter().flat_map(|r| &r.cells).all(|c| c.identical)
    }

    /// Total fused simulation time, *including* each benchmark's one-off
    /// capture — directly comparable to [`BenchReport::replay_micros`],
    /// which pays the same captures but decodes once per cell.
    pub fn fused_micros(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.capture_micros + r.fused_micros)
            .sum()
    }

    /// Wall-clock speedup of the fused grid pass over per-cell replay.
    pub fn fused_speedup(&self) -> f64 {
        self.replay_micros() as f64 / self.fused_micros().max(1) as f64
    }

    /// Whether every fused lane matched its solo replay bit for bit.
    pub fn fused_identical(&self) -> bool {
        self.rows.iter().all(|r| r.fused_identical)
    }

    /// Merged phase attribution across every benchmark's profiled pass,
    /// `None` when the bench ran without [`BenchConfig::phases`].
    pub fn phases(&self) -> Option<PhasesBench> {
        let mut merged: Option<PhasesBench> = None;
        for p in self.rows.iter().filter_map(|r| r.phases.as_ref()) {
            match merged.as_mut() {
                Some(m) => m.merge(p),
                None => merged = Some(p.clone()),
            }
        }
        merged
    }

    /// The machine-readable artifact (`BENCH_sim.json`).
    pub fn to_json(&self) -> Json {
        let mut rows = Vec::new();
        for r in &self.rows {
            let mut cells = Vec::new();
            for c in &r.cells {
                cells.push(
                    Json::obj()
                        .field("cell", c.label())
                        .field("committed", c.committed)
                        .field("inline_micros", c.inline_micros)
                        .field("replay_micros", c.replay_micros)
                        .field("inline_min_micros", c.inline_min_micros)
                        .field("replay_min_micros", c.replay_min_micros)
                        .field(
                            "inline_insns_per_sec",
                            insns_per_sec(c.committed, c.inline_micros),
                        )
                        .field(
                            "replay_insns_per_sec",
                            insns_per_sec(c.committed, c.replay_micros),
                        )
                        .field("identical", c.identical),
                );
            }
            let mut row = Json::obj()
                .field("name", r.benchmark.as_str())
                .field("capture_micros", r.capture_micros)
                .field("records", r.records)
                .field("trace_bytes", r.trace_bytes)
                .field("fused_micros", r.fused_micros)
                .field("fused_min_micros", r.fused_min_micros)
                .field("fused_identical", r.fused_identical)
                .field("cells", cells);
            if let Some(p) = &r.phases {
                row = row.field("phases", p.to_json());
            }
            rows.push(row);
        }
        let mut j = Json::obj()
            .field("experiment", "bench")
            .field("commits", self.commits)
            .field("repeat", u64::from(self.repeat))
            .field("commit", git_commit().as_str())
            // `bench` deliberately times cells one at a time on one
            // thread, so host timings are not fighting sibling workers.
            .field("jobs", 1u64)
            .field("benchmarks", rows)
            .field(
                "aggregate",
                Json::obj()
                    .field("inline_micros", self.inline_micros())
                    .field("replay_micros", self.replay_micros())
                    .field("speedup", self.speedup())
                    .field("reports_identical", self.reports_identical()),
            )
            .field(
                "fused",
                Json::obj()
                    .field("fused_micros", self.fused_micros())
                    .field("per_cell_micros", self.replay_micros())
                    .field("speedup", self.fused_speedup())
                    .field("reports_identical", self.fused_identical()),
            );
        if let Some(p) = self.phases() {
            j = j.field("phases", p.to_json());
        }
        j
    }

    /// Human-readable summary for stderr.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} benchmarks x {} cells: inline {:.2}s, replay {:.2}s (capture incl.), speedup {:.2}x, \
             fused {:.2}s (speedup {:.2}x), reports {}",
            self.rows.len(),
            CELLS.len(),
            self.inline_micros() as f64 / 1e6,
            self.replay_micros() as f64 / 1e6,
            self.speedup(),
            self.fused_micros() as f64 / 1e6,
            self.fused_speedup(),
            if self.reports_identical() && self.fused_identical() {
                "identical"
            } else {
                "DIVERGED"
            }
        );
        if self.repeat > 1 {
            s.push_str(&format!(" (median of {})", self.repeat));
        }
        if let Some(p) = self.phases() {
            let total = p.report.total_nanos().max(1);
            let pct: Vec<String> = phases::NAMES
                .iter()
                .zip(p.report.nanos)
                .map(|(name, nanos)| format!("{name} {:.0}%", nanos as f64 * 100.0 / total as f64))
                .collect();
            s.push_str(&format!("; phases: {}", pct.join(", ")));
        }
        s
    }
}

fn run_inline(opts: SimOptions, program: &ppsim_isa::Program, commits: u64) -> (SimStats, u64) {
    let mut sim = opts
        .build_source(Machine::new(program))
        .expect("bench cells carry no overrides");
    let started = Instant::now();
    let run = sim.run(commits);
    (run.stats, started.elapsed().as_micros() as u64)
}

fn run_replay(opts: SimOptions, trace: Arc<TraceBuffer>, commits: u64) -> (SimStats, u64) {
    let mut sim = opts
        .build_source(TraceCursor::new(trace))
        .expect("bench cells carry no overrides");
    let started = Instant::now();
    let run = sim.run(commits);
    (run.stats, started.elapsed().as_micros() as u64)
}

/// Times every selected benchmark across [`CELLS`], both ways.
pub fn run(cfg: &BenchConfig) -> BenchReport {
    let mut rows = Vec::new();
    for spec in spec2000_suite() {
        if !cfg.only.is_empty() && !cfg.only.iter().any(|n| n == spec.name) {
            continue;
        }
        let compiled =
            compile(&spec, &CompileOptions::with_ifconv()).expect("suite benchmarks compile");
        let started = Instant::now();
        let trace = Arc::new(
            TraceBuffer::capture(&compiled.program, cfg.commits)
                .unwrap_or_else(|e| panic!("functional machine died: {e}")),
        );
        let capture_micros = started.elapsed().as_micros() as u64;

        let repeat = cfg.repeat.max(1);
        let mut cells = Vec::new();
        let mut replay_stats_all = Vec::new();
        for (scheme, predication) in CELLS {
            let opts = SimOptions::new(scheme, predication);
            let mut inline_times = Vec::with_capacity(repeat as usize);
            let mut replay_times = Vec::with_capacity(repeat as usize);
            let mut identical = true;
            let mut committed = 0;
            let mut last_replay_stats = None;
            for _ in 0..repeat {
                let (inline_stats, inline_micros) =
                    run_inline(opts, &compiled.program, cfg.commits);
                let (replay_stats, replay_micros) =
                    run_replay(opts, Arc::clone(&trace), cfg.commits);
                identical &= inline_stats == replay_stats;
                // Repetitions must also agree with each other — the
                // simulator is deterministic, so any drift is a bug.
                if let Some(prev) = &last_replay_stats {
                    identical &= *prev == replay_stats;
                }
                committed = inline_stats.committed;
                last_replay_stats = Some(replay_stats);
                inline_times.push(inline_micros);
                replay_times.push(replay_micros);
            }
            cells.push(CellBench {
                scheme,
                predication,
                committed,
                inline_micros: median(&mut inline_times),
                replay_micros: median(&mut replay_times),
                inline_min_micros: inline_times[0],
                replay_min_micros: replay_times[0],
                identical,
            });
            replay_stats_all.push(last_replay_stats.expect("repeat >= 1"));
        }

        // One fused pass running every cell as a lane over a single
        // decode of the same capture.
        let lane_opts: Vec<SimOptions> = CELLS
            .iter()
            .map(|&(scheme, predication)| SimOptions::new(scheme, predication))
            .collect();
        let mut fused_times = Vec::with_capacity(repeat as usize);
        let mut fused_identical = true;
        for _ in 0..repeat {
            let started = Instant::now();
            let fused_runs = LaneSet::new(TraceCursor::new(Arc::clone(&trace)), &lane_opts)
                .expect("bench cells carry no overrides")
                .run(cfg.commits);
            fused_times.push(started.elapsed().as_micros() as u64);
            fused_identical &= fused_runs
                .iter()
                .zip(&replay_stats_all)
                .all(|(lane, solo)| lane.stats == *solo);
        }

        // Optional phase-profiled fused pass: same cells, profiling on.
        // Identity against the unprofiled solo runs proves the profiler
        // is observation-only.
        let phases_bench = cfg.phases.then(|| {
            let profiled_opts: Vec<SimOptions> = CELLS
                .iter()
                .map(|&(scheme, predication)| {
                    SimOptions::new(scheme, predication).profile_phases(true)
                })
                .collect();
            let started = Instant::now();
            let mut set = LaneSet::new(TraceCursor::new(Arc::clone(&trace)), &profiled_opts)
                .expect("bench cells carry no overrides");
            let runs = set.run(cfg.commits);
            let wall_nanos = started.elapsed().as_nanos() as u64;
            let identical = runs
                .iter()
                .zip(&replay_stats_all)
                .all(|(lane, solo)| lane.stats == *solo);
            let mut report = PhaseReport {
                nanos: [0; phases::COUNT],
                records: 0,
            };
            for lane in set.phase_reports().into_iter().flatten() {
                report.merge(&lane);
            }
            PhasesBench {
                report,
                wall_nanos,
                identical,
            }
        });

        rows.push(BenchRow {
            benchmark: spec.name.to_string(),
            capture_micros,
            records: trace.len(),
            trace_bytes: trace.bytes(),
            fused_micros: median(&mut fused_times),
            fused_min_micros: fused_times[0],
            fused_identical,
            cells,
            phases: phases_bench,
        });
    }
    BenchReport {
        commits: cfg.commits,
        repeat: cfg.repeat.max(1),
        rows,
    }
}

/// One cell of an imported-trace benchmark: replay-only, since no
/// functional machine exists behind an external stream.
#[derive(Clone, Debug)]
pub struct TraceCellBench {
    /// Branch-prediction organization.
    pub scheme: SchemeSpec,
    /// Predication model.
    pub predication: PredicationModel,
    /// Instructions committed.
    pub committed: u64,
    /// Wall time of the solo replay run.
    pub replay_micros: u64,
}

impl TraceCellBench {
    fn label(&self) -> String {
        let model = match self.predication {
            PredicationModel::Cmov => "cmov",
            PredicationModel::Selective => "selective",
        };
        format!("{}/{model}", self.scheme.name())
    }
}

/// The outcome of `ppsim bench` over an imported trace: per-cell solo
/// replay timings plus one fused [`LaneSet`] pass, with bit-identity of
/// the fused lanes against their solo runs. The inline-machine column of
/// the synthetic bench has no analogue here — identity of fused vs solo
/// replay is the checkable invariant an external stream offers.
#[derive(Clone, Debug)]
pub struct TraceBenchReport {
    /// Workload display name.
    pub name: String,
    /// Committed-instruction budget per cell.
    pub commits: u64,
    /// Records in the stream.
    pub records: u64,
    /// Heap footprint of the stream in bytes.
    pub trace_bytes: usize,
    /// Per-cell solo replay timings.
    pub cells: Vec<TraceCellBench>,
    /// Wall time of the fused pass running every cell over one decode.
    pub fused_micros: u64,
    /// Whether every fused lane's statistics matched its solo replay.
    pub fused_identical: bool,
}

impl TraceBenchReport {
    /// Total solo replay time.
    pub fn replay_micros(&self) -> u64 {
        self.cells.iter().map(|c| c.replay_micros).sum()
    }

    /// Wall-clock speedup of the fused pass over per-cell replay.
    pub fn fused_speedup(&self) -> f64 {
        self.replay_micros() as f64 / self.fused_micros.max(1) as f64
    }

    /// The machine-readable artifact (`BENCH_trace.json`).
    pub fn to_json(&self) -> Json {
        let mut cells = Vec::new();
        for c in &self.cells {
            cells.push(
                Json::obj()
                    .field("cell", c.label())
                    .field("committed", c.committed)
                    .field("replay_micros", c.replay_micros)
                    .field(
                        "replay_insns_per_sec",
                        insns_per_sec(c.committed, c.replay_micros),
                    ),
            );
        }
        Json::obj()
            .field("experiment", "bench-trace")
            .field("workload", self.name.as_str())
            .field("commits", self.commits)
            .field("records", self.records)
            .field("trace_bytes", self.trace_bytes)
            .field("cells", cells)
            .field(
                "fused",
                Json::obj()
                    .field("fused_micros", self.fused_micros)
                    .field("per_cell_micros", self.replay_micros())
                    .field("speedup", self.fused_speedup())
                    .field("reports_identical", self.fused_identical),
            )
    }

    /// Human-readable summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "trace '{}' x {} cells: replay {:.2}s, fused {:.2}s (speedup {:.2}x), lanes {}",
            self.name,
            self.cells.len(),
            self.replay_micros() as f64 / 1e6,
            self.fused_micros as f64 / 1e6,
            self.fused_speedup(),
            if self.fused_identical {
                "identical"
            } else {
                "DIVERGED"
            }
        )
    }
}

/// Times an imported stream across [`CELLS`] solo and as one fused
/// lane-parallel pass, proving bit-identity between the two paths.
pub fn run_trace(name: &str, trace: Arc<TraceBuffer>, commits: u64) -> TraceBenchReport {
    let mut cells = Vec::new();
    let mut solo_stats = Vec::new();
    for (scheme, predication) in CELLS {
        let opts = SimOptions::new(scheme, predication);
        let (stats, replay_micros) = run_replay(opts, Arc::clone(&trace), commits);
        cells.push(TraceCellBench {
            scheme,
            predication,
            committed: stats.committed,
            replay_micros,
        });
        solo_stats.push(stats);
    }
    let lane_opts: Vec<SimOptions> = CELLS
        .iter()
        .map(|&(scheme, predication)| SimOptions::new(scheme, predication))
        .collect();
    let started = Instant::now();
    let fused_runs = LaneSet::new(TraceCursor::new(Arc::clone(&trace)), &lane_opts)
        .expect("bench cells carry no overrides")
        .run(commits);
    let fused_micros = started.elapsed().as_micros() as u64;
    let fused_identical = fused_runs
        .iter()
        .zip(&solo_stats)
        .all(|(lane, solo)| lane.stats == *solo);
    TraceBenchReport {
        name: name.to_string(),
        commits,
        records: trace.len(),
        trace_bytes: trace.bytes(),
        cells,
        fused_micros,
        fused_identical,
    }
}

/// One cell timed as a full run and as a sampled run (`ppsim bench
/// --sample`): how much accuracy the sampling schedule gives up and how
/// much wall time it saves.
#[derive(Clone, Debug)]
pub struct SampleCellBench {
    /// Branch-prediction organization.
    pub scheme: SchemeSpec,
    /// Predication model.
    pub predication: PredicationModel,
    /// Full-run misprediction rate (the ground truth).
    pub full_rate: f64,
    /// Window-aggregate misprediction rate (`Σ misp / Σ branches`).
    pub sampled_rate: f64,
    /// Instructions the full run committed.
    pub full_committed: u64,
    /// Instructions the sampled run measured (`count * measure`).
    pub sampled_committed: u64,
    /// Wall time of the full timing run.
    pub full_micros: u64,
    /// Wall time of the sampled timing runs (all windows; the span
    /// capture excluded — it is amortized once per benchmark, see
    /// [`SampleBenchRow::ff_micros`]).
    pub sampled_micros: u64,
}

impl SampleCellBench {
    fn label(&self) -> String {
        let model = match self.predication {
            PredicationModel::Cmov => "cmov",
            PredicationModel::Selective => "selective",
        };
        format!("{}/{model}", self.scheme.name())
    }

    /// Absolute misprediction-rate error in percentage points.
    pub fn error_pp(&self) -> f64 {
        (self.sampled_rate - self.full_rate).abs() * 100.0
    }
}

/// One benchmark of the sampled-vs-full comparison.
#[derive(Clone, Debug)]
pub struct SampleBenchRow {
    /// Benchmark name.
    pub benchmark: String,
    /// One-off cost of capturing the schedule's span — the functional
    /// fast-forward every window's cursor seeks into — shared by every
    /// cell.
    pub ff_micros: u64,
    /// Per-cell timings and rates.
    pub cells: Vec<SampleCellBench>,
}

/// The sampled-vs-full benchmark outcome.
#[derive(Clone, Debug)]
pub struct SampleBenchReport {
    /// Committed-instruction budget of the full runs.
    pub commits: u64,
    /// The sampling schedule under test.
    pub spec: SampleSpec,
    /// Per-benchmark rows.
    pub rows: Vec<SampleBenchRow>,
}

impl SampleBenchReport {
    /// Total full-run simulation time.
    pub fn full_micros(&self) -> u64 {
        self.rows
            .iter()
            .flat_map(|r| &r.cells)
            .map(|c| c.full_micros)
            .sum()
    }

    /// Total sampled simulation time, *including* each benchmark's
    /// one-off span capture — the honest cost of sampling.
    pub fn sampled_micros(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.ff_micros + r.cells.iter().map(|c| c.sampled_micros).sum::<u64>())
            .sum()
    }

    /// Wall-clock speedup of the sampled sweep over the full sweep.
    pub fn speedup(&self) -> f64 {
        self.full_micros() as f64 / self.sampled_micros().max(1) as f64
    }

    /// Largest per-cell misprediction-rate error (percentage points).
    pub fn max_error_pp(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| &r.cells)
            .map(SampleCellBench::error_pp)
            .fold(0.0, f64::max)
    }

    /// Mean per-cell misprediction-rate error (percentage points).
    pub fn mean_error_pp(&self) -> f64 {
        let cells: Vec<f64> = self
            .rows
            .iter()
            .flat_map(|r| &r.cells)
            .map(SampleCellBench::error_pp)
            .collect();
        if cells.is_empty() {
            return 0.0;
        }
        cells.iter().sum::<f64>() / cells.len() as f64
    }

    /// The machine-readable artifact (`BENCH_sample.json`).
    pub fn to_json(&self) -> Json {
        let mut rows = Vec::new();
        for r in &self.rows {
            let mut cells = Vec::new();
            for c in &r.cells {
                cells.push(
                    Json::obj()
                        .field("cell", c.label())
                        .field("full_rate", c.full_rate)
                        .field("sampled_rate", c.sampled_rate)
                        .field("error_pp", c.error_pp())
                        .field("full_committed", c.full_committed)
                        .field("sampled_committed", c.sampled_committed)
                        .field("full_micros", c.full_micros)
                        .field("sampled_micros", c.sampled_micros),
                );
            }
            rows.push(
                Json::obj()
                    .field("name", r.benchmark.as_str())
                    .field("ff_micros", r.ff_micros)
                    .field("cells", cells),
            );
        }
        Json::obj()
            .field("experiment", "bench-sample")
            .field("commits", self.commits)
            .field("sample", self.spec.canon().as_str())
            .field("benchmarks", rows)
            .field(
                "aggregate",
                Json::obj()
                    .field("full_micros", self.full_micros())
                    .field("sampled_micros", self.sampled_micros())
                    .field("speedup", self.speedup())
                    .field("max_error_pp", self.max_error_pp())
                    .field("mean_error_pp", self.mean_error_pp()),
            )
    }

    /// Human-readable summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "{} benchmarks x {} cells, sample {}: full {:.2}s, sampled {:.2}s (ff incl.), \
             speedup {:.2}x, misprediction error mean {:.3}pp / max {:.3}pp",
            self.rows.len(),
            CELLS.len(),
            self.spec.canon(),
            self.full_micros() as f64 / 1e6,
            self.sampled_micros() as f64 / 1e6,
            self.speedup(),
            self.mean_error_pp(),
            self.max_error_pp()
        )
    }
}

/// Times every selected benchmark across [`CELLS`] as a full inline run
/// and as a sampled run (one capture of the schedule's span, one
/// [`TraceCursor::window`] per window), comparing rates and wall time.
pub fn run_sampled(cfg: &BenchConfig, spec: SampleSpec) -> SampleBenchReport {
    spec.validate()
        .expect("bench sample spec is validated upstream");
    let mut rows = Vec::new();
    for bench in spec2000_suite() {
        if !cfg.only.is_empty() && !cfg.only.iter().any(|n| n == bench.name) {
            continue;
        }
        let compiled =
            compile(&bench, &CompileOptions::with_ifconv()).expect("suite benchmarks compile");

        // One functional capture spanning every window — the cost every
        // cell of this benchmark shares.
        let started = Instant::now();
        let trace = Arc::new(
            TraceBuffer::capture(&compiled.program, spec.span())
                .unwrap_or_else(|e| panic!("functional machine died: {e}")),
        );
        let ff_micros = started.elapsed().as_micros() as u64;

        let mut cells = Vec::new();
        for (scheme, predication) in CELLS {
            let opts = SimOptions::new(scheme, predication);
            let (full_stats, full_micros) = run_inline(opts, &compiled.program, cfg.commits);

            let started = Instant::now();
            let mut aggregate = SimStats::default();
            for i in 0..spec.count {
                let window = TraceCursor::window(
                    Arc::clone(&trace),
                    spec.window_start(i),
                    spec.warmup + spec.measure,
                );
                let mut sim = opts
                    .build_source(window)
                    .expect("bench cells carry no overrides");
                let run = sim.run_sample(spec.warmup, spec.measure);
                aggregate.merge(&run.stats);
            }
            let sampled_micros = started.elapsed().as_micros() as u64;

            cells.push(SampleCellBench {
                scheme,
                predication,
                full_rate: full_stats.misprediction_rate(),
                sampled_rate: aggregate.misprediction_rate(),
                full_committed: full_stats.committed,
                sampled_committed: aggregate.committed,
                full_micros,
                sampled_micros,
            });
        }
        rows.push(SampleBenchRow {
            benchmark: bench.name.to_string(),
            ff_micros,
            cells,
        });
    }
    SampleBenchReport {
        commits: cfg.commits,
        spec,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_benchmark_produces_identical_cells_and_valid_json() {
        let report = run(&BenchConfig {
            commits: 3_000,
            only: vec!["gzip".into()],
            ..BenchConfig::default()
        });
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].cells.len(), CELLS.len());
        assert!(report.reports_identical(), "{}", report.summary());
        assert!(
            report.fused_identical(),
            "fused lanes diverged from solo replay: {}",
            report.summary()
        );
        assert!(report.rows[0].records > 0);
        assert!(report.rows[0].trace_bytes > 0);
        for c in &report.rows[0].cells {
            assert!(c.committed >= 3_000, "{} under-committed", c.label());
        }
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("bench artifact parses");
        assert_eq!(
            parsed
                .get("aggregate")
                .and_then(|a| a.get("reports_identical")),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            parsed.get("fused").and_then(|f| f.get("reports_identical")),
            Some(&Json::Bool(true)),
            "{text}"
        );
        assert!(
            parsed.get("fused").and_then(|f| f.get("speedup")).is_some(),
            "{text}"
        );
    }

    #[test]
    fn sampled_bench_compares_rates_and_counts_work() {
        let spec = SampleSpec {
            skip: 2_000,
            warmup: 1_000,
            measure: 3_000,
            stride: 5_000,
            count: 2,
        };
        let report = run_sampled(
            &BenchConfig {
                commits: 20_000,
                only: vec!["gzip".into()],
                ..BenchConfig::default()
            },
            spec,
        );
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].cells.len(), CELLS.len());
        for c in &report.rows[0].cells {
            assert!(c.full_committed >= 20_000, "{} under-committed", c.label());
            assert_eq!(
                c.sampled_committed,
                u64::from(spec.count) * spec.measure,
                "{} measured the wrong window total",
                c.label()
            );
            assert!(c.error_pp().is_finite());
            assert!(
                c.error_pp() < 50.0,
                "{}: sampled rate wildly off ({} vs {})",
                c.label(),
                c.sampled_rate,
                c.full_rate
            );
        }
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("sample bench artifact parses");
        assert_eq!(
            parsed.get("sample"),
            Some(&Json::Str(spec.canon())),
            "{text}"
        );
        assert!(report.summary().contains("speedup"));
    }

    #[test]
    fn trace_bench_proves_fused_identity_on_an_imported_stream() {
        let mut log = String::new();
        for i in 0..300 {
            log.push_str(&format!(
                "0x1000 {}\n0x2000 {}\n",
                u8::from(i % 3 != 0),
                i % 2
            ));
        }
        let (trace, _) = ppsim_isa::pptrace::import_cbp(&log).unwrap();
        let report = run_trace("cbp-fixture", Arc::new(trace), 10_000);
        assert_eq!(report.cells.len(), CELLS.len());
        assert!(report.fused_identical, "{}", report.summary());
        assert!(report.records > 0);
        for c in &report.cells {
            assert!(c.committed > 0, "{} committed nothing", c.label());
        }
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("trace bench artifact parses");
        assert_eq!(
            parsed.get("fused").and_then(|f| f.get("reports_identical")),
            Some(&Json::Bool(true)),
            "{text}"
        );
    }

    #[test]
    fn only_filter_restricts_rows() {
        let report = run(&BenchConfig {
            commits: 1_000,
            only: vec!["no-such-benchmark".into()],
            ..BenchConfig::default()
        });
        assert!(report.rows.is_empty());
        assert!(report.reports_identical(), "vacuously identical");
    }

    #[test]
    fn repeat_and_phases_stamp_the_artifact_and_stay_identical() {
        let report = run(&BenchConfig {
            commits: 3_000,
            only: vec!["gzip".into()],
            repeat: 3,
            phases: true,
        });
        assert_eq!(report.repeat, 3);
        assert!(report.reports_identical(), "{}", report.summary());
        assert!(report.fused_identical(), "{}", report.summary());

        let row = &report.rows[0];
        let p = row.phases.as_ref().expect("phases requested");
        assert!(
            p.identical,
            "profiled lanes diverged from unprofiled replay"
        );
        // Laps telescope: the bucket sum is exactly the measured
        // process() time, and process() time fits inside the pass wall.
        assert!(p.report.total_nanos() > 0);
        assert!(
            p.report.total_nanos() <= p.wall_nanos,
            "process {} > wall {}",
            p.report.total_nanos(),
            p.wall_nanos
        );
        // One fused pass over CELLS lanes profiles each record once per
        // lane.
        assert_eq!(p.report.records, row.records * CELLS.len() as u64);
        // Min never exceeds the median it was sampled with.
        for c in &row.cells {
            assert!(c.inline_min_micros <= c.inline_micros);
            assert!(c.replay_min_micros <= c.replay_micros);
        }
        assert!(row.fused_min_micros <= row.fused_micros);

        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("bench artifact parses");
        assert_eq!(
            parsed.get("repeat").and_then(Json::as_i64),
            Some(3),
            "{text}"
        );
        assert!(parsed.get("commit").is_some(), "{text}");
        assert_eq!(parsed.get("jobs").and_then(Json::as_i64), Some(1), "{text}");
        let ph = parsed.get("phases").expect("aggregate phases block");
        let total: f64 = phases::NAMES
            .iter()
            .map(|name| {
                ph.get(&format!("{name}_nanos"))
                    .and_then(Json::as_f64)
                    .expect("phase bucket present")
            })
            .sum();
        assert_eq!(
            Some(total),
            ph.get("process_nanos").and_then(Json::as_f64),
            "phase buckets must sum to process_nanos exactly: {text}"
        );
        assert_eq!(
            ph.get("reports_identical"),
            Some(&Json::Bool(true)),
            "{text}"
        );
        assert!(report.summary().contains("median of 3"));
        assert!(report.summary().contains("phases:"));
    }
}
