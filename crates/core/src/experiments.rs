//! Per-figure experiment runners.
//!
//! Each function builds the grid of simulation cells ([`Job`]s) the
//! paper's corresponding experiment requires, hands the grid to a
//! [`Runner`] (which parallelizes, caches and memoizes compilation), and
//! assembles typed results with [`Table`] and JSON renderings. Grids are
//! always constructed in a canonical order — suite order × scheme order —
//! so reports are byte-identical regardless of worker count or cache
//! state.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ppsim_compiler::{WorkloadClass, WorkloadSpec};
use ppsim_pipeline::{PredicationModel, SchemeSpec, SimStats};
use ppsim_predictors::sizing;
use ppsim_runner::{Job, Json, Runner};

use crate::report::{count, f3, pct, Table};
use crate::ExperimentConfig;

/// One benchmark's results across the schemes of an experiment.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Integer or floating point.
    pub class: WorkloadClass,
    /// Per-scheme statistics, in the experiment's scheme order. For
    /// sampled runs these are the counter-summed window aggregates.
    pub runs: Vec<SimStats>,
    /// Per-scheme, per-window statistics when the experiment ran sampled
    /// (`samples[scheme][window]`); empty for full runs.
    pub samples: Vec<Vec<SimStats>>,
}

/// Results of a multi-scheme comparison (Figures 5 and 6a).
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Experiment title.
    pub title: String,
    /// Scheme labels, defining the column order.
    pub schemes: Vec<String>,
    /// One row per benchmark.
    pub rows: Vec<BenchRow>,
}

impl Comparison {
    /// Average misprediction rate of scheme column `i`.
    pub fn average_rate(&self, i: usize) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| r.runs[i].misprediction_rate())
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Average accuracy difference (percentage points) of scheme `b` over
    /// scheme `a` — the paper's "accuracy increase".
    pub fn accuracy_gain(&self, a: usize, b: usize) -> f64 {
        (self.average_rate(a) - self.average_rate(b)) * 100.0
    }

    /// Renders the comparison as a misprediction-rate table (the figures'
    /// y-axis, in percent).
    pub fn table(&self) -> Table {
        let mut headers = vec!["benchmark".to_string(), "class".to_string()];
        headers.extend(self.schemes.iter().map(|s| format!("{s} misp%")));
        let mut t = Table::new(
            self.title.clone(),
            &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for row in &self.rows {
            let mut cells = vec![
                row.name.to_string(),
                match row.class {
                    WorkloadClass::Int => "int".to_string(),
                    WorkloadClass::Fp => "fp".to_string(),
                },
            ];
            cells.extend(row.runs.iter().map(|s| pct(s.misprediction_rate())));
            t.row(cells);
        }
        let mut avg = vec!["average".to_string(), "-".to_string()];
        avg.extend((0..self.schemes.len()).map(|i| pct(self.average_rate(i))));
        t.row(avg);
        t
    }

    /// Average MPKI of scheme column `i`.
    pub fn average_mpki(&self, i: usize) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.runs[i].mpki()).sum::<f64>() / self.rows.len() as f64
    }

    /// Renders the comparison as an MPKI table — mispredicts per
    /// kilo-instruction, the cross-workload metric modern prediction
    /// studies report. Unlike the rate table it also reflects each
    /// workload's branch density.
    pub fn mpki_table(&self) -> Table {
        let mut headers = vec!["benchmark".to_string(), "class".to_string()];
        headers.extend(self.schemes.iter().map(|s| format!("{s} MPKI")));
        let mut t = Table::new(
            format!("{} — MPKI", self.title),
            &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for row in &self.rows {
            let mut cells = vec![
                row.name.to_string(),
                match row.class {
                    WorkloadClass::Int => "int".to_string(),
                    WorkloadClass::Fp => "fp".to_string(),
                },
            ];
            cells.extend(row.runs.iter().map(|s| f3(s.mpki())));
            t.row(cells);
        }
        let mut avg = vec!["average".to_string(), "-".to_string()];
        avg.extend((0..self.schemes.len()).map(|i| f3(self.average_mpki(i))));
        t.row(avg);
        t
    }

    /// Renders scheme column `col`'s top-`n` hardest-to-predict ("H2P")
    /// static branches per benchmark: the sites contributing the most
    /// mispredictions, with their execution counts and per-site rates.
    pub fn h2p_table(&self, col: usize, n: usize) -> Table {
        let mut t = Table::new(
            format!(
                "Top-{n} mispredicting branches (H2P) — {} scheme",
                self.schemes[col]
            ),
            &["benchmark", "site", "execs", "mispredicts", "site misp%"],
        );
        for row in &self.rows {
            for (slot, execs, miss) in row.runs[col].top_mispredictors(n) {
                t.row(vec![
                    row.name.to_string(),
                    format!("slot {slot}"),
                    count(execs),
                    count(miss),
                    pct(miss as f64 / execs.max(1) as f64),
                ]);
            }
        }
        t
    }

    /// Renders scheme column `col` as a stall-attribution table: every
    /// benchmark's cycles split across the six [`ppsim_pipeline::StallBucket`]s
    /// (percent of total; rows sum to 100 by the pipeline's invariant).
    pub fn stall_table(&self, col: usize) -> Table {
        use ppsim_pipeline::StallBucket;
        let mut headers = vec!["benchmark".to_string()];
        headers.extend(StallBucket::ALL.iter().map(|b| format!("{}%", b.name())));
        let mut t = Table::new(
            format!("Stall attribution — {} scheme", self.schemes[col]),
            &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for row in &self.rows {
            let s = &row.runs[col];
            let total = s.stall.total().max(1) as f64;
            let mut cells = vec![row.name.to_string()];
            cells.extend(
                StallBucket::ALL
                    .iter()
                    .map(|&b| pct(s.stall.get(b) as f64 / total)),
            );
            t.row(cells);
        }
        t
    }

    /// Renders the per-window misprediction rates of a sampled run
    /// (`None` when the comparison came from full runs).
    pub fn sample_table(&self) -> Option<Table> {
        if self.rows.iter().all(|r| r.samples.is_empty()) {
            return None;
        }
        let mut headers = vec!["benchmark".to_string(), "window".to_string()];
        headers.extend(self.schemes.iter().map(|s| format!("{s} misp%")));
        let mut t = Table::new(
            format!("{} — per-window samples", self.title),
            &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for row in &self.rows {
            let windows = row.samples.first().map_or(0, |col| col.len());
            for w in 0..windows {
                let mut cells = vec![row.name.to_string(), format!("w{w}")];
                cells.extend(
                    row.samples
                        .iter()
                        .map(|col| pct(col[w].misprediction_rate())),
                );
                t.row(cells);
            }
        }
        Some(t)
    }

    /// Renders the comparison as a JSON object (for `--json` artifacts).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("title", self.title.as_str())
            .field(
                "schemes",
                Json::Arr(
                    self.schemes
                        .iter()
                        .map(|s| Json::from(s.as_str()))
                        .collect(),
                ),
            )
            .field(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            let mut obj = Json::obj()
                                .field("benchmark", r.name)
                                .field(
                                    "class",
                                    match r.class {
                                        WorkloadClass::Int => "int",
                                        WorkloadClass::Fp => "fp",
                                    },
                                )
                                .field(
                                    "misprediction_rates",
                                    Json::Arr(
                                        r.runs
                                            .iter()
                                            .map(|s| Json::Num(s.misprediction_rate()))
                                            .collect(),
                                    ),
                                )
                                .field(
                                    "ipc",
                                    Json::Arr(r.runs.iter().map(|s| Json::Num(s.ipc())).collect()),
                                )
                                .field(
                                    "mpki",
                                    Json::Arr(r.runs.iter().map(|s| Json::Num(s.mpki())).collect()),
                                )
                                .field(
                                    "metrics",
                                    Json::Arr(
                                        r.runs.iter().map(|s| s.metrics().to_json()).collect(),
                                    ),
                                );
                            if !r.samples.is_empty() {
                                obj = obj.field(
                                    "sample_rates",
                                    Json::Arr(
                                        r.samples
                                            .iter()
                                            .map(|col| {
                                                Json::Arr(
                                                    col.iter()
                                                        .map(|s| Json::Num(s.misprediction_rate()))
                                                        .collect(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                );
                            }
                            obj
                        })
                        .collect(),
                ),
            )
            .field(
                "average_rates",
                Json::Arr(
                    (0..self.schemes.len())
                        .map(|i| Json::Num(self.average_rate(i)))
                        .collect(),
                ),
            )
    }
}

fn suite(cfg: &ExperimentConfig) -> Vec<WorkloadSpec> {
    ppsim_compiler::spec2000_suite()
        .into_iter()
        .filter(|s| cfg.selected(s.name))
        .collect()
}

/// A job for one cell of this config's grid (no overrides).
fn cell(
    cfg: &ExperimentConfig,
    bench: &str,
    ifconv: bool,
    scheme: SchemeSpec,
    predication: PredicationModel,
) -> Job {
    Job::new(
        bench,
        ifconv,
        scheme,
        predication,
        cfg.commits,
        cfg.profile_steps,
        cfg.core,
    )
}

/// The scheme columns of the Figure 6a grid: (scheme, predication,
/// shadow) per column, in table order. The paper's three columns lead;
/// the TAGE frontier columns follow — the branch-PC variants under the
/// paper's cmov model (like the other branch-PC schemes), the
/// predicate-predicting hybrid under selective predication (like the
/// paper's predicate column it competes with).
pub const FIG6A_SCHEMES: [(SchemeSpec, PredicationModel, bool); 6] = [
    (SchemeSpec::PepPa, PredicationModel::Cmov, false),
    (SchemeSpec::Conventional, PredicationModel::Cmov, false),
    (SchemeSpec::Predicate, PredicationModel::Selective, false),
    (SchemeSpec::Tage, PredicationModel::Cmov, false),
    (SchemeSpec::TageH2p, PredicationModel::Cmov, false),
    (
        SchemeSpec::TagePredicate,
        PredicationModel::Selective,
        false,
    ),
];

/// Column index of `scheme` within [`FIG6A_SCHEMES`] — positional
/// references into the Figure 6a grid (accuracy gains, H2P and stall
/// columns) are derived through here, never hardcoded, so they survive
/// column insertions.
pub fn fig6a_col(scheme: SchemeSpec) -> usize {
    FIG6A_SCHEMES
        .iter()
        .position(|&(s, _, _)| s == scheme)
        .unwrap_or_else(|| panic!("{} is not a Figure 6a column", scheme.name()))
}

/// The Figure 6b column: the predicate scheme with the conventional
/// shadow predictor running alongside for the attribution counts.
const FIG6B_SCHEMES: [(SchemeSpec, PredicationModel, bool); 1] =
    [(SchemeSpec::Predicate, PredicationModel::Selective, true)];

/// The IPC-ablation columns: the predicate scheme under both
/// predication models.
const IPC_SCHEMES: [(SchemeSpec, PredicationModel, bool); 2] = [
    (SchemeSpec::Predicate, PredicationModel::Cmov, false),
    (SchemeSpec::Predicate, PredicationModel::Selective, false),
];

fn fig5_schemes(ideal: bool) -> [(SchemeSpec, PredicationModel, bool); 2] {
    let (sa, sb) = if ideal {
        (SchemeSpec::IdealConventional, SchemeSpec::IdealPredicate)
    } else {
        (SchemeSpec::Conventional, SchemeSpec::Predicate)
    };
    [
        (sa, PredicationModel::Cmov, false),
        (sb, PredicationModel::Cmov, false),
    ]
}

/// A named slice of the experiment space — the single vocabulary every
/// consumer (CLI suite, serve daemon, benchmark harness) uses to name
/// the cells it wants simulated.
#[derive(Clone, Copy, Debug)]
pub enum PlanSpec<'a> {
    /// One explicit cell of `cfg`'s grid.
    Cell {
        /// Benchmark name.
        bench: &'a str,
        /// Simulate the if-converted binary.
        ifconv: bool,
        /// Prediction scheme.
        scheme: SchemeSpec,
        /// Predication model.
        predication: PredicationModel,
    },
    /// The Figure 5 columns (non-if-converted conventional vs
    /// predicate); `ideal` selects the alias-free perfect-history
    /// variants.
    Fig5 {
        /// Run the idealized variants instead.
        ideal: bool,
    },
    /// The Figure 6a grid (if-converted code, three schemes).
    Fig6a,
    /// The Figure 6b shadow-attribution column.
    Fig6b,
    /// The predication-model IPC-ablation columns.
    IpcAblation,
    /// Every cell of the consolidated report (Figures 5, 6a, 6b and the
    /// IPC ablation), deduplicated in first-use order.
    FullReport,
}

/// Expands `spec` into its canonical [`Job`] list for `cfg` — the one
/// grid builder behind every experiment. External callers (the serve
/// daemon, the benchmark harness) build jobs through here and therefore
/// share cache keys — and bytes — with batch runs. Multi-figure specs
/// are deduplicated by canonical key, so cells shared between figures
/// appear (and simulate) once; grids keep suite-major order. The runner
/// reorders cache misses stream by stream before running each cell as
/// its own job, so plan order never costs a second capture.
pub fn plan(cfg: &ExperimentConfig, spec: PlanSpec) -> Vec<Job> {
    match spec {
        PlanSpec::Cell {
            bench,
            ifconv,
            scheme,
            predication,
        } => vec![cell(cfg, bench, ifconv, scheme, predication)],
        PlanSpec::Fig5 { ideal } => grid_jobs(cfg, false, &fig5_schemes(ideal)),
        PlanSpec::Fig6a => grid_jobs(cfg, true, &FIG6A_SCHEMES),
        PlanSpec::Fig6b => grid_jobs(cfg, true, &FIG6B_SCHEMES),
        PlanSpec::IpcAblation => grid_jobs(cfg, true, &IPC_SCHEMES),
        PlanSpec::FullReport => {
            let mut jobs = plan(cfg, PlanSpec::Fig5 { ideal: false });
            jobs.extend(plan(cfg, PlanSpec::Fig6a));
            jobs.extend(plan(cfg, PlanSpec::Fig6b));
            jobs.extend(plan(cfg, PlanSpec::IpcAblation));
            let mut seen = std::collections::HashSet::new();
            jobs.retain(|j| seen.insert(j.canon()));
            jobs
        }
    }
}

/// The jobs of a (suite × schemes) grid in suite-major order.
fn grid_jobs(
    cfg: &ExperimentConfig,
    ifconv: bool,
    schemes: &[(SchemeSpec, PredicationModel, bool)],
) -> Vec<Job> {
    suite(cfg)
        .iter()
        .flat_map(|spec| {
            schemes.iter().map(|&(scheme, predication, shadow)| Job {
                shadow,
                ..cell(cfg, spec.name, ifconv, scheme, predication)
            })
        })
        .collect()
}

/// Per-cell outcome held by [`PlanResults`].
#[derive(Clone, Debug)]
struct PlanCell {
    /// Aggregate statistics (counter-summed over windows when sampled).
    stats: SimStats,
    /// Per-window statistics; empty for full runs.
    windows: Vec<SimStats>,
}

/// The executed results of a plan, indexed by canonical cell key.
///
/// Collected **once** per plan and shared by every figure that reads
/// from it — figures that overlap (the full report's grids share
/// cells) assemble from the same simulation instead of re-running it.
#[derive(Clone, Debug, Default)]
pub struct PlanResults {
    /// Each unique cell's position in `cells`, by canonical key.
    index: HashMap<String, usize>,
    cells: Vec<PlanCell>,
    /// Cells this collection simulated rather than read from the cache.
    simulated: usize,
}

impl PlanResults {
    /// Executes `jobs` through `runner` — deduplicated by canonical key,
    /// sampled or full per `cfg.sample` — and indexes the outcomes.
    pub fn collect(runner: &Runner, cfg: &ExperimentConfig, jobs: &[Job]) -> PlanResults {
        PlanResults::collect_reporting(runner, cfg, jobs, &|_, _| {})
    }

    /// [`PlanResults::collect`] as one grid run: each unique cell's
    /// cache entry is probed once, the misses run in one pool run, and
    /// `progress(resolved, total)` reports as
    /// [`Runner::run_grid_reporting`] does — over unique cells, or over
    /// their window jobs when `cfg.sample` is set.
    pub fn collect_reporting(
        runner: &Runner,
        cfg: &ExperimentConfig,
        jobs: &[Job],
        progress: &(dyn Fn(u64, u64) + Sync),
    ) -> PlanResults {
        // One canon per job serves as both the dedup key and the index.
        let mut index = HashMap::with_capacity(jobs.len());
        let mut unique: Vec<Job> = Vec::new();
        for j in jobs {
            if let Entry::Vacant(slot) = index.entry(j.canon()) {
                slot.insert(unique.len());
                unique.push(j.clone());
            }
        }
        let mut simulated = 0;
        let cells = match cfg.sample {
            Some(spec) => runner
                .run_grid_sampled_reporting(&unique, spec, progress)
                .into_iter()
                .map(|r| {
                    simulated += usize::from(!r.aggregate.from_cache);
                    PlanCell {
                        stats: r.aggregate.stats,
                        windows: r.samples.into_iter().map(|w| w.stats).collect(),
                    }
                })
                .collect(),
            None => runner
                .run_grid_reporting(&unique, progress)
                .into_iter()
                .map(|r| {
                    simulated += usize::from(!r.from_cache);
                    PlanCell {
                        stats: r.stats,
                        windows: Vec::new(),
                    }
                })
                .collect(),
        };
        PlanResults {
            index,
            cells,
            simulated,
        }
    }

    /// Cells this collection simulated: 0 when every cell came from the
    /// disk cache. A sampled cell counts when any of its windows did.
    pub fn simulated(&self) -> usize {
        self.simulated
    }

    /// Number of distinct cells executed.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells were executed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn cell(&self, job: &Job) -> &PlanCell {
        let canon = job.canon();
        match self.index.get(&canon) {
            Some(&i) => &self.cells[i],
            None => panic!("plan results missing cell {canon}"),
        }
    }

    /// The collected aggregate statistics of one cell — the read-side of
    /// [`PlanResults::collect`] for callers assembling custom reports
    /// (e.g. [`crate::tracework::trace_report`]). Panics with the job's
    /// canonical key if the plan didn't cover it.
    pub fn stats_of(&self, job: &Job) -> &SimStats {
        &self.cell(job).stats
    }

    /// Per-benchmark stat rows for a (suite × schemes) grid, read from
    /// the collected results. Panics if the plan didn't cover the grid.
    fn rows(
        &self,
        cfg: &ExperimentConfig,
        ifconv: bool,
        schemes: &[(SchemeSpec, PredicationModel, bool)],
    ) -> Vec<BenchRow> {
        suite(cfg)
            .iter()
            .map(|spec| {
                let cells: Vec<&PlanCell> = schemes
                    .iter()
                    .map(|&(scheme, predication, shadow)| {
                        self.cell(&Job {
                            shadow,
                            ..cell(cfg, spec.name, ifconv, scheme, predication)
                        })
                    })
                    .collect();
                BenchRow {
                    name: spec.name,
                    class: spec.class,
                    runs: cells.iter().map(|c| c.stats.clone()).collect(),
                    samples: if cfg.sample.is_some() {
                        cells.iter().map(|c| c.windows.clone()).collect()
                    } else {
                        Vec::new()
                    },
                }
            })
            .collect()
    }
}

impl PlanResults {
    /// Assembles Figure 5 from collected results (see [`fig5`]).
    pub fn fig5(&self, cfg: &ExperimentConfig, ideal: bool) -> Comparison {
        let title = if ideal {
            "Figure 5 (idealized): no alias conflicts, perfect history, non-if-converted code"
        } else {
            "Figure 5: 148KB conventional vs 148KB predicate predictor, non-if-converted code"
        };
        Comparison {
            title: title.to_string(),
            schemes: vec!["conventional".into(), "predicate".into()],
            rows: self.rows(cfg, false, &fig5_schemes(ideal)),
        }
    }

    /// Assembles Figure 6a from collected results (see [`fig6a`]).
    pub fn fig6a(&self, cfg: &ExperimentConfig) -> Comparison {
        Comparison {
            title: "Figure 6a: PEP-PA vs conventional vs predicate predictor \
                    vs the TAGE frontier, if-converted code"
                .to_string(),
            schemes: FIG6A_SCHEMES
                .iter()
                .map(|(s, _, _)| s.name().to_string())
                .collect(),
            rows: self.rows(cfg, true, &FIG6A_SCHEMES),
        }
    }
}

/// Figure 5: branch misprediction rates of the conventional predictor vs
/// the predicate predictor on **non-if-converted** binaries. With
/// `ideal`, runs the alias-free perfect-history variants instead (the
/// "results not shown in the graph" study of §4.2).
pub fn fig5(runner: &Runner, cfg: &ExperimentConfig, ideal: bool) -> Comparison {
    PlanResults::collect(runner, cfg, &plan(cfg, PlanSpec::Fig5 { ideal })).fig5(cfg, ideal)
}

/// Figure 6a: misprediction rates on **if-converted** binaries for the
/// 144 KB PEP-PA, the 148 KB conventional predictor and the 148 KB
/// predicate predictor.
pub fn fig6a(runner: &Runner, cfg: &ExperimentConfig) -> Comparison {
    PlanResults::collect(runner, cfg, &plan(cfg, PlanSpec::Fig6a)).fig6a(cfg)
}

/// One row of the Figure 6b breakdown.
#[derive(Clone, Debug)]
pub struct BreakdownRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Accuracy difference (percentage points) of the predicate scheme
    /// over the shadow conventional predictor.
    pub total: f64,
    /// Contribution of early-resolved branches (predicate was ready and
    /// the conventional predictor would have mispredicted).
    pub early: f64,
    /// Remainder, attributed to correlation improvement (and including
    /// the predicate predictor's negative effects, as in the paper).
    pub correlation: f64,
}

/// Results of the Figure 6b attribution experiment.
#[derive(Clone, Debug)]
pub struct Breakdown {
    /// One row per benchmark.
    pub rows: Vec<BreakdownRow>,
}

impl Breakdown {
    /// Average early-resolved contribution (percentage points).
    pub fn average_early(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.early).sum::<f64>() / self.rows.len() as f64
    }

    /// Average correlation contribution (percentage points).
    pub fn average_correlation(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.correlation).sum::<f64>() / self.rows.len() as f64
    }

    /// Renders the breakdown table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 6b: accuracy-gain breakdown (percentage points vs conventional)",
            &["benchmark", "total", "early-resolved", "correlation"],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.to_string(),
                f3(r.total),
                f3(r.early),
                f3(r.correlation),
            ]);
        }
        t.row(vec![
            "average".to_string(),
            f3(self.average_early() + self.average_correlation()),
            f3(self.average_early()),
            f3(self.average_correlation()),
        ]);
        t
    }

    /// Renders the breakdown as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .field("benchmark", r.name)
                                .field("total", r.total)
                                .field("early", r.early)
                                .field("correlation", r.correlation)
                        })
                        .collect(),
                ),
            )
            .field("average_early", self.average_early())
            .field("average_correlation", self.average_correlation())
    }
}

impl PlanResults {
    /// Assembles the Figure 6b breakdown from collected results (see
    /// [`fig6b`]).
    pub fn fig6b(&self, cfg: &ExperimentConfig) -> Breakdown {
        let rows = self
            .rows(cfg, true, &FIG6B_SCHEMES)
            .into_iter()
            .map(|row| {
                let s = &row.runs[0];
                let n = s.cond_branches.max(1) as f64;
                let shadow_rate = s.shadow_mispredicts as f64 / n;
                let total = (shadow_rate - s.misprediction_rate()) * 100.0;
                let early = (s.early_resolved_saves as f64 / n) * 100.0;
                BreakdownRow {
                    name: row.name,
                    total,
                    early,
                    correlation: total - early,
                }
            })
            .collect();
        Breakdown { rows }
    }
}

/// Figure 6b: splits the accuracy difference between the predicate scheme
/// and a conventional predictor into the early-resolved and correlation
/// contributions, following the paper's method: count the times the
/// predicate was ready while the conventional predictor would have
/// mispredicted; attribute the remaining difference to correlation.
pub fn fig6b(runner: &Runner, cfg: &ExperimentConfig) -> Breakdown {
    PlanResults::collect(runner, cfg, &plan(cfg, PlanSpec::Fig6b)).fig6b(cfg)
}

/// One row of the predication-model IPC ablation.
#[derive(Clone, Debug)]
pub struct IpcRow {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC with cmov-style predication.
    pub ipc_cmov: f64,
    /// IPC with selective predicate prediction.
    pub ipc_selective: f64,
}

impl IpcRow {
    /// Selective-over-cmov speedup.
    pub fn speedup(&self) -> f64 {
        if self.ipc_cmov == 0.0 {
            0.0
        } else {
            self.ipc_selective / self.ipc_cmov
        }
    }
}

/// Results of the IPC ablation.
#[derive(Clone, Debug)]
pub struct IpcAblation {
    /// One row per benchmark.
    pub rows: Vec<IpcRow>,
}

impl IpcAblation {
    /// Geometric-mean speedup.
    pub fn geomean_speedup(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.rows.iter().map(|r| r.speedup().ln()).sum();
        (log_sum / self.rows.len() as f64).exp()
    }

    /// Renders the ablation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Selective predicate prediction vs cmov-style predication (if-converted code)",
            &["benchmark", "IPC cmov", "IPC selective", "speedup"],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.to_string(),
                f3(r.ipc_cmov),
                f3(r.ipc_selective),
                f3(r.speedup()),
            ]);
        }
        t.row(vec![
            "geomean".to_string(),
            "-".to_string(),
            "-".to_string(),
            f3(self.geomean_speedup()),
        ]);
        t
    }

    /// Renders the ablation as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .field("benchmark", r.name)
                                .field("ipc_cmov", r.ipc_cmov)
                                .field("ipc_selective", r.ipc_selective)
                                .field("speedup", r.speedup())
                        })
                        .collect(),
                ),
            )
            .field("geomean_speedup", self.geomean_speedup())
    }
}

impl PlanResults {
    /// Assembles the IPC ablation from collected results (see
    /// [`ipc_ablation`]).
    pub fn ipc_ablation(&self, cfg: &ExperimentConfig) -> IpcAblation {
        let rows = self
            .rows(cfg, true, &IPC_SCHEMES)
            .into_iter()
            .map(|row| IpcRow {
                name: row.name,
                ipc_cmov: row.runs[0].ipc(),
                ipc_selective: row.runs[1].ipc(),
            })
            .collect();
        IpcAblation { rows }
    }
}

/// §3.2/§5 ablation: IPC of the predicate scheme on if-converted binaries
/// with cmov-style predication vs selective predicate prediction (the
/// paper cites an 11% IPC gain for the selective scheme in \[16\]).
pub fn ipc_ablation(runner: &Runner, cfg: &ExperimentConfig) -> IpcAblation {
    PlanResults::collect(runner, cfg, &plan(cfg, PlanSpec::IpcAblation)).ipc_ablation(cfg)
}

/// Table 1: renders the simulated machine's parameters plus the predictor
/// storage budgets.
pub fn table1(cfg: &ExperimentConfig) -> String {
    let c = &cfg.core;
    let mut out = String::new();
    out.push_str("Table 1 — Main architectural parameters\n");
    out.push_str(&format!(
        "Fetch width               up to 2 bundles ({} instructions)\n",
        c.fetch_width
    ));
    out.push_str(&format!(
        "Issue queues              int {} / fp {} / branch {}\n",
        c.iq_int, c.iq_fp, c.iq_branch
    ));
    out.push_str(&format!(
        "Load-store queues         2 separate queues of {} entries each\n",
        c.lq_entries
    ));
    out.push_str(&format!(
        "Reorder buffer            {} entries\n",
        c.rob_entries
    ));
    out.push_str("L1D                       64KB 4-way 64B, 2-cycle, 12+4 misses, 16 WB\n");
    out.push_str("L1I                       32KB 4-way 64B, 1-cycle\n");
    out.push_str("L2 unified                1MB 16-way 128B, 8-cycle, 12 misses, 8 WB\n");
    out.push_str("D/I TLB                   512 entries, 10-cycle miss penalty\n");
    out.push_str("Main memory               120 cycles\n");
    out.push_str(&format!(
        "Misprediction recovery    {} cycles\n",
        c.mispredict_penalty
    ));
    out.push_str("\nPredictor storage budgets\n");
    out.push_str(&sizing::paper_report());
    out
}

/// Executes every cell of the consolidated report exactly once — the
/// deduplicated [`PlanSpec::FullReport`] grid through one runner pass,
/// one pool job per cache-missing cell. Both report renderings ([`PlanResults::report_text`]
/// and [`PlanResults::report_json`]) assemble from the returned results
/// without re-running anything.
pub fn full_results(runner: &Runner, cfg: &ExperimentConfig) -> PlanResults {
    PlanResults::collect(runner, cfg, &plan(cfg, PlanSpec::FullReport))
}

impl PlanResults {
    /// Renders the consolidated text report (the body of `ppsim suite`)
    /// from results collected over [`PlanSpec::FullReport`]. The output
    /// is deterministic: byte-identical for any worker count and cache
    /// state.
    pub fn report_text(&self, cfg: &ExperimentConfig) -> String {
        let mut out = String::new();
        out.push_str(&table1(cfg));
        out.push('\n');
        if let Some(spec) = cfg.sample {
            out.push_str(&format!(
                "Sampled mode ({}): {} windows of {} measured commits behind {} warmup, \
                 stride {}, skip {} — timing model covers {} of {} commits per cell\n\n",
                spec.canon(),
                spec.count,
                spec.measure,
                spec.warmup,
                spec.stride,
                spec.skip,
                spec.simulated(),
                cfg.commits
            ));
        }
        let fig5 = self.fig5(cfg, false);
        out.push_str(&fig5.table().to_string());
        out.push_str(&format!(
            "average accuracy gain (predicate over conventional): {:+.2} points (paper: +1.86)\n\n",
            fig5.accuracy_gain(0, 1)
        ));
        let fig6a = self.fig6a(cfg);
        let (conv, pred) = (
            fig6a_col(SchemeSpec::Conventional),
            fig6a_col(SchemeSpec::Predicate),
        );
        out.push_str(&fig6a.table().to_string());
        if let Some(t) = fig6a.sample_table() {
            out.push_str(&t.to_string());
        }
        out.push_str(&format!(
            "average accuracy gain (predicate over conventional): {:+.2} points (paper: +1.5 vs best)\n",
            fig6a.accuracy_gain(conv, pred)
        ));
        out.push_str(&format!(
            "average accuracy gain (tage over conventional): {:+.2} points; \
             (tage-h2p over tage): {:+.2}; (tage-predicate over predicate): {:+.2}\n\n",
            fig6a.accuracy_gain(conv, fig6a_col(SchemeSpec::Tage)),
            fig6a.accuracy_gain(fig6a_col(SchemeSpec::Tage), fig6a_col(SchemeSpec::TageH2p)),
            fig6a.accuracy_gain(pred, fig6a_col(SchemeSpec::TagePredicate)),
        ));
        out.push_str(&fig6a.mpki_table().to_string());
        out.push_str(&fig6a.h2p_table(pred, 5).to_string());
        let fig6b = self.fig6b(cfg);
        out.push_str(&fig6b.table().to_string());
        out.push_str(&format!(
            "averages: early {:+.2}, correlation {:+.2} (paper: +0.5 / +1.0)\n\n",
            fig6b.average_early(),
            fig6b.average_correlation()
        ));
        let ipc = self.ipc_ablation(cfg);
        out.push_str(&ipc.table().to_string());
        out.push_str(&format!(
            "geomean speedup of selective predication: {:.3} (ICS'06 reports ~1.11)\n\n",
            ipc.geomean_speedup()
        ));
        out.push_str(&fig6a.stall_table(pred).to_string());
        out
    }

    /// Renders the consolidated report as one JSON artifact from results
    /// collected over [`PlanSpec::FullReport`]: every figure's data with
    /// its full per-run metric blocks. Deterministic — byte-identical
    /// for any worker count and cache state. Execution telemetry (wall
    /// times, hit counts) deliberately lives *outside* this object;
    /// callers that want it attach [`Runner::telemetry`] as a sibling.
    pub fn report_json(&self, cfg: &ExperimentConfig) -> Json {
        let mut j = Json::obj().field("commits", cfg.commits);
        if let Some(spec) = cfg.sample {
            j = j.field("sample", spec.canon().as_str());
        }
        j.field("fig5", self.fig5(cfg, false).to_json())
            .field("fig6a", self.fig6a(cfg).to_json())
            .field("fig6b", self.fig6b(cfg).to_json())
            .field("ipc_ablation", self.ipc_ablation(cfg).to_json())
    }
}

/// Runs every experiment and renders the consolidated report (the body of
/// `ppsim suite` and the `all` binary; exposed for integration tests).
/// Collects the deduplicated grid once and assembles from shared results;
/// callers that want both renderings should collect [`full_results`]
/// themselves and render twice.
pub fn full_report(runner: &Runner, cfg: &ExperimentConfig) -> String {
    full_results(runner, cfg).report_text(cfg)
}

/// The consolidated report as one JSON artifact (see
/// [`PlanResults::report_json`]).
pub fn full_report_json(runner: &Runner, cfg: &ExperimentConfig) -> Json {
    full_results(runner, cfg).report_json(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            commits: 40_000,
            profile_steps: 60_000,
            only: vec!["gzip".into()],
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn fig5_produces_rates_for_selected_benchmarks() {
        let runner = Runner::serial_no_cache();
        let r = fig5(&runner, &tiny_cfg(), false);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].name, "gzip");
        assert_eq!(r.schemes.len(), 2);
        for s in &r.rows[0].runs {
            assert!(s.cond_branches > 100, "enough branches to measure");
            let rate = s.misprediction_rate();
            assert!((0.0..=1.0).contains(&rate));
        }
        let t = r.table().to_string();
        assert!(t.contains("gzip") && t.contains("average"), "{t}");
        // The JSON rendering carries the same rates and parses back.
        let j = r.to_json().to_string();
        let parsed = Json::parse(&j).unwrap();
        assert_eq!(parsed.get("schemes").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn fig6a_runs_every_grid_scheme() {
        let runner = Runner::serial_no_cache();
        let r = fig6a(&runner, &tiny_cfg());
        assert_eq!(r.rows[0].runs.len(), FIG6A_SCHEMES.len());
        let t = r.table().to_string();
        for label in ["pep-pa", "tage", "tage-h2p", "tage-predicate"] {
            assert!(t.contains(label), "missing {label} in:\n{t}");
        }
        // Positional references derive from the scheme, not a literal.
        assert_eq!(fig6a_col(SchemeSpec::PepPa), 0);
        assert_eq!(
            r.schemes[fig6a_col(SchemeSpec::TageH2p)],
            SchemeSpec::TageH2p.name()
        );
        // The modern-metrics companions render from the same runs.
        let m = r.mpki_table().to_string();
        assert!(m.contains("MPKI") && m.contains("gzip"), "{m}");
        let h = r.h2p_table(fig6a_col(SchemeSpec::Predicate), 5).to_string();
        assert!(h.contains("H2P") && h.contains("slot "), "{h}");
        let j = r.to_json().to_string();
        assert!(j.contains("\"mpki\""), "{j}");
    }

    #[test]
    fn stall_table_covers_every_bucket() {
        use ppsim_pipeline::StallBucket;
        let runner = Runner::serial_no_cache();
        let r = fig5(&runner, &tiny_cfg(), false);
        let t = r.stall_table(0).to_string();
        for b in StallBucket::ALL {
            assert!(t.contains(b.name()), "missing {} in:\n{t}", b.name());
        }
        // The pipeline invariant carries through: shares sum to ~100%.
        let s = &r.rows[0].runs[0];
        assert_eq!(s.stall.total(), s.cycles);
    }

    #[test]
    fn fig6b_breakdown_sums() {
        let runner = Runner::serial_no_cache();
        let r = fig6b(&runner, &tiny_cfg());
        let row = &r.rows[0];
        assert!((row.early + row.correlation - row.total).abs() < 1e-9);
    }

    #[test]
    fn ipc_ablation_produces_positive_ipcs() {
        let runner = Runner::serial_no_cache();
        let r = ipc_ablation(&runner, &tiny_cfg());
        let row = &r.rows[0];
        assert!(row.ipc_cmov > 0.1);
        assert!(row.ipc_selective > 0.1);
        assert!(r.geomean_speedup() > 0.5);
    }

    #[test]
    fn sampled_grid_reports_windows_and_aggregates() {
        use ppsim_pipeline::SampleSpec;
        let runner = Runner::serial_no_cache();
        let spec = SampleSpec {
            skip: 5_000,
            warmup: 2_000,
            measure: 8_000,
            stride: 12_000,
            count: 2,
        };
        let cfg = ExperimentConfig {
            sample: Some(spec),
            ..tiny_cfg()
        };
        let r = fig5(&runner, &cfg, false);
        let row = &r.rows[0];
        assert_eq!(row.samples.len(), 2, "one window column per scheme");
        for (agg, col) in row.runs.iter().zip(&row.samples) {
            assert_eq!(col.len(), 2, "one entry per window");
            assert_eq!(agg.committed, col.iter().map(|s| s.committed).sum::<u64>());
            assert_eq!(
                agg.mispredicts,
                col.iter().map(|s| s.mispredicts).sum::<u64>()
            );
        }
        let t = r
            .sample_table()
            .expect("sampled run renders a window table");
        let t = t.to_string();
        assert!(t.contains("w0") && t.contains("w1"), "{t}");
        let j = r.to_json().to_string();
        assert!(j.contains("sample_rates"), "{j}");
        // Full runs carry no per-window section.
        let full = fig5(&runner, &tiny_cfg(), false);
        assert!(full.sample_table().is_none());
        assert!(!full.to_json().to_string().contains("sample_rates"));
    }

    #[test]
    fn comparison_math() {
        use ppsim_pipeline::SimStats;
        let mk = |m: u64| SimStats {
            cond_branches: 100,
            mispredicts: m,
            ..SimStats::default()
        };
        let c = Comparison {
            title: "t".into(),
            schemes: vec!["a".into(), "b".into()],
            rows: vec![
                BenchRow {
                    name: "x",
                    class: WorkloadClass::Int,
                    runs: vec![mk(10), mk(5)],
                    samples: Vec::new(),
                },
                BenchRow {
                    name: "y",
                    class: WorkloadClass::Fp,
                    runs: vec![mk(20), mk(15)],
                    samples: Vec::new(),
                },
            ],
        };
        assert!((c.average_rate(0) - 0.15).abs() < 1e-12);
        assert!((c.average_rate(1) - 0.10).abs() < 1e-12);
        assert!(
            (c.accuracy_gain(0, 1) - 5.0).abs() < 1e-9,
            "{}",
            c.accuracy_gain(0, 1)
        );
        let t = c.table().to_string();
        assert!(
            t.contains("x") && t.contains("15.00") && t.contains("average"),
            "{t}"
        );
    }

    #[test]
    fn breakdown_and_ipc_math() {
        let b = Breakdown {
            rows: vec![
                BreakdownRow {
                    name: "x",
                    total: 2.0,
                    early: 0.5,
                    correlation: 1.5,
                },
                BreakdownRow {
                    name: "y",
                    total: 1.0,
                    early: 1.0,
                    correlation: 0.0,
                },
            ],
        };
        assert!((b.average_early() - 0.75).abs() < 1e-12);
        assert!((b.average_correlation() - 0.75).abs() < 1e-12);
        let ipc = IpcAblation {
            rows: vec![
                IpcRow {
                    name: "x",
                    ipc_cmov: 2.0,
                    ipc_selective: 2.2,
                },
                IpcRow {
                    name: "y",
                    ipc_cmov: 1.0,
                    ipc_selective: 1.0,
                },
            ],
        };
        let g = ipc.geomean_speedup();
        assert!((g - (1.1f64).sqrt()).abs() < 1e-9, "{g}");
        assert!(ipc.table().to_string().contains("geomean"));
    }

    #[test]
    fn table1_mentions_all_structures() {
        let t = table1(&ExperimentConfig::default());
        for s in [
            "Reorder buffer",
            "256",
            "120 cycles",
            "perceptron",
            "PEP-PA",
        ] {
            assert!(t.contains(s), "missing {s} in:\n{t}");
        }
    }
}
