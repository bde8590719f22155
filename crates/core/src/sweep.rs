//! Sensitivity sweeps: the ablation studies behind the paper's design
//! choices.
//!
//! The paper fixes one operating point (148 KB perceptron, 30+10-bit
//! history, profile-guided if-conversion). These sweeps vary one axis at a
//! time so the *reasons* for that operating point are reproducible:
//!
//! * [`size_sweep`] — accuracy vs predictor storage budget (both the
//!   conventional and the predicate predictor), the classic
//!   accuracy-per-kilobyte curve,
//! * [`history_sweep`] — accuracy vs global-history length,
//! * [`threshold_sweep`] — how the if-conversion aggressiveness threshold
//!   moves branch population and final accuracy.
//!
//! All sweeps execute through the [`Runner`], each as one grid over all
//! its points: points share compiled binaries and captured streams (a
//! stream is captured once per sweep, not once per point), and results
//! land in the on-disk result cache.

use ppsim_pipeline::{PredicationModel, SchemeSpec};
use ppsim_predictors::{PerceptronConfig, PredicateConfig};
use ppsim_runner::{Job, JobResult, Json, Runner};

use crate::report::{pct, Table};
use crate::ExperimentConfig;

/// One point of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Axis label (e.g. "37 KB" or "16 bits").
    pub label: String,
    /// Average misprediction rate of the conventional predictor.
    pub conventional: f64,
    /// Average misprediction rate of the predicate predictor.
    pub predicate: f64,
}

/// A completed sweep.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Sweep title.
    pub title: String,
    /// Axis name.
    pub axis: String,
    /// The measured points.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            self.title.clone(),
            &[self.axis.as_str(), "conventional misp%", "predicate misp%"],
        );
        for p in &self.points {
            t.row(vec![p.label.clone(), pct(p.conventional), pct(p.predicate)]);
        }
        t
    }

    /// Renders the sweep as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("title", self.title.as_str())
            .field("axis", self.axis.as_str())
            .field(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .field("label", p.label.as_str())
                                .field("conventional", p.conventional)
                                .field("predicate", p.predicate)
                        })
                        .collect(),
                ),
            )
    }
}

/// The selected benchmark names, in suite order.
fn names(cfg: &ExperimentConfig) -> Vec<&'static str> {
    ppsim_compiler::spec2000_suite()
        .iter()
        .filter(|s| cfg.selected(s.name))
        .map(|s| s.name)
        .collect()
}

/// Runs a sweep as one grid over all its points, honouring `cfg.sample`
/// (a sampled configuration folds each job's measured windows into one
/// counter-summed aggregate, `SampledResult::aggregate`, so every sweep
/// sees the same result shape on both paths), and returns each point's
/// results in point order. One grid, not one per point, lets every point
/// replay a stream while its capture is live.
fn run_points(runner: &Runner, cfg: &ExperimentConfig, points: &[Vec<Job>]) -> Vec<Vec<JobResult>> {
    let jobs = points.concat();
    let results = match cfg.sample {
        Some(spec) => runner
            .run_grid_sampled(&jobs, spec)
            .into_iter()
            .map(|s| s.aggregate)
            .collect(),
        None => runner.run_grid(&jobs),
    };
    let mut results = results.into_iter();
    points
        .iter()
        .map(|p| results.by_ref().take(p.len()).collect())
        .collect()
}

fn base_job(cfg: &ExperimentConfig, bench: &str, ifconv: bool, scheme: SchemeSpec) -> Job {
    Job::new(
        bench,
        ifconv,
        scheme,
        PredicationModel::Cmov,
        cfg.commits,
        cfg.profile_steps,
        cfg.core,
    )
}

/// One point's jobs: the conventional and the predicate scheme on every
/// selected benchmark, each base job adjusted by `job`.
fn pair_jobs(cfg: &ExperimentConfig, ifconv: bool, job: impl Fn(Job) -> Job) -> Vec<Job> {
    names(cfg)
        .iter()
        .flat_map(|&name| {
            [SchemeSpec::Conventional, SchemeSpec::Predicate]
                .map(|scheme| job(base_job(cfg, name, ifconv, scheme)))
        })
        .collect()
}

/// The (conventional, predicate) misprediction rates of one point's
/// [`pair_jobs`] results, each averaged over the benchmarks.
fn pair_rates(results: &[JobResult]) -> (f64, f64) {
    let n = (results.len() / 2).max(1) as f64;
    let conv_sum: f64 = results
        .iter()
        .step_by(2)
        .map(|r| r.stats.misprediction_rate())
        .sum();
    let pred_sum: f64 = results
        .iter()
        .skip(1)
        .step_by(2)
        .map(|r| r.stats.misprediction_rate())
        .sum();
    (conv_sum / n, pred_sum / n)
}

/// Measures labelled perceptron geometries as one grid: each point runs
/// both schemes, the predicate predictor with the point's geometry and
/// 3-bit confidence.
fn perceptron_points(
    runner: &Runner,
    cfg: &ExperimentConfig,
    ifconv: bool,
    geometries: &[(String, PerceptronConfig)],
) -> Vec<SweepPoint> {
    let jobs: Vec<Vec<Job>> = geometries
        .iter()
        .map(|&(_, perceptron)| {
            pair_jobs(cfg, ifconv, |job| match job.scheme {
                SchemeSpec::Conventional => Job {
                    perceptron: Some(perceptron),
                    ..job
                },
                _ => Job {
                    predicate: Some(PredicateConfig {
                        perceptron,
                        conf_bits: 3,
                    }),
                    ..job
                },
            })
        })
        .collect();
    geometries
        .iter()
        .zip(run_points(runner, cfg, &jobs))
        .map(|((label, _), results)| {
            let (conventional, predicate) = pair_rates(&results);
            SweepPoint {
                label: label.clone(),
                conventional,
                predicate,
            }
        })
        .collect()
}

/// Accuracy vs predictor storage budget (row count scaled; geometry
/// fixed at the paper's 30+10-bit histories).
pub fn size_sweep(runner: &Runner, cfg: &ExperimentConfig, ifconv: bool) -> Sweep {
    let geometries: Vec<(String, PerceptronConfig)> = [462usize, 924, 1848, 3696, 7392]
        .iter()
        .map(|&rows| {
            let perceptron = PerceptronConfig {
                rows,
                ..PerceptronConfig::paper_148kb()
            };
            let kb = perceptron.table_bytes() as f64 / 1024.0;
            (format!("{kb:.0} KB"), perceptron)
        })
        .collect();
    Sweep {
        title: format!(
            "Accuracy vs predictor budget ({} binaries)",
            if ifconv { "if-converted" } else { "plain" }
        ),
        axis: "budget".to_string(),
        points: perceptron_points(runner, cfg, ifconv, &geometries),
    }
}

/// Accuracy vs global-history length (rows rebalanced to keep the budget
/// roughly constant).
pub fn history_sweep(runner: &Runner, cfg: &ExperimentConfig, ifconv: bool) -> Sweep {
    let base = PerceptronConfig::paper_148kb();
    let budget = base.table_bytes();
    let geometries: Vec<(String, PerceptronConfig)> = [8u32, 16, 24, 30, 40]
        .iter()
        .map(|&ghr_bits| {
            let mut perceptron = PerceptronConfig { ghr_bits, ..base };
            perceptron.rows = budget / perceptron.weights_per_row();
            (format!("{ghr_bits} bits"), perceptron)
        })
        .collect();
    Sweep {
        title: format!(
            "Accuracy vs global-history length at fixed budget ({} binaries)",
            if ifconv { "if-converted" } else { "plain" }
        ),
        axis: "GHR".to_string(),
        points: perceptron_points(runner, cfg, ifconv, &geometries),
    }
}

/// One point of the if-conversion-threshold sweep.
#[derive(Clone, Debug)]
pub struct ThresholdPoint {
    /// The profile-misprediction threshold used.
    pub threshold: f64,
    /// Static conditional branches remaining after conversion (averaged).
    pub branches_left: f64,
    /// Conventional-predictor misprediction rate.
    pub conventional: f64,
    /// Predicate-predictor misprediction rate.
    pub predicate: f64,
}

/// Sweeps the if-conversion aggressiveness threshold. The per-binary
/// static branch counts come back with each job result (they are cached
/// alongside the statistics, so warm-cache sweeps recompile nothing).
pub fn threshold_sweep(runner: &Runner, cfg: &ExperimentConfig) -> Vec<ThresholdPoint> {
    let thresholds = [0.02f64, 0.08, 0.15, 0.30, 0.60];
    let jobs: Vec<Vec<Job>> = thresholds
        .iter()
        .map(|&threshold| {
            pair_jobs(cfg, true, |job| Job {
                ifconv_threshold: Some(threshold),
                ..job
            })
        })
        .collect();
    thresholds
        .iter()
        .zip(run_points(runner, cfg, &jobs))
        .map(|(&threshold, results)| {
            let n = (results.len() / 2).max(1) as f64;
            // Both schemes share a binary; count statics once per benchmark.
            let branches: u64 = results
                .iter()
                .step_by(2)
                .map(|r| r.static_cond_branches)
                .sum();
            let (conventional, predicate) = pair_rates(&results);
            ThresholdPoint {
                threshold,
                branches_left: branches as f64 / n,
                conventional,
                predicate,
            }
        })
        .collect()
}

/// Renders the threshold sweep.
pub fn threshold_table(points: &[ThresholdPoint]) -> Table {
    let mut t = Table::new(
        "If-conversion aggressiveness sweep",
        &[
            "threshold",
            "static cond branches",
            "conventional misp%",
            "predicate misp%",
        ],
    );
    for p in points {
        t.row(vec![
            format!("{:.2}", p.threshold),
            format!("{:.1}", p.branches_left),
            pct(p.conventional),
            pct(p.predicate),
        ]);
    }
    t
}

/// Renders the threshold sweep as a JSON array.
pub fn threshold_json(points: &[ThresholdPoint]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::obj()
                    .field("threshold", p.threshold)
                    .field("branches_left", p.branches_left)
                    .field("conventional", p.conventional)
                    .field("predicate", p.predicate)
            })
            .collect(),
    )
}

/// Measures the value of §3.3's history repair: the predicate predictor
/// with and without writeback-time bit correction, on if-converted
/// binaries (where correlation through compare history is the main
/// effect).
pub fn repair_ablation(runner: &Runner, cfg: &ExperimentConfig) -> Sweep {
    let variants = [("with repair", true), ("no repair", false)];
    let jobs: Vec<Vec<Job>> = variants
        .iter()
        .map(|&(_, repair)| {
            let mut core = cfg.core;
            core.history_repair = repair;
            pair_jobs(cfg, true, |job| Job { core, ..job })
        })
        .collect();
    let points = variants
        .iter()
        .zip(run_points(runner, cfg, &jobs))
        .map(|(&(label, _), results)| {
            let (conventional, predicate) = pair_rates(&results);
            SweepPoint {
                label: label.to_string(),
                conventional,
                predicate,
            }
        })
        .collect();
    Sweep {
        title: "History-repair ablation (if-converted binaries)".to_string(),
        axis: "repair".to_string(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            commits: 25_000,
            profile_steps: 50_000,
            only: vec!["gzip".into()],
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn size_sweep_produces_monotone_labels() {
        let runner = Runner::serial_no_cache();
        let s = size_sweep(&runner, &tiny(), false);
        assert_eq!(s.points.len(), 5);
        for p in &s.points {
            assert!((0.0..=1.0).contains(&p.conventional));
            assert!((0.0..=1.0).contains(&p.predicate));
        }
        let t = s.table().to_string();
        assert!(t.contains("KB"), "{t}");
        let j = s.to_json().to_string();
        assert_eq!(
            Json::parse(&j)
                .unwrap()
                .get("points")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            5
        );
    }

    #[test]
    fn sampled_sweep_aggregates_windows() {
        use ppsim_pipeline::SampleSpec;
        let runner = Runner::serial_no_cache();
        let cfg = ExperimentConfig {
            sample: Some(SampleSpec {
                skip: 2_000,
                warmup: 1_000,
                measure: 4_000,
                stride: 10_000,
                count: 2,
            }),
            ..tiny()
        };
        let s = repair_ablation(&runner, &cfg);
        assert_eq!(s.points.len(), 2);
        for p in &s.points {
            assert!((0.0..=1.0).contains(&p.conventional), "{p:?}");
            assert!((0.0..=1.0).contains(&p.predicate), "{p:?}");
        }
        // The sampled estimate tracks the full run loosely even on this
        // tiny budget — same sign of the repair effect.
        let full = repair_ablation(&runner, &tiny());
        assert_eq!(
            s.points[1].predicate > s.points[0].predicate,
            full.points[1].predicate > full.points[0].predicate,
            "sampled repair ablation flips the conclusion: sampled {:?} vs full {:?}",
            s.points,
            full.points
        );
    }

    #[test]
    fn each_sweep_captures_each_stream_once() {
        let cfg = ExperimentConfig {
            commits: 4_000,
            profile_steps: 20_000,
            only: vec!["gzip".into(), "twolf".into()],
            ..ExperimentConfig::default()
        };
        // Captures one sweep makes on a fresh runner, which must hold none
        // of them once the sweep returns.
        let captures = |name: &str, sweep: &dyn Fn(&Runner)| {
            let runner = Runner::new(ppsim_runner::RunnerOptions {
                jobs: 2,
                cache: false,
                ..ppsim_runner::RunnerOptions::default()
            });
            sweep(&runner);
            assert_eq!(runner.live_streams(), 0, "{name} holds no capture after");
            runner.telemetry().captures
        };
        // Two programs, one binary each — five per program for the
        // threshold sweep, which compiles one binary per threshold.
        assert_eq!(captures("size", &|r| drop(size_sweep(r, &cfg, false))), 2);
        assert_eq!(
            captures("history", &|r| drop(history_sweep(r, &cfg, true))),
            2
        );
        assert_eq!(captures("repair", &|r| drop(repair_ablation(r, &cfg))), 2);
        assert_eq!(
            captures("threshold", &|r| drop(threshold_sweep(r, &cfg))),
            10
        );
    }

    #[test]
    fn history_sweep_keeps_budget() {
        let base = PerceptronConfig::paper_148kb();
        for ghr_bits in [8u32, 40] {
            let mut p = PerceptronConfig { ghr_bits, ..base };
            p.rows = base.table_bytes() / p.weights_per_row();
            let kb = p.table_bytes() as f64 / 1024.0;
            assert!((140.0..149.0).contains(&kb), "{ghr_bits} bits → {kb} KB");
        }
    }

    #[test]
    fn repair_ablation_shows_corruption_cost() {
        let runner = Runner::serial_no_cache();
        let cfg = ExperimentConfig {
            commits: 60_000,
            profile_steps: 60_000,
            only: vec!["gcc".into()],
            ..ExperimentConfig::default()
        };
        let s = repair_ablation(&runner, &cfg);
        assert_eq!(s.points.len(), 2);
        let with = s.points[0].predicate;
        let without = s.points[1].predicate;
        assert!(
            without > with,
            "permanent corruption must hurt the predicate predictor: {with} vs {without}"
        );
        // The conventional predictor never repairs compare history, so it
        // is unaffected.
        assert!((s.points[0].conventional - s.points[1].conventional).abs() < 1e-9);
    }

    #[test]
    fn threshold_sweep_trades_branches_for_conversion() {
        let runner = Runner::serial_no_cache();
        let points = threshold_sweep(&runner, &tiny());
        assert_eq!(points.len(), 5);
        // A more aggressive threshold (lower) leaves at most as many
        // branches as a conservative one.
        assert!(points.first().unwrap().branches_left <= points.last().unwrap().branches_left);
        let t = threshold_table(&points).to_string();
        assert!(t.contains("threshold"), "{t}");
    }
}
