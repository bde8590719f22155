//! Statistical acceptance tests: the *shape* of the paper's headline
//! results must hold on a representative subset of the suite.
//!
//! These use reduced instruction budgets (the full regeneration lives in
//! `ppsim-bench`); thresholds are deliberately loose — they pin the
//! direction and rough magnitude of each effect, not exact numbers.

use ppsim::compiler::{compile, CompileOptions};
use ppsim::core::{experiments, ExperimentConfig, Runner};
use ppsim::pipeline::{CoreConfig, PredicationModel, SchemeSpec, Simulator};

fn cfg(names: &[&str], commits: u64) -> ExperimentConfig {
    ExperimentConfig {
        commits,
        profile_steps: 100_000,
        core: CoreConfig::paper(),
        only: names.iter().map(|s| s.to_string()).collect(),
        ..ExperimentConfig::default()
    }
}

/// Figure 5's direction: on non-if-converted code the predicate predictor
/// matches or beats the same-budget conventional predictor on benchmarks
/// with early-resolvable branches.
#[test]
fn fig5_direction_holds() {
    let r = experiments::fig5(
        &Runner::serial_no_cache(),
        &cfg(&["gzip", "crafty", "mcf"], 120_000),
        false,
    );
    let conv = r.average_rate(0);
    let pred = r.average_rate(1);
    assert!(
        pred < conv,
        "predicate predictor wins on early-resolve-rich benchmarks: {pred} vs {conv}"
    );
}

/// Figure 6a's direction: on if-converted code the predicate predictor
/// beats the conventional predictor (correlation recovery), and PEP-PA is
/// the worst of the three.
#[test]
fn fig6a_ordering_holds() {
    let r = experiments::fig6a(
        &Runner::serial_no_cache(),
        &cfg(&["gcc", "crafty", "vpr"], 120_000),
    );
    let pep = r.average_rate(0);
    let conv = r.average_rate(1);
    let pred = r.average_rate(2);
    assert!(pred < conv, "correlation recovery: {pred} vs {conv}");
    assert!(conv < pep, "PEP-PA degrades out of order: {conv} vs {pep}");
}

/// Figure 6b: the breakdown attributes a positive gain to correlation on
/// correlation-rich benchmarks, and early + correlation = total exactly.
#[test]
fn fig6b_breakdown_attributes_correlation() {
    let r = experiments::fig6b(
        &Runner::serial_no_cache(),
        &cfg(&["gcc", "crafty"], 120_000),
    );
    for row in &r.rows {
        assert!((row.early + row.correlation - row.total).abs() < 1e-9);
    }
    assert!(
        r.average_correlation() > 0.5,
        "correlation contribution dominates on gcc/crafty: {}",
        r.average_correlation()
    );
}

/// The early-resolved component exists on benchmarks whose hard branches
/// survive if-conversion (HardRegion kernels).
#[test]
fn fig6b_early_component_exists() {
    let r = experiments::fig6b(
        &Runner::serial_no_cache(),
        &cfg(&["mcf", "crafty", "vortex"], 150_000),
    );
    assert!(
        r.average_early() > 0.05,
        "surviving hard branches early-resolve: {}",
        r.average_early()
    );
}

/// §4.2's negative-effects bound: on a benchmark with no correlation and
/// no early resolution (twolf), the predicate predictor's loss against the
/// conventional predictor stays small (the paper: < 0.40 points average).
#[test]
fn negative_effects_are_bounded() {
    let r = experiments::fig5(&Runner::serial_no_cache(), &cfg(&["twolf"], 150_000), false);
    let conv = r.average_rate(0);
    let pred = r.average_rate(1);
    assert!(
        pred - conv < 0.012,
        "aliasing + corruption window stay bounded: predicate {pred} vs conventional {conv}"
    );
}

/// If-conversion pays on the machine level: removing hard branches
/// improves IPC despite the added predicated work (the premise of the
/// whole paper — Chang et al. [4]).
#[test]
fn ifconversion_improves_ipc_on_hard_code() {
    let spec = ppsim::compiler::spec2000_suite()
        .into_iter()
        .find(|s| s.name == "crafty")
        .unwrap();
    let plain = compile(&spec, &CompileOptions::no_ifconv()).unwrap();
    let conv = compile(&spec, &CompileOptions::with_ifconv()).unwrap();
    let run = |p| {
        Simulator::new(
            p,
            SchemeSpec::Predicate,
            PredicationModel::Selective,
            CoreConfig::paper(),
        )
        .run(150_000)
        .stats
    };
    let before = run(&plain.program);
    let after = run(&conv.program);
    assert!(
        after.ipc() > before.ipc(),
        "if-conversion removes misprediction stalls: {} -> {}",
        before.ipc(),
        after.ipc()
    );
    assert!(
        after.misprediction_rate() < before.misprediction_rate(),
        "and the remaining branches mispredict less often"
    );
}
