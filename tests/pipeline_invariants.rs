//! Cross-crate invariants of the timing simulator, checked over random
//! workloads and every prediction scheme.
//!
//! Seeds are fixed (the workspace builds offline with no external
//! property-testing crates); each seed generates a distinct workload via
//! `test_workload`, so these still sweep different branch populations.

use ppsim::compiler::workloads::test_workload;
use ppsim::compiler::{compile, CompileOptions};
use ppsim::pipeline::{CoreConfig, PredicationModel, SchemeSpec, SimStats, Simulator};

const SCHEMES: [SchemeSpec; 5] = [
    SchemeSpec::Conventional,
    SchemeSpec::PepPa,
    SchemeSpec::Predicate,
    SchemeSpec::IdealConventional,
    SchemeSpec::IdealPredicate,
];

/// Workload seeds for the invariant sweeps (arbitrary, spread out).
const SEEDS: [u64; 6] = [3, 77, 1234, 4242, 8191, 9973];

fn run(seed: u64, scheme: SchemeSpec, model: PredicationModel, commits: u64) -> (SimStats, bool) {
    let spec = test_workload(seed, i64::MAX / 4);
    let compiled = compile(&spec, &CompileOptions::with_ifconv()).unwrap();
    let mut sim = Simulator::new(&compiled.program, scheme, model, CoreConfig::paper());
    let r = sim.run(commits);
    (r.stats, r.halted)
}

fn check_invariants(s: &SimStats) {
    assert!(s.mispredicts <= s.cond_branches, "mispredicts bounded");
    assert!(
        s.early_resolved <= s.cond_branches,
        "early-resolved bounded"
    );
    assert!(s.early_resolved_saves <= s.shadow_mispredicts.max(s.cond_branches));
    assert!(s.predicate_mispredictions <= s.predicate_predictions);
    assert!(s.committed > 0 && s.cycles > 0);
    assert!(s.ipc() > 0.05 && s.ipc() <= 6.0, "ipc sane: {}", s.ipc());
    assert!(s.nullified <= s.committed);
    let rate = s.misprediction_rate();
    assert!((0.0..=1.0).contains(&rate));
}

#[test]
fn stats_invariants_hold_for_every_scheme() {
    for seed in SEEDS {
        for scheme in SCHEMES {
            let (s, halted) = run(seed, scheme, PredicationModel::Cmov, 25_000);
            assert!(!halted, "seed {seed}");
            check_invariants(&s);
        }
    }
}

#[test]
fn selective_predication_invariants() {
    for seed in SEEDS {
        let (s, _) = run(
            seed,
            SchemeSpec::Predicate,
            PredicationModel::Selective,
            25_000,
        );
        check_invariants(&s);
        assert!(
            s.cancelled_at_rename + s.unguarded_at_rename <= s.committed,
            "seed {seed}"
        );
        assert!(
            s.predication_flushes <= s.cancelled_at_rename + s.unguarded_at_rename,
            "seed {seed}"
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    for seed in SEEDS {
        let (a, _) = run(
            seed,
            SchemeSpec::Predicate,
            PredicationModel::Selective,
            20_000,
        );
        let (b, _) = run(
            seed,
            SchemeSpec::Predicate,
            PredicationModel::Selective,
            20_000,
        );
        assert_eq!(a.cycles, b.cycles, "seed {seed}");
        assert_eq!(a.mispredicts, b.mispredicts, "seed {seed}");
        assert_eq!(a.early_resolved, b.early_resolved, "seed {seed}");
        assert_eq!(a.mem.l1d.accesses, b.mem.l1d.accesses, "seed {seed}");
    }
}

/// Early-resolved branches never mispredict: the defining invariant of the
/// mechanism (the branch reads the computed value).
#[test]
fn early_resolution_is_always_correct() {
    for seed in [1u64, 7, 42] {
        let (s, _) = run(seed, SchemeSpec::Predicate, PredicationModel::Cmov, 60_000);
        assert!(
            s.mispredicts + s.early_resolved
                <= s.cond_branches + s.mispredicts.min(s.cond_branches - s.early_resolved),
            "mispredicts can only come from non-early-resolved branches: {s:?}"
        );
        assert!(s.mispredicts <= s.cond_branches - s.early_resolved);
    }
}

/// The ideal schemes (no aliasing, perfect history) are at least as good
/// as their realistic counterparts, modulo sampling noise.
#[test]
fn ideal_variants_do_not_lose() {
    let (real, _) = run(5, SchemeSpec::Conventional, PredicationModel::Cmov, 120_000);
    let (ideal, _) = run(
        5,
        SchemeSpec::IdealConventional,
        PredicationModel::Cmov,
        120_000,
    );
    assert!(
        ideal.misprediction_rate() <= real.misprediction_rate() + 0.02,
        "ideal {} vs real {}",
        ideal.misprediction_rate(),
        real.misprediction_rate()
    );
    let (real_p, _) = run(5, SchemeSpec::Predicate, PredicationModel::Cmov, 120_000);
    let (ideal_p, _) = run(
        5,
        SchemeSpec::IdealPredicate,
        PredicationModel::Cmov,
        120_000,
    );
    assert!(
        ideal_p.misprediction_rate() <= real_p.misprediction_rate() + 0.02,
        "ideal {} vs real {}",
        ideal_p.misprediction_rate(),
        real_p.misprediction_rate()
    );
}

/// Narrower machines are slower; the memory system sees traffic.
#[test]
fn machine_width_and_memory_sanity() {
    let spec = test_workload(3, i64::MAX / 4);
    let compiled = compile(&spec, &CompileOptions::no_ifconv()).unwrap();
    let big = Simulator::new(
        &compiled.program,
        SchemeSpec::Conventional,
        PredicationModel::Cmov,
        CoreConfig::paper(),
    )
    .run(40_000);
    let small = Simulator::new(
        &compiled.program,
        SchemeSpec::Conventional,
        PredicationModel::Cmov,
        CoreConfig::tiny(),
    )
    .run(40_000);
    assert!(small.stats.cycles > big.stats.cycles);
    assert!(big.stats.mem.l1d.accesses > 1000);
    assert!(big.stats.mem.l1i.accesses > 1000);
}
