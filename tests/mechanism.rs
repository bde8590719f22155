//! Mechanism tests for the paper's Figures 1–4: the producer → PPRF →
//! consumer prediction lifecycle, built end-to-end from hand-written
//! assembly through the full simulator.

use ppsim::isa::{Asm, CmpRel, CmpType, DataSegment, Gr, Operand, Pr};
use ppsim::pipeline::{CoreConfig, PredicationModel, SchemeSpec, Simulator};

fn g(i: u8) -> Gr {
    Gr::new(i)
}
fn p(i: u8) -> Pr {
    Pr::new(i)
}

/// Pseudo-random i64 words (xorshift-mixed), too long to memorize.
fn noise(n: usize, seed: u64) -> Vec<i64> {
    (0..n as u64)
        .map(|i| {
            let mut x = (i + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (x >> 3) as i64 & 0x7fff_ffff
        })
        .collect()
}

/// A loop with a data-dependent branch, `gap` independent ops between the
/// compare and the branch.
fn compare_branch_program(iters: i64, gap: usize) -> ppsim::isa::Program {
    let mut a = Asm::new();
    a.data(DataSegment::from_words(0x10000, &noise(1024, 77)));
    a.init_gr(g(2), 0x10000);
    let top = a.new_label();
    a.movi(g(1), 0);
    a.bind(top);
    a.alu(ppsim::isa::AluKind::And, g(3), g(1), Operand::imm(1023));
    a.alu(ppsim::isa::AluKind::Shl, g(3), g(3), Operand::imm(3));
    a.add(g(4), g(2), g(3));
    a.ld(g(5), g(4), 0);
    a.alu(ppsim::isa::AluKind::And, g(5), g(5), Operand::imm(1));
    a.cmp(CmpType::Unc, CmpRel::Ne, p(1), p(2), g(5), Operand::imm(0));
    for k in 0..gap {
        let dst = g(90 + (k % 4) as u8);
        a.addi(dst, dst, 1);
    }
    let skip = a.new_label();
    a.pred(p(2)).br(skip);
    a.addi(g(11), g(11), 1);
    a.bind(skip);
    a.addi(g(1), g(1), 1);
    a.cmp(
        CmpType::Unc,
        CmpRel::Lt,
        p(3),
        p(4),
        g(1),
        Operand::imm(iters),
    );
    a.pred(p(3)).br(top);
    a.halt();
    a.assemble().unwrap()
}

/// Figure 2: the prediction is generated by the compare and consumed by
/// the branch — visible as predicate predictions being made and used.
#[test]
fn fig2_producer_consumer_lifecycle() {
    let prog = compare_branch_program(2000, 0);
    let mut sim = Simulator::new(
        &prog,
        SchemeSpec::Predicate,
        PredicationModel::Cmov,
        CoreConfig::paper(),
    );
    let r = sim.run(1_000_000);
    assert!(r.halted);
    let s = &r.stats;
    assert!(
        s.predicate_predictions > 3000,
        "compares generate predictions"
    );
    assert!(s.cond_branches >= 4000, "two branches per iteration");
    // With the compare adjacent to the branch, the branch consumes the
    // *prediction* (speculative bit set), not the computed value.
    assert!(
        s.early_resolved < s.cond_branches / 4,
        "adjacent compare/branch mostly speculates: {} of {}",
        s.early_resolved,
        s.cond_branches
    );
}

/// §3.1: "should the compare be scheduled enough in advance of the branch
/// (an early-resolved branch), the branch will use the computed value as a
/// prediction, thus effectively being 100% accurate."
#[test]
fn early_resolved_branches_are_perfect() {
    let near = {
        let mut sim = Simulator::new(
            &compare_branch_program(2000, 0),
            SchemeSpec::Predicate,
            PredicationModel::Cmov,
            CoreConfig::paper(),
        );
        sim.run(2_000_000).stats
    };
    let far = {
        let mut sim = Simulator::new(
            &compare_branch_program(2000, 120),
            SchemeSpec::Predicate,
            PredicationModel::Cmov,
            CoreConfig::paper(),
        );
        sim.run(2_000_000).stats
    };
    assert!(
        far.early_resolved_rate() > near.early_resolved_rate() + 0.3,
        "scheduling distance creates early resolution: near {} far {}",
        near.early_resolved_rate(),
        far.early_resolved_rate()
    );
    assert!(
        far.misprediction_rate() < near.misprediction_rate(),
        "early resolution removes mispredictions: near {} far {}",
        near.misprediction_rate(),
        far.misprediction_rate()
    );
    // No mispredict can come from an early-resolved branch.
    assert!(far.mispredicts <= far.cond_branches - far.early_resolved);
}

/// Figure 3: the selective predictor's confidence/speculative bits and
/// ROB-pointer flush, exercised through guarded instructions.
#[test]
fn fig3_selective_cancellation_and_flush() {
    // p1 is true once every 512 iterations; the guarded work should be
    // confidently cancelled almost always, with a flush at each surprise.
    let mut a = Asm::new();
    let top = a.new_label();
    a.movi(g(1), 0);
    a.bind(top);
    a.alu(ppsim::isa::AluKind::And, g(5), g(1), Operand::imm(511));
    a.cmp(
        CmpType::Unc,
        CmpRel::Eq,
        p(1),
        p(2),
        g(5),
        Operand::imm(511),
    );
    a.pred(p(1)).addi(g(11), g(11), 1);
    a.pred(p(1)).addi(g(12), g(12), 1);
    a.pred(p(1)).addi(g(13), g(13), 1);
    a.addi(g(1), g(1), 1);
    a.cmp(
        CmpType::Unc,
        CmpRel::Lt,
        p(3),
        p(4),
        g(1),
        Operand::imm(4096),
    );
    a.pred(p(3)).br(top);
    a.halt();
    let prog = a.assemble().unwrap();

    let mut sim = Simulator::new(
        &prog,
        SchemeSpec::Predicate,
        PredicationModel::Selective,
        CoreConfig::paper(),
    );
    let r = sim.run(2_000_000);
    assert!(r.halted);
    let s = &r.stats;
    assert!(
        s.cancelled_at_rename > 5000,
        "guarded work cancels: {}",
        s.cancelled_at_rename
    );
    assert!(s.predication_flushes >= 1, "the rare true guard flushes");
    assert!(
        s.predication_flushes <= 16,
        "only ~8 surprises exist: {}",
        s.predication_flushes
    );

    // Same program under cmov: no cancellation machinery engages.
    let mut sim = Simulator::new(
        &prog,
        SchemeSpec::Predicate,
        PredicationModel::Cmov,
        CoreConfig::paper(),
    );
    let rc = sim.run(2_000_000);
    assert_eq!(rc.stats.cancelled_at_rename, 0);
    assert_eq!(rc.stats.predication_flushes, 0);
    assert_eq!(
        rc.stats.nullified, r.stats.nullified,
        "same architectural nullification"
    );
}

/// Figure 4 / §3.3: compares that produce only one useful predicate (the
/// other target is p0) generate a single prediction.
#[test]
fn single_target_compares_make_one_prediction() {
    let mut a = Asm::new();
    let top = a.new_label();
    a.movi(g(1), 0);
    a.bind(top);
    // Only pt is a real register; pf = p0 is discarded.
    a.cmp(
        CmpType::Unc,
        CmpRel::Lt,
        p(1),
        p(0),
        g(1),
        Operand::imm(1_000_000),
    );
    a.addi(g(1), g(1), 1);
    a.cmp(
        CmpType::Unc,
        CmpRel::Lt,
        p(3),
        p(0),
        g(1),
        Operand::imm(3000),
    );
    a.pred(p(3)).br(top);
    a.halt();
    let prog = a.assemble().unwrap();
    let mut sim = Simulator::new(
        &prog,
        SchemeSpec::Predicate,
        PredicationModel::Cmov,
        CoreConfig::paper(),
    );
    let r = sim.run(1_000_000);
    assert!(r.halted);
    let s = &r.stats;
    // Two compares per iteration, each with a single target → exactly one
    // prediction per compare.
    assert_eq!(
        s.predicate_predictions, s.compares,
        "one prediction per compare"
    );
}

/// PEP-PA consumes predicate writes out of order: the scheme runs and
/// produces sane (but degraded) accuracy relative to the conventional
/// predictor on the same program — the paper's §4.3 observation.
#[test]
fn peppa_runs_and_degrades_gracefully() {
    let prog = compare_branch_program(3000, 8);
    let pep = Simulator::new(
        &prog,
        SchemeSpec::PepPa,
        PredicationModel::Cmov,
        CoreConfig::paper(),
    )
    .run(2_000_000);
    let conv = Simulator::new(
        &prog,
        SchemeSpec::Conventional,
        PredicationModel::Cmov,
        CoreConfig::paper(),
    )
    .run(2_000_000);
    assert!(pep.halted && conv.halted);
    assert!(
        pep.stats.misprediction_rate() >= conv.stats.misprediction_rate() - 0.02,
        "PEP-PA should not beat the 148KB perceptron on an OoO core: {} vs {}",
        pep.stats.misprediction_rate(),
        conv.stats.misprediction_rate()
    );
}
