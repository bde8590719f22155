//! Quickstart: assemble a small predicated program, run it functionally,
//! then simulate it on the Table-1 machine under the paper's predicate
//! prediction scheme.
//!
//! Run with: `cargo run --release --example quickstart`

use ppsim::isa::{Asm, CmpRel, CmpType, DataSegment, Gr, Machine, Operand, Pr};
use ppsim::pipeline::{CoreConfig, PredicationModel, SchemeSpec, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A loop summing the positive elements of an array, written in the
    // compare-and-branch style of the target ISA.
    let data: Vec<i64> = (0..256).map(|i| (i * 37 % 101) - 50).collect();
    let (base, n) = (0x1_0000u64, data.len() as i64);

    let mut a = Asm::new();
    a.data(DataSegment::from_words(base, &data));
    a.init_gr(Gr::new(2), base as i64);
    let (top, skip) = (a.new_label(), a.new_label());
    a.movi(Gr::new(1), 0); // i
    a.movi(Gr::new(10), 0); // sum
    a.bind(top);
    a.alu(
        ppsim::isa::AluKind::Shl,
        Gr::new(3),
        Gr::new(1),
        Operand::imm(3),
    );
    a.add(Gr::new(4), Gr::new(2), Gr::new(3));
    a.ld(Gr::new(5), Gr::new(4), 0);
    // p1 = element > 0, p2 = !p1 — a compare produces two predicates.
    a.cmp(
        CmpType::Unc,
        CmpRel::Gt,
        Pr::new(1),
        Pr::new(2),
        Gr::new(5),
        Operand::imm(0),
    );
    a.pred(Pr::new(2)).br(skip); // skip the add when not positive
    a.add(Gr::new(10), Gr::new(10), Gr::new(5));
    a.bind(skip);
    a.addi(Gr::new(1), Gr::new(1), 1);
    a.cmp(
        CmpType::Unc,
        CmpRel::Lt,
        Pr::new(3),
        Pr::new(4),
        Gr::new(1),
        Operand::imm(n),
    );
    a.pred(Pr::new(3)).br(top);
    a.halt();
    let program = a.assemble()?;

    // 1. Functional execution: the architectural answer.
    let mut m = Machine::new(&program);
    m.run(1_000_000)?;
    let expected: i64 = data.iter().filter(|&&x| x > 0).sum();
    println!(
        "functional result: sum = {} (expected {})",
        m.gr(Gr::new(10)),
        expected
    );
    assert_eq!(m.gr(Gr::new(10)), expected);

    // 2. Timing simulation with the paper's predicate predictor.
    let mut sim = Simulator::new(
        &program,
        SchemeSpec::Predicate,
        PredicationModel::Selective,
        CoreConfig::paper(),
    );
    let r = sim.run(1_000_000);
    let s = &r.stats;
    println!(
        "simulated: {} instructions in {} cycles (IPC {:.2})",
        s.committed,
        s.cycles,
        s.ipc()
    );
    println!(
        "branches: {} conditional, {:.2}% mispredicted, {:.1}% early-resolved",
        s.cond_branches,
        s.misprediction_rate() * 100.0,
        s.early_resolved_rate() * 100.0
    );
    println!(
        "memory: {} L1D accesses ({:.1}% misses)",
        s.mem.l1d.accesses,
        s.mem.l1d.miss_ratio() * 100.0
    );
    Ok(())
}
