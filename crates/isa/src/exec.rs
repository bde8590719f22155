//! Functional (architecturally correct) emulator.
//!
//! [`Machine`] interprets a [`Program`] one instruction at a time, producing
//! an [`ExecRecord`] per dynamic instruction. The timing simulator in
//! `ppsim-pipeline` is *execution-driven*: it replays this record stream
//! through a detailed out-of-order pipeline model, so the architectural
//! semantics live here, in exactly one place.

use std::collections::HashMap;
use std::fmt;

use crate::insn::{AluKind, FpuKind, Insn, Op};
use crate::program::Program;
use crate::reg::{Fr, Gr, Pr, NUM_FR, NUM_GR, NUM_PR};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

type Page = [u8; PAGE_SIZE];

/// A sparse, page-granular byte-addressable memory.
///
/// The most-recently-written page is held in a dedicated hot slot
/// outside the page map, so the sequential access runs that dominate
/// the benchmarks skip the hash lookup entirely.
#[derive(Clone, Debug, Default)]
pub struct SparseMem {
    pages: HashMap<u64, Box<Page>>,
    /// Last-page memo: (page number, page), not present in `pages`.
    hot: Option<(u64, Box<Page>)>,
}

impl SparseMem {
    /// Creates an empty memory (all bytes read as zero).
    pub fn new() -> Self {
        SparseMem::default()
    }

    /// Number of materialized pages (for footprint diagnostics).
    pub fn page_count(&self) -> usize {
        self.pages.len() + usize::from(self.hot.is_some())
    }

    /// Shared access to page `pno`, if materialized.
    fn page(&self, pno: u64) -> Option<&Page> {
        if let Some((hot_no, page)) = &self.hot {
            if *hot_no == pno {
                return Some(page);
            }
        }
        self.pages.get(&pno).map(|p| &**p)
    }

    /// Moves page `pno` into the hot slot, materializing it only when
    /// `create` is set; a read of an absent page must stay free (all-zero,
    /// no allocation). Promotion moves the `Box`, never the page body.
    fn promote(&mut self, pno: u64, create: bool) -> Option<&Page> {
        let hot_hit = matches!(&self.hot, Some((hot_no, _)) if *hot_no == pno);
        if !hot_hit {
            let page = match self.pages.remove(&pno) {
                Some(p) => p,
                None if create => Box::new([0u8; PAGE_SIZE]),
                None => return None,
            };
            if let Some((old_no, old)) = self.hot.replace((pno, page)) {
                self.pages.insert(old_no, old);
            }
        }
        self.hot.as_ref().map(|(_, p)| &**p)
    }

    /// Mutable access to page `pno`, promoting it to the hot slot.
    fn page_mut(&mut self, pno: u64, create: bool) -> Option<&mut Page> {
        self.promote(pno, create)?;
        self.hot.as_mut().map(|(_, p)| &mut **p)
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr >> PAGE_SHIFT) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .page_mut(addr >> PAGE_SHIFT, true)
            .expect("created page");
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian `u64` (any alignment).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            match self.page(addr >> PAGE_SHIFT) {
                Some(page) => u64::from_le_bytes(page[off..off + 8].try_into().unwrap()),
                None => 0,
            }
        } else {
            // Page-straddling access: byte-by-byte across the boundary.
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Reads a little-endian `u64` and promotes its page to the hot
    /// slot, so a sequential run of loads pays one hash lookup total.
    /// Never materializes a page.
    pub fn load_u64(&mut self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            match self.promote(addr >> PAGE_SHIFT, false) {
                Some(page) => u64::from_le_bytes(page[off..off + 8].try_into().unwrap()),
                None => 0,
            }
        } else {
            self.read_u64(addr)
        }
    }

    /// Writes a little-endian `u64` (any alignment).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            let page = self
                .page_mut(addr >> PAGE_SHIFT, true)
                .expect("created page");
            page[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *b);
            }
        }
    }

    /// Copies a byte slice into memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }
}

/// Per-instruction execution facts recorded for the timing model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExecInfo {
    /// Nothing beyond the guard outcome (ALU results, nullified ops, ...).
    None,
    /// A compare resolved; `pt_write`/`pf_write` are `Some(v)` when the
    /// corresponding architectural predicate was written with `v`.
    Cmp {
        /// The raw condition value (before the compare-type discipline).
        cond: bool,
        /// Write to the first target, if any.
        pt_write: Option<bool>,
        /// Write to the second target, if any.
        pf_write: Option<bool>,
    },
    /// A branch resolved.
    Br {
        /// Whether it was taken.
        taken: bool,
        /// Its (static) target slot.
        target: u32,
    },
    /// A memory access with its effective address.
    Mem {
        /// Effective byte address.
        addr: u64,
    },
}

/// One committed dynamic instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecRecord {
    /// Dynamic sequence number (0-based, counts every executed slot,
    /// including nullified ones).
    pub seq: u64,
    /// Static slot index.
    pub slot: u32,
    /// The instruction (copied; [`Insn`] is `Copy`).
    pub insn: Insn,
    /// Value of the qualifying predicate when the instruction executed.
    pub qp: bool,
    /// Resolved execution facts.
    pub info: ExecInfo,
    /// Slot control flow proceeds to after this instruction.
    pub next_slot: u32,
}

impl ExecRecord {
    /// Whether this record is a *taken* branch.
    pub fn is_taken_branch(&self) -> bool {
        matches!(self.info, ExecInfo::Br { taken: true, .. })
    }
}

/// Emulation errors (all indicate a malformed program).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Control flow ran past the last instruction without `halt`.
    FellOffEnd {
        /// The out-of-range slot reached.
        slot: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::FellOffEnd { slot } => {
                write!(
                    f,
                    "control flow reached slot {slot}, past the end of the program"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Why [`Machine::run`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction executed.
    Halted,
    /// The step budget was exhausted first.
    BudgetExhausted,
}

/// Result of [`Machine::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Dynamic instructions executed.
    pub steps: u64,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// The functional machine: architectural registers, predicates and memory.
#[derive(Clone, Debug)]
pub struct Machine {
    insns: Vec<Insn>,
    grs: [i64; NUM_GR],
    frs: [f64; NUM_FR],
    prs: [bool; NUM_PR],
    mem: SparseMem,
    pc: u32,
    seq: u64,
    halted: bool,
}

impl Machine {
    /// Builds a machine with the program loaded: code installed, data
    /// segments copied to memory, initial register values applied, `p0`
    /// set, all other predicates false.
    pub fn new(program: &Program) -> Self {
        let mut grs = [0i64; NUM_GR];
        for (i, v) in program.gr_init.iter().enumerate().take(NUM_GR) {
            grs[i] = *v;
        }
        grs[0] = 0;
        let mut frs = [0f64; NUM_FR];
        for (i, v) in program.fr_init.iter().enumerate().take(NUM_FR) {
            frs[i] = *v;
        }
        frs[0] = 0.0;
        let mut prs = [false; NUM_PR];
        prs[0] = true;
        let mut mem = SparseMem::new();
        for seg in &program.data {
            mem.write_bytes(seg.addr, &seg.bytes);
        }
        Machine {
            insns: program.insns.clone(),
            grs,
            frs,
            prs,
            mem,
            pc: 0,
            seq: 0,
            halted: false,
        }
    }

    /// Current program counter (slot index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Dynamic instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.seq
    }

    /// Whether a `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The loaded code image, indexed by slot.
    pub fn code(&self) -> &[Insn] {
        &self.insns
    }

    /// Reads an integer register.
    pub fn gr(&self, r: Gr) -> i64 {
        self.grs[r.index()]
    }

    /// Reads a floating-point register.
    pub fn fr(&self, r: Fr) -> f64 {
        self.frs[r.index()]
    }

    /// Reads a predicate register.
    pub fn pr(&self, r: Pr) -> bool {
        self.prs[r.index()]
    }

    /// Writes an integer register (ignored for `r0`); for tests and
    /// harnesses.
    pub fn set_gr(&mut self, r: Gr, value: i64) {
        if !r.is_zero() {
            self.grs[r.index()] = value;
        }
    }

    /// Shared access to memory, for tests and harnesses.
    pub fn mem(&self) -> &SparseMem {
        &self.mem
    }

    /// Mutable access to memory, for tests and harnesses.
    pub fn mem_mut(&mut self) -> &mut SparseMem {
        &mut self.mem
    }

    fn write_gr(&mut self, r: Gr, value: i64) {
        if !r.is_zero() {
            self.grs[r.index()] = value;
        }
    }

    fn write_fr(&mut self, r: Fr, value: f64) {
        if !r.is_zero() {
            self.frs[r.index()] = value;
        }
    }

    fn write_pr(&mut self, r: Pr, value: bool) {
        if !r.is_zero() {
            self.prs[r.index()] = value;
        }
    }

    fn operand(&self, op: crate::insn::Operand) -> i64 {
        match op {
            crate::insn::Operand::Reg(r) => self.gr(r),
            crate::insn::Operand::Imm(v) => v,
        }
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(None)` once the machine has halted.
    ///
    /// # Errors
    ///
    /// [`ExecError::FellOffEnd`] if control flow leaves the program without
    /// executing `halt`.
    pub fn step(&mut self) -> Result<Option<ExecRecord>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let slot = self.pc;
        let insn = *self
            .insns
            .get(slot as usize)
            .ok_or(ExecError::FellOffEnd { slot })?;
        let qp = self.prs[insn.qp.index()];
        let mut next_slot = slot + 1;
        let mut info = ExecInfo::None;

        match insn.op {
            Op::Alu {
                kind,
                dst,
                src1,
                src2,
            } => {
                if qp {
                    let a = self.gr(src1);
                    let b = self.operand(src2);
                    let v = match kind {
                        AluKind::Add => a.wrapping_add(b),
                        AluKind::Sub => a.wrapping_sub(b),
                        AluKind::And => a & b,
                        AluKind::Or => a | b,
                        AluKind::Xor => a ^ b,
                        AluKind::Shl => a.wrapping_shl((b & 63) as u32),
                        AluKind::Shr => a.wrapping_shr((b & 63) as u32),
                        AluKind::Mul => a.wrapping_mul(b),
                    };
                    self.write_gr(dst, v);
                }
            }
            Op::Movi { dst, imm } => {
                if qp {
                    self.write_gr(dst, imm);
                }
            }
            Op::Cmp {
                ctype,
                rel,
                pt,
                pf,
                src1,
                src2,
            } => {
                let cond = rel.eval(self.gr(src1), self.operand(src2));
                let (ptw, pfw) = ctype.resolve(qp, cond);
                if let Some(v) = ptw {
                    self.write_pr(pt, v);
                }
                if let Some(v) = pfw {
                    self.write_pr(pf, v);
                }
                info = ExecInfo::Cmp {
                    cond,
                    pt_write: ptw,
                    pf_write: pfw,
                };
            }
            Op::Fcmp {
                ctype,
                rel,
                pt,
                pf,
                src1,
                src2,
            } => {
                let cond = rel.eval_f(self.fr(src1), self.fr(src2));
                let (ptw, pfw) = ctype.resolve(qp, cond);
                if let Some(v) = ptw {
                    self.write_pr(pt, v);
                }
                if let Some(v) = pfw {
                    self.write_pr(pf, v);
                }
                info = ExecInfo::Cmp {
                    cond,
                    pt_write: ptw,
                    pf_write: pfw,
                };
            }
            Op::Fpu {
                kind,
                dst,
                src1,
                src2,
            } => {
                if qp {
                    let a = self.fr(src1);
                    let b = self.fr(src2);
                    let v = match kind {
                        FpuKind::Fadd => a + b,
                        FpuKind::Fsub => a - b,
                        FpuKind::Fmul => a * b,
                        FpuKind::Fdiv => a / b,
                    };
                    self.write_fr(dst, v);
                }
            }
            Op::Itof { dst, src } => {
                if qp {
                    let v = self.gr(src) as f64;
                    self.write_fr(dst, v);
                }
            }
            Op::Ftoi { dst, src } => {
                if qp {
                    let f = self.fr(src);
                    let v = if f.is_nan() { 0 } else { f as i64 };
                    self.write_gr(dst, v);
                }
            }
            Op::Load { dst, base, offset } => {
                if qp {
                    let addr = (self.gr(base) as u64).wrapping_add(offset as u64);
                    let v = self.mem.load_u64(addr) as i64;
                    self.write_gr(dst, v);
                    info = ExecInfo::Mem { addr };
                }
            }
            Op::Store { src, base, offset } => {
                if qp {
                    let addr = (self.gr(base) as u64).wrapping_add(offset as u64);
                    self.mem.write_u64(addr, self.gr(src) as u64);
                    info = ExecInfo::Mem { addr };
                }
            }
            Op::Loadf { dst, base, offset } => {
                if qp {
                    let addr = (self.gr(base) as u64).wrapping_add(offset as u64);
                    let v = f64::from_bits(self.mem.load_u64(addr));
                    self.write_fr(dst, v);
                    info = ExecInfo::Mem { addr };
                }
            }
            Op::Storef { src, base, offset } => {
                if qp {
                    let addr = (self.gr(base) as u64).wrapping_add(offset as u64);
                    self.mem.write_u64(addr, self.fr(src).to_bits());
                    info = ExecInfo::Mem { addr };
                }
            }
            Op::Br { target } => {
                if qp {
                    next_slot = target;
                }
                info = ExecInfo::Br { taken: qp, target };
            }
            Op::Nop => {}
            Op::Halt => {
                self.halted = true;
                next_slot = slot;
            }
        }

        let record = ExecRecord {
            seq: self.seq,
            slot,
            insn,
            qp,
            info,
            next_slot,
        };
        self.seq += 1;
        self.pc = next_slot;
        Ok(Some(record))
    }

    /// Runs until `halt` or until `max_steps` instructions have executed.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from [`Machine::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<RunOutcome, ExecError> {
        let start = self.seq;
        while self.seq - start < max_steps {
            if self.step()?.is_none() {
                return Ok(RunOutcome {
                    steps: self.seq - start,
                    reason: StopReason::Halted,
                });
            }
        }
        Ok(RunOutcome {
            steps: self.seq - start,
            reason: StopReason::BudgetExhausted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::{CmpRel, CmpType, Operand};
    use crate::program::DataSegment;

    fn g(i: u8) -> Gr {
        Gr::new(i)
    }
    fn f(i: u8) -> Fr {
        Fr::new(i)
    }
    fn p(i: u8) -> Pr {
        Pr::new(i)
    }

    #[test]
    fn sparse_mem_default_zero_and_round_trip() {
        let mut m = SparseMem::new();
        assert_eq!(m.read_u64(0xdead_beef), 0);
        m.write_u64(0x1000, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x1000), 0x0123_4567_89ab_cdef);
        // Unaligned, page-crossing access.
        m.write_u64(0x1fff, u64::MAX);
        assert_eq!(m.read_u64(0x1fff), u64::MAX);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn hot_page_memo_preserves_straddling_and_promotion_semantics() {
        let mut m = SparseMem::new();
        // Write straddling the 0x1000 boundary: both pages materialize,
        // one of them living in the hot slot.
        m.write_u64(0xffc, 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
        assert_eq!(m.read_u64(0xffc), 0x1122_3344_5566_7788);
        assert_eq!(m.load_u64(0xffc), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(0xfff), 0x55);
        assert_eq!(m.read_u8(0x1000), 0x44);

        // Bounce writes between pages: promotion must swap pages through
        // the hot slot without losing data, and the count stays stable.
        m.write_u64(0x0, 1);
        m.write_u64(0x2000, 2);
        m.write_u64(0x8, 3);
        assert_eq!(m.page_count(), 3);
        assert_eq!(m.read_u64(0x0), 1);
        assert_eq!(m.read_u64(0x2000), 2);
        assert_eq!(m.read_u64(0x8), 3);
        assert_eq!(m.read_u64(0xffc), 0x1122_3344_5566_7788);

        // Promoting reads never materialize pages...
        assert_eq!(m.load_u64(0x9000), 0);
        assert_eq!(m.read_u64(0x9ffc), 0, "straddling read of absent pages");
        assert_eq!(m.page_count(), 3);
        // ...but do promote an existing cold page into the hot slot.
        assert_eq!(m.load_u64(0x2000), 2);
        assert_eq!(m.page_count(), 3);
    }

    #[test]
    fn straddling_u64_with_one_half_materialized() {
        let mut m = SparseMem::new();
        m.write_u8(0xfff, 0xaa);
        assert_eq!(m.page_count(), 1);
        // Low byte comes from the materialized page, the rest reads zero.
        assert_eq!(m.read_u64(0xfff), 0xaa);
        // A straddling write starting on the existing page materializes
        // only the second page on demand.
        m.write_u64(0xffd, u64::MAX);
        assert_eq!(m.page_count(), 2);
        assert_eq!(m.read_u64(0xffd), u64::MAX);
    }

    #[test]
    fn alu_ops_compute() {
        let mut a = Asm::new();
        a.movi(g(1), 10);
        a.movi(g(2), 3);
        a.add(g(3), g(1), g(2));
        a.sub(g(4), g(1), g(2));
        a.mul(g(5), g(1), g(2));
        a.alu(AluKind::Xor, g(6), g(1), Operand::reg(g(2)));
        a.alu(AluKind::Shl, g(7), g(1), 2i64);
        a.alu(AluKind::Shr, g(8), g(1), 1i64);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(100).unwrap();
        assert_eq!(m.gr(g(3)), 13);
        assert_eq!(m.gr(g(4)), 7);
        assert_eq!(m.gr(g(5)), 30);
        assert_eq!(m.gr(g(6)), 9);
        assert_eq!(m.gr(g(7)), 40);
        assert_eq!(m.gr(g(8)), 5);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut a = Asm::new();
        a.movi(Gr::ZERO, 42);
        a.addi(g(1), Gr::ZERO, 1);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert_eq!(m.gr(Gr::ZERO), 0);
        assert_eq!(m.gr(g(1)), 1);
    }

    #[test]
    fn guard_nullifies_ops() {
        let mut a = Asm::new();
        // p1 = false (1 < 0 is false with unc type writes pf=true into p2)
        a.movi(g(1), 1);
        a.cmp(CmpType::Unc, CmpRel::Lt, p(1), p(2), g(1), 0i64);
        a.pred(p(1)).movi(g(2), 111); // nullified
        a.pred(p(2)).movi(g(3), 222); // executes
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert!(!m.pr(p(1)));
        assert!(m.pr(p(2)));
        assert_eq!(m.gr(g(2)), 0);
        assert_eq!(m.gr(g(3)), 222);
    }

    #[test]
    fn unc_compare_under_false_guard_clears_both() {
        let mut a = Asm::new();
        // p3 starts false; (p3) cmp.unc writes 0,0 even though cond true.
        a.movi(g(1), 5);
        // make p1=true first so we can seed p4,p5 true via another compare
        a.cmp(CmpType::Unc, CmpRel::Eq, p(4), p(5), g(1), 5i64); // p4=1,p5=0
        a.pred(p(5))
            .cmp(CmpType::Unc, CmpRel::Eq, p(6), p(7), g(1), 5i64);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert!(m.pr(p(4)));
        assert!(!m.pr(p(5)));
        // guard p5 false → unc clears both targets
        assert!(!m.pr(p(6)));
        assert!(!m.pr(p(7)));
    }

    #[test]
    fn and_or_parallel_compares() {
        let mut a = Asm::new();
        a.movi(g(1), 1);
        // seed p1 = true via or-init idiom: normal compare
        a.cmp(CmpType::Unc, CmpRel::Eq, p(1), p(0), g(1), 1i64); // p1 = 1
                                                                 // and-chain: p1 &= (r1 == 2)  → false clears it
        a.cmp(CmpType::And, CmpRel::Eq, p(1), p(0), g(1), 2i64);
        // or-chain into p2 (initially false)
        a.cmp(CmpType::Or, CmpRel::Eq, p(2), p(0), g(1), 1i64); // sets p2
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert!(
            !m.pr(p(1)),
            "and-type compare with false condition clears target"
        );
        assert!(
            m.pr(p(2)),
            "or-type compare with true condition sets target"
        );
    }

    #[test]
    fn p0_writes_are_discarded() {
        let mut a = Asm::new();
        a.movi(g(1), 1);
        a.cmp(CmpType::Unc, CmpRel::Ne, p(0), p(1), g(1), 1i64); // pt=p0 ← 0 discarded
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert!(m.pr(Pr::ZERO), "p0 stays true");
        assert!(m.pr(p(1)), "pf got !cond = true");
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let mut a = Asm::new();
        let skip = a.new_label();
        a.movi(g(1), 0);
        a.cmp(CmpType::Unc, CmpRel::Eq, p(1), p(2), g(1), 0i64); // p1=1
        a.pred(p(1)).br(skip);
        a.movi(g(2), 99); // skipped
        a.bind(skip);
        a.pred(p(2)).br(skip); // not taken (p2=0)
        a.movi(g(3), 7);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        let recs: Vec<ExecRecord> = std::iter::from_fn(|| m.step().unwrap()).collect();
        assert_eq!(m.gr(g(2)), 0);
        assert_eq!(m.gr(g(3)), 7);
        let branches: Vec<_> = recs.iter().filter(|r| r.insn.is_branch()).collect();
        assert_eq!(branches.len(), 2);
        assert!(branches[0].is_taken_branch());
        assert!(!branches[1].is_taken_branch());
    }

    #[test]
    fn loads_and_stores_round_trip_via_data_segment() {
        let mut a = Asm::new();
        a.data(DataSegment::from_words(0x2000, &[11, 22, 33]));
        a.init_gr(g(1), 0x2000);
        a.ld(g(2), g(1), 8); // 22
        a.addi(g(3), g(2), 1);
        a.st(g(3), g(1), 16);
        a.ld(g(4), g(1), 16); // 23
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert_eq!(m.gr(g(2)), 22);
        assert_eq!(m.gr(g(4)), 23);
        assert_eq!(m.mem().read_u64(0x2010), 23);
    }

    #[test]
    fn float_pipeline_and_conversions() {
        let mut a = Asm::new();
        a.data(DataSegment::from_f64s(0x3000, &[2.5, 4.0]));
        a.init_gr(g(1), 0x3000);
        a.ldf(f(1), g(1), 0);
        a.ldf(f(2), g(1), 8);
        a.fmul(f(3), f(1), f(2)); // 10.0
        a.ftoi(g(2), f(3));
        a.itof(f(4), g(2));
        a.fcmp(CmpType::Unc, CmpRel::Gt, p(1), p(2), f(3), f(1));
        a.stf(f(3), g(1), 16);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(20).unwrap();
        assert_eq!(m.fr(f(3)), 10.0);
        assert_eq!(m.gr(g(2)), 10);
        assert_eq!(m.fr(f(4)), 10.0);
        assert!(m.pr(p(1)));
        assert!(!m.pr(p(2)));
        assert_eq!(f64::from_bits(m.mem().read_u64(0x3010)), 10.0);
    }

    #[test]
    fn nullified_load_does_not_touch_memory_record() {
        let mut a = Asm::new();
        a.movi(g(1), 1);
        a.cmp(CmpType::Unc, CmpRel::Lt, p(1), p(2), g(1), 0i64); // p1 = false
        a.pred(p(1)).ld(g(2), g(1), 0);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        let recs: Vec<ExecRecord> = std::iter::from_fn(|| m.step().unwrap()).collect();
        let nulled = recs.iter().find(|r| r.insn.is_load()).unwrap();
        assert!(!nulled.qp);
        assert_eq!(nulled.info, ExecInfo::None);
    }

    #[test]
    fn remaining_fpu_kinds_and_edge_values() {
        let mut a = Asm::new();
        a.init_fr(f(1), 10.0);
        a.init_fr(f(2), 4.0);
        a.fpu(FpuKind::Fsub, f(3), f(1), f(2));
        a.fpu(FpuKind::Fdiv, f(4), f(1), f(2));
        a.fpu(FpuKind::Fdiv, f(5), f(1), f(0)); // divide by zero → inf
        a.ftoi(g(2), f(5)); // inf as i64 saturates
        a.fpu(FpuKind::Fdiv, f(6), f(0), f(0)); // 0/0 → NaN
        a.ftoi(g(3), f(6)); // NaN → 0 by definition
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(20).unwrap();
        assert_eq!(m.fr(f(3)), 6.0);
        assert_eq!(m.fr(f(4)), 2.5);
        assert!(m.fr(f(5)).is_infinite());
        assert_eq!(m.gr(g(2)), i64::MAX, "inf saturates on conversion");
        assert_eq!(m.gr(g(3)), 0, "NaN converts to 0");
    }

    #[test]
    fn shifts_mask_their_amount() {
        let mut a = Asm::new();
        a.movi(g(1), 1);
        a.alu(AluKind::Shl, g(2), g(1), 64i64); // 64 & 63 == 0 → unchanged
        a.alu(AluKind::Shl, g(3), g(1), 65i64); // 65 & 63 == 1 → 2
        a.movi(g(4), -8);
        a.alu(AluKind::Shr, g(5), g(4), 1i64); // arithmetic → -4
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert_eq!(m.gr(g(2)), 1);
        assert_eq!(m.gr(g(3)), 2);
        assert_eq!(m.gr(g(5)), -4);
    }

    #[test]
    fn wrapping_integer_arithmetic() {
        let mut a = Asm::new();
        a.movi(g(1), i64::MAX);
        a.addi(g(2), g(1), 1); // wraps to i64::MIN
        a.movi(g(3), i64::MIN);
        a.alu(AluKind::Sub, g(4), g(3), Operand::imm(1)); // wraps to MAX
        a.mul(g(5), g(1), g(1)); // wraps silently
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert_eq!(m.gr(g(2)), i64::MIN);
        assert_eq!(m.gr(g(4)), i64::MAX);
        assert_eq!(m.gr(g(5)), i64::MAX.wrapping_mul(i64::MAX));
    }

    #[test]
    fn run_budget_and_halt() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.br(top); // infinite loop
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        let out = m.run(100).unwrap();
        assert_eq!(out.reason, StopReason::BudgetExhausted);
        assert_eq!(out.steps, 100);
        assert!(!m.is_halted());

        let mut a = Asm::new();
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        let out = m.run(100).unwrap();
        assert_eq!(out.reason, StopReason::Halted);
        assert_eq!(out.steps, 1);
        assert!(
            m.step().unwrap().is_none(),
            "stepping after halt yields None"
        );
    }

    #[test]
    fn fell_off_end_is_reported() {
        let prog = Program::from_insns(vec![Insn::new(Op::Nop)]);
        let mut m = Machine::new(&prog);
        m.step().unwrap();
        assert_eq!(m.step(), Err(ExecError::FellOffEnd { slot: 1 }));
    }

    #[test]
    fn u64_load_store_crossing_a_page_boundary() {
        // Program-level (not raw SparseMem) page-straddling access: the
        // store writes 8 bytes starting 4 bytes before a page boundary;
        // the load reads them back across the same boundary, and byte
        // reads confirm each half landed on its own page.
        let boundary = 1u64 << PAGE_SHIFT;
        let mut a = Asm::new();
        a.init_gr(g(1), (boundary - 4) as i64);
        a.movi(g(2), 0x0102_0304_0506_0708);
        a.st(g(2), g(1), 0);
        a.ld(g(3), g(1), 0);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        m.run(10).unwrap();
        assert_eq!(m.gr(g(3)), 0x0102_0304_0506_0708);
        assert_eq!(m.mem().page_count(), 2, "write touched both pages");
        // Little-endian: low half below the boundary, high half above.
        assert_eq!(m.mem().read_u8(boundary - 1), 0x05);
        assert_eq!(m.mem().read_u8(boundary), 0x04);
    }

    #[test]
    fn run_budget_exhaustion_mid_bundle_resumes_exactly() {
        // Ten single-slot instructions; a budget of 4 stops mid-bundle
        // (slot 4 of a 3-slot bundle machine) and a later `run` picks up
        // at the very next slot with no skipped or repeated work.
        let mut a = Asm::new();
        for i in 0..9 {
            a.addi(g(1), g(1), i + 1);
        }
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        let out = m.run(4).unwrap();
        assert_eq!(out.reason, StopReason::BudgetExhausted);
        assert_eq!(out.steps, 4);
        assert_eq!(m.pc(), 4, "stopped between bundle boundaries");
        assert_eq!(m.gr(g(1)), 1 + 2 + 3 + 4);
        assert!(!m.is_halted());

        let out = m.run(100).unwrap();
        assert_eq!(out.reason, StopReason::Halted);
        assert_eq!(out.steps, 6, "remaining five adds plus the halt");
        assert_eq!(m.gr(g(1)), 45);
        assert_eq!(m.steps(), 10);
    }

    #[test]
    fn predicated_memory_ops_under_false_guard_touch_nothing() {
        // p1 stays false: the guarded store must not write memory, the
        // guarded load must not clobber its destination, and both must
        // record ExecInfo::None (no Mem info) in the trace.
        let mut a = Asm::new();
        a.init_gr(g(1), 0x3000);
        a.movi(g(2), 77);
        a.movi(g(3), -1);
        a.cmp(CmpType::Unc, CmpRel::Eq, p(1), p(2), g(2), Operand::imm(0));
        a.pred(p(1));
        a.st(g(2), g(1), 0);
        a.pred(p(1));
        a.ld(g(3), g(1), 8);
        a.pred(p(1));
        a.stf(f(1), g(1), 16);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        let mut nullified_mem_infos = 0;
        while let Some(rec) = m.step().unwrap() {
            if !rec.qp && matches!(rec.info, ExecInfo::Mem { .. }) {
                nullified_mem_infos += 1;
            }
        }
        assert_eq!(nullified_mem_infos, 0, "false-guard ops record no Mem info");
        assert_eq!(m.mem().read_u64(0x3000), 0, "store was nullified");
        assert_eq!(m.gr(g(3)), -1, "load destination untouched");
        assert_eq!(m.mem().page_count(), 0, "no page was materialized");
    }

    #[test]
    fn seq_numbers_are_dense() {
        let mut a = Asm::new();
        a.nop();
        a.nop();
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(&prog);
        let recs: Vec<ExecRecord> = std::iter::from_fn(|| m.step().unwrap()).collect();
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
