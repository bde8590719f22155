//! Capture-once/replay-many dynamic trace engine.
//!
//! A sweep runs the same program through many timing configurations, but
//! the *architectural* instruction stream is identical in every cell by
//! construction (that is the invariant the cosimulation oracle enforces).
//! [`TraceBuffer::capture`] runs the functional [`Machine`] once and
//! records its [`ExecRecord`] stream into a compact structure-of-arrays
//! buffer; a [`TraceCursor`] then replays the decoded stream into any
//! number of timing cells, zero-copy, via `Arc<TraceBuffer>` sharing
//! across cells and worker threads.
//!
//! The timing simulator is generic over [`InsnSource`], so a cell can be
//! driven either by an inline `Machine` (still used by the differential
//! oracle for lockstep architectural diffing) or by a shared trace.
//!
//! # Encoding
//!
//! Per dynamic instruction the buffer stores a slot index (`u32`) and one
//! flag byte; memory effective addresses go to a dense side array (one
//! `u64` per `ExecInfo::Mem` record, consumed sequentially). Everything
//! else — the instruction itself, branch targets, `next_slot` — is
//! reconstructed from the static code image, so a record costs 5 bytes
//! plus 8 per memory access instead of `size_of::<ExecRecord>()`.

use std::sync::Arc;

use crate::exec::{ExecError, ExecInfo, ExecRecord, Machine};
use crate::insn::{Insn, Op};
use crate::program::Program;

/// Flag byte layout, per record:
///
/// * bit 0 — qualifying predicate value
/// * bits 1–2 — [`ExecInfo`] discriminant (none/cmp/br/mem)
/// * cmp: bit 3 condition, bit 4/5 `pt_write` present/value,
///   bit 6/7 `pf_write` present/value
/// * br: bit 3 taken
const F_QP: u8 = 1;
pub(crate) const KIND_SHIFT: u8 = 1;
pub(crate) const KIND_MASK: u8 = 0b11;
const KIND_NONE: u8 = 0;
const KIND_CMP: u8 = 1;
pub(crate) const KIND_BR: u8 = 2;
pub(crate) const KIND_MEM: u8 = 3;
const F_CMP_COND: u8 = 1 << 3;
const F_CMP_PT_SOME: u8 = 1 << 4;
const F_CMP_PT_VAL: u8 = 1 << 5;
const F_CMP_PF_SOME: u8 = 1 << 6;
const F_CMP_PF_VAL: u8 = 1 << 7;
const F_BR_TAKEN: u8 = 1 << 3;

/// The flag byte of a record with guard value `qp` and outcome `info`
/// (a memory record's address goes to the side array, not here).
pub(crate) fn flag_byte(qp: bool, info: &ExecInfo) -> u8 {
    let mut flags = if qp { F_QP } else { 0 };
    match *info {
        ExecInfo::None => flags |= KIND_NONE << KIND_SHIFT,
        ExecInfo::Cmp {
            cond,
            pt_write,
            pf_write,
        } => {
            flags |= KIND_CMP << KIND_SHIFT;
            if cond {
                flags |= F_CMP_COND;
            }
            if let Some(v) = pt_write {
                flags |= F_CMP_PT_SOME | if v { F_CMP_PT_VAL } else { 0 };
            }
            if let Some(v) = pf_write {
                flags |= F_CMP_PF_SOME | if v { F_CMP_PF_VAL } else { 0 };
            }
        }
        ExecInfo::Br { taken, .. } => {
            flags |= KIND_BR << KIND_SHIFT;
            if taken {
                flags |= F_BR_TAKEN;
            }
        }
        ExecInfo::Mem { .. } => flags |= KIND_MEM << KIND_SHIFT,
    }
    flags
}

/// A captured, pre-decoded dynamic instruction trace.
///
/// Built once per compiled binary (see [`TraceBuffer::capture`] or the
/// incremental [`TraceBuffer::push`] path) and shared read-only between
/// timing cells through `Arc<TraceBuffer>`.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    /// Static code image (indexed by slot), copied from the program.
    insns: Vec<Insn>,
    /// Per-record static slot index.
    slots: Vec<u32>,
    /// Per-record flag byte (see the `F_*`/`KIND_*` constants).
    flags: Vec<u8>,
    /// Dense side array of memory effective addresses, one per
    /// `ExecInfo::Mem` record in stream order.
    addrs: Vec<u64>,
    /// Whether the captured stream ended in a `halt`.
    halted: bool,
}

impl TraceBuffer {
    /// An empty buffer for `program`, ready for incremental [`push`]es
    /// (the capture loop the differential oracle already runs).
    ///
    /// [`push`]: TraceBuffer::push
    pub fn new(program: &Program) -> Self {
        TraceBuffer {
            insns: program.insns.clone(),
            slots: Vec::new(),
            flags: Vec::new(),
            addrs: Vec::new(),
            halted: false,
        }
    }

    /// Runs a fresh [`Machine`] for up to `max_steps` dynamic
    /// instructions and captures the record stream.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from [`Machine::step`] (malformed
    /// program).
    pub fn capture(program: &Program, max_steps: u64) -> Result<TraceBuffer, ExecError> {
        let mut machine = Machine::new(program);
        let mut buf = TraceBuffer::new(program);
        while buf.len() < max_steps {
            match machine.step()? {
                Some(rec) => buf.push(&rec),
                None => {
                    buf.mark_halted();
                    break;
                }
            }
        }
        Ok(buf)
    }

    /// Appends one record. Records must arrive in stream order (the
    /// record's `seq` must equal the current length).
    pub fn push(&mut self, rec: &ExecRecord) {
        debug_assert_eq!(
            rec.seq,
            self.slots.len() as u64,
            "trace records must be pushed in stream order"
        );
        if let ExecInfo::Mem { addr } = rec.info {
            self.addrs.push(addr);
        }
        self.slots.push(rec.slot);
        self.flags.push(flag_byte(rec.qp, &rec.info));
    }

    /// Marks the stream as ending in a `halt` (the capturing machine
    /// returned `Ok(None)`).
    pub fn mark_halted(&mut self) {
        self.halted = true;
    }

    /// Dynamic instructions captured.
    pub fn len(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Whether no records were captured.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the captured stream ended in a `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The static code image replayed records index into.
    ///
    /// For a captured benchmark this is the compiled program's
    /// instruction list; for an imported branches-only trace it is the
    /// synthesized compare-and-branch skeleton (see [`crate::pptrace`]).
    pub fn code(&self) -> &[Insn] {
        &self.insns
    }

    /// Decomposes the buffer into its raw columns (for the on-disk
    /// codec in [`crate::pptrace`]).
    pub(crate) fn parts(&self) -> (&[Insn], &[u32], &[u8], &[u64], bool) {
        (
            &self.insns,
            &self.slots,
            &self.flags,
            &self.addrs,
            self.halted,
        )
    }

    /// Reassembles a buffer from raw columns. The caller (the
    /// [`crate::pptrace`] decoder) is responsible for the invariants
    /// `record_at` relies on: every slot indexes `insns`, branch-kind
    /// flag bytes sit on `Op::Br` slots, and the number of mem-kind flag
    /// bytes equals `addrs.len()`.
    pub(crate) fn from_parts(
        insns: Vec<Insn>,
        slots: Vec<u32>,
        flags: Vec<u8>,
        addrs: Vec<u64>,
        halted: bool,
    ) -> TraceBuffer {
        TraceBuffer {
            insns,
            slots,
            flags,
            addrs,
            halted,
        }
    }

    /// Approximate in-memory footprint in bytes (for diagnostics).
    pub fn bytes(&self) -> usize {
        self.insns.len() * std::mem::size_of::<Insn>()
            + self.slots.len() * std::mem::size_of::<u32>()
            + self.flags.len()
            + self.addrs.len() * std::mem::size_of::<u64>()
    }

    /// Reconstructs the record at `idx`; `addr_idx` is the cursor into
    /// the dense address array and is advanced on `Mem` records.
    #[inline]
    fn record_at(&self, idx: usize, addr_idx: &mut usize) -> ExecRecord {
        let slot = self.slots[idx];
        let insn = self.insns[slot as usize];
        let flags = self.flags[idx];
        let info = match (flags >> KIND_SHIFT) & KIND_MASK {
            KIND_NONE => ExecInfo::None,
            KIND_CMP => ExecInfo::Cmp {
                cond: flags & F_CMP_COND != 0,
                pt_write: (flags & F_CMP_PT_SOME != 0).then_some(flags & F_CMP_PT_VAL != 0),
                pf_write: (flags & F_CMP_PF_SOME != 0).then_some(flags & F_CMP_PF_VAL != 0),
            },
            KIND_BR => {
                let Op::Br { target } = insn.op else {
                    unreachable!("Br record on a non-branch slot")
                };
                ExecInfo::Br {
                    taken: flags & F_BR_TAKEN != 0,
                    target,
                }
            }
            _ => {
                let addr = self.addrs[*addr_idx];
                *addr_idx += 1;
                ExecInfo::Mem { addr }
            }
        };
        let next_slot = match (insn.op, &info) {
            (Op::Halt, _) => slot,
            (
                _,
                ExecInfo::Br {
                    taken: true,
                    target,
                },
            ) => *target,
            _ => slot + 1,
        };
        ExecRecord {
            seq: idx as u64,
            slot,
            insn,
            qp: flags & F_QP != 0,
            info,
            next_slot,
        }
    }

    /// Iterates the captured records in stream order (reconstructing
    /// each from the packed encoding).
    pub fn iter(&self) -> impl Iterator<Item = ExecRecord> + '_ {
        let mut addr_idx = 0usize;
        (0..self.slots.len()).map(move |i| self.record_at(i, &mut addr_idx))
    }
}

/// Anything that can feed the timing simulator one [`ExecRecord`] at a
/// time: the inline functional [`Machine`] (execution-driven mode) or a
/// [`TraceCursor`] over a shared capture (trace-driven mode).
pub trait InsnSource {
    /// The next dynamic instruction, `Ok(None)` when the stream ends.
    ///
    /// # Errors
    ///
    /// [`ExecError`] when the underlying machine executes a malformed
    /// program; a trace cursor never errors.
    fn next_record(&mut self) -> Result<Option<ExecRecord>, ExecError>;

    /// After `next_record` returned `Ok(None)`: whether the stream ended
    /// because the program halted (as opposed to an exhausted capture
    /// budget).
    fn ended_halted(&self) -> bool;

    /// The static code image behind this stream, indexed by slot, when
    /// the source has one (`record.insn` always equals
    /// `code()[record.slot]` for every record the source yields). The
    /// timing model precomputes per-slot decode tables from it; sources
    /// without a fixed image (the default) return an empty slice and fall
    /// back to on-demand classification.
    fn code(&self) -> &[Insn] {
        &[]
    }
}

impl InsnSource for Machine {
    fn next_record(&mut self) -> Result<Option<ExecRecord>, ExecError> {
        self.step()
    }

    fn ended_halted(&self) -> bool {
        self.is_halted()
    }

    fn code(&self) -> &[Insn] {
        self.code()
    }
}

/// A sequential reader over a shared [`TraceBuffer`], optionally bounded
/// to a record window (sampled simulation replays `[start, start+len)`
/// slices of one capture).
///
/// Cheap to construct (an `Arc` clone plus three indices), so every
/// timing cell in a sweep gets its own cursor over the same capture.
#[derive(Clone, Debug)]
pub struct TraceCursor {
    buf: Arc<TraceBuffer>,
    idx: usize,
    addr_idx: usize,
    /// One past the last record this cursor yields.
    end: usize,
}

impl TraceCursor {
    /// A cursor positioned at the start of `buf`, reading to its end.
    pub fn new(buf: Arc<TraceBuffer>) -> Self {
        let end = buf.slots.len();
        TraceCursor {
            buf,
            idx: 0,
            addr_idx: 0,
            end,
        }
    }

    /// A cursor over the record window `[start, start + len)` of `buf`
    /// (clamped to the capture's length).
    ///
    /// Positioning is O(start): the dense memory-address side array is
    /// consumed sequentially, so a mid-stream cursor must know how many
    /// `Mem` records precede its window — one pass over the flag bytes,
    /// with no record reconstruction.
    pub fn window(buf: Arc<TraceBuffer>, start: u64, len: u64) -> Self {
        let total = buf.slots.len();
        let start = usize::try_from(start).unwrap_or(usize::MAX).min(total);
        let end = start
            .saturating_add(usize::try_from(len).unwrap_or(usize::MAX))
            .min(total);
        let addr_idx = buf.flags[..start]
            .iter()
            .filter(|&&f| (f >> KIND_SHIFT) & KIND_MASK == KIND_MEM)
            .count();
        TraceCursor {
            buf,
            idx: start,
            addr_idx,
            end,
        }
    }

    /// The shared buffer this cursor reads.
    pub fn trace(&self) -> &TraceBuffer {
        &self.buf
    }

    /// Records remaining until the window (or capture) end.
    pub fn remaining(&self) -> u64 {
        (self.end - self.idx) as u64
    }
}

impl InsnSource for TraceCursor {
    #[inline]
    fn next_record(&mut self) -> Result<Option<ExecRecord>, ExecError> {
        if self.idx >= self.end {
            return Ok(None);
        }
        let rec = self.buf.record_at(self.idx, &mut self.addr_idx);
        self.idx += 1;
        Ok(Some(rec))
    }

    fn ended_halted(&self) -> bool {
        // A window that stops short of the capture's end is a budget
        // exhaustion, not a halt, even on a halted capture.
        self.buf.halted && self.idx == self.buf.slots.len()
    }

    fn code(&self) -> &[Insn] {
        self.buf.code()
    }
}

/// A program exercising every [`ExecInfo`] variant: compares (both
/// targets, one target, nullified), float compares, taken and
/// not-taken branches, loads/stores (nullified and not), and halt.
/// Shared by the trace and [`crate::pptrace`] codec tests.
#[cfg(test)]
pub(crate) fn kitchen_sink_program() -> Program {
    use crate::asm::Asm;
    use crate::insn::{CmpRel, CmpType, Operand};
    use crate::program::DataSegment;
    use crate::reg::{Fr, Gr, Pr};

    let mut a = Asm::new();
    let skip = a.new_label();
    a.data(DataSegment::from_words(0x2000, &[11, 22, 33]));
    a.init_gr(Gr::new(1), 0x2000);
    a.movi(Gr::new(2), 5);
    a.cmp(
        CmpType::Unc,
        CmpRel::Eq,
        Pr::new(1),
        Pr::new(2),
        Gr::new(2),
        Operand::imm(5),
    );
    a.pred(Pr::new(2)).movi(Gr::new(3), 99); // nullified
    a.pred(Pr::new(2)).ld(Gr::new(4), Gr::new(1), 0); // nullified load
    a.pred(Pr::new(1)).br(skip); // taken
    a.movi(Gr::new(5), 1); // skipped
    a.bind(skip);
    a.pred(Pr::new(2)).br(skip); // not taken
    a.ld(Gr::new(6), Gr::new(1), 8);
    a.st(Gr::new(6), Gr::new(1), 16);
    a.init_fr(Fr::new(1), 2.5);
    a.fcmp(
        CmpType::And,
        CmpRel::Gt,
        Pr::new(3),
        Pr::ZERO,
        Fr::new(1),
        Fr::new(0),
    );
    a.stf(Fr::new(1), Gr::new(1), 24);
    a.halt();
    a.assemble().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::Gr;

    fn kitchen_sink() -> Program {
        kitchen_sink_program()
    }

    #[test]
    fn replay_reconstructs_the_live_record_stream_exactly() {
        let prog = kitchen_sink();
        let mut m = Machine::new(&prog);
        let live: Vec<ExecRecord> = std::iter::from_fn(|| m.step().unwrap()).collect();

        let buf = TraceBuffer::capture(&prog, u64::MAX).unwrap();
        assert!(buf.halted());
        assert_eq!(buf.len(), live.len() as u64);
        let replayed: Vec<ExecRecord> = buf.iter().collect();
        assert_eq!(replayed, live);

        // Make sure the program actually exercised every ExecInfo kind.
        let has = |f: &dyn Fn(&ExecRecord) -> bool| live.iter().any(f);
        assert!(has(&|r| matches!(r.info, ExecInfo::Cmp { .. })));
        assert!(has(&|r| matches!(r.info, ExecInfo::Br { taken: true, .. })));
        assert!(has(&|r| matches!(
            r.info,
            ExecInfo::Br { taken: false, .. }
        )));
        assert!(has(&|r| matches!(r.info, ExecInfo::Mem { .. })));
        assert!(has(&|r| r.info == ExecInfo::None && !r.qp));
    }

    #[test]
    fn cursor_yields_the_stream_then_reports_halt() {
        let prog = kitchen_sink();
        let buf = Arc::new(TraceBuffer::capture(&prog, u64::MAX).unwrap());
        let mut cursor = TraceCursor::new(Arc::clone(&buf));
        let mut n = 0u64;
        while let Some(rec) = cursor.next_record().unwrap() {
            assert_eq!(rec.seq, n);
            n += 1;
        }
        assert_eq!(n, buf.len());
        assert!(cursor.ended_halted());

        // A second cursor over the same Arc starts from the beginning.
        let mut fresh = TraceCursor::new(buf);
        assert!(!fresh.ended_halted());
        assert_eq!(fresh.next_record().unwrap().unwrap().seq, 0);
    }

    #[test]
    fn budget_capped_capture_is_not_halted() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.addi(Gr::new(1), Gr::new(1), 1);
        a.br(top);
        let prog = a.assemble().unwrap();
        let buf = Arc::new(TraceBuffer::capture(&prog, 10).unwrap());
        assert_eq!(buf.len(), 10);
        assert!(!buf.halted());
        let mut cursor = TraceCursor::new(buf);
        let mut n = 0;
        while cursor.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert!(
            !cursor.ended_halted(),
            "exhausted budget is not a halt: the stream just ends"
        );
    }

    #[test]
    fn incremental_push_matches_one_shot_capture() {
        let prog = kitchen_sink();
        let mut machine = Machine::new(&prog);
        let mut incremental = TraceBuffer::new(&prog);
        while let Some(rec) = machine.step().unwrap() {
            incremental.push(&rec);
        }
        incremental.mark_halted();

        let oneshot = TraceBuffer::capture(&prog, u64::MAX).unwrap();
        assert_eq!(incremental.halted(), oneshot.halted());
        assert_eq!(
            incremental.iter().collect::<Vec<_>>(),
            oneshot.iter().collect::<Vec<_>>()
        );
        assert!(incremental.bytes() > 0);
        assert!(!incremental.is_empty());
    }

    #[test]
    fn window_cursor_matches_the_corresponding_stream_slice() {
        let prog = kitchen_sink();
        let buf = Arc::new(TraceBuffer::capture(&prog, u64::MAX).unwrap());
        let all: Vec<ExecRecord> = buf.iter().collect();
        // Every (start, len) window must yield exactly the matching slice
        // of the full stream — including windows starting after `Mem`
        // records, which exercise the dense-address repositioning.
        for start in 0..all.len() {
            for len in [0usize, 1, 3, all.len()] {
                let mut cur = TraceCursor::window(Arc::clone(&buf), start as u64, len as u64);
                let want = &all[start..(start + len).min(all.len())];
                assert_eq!(cur.remaining(), want.len() as u64);
                let got: Vec<ExecRecord> =
                    std::iter::from_fn(|| cur.next_record().unwrap()).collect();
                assert_eq!(got, want, "window [{start}, {start}+{len})");
            }
        }
    }

    #[test]
    fn window_halt_semantics() {
        let prog = kitchen_sink();
        let buf = Arc::new(TraceBuffer::capture(&prog, u64::MAX).unwrap());
        let n = buf.len();

        // A window ending before the capture's end is budget exhaustion.
        let mut short = TraceCursor::window(Arc::clone(&buf), 0, n - 1);
        while short.next_record().unwrap().is_some() {}
        assert!(!short.ended_halted());

        // A window reaching the end of a halted capture is a halt.
        let mut tail = TraceCursor::window(Arc::clone(&buf), n - 2, 1000);
        while tail.next_record().unwrap().is_some() {}
        assert!(tail.ended_halted());

        // Windows past the end are empty, and clamp instead of panicking.
        let mut past = TraceCursor::window(Arc::clone(&buf), n + 50, 10);
        assert_eq!(past.remaining(), 0);
        assert!(past.next_record().unwrap().is_none());
    }

    #[test]
    fn capture_reports_malformed_programs() {
        let prog = Program::from_insns(vec![Insn::new(Op::Nop)]);
        let err = TraceBuffer::capture(&prog, 100).unwrap_err();
        assert_eq!(err, ExecError::FellOffEnd { slot: 1 });
    }
}
