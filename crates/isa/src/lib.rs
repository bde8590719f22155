//! # ppsim-isa — a predicated compare-and-branch ISA ("PISA")
//!
//! This crate defines the instruction set simulated by the rest of the
//! workspace, together with an assembler-style program builder and a
//! functional (architecturally correct) emulator.
//!
//! The ISA is modelled on IA-64 as assumed by Quiñones, Parcerisa and
//! González, *"Improving Branch Prediction and Predicated Execution in
//! Out-of-Order Processors"* (HPCA 2007):
//!
//! * 128 integer registers `r0..r127` (`r0` is hardwired to zero),
//! * 128 floating-point registers `f0..f127`,
//! * 64 one-bit **predicate registers** `p0..p63`, with `p0` hardwired to
//!   `true`,
//! * every instruction carries a **qualifying predicate** (guard); when the
//!   guard evaluates to `false` the instruction behaves as a no-op,
//! * **compare** instructions produce *two* predicates (the condition and,
//!   depending on the compare type, its complement),
//! * conditional branches are taken iff their qualifying predicate is true
//!   (the *compare-and-branch* model: the branch consumes a predicate that a
//!   previous compare produced).
//!
//! # Example
//!
//! ```
//! use ppsim_isa::{Asm, CmpRel, CmpType, Gr, Machine, Operand, Pr, StopReason};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! let done = a.new_label();
//! a.movi(Gr::new(1), 41);
//! // p1 = (r1 < 100), p2 = !(r1 < 100)
//! a.cmp(CmpType::Unc, CmpRel::Lt, Pr::new(1), Pr::new(2), Gr::new(1), Operand::imm(100));
//! // guarded add: only runs because p1 is true
//! a.pred(Pr::new(1)).addi(Gr::new(2), Gr::new(1), 1);
//! a.pred(Pr::new(2)).br(done);
//! a.bind(done);
//! a.halt();
//! let program = a.assemble()?;
//!
//! let mut m = Machine::new(&program);
//! let outcome = m.run(1_000)?;
//! assert_eq!(outcome.reason, StopReason::Halted);
//! assert_eq!(m.gr(Gr::new(2)), 42);
//! # Ok(())
//! # }
//! ```

mod asm;
mod exec;
mod insn;
mod parse;
pub mod pptrace;
mod program;
mod reg;
mod trace;

pub use asm::{Asm, AsmError, Label};
pub use exec::{ExecError, ExecInfo, ExecRecord, Machine, RunOutcome, SparseMem, StopReason};
pub use insn::{AluKind, CmpRel, CmpType, FpuKind, Insn, Op, Operand};
pub use parse::{parse_program, ParseError};
pub use pptrace::{CbpSummary, TraceFileError, TraceMeta};
pub use program::{DataSegment, Program, ProgramError};
pub use reg::{Fr, Gr, Pr};
pub use trace::{InsnSource, TraceBuffer, TraceCursor};

/// Byte distance between consecutive instruction slots when deriving
/// synthetic instruction addresses (see [`Program::pc_of`]).
///
/// Predictors hash on instruction addresses; spacing slots 16 bytes apart
/// keeps the low bits varied like a real instruction stream.
pub const SLOT_BYTES: u64 = 16;

/// Number of instruction slots per fetch bundle (IA-64 packs three).
pub const BUNDLE_SLOTS: usize = 3;
