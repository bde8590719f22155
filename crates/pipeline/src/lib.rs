//! # ppsim-pipeline — the eight-stage out-of-order core
//!
//! An execution-driven timing model of the machine in Table 1 of the
//! paper: 6-wide fetch/rename/commit, 256-entry ROB, 80/80/32-entry issue
//! queues, dual 64-entry load/store queues, the `ppsim-mem` hierarchy, and
//! the branch-prediction organization a [`SchemeSpec`] names. The scheme
//! builds two predictor roles in `ppsim-predictors`: a branch role every
//! conditional branch consults at fetch (the conventional scheme adds the
//! perceptron override at rename), and, for the predicate schemes, a
//! predicate role every compare consults. The pipeline decides only the
//! timing: when a branch reads the predicate physical register file (PPRF)
//! — early-resolved, with the stored prediction, or falling back to the
//! fetch prediction — when the §3.3 history repairs land, and when PEP-PA
//! sees its out-of-order predicate-register writes. Under
//! [`PredicationModel::Selective`], if-converted instructions consume the
//! PPRF predictions at rename too.
//!
//! # Example
//!
//! ```
//! use ppsim_isa::{Asm, CmpRel, CmpType, Gr, Operand, Pr};
//! use ppsim_pipeline::{PredicationModel, SchemeSpec, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! let top = a.new_label();
//! a.bind(top);
//! a.addi(Gr::new(1), Gr::new(1), 1);
//! a.cmp(CmpType::Unc, CmpRel::Lt, Pr::new(1), Pr::new(2), Gr::new(1), Operand::imm(1000));
//! a.pred(Pr::new(1)).br(top);
//! a.halt();
//! let program = a.assemble()?;
//!
//! let mut sim = SimOptions::new(SchemeSpec::Predicate, PredicationModel::Selective)
//!     .build_source(ppsim_isa::Machine::new(&program))?;
//! let result = sim.run(100_000);
//! assert!(result.halted);
//! assert!(result.stats.ipc() > 0.5);
//! assert_eq!(result.stats.stall.total(), result.stats.cycles);
//! # Ok(())
//! # }
//! ```

mod config;
mod core;
pub mod decode;
mod fxhash;
mod lanes;
mod options;
pub mod phases;
mod resources;
mod sample;
mod stats;

pub use crate::core::{RunResult, Simulator};
pub use config::{CoreConfig, Latencies, PredicationModel};
pub use lanes::{LaneSet, NullSource};
pub use options::{SimOptions, SimOptionsError, TestFault};
pub use phases::PhaseReport;
/// Re-exported trace-engine types: capture a program's dynamic stream
/// once ([`TraceBuffer`]) and drive any number of timing cells from it —
/// one cursor per solo cell ([`SimOptions::build_source`]) or one shared
/// pass for a whole fused lane bundle ([`LaneSet`]).
pub use ppsim_isa::{InsnSource, TraceBuffer, TraceCursor};
pub use ppsim_obs::{EventKind, EventRing, StallBreakdown, StallBucket, TraceEvent};
pub use ppsim_predictors::SchemeSpec;
pub use resources::{Pool, UnitSet, WidthLimiter};
pub use sample::{SampleSpec, SampleSpecError};
pub use stats::SimStats;
