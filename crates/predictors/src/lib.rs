//! # ppsim-predictors — branch and predicate predictors
//!
//! Implements every prediction structure the paper evaluates:
//!
//! * [`Gshare`] — the small, single-cycle first-level predictor of the
//!   two-level organization (4 KB, 14-bit global history; Table 1),
//! * [`PerceptronPredictor`] — the 148 KB conventional second-level
//!   predictor (30-bit global + 10-bit local history perceptron, Jiménez &
//!   Lin), the paper's baseline,
//! * [`PepPa`] — the 144 KB Predicate-Enhanced-Prediction baseline of
//!   August et al., where the previous value of the guarding predicate
//!   register selects between two local histories,
//! * [`PredicatePredictor`] — **the paper's contribution**: a perceptron
//!   indexed by the *compare* PC rather than the branch PC, producing two
//!   predictions per compare through two hash functions over a single
//!   perceptron vector table, with a confidence estimator for selective
//!   predicate prediction,
//! * idealized variants (no aliasing, perfect history) used for the
//!   sensitivity analyses quoted in §4.2/§4.3,
//! * the TAGE frontier (ROADMAP item 4): [`Tage`] — a 144 KiB TAGE
//!   predictor, optionally with a Bullseye-style H2P side table — and
//!   [`TagePredicatePredictor`], the hybrid that applies TAGE indexing to
//!   the compare-PC predicate value table.
//!
//! ## The two roles
//!
//! [`SchemeSpec::build`] arranges these predictors into the paper's two
//! roles, each an enum over concrete predictors so calls stay direct:
//!
//! * [`BranchRole`] — what every conditional branch consults at fetch
//!   (gshare, PEP-PA, TAGE), plus the conventional perceptron override at
//!   rename; the ideal perceptron predicts at rename only. `resolve`
//!   repairs its histories after a mispredict, then trains it.
//! * [`PredicateRole`] — present for the predicate schemes only. Keyed by
//!   the *compare* PC, it predicts both targets for the PPRF and trains
//!   them at once (perceptron PVT, TAGE PVT, ideal); `repair_history`
//!   fixes the bit a mispredicted compare pushed (§3.3).
//!
//! A new scheme adds a role variant and a `SchemeSpec::build` arm; the
//! pipeline only calls the roles.
//!
//! ## Speculative history discipline
//!
//! All predictors update their histories *speculatively at prediction time*
//! and support exact repair: every [`Prediction`] carries a [`Tag`]
//! snapshotting the pre-update state, [`BranchPredictor::undo`] reverts a
//! squashed prediction, and [`GlobalHistory::fix_recent_bit`] corrects the
//! bit a mispredicted compare inserted (the recovery action described in
//! §3.3 — compares fetched between a mispredicted predicate's producer and
//! consumer keep their corrupted-history predictions, which is the negative
//! effect the paper measures).
//!
//! # Example
//!
//! ```
//! use ppsim_predictors::{BranchPredictor, PerceptronConfig, PerceptronPredictor};
//!
//! let mut p = PerceptronPredictor::new(PerceptronConfig::paper_148kb());
//! let pc = 0x4000_0040;
//! let pred = p.predict(pc, 1);
//! p.train(&pred, true); // commit-time training with the tagged history
//! ```

mod confidence;
mod gshare;
mod history;
mod ideal;
mod peppa;
mod perceptron;
mod predicate;
mod scheme;
pub mod sizing;
mod tage;

pub use confidence::ConfidenceTable;
pub use gshare::{Gshare, GshareConfig};
pub use history::{GlobalHistory, LocalHistoryTable};
pub use ideal::{IdealPerceptron, IdealPredicatePredictor};
pub use peppa::{PepPa, PepPaConfig};
pub use perceptron::{PerceptronConfig, PerceptronPredictor, PerceptronTable};
pub use predicate::{CmpPrediction, PredicateConfig, PredicatePrediction, PredicatePredictor};
pub use scheme::{BranchRole, ComparePredictions, PprfPrediction, PredicateRole, SchemeSpec};
pub use tage::{
    geometric_histories, Tage, TageConfig, TageH2pConfig, TagePredicateConfig,
    TagePredicatePredictor,
};

/// A direction prediction together with the recovery/training tag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted direction (`true` = taken / predicate true).
    pub taken: bool,
    /// Snapshot needed to train or undo this prediction.
    pub tag: Tag,
}

/// Snapshot of predictor state at prediction time.
///
/// One concrete tag type serves every predictor in the crate; each
/// implementation uses the subset of fields it needs. Hardware analogue: the
/// outcome/history FIFO that accompanies in-flight branches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tag {
    /// Global history value *before* the speculative update.
    pub ghr_before: u64,
    /// Local history value *before* the speculative update.
    pub lhr_before: u32,
    /// Index of the local history entry used (or `u32::MAX`).
    pub lhr_idx: u32,
    /// Primary table row used.
    pub row: u32,
    /// Secondary table row (predicate predictor's f2), or `u32::MAX`.
    pub row2: u32,
    /// Raw predictor output (perceptron sum or counter value).
    pub sum: i32,
    /// Implementation-defined extra state (e.g. PEP-PA history selector).
    pub alt: u64,
}

impl Tag {
    /// An empty tag (all sentinel values).
    pub const EMPTY: Tag = Tag {
        ghr_before: 0,
        lhr_before: 0,
        lhr_idx: u32::MAX,
        row: 0,
        row2: u32::MAX,
        sum: 0,
        alt: 0,
    };
}

impl Default for Tag {
    fn default() -> Self {
        Tag::EMPTY
    }
}

/// A branch direction predictor keyed by the *branch* PC.
///
/// Implemented by [`Gshare`], [`PerceptronPredictor`], [`PepPa`] and
/// [`Tage`]. [`IdealPerceptron`] does not implement it: it predicts and
/// trains in one step, given the outcome. The paper's [`PredicatePredictor`]
/// deliberately does *not* implement this trait either: it predicts at
/// compares, not branches, and has its own interface.
pub trait BranchPredictor {
    /// Predicts the direction of the branch at `pc` whose qualifying
    /// predicate is architectural register `guard`, speculatively updating
    /// the predictor's histories with the predicted outcome.
    ///
    /// `guard` is only used by predicate-aware schemes (PEP-PA); plain
    /// predictors ignore it.
    fn predict(&mut self, pc: u64, guard: u8) -> Prediction;

    /// Trains the tables using the history snapshot in `prediction.tag` and
    /// the actual outcome. Called once per committed branch.
    fn train(&mut self, prediction: &Prediction, taken: bool);

    /// Reverts the speculative history update of a squashed prediction.
    /// Must be called youngest-first when unwinding several.
    fn undo(&mut self, prediction: &Prediction);

    /// Re-applies history state for a resolved branch whose prediction was
    /// wrong: restores the tagged pre-state, then shifts in the actual
    /// outcome. Called on the flush-triggering branch itself.
    fn recover(&mut self, prediction: &Prediction, taken: bool);

    /// Observes an architectural predicate write at execute/writeback time
    /// (register index, computed value). Only PEP-PA uses this; the default
    /// is a no-op.
    fn note_predicate_write(&mut self, _preg: u8, _value: bool) {}

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Hardware budget in bytes (for the Table-1 style sizing asserts).
    fn size_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_default_is_empty() {
        assert_eq!(Tag::default(), Tag::EMPTY);
        assert_eq!(Tag::EMPTY.row2, u32::MAX);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _take(_: &mut dyn BranchPredictor) {}
    }
}
