//! The execution-driven out-of-order core timing model.
//!
//! # Modelling approach
//!
//! The functional emulator supplies the committed-path instruction stream
//! (oracle values included); the simulator propagates per-instruction
//! *stage timestamps* — fetch, rename, issue, execute, commit — through
//! bounded resource models (Table 1 widths, queues, physical registers,
//! functional units, the cache hierarchy). Mispredicted branches stall
//! fetch until resolution plus the 10-cycle recovery (the classic
//! stall-on-mispredict approximation: no wrong-path fetch; speculative
//! predictor state is checkpoint-repaired exactly).
//!
//! # The predicate-prediction lifecycle (paper §3)
//!
//! * a fetched compare starts a predicate prediction keyed by the
//!   *compare* PC; at the compare's rename the predictions land in the
//!   predicate physical register file (PPRF) with the speculative bit set,
//! * a consumer (conditional branch, or predicated instruction under the
//!   selective model) renames its guard and reads the PPRF: if the compare
//!   has already executed it reads the *computed* value — an
//!   **early-resolved** branch, always correct; otherwise it uses the
//!   prediction,
//! * when the compare executes, the PPRF is updated; a mismatch against a
//!   used prediction flushes from the first consumer (the ROB pointer of
//!   Figure 3) with the 10-cycle recovery, and the global history bit the
//!   compare inserted is repaired in place — compares fetched in between
//!   keep their corrupted-history predictions (§3.3).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use ppsim_isa::{ExecInfo, ExecRecord, Insn, InsnSource, Machine, Program};
use ppsim_mem::{Hierarchy, HierarchyConfig, HierarchyStats};
use ppsim_obs::{EventKind, EventRing, StallBucket, TraceEvent};
use ppsim_predictors::{
    BranchPredictor, BranchRole, PerceptronConfig, PerceptronPredictor, PredicateRole, Prediction,
    SchemeSpec,
};

use crate::config::{CoreConfig, PredicationModel};
use crate::decode::{self, flag, DecodeTable};
use crate::fxhash::FxMap;
use crate::options::{SimOptions, TestFault};
use crate::phases::{self, PhaseAcc, PhaseReport};
use crate::resources::{Pool, UnitSet, WidthLimiter};
use crate::stats::SimStats;

/// Number of architectural predicate registers tracked.
const NUM_PR: usize = 64;
/// I-cache line size for fetch-break modelling.
const ILINE: u64 = 64;

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Collected statistics.
    pub stats: SimStats,
    /// Whether the program halted (vs. exhausting the commit budget).
    pub halted: bool,
}

/// Rename-time view of the architectural predicate registers, stored as
/// flat per-field arrays (SoA) sized by the architectural register
/// count. The hot loop reads only the fields the current record needs —
/// one `u64` load per field instead of copying a whole per-register
/// struct — and the single-bit fields pack into one `u64` mask each.
///
/// Per register the file tracks: the cycle the computed value becomes
/// available (`done`, producer execute), the computed value itself
/// (oracle, from the trace), the stored prediction if the producer
/// generated one (value + confidence, with `pred_avail` the cycle it
/// lands in the PPRF at producer rename), the predictor tag for history
/// repair (realistic predicate scheme), the global-history push counter
/// right after the producer's push, the computed value of the *primary*
/// target (the bit the producer pushed into the global history), and
/// whether a wrong use of the prediction has already flushed (only the
/// first consumer flushes).
struct PredFile {
    done: [u64; NUM_PR],
    pred_avail: [u64; NUM_PR],
    push_index: [u64; NUM_PR],
    tag: [Option<ppsim_predictors::PredicatePrediction>; NUM_PR],
    /// Computed values, one bit per register.
    value: u64,
    /// Whether a stored prediction exists, one bit per register.
    pred_some: u64,
    /// Stored predicted values.
    pred_value: u64,
    /// Stored prediction confidence bits.
    pred_conf: u64,
    /// Primary-target computed values (history repair).
    primary_actual: u64,
    /// First-consumer-flushed bits.
    flushed: u64,
}

impl PredFile {
    /// All registers constant-false except the hardwired constant-true
    /// `p0`, no predictions stored.
    fn new() -> Self {
        PredFile {
            done: [0; NUM_PR],
            pred_avail: [0; NUM_PR],
            push_index: [0; NUM_PR],
            tag: [None; NUM_PR],
            value: 1,
            pred_some: 0,
            pred_value: 0,
            pred_conf: 0,
            primary_actual: 1,
            flushed: 0,
        }
    }

    #[inline]
    fn set_bit(mask: &mut u64, i: usize, v: bool) {
        *mask = (*mask & !(1 << i)) | ((v as u64) << i);
    }

    #[inline]
    fn value(&self, i: usize) -> bool {
        self.value >> i & 1 != 0
    }

    #[inline]
    fn set_value(&mut self, i: usize, v: bool) {
        Self::set_bit(&mut self.value, i, v);
    }

    /// The stored prediction: `(value, confident)` when one exists.
    #[inline]
    fn pred(&self, i: usize) -> Option<(bool, bool)> {
        (self.pred_some >> i & 1 != 0)
            .then(|| (self.pred_value >> i & 1 != 0, self.pred_conf >> i & 1 != 0))
    }

    #[inline]
    fn set_pred(&mut self, i: usize, value: bool, confident: bool) {
        self.pred_some |= 1 << i;
        Self::set_bit(&mut self.pred_value, i, value);
        Self::set_bit(&mut self.pred_conf, i, confident);
    }

    #[inline]
    fn flushed(&self, i: usize) -> bool {
        self.flushed >> i & 1 != 0
    }

    #[inline]
    fn set_flushed(&mut self, i: usize, v: bool) {
        Self::set_bit(&mut self.flushed, i, v);
    }

    #[inline]
    fn primary_actual(&self, i: usize) -> bool {
        self.primary_actual >> i & 1 != 0
    }

    #[inline]
    fn set_primary_actual(&mut self, i: usize, v: bool) {
        Self::set_bit(&mut self.primary_actual, i, v);
    }
}

/// One profiler lap: charges the time since the previous lap to `acc`
/// and restarts the clock. Consecutive laps telescope, so the bucket sum
/// equals the measured wall time of the enclosing region exactly.
/// Monomorphized away (no timestamp read, no branch) when `ON` is false.
#[inline(always)]
fn lap<const ON: bool>(last: &mut Option<Instant>, acc: &mut u64) {
    if ON {
        let now = Instant::now();
        if let Some(prev) = last.replace(now) {
            *acc += now.duration_since(prev).as_nanos() as u64;
        }
    }
}

/// The simulator: instruction source + timing model + predictors.
///
/// The source `S` feeds the committed-stream records the timing model
/// replays: the default inline [`Machine`] (execution-driven mode, used
/// by the differential oracle for lockstep architectural diffing) or a
/// [`ppsim_isa::TraceCursor`] over a shared capture (trace-driven mode,
/// the sweep fast path). Both modes are built through
/// [`SimOptions::build_source`].
pub struct Simulator<S: InsnSource = Machine> {
    source: S,
    hierarchy: Hierarchy,
    cfg: CoreConfig,
    predication: PredicationModel,
    // The paper's two predictor roles: branch at fetch (and the override
    // at rename), predicate at compares (predicate schemes only).
    branch: BranchRole,
    predicate: Option<PredicateRole>,
    // PEP-PA's predicate-register writes, (execute cycle, register,
    // value), replayed in time order before each fetch prediction: the
    // out-of-order writes that mislead PEP-PA on an OoO core. `None` for
    // branch roles that read no predicate writes.
    pred_writes: Option<BinaryHeap<Reverse<(u64, u8, bool)>>>,
    shadow: Option<PerceptronPredictor>,
    // Check-harness knobs: oracle-exact ideal-conventional predictions,
    // and a deliberate predictor fault to prove the oracle catches one.
    oracle_final: bool,
    fault: Option<TestFault>,

    // Bandwidth limiters.
    fetch: WidthLimiter,
    rename: WidthLimiter,
    commit: WidthLimiter,
    // Bounded structures.
    rob: Pool,
    iq_int: Pool,
    iq_fp: Pool,
    iq_br: Pool,
    lq: Pool,
    sq: Pool,
    phys_int: Pool,
    phys_fp: Pool,
    phys_pred: Pool,
    // Functional units.
    int_units: UnitSet,
    fp_units: UnitSet,
    mem_units: UnitSet,
    br_units: UnitSet,

    // Static per-slot decode side-table (latency/IQ/unit classes,
    // resource needs, guard and register indices) and the latency table
    // its classes index — one load + bit tests per record instead of
    // per-record `Op` matches.
    decode: DecodeTable,
    lat: [u64; decode::lat::COUNT],
    // Scoreboard: cycle each architectural register's latest value is
    // available (program-order processing makes this the rename-time view).
    gr_done: [u64; 128],
    fr_done: [u64; 128],
    preds: PredFile,
    // Store forwarding: 8-byte-aligned address → (data-ready cycle, commit
    // cycle). Queried per load and written per store — fast hasher.
    stores: FxMap<u64, (u64, u64)>,
    // Global-history push counter (predicate schemes).
    ghr_pushes: u64,
    // Deferred history repairs: a mispredicted compare corrects the bit it
    // pushed when it *executes* (writeback). Compares fetched before that
    // cycle keep predicting with the corrupted bit — the §3.3 corruption
    // window. Entries: (repair cycle, primary prediction tag, computed
    // primary value, push index at prediction).
    pending_repairs: Vec<(u64, ppsim_predictors::PredicatePrediction, bool, u64)>,

    last_iline: u64,
    last_commit: u64,
    // Sampled-run measurement base: `begin_measurement` pins the commit
    // frontier and a hierarchy-counter snapshot here, so a measured
    // window reports cycles and memory statistics relative to where its
    // warmup phase ended. Both stay zero on ordinary full runs.
    cycle_base: u64,
    mem_base: HierarchyStats,
    // Stall bucket the most recent front-end redirect (mispredict, flush
    // or override re-steer) charges the next fetched instruction to.
    pending_redirect: Option<StallBucket>,
    stats: SimStats,
    // Per-static-branch (executions, mispredictions), indexed by slot —
    // a flat side-table like the decode table, with a spill map for the
    // (never-exercised in practice) slots beyond the installed code
    // image. One indexed add replaces a hash-map entry per branch.
    branch_hist: Vec<(u64, u64)>,
    branch_hist_spill: FxMap<u32, (u64, u64)>,
    events: Option<EventRing>,
    // Persistent staging buffer for per-instruction events, reused across
    // `process` calls so the hot path never allocates.
    ev_scratch: Vec<(u64, EventKind)>,
    // Phase-profiler accumulator; present only on profiled runs (the
    // record loop is monomorphized on its presence, so unprofiled runs
    // carry zero instrumentation).
    phases: Option<Box<PhaseAcc>>,
}

impl Simulator {
    /// Builds a simulator for `program` with the paper's memory system.
    ///
    /// Shorthand for [`SimOptions::new`] + `build` with no overrides; use
    /// the builder for instrumentation (event tracing, the shadow
    /// predictor) or predictor-geometry overrides.
    pub fn new(
        program: &Program,
        scheme: SchemeSpec,
        predication: PredicationModel,
        cfg: CoreConfig,
    ) -> Self {
        Simulator::from_options(program, SimOptions::new(scheme, predication).core(cfg))
    }

    /// Builds from pre-validated options ([`SimOptions::build`] is the
    /// public entry point).
    pub(crate) fn from_options(program: &Program, opts: SimOptions) -> Self {
        Simulator::from_source(Machine::new(program), opts)
    }

    /// The architectural machine state after the committed stream so far:
    /// registers, predicates and memory exactly as the functional emulator
    /// left them. The differential check oracle diffs this against an
    /// independent reference `Machine` run.
    pub fn machine(&self) -> &Machine {
        &self.source
    }
}

impl<S: InsnSource> Simulator<S> {
    /// Builds the timing model around an arbitrary instruction source
    /// ([`SimOptions::build_source`] is the public entry point).
    pub(crate) fn from_source(source: S, opts: SimOptions) -> Self {
        let cfg = opts.core;
        let (branch, predicate) = opts.scheme.build(opts.perceptron, opts.predicate);
        let decode = DecodeTable::new(source.code());
        let code_slots = decode.len();
        Simulator {
            source,
            hierarchy: Hierarchy::new(HierarchyConfig::paper()),
            predication: opts.predication,
            pred_writes: branch.reads_predicate_writes().then(BinaryHeap::new),
            branch,
            predicate,
            shadow: opts
                .shadow
                .then(|| PerceptronPredictor::new(PerceptronConfig::paper_148kb())),
            oracle_final: opts.oracle_final,
            fault: opts.fault,
            fetch: WidthLimiter::new(cfg.fetch_width),
            rename: WidthLimiter::new(cfg.rename_width),
            commit: WidthLimiter::new(cfg.commit_width),
            rob: Pool::new(cfg.rob_entries),
            iq_int: Pool::new(cfg.iq_int),
            iq_fp: Pool::new(cfg.iq_fp),
            iq_br: Pool::new(cfg.iq_branch),
            lq: Pool::new(cfg.lq_entries),
            sq: Pool::new(cfg.sq_entries),
            phys_int: Pool::new(cfg.phys_int),
            phys_fp: Pool::new(cfg.phys_fp),
            phys_pred: Pool::new(cfg.phys_pred),
            int_units: UnitSet::new(cfg.int_units),
            fp_units: UnitSet::new(cfg.fp_units),
            mem_units: UnitSet::new(cfg.mem_ports),
            br_units: UnitSet::new(cfg.branch_units),
            decode,
            lat: decode::lat_table(&cfg.latencies),
            gr_done: [0; 128],
            fr_done: [0; 128],
            preds: PredFile::new(),
            stores: FxMap::default(),
            ghr_pushes: 0,
            pending_repairs: Vec::new(),
            last_iline: u64::MAX,
            last_commit: 0,
            cycle_base: 0,
            mem_base: HierarchyStats::default(),
            pending_redirect: None,
            stats: SimStats::default(),
            branch_hist: vec![(0, 0); code_slots],
            branch_hist_spill: FxMap::default(),
            events: (opts.trace_events > 0).then(|| EventRing::new(opts.trace_events)),
            ev_scratch: Vec::new(),
            phases: opts.profile_phases.then(Box::default),
            cfg,
        }
    }

    /// Rebuilds the per-slot decode table from `code`. The fused-lane
    /// driver ([`crate::LaneSet`]) builds its lanes on an empty
    /// [`crate::NullSource`] and installs the shared capture's code
    /// image here.
    pub(crate) fn install_code(&mut self, code: &[Insn]) {
        self.decode = DecodeTable::new(code);
        self.branch_hist = vec![(0, 0); self.decode.len()];
    }

    /// The accumulated phase attribution, when this simulator was built
    /// with [`SimOptions::profile_phases`].
    pub fn phase_report(&self) -> Option<PhaseReport> {
        self.phases.as_deref().copied().map(PhaseReport::from)
    }

    /// Per-static-branch rows `(slot, executions, mispredictions)`, sorted
    /// by slot for deterministic reporting.
    pub fn branch_histogram(&self) -> Vec<(u32, u64, u64)> {
        let mut rows: Vec<(u32, u64, u64)> = self
            .branch_hist
            .iter()
            .enumerate()
            .filter(|&(_, &(execs, _))| execs > 0)
            .map(|(slot, &(execs, miss))| (slot as u32, execs, miss))
            .collect();
        rows.extend(
            self.branch_hist_spill
                .iter()
                .map(|(&slot, &(execs, miss))| (slot, execs, miss)),
        );
        rows.sort_unstable_by_key(|&(slot, _, _)| slot);
        rows
    }

    /// The recorded event trace, if tracing was enabled.
    pub fn events(&self) -> Option<&EventRing> {
        self.events.as_ref()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Runs until the source's program halts, the source's captured
    /// stream ends, or `max_commits` instructions commit.
    pub fn run(&mut self, max_commits: u64) -> RunResult {
        let mut halted = false;
        while self.stats.committed < max_commits {
            match self.source.next_record() {
                Ok(Some(rec)) => self.process(&rec),
                Ok(None) => {
                    halted = self.source.ended_halted();
                    break;
                }
                Err(e) => panic!("functional machine died: {e}"),
            }
        }
        self.finalize(halted)
    }

    /// Feeds one externally-decoded record through the timing model,
    /// bypassing this simulator's own source — the fused-lane driver
    /// ([`crate::LaneSet`]) decodes each record once and steps every lane
    /// with it. Exactly one instruction commits per record, so lanes
    /// driven in lockstep stay in lockstep.
    pub(crate) fn step(&mut self, rec: &ExecRecord) {
        self.process(rec);
    }

    /// Folds the end-of-run derived statistics (memory-hierarchy deltas
    /// relative to the measurement base, the per-branch histogram) into
    /// the result. `run` and the fused-lane driver share this so a fused
    /// lane's report is structurally identical to a solo run's.
    pub(crate) fn finalize(&mut self, halted: bool) -> RunResult {
        self.stats.mem = self.hierarchy.stats().delta_since(&self.mem_base);
        self.stats.branch_pcs = self.branch_histogram();
        RunResult {
            stats: self.stats.clone(),
            halted,
        }
    }

    /// The first-level gshare's global-history register, `None` for
    /// schemes without one. Fault-injection hook for the fused-lane
    /// isolation check; never read on measurement runs.
    #[doc(hidden)]
    pub fn l1_ghr(&self) -> Option<u64> {
        match &self.branch {
            BranchRole::Gshare { l1, .. } => Some(l1.ghr_value()),
            _ => None,
        }
    }

    /// Overwrites the first-level gshare's global-history register (no-op
    /// for schemes without one). Fault-injection hook for the fused-lane
    /// isolation check; never called on measurement runs.
    #[doc(hidden)]
    pub fn set_l1_ghr(&mut self, value: u64) {
        if let BranchRole::Gshare { l1, .. } = &mut self.branch {
            l1.set_ghr_value(value);
        }
    }

    /// Starts a measured window: everything simulated so far (the warmup
    /// phase) trained the predictors, caches and TLBs but is dropped from
    /// the reported statistics. Counters reset to zero; cycles and memory
    /// statistics are reported relative to the current commit frontier and
    /// hierarchy counters, so the pinned `stall.total() == cycles`
    /// invariant holds *per measured window*.
    pub fn begin_measurement(&mut self) {
        self.cycle_base = self.last_commit;
        self.mem_base = self.hierarchy.stats();
        self.stats = SimStats::default();
        self.branch_hist.fill((0, 0));
        self.branch_hist_spill.clear();
        if let Some(ring) = self.events.as_mut() {
            ring.push(TraceEvent {
                seq: 0,
                pc: 0,
                cycle: self.cycle_base,
                kind: EventKind::MeasurementBegin,
            });
        }
    }

    /// Runs one sampled window: `warmup` committed instructions through
    /// the full timing model with statistics suppressed, then `measure`
    /// committed instructions that are reported. The source must already
    /// be positioned at the window start (a [`ppsim_isa::TraceCursor`]
    /// window into a capture, or a machine fast-forwarded to the start).
    pub fn run_sample(&mut self, warmup: u64, measure: u64) -> RunResult {
        self.run(warmup);
        self.begin_measurement();
        self.run(measure)
    }

    /// Fetch-time direction prediction for a conditional branch; `None`
    /// when the branch role has no fetch stage (ideal conventional).
    /// Predicate-register writes that have executed by cycle `fetch` reach
    /// the role first, out of program order.
    fn fetch_predict(&mut self, pc: u64, guard: u8, fetch: u64) -> Option<Prediction> {
        if let Some(writes) = self.pred_writes.as_mut() {
            while let Some(&Reverse((t, preg, v))) = writes.peek() {
                if t > fetch {
                    break;
                }
                writes.pop();
                self.branch.note_predicate_write(preg, v);
            }
        }
        self.branch.fetch_predict(pc, guard)
    }

    /// Routes one record to the monomorphized record loop. The four
    /// instantiations differ only in which instrumentation they carry:
    /// the common (untraced, unprofiled) grid path compiles with zero
    /// `if tracing` checks, no event-buffer take/put and no timestamp
    /// reads.
    fn process(&mut self, rec: &ExecRecord) {
        match (self.events.is_some(), self.phases.is_some()) {
            (false, false) => self.process_rec::<false, false>(rec),
            (true, false) => self.process_rec::<true, false>(rec),
            (false, true) => self.process_rec::<false, true>(rec),
            (true, true) => self.process_rec::<true, true>(rec),
        }
    }

    fn process_rec<const TRACING: bool, const PROFILING: bool>(&mut self, rec: &ExecRecord) {
        let mut last: Option<Instant> = if PROFILING {
            Some(Instant::now())
        } else {
            None
        };
        let mut ph = [0u64; phases::COUNT];
        let pc = Program::pc_of(rec.slot);
        // One indexed load replaces the per-record `Op` matches: latency,
        // IQ/unit class, resource needs and register indices are static
        // per slot (see `crate::decode`).
        let meta = self.decode.meta(rec.slot, &rec.insn);
        // Event staging area: (cycle, kind) pairs flushed to the ring once
        // every timestamp is known (the ring cannot be borrowed while the
        // predictors are). The buffer persists across calls so the hot
        // path never allocates; untraced instantiations never touch it.
        let mut evs = if TRACING {
            std::mem::take(&mut self.ev_scratch)
        } else {
            Vec::new()
        };

        // The first instruction fetched after a redirect inherits its
        // cause for stall attribution.
        let redirect_bucket = self.pending_redirect.take();

        // ---- Fetch ----
        let mut f = self.fetch.book(0);
        let mut fetch_delayed = false;
        let iline = pc / ILINE;
        if iline != self.last_iline {
            let done = self.hierarchy.inst_fetch(f, pc);
            if done > f + 1 {
                fetch_delayed = true;
                self.fetch.redirect(done);
                f = self.fetch.book(0);
            }
            self.last_iline = iline;
        }
        self.stats.fetched += 1;
        lap::<PROFILING>(&mut last, &mut ph[phases::FETCH]);

        // Fetch-time prediction state for branches.
        let is_cond_branch = meta.is(flag::COND_BRANCH);
        let l1_pred = if is_cond_branch {
            self.fetch_predict(pc, meta.qp, f)
        } else {
            None
        };
        lap::<PROFILING>(&mut last, &mut ph[phases::PREDICT]);

        // Predicate predictions are generated at compare fetch (realistic
        // scheme) or oracle-computed (ideal scheme); they are written to
        // the PPRF at the compare's rename, handled below once the rename
        // cycle is known.

        // ---- Rename ----
        let mut r = self.rename.book(f + self.cfg.front_stages);
        // Structural resources that gate rename.
        let mut gate = r;
        gate = gate.max(self.rob.earliest(r));
        let iq = match meta.iq {
            decode::iq::BR => &mut self.iq_br,
            decode::iq::FP => &mut self.iq_fp,
            _ => &mut self.iq_int,
        };
        gate = gate.max(iq.earliest(r));
        if meta.is(flag::LOAD) {
            gate = gate.max(self.lq.earliest(r));
        }
        if meta.is(flag::STORE) {
            gate = gate.max(self.sq.earliest(r));
        }
        if meta.gr_dst != decode::NO_REG {
            gate = gate.max(self.phys_int.earliest(r));
        }
        if meta.fr_dst != decode::NO_REG {
            gate = gate.max(self.phys_fp.earliest(r));
        }
        for _ in 0..meta.pr_dst_count {
            gate = gate.max(self.phys_pred.earliest(r));
        }
        let rename_gated = gate > r;
        if rename_gated {
            self.rename.redirect(gate);
            r = self.rename.book(0);
        }
        self.stats.renamed += 1;
        lap::<PROFILING>(&mut last, &mut ph[phases::RENAME]);

        // ---- Compare: generate predictions into the PPRF ----
        if meta.is(flag::CMP) {
            self.stats.compares += 1;
            // The paper's prediction is pipelined from fetch to rename
            // ("a multicycle prediction can be performed"); the history is
            // read at the end of that window, so repairs that land by the
            // rename cycle are visible.
            self.apply_pending_repairs(r);
            self.compare_predict(rec, pc, r);
        }

        // ---- Consumer behaviour at rename ----
        // Snapshot the guard register AFTER the compare block above: a
        // compare whose qualifying predicate aliases its own target must
        // observe its freshly installed prediction state.
        let guard_idx = meta.qp as usize;
        let guard_done = self.preds.done[guard_idx];
        let guard_value = self.preds.value(guard_idx);
        let guard_pred = self.preds.pred(guard_idx);
        let guard_pred_avail = self.preds.pred_avail[guard_idx];
        let guard_known_at_rename = guard_done <= r;

        // Selective predication decisions (non-branch predicated
        // instructions under the predicate scheme).
        #[derive(PartialEq)]
        enum Disposition {
            Normal,
            Cmov,
            Cancelled { wrong: bool },
            Unguarded { wrong: bool },
        }
        let mut disposition = Disposition::Normal;
        if meta.flags & (flag::PREDICATED | flag::BRANCH | flag::CMP) == flag::PREDICATED {
            disposition = match self.predication {
                PredicationModel::Cmov => Disposition::Cmov,
                PredicationModel::Selective if self.predicate.is_none() => Disposition::Cmov,
                PredicationModel::Selective => {
                    if guard_known_at_rename {
                        if guard_value {
                            Disposition::Unguarded { wrong: false }
                        } else {
                            Disposition::Cancelled { wrong: false }
                        }
                    } else {
                        match guard_pred {
                            Some((pv, true)) if guard_pred_avail <= r => {
                                if pv {
                                    self.stats.unguarded_at_rename += 1;
                                    if TRACING {
                                        evs.push((
                                            r,
                                            EventKind::UnguardAtRename { wrong: !rec.qp },
                                        ));
                                    }
                                    Disposition::Unguarded { wrong: !rec.qp }
                                } else {
                                    self.stats.cancelled_at_rename += 1;
                                    if TRACING {
                                        evs.push((r, EventKind::CancelAtRename { wrong: rec.qp }));
                                    }
                                    Disposition::Cancelled { wrong: rec.qp }
                                }
                            }
                            _ => Disposition::Cmov,
                        }
                    }
                }
            };
        }

        // ---- Branch final prediction at rename ----
        let mut branch_final: Option<bool> = None;
        let mut branch_early_resolved = false;
        let mut branch_used_pprf_pred = false;
        let mut late_pred: Option<Prediction> = None;
        if is_cond_branch {
            let actual = rec.qp; // a branch is taken iff its guard is true
            late_pred = self.branch.rename_predict(pc, guard_idx as u8, actual);
            let fallback = late_pred.or(l1_pred).is_some_and(|p| p.taken);
            let (final_dir, early, used_pred) = if self.predicate.is_none() {
                // Oracle-exact mode (check harness, ideal conventional
                // only): the final direction *is* the outcome, so "zero
                // mispredict flushes" holds as a hard invariant — unless
                // the injected fault deliberately breaks it.
                let oracle = actual ^ (self.fault == Some(TestFault::InvertOracle));
                let dir = if self.oracle_final { oracle } else { fallback };
                (dir, false, false)
            } else if guard_known_at_rename {
                // Fault injection (check harness): corrupt the computed
                // guard an early-resolved branch consumes.
                let flip = self.fault == Some(TestFault::InvertEarlyResolve);
                (guard_value ^ flip, true, false)
            } else {
                match guard_pred {
                    Some((pv, _)) if guard_pred_avail <= r => (pv, false, true),
                    // No prediction in the PPRF yet (back-to-back
                    // compare/branch): fall back to the fetch prediction.
                    _ => (fallback, false, false),
                }
            };
            branch_final = Some(final_dir);
            branch_early_resolved = early;
            branch_used_pprf_pred = used_pred;
            if early {
                self.stats.early_resolved += 1;
            }
            if TRACING {
                if early {
                    evs.push((r, EventKind::EarlyResolve { taken: final_dir }));
                } else {
                    evs.push((
                        r,
                        EventKind::PredictionMade {
                            taken: final_dir,
                            from_predicate: used_pred,
                        },
                    ));
                }
            }
            // Second-level override re-steer.
            if let Some(l1p) = l1_pred.as_ref() {
                if l1p.taken != final_dir {
                    self.stats.overrides += 1;
                    if TRACING {
                        evs.push((
                            r,
                            EventKind::PredictionOverridden {
                                from: l1p.taken,
                                to: final_dir,
                            },
                        ));
                    }
                    self.pending_redirect = Some(StallBucket::FlushRecovery);
                    self.fetch.redirect(r + self.cfg.override_bubble);
                    // Repair the first-level history to the overriding
                    // direction.
                    self.branch.recover_fetch(l1p, final_dir);
                }
            }
        }

        lap::<PROFILING>(&mut last, &mut ph[phases::PREDICT]);

        // ---- Dependencies ----
        let mut ready = r + 1;
        if meta.gr_src0 != decode::NO_REG {
            ready = ready.max(self.gr_done[meta.gr_src0 as usize]);
        }
        if meta.gr_src1 != decode::NO_REG {
            ready = ready.max(self.gr_done[meta.gr_src1 as usize]);
        }
        if meta.fr_src0 != decode::NO_REG {
            ready = ready.max(self.fr_done[meta.fr_src0 as usize]);
        }
        if meta.fr_src1 != decode::NO_REG {
            ready = ready.max(self.fr_done[meta.fr_src1 as usize]);
        }
        // Guard as a data dependence: branches verify against the computed
        // predicate; compares read their qualifying predicate; cmov-style
        // predicated instructions read guard and old destination.
        let needs_guard = meta.is(flag::PREDICATED)
            && (meta.flags & (flag::BRANCH | flag::CMP) != 0
                || disposition == Disposition::Cmov
                || disposition == Disposition::Normal);
        if needs_guard {
            ready = ready.max(guard_done);
        }
        if disposition == Disposition::Cmov {
            if meta.gr_dst != decode::NO_REG {
                ready = ready.max(self.gr_done[meta.gr_dst as usize]);
            }
            if meta.fr_dst != decode::NO_REG {
                ready = ready.max(self.fr_done[meta.fr_dst as usize]);
            }
        }

        // ---- Issue & execute ----
        let cancelled = matches!(disposition, Disposition::Cancelled { .. });
        let lat = self.lat[meta.lat as usize];
        let mut exec_done;
        let mut issue = r; // for IQ release bookkeeping
        if cancelled {
            // Removed from the pipeline at rename: no IQ wait, no FU.
            exec_done = r + 1;
        } else {
            let unit = match meta.unit {
                decode::unit::BR => &mut self.br_units,
                decode::unit::FP => &mut self.fp_units,
                decode::unit::MEM => &mut self.mem_units,
                _ => &mut self.int_units,
            };
            issue = unit.issue(ready);
            exec_done = issue + lat;
            if meta.is(flag::LOAD) && rec.qp {
                if let ExecInfo::Mem { addr } = rec.info {
                    let a8 = addr & !7;
                    if let Some(&(data_ready, st_commit)) = self.stores.get(&a8) {
                        if st_commit > issue {
                            // Store-to-load forwarding from the store queue.
                            exec_done = issue.max(data_ready) + 1;
                        } else {
                            exec_done = self.hierarchy.data_access(issue, addr, false);
                        }
                    } else {
                        exec_done = self.hierarchy.data_access(issue, addr, false);
                    }
                }
            }
        }
        lap::<PROFILING>(&mut last, &mut ph[phases::EXEC]);

        // ---- Predicate-speculation verification (consumer flush) ----
        // A consumer that used a wrong stored prediction is flushed when
        // the producer executes; it refetches and completes with the
        // computed value.
        let penalty = self.cfg.mispredict_penalty;
        let mut flush_refetch: Option<u64> = None;
        // Which stall bucket this instruction's own flush-refetch (and the
        // refetch of everything behind it) is charged to.
        let mut flush_bucket: Option<StallBucket> = None;
        match disposition {
            Disposition::Cancelled { wrong: true } | Disposition::Unguarded { wrong: true } => {
                if !self.preds.flushed(guard_idx) {
                    self.preds.set_flushed(guard_idx, true);
                    self.stats.predication_flushes += 1;
                    if TRACING {
                        evs.push((guard_done, EventKind::PredicationFlush));
                    }
                    if self.cfg.history_repair {
                        self.repair_predicate_history(guard_idx);
                        if TRACING {
                            evs.push((guard_done, EventKind::PredictionUndone));
                        }
                    }
                }
                flush_refetch = Some(guard_done + penalty);
                flush_bucket = Some(StallBucket::PredicationFlush);
            }
            _ => {}
        }

        let mut branch_mispredicted = false;
        if let Some(final_dir) = branch_final {
            let actual = rec.qp;
            let h = match self.branch_hist.get_mut(rec.slot as usize) {
                Some(h) => h,
                None => self.branch_hist_spill.entry(rec.slot).or_insert((0, 0)),
            };
            h.0 += 1;
            if final_dir != actual {
                h.1 += 1;
                branch_mispredicted = true;
                self.stats.mispredicts += 1;
                if branch_early_resolved {
                    // §3.2: an early-resolved branch consumed the computed
                    // predicate, so a mismatch is a pipeline bug (or an
                    // injected check-harness fault). The oracle pins this
                    // counter to zero.
                    self.stats.early_resolved_mispredicts += 1;
                }
                if branch_used_pprf_pred {
                    // Detected when the producing compare executes: flush
                    // from this branch (the recorded ROB pointer).
                    if !self.preds.flushed(guard_idx) {
                        self.preds.set_flushed(guard_idx, true);
                        if self.cfg.history_repair {
                            self.repair_predicate_history(guard_idx);
                            if TRACING {
                                evs.push((guard_done, EventKind::PredictionUndone));
                            }
                        }
                    }
                    flush_refetch = Some(guard_done + penalty);
                    flush_bucket = Some(StallBucket::FlushRecovery);
                    if TRACING {
                        evs.push((guard_done, EventKind::BranchFlush));
                    }
                } else {
                    // Detected at branch execution.
                    self.fetch.redirect(exec_done + penalty);
                    self.fetch.break_group();
                    self.pending_redirect = Some(StallBucket::FlushRecovery);
                    if TRACING {
                        evs.push((exec_done, EventKind::BranchFlush));
                    }
                }
            }
            // Repair the branch role's histories on a mispredict, then
            // train it with the outcome.
            let (fetch, late) = (l1_pred.as_ref(), late_pred.as_ref());
            self.branch
                .resolve(fetch, late, actual, branch_mispredicted);
            // Shadow conventional predictor (Figure 6b attribution).
            if let Some(shadow) = self.shadow.as_mut() {
                let sp = shadow.predict(pc, guard_idx as u8);
                if sp.taken != actual {
                    self.stats.shadow_mispredicts += 1;
                    if branch_early_resolved {
                        self.stats.early_resolved_saves += 1;
                    }
                    shadow.recover(&sp, actual);
                }
                shadow.train(&sp, actual);
            }
        }

        // A consumer flush restarts this instruction after the producer
        // resolves; post-flush it reads the computed predicate.
        if let Some(f2) = flush_refetch {
            self.fetch.redirect(f2);
            self.fetch.break_group();
            self.pending_redirect = flush_bucket;
            let r2 = f2 + self.cfg.front_stages;
            exec_done = (r2 + 1).max(ready) + lat;
            issue = issue.max(r2 + 1);
            // The squashed consumer travels fetch and rename a second
            // time; wrong-path instructions behind it are not modelled
            // individually (stall-on-mispredict), so these counters track
            // committed-path stage traffic only.
            self.stats.fetched += 1;
            self.stats.renamed += 1;
        }

        // ---- Writeback: scoreboard and PPRF updates ----
        if rec.qp || matches!(disposition, Disposition::Cmov) {
            if meta.gr_dst != decode::NO_REG {
                self.gr_done[meta.gr_dst as usize] = exec_done;
            }
            if meta.fr_dst != decode::NO_REG {
                self.fr_done[meta.fr_dst as usize] = exec_done;
            }
        }
        if let ExecInfo::Cmp {
            pt_write, pf_write, ..
        } = rec.info
        {
            let [pt, pf] = rec.insn.pr_dsts();
            // The primary target is the one whose predicted bit fed the
            // global history: pt when it names a real register, else pf.
            let primary_actual = if pt.is_some() {
                pt_write.unwrap_or(false)
            } else {
                pf_write.unwrap_or(false)
            };
            let pairs = [(pt, pt_write), (pf, pf_write)];
            for (target, write) in pairs {
                let (Some(target), Some(value)) = (target, write) else {
                    continue;
                };
                let i = target.index();
                self.preds.done[i] = exec_done;
                self.preds.set_value(i, value);
                self.preds.set_primary_actual(i, primary_actual);
                self.preds.set_flushed(i, false);
                // pred/tag/pred_avail were installed by compare_predict.
                if let Some(writes) = self.pred_writes.as_mut() {
                    writes.push(Reverse((exec_done, i as u8, value)));
                }
            }
            // Writeback-time history repair: if the bit this compare
            // pushed was wrong, schedule its correction for the writeback
            // cycle. Only a realistic predicate role leaves a repair tag.
            if self.cfg.history_repair && self.predicate.is_some() {
                if let Some(primary) = pt.or(pf) {
                    let i = primary.index();
                    if let (Some((pv, _)), Some(tag)) = (self.preds.pred(i), self.preds.tag[i]) {
                        if pv != self.preds.primary_actual(i) {
                            self.pending_repairs.push((
                                exec_done,
                                tag,
                                self.preds.primary_actual(i),
                                self.preds.push_index[i],
                            ));
                        }
                    }
                }
            }
        }
        lap::<PROFILING>(&mut last, &mut ph[phases::EXEC]);

        // ---- Commit (in order) ----
        let prev_commit = self.last_commit;
        let c = self.commit.book((exec_done + 1).max(self.last_commit));
        self.last_commit = c;

        // ---- Stall attribution ----
        // The commit frontier advanced by `delta` cycles because of this
        // instruction; charge the whole advance to the single dominant
        // cause along its path. Charging commit-deltas makes the invariant
        // `cycles == Σ buckets` hold by construction: the frontier starts
        // at 0, is monotone, and ends at `stats.cycles`.
        let delta = c - prev_commit;
        if delta > 0 {
            let bucket = if let Some(b) = flush_bucket {
                // This instruction itself was flush-refetched.
                b
            } else if c > exec_done + 1 {
                // Ready before the frontier reached it: commit bandwidth.
                StallBucket::CommitBound
            } else if !cancelled && (ready > r + 1 || issue > ready || exec_done > issue + lat) {
                // Operand wait, functional-unit contention, or extended
                // execution (data-cache access).
                StallBucket::IssueWait
            } else if rename_gated {
                StallBucket::RenameStall
            } else if let Some(b) = redirect_bucket {
                // First fetch after a mispredict/flush/override redirect.
                b
            } else if fetch_delayed {
                StallBucket::FetchMiss
            } else {
                // Flowing at machine width: the useful-work baseline.
                StallBucket::CommitBound
            };
            self.stats.stall.charge(bucket, delta);
        }
        if meta.is(flag::STORE) && rec.qp {
            if let ExecInfo::Mem { addr } = rec.info {
                self.hierarchy.data_access(c, addr, true);
                self.stores.insert(addr & !7, (exec_done, c));
            }
        }

        // Register resource holds now that all timestamps are known.
        self.rob.acquire(r, c);
        let iq = match meta.iq {
            decode::iq::BR => &mut self.iq_br,
            decode::iq::FP => &mut self.iq_fp,
            _ => &mut self.iq_int,
        };
        if !cancelled {
            iq.acquire(r, issue + 1);
        }
        if meta.is(flag::LOAD) {
            self.lq.acquire(r, c);
        }
        if meta.is(flag::STORE) {
            self.sq.acquire(r, c);
        }
        if meta.gr_dst != decode::NO_REG {
            self.phys_int.acquire(r, c);
        }
        if meta.fr_dst != decode::NO_REG {
            self.phys_fp.acquire(r, c);
        }
        for _ in 0..meta.pr_dst_count {
            self.phys_pred.acquire(r, c);
        }

        if TRACING {
            evs.push((
                c,
                EventKind::Retire {
                    fetch: f,
                    rename: r,
                    issue,
                    exec: exec_done,
                    commit: c,
                },
            ));
            if let Some(ring) = self.events.as_mut() {
                for (cycle, kind) in evs.drain(..) {
                    ring.push(TraceEvent {
                        seq: rec.seq,
                        pc,
                        cycle,
                        kind,
                    });
                }
            }
            evs.clear();
            self.ev_scratch = evs;
        }

        // ---- Statistics ----
        self.stats.committed += 1;
        self.stats.cycles = c - self.cycle_base;
        if meta.is(flag::BRANCH) {
            if is_cond_branch {
                self.stats.cond_branches += 1;
            } else {
                self.stats.uncond_branches += 1;
            }
        }
        if meta.is(flag::PREDICATED) && !rec.qp {
            self.stats.nullified += 1;
        }
        if rec.is_taken_branch() {
            self.fetch.break_group();
        }

        lap::<PROFILING>(&mut last, &mut ph[phases::COMMIT]);
        if PROFILING {
            if let Some(acc) = self.phases.as_deref_mut() {
                for (a, d) in acc.nanos.iter_mut().zip(ph) {
                    *a += d;
                }
                acc.records += 1;
            }
        }
    }

    /// Generates the predicate predictions for a fetched compare and
    /// installs them in the PPRF view (available from the compare's rename
    /// cycle `r`).
    fn compare_predict(&mut self, rec: &ExecRecord, pc: u64, r: u64) {
        let [pt, pf] = rec.insn.pr_dsts();
        let Some(predicate) = self.predicate.as_mut() else {
            return;
        };
        if pt.is_none() && pf.is_none() {
            return;
        }
        // Values the compare will write (None for unwritten targets, e.g.
        // disqualified normal-type compares).
        let writes = match rec.info {
            ExecInfo::Cmp {
                pt_write, pf_write, ..
            } => [pt_write, pf_write],
            _ => [None, None],
        };
        let cp = predicate.predict_compare(pc, [pt.is_some(), pf.is_some()], writes);
        if cp.pushed {
            self.ghr_pushes += 1;
        }
        let [ppt, ppf] = cp.targets;
        for (target, write, prediction) in [(pt, writes[0], ppt), (pf, writes[1], ppf)] {
            let (Some(target), Some(prediction)) = (target, prediction) else {
                continue;
            };
            self.stats.predicate_predictions += 1;
            if write.is_some_and(|v| v != prediction.value) {
                self.stats.predicate_mispredictions += 1;
            }
            let i = target.index();
            self.preds
                .set_pred(i, prediction.value, prediction.confident);
            self.preds.pred_avail[i] = r;
            self.preds.tag[i] = prediction.repair;
            self.preds.push_index[i] = self.ghr_pushes;
            self.preds.set_flushed(i, false);
        }
    }

    /// Applies all deferred writeback-time history repairs whose compare
    /// has executed by cycle `now`. Ages are computed against the current
    /// push counter, so compares fetched inside the corruption window have
    /// already predicted with the wrong bit.
    fn apply_pending_repairs(&mut self, now: u64) {
        if self.pending_repairs.is_empty() {
            return;
        }
        let Some(predicate) = self.predicate.as_mut() else {
            return;
        };
        let pushes = self.ghr_pushes;
        self.pending_repairs
            .retain(|(cycle, tag, actual, push_index)| {
                if *cycle > now {
                    return true;
                }
                predicate.repair_history(tag, *actual, (pushes - push_index) as u32);
                false
            });
    }

    /// §3.3 recovery: fix the global-history bit the mispredicted
    /// producer inserted, leaving younger compares' (possibly corrupted)
    /// predictions in place. The bit pushed was the *primary* target's
    /// predicted value, so the repair writes the primary target's computed
    /// value — which is the complement of the consumer-visible value when
    /// the consumer guards on the second target of an `unc` compare.
    fn repair_predicate_history(&mut self, guard_idx: usize) {
        let (Some(predicate), Some(tag)) = (self.predicate.as_mut(), &self.preds.tag[guard_idx])
        else {
            return;
        };
        let age = (self.ghr_pushes - self.preds.push_index[guard_idx]) as u32;
        predicate.repair_history(tag, self.preds.primary_actual(guard_idx), age);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, PredicationModel};
    use ppsim_isa::{Asm, CmpRel, CmpType, Gr, Operand, Pr, TraceCursor};
    use ppsim_predictors::SchemeSpec;

    fn g(i: u8) -> Gr {
        Gr::new(i)
    }
    fn p(i: u8) -> Pr {
        Pr::new(i)
    }

    fn sim(program: &ppsim_isa::Program, scheme: SchemeSpec) -> Simulator {
        Simulator::new(program, scheme, PredicationModel::Cmov, CoreConfig::paper())
    }

    /// A counted loop with a data-dependent branch inside. `dist` filler
    /// ops separate the compare from its branch (after hoisting-like
    /// hand-placement).
    fn loop_with_branch(iters: i64, rnd: bool, dist: usize) -> ppsim_isa::Program {
        let mut a = Asm::new();
        // data array of pseudo-random words at 0x10000
        // 4096 words of well-mixed pseudo-random data: long enough that a
        // linear predictor cannot memorize the bit sequence.
        let words: Vec<i64> = (0..4096u64)
            .map(|i| {
                let mut x = i
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x1234_5678);
                x ^= x >> 29;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 32;
                (x & 0xff) as i64
            })
            .collect();
        a.data(ppsim_isa::DataSegment::from_words(0x10000, &words));
        a.init_gr(g(2), 0x10000);
        let top = a.new_label();
        a.movi(g(1), 0);
        a.bind(top);
        // idx = (i & 255) * 8; d = mem[base + idx]
        a.alu(ppsim_isa::AluKind::And, g(3), g(1), Operand::imm(4095));
        a.alu(ppsim_isa::AluKind::Shl, g(3), g(3), Operand::imm(3));
        a.add(g(4), g(2), g(3));
        a.ld(g(5), g(4), 0);
        if rnd {
            a.alu(ppsim_isa::AluKind::And, g(5), g(5), Operand::imm(1));
            a.cmp(CmpType::Unc, CmpRel::Ne, p(1), p(2), g(5), Operand::imm(0));
        } else {
            a.cmp(CmpType::Unc, CmpRel::Ge, p(1), p(2), g(5), Operand::imm(0)); // always true
        }
        for k in 0..dist {
            a.addi(g(10), g(10), k as i64 + 1);
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

    #[test]
    fn trace_replay_matches_inline_machine_exactly() {
        use ppsim_isa::TraceBuffer;
        use std::sync::Arc;

        let program = loop_with_branch(400, true, 2);
        let trace = Arc::new(TraceBuffer::capture(&program, 100_000).unwrap());
        assert!(trace.halted());
        for scheme in SchemeSpec::ALL {
            for predication in [PredicationModel::Cmov, PredicationModel::Selective] {
                let opts = SimOptions::new(scheme, predication).shadow(true);
                let inline = opts
                    .build_source(Machine::new(&program))
                    .unwrap()
                    .run(100_000);
                let replay = opts
                    .build_source(TraceCursor::new(Arc::clone(&trace)))
                    .unwrap()
                    .run(100_000);
                assert_eq!(inline.halted, replay.halted, "{scheme:?}/{predication:?}");
                assert_eq!(
                    inline.stats, replay.stats,
                    "replay must be stat-identical for {scheme:?}/{predication:?}"
                );
            }
        }
    }

    #[test]
    fn trace_replay_respects_commit_budget() {
        use ppsim_isa::TraceBuffer;
        use std::sync::Arc;

        let program = loop_with_branch(400, false, 0);
        // Capture covers exactly the budget; replay stops there unhalted,
        // just like the inline path would.
        let trace = Arc::new(TraceBuffer::capture(&program, 500).unwrap());
        let opts = SimOptions::new(SchemeSpec::Conventional, PredicationModel::Cmov);
        let inline = opts.build_source(Machine::new(&program)).unwrap().run(500);
        let replay = opts
            .build_source(TraceCursor::new(Arc::clone(&trace)))
            .unwrap()
            .run(500);
        assert!(!inline.halted);
        assert!(!replay.halted);
        assert_eq!(inline.stats, replay.stats);
    }

    #[test]
    fn independent_loop_ipc_approaches_width() {
        // A loop of independent movs: the I-cache stays warm after the
        // first iteration, so throughput is bounded by machine width, not
        // cold misses.
        let mut a = Asm::new();
        let top = a.new_label();
        a.movi(g(1), 0);
        a.bind(top);
        for i in 0..48u32 {
            a.movi(g((10 + (i % 50)) as u8), i as i64);
        }
        a.addi(g(1), g(1), 1);
        a.cmp(
            CmpType::Unc,
            CmpRel::Lt,
            p(1),
            p(2),
            g(1),
            Operand::imm(500),
        );
        a.pred(p(1)).br(top);
        a.halt();
        let prog = a.assemble().unwrap();
        let r = sim(&prog, SchemeSpec::Conventional).run(1_000_000);
        assert!(r.halted);
        let ipc = r.stats.ipc();
        assert!(ipc > 2.5, "independent movs should flow wide, ipc={ipc}");
        assert!(ipc <= 6.01, "cannot beat the machine width, ipc={ipc}");
    }

    #[test]
    fn dependent_chain_is_serial() {
        let mut a = Asm::new();
        for _ in 0..500 {
            a.addi(g(1), g(1), 1);
        }
        a.halt();
        let prog = a.assemble().unwrap();
        let r = sim(&prog, SchemeSpec::Conventional).run(1_000_000);
        let ipc = r.stats.ipc();
        assert!(ipc < 1.3, "a serial add chain runs ~1 IPC, got {ipc}");
    }

    #[test]
    fn biased_branch_is_learned_by_all_schemes() {
        for scheme in [
            SchemeSpec::Conventional,
            SchemeSpec::PepPa,
            SchemeSpec::Predicate,
        ] {
            let prog = loop_with_branch(2000, false, 0);
            let r = sim(&prog, scheme).run(1_000_000);
            assert!(r.halted, "{scheme:?}");
            let rate = r.stats.misprediction_rate();
            assert!(rate < 0.05, "{scheme:?}: biased branch rate={rate}");
        }
    }

    #[test]
    fn random_branch_hurts_conventional() {
        let prog = loop_with_branch(2000, true, 0);
        let r = sim(&prog, SchemeSpec::Conventional).run(1_000_000);
        let rate = r.stats.misprediction_rate();
        // The data has period 256, so a big predictor eventually learns
        // some of it, but early on it's hard; expect a clearly nonzero
        // rate.
        assert!(rate > 0.05, "random branch should mispredict, rate={rate}");
    }

    #[test]
    fn distant_compare_early_resolves_in_predicate_scheme() {
        let prog = loop_with_branch(2000, true, 120);
        let r = sim(&prog, SchemeSpec::Predicate).run(2_000_000);
        assert!(r.halted);
        let s = &r.stats;
        // Half the dynamic branches are the loop latch (compare adjacent,
        // never early-resolved); nearly all inner branches early-resolve.
        assert!(
            s.early_resolved_rate() > 0.4,
            "120 filler ops give the compare time to execute: {:?} / {:?}",
            s.early_resolved,
            s.cond_branches
        );
        // Early-resolved branches are never mispredicted; with most
        // branches early-resolved the rate collapses well below the
        // conventional predictor's on the same program.
        let conv = sim(&loop_with_branch(2000, true, 120), SchemeSpec::Conventional).run(2_000_000);
        assert!(
            s.misprediction_rate() < conv.stats.misprediction_rate(),
            "predicate {} vs conventional {}",
            s.misprediction_rate(),
            conv.stats.misprediction_rate()
        );
    }

    #[test]
    fn early_resolved_branches_never_mispredict() {
        let prog = loop_with_branch(1000, true, 120);
        let r = sim(&prog, SchemeSpec::Predicate).run(2_000_000);
        let s = &r.stats;
        // Every mispredict must come from a non-early-resolved branch.
        assert!(s.mispredicts <= s.cond_branches - s.early_resolved);
        assert_eq!(s.early_resolved_mispredicts, 0);
    }

    #[test]
    fn stage_counters_are_monotone_and_count_replays() {
        for scheme in SchemeSpec::ALL {
            let prog = loop_with_branch(500, true, 30);
            let mut s = Simulator::new(
                &prog,
                scheme,
                PredicationModel::Selective,
                CoreConfig::paper(),
            );
            let r = s.run(2_000_000);
            let st = &r.stats;
            assert!(st.fetched >= st.renamed, "{scheme:?}: {st:?}");
            assert!(st.renamed >= st.committed, "{scheme:?}");
            // Committed-path traffic: the excess over `committed` is
            // exactly the flush-replayed consumers.
            assert!(
                st.fetched - st.committed <= st.mispredicts + st.predication_flushes,
                "{scheme:?}: replays bounded by flush events"
            );
        }
    }

    #[test]
    fn oracle_final_never_mispredicts() {
        let prog = loop_with_branch(1000, true, 0);
        let mut s = crate::SimOptions::new(SchemeSpec::IdealConventional, PredicationModel::Cmov)
            .oracle_final(true)
            .build_source(Machine::new(&prog))
            .unwrap();
        let r = s.run(2_000_000);
        assert!(r.halted);
        assert!(r.stats.cond_branches > 500);
        assert_eq!(r.stats.mispredicts, 0, "oracle-exact mode cannot miss");
    }

    #[test]
    fn injected_faults_trip_the_pinned_invariants() {
        // InvertOracle: every executed branch now mispredicts.
        let prog = loop_with_branch(200, true, 0);
        let mut s = crate::SimOptions::new(SchemeSpec::IdealConventional, PredicationModel::Cmov)
            .oracle_final(true)
            .test_fault(TestFault::InvertOracle)
            .build_source(Machine::new(&prog))
            .unwrap();
        let r = s.run(2_000_000);
        assert_eq!(r.stats.mispredicts, r.stats.cond_branches);

        // InvertEarlyResolve: early-resolved branches consume a corrupted
        // guard, so the §3.2 zero-counter moves.
        let prog = loop_with_branch(200, true, 120);
        let mut s = crate::SimOptions::new(SchemeSpec::Predicate, PredicationModel::Selective)
            .test_fault(TestFault::InvertEarlyResolve)
            .build_source(Machine::new(&prog))
            .unwrap();
        let r = s.run(2_000_000);
        assert!(r.stats.early_resolved > 0);
        assert_eq!(r.stats.early_resolved_mispredicts, r.stats.early_resolved);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let biased =
            sim(&loop_with_branch(2000, false, 0), SchemeSpec::Conventional).run(1_000_000);
        let random = sim(&loop_with_branch(2000, true, 0), SchemeSpec::Conventional).run(1_000_000);
        assert!(
            random.stats.cycles > biased.stats.cycles + 1000,
            "mispredictions must show up in cycle counts: {} vs {}",
            random.stats.cycles,
            biased.stats.cycles
        );
    }

    #[test]
    fn selective_predication_cancels_confidently_false_guards() {
        // Loop where p1 is almost always false: the guarded add should be
        // cancelled at rename once confidence saturates.
        let mut a = Asm::new();
        let top = a.new_label();
        a.movi(g(1), 0);
        a.bind(top);
        a.cmp(CmpType::Unc, CmpRel::Lt, p(1), p(2), g(1), Operand::imm(0)); // p1=false
        a.pred(p(1)).addi(g(11), g(11), 1);
        a.pred(p(1)).addi(g(12), g(12), 1);
        a.addi(g(1), g(1), 1);
        a.cmp(
            CmpType::Unc,
            CmpRel::Lt,
            p(3),
            p(4),
            g(1),
            Operand::imm(2000),
        );
        a.pred(p(3)).br(top);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut s = Simulator::new(
            &prog,
            SchemeSpec::Predicate,
            PredicationModel::Selective,
            CoreConfig::paper(),
        );
        let r = s.run(1_000_000);
        assert!(r.halted);
        assert!(
            r.stats.cancelled_at_rename > 1000,
            "steady false guard cancels at rename: {}",
            r.stats.cancelled_at_rename
        );
        assert_eq!(r.stats.predication_flushes, 0, "never wrong, never flushes");
    }

    #[test]
    fn wrong_confident_cancel_flushes() {
        // Guard is false for a long warm-up (confidence saturates on
        // "false"), then flips occasionally: flushes must occur.
        let mut a = Asm::new();
        let top = a.new_label();
        a.movi(g(1), 0);
        a.bind(top);
        a.alu(ppsim_isa::AluKind::And, g(5), g(1), Operand::imm(1023));
        // p1 true only when (i & 1023) == 1023.
        a.cmp(
            CmpType::Unc,
            CmpRel::Eq,
            p(1),
            p(2),
            g(5),
            Operand::imm(1023),
        );
        a.pred(p(1)).addi(g(11), g(11), 1);
        a.addi(g(1), g(1), 1);
        a.cmp(
            CmpType::Unc,
            CmpRel::Lt,
            p(3),
            p(4),
            g(1),
            Operand::imm(5000),
        );
        a.pred(p(3)).br(top);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut s = Simulator::new(
            &prog,
            SchemeSpec::Predicate,
            PredicationModel::Selective,
            CoreConfig::paper(),
        );
        let r = s.run(2_000_000);
        assert!(r.halted);
        assert!(
            r.stats.predication_flushes > 0,
            "rare true guard must flush"
        );
        assert!(
            r.stats.predication_flushes <= 6,
            "only ~4 surprises exist: {}",
            r.stats.predication_flushes
        );
    }

    #[test]
    fn shadow_classification_counts_early_saves() {
        let prog = loop_with_branch(2000, true, 120);
        let mut s = SimOptions::new(SchemeSpec::Predicate, PredicationModel::Cmov)
            .shadow(true)
            .build_source(Machine::new(&prog))
            .unwrap();
        let r = s.run(2_000_000);
        assert!(r.stats.shadow_mispredicts > 0);
        assert!(r.stats.early_resolved_saves <= r.stats.shadow_mispredicts);
        assert!(
            r.stats.early_resolved_saves > 0,
            "early resolution must save some"
        );
    }

    #[test]
    fn tiny_machine_is_slower_than_paper_machine() {
        let prog = loop_with_branch(1000, false, 8);
        let big = Simulator::new(
            &prog,
            SchemeSpec::Conventional,
            PredicationModel::Cmov,
            CoreConfig::paper(),
        )
        .run(1_000_000);
        let small = Simulator::new(
            &prog,
            SchemeSpec::Conventional,
            PredicationModel::Cmov,
            CoreConfig::tiny(),
        )
        .run(1_000_000);
        assert!(
            small.stats.cycles > big.stats.cycles,
            "narrow queues cost cycles"
        );
    }

    #[test]
    fn ideal_schemes_beat_realistic_ones() {
        let prog = loop_with_branch(3000, true, 0);
        let real = sim(&prog, SchemeSpec::Conventional).run(2_000_000);
        let ideal = sim(&prog, SchemeSpec::IdealConventional).run(2_000_000);
        assert!(
            ideal.stats.misprediction_rate() <= real.stats.misprediction_rate() + 0.02,
            "ideal {} vs real {}",
            ideal.stats.misprediction_rate(),
            real.stats.misprediction_rate()
        );
    }

    #[test]
    fn commit_budget_stops_run() {
        let prog = loop_with_branch(1_000_000, false, 0);
        let r = sim(&prog, SchemeSpec::Conventional).run(5_000);
        assert!(!r.halted);
        assert!(r.stats.committed >= 5_000);
    }

    #[test]
    fn event_ring_records_stage_progression() {
        let prog = loop_with_branch(50, false, 4);
        let mut s = SimOptions::new(SchemeSpec::Predicate, PredicationModel::Cmov)
            .trace_events(64)
            .build_source(Machine::new(&prog))
            .unwrap();
        s.run(100_000);
        let ring = s.events().unwrap();
        assert_eq!(ring.len(), 64);
        assert!(ring.dropped() > 0, "a 50-iteration loop overflows 64 slots");
        let retires: Vec<_> = ring
            .events()
            .filter_map(|e| match e.kind {
                EventKind::Retire {
                    fetch,
                    rename,
                    exec,
                    commit,
                    ..
                } => Some((fetch, rename, exec, commit)),
                _ => None,
            })
            .collect();
        assert!(!retires.is_empty());
        for (fetch, rename, exec, commit) in &retires {
            assert!(fetch <= rename, "fetch before rename");
            assert!(rename < exec, "rename before execute");
            assert!(exec < commit, "execute before commit");
        }
        // Commits are in order.
        let commits: Vec<u64> = retires.iter().map(|r| r.3).collect();
        assert!(commits.windows(2).all(|w| w[0] <= w[1]));
        // Prediction events interleave with retires and render compactly.
        assert!(ring
            .events()
            .any(|e| matches!(e.kind, EventKind::PredictionMade { .. })));
        let rendered = ring.events().next().unwrap().to_string();
        assert!(rendered.contains("seq"), "{rendered}");
    }

    #[test]
    fn sampled_run_marks_the_measurement_boundary() {
        let prog = loop_with_branch(2_000, false, 4);
        let mut s = SimOptions::new(SchemeSpec::Predicate, PredicationModel::Cmov)
            .trace_events(4096)
            .build_source(Machine::new(&prog))
            .unwrap();
        s.run_sample(500, 500);
        let ring = s.events().unwrap();
        let marker: Vec<_> = ring
            .events()
            .filter(|e| matches!(e.kind, EventKind::MeasurementBegin))
            .collect();
        assert_eq!(marker.len(), 1, "exactly one warmup/measure boundary");
        // Retires before the marker are warmup, after are measured; both
        // phases must be present in the trace.
        let boundary = marker[0].cycle;
        let (warm, measured): (Vec<_>, Vec<_>) = ring
            .events()
            .filter_map(|e| match e.kind {
                EventKind::Retire { commit, .. } => Some(commit),
                _ => None,
            })
            .partition(|c| *c <= boundary);
        assert!(!warm.is_empty(), "warmup retires traced");
        assert!(!measured.is_empty(), "measured retires traced");
    }

    #[test]
    fn stall_buckets_sum_to_cycles() {
        use ppsim_obs::StallBucket;
        for scheme in SchemeSpec::ALL {
            for model in [PredicationModel::Cmov, PredicationModel::Selective] {
                let prog = loop_with_branch(400, true, 8);
                let mut s = SimOptions::new(scheme, model)
                    .build_source(Machine::new(&prog))
                    .unwrap();
                let r = s.run(1_000_000);
                assert_eq!(
                    r.stats.stall.total(),
                    r.stats.cycles,
                    "{scheme:?}/{model:?}: every cycle must land in exactly one bucket"
                );
                assert!(
                    r.stats.stall.get(StallBucket::CommitBound) > 0,
                    "{scheme:?}/{model:?}: some cycles are plain throughput"
                );
            }
        }
    }

    #[test]
    fn measured_window_keeps_the_stall_invariant() {
        use ppsim_isa::TraceBuffer;
        use std::sync::Arc;

        let program = loop_with_branch(3000, true, 8);
        let trace = Arc::new(TraceBuffer::capture(&program, 100_000).unwrap());
        for scheme in SchemeSpec::ALL {
            let opts = SimOptions::new(scheme, PredicationModel::Selective);
            let mut s = opts
                .build_source(TraceCursor::window(Arc::clone(&trace), 5_000, 4_000))
                .unwrap();
            let r = s.run_sample(1_000, 3_000);
            assert_eq!(r.stats.committed, 3_000, "{scheme:?}");
            assert_eq!(
                r.stats.stall.total(),
                r.stats.cycles,
                "{scheme:?}: the invariant must hold per measured window"
            );
            assert!(r.stats.cycles > 0, "{scheme:?}");
            assert!(
                r.stats.cycles < 100_000,
                "{scheme:?}: window cycles are relative to the warmup end"
            );
        }
    }

    #[test]
    fn warmup_statistics_are_dropped_but_training_is_kept() {
        // Measured window over a biased branch after a long warmup: the
        // warmup's branches must not appear in the counters, and the
        // predictor must arrive at the window already trained (near-zero
        // misprediction on a branch that a cold 2-bit-style counter would
        // initially miss).
        use ppsim_isa::TraceBuffer;
        use std::sync::Arc;

        let program = loop_with_branch(4000, false, 0);
        let trace = Arc::new(TraceBuffer::capture(&program, 200_000).unwrap());
        let opts = SimOptions::new(SchemeSpec::Conventional, PredicationModel::Cmov);
        let mut s = opts
            .build_source(TraceCursor::window(Arc::clone(&trace), 0, 40_000))
            .unwrap();
        let r = s.run_sample(20_000, 20_000);
        assert_eq!(r.stats.committed, 20_000);
        let full = opts
            .build_source(TraceCursor::new(Arc::clone(&trace)))
            .unwrap()
            .run(200_000);
        assert!(
            r.stats.cond_branches < full.stats.cond_branches,
            "window counts only its own branches"
        );
        assert!(
            r.stats.misprediction_rate() < 0.02,
            "warmup trained the predictor: rate={}",
            r.stats.misprediction_rate()
        );
        // The warmup's cold-start cache misses are subtracted out.
        assert!(r.stats.mem.l1d.accesses < full.stats.mem.l1d.accesses);
    }

    #[test]
    fn fast_forwarded_inline_sample_matches_window_replay() {
        // The two ways of reaching a sampled window — a fresh machine
        // stepped `start` instructions forward, and a trace cursor seeked
        // to record `start` — must produce identical statistics for the
        // same warmup+measure schedule.
        use ppsim_isa::{Machine, TraceBuffer};
        use std::sync::Arc;

        let program = loop_with_branch(3000, true, 4);
        let (start, warmup, measure) = (7_000u64, 2_000u64, 5_000u64);
        let trace = Arc::new(TraceBuffer::capture(&program, 100_000).unwrap());

        for scheme in [SchemeSpec::Conventional, SchemeSpec::Predicate] {
            let opts = SimOptions::new(scheme, PredicationModel::Selective);

            let mut ff = Machine::new(&program);
            ff.run(start).unwrap();
            let inline = opts.build_source(ff).unwrap().run_sample(warmup, measure);

            let replay = opts
                .build_source(TraceCursor::window(
                    Arc::clone(&trace),
                    start,
                    warmup + measure,
                ))
                .unwrap()
                .run_sample(warmup, measure);

            assert_eq!(inline.halted, replay.halted, "{scheme:?}");
            assert_eq!(
                inline.stats, replay.stats,
                "{scheme:?}: fast-forward and cursor window must agree"
            );
            assert_eq!(inline.stats.committed, measure);
        }
    }

    #[test]
    fn sampled_aggregate_tracks_the_full_run() {
        // Three windows over a strongly patterned branch stream: the
        // merged estimate must land near the full run's misprediction
        // rate (the `ppsim check` sampled invariant in miniature).
        use ppsim_isa::TraceBuffer;
        use std::sync::Arc;

        let program = loop_with_branch(8000, true, 0);
        let trace = Arc::new(TraceBuffer::capture(&program, 400_000).unwrap());
        let opts = SimOptions::new(SchemeSpec::Conventional, PredicationModel::Cmov);
        let full = opts
            .build_source(TraceCursor::new(Arc::clone(&trace)))
            .unwrap()
            .run(400_000);

        let spec = crate::SampleSpec {
            skip: 5_000,
            warmup: 3_000,
            measure: 8_000,
            stride: 12_000,
            count: 3,
        };
        let mut agg = SimStats::default();
        for i in 0..spec.count {
            let r = opts
                .build_source(TraceCursor::window(
                    Arc::clone(&trace),
                    spec.window_start(i),
                    spec.warmup + spec.measure,
                ))
                .unwrap()
                .run_sample(spec.warmup, spec.measure);
            agg.merge(&r.stats);
        }
        assert_eq!(agg.committed, 3 * 8_000);
        assert_eq!(agg.stall.total(), agg.cycles);
        let err = (agg.misprediction_rate() - full.stats.misprediction_rate()).abs();
        assert!(
            err < 0.02,
            "sampled {} vs full {} (err {err})",
            agg.misprediction_rate(),
            full.stats.misprediction_rate()
        );
    }

    #[test]
    fn stats_are_consistent() {
        let prog = loop_with_branch(500, true, 4);
        let r = sim(&prog, SchemeSpec::Predicate).run(1_000_000);
        let s = &r.stats;
        assert!(s.cond_branches > 0);
        assert!(s.mispredicts <= s.cond_branches);
        assert!(s.early_resolved <= s.cond_branches);
        assert!(s.compares > 0);
        assert!(s.cycles > 0);
        assert!(s.committed > 0);
        assert!(s.mem.l1d.accesses > 0, "loads hit the cache model");
    }
}
