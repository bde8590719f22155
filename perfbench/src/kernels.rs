//! Calls into single crates, driven over a workload's own data, for the
//! per-layer metrics a span around a program-level call cannot isolate:
//! predictor and memory-hierarchy kernels over the workload's record
//! streams, simulator construction, cache loads and stores, and the solo
//! re-simulation the output checks compare against.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ppsim_compiler::{compile, spec2000_suite, CompileOptions};
use ppsim_core::Job;
use ppsim_isa::{ExecInfo, Program, TraceBuffer, TraceCursor};
use ppsim_mem::{Hierarchy, HierarchyConfig};
use ppsim_pipeline::{LaneSet, SimOptions, SimStats};
use ppsim_predictors::{
    BranchPredictor, Gshare, GshareConfig, PerceptronConfig, PerceptronPredictor, PredicateConfig,
    PredicatePredictor, SchemeSpec, Tage, TageConfig, TageH2pConfig, TagePredicateConfig,
    TagePredicatePredictor,
};
use ppsim_runner::{DiskCache, JobResult};

use crate::Metrics;

/// The Figure 6a schemes the predictor kernel drives, by metric name.
/// PEP-PA is left out: its predictor reads predicate registers that the
/// pipeline writes out of program order at execute time, and without the
/// pipeline's write schedule a predict/train loop would not be PEP-PA.
pub const KERNEL_SCHEMES: [SchemeSpec; 5] = [
    SchemeSpec::Conventional,
    SchemeSpec::Predicate,
    SchemeSpec::Tage,
    SchemeSpec::TageH2p,
    SchemeSpec::TagePredicate,
];

/// Why a Figure 6a scheme has no predictor kernel.
pub const SKIPPED_SCHEMES: &str =
    "pep-pa: needs the pipeline's out-of-order predicate-write schedule";

/// One record of a predictor stream.
#[derive(Clone, Copy)]
enum Event {
    /// A conditional branch: pc, guard register, outcome.
    Branch { pc: u64, guard: u8, taken: bool },
    /// A predicate-writing compare: pc and the values written to its
    /// true and false targets (`None` for `p0` or an unwritten target).
    Compare {
        pc: u64,
        pt: Option<bool>,
        pf: Option<bool>,
    },
}

/// The predictor-visible events of `trace`, in stream order.
fn events(trace: &TraceBuffer) -> Vec<Event> {
    trace
        .iter()
        .filter_map(|rec| {
            let pc = Program::pc_of(rec.slot);
            match rec.info {
                ExecInfo::Br { taken, .. } if rec.insn.is_cond_branch() => Some(Event::Branch {
                    pc,
                    guard: rec.insn.qp.index() as u8,
                    taken,
                }),
                ExecInfo::Cmp {
                    pt_write, pf_write, ..
                } => {
                    let [pt, pf] = rec.insn.pr_dsts();
                    Some(Event::Compare {
                        pc,
                        pt: pt.and(pt_write),
                        pf: pf.and(pf_write),
                    })
                }
                _ => None,
            }
        })
        .collect()
}

/// Predict, repair history on a miss, and train: a branch predictor
/// resolved the moment it predicts.
fn branch_step(p: &mut impl BranchPredictor, pc: u64, guard: u8, taken: bool) {
    let pred = p.predict(pc, guard);
    if pred.taken != taken {
        p.recover(&pred, taken);
    }
    p.train(&pred, taken);
}

/// The compare-PC predicate predictors share one interface shape.
trait CompareStep {
    fn step(&mut self, pc: u64, pt: Option<bool>, pf: Option<bool>);
}

macro_rules! compare_step {
    ($ty:ty) => {
        impl CompareStep for $ty {
            fn step(&mut self, pc: u64, pt: Option<bool>, pf: Option<bool>) {
                let cp = self.predict_compare(pc, pt.is_some(), pf.is_some());
                for (pred, actual) in [(cp.pt, pt), (cp.pf, pf)] {
                    if let (Some(pred), Some(actual)) = (pred, actual) {
                        self.train(&pred, actual);
                    }
                }
                // Repair the history bit a wrong primary prediction pushed.
                let primary = cp.pt.zip(pt).or(cp.pf.zip(pf));
                if let Some((pred, actual)) = primary {
                    if cp.ghr_pushed && pred.value != actual {
                        self.fix_history_bit(0, actual);
                    }
                }
            }
        }
    };
}
compare_step!(PredicatePredictor);
compare_step!(TagePredicatePredictor);

/// Runs `scheme`'s predictor structures over `evs`, fresh tables per
/// stream as each cell has its own: branch-PC schemes see only branches;
/// predicate schemes also predict and train at every compare, as their
/// hardware does.
fn drive(scheme: SchemeSpec, evs: &[Event]) {
    match scheme {
        SchemeSpec::Conventional => {
            let mut l1 = Gshare::new(GshareConfig::paper_4kb());
            let mut l2 = PerceptronPredictor::new(PerceptronConfig::paper_148kb());
            for e in evs {
                if let Event::Branch { pc, guard, taken } = *e {
                    branch_step(&mut l1, pc, guard, taken);
                    branch_step(&mut l2, pc, guard, taken);
                }
            }
            black_box((&l1, &l2));
        }
        SchemeSpec::Tage | SchemeSpec::TageH2p => {
            let mut t = if scheme == SchemeSpec::Tage {
                Tage::new(TageConfig::paper_144kb())
            } else {
                Tage::with_h2p(TageConfig::paper_144kb(), TageH2pConfig::paper_default())
            };
            for e in evs {
                if let Event::Branch { pc, guard, taken } = *e {
                    branch_step(&mut t, pc, guard, taken);
                }
            }
            black_box(&t);
        }
        SchemeSpec::Predicate => {
            let pp = PredicatePredictor::new(PredicateConfig::paper_148kb());
            black_box(drive_predicate(pp, evs));
        }
        SchemeSpec::TagePredicate => {
            let pp = TagePredicatePredictor::new(TagePredicateConfig::paper_144kb());
            black_box(drive_predicate(pp, evs));
        }
        other => panic!("no predictor kernel for {}", other.name()),
    }
}

/// Gshare at fetch for branches, the predicate predictor at compares.
fn drive_predicate<P: CompareStep>(mut pp: P, evs: &[Event]) -> (P, Gshare) {
    let mut l1 = Gshare::new(GshareConfig::paper_4kb());
    for e in evs {
        match *e {
            Event::Branch { pc, guard, taken } => branch_step(&mut l1, pc, guard, taken),
            Event::Compare { pc, pt, pf } => pp.step(pc, pt, pf),
        }
    }
    (pp, l1)
}

/// Drives the Table-1 hierarchy with `trace`'s instruction fetches (one
/// per 64-byte line change, as the pipeline fetches) and data accesses;
/// returns (nanoseconds, accesses).
fn drive_mem(trace: &TraceBuffer) -> (u128, u64) {
    // (is_fetch, address, is_write)
    let mut ops: Vec<(bool, u64, bool)> = Vec::new();
    let mut line = u64::MAX;
    for rec in trace.iter() {
        let pc = Program::pc_of(rec.slot);
        if pc / 64 != line {
            line = pc / 64;
            ops.push((true, pc, false));
        }
        if let ExecInfo::Mem { addr } = rec.info {
            ops.push((false, addr, rec.insn.is_store()));
        }
    }
    let mut h = Hierarchy::new(HierarchyConfig::paper());
    let started = Instant::now();
    let mut now = 0u64;
    for &(fetch, addr, write) in &ops {
        now = if fetch {
            h.inst_fetch(now, addr)
        } else {
            h.data_access(now, addr, write)
        };
    }
    let nanos = started.elapsed().as_nanos();
    black_box((now, &h));
    (nanos, ops.len() as u64)
}

/// Kernel timings accumulated over a workload's streams.
#[derive(Debug, Default)]
pub struct Kernels {
    pred_nanos: [u128; KERNEL_SCHEMES.len()],
    branches: u64,
    mem_nanos: u128,
    accesses: u64,
    build_secs: f64,
    sims: usize,
    trace_bytes: usize,
}

impl Kernels {
    /// Times the predictor, memory and simulator-construction kernels
    /// over one stream; `cells` are the simulators the workload builds
    /// over it in one fused pass.
    pub fn add_stream(
        &mut self,
        trace: &Arc<TraceBuffer>,
        cells: &[SimOptions],
    ) -> Result<(), String> {
        self.trace_bytes += trace.bytes();
        let evs = events(trace);
        self.branches += evs
            .iter()
            .filter(|e| matches!(e, Event::Branch { .. }))
            .count() as u64;
        for (i, &scheme) in KERNEL_SCHEMES.iter().enumerate() {
            let started = Instant::now();
            drive(scheme, &evs);
            self.pred_nanos[i] += started.elapsed().as_nanos();
        }
        let (nanos, accesses) = drive_mem(trace);
        self.mem_nanos += nanos;
        self.accesses += accesses;
        if !cells.is_empty() {
            let started = Instant::now();
            let lanes = LaneSet::new(TraceCursor::new(Arc::clone(trace)), cells)
                .map_err(|e| format!("building lanes: {e}"))?;
            self.build_secs += started.elapsed().as_secs_f64();
            self.sims += lanes.len();
            drop(black_box(lanes));
        }
        Ok(())
    }

    /// The kernels over every binary of a suite grid: each binary is
    /// compiled and captured at the grid's budget, with the cells its
    /// fused pass builds.
    pub fn over_grid(jobs: &[Job]) -> Result<Kernels, String> {
        let mut bundles: BTreeMap<(&str, bool), Vec<&Job>> = BTreeMap::new();
        for j in jobs {
            bundles
                .entry((j.benchmark.as_str(), j.ifconv))
                .or_default()
                .push(j);
        }
        let mut k = Kernels::default();
        for cells in bundles.values() {
            let program = compile_job(cells[0])?;
            let trace = capture(&program, cells[0].commits)?;
            let opts: Vec<SimOptions> = cells.iter().map(|j| sim_options(j)).collect();
            k.add_stream(&trace, &opts)?;
        }
        Ok(k)
    }

    /// Records `predictors.*`, `mem.ns_per_access`, `pipeline.build_ms`
    /// and `isa.trace_mib`.
    pub fn set_metrics(&self, m: &mut Metrics) {
        let names = [
            "predictors.conventional.ns_per_branch",
            "predictors.predicate.ns_per_branch",
            "predictors.tage.ns_per_branch",
            "predictors.tage-h2p.ns_per_branch",
            "predictors.tage-predicate.ns_per_branch",
        ];
        for (i, name) in names.into_iter().enumerate() {
            debug_assert!(name.contains(&format!(".{}.", KERNEL_SCHEMES[i].name())));
            m.set(
                name,
                self.pred_nanos[i] as f64 / self.branches.max(1) as f64,
            );
        }
        m.set(
            "mem.ns_per_access",
            self.mem_nanos as f64 / self.accesses.max(1) as f64,
        );
        m.set(
            "pipeline.build_ms",
            self.build_secs * 1e3 / self.sims.max(1) as f64,
        );
        m.set("isa.trace_mib", self.trace_bytes as f64 / (1024.0 * 1024.0));
    }
}

/// The simulator options a grid job's cell axes translate to (the same
/// translation the runner makes).
pub fn sim_options(job: &Job) -> SimOptions {
    let mut opts = SimOptions::new(job.scheme, job.predication)
        .core(job.core)
        .shadow(job.shadow);
    if let Some(p) = job.perceptron {
        opts = opts.perceptron(p);
    }
    if let Some(p) = job.predicate {
        opts = opts.predicate(p);
    }
    opts
}

/// Compiles a suite job's binary the way the runner does.
pub fn compile_job(job: &Job) -> Result<Arc<Program>, String> {
    let suite = spec2000_suite();
    let spec = suite
        .iter()
        .find(|s| s.name == job.benchmark)
        .ok_or_else(|| format!("unknown benchmark {}", job.benchmark))?;
    let mut opts = if job.ifconv {
        CompileOptions::with_ifconv()
    } else {
        CompileOptions::no_ifconv()
    };
    opts.profile_steps = job.profile_steps;
    if let Some(t) = job.ifconv_threshold {
        opts.ifconvert.misp_threshold = t;
    }
    let compiled =
        compile(spec, &opts).map_err(|e| format!("compiling {}: {e:?}", job.benchmark))?;
    Ok(Arc::new(compiled.program))
}

/// Captures `steps` records of `program`.
pub fn capture(program: &Program, steps: u64) -> Result<Arc<TraceBuffer>, String> {
    TraceBuffer::capture(program, steps)
        .map(Arc::new)
        .map_err(|e| format!("capture: {e}"))
}

/// One cell simulated on its own over `trace`: the reference a fused
/// lane's statistics must equal.
pub fn solo(job: &Job, trace: Arc<TraceBuffer>) -> Result<SimStats, String> {
    let mut sim = sim_options(job)
        .build_source(TraceCursor::new(trace))
        .map_err(|e| format!("building {}: {e}", job.label()))?;
    Ok(sim.run(job.commits).stats)
}

/// Loads `jobs` from the cache at `dir`, timing each load; returns the
/// results and the mean microseconds per load.
pub fn cache_loads(dir: &Path, jobs: &[Job]) -> Result<(Vec<JobResult>, f64), String> {
    let cache = DiskCache::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let started = Instant::now();
    let loaded: Vec<Option<JobResult>> = jobs.iter().map(|j| cache.load(j)).collect();
    let us = started.elapsed().as_secs_f64() * 1e6 / jobs.len().max(1) as f64;
    let results = loaded
        .into_iter()
        .zip(jobs)
        .map(|(r, j)| r.ok_or_else(|| format!("cache at {} lacks {}", dir.display(), j.label())))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((results, us))
}

/// Stores `results` into a fresh cache at `dir` (write, fsync, rename);
/// returns the mean milliseconds per store.
pub fn cache_stores(dir: &Path, jobs: &[Job], results: &[JobResult]) -> Result<f64, String> {
    let cache = DiskCache::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let started = Instant::now();
    for (j, r) in jobs.iter().zip(results) {
        cache
            .store(j, r)
            .map_err(|e| format!("storing {}: {e}", j.label()))?;
    }
    Ok(started.elapsed().as_secs_f64() * 1e3 / jobs.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim_core::experiments::{plan, PlanSpec};
    use ppsim_core::ExperimentConfig;

    fn tiny_stream() -> (Job, Arc<TraceBuffer>) {
        let cfg = ExperimentConfig {
            commits: 5_000,
            profile_steps: 5_000,
            only: vec!["gzip".into()],
            ..ExperimentConfig::default()
        };
        let job = plan(&cfg, PlanSpec::Fig6a).remove(0);
        let program = compile_job(&job).unwrap();
        (job, capture(&program, cfg.commits).unwrap())
    }

    #[test]
    fn kernels_run_over_a_captured_stream() {
        let (job, trace) = tiny_stream();
        let mut k = Kernels::default();
        k.add_stream(&trace, &[sim_options(&job)]).unwrap();
        let mut m = Metrics::default();
        k.set_metrics(&mut m);
        let set: Vec<(&str, &str)> = crate::PER_LAYER
            .into_iter()
            .filter(|(n, _)| {
                n.starts_with("predictors.")
                    || ["mem.ns_per_access", "pipeline.build_ms", "isa.trace_mib"].contains(n)
            })
            .collect();
        assert_eq!(set.len(), KERNEL_SCHEMES.len() + 3);
        let json = m.to_json(&set).to_string();
        assert!(!json.contains("\"value\":0.0,"), "{json}");
        let a = solo(&job, trace.clone()).unwrap();
        assert_eq!(a, solo(&job, trace).unwrap());
        assert!(a.committed > 0);
    }
}
