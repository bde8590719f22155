//! The job model: one simulation cell of an experiment grid.
//!
//! A [`Job`] captures *every* input that can influence a simulation's
//! statistics — benchmark, compile options, prediction scheme, predication
//! model, predictor geometry overrides, machine configuration and commit
//! budget. Its [`Job::canon`] encoding is a canonical line-oriented text
//! rendering of all of those inputs; the FNV-1a hash of that text is the
//! job's identity, used to key the on-disk result cache and to detect
//! stale entries. Two jobs with equal hashes but different canonical
//! encodings are treated as distinct (the cache compares the full
//! encoding, not just the hash).

use ppsim_pipeline::{CoreConfig, PredicationModel, SampleSpec, SchemeSpec, SimStats};
use ppsim_predictors::{PerceptronConfig, PredicateConfig};

use crate::hash::{fnv1a64, hex64};

/// One window of a sampled run: the full schedule plus which of its
/// windows this job simulates. A sampled grid cell expands into `count`
/// of these (see `Runner::run_grid_sampled`); each is cached
/// independently, so re-running with one more window only simulates the
/// new window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleSlice {
    /// The full sampling schedule.
    pub spec: SampleSpec,
    /// Which window (`0..spec.count`) this job runs.
    pub index: u32,
}

/// Identity of an externally supplied trace stream standing in for the
/// compile → capture pipeline (see `Runner::register_trace`). The
/// stream's *content hash* (`ppsim_isa::pptrace::content_hash`) is the
/// workload identity — two imports of byte-identical streams share
/// cache entries regardless of file name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId {
    /// Content hash of the stream (instructions, records, addresses,
    /// halt marker — not the file's name/note metadata).
    pub content: u64,
    /// Whether the stream is a degraded branches-only import
    /// (`ppsim_isa::pptrace::import_cbp`).
    pub branches_only: bool,
}

/// One simulation cell: (benchmark, compile flags, scheme, predication
/// model, machine, budget) plus optional predictor-geometry overrides.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Benchmark name from `ppsim_compiler::spec2000_suite()`.
    pub benchmark: String,
    /// Compile with profile-guided if-conversion.
    pub ifconv: bool,
    /// Override of the if-converter's profiled-misprediction threshold
    /// (`None` = the compiler default).
    pub ifconv_threshold: Option<f64>,
    /// Functional-emulator steps for the compiler's profiling run.
    pub profile_steps: u64,
    /// Branch-prediction organization.
    pub scheme: SchemeSpec,
    /// How if-converted instructions execute.
    pub predication: PredicationModel,
    /// Attach the shadow conventional predictor (Figure 6b attribution).
    pub shadow: bool,
    /// Committed instructions to simulate.
    pub commits: u64,
    /// The machine.
    pub core: CoreConfig,
    /// Perceptron geometry override for the conventional/two-level
    /// predictor (`None` = paper 148 KB).
    pub perceptron: Option<PerceptronConfig>,
    /// Predicate-predictor configuration override (`None` = paper 148 KB,
    /// 3-bit confidence).
    pub predicate: Option<PredicateConfig>,
    /// Sampled-simulation window (`None` = a full run over `commits`).
    pub sample: Option<SampleSlice>,
    /// External trace stream driving this cell instead of compiling and
    /// capturing `benchmark` (`None` = the normal compile path). When
    /// set, `benchmark` is a display name only and the compile axes
    /// (`ifconv`, `ifconv_threshold`, `profile_steps`) are inert; the
    /// trace must be registered with the executing runner
    /// (`Runner::register_trace`).
    pub trace: Option<TraceId>,
}

impl Job {
    /// A job with no overrides, on the given machine.
    pub fn new(
        benchmark: impl Into<String>,
        ifconv: bool,
        scheme: SchemeSpec,
        predication: PredicationModel,
        commits: u64,
        profile_steps: u64,
        core: CoreConfig,
    ) -> Self {
        Job {
            benchmark: benchmark.into(),
            ifconv,
            ifconv_threshold: None,
            profile_steps,
            scheme,
            predication,
            shadow: false,
            commits,
            core,
            perceptron: None,
            predicate: None,
            sample: None,
            trace: None,
        }
    }

    /// A cell driven by a registered external trace: `name` is the
    /// display label, `trace` the stream identity. Compile axes are
    /// zeroed (they do not apply to imported streams).
    pub fn traced(
        name: impl Into<String>,
        trace: TraceId,
        scheme: SchemeSpec,
        predication: PredicationModel,
        commits: u64,
        core: CoreConfig,
    ) -> Self {
        Job {
            trace: Some(trace),
            ..Job::new(name, false, scheme, predication, commits, 0, core)
        }
    }

    /// Canonical text encoding of every input. Line-oriented `key=value`
    /// pairs in a fixed order; this exact string (not the struct) defines
    /// the job's identity.
    pub fn canon(&self) -> String {
        let mut s = String::with_capacity(640);
        let kv = |s: &mut String, k: &str, v: &str| {
            s.push_str(k);
            s.push('=');
            s.push_str(v);
            s.push('\n');
        };
        kv(&mut s, "bench", &self.benchmark);
        kv(&mut s, "ifconv", if self.ifconv { "1" } else { "0" });
        kv(
            &mut s,
            "ifconv_threshold",
            &self
                .ifconv_threshold
                .map_or("-".to_string(), |t| hex64(t.to_bits())),
        );
        kv(&mut s, "profile_steps", &self.profile_steps.to_string());
        kv(&mut s, "scheme", self.scheme.name());
        kv(
            &mut s,
            "predication",
            match self.predication {
                PredicationModel::Cmov => "cmov",
                PredicationModel::Selective => "selective",
            },
        );
        kv(&mut s, "shadow", if self.shadow { "1" } else { "0" });
        kv(&mut s, "commits", &self.commits.to_string());
        let c = &self.core;
        kv(
            &mut s,
            "core",
            &format!(
                "fw:{} rw:{} cw:{} rob:{} iqi:{} iqf:{} iqb:{} lq:{} sq:{} pi:{} pf:{} pp:{} \
                 iu:{} fu:{} mp:{} bu:{} fs:{} pen:{} ob:{} repair:{}",
                c.fetch_width,
                c.rename_width,
                c.commit_width,
                c.rob_entries,
                c.iq_int,
                c.iq_fp,
                c.iq_branch,
                c.lq_entries,
                c.sq_entries,
                c.phys_int,
                c.phys_fp,
                c.phys_pred,
                c.int_units,
                c.fp_units,
                c.mem_ports,
                c.branch_units,
                c.front_stages,
                c.mispredict_penalty,
                c.override_bubble,
                u8::from(c.history_repair),
            ),
        );
        let l = &self.core.latencies;
        kv(
            &mut s,
            "latencies",
            &format!(
                "alu:{} mul:{} falu:{} fmul:{} fdiv:{} br:{}",
                l.int_alu, l.int_mul, l.fp_alu, l.fp_mul, l.fp_div, l.branch
            ),
        );
        kv(
            &mut s,
            "perceptron",
            &Self::canon_perceptron(self.perceptron.as_ref()),
        );
        kv(
            &mut s,
            "predicate",
            &self.predicate.as_ref().map_or("-".to_string(), |p| {
                format!(
                    "{} conf:{}",
                    Self::canon_perceptron(Some(&p.perceptron)),
                    p.conf_bits
                )
            }),
        );
        kv(
            &mut s,
            "sample",
            &self.sample.as_ref().map_or("-".to_string(), |slice| {
                format!("{}@{}", slice.spec.canon(), slice.index)
            }),
        );
        kv(
            &mut s,
            "trace",
            &self.trace.as_ref().map_or("-".to_string(), |t| {
                format!(
                    "{} bo:{}",
                    hex64(t.content),
                    if t.branches_only { "1" } else { "0" }
                )
            }),
        );
        s
    }

    fn canon_perceptron(p: Option<&PerceptronConfig>) -> String {
        p.map_or("-".to_string(), |p| {
            format!(
                "rows:{} ghr:{} lhr:{} lht:{} theta:{}",
                p.rows,
                p.ghr_bits,
                p.lhr_bits,
                p.lht_entries,
                p.theta.map_or("-".to_string(), |t| t.to_string()),
            )
        })
    }

    /// The job's content hash (FNV-1a over [`Job::canon`]).
    pub fn hash(&self) -> u64 {
        fnv1a64(self.canon().as_bytes())
    }

    /// The hash as the 16-digit hex string used in cache file names.
    pub fn hash_hex(&self) -> String {
        hex64(self.hash())
    }

    /// A short human-readable label for telemetry and progress output:
    /// benchmark and scheme, then the compile, predication, shadow and
    /// window axes where they differ from a plain run. The cells of one
    /// grid carry distinct labels.
    pub fn label(&self) -> String {
        format!(
            "{}/{}{}{}{}{}",
            self.benchmark,
            self.scheme.name(),
            if self.ifconv { "/ifconv" } else { "" },
            match self.predication {
                PredicationModel::Cmov => "",
                PredicationModel::Selective => "/selective",
            },
            if self.shadow { "/shadow" } else { "" },
            self.sample
                .as_ref()
                .map_or(String::new(), |s| format!("/s{}", s.index)),
        )
    }
}

/// The outcome of one job: simulation statistics plus the static-code
/// counters the sweeps need, and execution telemetry.
#[derive(Clone, Debug, Default)]
pub struct JobResult {
    /// Simulation counters.
    pub stats: SimStats,
    /// Static instructions in the compiled binary.
    pub static_insns: u64,
    /// Static conditional branches in the compiled binary (the
    /// if-conversion-threshold sweep's x-axis).
    pub static_cond_branches: u64,
    /// Whether the result was served from the on-disk cache.
    pub from_cache: bool,
    /// Wall time spent producing the result (0 for cache hits).
    pub wall_micros: u64,
    /// Wall time of the compile phase (0 for cache hits and when the
    /// compile memo already held the binary).
    pub compile_micros: u64,
    /// Wall time of the trace-capture phase (0 for cache hits, for cells
    /// that replayed another cell's capture and for external traces).
    pub capture_micros: u64,
    /// Wall time of the simulate phase (0 for cache hits).
    pub sim_micros: u64,
    /// Whether the job replayed a capture another cell made (always
    /// `false` for cache hits, derived results and external traces).
    pub trace_memo_hit: bool,
    /// Whether the result was derived from the simulation of its shadow
    /// twin in the same grid rather than simulated (see
    /// `Runner::run_grid`); its times are 0.
    pub derived: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Job {
        Job::new(
            "gzip",
            false,
            SchemeSpec::Predicate,
            PredicationModel::Cmov,
            500_000,
            200_000,
            CoreConfig::paper(),
        )
    }

    #[test]
    fn canon_is_stable_and_complete() {
        let c = base().canon();
        for key in [
            "bench=gzip",
            "ifconv=0",
            "scheme=predicate",
            "predication=cmov",
            "commits=500000",
            "rob:256",
            "repair:1",
            "perceptron=-",
            "sample=-",
            "trace=-",
        ] {
            assert!(c.contains(key), "missing {key} in:\n{c}");
        }
        assert_eq!(c, base().canon(), "canonical encoding is deterministic");
    }

    #[test]
    fn every_axis_changes_the_hash() {
        let b = base();
        let h = b.hash();
        let variants = [
            Job {
                benchmark: "gcc".into(),
                ..b.clone()
            },
            Job {
                ifconv: true,
                ..b.clone()
            },
            Job {
                ifconv_threshold: Some(0.3),
                ..b.clone()
            },
            Job {
                profile_steps: 1,
                ..b.clone()
            },
            Job {
                scheme: SchemeSpec::Conventional,
                ..b.clone()
            },
            Job {
                predication: PredicationModel::Selective,
                ..b.clone()
            },
            Job {
                shadow: true,
                ..b.clone()
            },
            Job {
                commits: 1,
                ..b.clone()
            },
            Job {
                core: CoreConfig {
                    rob_entries: 8,
                    ..CoreConfig::paper()
                },
                ..b.clone()
            },
            Job {
                core: CoreConfig {
                    history_repair: false,
                    ..CoreConfig::paper()
                },
                ..b.clone()
            },
            Job {
                perceptron: Some(PerceptronConfig::paper_148kb()),
                ..b.clone()
            },
            Job {
                predicate: Some(PredicateConfig::paper_148kb()),
                ..b.clone()
            },
            Job {
                sample: Some(SampleSlice {
                    spec: SampleSpec::default_spec(),
                    index: 0,
                }),
                ..b.clone()
            },
            Job {
                trace: Some(TraceId {
                    content: 0xdead_beef,
                    branches_only: false,
                }),
                ..b.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.hash(), h, "axis not hashed: {v:?}");
        }
        // Different windows of the same schedule are distinct jobs.
        let s0 = Job {
            sample: Some(SampleSlice {
                spec: SampleSpec::default_spec(),
                index: 0,
            }),
            ..b.clone()
        };
        let s1 = Job {
            sample: Some(SampleSlice {
                spec: SampleSpec::default_spec(),
                index: 1,
            }),
            ..b.clone()
        };
        assert_ne!(s0.hash(), s1.hash(), "window index not hashed");
        // Trace identity axes: content hash and branches-only flag.
        let t = |content, branches_only| Job {
            trace: Some(TraceId {
                content,
                branches_only,
            }),
            ..b.clone()
        };
        assert_ne!(t(1, false).hash(), t(2, false).hash(), "content not hashed");
        assert_ne!(
            t(1, false).hash(),
            t(1, true).hash(),
            "branches-only flag not hashed"
        );
    }

    #[test]
    fn traced_constructor_zeroes_compile_axes() {
        let id = TraceId {
            content: 7,
            branches_only: true,
        };
        let j = Job::traced(
            "cbp-import",
            id,
            SchemeSpec::Conventional,
            PredicationModel::Cmov,
            10_000,
            CoreConfig::paper(),
        );
        assert_eq!(j.trace, Some(id));
        assert_eq!(j.benchmark, "cbp-import");
        assert!(!j.ifconv);
        assert_eq!(j.profile_steps, 0);
        assert!(j.canon().contains("trace=0000000000000007 bo:1"));
    }

    #[test]
    fn threshold_encoding_distinguishes_close_values() {
        let a = Job {
            ifconv_threshold: Some(0.15),
            ..base()
        };
        let b = Job {
            ifconv_threshold: Some(0.150000001),
            ..base()
        };
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn hash_hex_matches_hash() {
        let b = base();
        assert_eq!(b.hash_hex(), format!("{:016x}", b.hash()));
    }

    #[test]
    fn label_mentions_scheme_and_flags() {
        let j = Job {
            ifconv: true,
            shadow: true,
            ..base()
        };
        assert_eq!(j.label(), "gzip/predicate/ifconv/shadow");
        let selective = Job {
            predication: PredicationModel::Selective,
            ..j.clone()
        };
        assert_eq!(selective.label(), "gzip/predicate/ifconv/selective/shadow");
        let sampled = Job {
            sample: Some(SampleSlice {
                spec: SampleSpec::default_spec(),
                index: 2,
            }),
            ..base()
        };
        assert_eq!(sampled.label(), "gzip/predicate/s2");
    }
}
