//! Scheme specification and the two predictor roles it builds.
//!
//! [`SchemeSpec`] is the single authority on which prediction organizations
//! exist: their names, their CLI spellings, and — through [`SchemeSpec::build`]
//! — the predictor structures each one instantiates, split into the paper's
//! two roles: the [`BranchRole`] every conditional branch consults, and the
//! optional [`PredicateRole`] every compare consults. The pipeline calls the
//! roles and never matches on the scheme.

use crate::tage::{Tage, TageConfig, TageH2pConfig, TagePredicateConfig, TagePredicatePredictor};
use crate::{
    BranchPredictor, CmpPrediction, Gshare, GshareConfig, IdealPerceptron, IdealPredicatePredictor,
    PepPa, PepPaConfig, PerceptronConfig, PerceptronPredictor, PredicateConfig,
    PredicatePrediction, PredicatePredictor, Prediction, Tag,
};

/// Which branch-prediction organization drives the front end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeSpec {
    /// Two-level: 4 KB gshare at fetch, 148 KB perceptron override at
    /// rename (the paper's conventional baseline).
    Conventional,
    /// 144 KB PEP-PA at fetch (August et al., as modelled in §4.1: the
    /// logical predicate register file is updated at execute time, out of
    /// program order).
    PepPa,
    /// The paper's scheme: 4 KB gshare at fetch, predictions generated per
    /// *compare* and stored in the PPRF, consumed by branches at rename.
    Predicate,
    /// Conventional with unbounded tables and oracle history (the §4.2
    /// idealized study).
    IdealConventional,
    /// Predicate predictor with unbounded tables and oracle history.
    IdealPredicate,
    /// Single-level 144 KiB TAGE at fetch: the stronger conventional
    /// baseline of ROADMAP item 4 (geometric tagged histories, no
    /// perceptron override stage).
    Tage,
    /// TAGE plus a Bullseye-style H2P side table: per-static-branch
    /// exec/mispredict tracking promotes hard-to-predict sites into a
    /// dedicated per-site pattern predictor.
    TageH2p,
    /// The hybrid: 4 KB gshare at fetch plus the TAGE-indexed predicate
    /// value table (compare-PC keyed, f1/f2 split, §3.3 repair) instead
    /// of the paper's perceptron PVT.
    TagePredicate,
}

/// The fetch-time branch role: the predictor a conditional branch consults
/// at fetch, plus the two-level organization's override at rename. PEP-PA's
/// predicate-register writes arrive out of program order, so the pipeline
/// keeps their schedule and feeds them in through
/// [`BranchRole::note_predicate_write`].
pub enum BranchRole {
    /// 4 KB gshare at fetch. `l2` is the conventional scheme's 148 KB
    /// perceptron override at rename; the predicate schemes have none.
    Gshare {
        l1: Gshare,
        l2: Option<PerceptronPredictor>,
    },
    /// 144 KB PEP-PA at fetch.
    PepPa(PepPa),
    /// 144 KiB TAGE at fetch, with or without the H2P side table.
    Tage(Tage),
    /// The idealized perceptron: no fetch stage; it predicts at rename and
    /// trains on the outcome at once.
    Ideal(IdealPerceptron),
}

impl BranchRole {
    /// Predicts a conditional branch at fetch, pushing the predicted bit
    /// into the fetch predictor's history; `None` for the ideal role.
    #[inline]
    pub fn fetch_predict(&mut self, pc: u64, guard: u8) -> Option<Prediction> {
        match self {
            BranchRole::Gshare { l1, .. } => Some(l1.predict(pc, guard)),
            BranchRole::PepPa(p) => Some(p.predict(pc, guard)),
            BranchRole::Tage(t) => Some(t.predict(pc, guard)),
            BranchRole::Ideal(_) => None,
        }
    }

    /// Whether [`BranchRole::note_predicate_write`] does anything (PEP-PA).
    pub fn reads_predicate_writes(&self) -> bool {
        matches!(self, BranchRole::PepPa(_))
    }

    /// Applies one executed predicate-register write (PEP-PA only).
    #[inline]
    pub fn note_predicate_write(&mut self, preg: u8, value: bool) {
        if let BranchRole::PepPa(p) = self {
            p.note_predicate_write(preg, value);
        }
    }

    /// The rename-stage direction: the override perceptron's prediction,
    /// or the ideal role's, which trains with the outcome `taken` at once.
    /// `None` when the role has no rename stage.
    #[inline]
    pub fn rename_predict(&mut self, pc: u64, guard: u8, taken: bool) -> Option<Prediction> {
        match self {
            BranchRole::Gshare { l2: Some(l2), .. } => Some(l2.predict(pc, guard)),
            BranchRole::Ideal(p) => Some(Prediction {
                taken: p.predict_and_train(pc, taken),
                tag: Tag::EMPTY,
            }),
            _ => None,
        }
    }

    /// Re-steers the fetch predictor's history from `fetch` to `taken`.
    #[inline]
    pub fn recover_fetch(&mut self, fetch: &Prediction, taken: bool) {
        match self {
            BranchRole::Gshare { l1, .. } => l1.recover(fetch, taken),
            BranchRole::PepPa(p) => p.recover(fetch, taken),
            BranchRole::Tage(t) => t.recover(fetch, taken),
            BranchRole::Ideal(_) => {}
        }
    }

    /// Resolves a branch whose outcome is `taken`: if its final direction
    /// was `mispredicted`, each stage's history is repaired first; then
    /// each stage trains with its own prediction (`fetch`, and `late` from
    /// [`BranchRole::rename_predict`]). The ideal role trained at rename.
    #[inline]
    pub fn resolve(
        &mut self,
        fetch: Option<&Prediction>,
        late: Option<&Prediction>,
        taken: bool,
        mispredicted: bool,
    ) {
        match self {
            BranchRole::Gshare { l1, l2 } => {
                settle(l1, fetch, taken, mispredicted);
                if let Some(l2) = l2 {
                    settle(l2, late, taken, mispredicted);
                }
            }
            BranchRole::PepPa(p) => settle(p, fetch, taken, mispredicted),
            BranchRole::Tage(t) => settle(t, fetch, taken, mispredicted),
            BranchRole::Ideal(_) => {}
        }
    }
}

/// Repairs one stage's history on a mispredict, then trains it.
#[inline]
fn settle(p: &mut impl BranchPredictor, pred: Option<&Prediction>, taken: bool, misp: bool) {
    if let Some(pred) = pred {
        if misp {
            p.recover(pred, taken);
        }
        p.train(pred, taken);
    }
}

/// The compare-time predicate role: keyed by the compare PC, it predicts
/// each compare's targets for the PPRF and trains them at once. The
/// history bit a mispredicted compare pushed is repaired later (§3.3).
pub enum PredicateRole {
    /// The paper's 148 KB perceptron PVT.
    Perceptron(PredicatePredictor),
    /// The 144 KiB TAGE-indexed PVT.
    Tage(TagePredicatePredictor),
    /// Unbounded tables and exact history; nothing to repair.
    Ideal(IdealPredicatePredictor),
}

/// One compare target's prediction, as the PPRF stores it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PprfPrediction {
    /// Predicted predicate value.
    pub value: bool,
    /// Whether selective predication may act on it.
    pub confident: bool,
    /// What [`PredicateRole::repair_history`] needs if this target's bit
    /// was pushed wrongly; `None` for the ideal role.
    pub repair: Option<PredicatePrediction>,
}

/// What [`PredicateRole::predict_compare`] produced for one compare.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComparePredictions {
    /// The `[pt, pf]` predictions.
    pub targets: [Option<PprfPrediction>; 2],
    /// Whether the compare pushed a global-history bit.
    pub pushed: bool,
}

impl PredicateRole {
    /// Predicts the compare at `pc`, then trains each prediction with the
    /// value the compare writes, `pt` before `pf`. `named` marks the
    /// `[pt, pf]` targets that name real registers; `writes` holds the
    /// values written (`None` for an unwritten target). The realistic
    /// roles predict named targets only. The ideal role predicts every
    /// written target, `p0` included, and always pushes history.
    #[inline]
    pub fn predict_compare(
        &mut self,
        pc: u64,
        named: [bool; 2],
        writes: [Option<bool>; 2],
    ) -> ComparePredictions {
        match self {
            PredicateRole::Perceptron(pp) => {
                let cp = pp.predict_compare(pc, named[0], named[1]);
                trained(cp, writes, |p, v| pp.train(p, v))
            }
            PredicateRole::Tage(pp) => {
                let cp = pp.predict_compare(pc, named[0], named[1]);
                trained(cp, writes, |p, v| pp.train(p, v))
            }
            PredicateRole::Ideal(pp) => {
                let (pt, pf) = pp.predict_compare_and_train(pc, writes[0], writes[1]);
                let pprf = |v: Option<bool>| {
                    v.map(|value| PprfPrediction {
                        value,
                        confident: true,
                        repair: None,
                    })
                };
                ComparePredictions {
                    targets: [pprf(pt), pprf(pf)],
                    pushed: true,
                }
            }
        }
    }

    /// §3.3 repair: rewrites the history bit that the compare tagged
    /// `repair` pushed `age` pushes ago with its primary target's computed
    /// value. The ideal role's history is exact already.
    #[inline]
    pub fn repair_history(&mut self, repair: &PredicatePrediction, primary_actual: bool, age: u32) {
        match self {
            PredicateRole::Perceptron(pp) => pp.repair_history(repair, primary_actual, age),
            PredicateRole::Tage(pp) => pp.repair_history(repair, primary_actual, age),
            PredicateRole::Ideal(_) => {}
        }
    }
}

/// Trains a realistic role's predictions with the written values, `pt`
/// first, and keeps each one as its own repair tag.
#[inline]
fn trained(
    cp: CmpPrediction,
    writes: [Option<bool>; 2],
    mut train: impl FnMut(&PredicatePrediction, bool),
) -> ComparePredictions {
    let targets = [cp.pt, cp.pf];
    for (p, w) in targets.iter().zip(writes) {
        if let (Some(p), Some(v)) = (p, w) {
            train(p, v);
        }
    }
    ComparePredictions {
        targets: targets.map(|p| {
            p.map(|p| PprfPrediction {
                value: p.value,
                confident: p.confident,
                repair: Some(p),
            })
        }),
        pushed: cp.ghr_pushed,
    }
}

impl SchemeSpec {
    /// Every scheme, in the paper's presentation order (paper schemes
    /// first, the TAGE frontier appended).
    pub const ALL: [SchemeSpec; 8] = [
        SchemeSpec::Conventional,
        SchemeSpec::PepPa,
        SchemeSpec::Predicate,
        SchemeSpec::IdealConventional,
        SchemeSpec::IdealPredicate,
        SchemeSpec::Tage,
        SchemeSpec::TageH2p,
        SchemeSpec::TagePredicate,
    ];

    /// Whether this scheme predicts at compares (predicate-predictor
    /// family).
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            SchemeSpec::Predicate | SchemeSpec::IdealPredicate | SchemeSpec::TagePredicate
        )
    }

    /// Whether this scheme builds a second-level perceptron from a
    /// [`PerceptronConfig`], i.e. accepts the perceptron geometry
    /// override. Capability predicate — `SimOptions::validate` keys off
    /// this instead of enumerating schemes by equality.
    pub fn has_override_perceptron(self) -> bool {
        matches!(self, SchemeSpec::Conventional)
    }

    /// Whether this scheme builds a realistic predicate predictor from a
    /// [`PredicateConfig`], i.e. accepts the predicate geometry override.
    /// (The idealized predicate scheme has a predicate predictor too, but
    /// an unbounded one that takes no geometry.)
    pub fn has_predicate_predictor(self) -> bool {
        matches!(self, SchemeSpec::Predicate | SchemeSpec::TagePredicate)
    }

    /// Whether this scheme supports oracle-exact final prediction
    /// (`--oracle-final`).
    pub fn supports_oracle_final(self) -> bool {
        matches!(self, SchemeSpec::IdealConventional)
    }

    /// Display name used in reports, job descriptions and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            SchemeSpec::Conventional => "conventional",
            SchemeSpec::PepPa => "pep-pa",
            SchemeSpec::Predicate => "predicate",
            SchemeSpec::IdealConventional => "ideal-conventional",
            SchemeSpec::IdealPredicate => "ideal-predicate",
            SchemeSpec::Tage => "tage",
            SchemeSpec::TageH2p => "tage-h2p",
            SchemeSpec::TagePredicate => "tage-predicate",
        }
    }

    /// Parses a scheme name as spelled on the CLI. Accepts the canonical
    /// [`SchemeSpec::name`] plus the historical aliases (`conv`, `peppa`,
    /// `pred`, `ideal-conv`, `ideal-pred`, `tageh2p`, `tage-pred`).
    pub fn parse(s: &str) -> Option<SchemeSpec> {
        match s {
            "conventional" | "conv" => Some(SchemeSpec::Conventional),
            "pep-pa" | "peppa" => Some(SchemeSpec::PepPa),
            "predicate" | "pred" => Some(SchemeSpec::Predicate),
            "ideal-conventional" | "ideal-conv" => Some(SchemeSpec::IdealConventional),
            "ideal-predicate" | "ideal-pred" => Some(SchemeSpec::IdealPredicate),
            "tage" => Some(SchemeSpec::Tage),
            "tage-h2p" | "tageh2p" => Some(SchemeSpec::TageH2p),
            "tage-predicate" | "tage-pred" => Some(SchemeSpec::TagePredicate),
            _ => None,
        }
    }

    /// Builds this scheme's two roles at the paper's Table-1 budgets, with
    /// optional geometry overrides for the sensitivity sweeps.
    ///
    /// `perceptron` applies to schemes with
    /// [`SchemeSpec::has_override_perceptron`] and `predicate` to schemes
    /// with [`SchemeSpec::has_predicate_predictor`] (the TAGE-indexed
    /// variant maps the perceptron geometry onto its base table via
    /// [`TagePredicateConfig::from_predicate`]); callers that pass an
    /// inapplicable override should reject it before building (see
    /// `SimOptions` in the pipeline crate).
    pub fn build(
        self,
        perceptron: Option<PerceptronConfig>,
        predicate: Option<PredicateConfig>,
    ) -> (BranchRole, Option<PredicateRole>) {
        // The first-level gshare is allocated before the structure paired
        // with it, the order the pipeline has always used, so the tables
        // keep their heap layout.
        let l1 = || Gshare::new(GshareConfig::paper_4kb());
        match self {
            SchemeSpec::Conventional => {
                let l1 = l1();
                let l2 = perceptron.unwrap_or_else(PerceptronConfig::paper_148kb);
                let l2 = Some(PerceptronPredictor::new(l2));
                (BranchRole::Gshare { l1, l2 }, None)
            }
            SchemeSpec::PepPa => (
                BranchRole::PepPa(PepPa::new(PepPaConfig::paper_144kb())),
                None,
            ),
            SchemeSpec::Predicate => {
                let l1 = l1();
                let pvt = predicate.unwrap_or_else(PredicateConfig::paper_148kb);
                let pp = PredicatePredictor::new(pvt);
                (
                    BranchRole::Gshare { l1, l2: None },
                    Some(PredicateRole::Perceptron(pp)),
                )
            }
            SchemeSpec::IdealConventional => {
                let p = IdealPerceptron::new(PerceptronConfig::paper_148kb());
                (BranchRole::Ideal(p), None)
            }
            SchemeSpec::IdealPredicate => {
                let l1 = l1();
                let pp = IdealPredicatePredictor::new(PerceptronConfig::paper_148kb());
                (
                    BranchRole::Gshare { l1, l2: None },
                    Some(PredicateRole::Ideal(pp)),
                )
            }
            SchemeSpec::Tage => (BranchRole::Tage(Tage::new(TageConfig::paper_144kb())), None),
            SchemeSpec::TageH2p => {
                let h2p = TageH2pConfig::paper_default();
                (
                    BranchRole::Tage(Tage::with_h2p(TageConfig::paper_144kb(), h2p)),
                    None,
                )
            }
            SchemeSpec::TagePredicate => {
                let l1 = l1();
                let pvt = predicate.map_or_else(
                    TagePredicateConfig::paper_144kb,
                    TagePredicateConfig::from_predicate,
                );
                let pp = TagePredicatePredictor::new(pvt);
                (
                    BranchRole::Gshare { l1, l2: None },
                    Some(PredicateRole::Tage(pp)),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BranchPredictor;

    #[test]
    fn names_and_parse_round_trip() {
        for s in SchemeSpec::ALL {
            assert_eq!(SchemeSpec::parse(s.name()), Some(s));
        }
        assert_eq!(SchemeSpec::parse("conv"), Some(SchemeSpec::Conventional));
        assert_eq!(SchemeSpec::parse("peppa"), Some(SchemeSpec::PepPa));
        assert_eq!(SchemeSpec::parse("pred"), Some(SchemeSpec::Predicate));
        assert_eq!(SchemeSpec::parse("tageh2p"), Some(SchemeSpec::TageH2p));
        assert_eq!(
            SchemeSpec::parse("tage-pred"),
            Some(SchemeSpec::TagePredicate)
        );
        assert_eq!(SchemeSpec::parse("bogus"), None);
    }

    #[test]
    fn predicate_family_is_marked() {
        assert!(SchemeSpec::Predicate.is_predicate());
        assert!(SchemeSpec::IdealPredicate.is_predicate());
        assert!(SchemeSpec::TagePredicate.is_predicate());
        assert!(!SchemeSpec::Conventional.is_predicate());
        assert!(!SchemeSpec::PepPa.is_predicate());
        assert!(!SchemeSpec::Tage.is_predicate());
        assert!(!SchemeSpec::TageH2p.is_predicate());
    }

    #[test]
    fn capability_predicates_partition_the_schemes() {
        for s in SchemeSpec::ALL {
            assert_eq!(
                s.has_override_perceptron(),
                s == SchemeSpec::Conventional,
                "{s:?}"
            );
            assert_eq!(
                s.has_predicate_predictor(),
                matches!(s, SchemeSpec::Predicate | SchemeSpec::TagePredicate),
                "{s:?}"
            );
            assert_eq!(
                s.supports_oracle_final(),
                s == SchemeSpec::IdealConventional,
                "{s:?}"
            );
        }
    }

    /// The variants one scheme builds, spelled for comparison.
    fn roles_of(s: SchemeSpec) -> (&'static str, Option<&'static str>) {
        let (branch, predicate) = s.build(None, None);
        let branch = match branch {
            BranchRole::Gshare { l2: Some(_), .. } => "gshare+perceptron",
            BranchRole::Gshare { l2: None, .. } => "gshare",
            BranchRole::PepPa(_) => "pep-pa",
            BranchRole::Tage(t) if t.has_h2p() => "tage-h2p",
            BranchRole::Tage(_) => "tage",
            BranchRole::Ideal(_) => "ideal",
        };
        let predicate = predicate.map(|p| match p {
            PredicateRole::Perceptron(_) => "perceptron",
            PredicateRole::Tage(_) => "tage",
            PredicateRole::Ideal(_) => "ideal",
        });
        (branch, predicate)
    }

    #[test]
    fn factory_builds_the_matching_roles() {
        let expected = [
            (SchemeSpec::Conventional, "gshare+perceptron", None),
            (SchemeSpec::PepPa, "pep-pa", None),
            (SchemeSpec::Predicate, "gshare", Some("perceptron")),
            (SchemeSpec::IdealConventional, "ideal", None),
            (SchemeSpec::IdealPredicate, "gshare", Some("ideal")),
            (SchemeSpec::Tage, "tage", None),
            (SchemeSpec::TageH2p, "tage-h2p", None),
            (SchemeSpec::TagePredicate, "gshare", Some("tage")),
        ];
        assert_eq!(expected.map(|e| e.0), SchemeSpec::ALL);
        for (s, branch, predicate) in expected {
            assert_eq!(roles_of(s), (branch, predicate), "{s:?}");
            assert_eq!(predicate.is_some(), s.is_predicate(), "{s:?}");
            let (role, _) = s.build(None, None);
            assert_eq!(role.reads_predicate_writes(), s == SchemeSpec::PepPa);
        }
    }

    #[test]
    fn a_mispredicted_branch_leaves_the_outcome_in_fetch_history() {
        let (mut role, _) = SchemeSpec::Conventional.build(None, None);
        let pc = 0x4000_0040;
        let fetch = role.fetch_predict(pc, 1).expect("gshare predicts at fetch");
        let late = role
            .rename_predict(pc, 1, true)
            .expect("the override predicts");
        let taken = !fetch.taken;
        role.resolve(Some(&fetch), Some(&late), taken, true);
        let BranchRole::Gshare { l1, .. } = &role else {
            panic!("wrong role");
        };
        assert_eq!(
            l1.ghr_value(),
            (fetch.tag.ghr_before << 1 | taken as u64) & 0x3fff
        );
        // The ideal role has no fetch stage and trains at rename.
        let (mut ideal, _) = SchemeSpec::IdealConventional.build(None, None);
        assert!(ideal.fetch_predict(pc, 1).is_none());
        assert!(ideal.rename_predict(pc, 1, true).is_some());
    }

    #[test]
    fn predicate_roles_train_at_predict_time() {
        for s in [SchemeSpec::Predicate, SchemeSpec::TagePredicate] {
            let (_, Some(mut role)) = s.build(None, None) else {
                panic!("{s:?} has a predicate role");
            };
            let mut last = None;
            for _ in 0..64 {
                last = Some(role.predict_compare(
                    0x4000_0080,
                    [true, true],
                    [Some(true), Some(false)],
                ));
            }
            let [pt, pf] = last.unwrap().targets.map(Option::unwrap);
            assert!(pt.value && pt.confident && pt.repair.is_some(), "{s:?}");
            assert!(!pf.value && pf.confident, "{s:?}");
        }
    }

    #[test]
    fn ideal_predicate_role_predicts_written_p0_targets_without_repair_tags() {
        let (_, Some(mut role)) = SchemeSpec::IdealPredicate.build(None, None) else {
            panic!("ideal-predicate has a predicate role");
        };
        // pt is p0 (unnamed) but written: the ideal role still predicts
        // and trains it; the pipeline installs only named targets.
        let cp = role.predict_compare(0x4000_0100, [false, true], [Some(true), Some(false)]);
        assert!(cp.pushed);
        assert!(cp
            .targets
            .iter()
            .all(|t| t.is_some_and(|t| t.repair.is_none())));
        // A realistic role predicts named targets only.
        let (_, Some(mut role)) = SchemeSpec::Predicate.build(None, None) else {
            panic!("predicate has a predicate role");
        };
        let cp = role.predict_compare(0x4000_0100, [false, true], [Some(true), Some(false)]);
        assert!(cp.targets[0].is_none() && cp.targets[1].is_some());
    }

    #[test]
    fn geometry_overrides_apply() {
        // The override must actually reach the built predictor — row
        // count verified structurally, not just via a shrinking byte
        // budget (a factory that ignored the override but built any
        // smaller table would pass a size-only check).
        let small = PerceptronConfig {
            rows: 64,
            ..PerceptronConfig::paper_148kb()
        };
        let (BranchRole::Gshare { l2: Some(l2), .. }, None) =
            SchemeSpec::Conventional.build(Some(small), None)
        else {
            panic!("wrong roles");
        };
        assert_eq!(l2.table().rows(), 64, "configured rows reach the table");
        assert!(
            l2.size_bytes()
                < PerceptronPredictor::new(PerceptronConfig::paper_148kb()).size_bytes()
        );
    }

    #[test]
    fn predicate_overrides_reach_both_predicate_schemes() {
        let small = PredicateConfig {
            perceptron: PerceptronConfig {
                rows: 128,
                ..PerceptronConfig::paper_148kb()
            },
            conf_bits: 2,
        };
        let (_, Some(PredicateRole::Perceptron(pp))) =
            SchemeSpec::Predicate.build(None, Some(small))
        else {
            panic!("wrong roles");
        };
        assert_eq!(pp.table().rows(), 128);
        let (_, Some(PredicateRole::Tage(pp))) = SchemeSpec::TagePredicate.build(None, Some(small))
        else {
            panic!("wrong roles");
        };
        assert_eq!(
            pp.base_rows(),
            128,
            "perceptron rows map onto the TAGE base PVT"
        );
        assert!(
            pp.size_bytes()
                < TagePredicatePredictor::new(TagePredicateConfig::paper_144kb()).size_bytes()
        );
    }
}
