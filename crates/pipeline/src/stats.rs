//! Simulation statistics, and the one table that names them.
//!
//! [`SimStats::METRICS`] lists every counter and ratio of a run's metric
//! block under its stable name, in the sorted order [`MetricSet`]
//! exports. Each entry says how to read its value off a [`SimStats`]
//! (and, for a counter, how to write it back), so everything that walks
//! the metrics walks this table: [`SimStats::metrics`] builds the
//! registry from it, [`SimStats::metrics_json`] writes the block's JSON
//! text from it into a buffer of its own, with no registry or JSON tree
//! in between, [`SimStats::merge`] sums every counter through it, and
//! the runner's result cache stores and parses every counter through
//! it. A new counter is one entry here.

use ppsim_mem::{CacheStats, HierarchyStats};
use ppsim_obs::{
    write_metric_block, Json, MetricSet, MetricValue, PcEntry, PcHistogram, StallBreakdown,
    StallBucket,
};

/// Counters collected by one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles (cycle of the last commit).
    pub cycles: u64,
    /// Committed instructions (including nullified ones, as in the paper's
    /// "100 million committed instructions").
    pub committed: u64,
    /// Committed-path fetch events, counting flush-refetches of squashed
    /// consumers twice (wrong-path fetch is not modelled). Invariant:
    /// `fetched >= renamed >= committed`.
    pub fetched: u64,
    /// Committed-path rename events, counting flush-replays twice.
    pub renamed: u64,
    /// Early-resolved branches whose used direction disagreed with the
    /// outcome. §3.2 makes early resolution always correct, so the
    /// differential check oracle pins this at zero; it can only move on a
    /// pipeline bug or an injected `TestFault`.
    pub early_resolved_mispredicts: u64,
    /// Committed *conditional* branches (the prediction-rate denominator).
    pub cond_branches: u64,
    /// Mispredicted conditional branches (used prediction ≠ outcome).
    pub mispredicts: u64,
    /// Committed unconditional branches.
    pub uncond_branches: u64,
    /// Committed compare instructions.
    pub compares: u64,
    /// Branches that consumed an already-computed predicate at rename
    /// (early-resolved; predicate schemes only).
    pub early_resolved: u64,
    /// Early-resolved branches on which the *shadow conventional predictor*
    /// would have mispredicted (Figure 6b attribution).
    pub early_resolved_saves: u64,
    /// Branches where the shadow conventional predictor was wrong.
    pub shadow_mispredicts: u64,
    /// Second-level/PPRF prediction overrode the first-level direction at
    /// rename (front-end re-steer events).
    pub overrides: u64,
    /// Predicate predictions generated (predicate schemes).
    pub predicate_predictions: u64,
    /// Predicate predictions that were wrong (whether or not consumed).
    pub predicate_mispredictions: u64,
    /// Predicated instructions cancelled at rename (selective model,
    /// confident-false).
    pub cancelled_at_rename: u64,
    /// Predicated instructions unguarded at rename (selective model,
    /// confident-true).
    pub unguarded_at_rename: u64,
    /// Flushes triggered by wrong predicate speculation on if-converted
    /// instructions.
    pub predication_flushes: u64,
    /// Instructions committed with a false guard (nullified).
    pub nullified: u64,
    /// Per-stage stall attribution: every cycle charged to exactly one
    /// bucket, so `stall.total() == cycles` holds by construction.
    pub stall: StallBreakdown,
    /// Per-static-branch rows `(slot, executions, mispredictions)`, sorted
    /// by slot, no slot repeated, for deterministic export.
    pub branch_pcs: Vec<(u32, u64, u64)>,
    /// Memory-hierarchy counters.
    pub mem: HierarchyStats,
}

/// How one entry of [`SimStats::METRICS`] reads its value.
#[derive(Clone, Copy)]
pub enum StatMetric {
    /// A counter, read and written through its field.
    Counter(CounterField),
    /// A ratio, read as its unreduced `(numerator, denominator)`.
    Ratio(fn(&SimStats) -> (u64, u64)),
}

/// The one [`SimStats`] field a counter counts, and where it is stored.
#[derive(Clone, Copy)]
pub struct CounterField {
    /// Reads the counter.
    pub get: fn(&SimStats) -> u64,
    /// Overwrites the counter (cache replay, merging).
    pub set: fn(&mut SimStats, u64),
    /// The counter's position among the `stat.` lines of a result-cache
    /// entry: an order the cache format fixes, unlike the name order.
    pub store: u8,
}

impl StatMetric {
    /// The metric's value on `s`.
    pub fn value(self, s: &SimStats) -> MetricValue {
        match self {
            StatMetric::Counter(field) => MetricValue::Counter((field.get)(s)),
            StatMetric::Ratio(ratio) => {
                let (num, den) = ratio(s);
                MetricValue::Ratio { num, den }
            }
        }
    }
}

/// A counter entry over the field path `$field` (`mem.itlb.0` included).
macro_rules! counter {
    ($store:literal, $($field:tt).+) => {
        StatMetric::Counter(CounterField {
            get: |s| s.$($field).+,
            set: |s, v| s.$($field).+ = v,
            store: $store,
        })
    };
}

/// A counter entry over one stall bucket.
macro_rules! stall {
    ($store:literal, $bucket:ident) => {
        StatMetric::Counter(CounterField {
            get: |s| s.stall.get(StallBucket::$bucket),
            set: |s, v| s.stall.set(StallBucket::$bucket, v),
            store: $store,
        })
    };
}

/// A ratio entry of two plain counter fields.
macro_rules! ratio {
    ($num:ident / $den:ident) => {
        StatMetric::Ratio(|s| (s.$num, s.$den))
    };
}

/// A cache level's miss ratio. Saturating, so synthetic stats (tests,
/// hand-edited entries) with `hits > accesses` cannot panic the export.
fn cache_miss_ratio(c: &CacheStats) -> (u64, u64) {
    (c.accesses.saturating_sub(c.hits), c.accesses)
}

/// A TLB's miss ratio from its `(hits, misses)`.
fn tlb_miss_ratio((hits, misses): (u64, u64)) -> (u64, u64) {
    (misses, hits.saturating_add(misses))
}

impl SimStats {
    /// The run's metric block: every counter and ratio under its stable
    /// name, in sorted name order (the order [`MetricSet`] exports). The
    /// block's one histogram, `branch_sites`, is [`SimStats::branch_pcs`].
    #[rustfmt::skip]
    pub const METRICS: [(&'static str, StatMetric); 60] = [
        ("cancelled_at_rename", counter!(15, cancelled_at_rename)),
        ("committed", counter!(1, committed)),
        ("compares", counter!(7, compares)),
        ("cond_branches", counter!(4, cond_branches)),
        ("cycles", counter!(0, cycles)),
        ("early_resolved", counter!(8, early_resolved)),
        ("early_resolved_mispredicts", counter!(10, early_resolved_mispredicts)),
        ("early_resolved_rate", ratio!(early_resolved / cond_branches)),
        ("early_resolved_saves", counter!(9, early_resolved_saves)),
        ("fetched", counter!(2, fetched)),
        ("ipc", ratio!(committed / cycles)),
        ("mem.dtlb.hits", counter!(48, mem.dtlb.0)),
        ("mem.dtlb.miss_ratio", StatMetric::Ratio(|s| tlb_miss_ratio(s.mem.dtlb))),
        ("mem.dtlb.misses", counter!(49, mem.dtlb.1)),
        ("mem.itlb.hits", counter!(46, mem.itlb.0)),
        ("mem.itlb.miss_ratio", StatMetric::Ratio(|s| tlb_miss_ratio(s.mem.itlb))),
        ("mem.itlb.misses", counter!(47, mem.itlb.1)),
        ("mem.l1d.accesses", counter!(32, mem.l1d.accesses)),
        ("mem.l1d.hits", counter!(33, mem.l1d.hits)),
        ("mem.l1d.miss_ratio", StatMetric::Ratio(|s| cache_miss_ratio(&s.mem.l1d))),
        ("mem.l1d.mshr_stall_cycles", counter!(36, mem.l1d.mshr_stall_cycles)),
        ("mem.l1d.primary_misses", counter!(34, mem.l1d.primary_misses)),
        ("mem.l1d.secondary_misses", counter!(35, mem.l1d.secondary_misses)),
        ("mem.l1d.write_buffer_stall_cycles", counter!(38, mem.l1d.write_buffer_stall_cycles)),
        ("mem.l1d.writebacks", counter!(37, mem.l1d.writebacks)),
        ("mem.l1i.accesses", counter!(25, mem.l1i.accesses)),
        ("mem.l1i.hits", counter!(26, mem.l1i.hits)),
        ("mem.l1i.miss_ratio", StatMetric::Ratio(|s| cache_miss_ratio(&s.mem.l1i))),
        ("mem.l1i.mshr_stall_cycles", counter!(29, mem.l1i.mshr_stall_cycles)),
        ("mem.l1i.primary_misses", counter!(27, mem.l1i.primary_misses)),
        ("mem.l1i.secondary_misses", counter!(28, mem.l1i.secondary_misses)),
        ("mem.l1i.write_buffer_stall_cycles", counter!(31, mem.l1i.write_buffer_stall_cycles)),
        ("mem.l1i.writebacks", counter!(30, mem.l1i.writebacks)),
        ("mem.l2.accesses", counter!(39, mem.l2.accesses)),
        ("mem.l2.hits", counter!(40, mem.l2.hits)),
        ("mem.l2.miss_ratio", StatMetric::Ratio(|s| cache_miss_ratio(&s.mem.l2))),
        ("mem.l2.mshr_stall_cycles", counter!(43, mem.l2.mshr_stall_cycles)),
        ("mem.l2.primary_misses", counter!(41, mem.l2.primary_misses)),
        ("mem.l2.secondary_misses", counter!(42, mem.l2.secondary_misses)),
        ("mem.l2.write_buffer_stall_cycles", counter!(45, mem.l2.write_buffer_stall_cycles)),
        ("mem.l2.writebacks", counter!(44, mem.l2.writebacks)),
        ("misprediction_rate", ratio!(mispredicts / cond_branches)),
        ("mispredicts", counter!(5, mispredicts)),
        ("mpki", StatMetric::Ratio(|s| (s.mispredicts.saturating_mul(1000), s.committed))),
        ("nullified", counter!(18, nullified)),
        ("overrides", counter!(12, overrides)),
        ("predicate_misprediction_rate", ratio!(predicate_mispredictions / predicate_predictions)),
        ("predicate_mispredictions", counter!(14, predicate_mispredictions)),
        ("predicate_predictions", counter!(13, predicate_predictions)),
        ("predication_flushes", counter!(17, predication_flushes)),
        ("renamed", counter!(3, renamed)),
        ("shadow_mispredicts", counter!(11, shadow_mispredicts)),
        ("stall.commit_bound", stall!(22, CommitBound)),
        ("stall.fetch_miss", stall!(19, FetchMiss)),
        ("stall.flush_recovery", stall!(23, FlushRecovery)),
        ("stall.issue_wait", stall!(21, IssueWait)),
        ("stall.predication_flush", stall!(24, PredicationFlush)),
        ("stall.rename_stall", stall!(20, RenameStall)),
        ("uncond_branches", counter!(6, uncond_branches)),
        ("unguarded_at_rename", counter!(16, unguarded_at_rename)),
    ];

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch misprediction rate (Figures 5/6 y-axis).
    pub fn misprediction_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// Prediction accuracy = 1 − misprediction rate.
    pub fn accuracy(&self) -> f64 {
        1.0 - self.misprediction_rate()
    }

    /// Fraction of conditional branches resolved early.
    pub fn early_resolved_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.early_resolved as f64 / self.cond_branches as f64
        }
    }

    /// Predicate-prediction misprediction rate.
    pub fn predicate_misprediction_rate(&self) -> f64 {
        if self.predicate_predictions == 0 {
            0.0
        } else {
            self.predicate_mispredictions as f64 / self.predicate_predictions as f64
        }
    }

    /// Mispredictions per kilo-instruction — the cross-workload metric
    /// modern branch-prediction work reports ("Branch Prediction Is Not
    /// a Solved Problem"). Unlike the misprediction *rate*, MPKI also
    /// reflects how branch-dense the workload is.
    pub fn mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / self.committed as f64
        }
    }

    /// The `n` static branches contributing the most mispredictions
    /// (hard-to-predict, "H2P", sites), as `(slot, execs, mispredicts)`
    /// rows ordered by mispredictions descending, slot ascending on
    /// ties — deterministic for report pinning. Branches with zero
    /// mispredictions are omitted.
    pub fn top_mispredictors(&self, n: usize) -> Vec<(u32, u64, u64)> {
        let mut rows: Vec<(u32, u64, u64)> = self
            .branch_pcs
            .iter()
            .copied()
            .filter(|&(_, _, miss)| miss > 0)
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Folds another run's counters into `self` — the sampled-simulation
    /// aggregate. Summing raw counters before deriving rates weights each
    /// measured window by the work it did: aggregate misprediction rate is
    /// `Σ mispredicts / Σ cond_branches`, aggregate IPC is
    /// `Σ committed / Σ cycles`. Per-branch histograms merge by slot and
    /// stay sorted; per-window `stall.total() == cycles` invariants sum
    /// into the same invariant on the aggregate.
    pub fn merge(&mut self, other: &SimStats) {
        for &(_, metric) in Self::METRICS.iter() {
            if let StatMetric::Counter(field) = metric {
                (field.set)(self, (field.get)(self) + (field.get)(other));
            }
        }
        for &(slot, execs, miss) in &other.branch_pcs {
            match self.branch_pcs.binary_search_by_key(&slot, |r| r.0) {
                Ok(i) => {
                    self.branch_pcs[i].1 += execs;
                    self.branch_pcs[i].2 += miss;
                }
                Err(i) => self.branch_pcs.insert(i, (slot, execs, miss)),
            }
        }
    }

    /// Exports every counter, derived rate, stall bucket and the per-PC
    /// branch histogram onto one typed registry with stable names — the
    /// canonical metric block, built from [`SimStats::METRICS`].
    pub fn metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        for &(name, metric) in Self::METRICS.iter() {
            match metric.value(self) {
                MetricValue::Counter(c) => m.counter(name, c),
                MetricValue::Ratio { num, den } => m.ratio(name, num, den),
            }
        }
        m.histogram(
            "branch_sites",
            PcHistogram::from_rows(self.branch_rows().collect()),
        );
        m
    }

    /// The metric block as a JSON node that renders byte for byte as
    /// `self.metrics().to_json()`: its text is written straight from
    /// [`SimStats::METRICS`] into a buffer of its own, with no registry
    /// or JSON tree in between, and held as a [`Json::Raw`] node for an
    /// artifact or answer to embed.
    pub fn metrics_json(&self) -> Json {
        debug_assert!(
            self.branch_pcs.windows(2).all(|w| w[0].0 < w[1].0),
            "branch rows are sorted by slot, no slot repeated"
        );
        // Counters and ratios take about 1.9 KB, a branch row under 24
        // bytes.
        let mut out = String::with_capacity(2048 + 24 * self.branch_pcs.len());
        let scalars = Self::METRICS
            .iter()
            .map(|&(name, metric)| (name, metric.value(self)));
        write_metric_block(&mut out, scalars, [("branch_sites", self.branch_rows())]);
        Json::Raw(out)
    }

    /// The per-branch rows as histogram rows.
    fn branch_rows(&self) -> impl Iterator<Item = PcEntry> + '_ {
        self.branch_pcs
            .iter()
            .map(|&(slot, execs, events)| PcEntry {
                pc: u64::from(slot),
                execs,
                events,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            cond_branches: 50,
            mispredicts: 5,
            early_resolved: 10,
            predicate_predictions: 40,
            predicate_mispredictions: 4,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.misprediction_rate() - 0.1).abs() < 1e-12);
        assert!((s.accuracy() - 0.9).abs() < 1e-12);
        assert!((s.early_resolved_rate() - 0.2).abs() < 1e-12);
        assert!((s.predicate_misprediction_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn metrics_cover_counters_stalls_and_sites() {
        use ppsim_obs::StallBucket;
        let mut s = SimStats {
            cycles: 100,
            committed: 250,
            cond_branches: 50,
            mispredicts: 5,
            ..SimStats::default()
        };
        s.stall.charge(StallBucket::CommitBound, 100);
        s.branch_pcs = vec![(4, 10, 1), (9, 5, 0)];
        let m = s.metrics();
        assert_eq!(m.counter_value("cycles"), Some(100));
        assert_eq!(m.counter_value("stall.commit_bound"), Some(100));
        assert_eq!(m.get("ipc").unwrap().value(), 2.5);
        assert_eq!(m.histogram_for("branch_sites").unwrap().len(), 2);
        assert_eq!(m.counter_value("mem.l1d.accesses"), Some(0));
    }

    /// A tiny seeded generator (SplitMix64), so the property test below
    /// replays the same cases on every run.
    struct Seeded(u64);

    impl Seeded {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A counter value: zero, small, large, or at the edges of the
        /// i64 range JSON integers saturate to.
        fn counter(&mut self) -> u64 {
            match self.next() % 8 {
                0 | 1 => 0,
                2 => u64::MAX,
                3 => i64::MAX as u64 + self.next() % 3 - 1,
                4 => self.next(),
                _ => self.next() % 100_000,
            }
        }
    }

    fn counters() -> impl Iterator<Item = (&'static str, CounterField)> {
        SimStats::METRICS
            .iter()
            .filter_map(|&(name, metric)| match metric {
                StatMetric::Counter(field) => Some((name, field)),
                StatMetric::Ratio(_) => None,
            })
    }

    #[test]
    fn direct_writer_matches_the_registry_rendering() {
        let mut rng = Seeded(0x005e_ed0f_b10c);
        for case in 0..200 {
            let mut s = SimStats::default();
            // Every fourth case keeps the all-zero counters, so every
            // ratio sees a zero denominator.
            if case % 4 != 0 {
                for (_, field) in counters() {
                    (field.set)(&mut s, rng.counter());
                }
            }
            let sites = match case % 5 {
                0 => 0,
                1 => 1_000,
                _ => (rng.next() % 40) as u32,
            };
            let mut slot = 0u32;
            for _ in 0..sites {
                slot += 1 + (rng.next() % 9) as u32;
                s.branch_pcs.push((slot, rng.counter(), rng.counter()));
            }
            let tree = s.metrics().to_json().to_string();
            assert_eq!(s.metrics_json().to_string(), tree, "case {case}");
        }
    }

    #[test]
    fn metric_table_is_sorted_and_names_the_registry() {
        let names: Vec<&str> = SimStats::METRICS.iter().map(|&(n, _)| n).collect();
        for pair in names.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{} must sort before {}",
                pair[0],
                pair[1]
            );
        }
        let registry = SimStats::default().metrics();
        let registry: Vec<&str> = registry.iter().map(|(n, _)| n).collect();
        assert_eq!(registry, names);
        let mut stored: Vec<u8> = counters().map(|(_, field)| field.store).collect();
        stored.sort_unstable();
        assert!(
            stored
                .iter()
                .enumerate()
                .all(|(i, &at)| usize::from(at) == i),
            "store positions must number the counters 0..n once each: {stored:?}"
        );
    }

    #[test]
    fn each_counter_entry_reads_and_writes_its_own_field() {
        let all: Vec<_> = counters().collect();
        for (k, &(name, field)) in all.iter().enumerate() {
            let mut s = SimStats::default();
            (field.set)(&mut s, 1_000 + k as u64);
            for (j, &(other, counter)) in all.iter().enumerate() {
                let want = if j == k { 1_000 + k as u64 } else { 0 };
                assert_eq!((counter.get)(&s), want, "setting {name} moved {other}");
            }
        }
    }

    #[test]
    fn the_table_reaches_every_numeric_field() {
        let mut s = SimStats::default();
        for (_, field) in counters() {
            (field.set)(&mut s, 7777);
        }
        // Every number in the Debug rendering (digits inside names such
        // as `l1i` aside) is a field the table set; a counter field the
        // table misses would still read 0.
        let debug = format!("{s:?}");
        let bytes = debug.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let starts_number = bytes[i].is_ascii_digit()
                && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'));
            if starts_number {
                let end = i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                assert_eq!(&debug[i..end], "7777", "a field the table misses: {debug}");
                i = end;
            } else {
                i += 1;
            }
        }
    }

    #[test]
    fn merge_sums_counters_and_keeps_histograms_sorted() {
        use ppsim_obs::StallBucket;
        let mut a = SimStats {
            cycles: 100,
            committed: 250,
            cond_branches: 50,
            mispredicts: 5,
            branch_pcs: vec![(2, 10, 1), (7, 4, 0)],
            ..SimStats::default()
        };
        a.stall.charge(StallBucket::CommitBound, 100);
        a.mem.l1d.accesses = 30;
        let mut b = SimStats {
            cycles: 40,
            committed: 80,
            cond_branches: 20,
            mispredicts: 4,
            branch_pcs: vec![(1, 3, 2), (7, 6, 1)],
            ..SimStats::default()
        };
        b.stall.charge(StallBucket::IssueWait, 40);
        b.mem.l1d.accesses = 10;
        a.merge(&b);
        assert_eq!(a.cycles, 140);
        assert_eq!(a.committed, 330);
        assert!((a.misprediction_rate() - 9.0 / 70.0).abs() < 1e-12);
        assert_eq!(a.stall.total(), a.cycles, "invariant survives merging");
        assert_eq!(a.branch_pcs, vec![(1, 3, 2), (2, 10, 1), (7, 10, 1)]);
        assert_eq!(a.mem.l1d.accesses, 40);
        b.mem.dtlb = (3, 4);
        b.predication_flushes = 2;
        a.merge(&b);
        assert_eq!((a.mem.dtlb, a.predication_flushes), ((3, 4), 2));
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.misprediction_rate(), 0.0);
        assert_eq!(s.early_resolved_rate(), 0.0);
        assert_eq!(s.predicate_misprediction_rate(), 0.0);
        assert_eq!(s.mpki(), 0.0);
        assert!(s.top_mispredictors(5).is_empty());
    }

    #[test]
    fn mpki_counts_per_kilo_instruction() {
        let s = SimStats {
            committed: 250_000,
            mispredicts: 1_250,
            ..SimStats::default()
        };
        assert!((s.mpki() - 5.0).abs() < 1e-12);
        let m = s.metrics();
        assert_eq!(m.get("mpki").unwrap().value(), 5.0);
    }

    #[test]
    fn top_mispredictors_orders_by_misses_then_slot() {
        let s = SimStats {
            branch_pcs: vec![(3, 100, 7), (5, 50, 0), (9, 40, 12), (11, 60, 7)],
            ..SimStats::default()
        };
        // Zero-miss sites drop out; ties break toward the lower slot.
        assert_eq!(
            s.top_mispredictors(10),
            vec![(9, 40, 12), (3, 100, 7), (11, 60, 7)]
        );
        assert_eq!(s.top_mispredictors(1), vec![(9, 40, 12)]);
    }
}
