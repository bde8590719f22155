//! Per-stage stall attribution.
//!
//! The pipeline charges the commit-cycle advance of every committed
//! instruction to exactly one [`StallBucket`], so the sum of all buckets
//! equals the total cycle count **by construction** — there is no
//! "unaccounted" remainder and no double counting. The buckets answer the
//! first question of any IPC regression: *where did the cycles go?*

use crate::json::Json;

/// Why the commit frontier advanced: each simulated cycle belongs to
/// exactly one of these causes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallBucket {
    /// Instruction-cache (or ITLB) miss delayed fetch.
    FetchMiss,
    /// A structural resource (ROB, issue queue, LSQ, physical registers)
    /// gated rename.
    RenameStall,
    /// Waiting in an issue queue: operand dependences, functional-unit
    /// contention, or execution latency (including data-cache misses).
    IssueWait,
    /// In-order commit bandwidth: the machine was draining at its commit
    /// width (this is also the "useful work" baseline bucket).
    CommitBound,
    /// Branch-misprediction flush and refetch recovery (including
    /// second-level override re-steer bubbles).
    FlushRecovery,
    /// Flush caused by wrong predicate speculation on an if-converted
    /// instruction (selective predication).
    PredicationFlush,
}

impl StallBucket {
    /// Every bucket, in canonical (serialization) order.
    pub const ALL: [StallBucket; 6] = [
        StallBucket::FetchMiss,
        StallBucket::RenameStall,
        StallBucket::IssueWait,
        StallBucket::CommitBound,
        StallBucket::FlushRecovery,
        StallBucket::PredicationFlush,
    ];

    /// Stable snake_case name used in metrics, cache files and JSON.
    pub fn name(self) -> &'static str {
        match self {
            StallBucket::FetchMiss => "fetch_miss",
            StallBucket::RenameStall => "rename_stall",
            StallBucket::IssueWait => "issue_wait",
            StallBucket::CommitBound => "commit_bound",
            StallBucket::FlushRecovery => "flush_recovery",
            StallBucket::PredicationFlush => "predication_flush",
        }
    }

    /// Parses a [`StallBucket::name`] rendering back to the bucket.
    pub fn parse(name: &str) -> Option<StallBucket> {
        StallBucket::ALL.into_iter().find(|b| b.name() == name)
    }

    fn index(self) -> usize {
        StallBucket::ALL
            .iter()
            .position(|b| *b == self)
            .expect("bucket in ALL")
    }
}

/// Cycles charged per [`StallBucket`]. `total()` equals the simulation's
/// cycle count when maintained by the pipeline's attribution rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    cycles: [u64; 6],
}

impl StallBreakdown {
    /// Charges `cycles` to `bucket`.
    pub fn charge(&mut self, bucket: StallBucket, cycles: u64) {
        self.cycles[bucket.index()] += cycles;
    }

    /// Cycles charged to `bucket` so far.
    pub fn get(&self, bucket: StallBucket) -> u64 {
        self.cycles[bucket.index()]
    }

    /// Overwrites the cycles of `bucket` (cache replay).
    pub fn set(&mut self, bucket: StallBucket, cycles: u64) {
        self.cycles[bucket.index()] = cycles;
    }

    /// Sum over all buckets — equal to the run's total cycles by
    /// construction.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Iterates `(bucket, cycles)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (StallBucket, u64)> + '_ {
        StallBucket::ALL.into_iter().map(|b| (b, self.get(b)))
    }

    /// Renders the breakdown as a JSON object in canonical bucket order.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (bucket, cycles) in self.iter() {
            obj = obj.field(bucket.name(), cycles);
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut s = StallBreakdown::default();
        s.charge(StallBucket::FetchMiss, 3);
        s.charge(StallBucket::FetchMiss, 2);
        s.charge(StallBucket::CommitBound, 10);
        assert_eq!(s.get(StallBucket::FetchMiss), 5);
        assert_eq!(s.total(), 15);
        s.set(StallBucket::FetchMiss, 1);
        assert_eq!(s.total(), 11);
    }

    #[test]
    fn names_round_trip() {
        for b in StallBucket::ALL {
            assert_eq!(StallBucket::parse(b.name()), Some(b));
        }
        assert_eq!(StallBucket::parse("nope"), None);
    }

    #[test]
    fn json_saturates_cycles_past_i64() {
        let mut s = StallBreakdown::default();
        s.set(StallBucket::IssueWait, u64::MAX);
        let j = s.to_json().to_string();
        assert!(j.contains(&format!("\"issue_wait\":{}", i64::MAX)), "{j}");
        assert!(!j.contains('-'), "{j}");
    }

    #[test]
    fn json_lists_every_bucket() {
        let j = StallBreakdown::default().to_json().to_string();
        for b in StallBucket::ALL {
            assert!(j.contains(b.name()), "{j}");
        }
    }
}
