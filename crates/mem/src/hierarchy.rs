//! The composed L1I/L1D/L2/memory hierarchy with TLBs (Table 1).

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::tlb::{Tlb, TlbConfig};

/// Full-hierarchy configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Main memory latency in cycles.
    pub memory_latency: u64,
}

impl HierarchyConfig {
    /// The paper's Table 1 memory system.
    pub fn paper() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::paper_l1i(),
            l1d: CacheConfig::paper_l1d(),
            l2: CacheConfig::paper_l2(),
            itlb: TlbConfig::paper_512(),
            dtlb: TlbConfig::paper_512(),
            memory_latency: 120,
        }
    }
}

/// Aggregated statistics of every structure in the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Instruction TLB (hits, misses).
    pub itlb: (u64, u64),
    /// Data TLB (hits, misses).
    pub dtlb: (u64, u64),
}

impl HierarchyStats {
    /// Counter increments since `base` (an earlier snapshot of the same
    /// hierarchy). The warmup phase of a sampled run trains every cache
    /// and TLB without reporting: the measured window's statistics are
    /// the delta over the snapshot taken when measurement began.
    pub fn delta_since(&self, base: &HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.delta_since(&base.l1i),
            l1d: self.l1d.delta_since(&base.l1d),
            l2: self.l2.delta_since(&base.l2),
            itlb: (self.itlb.0 - base.itlb.0, self.itlb.1 - base.itlb.1),
            dtlb: (self.dtlb.0 - base.dtlb.0, self.dtlb.1 - base.dtlb.1),
        }
    }
}

/// The three-level memory hierarchy timing model.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    memory_latency: u64,
}

impl Hierarchy {
    /// Builds an empty (cold) hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            memory_latency: cfg.memory_latency,
        }
    }

    /// Times a data access (load or store) starting at cycle `now`;
    /// returns the completion cycle.
    pub fn data_access(&mut self, now: u64, addr: u64, is_write: bool) -> u64 {
        let start = now + self.dtlb.access(addr);
        let l2 = &mut self.l2;
        let mem = self.memory_latency;
        let r = self.l1d.access(start, addr, is_write, |issue| {
            let r2 = l2.access(issue, addr, false, |issue2| issue2 + mem);
            r2.done_at
        });
        r.done_at
    }

    /// Times an instruction fetch of the line containing `pc`; returns the
    /// completion cycle.
    pub fn inst_fetch(&mut self, now: u64, pc: u64) -> u64 {
        let start = now + self.itlb.access(pc);
        let l2 = &mut self.l2;
        let mem = self.memory_latency;
        let r = self.l1i.access(start, pc, false, |issue| {
            let r2 = l2.access(issue, pc, false, |issue2| issue2 + mem);
            r2.done_at
        });
        r.done_at
    }

    /// Whether an instruction fetch of `pc` would hit L1I (no state
    /// change).
    pub fn inst_would_hit(&self, pc: u64) -> bool {
        self.l1i.probe(pc)
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            itlb: self.itlb.stats(),
            dtlb: self.dtlb.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_load_goes_through_all_levels() {
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let done = h.data_access(0, 0x40000, false);
        // TLB miss 10 + L1D 2 + L2 8 + memory 120, give or take issue
        // alignment.
        assert!(
            done >= 130,
            "cold access must include memory latency, got {done}"
        );
        let s = h.stats();
        assert_eq!(s.l1d.primary_misses, 1);
        assert_eq!(s.l2.primary_misses, 1);
        assert_eq!(s.dtlb.1, 1);
    }

    #[test]
    fn l1_hit_after_fill_is_two_cycles() {
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let t1 = h.data_access(0, 0x40000, false);
        let t2 = h.data_access(t1, 0x40008, false);
        assert_eq!(t2, t1 + 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction_distance() {
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        // Fill a line, then thrash its L1 set (4 ways, 256 sets, 64B lines
        // → same set every 16 KB) while keeping it in the 1 MB L2.
        let base = 0x40000u64;
        let mut now = h.data_access(0, base, false);
        for i in 1..=4u64 {
            now = h.data_access(now, base + i * 16 * 1024, false);
        }
        let s_before = h.stats();
        let t = h.data_access(now, base, false);
        let s_after = h.stats();
        assert_eq!(
            s_after.l1d.primary_misses,
            s_before.l1d.primary_misses + 1,
            "line was evicted from L1"
        );
        assert_eq!(s_after.l2.hits, s_before.l2.hits + 1, "but still in L2");
        assert!(t - now < 40, "L2 hit latency, not memory: {}", t - now);
    }

    #[test]
    fn instruction_fetches_use_itlb_and_l1i() {
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let t1 = h.inst_fetch(0, 0x4000_0000);
        assert!(t1 >= 120);
        let t2 = h.inst_fetch(t1, 0x4000_0010);
        assert_eq!(t2, t1 + 1, "same line, L1I 1-cycle hit");
        assert!(h.inst_would_hit(0x4000_0020));
        let s = h.stats();
        assert_eq!(s.itlb.1, 1);
        assert_eq!(s.l1i.hits, 1);
    }

    #[test]
    fn delta_since_isolates_the_measured_window() {
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let t = h.data_access(0, 0x40000, false); // warmup: cold miss
        let base = h.stats();
        let _ = h.data_access(t, 0x40000, false); // measured: warm hit
        let d = h.stats().delta_since(&base);
        assert_eq!(d.l1d.accesses, 1);
        assert_eq!(d.l1d.hits, 1, "warmup trained the cache");
        assert_eq!(d.l1d.primary_misses, 0, "the cold miss is warmup's");
        assert_eq!(d.dtlb, (1, 0));
        // A zero base is the identity.
        assert_eq!(h.stats().delta_since(&HierarchyStats::default()), h.stats());
    }

    #[test]
    fn stores_count_in_l1d() {
        let mut h = Hierarchy::new(HierarchyConfig::paper());
        let t = h.data_access(0, 0x40000, true);
        let t2 = h.data_access(t, 0x40000, true);
        let _ = t2;
        let s = h.stats();
        assert_eq!(s.l1d.accesses, 2);
        assert_eq!(s.l1d.hits, 1);
    }
}
