//! A set-associative, non-blocking cache timing model.
//!
//! The cache tracks tags, true-LRU state, dirty bits, a bounded set of
//! MSHRs (miss status holding registers) that merge secondary misses into
//! in-flight primary misses, and a write buffer that absorbs dirty
//! evictions. It models *time*, not data: every access returns the cycle at
//! which the requested word is available.

/// Geometry and policy of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (a power of two).
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Primary-miss MSHRs (in-flight distinct lines).
    pub mshrs: usize,
    /// Secondary misses that can merge into one MSHR.
    pub secondary_per_mshr: usize,
    /// Write-buffer entries absorbing dirty evictions.
    pub write_buffer_entries: usize,
}

impl CacheConfig {
    /// Table 1 L1 data cache: 64 KB, 4-way, 64 B, 2-cycle, 12 primary +
    /// 4 secondary misses, 16 write buffers.
    pub fn paper_l1d() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            hit_latency: 2,
            mshrs: 12,
            secondary_per_mshr: 4,
            write_buffer_entries: 16,
        }
    }

    /// Table 1 L1 instruction cache: 32 KB, 4-way, 64 B, 1-cycle.
    pub fn paper_l1i() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
            mshrs: 4,
            secondary_per_mshr: 4,
            write_buffer_entries: 0,
        }
    }

    /// Table 1 unified L2: 1 MB, 16-way, 128 B, 8-cycle, 12 primary
    /// misses, 8 write buffers.
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 16,
            line_bytes: 128,
            hit_latency: 8,
            mshrs: 12,
            secondary_per_mshr: 4,
            write_buffer_entries: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Event counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Primary misses (new line requests).
    pub primary_misses: u64,
    /// Secondary misses (merged into an in-flight MSHR).
    pub secondary_misses: u64,
    /// Cycles lost waiting for a free MSHR.
    pub mshr_stall_cycles: u64,
    /// Dirty lines pushed to the write buffer.
    pub writebacks: u64,
    /// Cycles lost waiting for a free write-buffer entry.
    pub write_buffer_stall_cycles: u64,
}

impl CacheStats {
    /// Miss ratio over all accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 - self.hits as f64 / self.accesses as f64
        }
    }

    /// Counter increments since `base` (an earlier snapshot of the same
    /// monotonic counters). Sampled simulation uses this to report only
    /// the measured window: warmup accesses train the cache but are
    /// subtracted out here.
    pub fn delta_since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses - base.accesses,
            hits: self.hits - base.hits,
            primary_misses: self.primary_misses - base.primary_misses,
            secondary_misses: self.secondary_misses - base.secondary_misses,
            mshr_stall_cycles: self.mshr_stall_cycles - base.mshr_stall_cycles,
            writebacks: self.writebacks - base.writebacks,
            write_buffer_stall_cycles: self.write_buffer_stall_cycles
                - base.write_buffer_stall_cycles,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

#[derive(Clone, Copy, Debug)]
struct Mshr {
    line_addr: u64,
    ready_at: u64,
    secondaries: usize,
}

/// Result of a cache lookup, consumed by [`crate::Hierarchy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Lookup {
    /// Cycle at which the data is available at this level.
    pub done_at: u64,
    /// Whether it hit (including hitting an in-flight MSHR).
    pub hit: bool,
    /// Whether the next level must be consulted (primary miss).
    pub fetch_from_next: bool,
    /// Cycle at which the next-level request is issued (after any stalls).
    pub issue_next_at: u64,
}

/// One cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    mshrs: Vec<Mshr>,
    write_buffer: Vec<u64>, // drain-completion cycles
    stats: CacheStats,
    tick: u64,
    set_mask: u64,
    line_shift: u32,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line size,
    /// zero ways, or capacity not divisible by `ways × line_bytes`).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways > 0, "cache must have ways");
        assert_eq!(
            cfg.size_bytes % (cfg.ways * cfg.line_bytes),
            0,
            "capacity must divide evenly into sets"
        );
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    lru: 0
                };
                sets * cfg.ways
            ],
            mshrs: Vec::with_capacity(cfg.mshrs),
            write_buffer: Vec::with_capacity(cfg.write_buffer_entries),
            stats: CacheStats::default(),
            tick: 0,
            set_mask: sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Event counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr & self.set_mask) as usize
    }

    fn set_slice_mut(&mut self, set: usize) -> &mut [Line] {
        let w = self.cfg.ways;
        &mut self.lines[set * w..(set + 1) * w]
    }

    /// Test/benchmark helper: performs an access against a fixed 100-cycle
    /// next level and returns the completion cycle.
    pub fn access_for_test(&mut self, now: u64, addr: u64, is_write: bool) -> u64 {
        self.access(now, addr, is_write, |issue| issue + 100)
            .done_at
    }

    /// Probes whether `addr` currently hits (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        let w = self.cfg.ways;
        self.lines[set * w..(set + 1) * w]
            .iter()
            .any(|l| l.valid && l.tag == la)
    }

    /// Performs a timed access at cycle `now`.
    ///
    /// `fill_done_at` is a closure resolving when the next level can
    /// deliver the line, given the cycle at which the request leaves this
    /// level. It is only invoked on a primary miss.
    pub(crate) fn access(
        &mut self,
        now: u64,
        addr: u64,
        is_write: bool,
        fill_done_at: impl FnOnce(u64) -> u64,
    ) -> Lookup {
        self.tick += 1;
        self.stats.accesses += 1;
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        let tick = self.tick;

        // Retire completed MSHRs and drained write-buffer entries.
        self.mshrs.retain(|m| m.ready_at > now);
        self.write_buffer.retain(|&d| d > now);

        // In-flight MSHR for the same line? → secondary miss (the tags are
        // installed at allocation time, but the data arrives with the
        // fill).
        if let Some(m) = self.mshrs.iter_mut().find(|m| m.line_addr == la) {
            if m.secondaries < self.cfg.secondary_per_mshr {
                m.secondaries += 1;
                self.stats.secondary_misses += 1;
                let done = m.ready_at;
                return Lookup {
                    done_at: done,
                    hit: true,
                    fetch_from_next: false,
                    issue_next_at: now,
                };
            }
            // Secondary slots exhausted: wait for the fill, then re-issue
            // as a (free) hit.
            self.stats.mshr_stall_cycles += m.ready_at.saturating_sub(now);
            let done = m.ready_at + self.cfg.hit_latency;
            return Lookup {
                done_at: done,
                hit: true,
                fetch_from_next: false,
                issue_next_at: now,
            };
        }

        // Tag match with no in-flight fill → plain hit.
        if let Some(line) = self
            .set_slice_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == la)
        {
            line.lru = tick;
            if is_write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return Lookup {
                done_at: now + self.cfg.hit_latency,
                hit: true,
                fetch_from_next: false,
                issue_next_at: now,
            };
        }

        // Primary miss: need an MSHR.
        self.stats.primary_misses += 1;
        let mut issue_at = now;
        if self.mshrs.len() >= self.cfg.mshrs {
            // Stall until the earliest MSHR frees.
            let earliest = self.mshrs.iter().map(|m| m.ready_at).min().unwrap_or(now);
            self.stats.mshr_stall_cycles += earliest.saturating_sub(now);
            issue_at = issue_at.max(earliest);
            let keep_after = issue_at;
            self.mshrs.retain(|m| m.ready_at > keep_after);
        }

        // Victim selection and writeback.
        let wb_entries = self.cfg.write_buffer_entries;
        let (victim_dirty, victim_valid) = {
            let slice = self.set_slice_mut(set);
            let victim = slice
                .iter_mut()
                .min_by_key(|l| if l.valid { l.lru } else { 0 })
                .expect("ways > 0");
            let vd = victim.valid && victim.dirty;
            let vv = victim.valid;
            victim.tag = la;
            victim.valid = true;
            victim.dirty = is_write;
            victim.lru = tick;
            (vd, vv)
        };
        let _ = victim_valid;
        if victim_dirty {
            self.stats.writebacks += 1;
            if wb_entries == 0 {
                // No write buffer: the writeback serializes with the fill.
                issue_at += self.cfg.hit_latency;
            } else if self.write_buffer.len() >= wb_entries {
                let earliest = self.write_buffer.iter().copied().min().unwrap_or(issue_at);
                self.stats.write_buffer_stall_cycles += earliest.saturating_sub(issue_at);
                issue_at = issue_at.max(earliest);
                let keep_after = issue_at;
                self.write_buffer.retain(|&d| d > keep_after);
                self.write_buffer.push(issue_at + 40);
            } else {
                self.write_buffer.push(issue_at + 40);
            }
        }

        let fill_at = fill_done_at(issue_at + self.cfg.hit_latency);
        self.mshrs.push(Mshr {
            line_addr: la,
            ready_at: fill_at,
            secondaries: 0,
        });
        Lookup {
            done_at: fill_at,
            hit: false,
            fetch_from_next: true,
            issue_next_at: issue_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency: 2,
            mshrs: 2,
            secondary_per_mshr: 1,
            write_buffer_entries: 2,
        }
    }

    fn mem100(issue: u64) -> u64 {
        issue + 100
    }

    #[test]
    fn geometry() {
        let c = Cache::new(CacheConfig::paper_l1d());
        assert_eq!(c.config().sets(), 256);
        let c = Cache::new(CacheConfig::paper_l2());
        assert_eq!(c.config().sets(), 512);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(small());
        let r = c.access(0, 0x1000, false, mem100);
        assert!(!r.hit);
        assert!(r.done_at >= 100);
        let r2 = c.access(r.done_at, 0x1008, false, mem100);
        assert!(r2.hit, "same line hits after fill");
        assert_eq!(r2.done_at, r.done_at + 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().primary_misses, 1);
    }

    #[test]
    fn secondary_miss_merges() {
        let mut c = Cache::new(small());
        let r1 = c.access(0, 0x1000, false, mem100);
        let r2 = c.access(1, 0x1010, false, mem100);
        assert!(r2.hit, "merged into the in-flight MSHR");
        assert_eq!(r2.done_at, r1.done_at, "completes with the fill");
        assert_eq!(c.stats().secondary_misses, 1);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = Cache::new(small());
        c.access(0, 0x1000, false, mem100);
        c.access(0, 0x2000, false, mem100);
        // Third distinct line at cycle 0: both MSHRs busy until ~102.
        let r = c.access(0, 0x3000, false, mem100);
        assert!(!r.hit);
        assert!(r.issue_next_at > 0, "had to wait for a free MSHR");
        assert!(c.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cfg = small(); // 2 ways, 8 sets
        let mut c = Cache::new(cfg);
        let set_stride = 64 * 8; // same set every 512 bytes
        let a = 0x0u64;
        let b = a + set_stride;
        let d = a + 2 * set_stride;
        let mut now = 0;
        for &addr in &[a, b] {
            let r = c.access(now, addr, false, mem100);
            now = r.done_at;
        }
        // Touch A so B becomes LRU.
        now = c.access(now, a, false, mem100).done_at;
        // D evicts B.
        now = c.access(now, d, false, mem100).done_at;
        assert!(c.probe(a), "A retained");
        assert!(!c.probe(b), "B evicted (LRU)");
        assert!(c.probe(d));
        let _ = now;
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let cfg = small();
        let mut c = Cache::new(cfg);
        let set_stride = 64 * 8;
        let mut now = 0;
        now = c.access(now, 0, true, mem100).done_at; // dirty A
        now = c.access(now, set_stride, false, mem100).done_at; // B
        now = c.access(now, 2 * set_stride, false, mem100).done_at; // evicts A
        let _ = now;
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty_without_miss() {
        let mut c = Cache::new(small());
        let mut now = c.access(0, 0x1000, false, mem100).done_at;
        now = c.access(now, 0x1000, true, mem100).done_at;
        let _ = now;
        assert_eq!(c.stats().primary_misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut c = Cache::new(small());
        assert!(!c.probe(0x1000));
        c.access(0, 0x1000, false, mem100);
        let before = *c.stats();
        let _ = c.probe(0x1000);
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn miss_ratio_math() {
        let mut s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        s.accesses = 10;
        s.hits = 9;
        assert!((s.miss_ratio() - 0.1).abs() < 1e-12);
    }
}
