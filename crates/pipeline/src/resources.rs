//! Timestamp-based resource models.
//!
//! The simulator propagates per-instruction stage timestamps instead of
//! iterating cycle by cycle; these helpers answer "when can this
//! instruction acquire the resource" for bounded structures whose entries
//! release at arbitrary (already-computed) times.
//!
//! Both structures here sit on the per-record hot path (a simulated
//! instruction touches the pools up to a dozen times and issues through a
//! [`UnitSet`] exactly once), so they are flat rings over plain arrays:
//! no hashing, no heap churn, branch-predictable scans. Their observable
//! semantics are bit-exact with the reference `VecDeque`/hash-map
//! formulations they replaced — the grid-fusion acceptance gate
//! (byte-identical reports) depends on that.

/// A structure with `capacity` entries, each held from acquisition until a
/// caller-supplied release cycle (ROB, issue queues, LSQ, physical register
/// free lists).
///
/// Releases are kept sorted ascending in a power-of-two ring: most pools
/// release at the commit cycle, which is monotone, so the common case is
/// an O(1) append / expire — and these pools are touched several times
/// per simulated instruction. Out-of-order releases (issue-queue slots on
/// an early-issuing instruction) take one insertion-sort step from the
/// tail, bounded by the capacity. (A binary heap is slower: every pool
/// stays full, so every acquire would pay a log-depth pop.)
#[derive(Clone, Debug)]
pub struct Pool {
    /// Outstanding release cycles in ascending order, stored at ring
    /// indices `(head + i) & mask` for `i < len`.
    ring: Box<[u64]>,
    head: usize,
    len: usize,
    mask: usize,
    capacity: usize,
}

impl Pool {
    /// A pool with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pool must have capacity");
        let slots = capacity.next_power_of_two();
        Pool {
            ring: vec![0u64; slots].into_boxed_slice(),
            head: 0,
            len: 0,
            mask: slots - 1,
            capacity,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        self.ring[(self.head + i) & self.mask]
    }

    #[inline]
    fn set(&mut self, i: usize, v: u64) {
        let mask = self.mask;
        self.ring[(self.head + i) & mask] = v;
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Earliest cycle ≥ `now` at which an entry can be acquired, without
    /// acquiring it.
    #[inline]
    pub fn earliest(&mut self, now: u64) -> u64 {
        while self.len >= self.capacity && self.ring[self.head] <= now {
            self.pop_front();
        }
        if self.len < self.capacity {
            now
        } else {
            now.max(self.ring[self.head])
        }
    }

    /// Acquires an entry at (or after) `now`, holding it until `release`.
    /// Returns the acquisition cycle.
    pub fn acquire(&mut self, now: u64, release: u64) -> u64 {
        let at = self.earliest(now);
        if self.len >= self.capacity {
            self.pop_front();
        }
        let r = release.max(at);
        // One insertion-sort step from the tail: shift every entry later
        // than `r` one slot right and stop at the first that is not. An
        // in-order release (the common case) shifts nothing.
        let mut i = self.len;
        while i > 0 {
            let v = self.get(i - 1);
            if v <= r {
                break;
            }
            self.set(i, v);
            i -= 1;
        }
        self.set(i, r);
        self.len += 1;
        at
    }

    /// Capacity of the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Cycle span a [`UnitSet`] keeps start counts for. Bookings run at most
/// a dependence chain's depth ahead of the issue frontier and queries
/// never fall behind the oldest live booking by more than that, so the
/// live span is far smaller than this window; the set panics loudly
/// (rather than silently mis-counting) if a workload ever exceeds it.
const UNIT_WINDOW: u64 = 1 << 15;

/// A set of identical pipelined functional units: up to `n` operations
/// can start per cycle, tracked as a flat ring of per-cycle start counts
/// so that an operation booked far in the future (a long dependence
/// chain) does not block earlier, actually-free issue slots.
#[derive(Clone, Debug)]
pub struct UnitSet {
    n: u8,
    /// Per-cycle start counts for cycles `[base, base + UNIT_WINDOW)`,
    /// indexed by `cycle & (UNIT_WINDOW - 1)`. Slots outside the live
    /// window are zero by invariant: advancing the window re-zeroes every
    /// slot it vacates.
    booked: Box<[u8]>,
    /// Lowest cycle the window covers.
    base: u64,
}

impl UnitSet {
    /// A set of `n` units.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 255.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "unit set must have units");
        assert!(n <= u8::MAX as usize, "unit count must fit a byte");
        UnitSet {
            n: n as u8,
            booked: vec![0u8; UNIT_WINDOW as usize].into_boxed_slice(),
            base: 0,
        }
    }

    /// Slides the window forward so cycle `c` is representable, zeroing
    /// the slots the old window vacates. Each slot is cleared once per
    /// window pass, so the cost amortizes to O(1) per cycle advanced.
    #[cold]
    fn advance(&mut self, c: u64) {
        let new_base = c + 1 - UNIT_WINDOW;
        let vacated = new_base - self.base;
        if vacated >= UNIT_WINDOW {
            self.booked.fill(0);
        } else {
            // The vacated cycles `[base, new_base)` are one run of ring
            // slots, split in two where it wraps past the end.
            let start = (self.base & (UNIT_WINDOW - 1)) as usize;
            let end = start + vacated as usize;
            let ring = self.booked.len();
            if end <= ring {
                self.booked[start..end].fill(0);
            } else {
                self.booked[start..].fill(0);
                self.booked[..end - ring].fill(0);
            }
        }
        self.base = new_base;
    }

    /// Issues an operation at the earliest cycle ≥ `ready` with a free
    /// issue slot; returns the actual issue cycle.
    #[inline]
    pub fn issue(&mut self, ready: u64) -> u64 {
        assert!(
            ready >= self.base,
            "unit-set query at cycle {ready} behind window base {}: \
             live booking span exceeded UNIT_WINDOW",
            self.base
        );
        let mut c = ready;
        loop {
            if c >= self.base + UNIT_WINDOW {
                self.advance(c);
            }
            let slot = (c & (UNIT_WINDOW - 1)) as usize;
            if self.booked[slot] < self.n {
                self.booked[slot] += 1;
                return c;
            }
            c += 1;
        }
    }
}

/// A sliding width limiter: at most `width` events per cycle (fetch,
/// rename, commit bandwidth).
#[derive(Clone, Debug)]
pub struct WidthLimiter {
    width: usize,
    cycle: u64,
    used: usize,
}

impl WidthLimiter {
    /// A limiter allowing `width` events per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        WidthLimiter {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// Books one slot at the earliest cycle ≥ `now`; returns that cycle.
    pub fn book(&mut self, now: u64) -> u64 {
        if now > self.cycle {
            self.cycle = now;
            self.used = 0;
        }
        if self.used >= self.width {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }

    /// Forces the next booking to start no earlier than `cycle` (pipeline
    /// redirect).
    pub fn redirect(&mut self, cycle: u64) {
        if cycle > self.cycle {
            self.cycle = cycle;
            self.used = 0;
        }
    }

    /// Ends the current group: the next booking lands in a later cycle
    /// (taken-branch fetch break).
    pub fn break_group(&mut self) {
        self.used = self.width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_admits_until_full() {
        let mut p = Pool::new(2);
        assert_eq!(p.acquire(0, 100), 0);
        assert_eq!(p.acquire(0, 50), 0);
        // Full: next acquire waits for the earliest release (50).
        assert_eq!(p.acquire(0, 200), 50);
        // Now occupants release at 100 and 200.
        assert_eq!(p.acquire(60, 300), 100);
    }

    #[test]
    fn pool_earliest_is_idempotent() {
        let mut p = Pool::new(1);
        p.acquire(0, 10);
        assert_eq!(p.earliest(0), 10);
        assert_eq!(p.earliest(0), 10);
        assert_eq!(p.earliest(20), 20, "past releases free the entry");
    }

    #[test]
    fn pool_sorted_insert_keeps_order() {
        // Out-of-order releases (issue-queue pattern): the ring must stay
        // sorted so `earliest` always sees the soonest release.
        let mut p = Pool::new(3);
        p.acquire(0, 90);
        p.acquire(0, 30);
        p.acquire(0, 60);
        // Full; earliest release is 30.
        assert_eq!(p.earliest(0), 30);
        assert_eq!(p.acquire(0, 120), 30);
        assert_eq!(p.earliest(31), 60);
    }

    #[test]
    fn pool_ring_wraps_cleanly() {
        // Far more acquisitions than capacity exercises ring wrap-around
        // with a mix of monotone and out-of-order releases.
        let mut p = Pool::new(3);
        let mut now = 0;
        for i in 0..1000u64 {
            now = p.acquire(now, now + 5 + (i % 3));
        }
        assert!(p.earliest(now) >= now);
    }

    /// The pool's contract over a sorted `Vec`: the same lazy expiry
    /// (entries go only when the pool is full) and the same ties (a
    /// release lands after every equal one).
    struct ReferencePool {
        releases: Vec<u64>,
        capacity: usize,
    }

    impl ReferencePool {
        fn earliest(&mut self, now: u64) -> u64 {
            while self.releases.len() >= self.capacity && self.releases[0] <= now {
                self.releases.remove(0);
            }
            if self.releases.len() < self.capacity {
                now
            } else {
                now.max(self.releases[0])
            }
        }

        fn acquire(&mut self, now: u64, release: u64) -> u64 {
            let at = self.earliest(now);
            if self.releases.len() >= self.capacity {
                self.releases.remove(0);
            }
            let r = release.max(at);
            let i = self.releases.partition_point(|&v| v <= r);
            self.releases.insert(i, r);
            at
        }
    }

    #[test]
    fn pool_matches_a_sorted_vec_reference() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for capacity in [1, 2, 3, 7, 8, 32, 80] {
            let mut pool = Pool::new(capacity);
            let mut reference = ReferencePool {
                releases: Vec::new(),
                capacity,
            };
            let mut now = 0u64;
            for step in 0..20_000 {
                now += next() % 3;
                // Mostly near-monotone releases, with out-of-order ones
                // that land anywhere in the window, ties included.
                let release = match next() % 4 {
                    0 => now + next() % 4,
                    1 => now + next() % 200,
                    _ => now + 20 + next() % 8,
                };
                if next().is_multiple_of(5) {
                    assert_eq!(pool.earliest(now), reference.earliest(now), "step {step}");
                }
                let got = pool.acquire(now, release);
                assert_eq!(got, reference.acquire(now, release), "step {step}");
                now = now.max(got);
                let held: Vec<u64> = (0..pool.len).map(|i| pool.get(i)).collect();
                assert_eq!(held, reference.releases, "capacity {capacity} step {step}");
            }
        }
    }

    #[test]
    fn unit_set_allows_n_per_cycle() {
        let mut u = UnitSet::new(2);
        assert_eq!(u.issue(5), 5);
        assert_eq!(u.issue(5), 5, "second unit");
        assert_eq!(u.issue(5), 6, "both busy at 5");
    }

    #[test]
    fn future_bookings_do_not_block_earlier_slots() {
        // A long dependence chain books cycles 100, 101, 102...; an
        // independent op that is ready at 10 must still issue at 10.
        let mut u = UnitSet::new(1);
        for t in 100..110 {
            assert_eq!(u.issue(t), t);
        }
        assert_eq!(u.issue(10), 10, "earlier free slot is usable");
        assert_eq!(u.issue(10), 11, "but only once for a single unit");
    }

    #[test]
    fn unit_window_slides_and_forgets_stale_cycles() {
        let mut u = UnitSet::new(1);
        assert_eq!(u.issue(0), 0);
        // Jump far past the window: the slide must zero vacated ring
        // slots, not double-count cycle 0's old booking.
        let far = UNIT_WINDOW * 3 + 7;
        assert_eq!(u.issue(far), far);
        assert_eq!(u.issue(far), far + 1, "unit busy at `far`");
        // The cycle aliasing cycle 0's ring slot inside the new window is
        // free again.
        let aliased = (far + 1 - UNIT_WINDOW).next_multiple_of(UNIT_WINDOW);
        assert_eq!(u.issue(aliased), aliased);
    }

    /// [`UnitSet`] with the window slide written slot by slot: one masked
    /// store per vacated cycle.
    struct ReferenceUnits {
        n: u8,
        booked: Vec<u8>,
        base: u64,
    }

    impl ReferenceUnits {
        fn issue(&mut self, ready: u64) -> u64 {
            let mut c = ready;
            loop {
                if c >= self.base + UNIT_WINDOW {
                    let new_base = c + 1 - UNIT_WINDOW;
                    for cycle in self.base..new_base.min(self.base + UNIT_WINDOW) {
                        self.booked[(cycle & (UNIT_WINDOW - 1)) as usize] = 0;
                    }
                    self.base = new_base;
                }
                let slot = (c & (UNIT_WINDOW - 1)) as usize;
                if self.booked[slot] < self.n {
                    self.booked[slot] += 1;
                    return c;
                }
                c += 1;
            }
        }
    }

    #[test]
    fn unit_set_matches_a_slot_by_slot_reference() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // Slides seen: inside the window without wrapping, across the
        // ring's wrap, and by UNIT_WINDOW or more.
        let (mut inside, mut wrapping, mut whole) = (0, 0, 0);
        for n in [1u8, 2, 4] {
            let mut units = UnitSet::new(n as usize);
            let mut reference = ReferenceUnits {
                n,
                booked: vec![0; UNIT_WINDOW as usize],
                base: 0,
            };
            for step in 0..3_000 {
                let top = units.base + UNIT_WINDOW - 1;
                // Mostly bookings inside the window, with slides of every
                // size past its top.
                let ready = match next() % 8 {
                    0 => top + 1 + next() % 64,
                    1 => top + 1 + next() % UNIT_WINDOW,
                    2 => top + UNIT_WINDOW + next() % (2 * UNIT_WINDOW),
                    _ => top - next() % 256,
                };
                if ready > top {
                    let vacated = ready - top;
                    if vacated >= UNIT_WINDOW {
                        whole += 1;
                    } else if (units.base & (UNIT_WINDOW - 1)) + vacated > UNIT_WINDOW {
                        wrapping += 1;
                    } else {
                        inside += 1;
                    }
                }
                assert_eq!(
                    units.issue(ready),
                    reference.issue(ready),
                    "n={n} step {step}"
                );
                assert_eq!(units.base, reference.base, "n={n} step {step}");
                assert!(*units.booked == reference.booked[..], "n={n} step {step}");
            }
        }
        assert!(
            inside > 100 && wrapping > 10 && whole > 100,
            "{inside}/{wrapping}/{whole}"
        );
    }

    #[test]
    #[should_panic(expected = "behind window base")]
    fn unit_query_behind_window_panics() {
        let mut u = UnitSet::new(1);
        u.issue(UNIT_WINDOW * 4);
        u.issue(0);
    }

    #[test]
    fn width_limiter_packs_per_cycle() {
        let mut w = WidthLimiter::new(2);
        assert_eq!(w.book(0), 0);
        assert_eq!(w.book(0), 0);
        assert_eq!(w.book(0), 1, "third event spills to the next cycle");
        assert_eq!(w.book(5), 5, "time can jump forward");
    }

    #[test]
    fn width_limiter_redirect_and_break() {
        let mut w = WidthLimiter::new(3);
        w.book(0);
        w.break_group();
        assert_eq!(w.book(0), 1, "group break forces a new cycle");
        w.redirect(10);
        assert_eq!(w.book(0), 10, "redirect pushes fetch forward");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_pool_panics() {
        let _ = Pool::new(0);
    }
}
