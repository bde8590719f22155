//! Seeded input generators. The program under test receives only what
//! these produce; equal seeds give byte-identical inputs.
//!
//! Each generator fixes its structural parameters (class shares, sizes,
//! request counts per round) and lets the seed choose only their
//! realisation, so the cost of a run does not depend on which seed it is
//! given.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and good enough for input generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`, salted per input so two inputs of
    /// one run do not share a stream.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

// ---------------------------------------------------------------------------
// trace-cbp: a CBP-style `<ip> <taken>` branch log.

/// Shape of the generated branch log.
#[derive(Clone, Copy, Debug)]
pub struct CbpParams {
    /// Static branch sites.
    pub sites: usize,
    /// Dynamic branch records.
    pub branches: usize,
    /// Zipf exponent of site popularity (share of site at rank `r` is
    /// proportional to `(r+1)^-zipf`).
    pub zipf: f64,
}

/// The trace-cbp log: 4096 static sites and 2M dynamic branches. The
/// mild Zipf exponent keeps the most popular site near 5% of the
/// branches, so no single site's class decides the run. At 2M branches
/// one simulation takes several seconds, long enough to average over the
/// host's short bursts of contention.
pub const CBP: CbpParams = CbpParams {
    sites: 4096,
    branches: 2_000_000,
    zipf: 0.8,
};

/// Self-test scale of the log.
#[cfg(test)]
pub const CBP_TEST: CbpParams = CbpParams {
    sites: 256,
    branches: 20_000,
    zipf: 0.8,
};

/// Behaviour of one static site.
#[derive(Clone, Copy, Debug)]
enum Site {
    /// Taken with a fixed probability near 0 or 1.
    Biased { p_taken: f64 },
    /// A loop back-edge: runs `trip` times in a row, taken all but the
    /// last. Local or global history predicts it when `trip` fits.
    LoopExit { trip: u32 },
    /// The outcome of the branch `a` records back, optionally inverted
    /// (linearly separable), or the XOR of the outcomes `a` and `b`
    /// records back (not linearly separable).
    Correlated {
        a: u32,
        b: Option<u32>,
        invert: bool,
    },
    /// A fair coin: data-dependent and unpredictable.
    Random,
}

/// What the generator emitted, for checking the importer's summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CbpTruth {
    /// Dynamic records.
    pub branches: u64,
    /// Of those, taken.
    pub taken: u64,
    /// Distinct IPs that appear.
    pub static_branches: u64,
}

/// Generates the log for `seed`. Sites are split by popularity rank into
/// four classes (rank mod 4: biased, loop-exit, history-correlated,
/// data-random), so each class holds about a quarter of the dynamic
/// branches whatever the seed. Within a class, a site's parameters cycle
/// with its rank, so the mix of easy and hard sites is fixed too; the
/// seed picks the addresses (and so the table aliasing), the bias
/// directions and the outcome streams.
pub fn cbp_log(seed: u64, p: &CbpParams) -> (String, CbpTruth) {
    let mut rng = Rng::new(seed, 1);
    // Distinct 4-byte-aligned addresses spread over a 32*sites window.
    let mut offsets: Vec<u64> = (0..(p.sites as u64 * 8)).collect();
    rng.shuffle(&mut offsets);
    let ips: Vec<u64> = offsets[..p.sites]
        .iter()
        .map(|o| 0x40_0000 + o * 4)
        .collect();

    let sites: Vec<Site> = (0..p.sites)
        .map(|rank| {
            let k = (rank / 4) as u32;
            match rank % 4 {
                0 => {
                    let bias = 0.90 + 0.01 * (k % 9) as f64;
                    Site::Biased {
                        p_taken: if rng.below(2) == 0 { bias } else { 1.0 - bias },
                    }
                }
                1 => Site::LoopExit { trip: 3 + k % 14 },
                2 => {
                    let a = 1 + k % 8;
                    Site::Correlated {
                        a,
                        b: (k % 2 == 1).then_some(1 + (a + k / 8 % 7) % 8),
                        invert: k / 2 % 2 == 1,
                    }
                }
                _ => Site::Random,
            }
        })
        .collect();

    // A site is picked per burst (a loop runs its whole trip per pick), so
    // its pick weight is its branch share divided by its burst length.
    let burst = |s: &Site| match *s {
        Site::LoopExit { trip } => trip as f64,
        _ => 1.0,
    };
    let mut cdf = Vec::with_capacity(p.sites);
    let mut acc = 0.0;
    for (rank, s) in sites.iter().enumerate() {
        acc += (rank as f64 + 1.0).powf(-p.zipf) / burst(s);
        cdf.push(acc);
    }

    let mut out = String::with_capacity(p.branches * 12);
    let mut history: u64 = 0;
    let mut seen = vec![false; p.sites];
    let mut truth = CbpTruth {
        branches: 0,
        taken: 0,
        static_branches: 0,
    };
    let mut emit = |k: usize, taken: bool, out: &mut String, history: &mut u64| {
        let _ = writeln!(out, "{:#x} {}", ips[k], u8::from(taken));
        *history = (*history << 1) | u64::from(taken);
        truth.branches += 1;
        truth.taken += u64::from(taken);
        if !seen[k] {
            seen[k] = true;
            truth.static_branches += 1;
        }
    };
    let bit = |history: u64, back: u32| (history >> (back - 1)) & 1 == 1;
    let mut emitted = 0usize;
    while emitted < p.branches {
        let x = rng.unit() * acc;
        let k = cdf.partition_point(|&c| c <= x).min(p.sites - 1);
        match sites[k] {
            Site::Biased { p_taken } => {
                let t = rng.unit() < p_taken;
                emit(k, t, &mut out, &mut history);
                emitted += 1;
            }
            Site::LoopExit { trip } => {
                for i in 0..trip {
                    if emitted == p.branches {
                        break;
                    }
                    emit(k, i + 1 < trip, &mut out, &mut history);
                    emitted += 1;
                }
            }
            Site::Correlated { a, b, invert } => {
                let t = bit(history, a) ^ b.is_some_and(|b| bit(history, b)) ^ invert;
                emit(k, t, &mut out, &mut history);
                emitted += 1;
            }
            Site::Random => {
                let t = rng.below(2) == 1;
                emit(k, t, &mut out, &mut history);
                emitted += 1;
            }
        }
    }
    (out, truth)
}

// ---------------------------------------------------------------------------
// serve-mix: the request sequence.

/// One request of the serve-mix sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Warm `report` render of the prewarmed grid.
    Report,
    /// Warm `fig6a` render of the prewarmed grid.
    Fig6a,
    /// Warm `cell` hit: index into the prewarmed grid's job list.
    Hit(usize),
    /// Cold `cell` miss on a cell nothing has simulated yet.
    Cold(ColdCell),
}

impl Request {
    /// Request class, for per-class accounting.
    pub fn class(&self) -> &'static str {
        match self {
            Request::Report => "report",
            Request::Fig6a => "fig6a",
            Request::Hit(_) => "hit",
            Request::Cold(_) => "cold",
        }
    }
}

/// A cold cell: a benchmark × scheme × predication × if-conversion cell
/// at a commit budget no other request uses, optionally sampled.
#[derive(Clone, Debug, PartialEq)]
pub struct ColdCell {
    /// Benchmark index into the suite.
    pub bench: usize,
    /// Scheme index into the Figure 6a columns.
    pub column: usize,
    /// Simulate the if-converted binary.
    pub ifconv: bool,
    /// Commit budget, unique per cold cell.
    pub commits: u64,
    /// Sampled-window skip, unique per cold cell (`None` = full run).
    pub sample_skip: Option<u64>,
}

/// Requests per round, by class: the weighting puts both the median and
/// the 95th percentile inside the mass of CPU-bound `report` renders
/// (hits fill the lowest quarter, `fig6a` the next eighth, cold misses
/// the top 2.5%), so neither lands on a boundary between classes.
pub const ROUND: [(&str, usize); 4] = [("report", 24), ("fig6a", 5), ("hit", 10), ("cold", 1)];

/// Lowest commit budget of a cold cell. Cold budgets step by 7 from here
/// and every third cold cell is sampled, so no two cold requests share a
/// cache key or a capture.
pub const COLD_COMMITS: u64 = 40_000;

/// Round `round` of the sequence for `seed`: the [`ROUND`] counts in a
/// seeded order, hits drawn from `grid_cells` prewarmed cells, cold cells
/// over `benches` benchmarks and `columns` scheme columns.
pub fn serve_round(
    seed: u64,
    round: u64,
    grid_cells: usize,
    benches: usize,
    columns: usize,
) -> Vec<Request> {
    let mut rng = Rng::new(seed, 2 + round);
    let mut reqs = Vec::new();
    let per_round_cold = ROUND[3].1 as u64;
    for &(class, n) in &ROUND {
        for i in 0..n {
            reqs.push(match class {
                "report" => Request::Report,
                "fig6a" => Request::Fig6a,
                "hit" => Request::Hit(rng.below(grid_cells as u64) as usize),
                _ => {
                    let k = round * per_round_cold + i as u64;
                    Request::Cold(ColdCell {
                        bench: rng.below(benches as u64) as usize,
                        column: rng.below(columns as u64) as usize,
                        ifconv: rng.below(2) == 1,
                        commits: COLD_COMMITS + 7 * k,
                        sample_skip: (k % 3 == 2).then_some(1_000 + 7 * k),
                    })
                }
            });
        }
    }
    rng.shuffle(&mut reqs);
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: CbpParams = CBP_TEST;

    #[test]
    fn equal_seeds_give_identical_inputs_and_different_seeds_differ() {
        let (a, ta) = cbp_log(7, &SMALL);
        let (b, tb) = cbp_log(7, &SMALL);
        let (c, _) = cbp_log(8, &SMALL);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        assert_ne!(a, c);
        assert_eq!(serve_round(7, 3, 220, 22, 6), serve_round(7, 3, 220, 22, 6));
        assert_ne!(serve_round(7, 3, 220, 22, 6), serve_round(8, 3, 220, 22, 6));
        assert_ne!(serve_round(7, 3, 220, 22, 6), serve_round(7, 4, 220, 22, 6));
    }

    #[test]
    fn cbp_log_has_the_requested_shape() {
        let (text, truth) = cbp_log(1, &SMALL);
        assert_eq!(text.lines().count(), SMALL.branches);
        assert_eq!(truth.branches, SMALL.branches as u64);
        assert!(truth.static_branches > SMALL.sites as u64 / 2);
        let taken = text.lines().filter(|l| l.ends_with(" 1")).count() as u64;
        assert_eq!(taken, truth.taken);
    }

    #[test]
    fn rounds_hold_fixed_class_counts_and_unique_cold_cells() {
        let mut cold = Vec::new();
        for round in 0..20 {
            let r = serve_round(5, round, 220, 22, 6);
            for &(class, n) in &ROUND {
                assert_eq!(r.iter().filter(|q| q.class() == class).count(), n);
            }
            cold.extend(r.into_iter().filter_map(|q| match q {
                Request::Cold(c) => Some(c.commits),
                _ => None,
            }));
        }
        let mut dedup = cold.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), cold.len());
    }
}
