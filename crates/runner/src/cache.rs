//! The on-disk result cache.
//!
//! One file per job under the cache directory, named by the job's content
//! hash (`<hash16>.result`). The format is a hand-rolled line-oriented
//! text format (the workspace bans serde):
//!
//! ```text
//! ppsim-cache v8
//! job.bench=gzip
//! job.ifconv=0
//! ...                      # every line of Job::canon, prefixed "job."
//! stat.cycles=123456
//! stat.committed=500000
//! ...                      # every SimStats counter, in its fixed
//! stat.stall.fetch_miss=100  # store position (SimStats::METRICS)
//! ...
//! pc.17=5000,12
//! ...                      # per-branch (slot, execs, mispredicts) rows
//! static.insns=871
//! static.cond_branches=42
//! time.wall_micros=8120
//! ...                      # capture/compile/sim timing, telemetry-only
//! sum=0123456789abcdef     # FNV-1a over every preceding byte
//! end
//! ```
//!
//! Loads verify four things: the version header, the *full* canonical
//! job encoding (so a hash collision or a semantics change in any input
//! axis reads as a miss, never as a wrong result), the `sum=` checksum
//! (so a changed byte anywhere before it — a flipped digit in a stored
//! counter included — reads as a miss, never as a wrong statistic), and
//! the `end` sentinel (so a truncated write from a killed process reads
//! as a miss). A load reads the lines in the order a store writes them,
//! allocating nothing per line; an entry whose lines stray from that
//! order — `pc.` rows out of slot order or repeating a slot included —
//! reads as a miss. Stores write to a `.tmp` sibling and rename
//! into place, which is atomic on POSIX — concurrent runs never observe
//! half-written entries.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use ppsim_pipeline::{CounterField, SimStats, StatMetric};

use crate::hash::{fnv1a64, hex64};
use crate::job::{Job, JobResult};

/// Magic first line; bump the version to invalidate every entry.
/// v2 added the stall-attribution buckets and the per-branch rows; v3
/// added the committed-path stage counters (`fetched`, `renamed`) and
/// `early_resolved_mispredicts`; v4 added the `time.*` telemetry lines
/// (wall/compile/capture/sim); v5 added the `sample=` axis to the
/// canonical job encoding, so a sampled window and a full run can never
/// alias; v6 marked the fused-grid era — per-cell keys were unchanged,
/// but the timing-telemetry lines a fused pass stored were per-lane
/// shares, so entries written by pre-fusion binaries were retired
/// wholesale (the runner has since returned to one job per cell, so new
/// timing lines are per cell again; the format did not change, and
/// timing lines never reach a report); v7 added the always-
/// emitted `trace=` axis (external trace ingestion) to the canonical
/// job encoding — every canon string changed, so pre-trace entries
/// would all miss on the canon comparison anyway, and the bump retires
/// them instead of leaving dead files behind; v8 added the `sum=`
/// checksum line before `end` (v7 entries carry none, and their bodies
/// were never verified, so they are retired too). Entries from any other
/// version — older or newer — read as misses (the exact-match header
/// check below), never as wrong results.
const HEADER: &str = "ppsim-cache v8";
/// Last line; its absence marks a truncated entry.
const FOOTER: &str = "end";

/// One `stat.` line per [`SimStats`] counter.
const STAT_LINES: usize = {
    let mut n = 0;
    let mut i = 0;
    while i < SimStats::METRICS.len() {
        if let StatMetric::Counter(_) = SimStats::METRICS[i].1 {
            n += 1;
        }
        i += 1;
    }
    n
};

/// [`SimStats::METRICS`] indices of the counters in `stat.` line order
/// (each counter's `store` position). A position out of range or used
/// twice fails the build.
const STAT_ORDER: [usize; STAT_LINES] = {
    let mut order = [usize::MAX; STAT_LINES];
    let mut i = 0;
    while i < SimStats::METRICS.len() {
        if let StatMetric::Counter(CounterField { store, .. }) = SimStats::METRICS[i].1 {
            assert!(
                order[store as usize] == usize::MAX,
                "two counters share a store position"
            );
            order[store as usize] = i;
        }
        i += 1;
    }
    order
};

/// The counters in `stat.` line order, by key: the metric name without
/// the `mem.` that memory counters carry.
fn stat_lines() -> impl Iterator<Item = (&'static str, CounterField)> {
    STAT_ORDER.iter().map(|&i| match SimStats::METRICS[i] {
        (name, StatMetric::Counter(field)) => (name.strip_prefix("mem.").unwrap_or(name), field),
        (name, StatMetric::Ratio(_)) => unreachable!("{name} is a ratio"),
    })
}

/// On-disk cache usage, as reported by [`DiskCache::usage`] and the
/// `ppsim cache stats` subcommand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheUsage {
    /// Result entries currently stored.
    pub entries: u64,
    /// Bytes held by result entries (recency sidecars excluded).
    pub bytes: u64,
}

/// A directory of cached job results.
///
/// Optionally size-capped: when a byte budget is set, every store sweeps
/// the directory and evicts least-recently-used entries until the total
/// fits. Recency is approximated with the filesystem: a store's own
/// mtime marks creation, and every load hit on a capped cache drops a
/// zero-byte `<hash>.touch` sidecar beside the entry (std has no way to
/// bump an mtime directly), so an entry's recency is the newer of the
/// two. An uncapped cache never reads recency, so its hits write nothing.
#[derive(Clone, Debug)]
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
    evictions: Arc<AtomicU64>,
}

impl DiskCache {
    /// Opens (and creates if needed) an uncapped cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        DiskCache::open_capped(dir, None)
    }

    /// Opens a cache with an optional byte budget. `Some(0)` is treated
    /// as "evict everything on every store" — legal, if eccentric.
    pub fn open_capped(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            max_bytes,
            evictions: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The default cache location: `$PPSIM_CACHE_DIR`, else
    /// `target/ppsim-cache` under the current directory.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("PPSIM_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target").join("ppsim-cache"))
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file of the job whose [`Job::canon`] is `canon`, named
    /// by its [`Job::hash_hex`].
    fn entry_path(&self, canon: &str) -> PathBuf {
        self.dir
            .join(format!("{}.result", hex64(fnv1a64(canon.as_bytes()))))
    }

    /// Loads the result for `job`, or `None` on any kind of miss
    /// (absent, truncated, stale canon, bad checksum, unparseable).
    /// Corrupt entries are treated as misses, not errors — the runner
    /// recomputes and overwrites them. A hit on a capped cache refreshes
    /// the entry's recency.
    pub fn load(&self, job: &Job) -> Option<JobResult> {
        self.load_canon(&job.canon())
    }

    /// [`DiskCache::load`] of the job whose [`Job::canon`] is `canon`,
    /// for a caller that already holds it. The one canon names the file
    /// and checks the stored echo.
    pub(crate) fn load_canon(&self, canon: &str) -> Option<JobResult> {
        let path = self.entry_path(canon);
        let text = fs::read_to_string(&path).ok()?;
        let result = parse_entry(&text, canon)?;
        // Refresh recency, which only a capped cache's eviction reads. A
        // failed touch only degrades the eviction order, never
        // correctness.
        if self.max_bytes.is_some() {
            let _ = fs::write(path.with_extension("touch"), b"");
        }
        Some(result)
    }

    /// Stores the result for `job` atomically (`.tmp` + rename), then
    /// enforces the byte budget if one is set.
    pub fn store(&self, job: &Job, result: &JobResult) -> std::io::Result<()> {
        self.store_canon(&job.canon(), result)
    }

    /// [`DiskCache::store`] for the job whose [`Job::canon`] is `canon`.
    pub(crate) fn store_canon(&self, canon: &str, result: &JobResult) -> std::io::Result<()> {
        let path = self.entry_path(canon);
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(render_entry(canon, result).as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        if self.max_bytes.is_some() {
            self.sweep();
        }
        Ok(())
    }

    /// Entries evicted by this handle (and its clones) since open.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current cache usage (entry count and byte total).
    pub fn usage(&self) -> CacheUsage {
        let mut usage = CacheUsage::default();
        for (_, len, _) in self.scan() {
            usage.entries += 1;
            usage.bytes += len;
        }
        usage
    }

    /// Removes every entry (results, recency sidecars, stray temp
    /// files), returning how many result entries were deleted.
    pub fn clear(&self) -> std::io::Result<u64> {
        let mut removed = 0;
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("result") => {
                    fs::remove_file(&path)?;
                    removed += 1;
                }
                Some("touch" | "tmp") => {
                    let _ = fs::remove_file(&path);
                }
                _ => {}
            }
        }
        Ok(removed)
    }

    /// Every result entry as `(path, bytes, recency)`, where recency is
    /// the newer of the entry's own mtime and its touch-sidecar's.
    fn scan(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let Ok(dirents) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut entries = Vec::new();
        for dirent in dirents.flatten() {
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("result") {
                continue;
            }
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            let mut recency = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            if let Ok(touch) = fs::metadata(path.with_extension("touch")) {
                if let Ok(t) = touch.modified() {
                    recency = recency.max(t);
                }
            }
            entries.push((path, meta.len(), recency));
        }
        entries
    }

    /// Evicts least-recently-used entries until the directory fits the
    /// byte budget. Recency ties break on file name so concurrent
    /// sweepers agree on the victim order.
    fn sweep(&self) {
        let Some(max) = self.max_bytes else { return };
        let mut entries = self.scan();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total <= max {
            return;
        }
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        for (path, len, _) in entries {
            if total <= max {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                let _ = fs::remove_file(path.with_extension("touch"));
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Renders the entry of the job whose [`Job::canon`] is `canon`.
fn render_entry(canon: &str, result: &JobResult) -> String {
    let mut s = String::with_capacity(2048);
    s.push_str(HEADER);
    s.push('\n');
    for line in canon.lines() {
        s.push_str("job.");
        s.push_str(line);
        s.push('\n');
    }
    // Writing into a String cannot fail, so the results are dropped.
    let stats = &result.stats;
    for (key, field) in stat_lines() {
        let _ = writeln!(s, "stat.{key}={}", (field.get)(stats));
    }
    // branch_pcs is sorted by slot in SimStats, no slot repeated, so this
    // section — like everything else in the entry — renders
    // deterministically, and a load can insist on that order.
    for &(slot, execs, events) in &stats.branch_pcs {
        let _ = writeln!(s, "pc.{slot}={execs},{events}");
    }
    let _ = writeln!(s, "static.insns={}", result.static_insns);
    let _ = writeln!(s, "static.cond_branches={}", result.static_cond_branches);
    // Timing lines record what the original run cost. They are telemetry
    // only: a hit still reports `from_cache` and the runner never counts
    // replayed timings toward wall totals, so report bytes stay
    // independent of cache state.
    let _ = writeln!(s, "time.wall_micros={}", result.wall_micros);
    let _ = writeln!(s, "time.compile_micros={}", result.compile_micros);
    let _ = writeln!(s, "time.capture_micros={}", result.capture_micros);
    let _ = writeln!(s, "time.sim_micros={}", result.sim_micros);
    let sum = hex64(fnv1a64(s.as_bytes()));
    let _ = write!(s, "sum={sum}\n{FOOTER}\n");
    s
}

/// The part of a stored entry that precedes its `sum=` line, when the
/// entry ends in exactly `sum=<checksum of that part>` and the `end`
/// footer; `None` for a truncated or altered entry.
fn checked_body(text: &str) -> Option<&str> {
    let (body, trailer) = text.rsplit_once("sum=")?;
    let sum = trailer
        .strip_suffix('\n')?
        .strip_suffix(FOOTER)?
        .strip_suffix('\n')?;
    (sum == hex64(fnv1a64(body.as_bytes()))).then_some(body)
}

/// The value of a `<key>=<u64>` line.
fn value_of(line: &str, key: &str) -> Option<u64> {
    line.strip_prefix(key)?.strip_prefix('=')?.parse().ok()
}

/// Parses an entry stored for the job whose [`Job::canon`] is `canon`,
/// reading its lines in the order [`render_entry`] writes them.
fn parse_entry(text: &str, canon: &str) -> Option<JobResult> {
    let mut lines = checked_body(text)?.lines();
    if lines.next()? != HEADER {
        return None;
    }
    // Verify the stored canon matches this job's, line for line. A
    // mismatch means the hash collided or an input axis changed meaning;
    // either way the entry is stale.
    for want in canon.lines() {
        if lines.next()?.strip_prefix("job.")? != want {
            return None;
        }
    }
    let mut stats = SimStats::default();
    for (key, field) in stat_lines() {
        let value = value_of(lines.next()?.strip_prefix("stat.")?, key)?;
        (field.set)(&mut stats, value);
    }
    let mut line = lines.next()?;
    while let Some(row) = line.strip_prefix("pc.") {
        let (slot, counts) = row.split_once('=')?;
        let (execs, events) = counts.split_once(',')?;
        let slot: u32 = slot.parse().ok()?;
        // Rows are stored in increasing slot order; any other order, or a
        // repeated slot, is not an entry a store wrote.
        if matches!(stats.branch_pcs.last(), Some(&(prev, ..)) if prev >= slot) {
            return None;
        }
        stats
            .branch_pcs
            .push((slot, execs.parse().ok()?, events.parse().ok()?));
        line = lines.next()?;
    }
    let static_insns = value_of(line, "static.insns")?;
    let mut next = |key| value_of(lines.next()?, key);
    let result = JobResult {
        static_insns,
        static_cond_branches: next("static.cond_branches")?,
        wall_micros: next("time.wall_micros")?,
        compile_micros: next("time.compile_micros")?,
        capture_micros: next("time.capture_micros")?,
        sim_micros: next("time.sim_micros")?,
        stats,
        from_cache: true,
        trace_memo_hit: false,
        derived: false,
    };
    lines.next().is_none().then_some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim_pipeline::{CoreConfig, PredicationModel, SchemeSpec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ppsim-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn job() -> Job {
        Job::new(
            "gzip",
            true,
            SchemeSpec::PepPa,
            PredicationModel::Selective,
            40_000,
            60_000,
            CoreConfig::paper(),
        )
    }

    fn result() -> JobResult {
        let mut r = JobResult {
            static_insns: 871,
            static_cond_branches: 42,
            ..JobResult::default()
        };
        // Fill every counter with a distinct value so a swapped or
        // dropped field breaks the round trip.
        for (i, (_, field)) in stat_lines().enumerate() {
            (field.set)(&mut r.stats, 101 + i as u64);
        }
        r.stats.branch_pcs = vec![(7, 501, 502), (19, 503, 0)];
        r.wall_micros = 601;
        r.compile_micros = 602;
        r.capture_micros = 603;
        r.sim_micros = 604;
        r
    }

    #[test]
    fn round_trip_preserves_every_counter() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let r = result();
        assert!(cache.load(&j).is_none(), "cold cache must miss");
        cache.store(&j, &r).unwrap();
        let loaded = cache.load(&j).expect("warm cache must hit");
        assert!(loaded.from_cache);
        assert_eq!(loaded.stats, r.stats, "every counter and branch row");
        assert_eq!(loaded.static_insns, r.static_insns);
        assert_eq!(loaded.static_cond_branches, r.static_cond_branches);
        assert_eq!(
            (
                loaded.wall_micros,
                loaded.compile_micros,
                loaded.capture_micros,
                loaded.sim_micros
            ),
            (601, 602, 603, 604),
            "v4 entries round-trip the phase timings"
        );
        assert!(!loaded.trace_memo_hit, "a disk hit replays no capture");
        assert_eq!(
            loaded.stats.metrics().to_json().to_string(),
            r.stats.metrics().to_json().to_string(),
            "a cache hit must replay the full metric block bit-identically"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_job_misses() {
        let dir = temp_dir("miss");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(&job(), &result()).unwrap();
        let other = Job {
            commits: 99,
            ..job()
        };
        assert!(cache.load(&other).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Rewrites `text`'s `sum=` line to match its (edited) body, so a
    /// test can show that a check other than the checksum rejects it.
    fn resum(text: &str) -> String {
        let (body, _) = text.rsplit_once("sum=").unwrap();
        format!("{body}sum={}\n{FOOTER}\n", hex64(fnv1a64(body.as_bytes())))
    }

    #[test]
    fn stale_canon_under_same_name_misses() {
        // Simulate a hash collision / semantics change: an entry whose
        // file name matches but whose stored canon differs must miss,
        // even with a checksum that matches the altered body.
        let dir = temp_dir("stale");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let text = resum(
            &render_entry(&j.canon(), &result()).replace("job.bench=gzip", "job.bench=vortex"),
        );
        fs::write(cache.dir().join(format!("{}.result", j.hash_hex())), text).unwrap();
        assert!(cache.load(&j).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_format_version_misses() {
        // An entry written by any other format version — the v7 layout
        // that predates the checksum, the v6 one that predates the trace
        // axis, an ancient v3, or a future v9 — must read as a miss, never
        // be parsed with today's field semantics. The checksum is
        // recomputed, so only the header check can reject these.
        let dir = temp_dir("version");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let path = cache.dir().join(format!("{}.result", j.hash_hex()));
        let current = render_entry(&j.canon(), &result());
        assert!(current.starts_with("ppsim-cache v8\n"), "{current}");
        for stale in ["v3", "v6", "v7", "v9"].map(|v| format!("ppsim-cache {v}")) {
            fs::write(&path, resum(&current.replacen(HEADER, &stale, 1))).unwrap();
            assert!(cache.load(&j).is_none(), "{stale} entry must miss");
        }
        // A true v7 entry: the old header and no `sum=` line.
        let (body, _) = current.rsplit_once("sum=").unwrap();
        let v7 = format!("{}{FOOTER}\n", body.replacen(HEADER, "ppsim-cache v7", 1));
        fs::write(&path, v7).unwrap();
        assert!(cache.load(&j).is_none(), "a v7 entry must miss");
        // Restoring the real header makes the same bytes hit again.
        fs::write(&path, current).unwrap();
        assert!(cache.load(&j).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_change_misses() {
        // A stored counter with one changed digit must never load as a
        // hit with different statistics: every byte of the entry, changed
        // three ways (a low bit, an ASCII case/space bit, an invalid
        // UTF-8 byte), must read as a miss.
        let dir = temp_dir("bytes");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let path = cache.dir().join(format!("{}.result", j.hash_hex()));
        let stored = render_entry(&j.canon(), &result()).into_bytes();
        fs::write(&path, &stored).unwrap();
        assert!(cache.load(&j).is_some(), "the untouched entry hits");
        let mut mutant = stored.clone();
        for i in 0..stored.len() {
            for changed in [stored[i] ^ 0x01, stored[i] ^ 0x20, 0xff] {
                mutant[i] = changed;
                fs::write(&path, &mutant).unwrap();
                assert!(
                    cache.load(&j).is_none(),
                    "byte {i} changed from {:#04x} to {changed:#04x} still hit",
                    stored[i]
                );
            }
            mutant[i] = stored[i];
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lines_out_of_store_order_miss() {
        // A load reads the lines in the order a store writes them: the
        // same lines in another order, resealed, read as a miss.
        let dir = temp_dir("order");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let stored = render_entry(&j.canon(), &result());
        let swapped = stored
            .replacen("stat.cycles=", "stat.committed=", 1)
            .replacen("stat.committed=102", "stat.cycles=102", 1);
        assert_ne!(swapped, stored);
        let path = cache.dir().join(format!("{}.result", j.hash_hex()));
        fs::write(&path, resum(&swapped)).unwrap();
        assert!(cache.load(&j).is_none());
        fs::write(&path, &stored).unwrap();
        assert!(cache.load(&j).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn branch_rows_out_of_slot_order_miss() {
        // The rows of a resealed entry out of slot order, or repeating a
        // slot, read as a miss: a hit's rows are sorted, no slot twice.
        let dir = temp_dir("pcorder");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let stored = render_entry(&j.canon(), &result());
        let rows = "pc.7=501,502\npc.19=503,0\n";
        assert!(stored.contains(rows), "{stored}");
        let path = cache.dir().join(format!("{}.result", j.hash_hex()));
        for edited in [
            "pc.19=503,0\npc.7=501,502\n",
            "pc.7=501,502\npc.7=503,0\n",
            "pc.7=501,502\npc.19=503,0\npc.19=1,1\n",
        ] {
            fs::write(&path, resum(&stored.replacen(rows, edited, 1))).unwrap();
            assert!(cache.load(&j).is_none(), "rows {edited:?} still hit");
        }
        fs::write(&path, &stored).unwrap();
        assert!(cache.load(&j).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_misses() {
        let dir = temp_dir("trunc");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let full = render_entry(&j.canon(), &result());
        let cut = &full[..full.len() - 20];
        fs::write(cache.dir().join(format!("{}.result", j.hash_hex())), cut).unwrap();
        assert!(cache.load(&j).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Distinct jobs for eviction tests (commits is the identity axis).
    fn job_n(commits: u64) -> Job {
        Job { commits, ..job() }
    }

    #[test]
    fn usage_counts_entries_and_clear_empties() {
        let dir = temp_dir("usage");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.usage(), CacheUsage::default());
        cache.store(&job_n(1), &result()).unwrap();
        cache.store(&job_n(2), &result()).unwrap();
        let u = cache.usage();
        assert_eq!(u.entries, 2);
        assert!(u.bytes > 0);
        assert_eq!(cache.clear().unwrap(), 2);
        assert_eq!(cache.usage(), CacheUsage::default());
        assert!(cache.load(&job_n(1)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_cache_evicts_oldest_first() {
        let dir = temp_dir("evict");
        // Budget for roughly two entries: measure one, cap at 2.5×.
        let probe = DiskCache::open(&dir).unwrap();
        probe.store(&job_n(0), &result()).unwrap();
        let one = probe.usage().bytes;
        probe.clear().unwrap();
        let cache = DiskCache::open_capped(&dir, Some(one * 5 / 2)).unwrap();
        for n in 1..=3 {
            cache.store(&job_n(n), &result()).unwrap();
            // Keep mtimes strictly ordered on coarse-grained filesystems.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(cache.evictions(), 1, "third store evicted one entry");
        assert!(cache.load(&job_n(1)).is_none(), "oldest entry evicted");
        assert!(cache.load(&job_n(2)).is_some());
        assert!(cache.load(&job_n(3)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_refreshes_recency() {
        let dir = temp_dir("lru");
        let probe = DiskCache::open(&dir).unwrap();
        probe.store(&job_n(0), &result()).unwrap();
        let one = probe.usage().bytes;
        probe.clear().unwrap();
        let cache = DiskCache::open_capped(&dir, Some(one * 5 / 2)).unwrap();
        cache.store(&job_n(1), &result()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        cache.store(&job_n(2), &result()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(cache.load(&job_n(1)).is_some());
        std::thread::sleep(std::time::Duration::from_millis(5));
        cache.store(&job_n(3), &result()).unwrap();
        assert!(cache.load(&job_n(1)).is_some(), "recently used survives");
        assert!(cache.load(&job_n(2)).is_none(), "LRU entry evicted");
        assert!(cache.load(&job_n(3)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncapped_hits_leave_no_touch_sidecar() {
        let dir = temp_dir("notouch");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        cache.store(&j, &result()).unwrap();
        assert!(cache.load(&j).is_some());
        let touch = cache.dir().join(format!("{}.touch", j.hash_hex()));
        assert!(!touch.exists(), "an uncapped hit wrote {}", touch.display());
        let capped = DiskCache::open_capped(&dir, Some(u64::MAX)).unwrap();
        assert!(capped.load(&j).is_some());
        assert!(touch.exists(), "a capped hit refreshes recency");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncapped_cache_never_evicts() {
        let dir = temp_dir("uncapped");
        let cache = DiskCache::open(&dir).unwrap();
        for n in 1..=8 {
            cache.store(&job_n(n), &result()).unwrap();
        }
        assert_eq!(cache.usage().entries, 8);
        assert_eq!(cache.evictions(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_entry_misses() {
        let dir = temp_dir("garbage");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        fs::write(
            cache.dir().join(format!("{}.result", j.hash_hex())),
            "not a cache file",
        )
        .unwrap();
        assert!(cache.load(&j).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
