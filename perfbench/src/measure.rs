//! Host-side measurement: CPU time and peak memory of a process, order
//! statistics, in-memory spans, and the tally of checked operations.

use std::collections::BTreeMap;
use std::time::Instant;

/// `/proc` reports CPU time in clock ticks of this rate (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system, every thread, exited threads included)
/// that process `pid` has used so far.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name in field 2 may hold spaces; count fields after it.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("{path}: bad field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Resets the peak resident set of process `pid` to its current resident
/// set, so the next [`peak_rss_mib`] covers only what follows.
pub fn reset_peak_rss(pid: u32) -> Result<(), String> {
    let path = format!("/proc/{pid}/clear_refs");
    std::fs::write(&path, "5").map_err(|e| format!("{path}: {e}"))
}

/// Wall and CPU time of one measured interval of process `pid`.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// Wall seconds.
    pub wall: f64,
    /// CPU seconds of `pid` over the same interval.
    pub cpu: f64,
}

/// The intervals as a stamp array, wall and CPU side by side, so an
/// interval the host descheduled shows as one.
pub fn runs_json(runs: &[Interval]) -> ppsim_obs::Json {
    use ppsim_obs::Json;
    Json::Arr(
        runs.iter()
            .map(|r| Json::obj().field("wall_s", r.wall).field("cpu_s", r.cpu))
            .collect(),
    )
}

/// Samples as a stamp array.
pub fn samples_json(xs: &[f64]) -> ppsim_obs::Json {
    ppsim_obs::Json::Arr(xs.iter().map(|&x| ppsim_obs::Json::Num(x)).collect())
}

/// Starts timing an interval of process `pid`.
pub struct Stopwatch {
    pid: u32,
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Reads both clocks now.
    pub fn start(pid: u32) -> Result<Stopwatch, String> {
        Ok(Stopwatch {
            pid,
            cpu: cpu_seconds(pid)?,
            wall: Instant::now(),
        })
    }

    /// The interval since [`Stopwatch::start`].
    pub fn stop(&self) -> Result<Interval, String> {
        let wall = self.wall.elapsed().as_secs_f64();
        Ok(Interval {
            wall,
            cpu: cpu_seconds(self.pid)? - self.cpu,
        })
    }
}

/// Linear-interpolation percentile (`q` in 0..=1) of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (timed operations plus output checks).
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failure is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }

    /// Counts `n` operations that completed without error.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation that could not be carried out.
    pub fn error(&mut self, what: &str, e: impl std::fmt::Display) {
        self.op(false, || format!("{what}: {e}"));
    }
}

/// One span: a named interval in one layer, optionally inside another.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the span times.
    pub name: String,
    /// The crate (layer) the timed call belongs to.
    pub layer: &'static str,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Spans kept in memory and written out when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Time moved from one layer's self time to another's, for work a
    /// span contains that the program reports (the runner's per-job
    /// compile, capture and simulate split) or that a replay of the same
    /// calls measured, but that the benchmark cannot wrap in a span.
    moved: Vec<(&'static str, &'static str, f64)>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            moved: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: impl Into<String>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Wall seconds of span `id`.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Moves `seconds` of self time from layer `from` to layer `to`.
    pub fn attribute(&mut self, from: &'static str, to: &'static str, seconds: f64) {
        self.moved.push((from, to, seconds));
    }

    /// Self seconds per layer: each span's duration minus its children's,
    /// with attributed time moved to its layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_default() += s.end - s.start;
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].layer).or_default() -= s.end - s.start;
            }
        }
        for &(from, to, secs) in &self.moved {
            *out.entry(from).or_default() -= secs;
            *out.entry(to).or_default() += secs;
        }
        out
    }

    /// The spans as one JSON object.
    pub fn to_json(&self) -> ppsim_obs::Json {
        use ppsim_obs::Json;
        Json::obj().field(
            "spans",
            Json::Arr(
                self.spans
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .field("name", s.name.as_str())
                            .field("layer", s.layer)
                            .field("start_s", s.start)
                            .field("end_s", s.end)
                            .field(
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                            )
                    })
                    .collect(),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
    }

    #[test]
    fn own_clocks_read() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }

    #[test]
    fn peak_rss_resets_to_the_current_resident_set() {
        let pid = std::process::id();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with = peak_rss_mib(pid).unwrap();
        drop(big);
        reset_peak_rss(pid).unwrap();
        assert!(peak_rss_mib(pid).unwrap() < with - 32.0);
    }

    #[test]
    fn self_times_subtract_children_and_moved_time() {
        let mut s = Spans::default();
        let outer = s.enter("runner", "outer");
        let inner = s.enter("core", "inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.exit(inner);
        s.exit(outer);
        s.attribute("runner", "pipeline", 0.001);
        let t = s.self_times();
        let total: f64 = t.values().sum();
        assert!((total - s.duration(outer)).abs() < 1e-9);
        assert!(t["core"] >= 0.005);
    }
}
