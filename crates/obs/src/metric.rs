//! The typed metric registry.
//!
//! A [`MetricSet`] is a flat namespace of metrics with **stable names**:
//! once a name ships in an artifact it never changes meaning. Three metric
//! shapes cover everything the simulator reports:
//!
//! * **counters** — monotone `u64` event counts (`cycles`, `mispredicts`),
//! * **ratios** — a numerator/denominator pair kept *unreduced* so the
//!   derived value survives serialization bit-exactly and the denominator
//!   stays inspectable (`ipc = committed / cycles`),
//! * **per-PC histograms** — `(pc, executions, events)` rows sorted by PC,
//!   the per-static-site attribution that flat counter bags cannot express
//!   (which *branch* mispredicts, not just how often).
//!
//! Names are kept sorted; insertion is `O(log n)` search + insert and
//! duplicate names panic (a registry discipline bug, not a runtime
//! condition). Export order is therefore deterministic byte-for-byte.

use crate::json::{write_f64, write_str, write_u64, Json};

/// The value of one registered metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotone event count.
    Counter(u64),
    /// An unreduced numerator/denominator pair.
    Ratio {
        /// Numerator.
        num: u64,
        /// Denominator (a zero denominator yields a value of 0.0).
        den: u64,
    },
}

impl MetricValue {
    /// The metric as a floating-point value (counters cast; ratios
    /// divide, with `0/0 = 0`).
    pub fn value(&self) -> f64 {
        match *self {
            MetricValue::Counter(c) => c as f64,
            MetricValue::Ratio { num, den } => {
                if den == 0 {
                    0.0
                } else {
                    num as f64 / den as f64
                }
            }
        }
    }
}

/// One row of a per-PC histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcEntry {
    /// Static site identifier (program counter or instruction slot).
    pub pc: u64,
    /// Times the site executed.
    pub execs: u64,
    /// Times the measured event occurred there (e.g. mispredictions).
    pub events: u64,
}

/// A per-PC histogram: rows sorted by `pc`, so iteration and export are
/// deterministic regardless of the collection order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PcHistogram {
    entries: Vec<PcEntry>,
}

impl PcHistogram {
    /// Builds a histogram from unsorted rows (sorts by PC; duplicate PCs
    /// are merged by summing their counters).
    pub fn from_rows(mut rows: Vec<PcEntry>) -> Self {
        rows.sort_by_key(|e| e.pc);
        let mut entries: Vec<PcEntry> = Vec::with_capacity(rows.len());
        for row in rows {
            match entries.last_mut() {
                Some(last) if last.pc == row.pc => {
                    last.execs += row.execs;
                    last.events += row.events;
                }
                _ => entries.push(row),
            }
        }
        PcHistogram { entries }
    }

    /// The rows, sorted by PC.
    pub fn entries(&self) -> &[PcEntry] {
        &self.entries
    }

    /// Number of distinct sites.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The row for `pc`, if present.
    pub fn get(&self, pc: u64) -> Option<&PcEntry> {
        self.entries
            .binary_search_by_key(&pc, |e| e.pc)
            .ok()
            .map(|i| &self.entries[i])
    }
}

/// The metric registry: named counters, ratios and per-PC histograms,
/// kept sorted by name for deterministic export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    scalars: Vec<(String, MetricValue)>,
    histograms: Vec<(String, PcHistogram)>,
}

impl MetricSet {
    /// An empty registry.
    pub fn new() -> Self {
        MetricSet::default()
    }

    fn insert_scalar(&mut self, name: &str, value: MetricValue) {
        match self.scalars.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(_) => panic!("duplicate metric name `{name}`"),
            Err(i) => self.scalars.insert(i, (name.to_string(), value)),
        }
    }

    /// Registers a counter. Panics on a duplicate name.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.insert_scalar(name, MetricValue::Counter(value));
    }

    /// Registers a ratio (kept unreduced). Panics on a duplicate name.
    pub fn ratio(&mut self, name: &str, num: u64, den: u64) {
        self.insert_scalar(name, MetricValue::Ratio { num, den });
    }

    /// Registers a per-PC histogram. Panics on a duplicate name.
    pub fn histogram(&mut self, name: &str, hist: PcHistogram) {
        match self
            .histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(_) => panic!("duplicate histogram name `{name}`"),
            Err(i) => self.histograms.insert(i, (name.to_string(), hist)),
        }
    }

    /// Looks up a scalar metric by name.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.scalars
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.scalars[i].1)
    }

    /// A counter's value, if `name` is a registered counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(c) => Some(c),
            MetricValue::Ratio { .. } => None,
        }
    }

    /// Looks up a per-PC histogram by name.
    pub fn histogram_for(&self, name: &str) -> Option<&PcHistogram> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Iterates scalar metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> {
        self.scalars.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterates per-PC histograms in name order.
    pub fn iter_histograms(&self) -> impl Iterator<Item = (&str, &PcHistogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Number of scalar metrics.
    pub fn len(&self) -> usize {
        self.scalars.len()
    }

    /// Whether the registry holds no scalar metrics.
    pub fn is_empty(&self) -> bool {
        self.scalars.is_empty()
    }

    /// Renders the registry as one JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"committed": 250, "cycles": 100},
    ///   "ratios": {"ipc": {"num": 250, "den": 100, "value": 2.5}},
    ///   "per_pc": {"branch_sites": [[4, 100, 3]]}
    /// }
    /// ```
    ///
    /// Keys appear in sorted name order, making the rendering
    /// byte-deterministic for equal registries. The text is
    /// [`write_metric_block`]'s, held in a [`Json::Raw`] node.
    pub fn to_json(&self) -> Json {
        let mut out = String::new();
        write_metric_block(
            &mut out,
            self.scalars
                .iter()
                .map(|(name, value)| (name.as_str(), *value)),
            self.iter_histograms()
                .map(|(name, hist)| (name, hist.entries().iter().copied())),
        );
        Json::Raw(out)
    }
}

/// Writes one metric block as JSON text, in the shape
/// [`MetricSet::to_json`] documents: the one rendering of a block.
/// [`MetricSet::to_json`] renders through it, and a table-driven
/// exporter (`SimStats`'s metric table) writes its block through it
/// into a buffer of its own, with no registry in between.
///
/// `scalars` yields every counter and ratio in sorted name order; the
/// writer walks it twice, counters first. `histograms` yields each
/// per-PC histogram in sorted name order, with its rows sorted by PC and
/// no PC repeated.
pub fn write_metric_block<'a, S, R>(
    out: &mut String,
    scalars: S,
    histograms: impl IntoIterator<Item = (&'a str, R)>,
) where
    S: Iterator<Item = (&'a str, MetricValue)> + Clone,
    R: IntoIterator<Item = PcEntry>,
{
    fn key(out: &mut String, first: &mut bool, name: &str) {
        if !*first {
            out.push(',');
        }
        *first = false;
        write_str(out, name);
        out.push(':');
    }
    out.push_str("{\"counters\":{");
    let mut first = true;
    for (name, value) in scalars.clone() {
        if let MetricValue::Counter(c) = value {
            key(out, &mut first, name);
            write_u64(out, c);
        }
    }
    out.push_str("},\"ratios\":{");
    first = true;
    for (name, value) in scalars {
        if let MetricValue::Ratio { num, den } = value {
            key(out, &mut first, name);
            out.push_str("{\"num\":");
            write_u64(out, num);
            out.push_str(",\"den\":");
            write_u64(out, den);
            out.push_str(",\"value\":");
            write_f64(out, value.value());
            out.push('}');
        }
    }
    out.push_str("},\"per_pc\":{");
    first = true;
    for (name, rows) in histograms {
        key(out, &mut first, name);
        out.push('[');
        for (i, e) in rows.into_iter().enumerate() {
            out.push_str(if i == 0 { "[" } else { ",[" });
            write_u64(out, e.pc);
            out.push(',');
            write_u64(out, e.execs);
            out.push(',');
            write_u64(out, e.events);
            out.push(']');
        }
        out.push(']');
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_sort_and_look_up() {
        let mut m = MetricSet::new();
        m.counter("zeta", 1);
        m.counter("alpha", 2);
        m.ratio("mid", 1, 4);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        assert_eq!(m.counter_value("alpha"), Some(2));
        assert_eq!(m.counter_value("mid"), None, "ratio is not a counter");
        assert_eq!(m.get("mid").unwrap().value(), 0.25);
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        let mut m = MetricSet::new();
        m.counter("x", 1);
        m.counter("x", 2);
    }

    #[test]
    fn ratio_zero_denominator_is_zero() {
        assert_eq!(MetricValue::Ratio { num: 5, den: 0 }.value(), 0.0);
    }

    #[test]
    fn histogram_sorts_and_merges() {
        let h = PcHistogram::from_rows(vec![
            PcEntry {
                pc: 8,
                execs: 1,
                events: 1,
            },
            PcEntry {
                pc: 4,
                execs: 10,
                events: 2,
            },
            PcEntry {
                pc: 8,
                execs: 2,
                events: 0,
            },
        ]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.entries()[0].pc, 4);
        assert_eq!(h.get(8).unwrap().execs, 3);
        assert_eq!(h.get(8).unwrap().events, 1);
        assert!(h.get(5).is_none());
    }

    #[test]
    fn blocks_render_counters_ratios_and_histograms_in_name_order() {
        let mut m = MetricSet::new();
        m.counter("b.count", 2);
        m.ratio("a.rate", 1, 4);
        m.counter("a.count", 7);
        m.ratio("z.rate", 5, 0);
        m.histogram(
            "sites",
            PcHistogram::from_rows(vec![
                PcEntry {
                    pc: 8,
                    execs: 3,
                    events: 1,
                },
                PcEntry {
                    pc: 4,
                    execs: 9,
                    events: 0,
                },
            ]),
        );
        m.histogram("empty", PcHistogram::default());
        m.counter("needs \"escaping\"", 1);
        assert_eq!(
            m.to_json().to_string(),
            concat!(
                r#"{"counters":{"a.count":7,"b.count":2,"needs \"escaping\"":1},"#,
                r#""ratios":{"a.rate":{"num":1,"den":4,"value":0.25},"#,
                r#""z.rate":{"num":5,"den":0,"value":0.0}},"#,
                r#""per_pc":{"empty":[],"sites":[[4,9,0],[8,3,1]]}}"#
            )
        );
        assert_eq!(
            MetricSet::new().to_json().to_string(),
            r#"{"counters":{},"ratios":{},"per_pc":{}}"#
        );
    }

    #[test]
    fn values_past_i64_saturate_instead_of_turning_negative() {
        // JSON integers here are i64s. A u64 beyond that range (only a
        // hand-resealed cache entry can hold one) renders as i64::MAX.
        let mut m = MetricSet::new();
        m.counter("big", u64::MAX);
        m.ratio("r", u64::MAX, 1 << 63);
        m.histogram(
            "sites",
            PcHistogram::from_rows(vec![PcEntry {
                pc: u64::MAX,
                execs: 1 << 63,
                events: i64::MAX as u64,
            }]),
        );
        let max = i64::MAX;
        assert_eq!(
            m.to_json().to_string(),
            format!(
                r#"{{"counters":{{"big":{max}}},"ratios":{{"r":{{"num":{max},"den":{max},"value":2.0}}}},"per_pc":{{"sites":[[{max},{max},{max}]]}}}}"#
            )
        );
    }

    #[test]
    fn json_rendering_is_deterministic_and_parses() {
        let mut a = MetricSet::new();
        a.counter("b", 2);
        a.ratio("r", 1, 2);
        a.counter("a", 1);
        a.histogram(
            "sites",
            PcHistogram::from_rows(vec![PcEntry {
                pc: 4,
                execs: 9,
                events: 3,
            }]),
        );
        let mut b = MetricSet::new();
        b.histogram(
            "sites",
            PcHistogram::from_rows(vec![PcEntry {
                pc: 4,
                execs: 9,
                events: 3,
            }]),
        );
        b.ratio("r", 1, 2);
        b.counter("a", 1);
        b.counter("b", 2);
        let ja = a.to_json().to_string();
        assert_eq!(ja, b.to_json().to_string(), "insertion order is erased");
        let parsed = Json::parse(&ja).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("a"))
                .and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("ratios")
                .and_then(|r| r.get("r"))
                .and_then(|r| r.get("value"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
    }
}
