//! # ppsim-obs — the observability layer
//!
//! Every other ppsim crate *produces* behaviour; this crate makes that
//! behaviour *measurable*. It is deliberately dependency-free so the
//! whole workspace — predictors, memory hierarchy, pipeline, runner —
//! can sit on top of it:
//!
//! * [`MetricSet`] — a typed metric registry (counters, ratios, per-PC
//!   histograms) with **stable, sorted names**, so every report and JSON
//!   artifact draws from one canonical namespace instead of ad-hoc field
//!   dumps. `SimStats` exports onto it from the one static table that
//!   lists its metric block (`SimStats::METRICS` in `ppsim-pipeline`).
//! * [`write_metric_block`] — the one rendering of a metric block as JSON
//!   text. [`MetricSet::to_json`] renders through it, and `SimStats`
//!   writes its block through it straight from its table into a buffer
//!   of its own, with no registry or tree in between; artifacts and
//!   served answers embed that text verbatim as a [`Json::Raw`] node (a
//!   warm served report holds one block per run of Figures 5 and 6a).
//! * [`StallBucket`] / [`StallBreakdown`] — per-stage stall attribution.
//!   The pipeline charges every simulated cycle to exactly one bucket, so
//!   `cycles == Σ buckets` holds by construction and IPC regressions can
//!   be diagnosed from the artifact alone.
//! * [`TraceEvent`] / [`EventRing`] — a bounded ring-buffer event trace of
//!   the paper's mechanisms (predictions made/overridden, early
//!   resolution, rename-time cancel/unguard, flushes), exported through
//!   `ppsim run --trace-events`.
//! * [`Json`] — the workspace's hand-rolled, deterministic JSON value
//!   tree (the workspace bans serde). Lives here so metric and event
//!   export need no higher-level crate.
//!
//! # Example
//!
//! ```
//! use ppsim_obs::{MetricSet, StallBreakdown, StallBucket};
//!
//! let mut m = MetricSet::new();
//! m.counter("cycles", 100);
//! m.counter("committed", 250);
//! m.ratio("ipc", 250, 100);
//! assert_eq!(m.counter_value("cycles"), Some(100));
//! assert!(m.to_json().to_string().contains("\"cycles\""));
//!
//! let mut stalls = StallBreakdown::default();
//! stalls.charge(StallBucket::FetchMiss, 7);
//! assert_eq!(stalls.total(), 7);
//! ```

#![deny(missing_docs)]

mod event;
pub mod json;
mod metric;
mod stall;

pub use event::{EventKind, EventRing, TraceEvent};
pub use json::Json;
pub use metric::{write_metric_block, MetricSet, MetricValue, PcEntry, PcHistogram};
pub use stall::{StallBreakdown, StallBucket};
