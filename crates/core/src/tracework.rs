//! Imported external traces as first-class workloads.
//!
//! A [`TraceWorkload`] wraps a dynamic instruction stream that did *not*
//! come from this repo's compiler — a versioned `.pptrace` file
//! ([`ppsim_isa::pptrace`]) or a CBP-style `{ip, taken}` branch log —
//! and drives it through the exact machinery the synthetic suite uses:
//! jobs are built with [`Job::traced`], executed via
//! [`PlanResults::collect`] (so they share the runner's worker pool —
//! one job per scheme cell — and its on-disk cache), and rendered with
//! the same [`Table`]/[`Json`] surfaces as the paper figures.
//!
//! Because an imported stream has no functional machine behind it, these
//! cells are replay-only; the report centres on the modern cross-workload
//! metrics — MPKI and the top-N hardest-to-predict ("H2P") static
//! branches — rather than the paper's figure axes.
//!
//! For branches-only CBP imports the original branch addresses survive
//! export/import round trips via a `cbp-ips=` line embedded in the
//! `.pptrace` note field, so H2P rows can name real instruction pointers
//! instead of synthesized slots.

use std::sync::Arc;

use ppsim_isa::{pptrace, CbpSummary, TraceBuffer, TraceFileError};
use ppsim_pipeline::SimStats;
use ppsim_runner::{Job, Json, Runner, TraceId};

use crate::experiments::{PlanResults, FIG6A_SCHEMES};
use crate::report::{count, f3, pct, Table};
use crate::ExperimentConfig;

/// Note-line prefix carrying a CBP import's original branch addresses
/// (comma-separated hex, one per static pair, in slot order) through
/// `.pptrace` round trips.
const IPS_KEY: &str = "cbp-ips=";

/// Splits a decoded note into its human text and the embedded IP map,
/// if any. Unparsable `cbp-ips=` lines are kept as plain note text.
fn split_ips_note(note: &str) -> (String, Option<Vec<u64>>) {
    let mut kept: Vec<&str> = Vec::new();
    let mut ips = None;
    for line in note.lines() {
        if let Some(rest) = line.strip_prefix(IPS_KEY) {
            let parsed: Option<Vec<u64>> = rest
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| {
                    let s = s.trim();
                    u64::from_str_radix(s.strip_prefix("0x").unwrap_or(s), 16).ok()
                })
                .collect();
            match parsed {
                Some(v) if !v.is_empty() => ips = Some(v),
                _ => kept.push(line),
            }
        } else {
            kept.push(line);
        }
    }
    (kept.join("\n"), ips)
}

/// An external instruction stream, ready to simulate.
#[derive(Clone, Debug)]
pub struct TraceWorkload {
    /// Display name (benchmark name or import source).
    pub name: String,
    /// Free-form provenance note (the `cbp-ips=` line is split out into
    /// [`TraceWorkload::ips`], never shown here).
    pub note: String,
    /// The decoded stream.
    pub buf: Arc<TraceBuffer>,
    /// Whether this is a degraded branches-only import (see
    /// [`ppsim_isa::pptrace`]'s module docs).
    pub branches_only: bool,
    /// Original branch addresses of a CBP import, indexed by static
    /// pair (slot `2k+1` ↦ `ips[k]`). `None` for full captures.
    pub ips: Option<Vec<u64>>,
}

impl TraceWorkload {
    /// Wraps a trace captured in-process from a compiled benchmark
    /// (the `ppsim trace export` path).
    pub fn from_capture(
        name: impl Into<String>,
        note: impl Into<String>,
        buf: TraceBuffer,
    ) -> Self {
        TraceWorkload {
            name: name.into(),
            note: note.into(),
            buf: Arc::new(buf),
            branches_only: false,
            ips: None,
        }
    }

    /// Decodes a `.pptrace` file (strict: checksum, bounds and replay
    /// invariants all verified before anything simulates).
    pub fn from_pptrace_bytes(bytes: &[u8]) -> Result<Self, TraceFileError> {
        let (buf, meta) = pptrace::decode(bytes)?;
        let (note, ips) = split_ips_note(&meta.note);
        Ok(TraceWorkload {
            name: meta.name,
            note,
            buf: Arc::new(buf),
            branches_only: meta.branches_only,
            ips,
        })
    }

    /// Imports a CBP-style branch log (`<ip> <taken>` lines),
    /// synthesizing the degraded branches-only stream.
    pub fn from_cbp_text(
        name: impl Into<String>,
        text: &str,
    ) -> Result<(Self, CbpSummary), TraceFileError> {
        let (buf, summary) = pptrace::import_cbp(text)?;
        let w = TraceWorkload {
            name: name.into(),
            note: String::new(),
            buf: Arc::new(buf),
            branches_only: true,
            ips: Some(summary.ips.clone()),
        };
        Ok((w, summary))
    }

    /// Serializes to `.pptrace` bytes. The IP map, when present, rides
    /// in the note field so [`TraceWorkload::from_pptrace_bytes`] can
    /// recover it; the note's human text is preserved around it.
    pub fn export_bytes(&self) -> Vec<u8> {
        let note = match &self.ips {
            Some(ips) => {
                let list = ips
                    .iter()
                    .map(|ip| format!("{ip:#x}"))
                    .collect::<Vec<_>>()
                    .join(",");
                if self.note.is_empty() {
                    format!("{IPS_KEY}{list}")
                } else {
                    format!("{}\n{IPS_KEY}{list}", self.note)
                }
            }
            None => self.note.clone(),
        };
        pptrace::encode(&self.buf, &self.name, &note, self.branches_only)
    }

    /// Registers the stream with `runner` so [`Job::traced`] cells can
    /// find it. Content-addressed and idempotent.
    pub fn register(&self, runner: &Runner) -> TraceId {
        runner.register_trace(Arc::clone(&self.buf), self.branches_only)
    }

    /// Dynamic records in the stream.
    pub fn records(&self) -> u64 {
        self.buf.len()
    }

    /// Human label for a static branch site: the original instruction
    /// pointer when the IP map covers it, the code-image slot otherwise.
    pub fn site_label(&self, slot: u32) -> String {
        if self.branches_only && slot % 2 == 1 {
            if let Some(&ip) = self.ips.as_ref().and_then(|v| v.get((slot / 2) as usize)) {
                return format!("{ip:#x}");
            }
        }
        format!("slot {slot}")
    }
}

/// One hardest-to-predict site row of a [`TraceReport`].
#[derive(Clone, Debug)]
pub struct H2pSite {
    /// Code-image slot of the branch.
    pub slot: u32,
    /// Display label ([`TraceWorkload::site_label`]).
    pub site: String,
    /// Committed executions.
    pub execs: u64,
    /// Mispredictions.
    pub mispredicts: u64,
}

/// The rendered outcome of simulating an imported trace across the
/// Figure-6a scheme columns.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Workload display name.
    pub name: String,
    /// Whether the stream is a degraded branches-only import.
    pub branches_only: bool,
    /// Dynamic records in the stream.
    pub records: u64,
    /// Committed-instruction budget per cell.
    pub commits: u64,
    /// Scheme labels, defining row order.
    pub schemes: Vec<String>,
    /// Per-scheme statistics, in `schemes` order.
    pub runs: Vec<SimStats>,
    /// Per-scheme top-N H2P sites, in `schemes` order.
    pub h2p: Vec<Vec<H2pSite>>,
    /// The N of the H2P listings.
    pub top_n: usize,
}

impl TraceReport {
    /// The per-scheme summary table: misprediction rate, MPKI, IPC.
    pub fn summary_table(&self) -> Table {
        let mode = if self.branches_only {
            " (branches-only import)"
        } else {
            ""
        };
        let mut t = Table::new(
            format!(
                "Imported trace '{}'{mode} — {} records",
                self.name,
                count(self.records)
            ),
            &["scheme", "misp%", "MPKI", "IPC", "committed"],
        );
        for (label, s) in self.schemes.iter().zip(&self.runs) {
            t.row(vec![
                label.clone(),
                pct(s.misprediction_rate()),
                f3(s.mpki()),
                f3(s.ipc()),
                count(s.committed),
            ]);
        }
        t
    }

    /// The H2P table of scheme row `i`.
    pub fn h2p_table(&self, i: usize) -> Table {
        let mut t = Table::new(
            format!(
                "Top-{} mispredicting branches (H2P) — {} scheme",
                self.top_n, self.schemes[i]
            ),
            &["site", "execs", "mispredicts", "site misp%"],
        );
        for row in &self.h2p[i] {
            t.row(vec![
                row.site.clone(),
                count(row.execs),
                count(row.mispredicts),
                pct(row.mispredicts as f64 / row.execs.max(1) as f64),
            ]);
        }
        t
    }

    /// The full text rendering: summary plus one H2P table per scheme.
    pub fn text(&self) -> String {
        let mut out = self.summary_table().to_string();
        for i in 0..self.schemes.len() {
            out.push_str(&self.h2p_table(i).to_string());
        }
        out
    }

    /// The machine-readable artifact (`ppsim trace import --json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("workload", self.name.as_str())
            .field("branches_only", self.branches_only)
            .field("records", self.records)
            .field("commits", self.commits)
            .field(
                "rows",
                Json::Arr(
                    self.schemes
                        .iter()
                        .zip(&self.runs)
                        .zip(&self.h2p)
                        .map(|((label, s), sites)| {
                            Json::obj()
                                .field("scheme", label.as_str())
                                .field("misprediction_rate", s.misprediction_rate())
                                .field("mpki", s.mpki())
                                .field("ipc", s.ipc())
                                .field(
                                    "h2p",
                                    Json::Arr(
                                        sites
                                            .iter()
                                            .map(|r| {
                                                Json::obj()
                                                    .field("site", r.site.as_str())
                                                    .field("slot", u64::from(r.slot))
                                                    .field("execs", r.execs)
                                                    .field("mispredicts", r.mispredicts)
                                            })
                                            .collect(),
                                    ),
                                )
                                .field("metrics", s.metrics().to_json())
                        })
                        .collect(),
                ),
            )
    }
}

/// Simulates `workload` across the [`FIG6A_SCHEMES`] columns through the
/// Plan machinery ([`Job::traced`] cells, [`PlanResults::collect`]) and
/// assembles the MPKI/H2P report. Deterministic: byte-identical for any
/// worker count and cache state.
pub fn trace_report(
    runner: &Runner,
    cfg: &ExperimentConfig,
    workload: &TraceWorkload,
    top_n: usize,
) -> TraceReport {
    let id = workload.register(runner);
    let jobs: Vec<Job> = FIG6A_SCHEMES
        .iter()
        .map(|&(scheme, predication, _)| {
            Job::traced(
                workload.name.as_str(),
                id,
                scheme,
                predication,
                cfg.commits,
                cfg.core,
            )
        })
        .collect();
    let results = PlanResults::collect(runner, cfg, &jobs);
    let runs: Vec<SimStats> = jobs.iter().map(|j| results.stats_of(j).clone()).collect();
    let h2p = runs
        .iter()
        .map(|s| {
            s.top_mispredictors(top_n)
                .into_iter()
                .map(|(slot, execs, miss)| H2pSite {
                    slot,
                    site: workload.site_label(slot),
                    execs,
                    mispredicts: miss,
                })
                .collect()
        })
        .collect();
    TraceReport {
        name: workload.name.clone(),
        branches_only: workload.branches_only,
        records: workload.records(),
        commits: cfg.commits,
        schemes: FIG6A_SCHEMES
            .iter()
            .map(|(s, _, _)| s.name().to_string())
            .collect(),
        runs,
        h2p,
        top_n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A CBP log with one biased and one alternating branch — enough
    /// dynamic records to exercise every scheme.
    fn cbp_text() -> String {
        let mut out = String::from("# tiny fixture\n");
        for i in 0..400 {
            out.push_str("0x401000 1\n");
            out.push_str(&format!("0x40200c {}\n", i % 2));
        }
        out
    }

    #[test]
    fn cbp_workload_reports_mpki_and_ip_labelled_h2p() {
        let (w, summary) = TraceWorkload::from_cbp_text("fixture", &cbp_text()).unwrap();
        assert_eq!(summary.static_branches, 2);
        assert!(w.branches_only);
        let runner = Runner::serial_no_cache();
        let cfg = ExperimentConfig {
            commits: 1_000_000, // more than the stream holds: runs to exhaustion
            ..ExperimentConfig::default()
        };
        let r = trace_report(&runner, &cfg, &w, 8);
        assert_eq!(r.schemes.len(), FIG6A_SCHEMES.len());
        let text = r.text();
        assert!(text.contains("MPKI"), "{text}");
        assert!(text.contains("H2P"), "{text}");
        // The alternating branch is hard to predict and surfaces under
        // its original instruction pointer, not a synthesized slot.
        assert!(text.contains("0x40200c"), "{text}");
        let j = r.to_json().to_string();
        let parsed = Json::parse(&j).expect("trace artifact parses");
        let rows = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), FIG6A_SCHEMES.len());
        assert!(rows[0].get("mpki").is_some(), "{j}");
        // Determinism: a second pass renders byte-identical output.
        let again = trace_report(&runner, &cfg, &w, 8);
        assert_eq!(text, again.text());
        assert_eq!(j, again.to_json().to_string());
    }

    #[test]
    fn export_bytes_round_trips_the_ip_map_and_note() {
        let (mut w, _) = TraceWorkload::from_cbp_text("fixture", &cbp_text()).unwrap();
        w.note = "imported for testing".into();
        let bytes = w.export_bytes();
        let back = TraceWorkload::from_pptrace_bytes(&bytes).unwrap();
        assert_eq!(back.name, "fixture");
        assert_eq!(back.note, "imported for testing");
        assert!(back.branches_only);
        assert_eq!(back.ips, w.ips);
        assert_eq!(back.site_label(1), w.site_label(1));
        // Content identity survives the round trip: both register to the
        // same id, so cache entries are shared.
        let runner = Runner::serial_no_cache();
        assert_eq!(w.register(&runner), back.register(&runner));
    }

    #[test]
    fn captured_benchmark_trace_reports_like_the_import() {
        use ppsim_compiler::{compile, spec2000_suite, CompileOptions};
        let suite = spec2000_suite();
        let spec = suite.iter().find(|s| s.name == "gzip").unwrap();
        let mut opts = CompileOptions::no_ifconv();
        opts.profile_steps = 20_000;
        let compiled = compile(spec, &opts).unwrap();
        let buf = TraceBuffer::capture(&compiled.program, 8_000).unwrap();
        let w = TraceWorkload::from_capture("gzip", "captured in test", buf);
        let bytes = w.export_bytes();
        let back = TraceWorkload::from_pptrace_bytes(&bytes).unwrap();
        let runner = Runner::serial_no_cache();
        let cfg = ExperimentConfig {
            commits: 8_000,
            ..ExperimentConfig::default()
        };
        // The exported/re-imported stream renders byte-identically to
        // the original capture.
        let a = trace_report(&runner, &cfg, &w, 5);
        let b = trace_report(&runner, &cfg, &back, 5);
        assert_eq!(a.text(), b.text());
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert!(a.runs.iter().all(|s| s.committed > 0));
        // Full captures label sites by slot (no IP map).
        assert!(a.text().contains("slot "), "{}", a.text());
    }

    #[test]
    fn ips_note_split_is_lossless_and_tolerant() {
        let (note, ips) = split_ips_note("hello\ncbp-ips=0x10,0x20\nworld");
        assert_eq!(note, "hello\nworld");
        assert_eq!(ips, Some(vec![0x10, 0x20]));
        // Unparsable map lines survive as plain text.
        let (note, ips) = split_ips_note("cbp-ips=not-hex");
        assert_eq!(note, "cbp-ips=not-hex");
        assert_eq!(ips, None);
        let (note, ips) = split_ips_note("");
        assert_eq!(note, "");
        assert_eq!(ips, None);
    }
}
