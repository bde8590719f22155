//! The whole-grid digest golden: every cell of the consolidated report
//! (`PlanSpec::FullReport` over all 22 programs at 20k commits, 220
//! cells) pinned by one line in `tests/golden/grid-digest-20000.txt`.
//!
//! Each line reads `<canonical hash> <label> <digest>`. The digest is an
//! FNV-1a over the cell's result-cache entry without its telemetry: the
//! `time.` lines, and the `sum=` checksum and `end` footer that cover
//! them, are left out. What remains pins every `stat.` counter (stall
//! buckets and memory counters included), the per-branch `pc.` rows and
//! the `static.` counts — far more than the report text, which prints a
//! few ratios per cell. A refactor that claims byte identity leaves the
//! golden file untouched.

use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;

use ppsim::core::experiments::{self, PlanSpec};
use ppsim::core::{ExperimentConfig, Runner, RunnerOptions};
use ppsim::runner::hash::{fnv1a64, hex64};

const GOLDEN: &str = include_str!("golden/grid-digest-20000.txt");

/// The digest of one stored entry: FNV-1a over its lines, minus the
/// timing telemetry and the checksum trailer.
fn entry_digest(entry: &str) -> String {
    let kept: String = entry
        .lines()
        .filter(|l| !l.starts_with("time.") && !l.starts_with("sum=") && *l != "end")
        .flat_map(|l| [l, "\n"])
        .collect();
    hex64(fnv1a64(kept.as_bytes()))
}

#[test]
fn full_report_grid_matches_the_digest_golden() {
    let cfg = ExperimentConfig {
        commits: 20_000,
        ..ExperimentConfig::default()
    };
    let jobs = experiments::plan(&cfg, PlanSpec::FullReport);
    assert_eq!(jobs.len(), 220, "22 programs x 10 distinct cells");

    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let dir = tmp.join(format!("grid-digest-cache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let runner = Runner::new(RunnerOptions {
        cache_dir: Some(dir.clone()),
        ..RunnerOptions::default()
    });
    runner.run_grid(&jobs);
    let actual: String = jobs
        .iter()
        .map(|job| {
            let path = dir.join(format!("{}.result", job.hash_hex()));
            let entry = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{} was not stored: {e}", job.label()));
            format!(
                "{} {} {}\n",
                job.hash_hex(),
                job.label(),
                entry_digest(&entry)
            )
        })
        .collect();
    let _ = fs::remove_dir_all(&dir);

    if actual != GOLDEN {
        let out = tmp.join("grid-digest-20000.txt");
        fs::write(&out, &actual).expect("write the actual digest");
        let golden: HashSet<&str> = GOLDEN.lines().collect();
        let now: HashSet<&str> = actual.lines().collect();
        // Labels repeat across predication models, so a cell is named
        // by its hash and label together.
        let mut differing: Vec<&str> = now
            .symmetric_difference(&golden)
            .map(|l| l.rsplit_once(' ').map_or(*l, |(cell, _)| cell))
            .collect();
        differing.sort_unstable();
        differing.dedup();
        let shown = differing.len().min(20);
        panic!(
            "{} cell(s) differ from tests/golden/grid-digest-20000.txt: {}{}\n\
             the actual digest is in {}",
            differing.len(),
            differing[..shown].join(", "),
            if shown < differing.len() { ", ..." } else { "" },
            out.display()
        );
    }
}
