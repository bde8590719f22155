//! The JSON golden: the deterministic `data` object of
//! `ppsim suite --only gzip,twolf --commits 60000 --json`, pinned byte
//! for byte in `tests/golden/suite-gzip-twolf-60000.json`.
//!
//! The text golden beside it pins what the report prints: a few rates
//! per cell. This one pins everything the artifact carries: every
//! per-run metric block (counters, ratios with their float renderings,
//! the per-site `branch_sites` rows), the Figure 6b and IPC-ablation
//! values, and the order and formatting of every field. A change to the
//! render path that claims byte identity leaves the file untouched.

use std::fs;
use std::path::PathBuf;

use ppsim::core::experiments;
use ppsim::core::{ExperimentConfig, Runner, RunnerOptions};

const GOLDEN: &str = include_str!("golden/suite-gzip-twolf-60000.json");

/// Fails naming the first byte at which `actual` leaves the golden, with
/// a little context from both sides, after writing `actual` to
/// `CARGO_TARGET_TMPDIR/<name>` for inspection.
fn assert_matches_golden(actual: &str, name: &str, pass: &str) {
    if actual == GOLDEN {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    fs::write(&out, actual).expect("write the actual rendering");
    let (a, g) = (actual.as_bytes(), GOLDEN.as_bytes());
    let at = a
        .iter()
        .zip(g)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(g.len()));
    let around = |bytes: &[u8]| {
        let lo = at.saturating_sub(40);
        String::from_utf8_lossy(&bytes[lo..(at + 40).min(bytes.len())]).into_owned()
    };
    panic!(
        "the {pass} rendering differs from tests/golden/{name} at byte offset {at} \
         (golden {} bytes, actual {} bytes)\n  golden: …{}…\n  actual: …{}…\n\
         the actual rendering is in {}",
        g.len(),
        a.len(),
        around(g),
        around(a),
        out.display()
    );
}

#[test]
fn suite_json_data_matches_the_golden_cold_and_warm() {
    let cfg = ExperimentConfig {
        commits: 60_000,
        only: vec!["gzip".into(), "twolf".into()],
        ..ExperimentConfig::default()
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("json-golden-cache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let runner = Runner::new(RunnerOptions {
        cache_dir: Some(dir.clone()),
        ..RunnerOptions::default()
    });
    let cold = experiments::full_results(&runner, &cfg);
    assert!(cold.simulated() > 0, "a fresh cache directory simulates");
    assert_matches_golden(
        &cold.report_json(&cfg).to_string(),
        "suite-gzip-twolf-60000.json",
        "cold",
    );
    // The same grid read back from the entries the cold pass stored.
    let warm = experiments::full_results(&runner, &cfg);
    assert_eq!(warm.simulated(), 0, "the rerun reads every cell back");
    assert_matches_golden(
        &warm.report_json(&cfg).to_string(),
        "suite-gzip-twolf-60000.json",
        "warm",
    );
    let _ = fs::remove_dir_all(&dir);
}
