//! ppsim's benchmark: three seeded workloads driven through the public
//! crate APIs, each checked against an independent path.
//!
//! ```text
//! perfbench --workload suite-full|trace-cbp|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`). Earlier lines carry the run
//! stamp and, when traced, the spans. See `README.md` for the workloads,
//! why each was chosen, and every metric's definition.

mod cbp;
mod gen;
mod kernels;
mod measure;
mod serve;
mod suite;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ppsim_core::{Runner, RunnerOptions};
use ppsim_obs::Json;

use crate::measure::{median, percentile, Interval, Spans, Tally};

/// End-to-end metrics, `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_minsts_per_cpu_s", "Minst/s"),
    ("peak_rss_mb", "MiB"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("req_per_s", "req/s"),
    ("predicate_misp_pct", "%"),
];

/// Per-layer metrics, `(name, unit)`, printed with `--trace 1`. A layer
/// that a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("compiler.compile_s", "s"),
    ("compiler.self_s", "s"),
    ("isa.capture_s", "s"),
    ("isa.captures", "count"),
    ("isa.trace_mib", "MiB"),
    ("isa.cbp_import_s", "s"),
    ("isa.self_s", "s"),
    ("predictors.conventional.ns_per_branch", "ns"),
    ("predictors.predicate.ns_per_branch", "ns"),
    ("predictors.tage.ns_per_branch", "ns"),
    ("predictors.tage-h2p.ns_per_branch", "ns"),
    ("predictors.tage-predicate.ns_per_branch", "ns"),
    ("mem.ns_per_access", "ns"),
    ("pipeline.sim_s", "s"),
    ("pipeline.ns_per_lane_record", "ns"),
    ("pipeline.build_ms", "ms"),
    ("pipeline.self_s", "s"),
    ("runner.self_s", "s"),
    ("runner.worker_busy_pct", "%"),
    ("runner.fused_passes", "count"),
    ("runner.lanes_per_pass", "count"),
    ("runner.cache_stores", "count"),
    ("runner.cache_store_ms", "ms"),
    ("runner.cache_loads", "count"),
    ("runner.cache_load_us", "us"),
    ("runner.loads_per_cell", "count"),
    ("core.render_ms", "ms"),
    ("core.self_s", "s"),
    ("serve.cell_hit_us", "us"),
    ("serve.report_warm_ms", "ms"),
    ("serve.wire_us", "us"),
    ("serve.self_s", "s"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// Layers whose self times partition the traced wall (with
/// `unattributed_s`): the crates on the workloads' paths. Predictors and
/// mem run inside the pipeline's record loop and are timed by kernels.
pub const SELF_LAYERS: [&str; 6] = ["compiler", "isa", "pipeline", "runner", "core", "serve"];

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["suite-full", "trace-cbp", "serve-mix"];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name` (which must be registered).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Records the per-layer self times and unattributed remainder of a
    /// traced run whose root span lies in layer `bench`.
    pub fn set_self_times(&mut self, spans: &Spans, traced_wall: f64) {
        let selfs = spans.self_times();
        let mut attributed = 0.0;
        for layer in SELF_LAYERS {
            let v = selfs.get(layer).copied().unwrap_or(0.0);
            attributed += v;
            let name = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_suffix(".self_s") == Some(layer))
                .expect("every self layer has a metric")
                .0;
            self.set(name, v);
        }
        self.set("traced_wall_s", traced_wall);
        self.set("unattributed_s", traced_wall - attributed);
    }

    /// The `metrics` object for one registry, in registry order; panics
    /// if a metric is missing or not finite (a benchmark bug).
    pub fn to_json(&self, registry: &[(&'static str, &'static str)]) -> Json {
        let mut out = Json::obj();
        for &(name, unit) in registry {
            let v = *self
                .0
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(v.is_finite(), "metric {name} is {v}");
            out = out.field(name, Json::obj().field("value", v).field("unit", unit));
        }
        out
    }
}

/// What one run produced.
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Workload-specific stamp fields (sizes, per-iteration times).
    pub stamp: Json,
    /// Spans of the traced run.
    pub spans: Option<Spans>,
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value} (one of {WORKLOADS:?})"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A fresh directory for one run's caches and generated inputs, inside
/// the working directory, removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `.bench_tmp/<tag>-<pid>-<nanos>` under the working directory.
    pub fn new(tag: &str) -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".bench_tmp")
            .join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Worker threads a default runner uses: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A default runner (one worker per CPU, fusion and replay on) whose
/// cache is `dir`, as the CLI builds it for `--cache-dir DIR`.
pub fn runner_at(dir: PathBuf) -> Runner {
    Runner::new(RunnerOptions {
        cache_dir: Some(dir),
        ..RunnerOptions::default()
    })
}

/// End-to-end metrics of a batch workload, where one timed iteration is
/// one request: medians over the iterations (peaks included), and the
/// set-up samples' median.
pub fn batch_metrics(
    setup: &[f64],
    runs: &[Interval],
    minsts: &[f64],
    peaks_mib: &[f64],
    predicate_misp_pct: f64,
) -> Metrics {
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let cpus: Vec<f64> = runs.iter().map(|r| r.cpu).collect();
    let mut m = Metrics::default();
    m.set("setup_s", median(setup));
    m.set("wall_s", median(&walls));
    m.set("cpu_s", median(&cpus));
    m.set("sim_minsts_per_cpu_s", median(minsts));
    m.set("peak_rss_mb", median(peaks_mib));
    m.set("req_p50_ms", median(&walls) * 1e3);
    m.set("req_p95_ms", percentile(&walls, 0.95) * 1e3);
    m.set("req_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    m.set("predicate_misp_pct", predicate_misp_pct);
    m
}

/// The commit under test, when the working directory is a git checkout.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        // Only this directory's own repository, never one above it.
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// FNV-1a digest of the program's sources (`Cargo.toml`, `Cargo.lock`,
/// `src/` and `crates/`, paths sorted), naming the code under test where
/// no git commit is available.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn run(args: &Args) -> Result<Outcome, String> {
    let tmp = TempDir::new(&args.workload)?;
    match args.workload.as_str() {
        "suite-full" => suite::run(args, &tmp),
        "trace-cbp" => cbp::run(args, &tmp),
        "serve-mix" => serve::run(args, &tmp),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::DAEMON_ARG) {
        return serve::daemon_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let stamp = Json::obj()
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("commit", commit().as_str())
        .field("source_fnv64", source_digest().as_str())
        .field("nproc", nproc())
        .field("workload_stamp", outcome.stamp);
    let stamp = if args.trace {
        stamp.field("predictor_kernels_skipped", kernels::SKIPPED_SCHEMES)
    } else {
        stamp
    };
    println!("{}", Json::obj().field("stamp", stamp));
    if let Some(spans) = &outcome.spans {
        println!("{}", spans.to_json());
    }
    let registry: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = Json::obj()
        .field("correct", outcome.tally.failed == 0)
        .field("attempted", outcome.tally.attempted)
        .field("failed", outcome.tally.failed)
        .field("metrics", outcome.metrics.to_json(registry));
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn owned(reg: &[(&str, &str)]) -> Vec<(String, String)> {
        reg.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn registries_match_benchmark_json() {
        let doc = manifest();
        assert_eq!(names_units(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_self_layer_has_a_metric() {
        let mut m = Metrics::default();
        m.set_self_times(&Spans::default(), 1.0);
        assert_eq!(m.0["unattributed_s"], 1.0);
    }

    #[test]
    fn args_are_strict() {
        let ok: Vec<String> = "--workload trace-cbp --seed 3 --seconds 2 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&ok).unwrap();
        assert!(a.trace && a.seed == 3 && a.workload == "trace-cbp");
        for bad in [
            "--workload nope --seed 3 --seconds 2 --trace 1",
            "--workload trace-cbp --seed x --seconds 2 --trace 1",
            "--workload trace-cbp --seed 3 --seconds 0 --trace 1",
            "--workload trace-cbp --seed 3 --seconds 2 --trace 2",
            "--workload trace-cbp --seed 3 --seconds 2",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad}");
        }
    }
}
