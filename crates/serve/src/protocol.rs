//! The `ppsim serve` wire protocol: newline-delimited JSON.
//!
//! Each line a client sends is one request object; each line the server
//! sends is one event object. Per request the server streams zero or
//! more `progress` events and exactly one terminal `result` or `error`
//! event, all carrying the request's `id` (its 1-based sequence number
//! on the connection). A `hello` event precedes everything on connect.
//!
//! ```text
//! request  := {"op": OP, ...op fields}
//! OP       := "cell" | "fig6a" | "report" | "sweep" | "check"
//!           | "stats" | "shutdown"
//! event    := {"event":"hello","proto":1,"service":"ppsim-serve"}
//!           | {"event":"progress","id":N,"stage":S,"done":D,"total":T}
//!           | {"event":"result","id":N,"op":OP,"warm":B,"coalesced":B,
//!              "data":{...}}
//!           | {"event":"error","id":N,"message":M}
//! ```
//!
//! Progress counts cells. A `cell` request sends one `progress` event
//! with `done` 0 and `total` 1 before its answer. A `fig6a` or `report`
//! request runs its grid in one pass: `total` is the grid's unique
//! cells (its window jobs when the request is sampled) and `done` the
//! cells resolved so far. The first event comes after the cache probe,
//! with every hit resolved, then one follows each simulated cell, so
//! `done` never decreases and the last event reads `done == total`. A
//! warm grid sends exactly one progress event. `sweep` and `check`
//! send none.
//!
//! Unknown fields are rejected, not ignored: a typoed field name would
//! otherwise silently fall back to its default and return the *wrong
//! cell* with a valid-looking result.
//!
//! Determinism contract: the `data` object of a `result` is a pure
//! function of the request — byte-identical whether the answer was
//! simulated, replayed from the disk cache, or coalesced onto another
//! client's in-flight run. Everything execution-dependent (`warm`,
//! `coalesced`, progress events, `stats` output) stays outside `data`.

use ppsim_core::{experiments, ExperimentConfig, Job, Json, SampleSpec};
use ppsim_pipeline::{PredicationModel, SchemeSpec};

/// Protocol revision, announced in the `hello` event.
pub const PROTO_VERSION: u64 = 1;

/// Longest accepted request line in bytes (terminator excluded). A line
/// that grows past this errors the connection: an unbounded line is
/// indistinguishable from a client streaming garbage into server memory.
pub const MAX_LINE: usize = 64 * 1024;

/// One experiment-grid cell (a single simulation).
#[derive(Clone, Debug)]
pub struct CellRequest {
    /// Benchmark name (validated against the suite).
    pub bench: String,
    /// Prediction scheme.
    pub scheme: SchemeSpec,
    /// Predication model (default cmov).
    pub predication: PredicationModel,
    /// Simulate the if-converted binary (default false).
    pub ifconv: bool,
    /// Run the conventional shadow predictor alongside (default false).
    pub shadow: bool,
    /// Committed-instruction budget (default 500 000).
    pub commits: u64,
    /// Profiling budget for the compiler (default 200 000).
    pub profile_steps: u64,
    /// Sampled-simulation schedule (`None` = full run).
    pub sample: Option<SampleSpec>,
}

impl CellRequest {
    /// The canonical [`Job`] for this cell — built through the same
    /// constructor the batch figures use, so the daemon shares cache
    /// keys (and therefore bytes) with `ppsim suite`.
    pub fn job(&self) -> Job {
        let cfg = ExperimentConfig {
            commits: self.commits,
            profile_steps: self.profile_steps,
            ..ExperimentConfig::default()
        };
        let mut jobs = experiments::plan(
            &cfg,
            experiments::PlanSpec::Cell {
                bench: &self.bench,
                ifconv: self.ifconv,
                scheme: self.scheme,
                predication: self.predication,
            },
        );
        Job {
            shadow: self.shadow,
            ..jobs.remove(0)
        }
    }
}

/// Config-shaped fields shared by the grid ops (`fig6a`, `report`,
/// `sweep`): the same knobs `ppsim suite` takes on the command line.
#[derive(Clone, Debug)]
pub struct GridRequest {
    /// Committed-instruction budget per cell.
    pub commits: u64,
    /// Profiling budget for the compiler.
    pub profile_steps: u64,
    /// Restrict to these benchmarks (empty = the whole suite).
    pub only: Vec<String>,
    /// Sampled-simulation schedule (`None` = full runs).
    pub sample: Option<SampleSpec>,
}

impl GridRequest {
    /// The experiment configuration these fields describe.
    pub fn config(&self) -> ExperimentConfig {
        ExperimentConfig {
            commits: self.commits,
            profile_steps: self.profile_steps,
            only: self.only.clone(),
            sample: self.sample,
            ..ExperimentConfig::default()
        }
    }

    /// Canonical text identity of the grid fields, used to key op-level
    /// request coalescing.
    pub fn canon(&self) -> String {
        format!(
            "commits={}|profile={}|only={}|sample={}",
            self.commits,
            self.profile_steps,
            self.only.join(","),
            self.sample.map(|s| s.canon()).unwrap_or_default()
        )
    }
}

/// Which sensitivity sweep to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepKind {
    /// Predictor storage-budget sweep.
    Size,
    /// History-length sweep.
    History,
    /// If-conversion threshold sweep.
    Threshold,
}

impl SweepKind {
    /// CLI/protocol spelling.
    pub fn name(self) -> &'static str {
        match self {
            SweepKind::Size => "size",
            SweepKind::History => "history",
            SweepKind::Threshold => "threshold",
        }
    }

    fn parse(s: &str) -> Option<SweepKind> {
        match s {
            "size" => Some(SweepKind::Size),
            "history" => Some(SweepKind::History),
            "threshold" => Some(SweepKind::Threshold),
            _ => None,
        }
    }
}

/// A sensitivity-sweep request.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// Which sweep.
    pub kind: SweepKind,
    /// Sweep the if-converted binaries (ignored by `threshold`).
    pub ifconv: bool,
    /// Grid configuration.
    pub grid: GridRequest,
}

/// A differential-cosimulation (`check`) sweep.
#[derive(Clone, Debug)]
pub struct CheckRequest {
    /// Base RNG seed.
    pub seed: u64,
    /// Iterations (default 25).
    pub iters: u64,
    /// Also run the sampled-simulation invariants with this epsilon.
    pub sample_epsilon: Option<f64>,
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// One grid cell.
    Cell(CellRequest),
    /// The Figure 6a comparison (the whole grid, in one pass).
    Fig6a(GridRequest),
    /// The consolidated suite report, byte-identical to `ppsim suite`.
    Report(GridRequest),
    /// A sensitivity sweep.
    Sweep(SweepRequest),
    /// A cosimulation check sweep.
    Check(CheckRequest),
    /// Server counters + runner telemetry + cache usage.
    Stats,
    /// Graceful shutdown: drain in-flight work, then exit.
    Shutdown,
}

impl Request {
    /// The request's `op` spelling (echoed in its terminal event).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Cell(_) => "cell",
            Request::Fig6a(_) => "fig6a",
            Request::Report(_) => "report",
            Request::Sweep(_) => "sweep",
            Request::Check(_) => "check",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Typed view of one request object, with strict field checking.
struct Fields<'a> {
    op: &'a str,
    fields: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    fn get(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Rejects any field outside `allowed` (plus `op` itself).
    fn check_keys(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in self.fields {
            if k != "op" && !allowed.contains(&k.as_str()) {
                return Err(format!("unknown field `{}` for op `{}`", k, self.op));
            }
        }
        Ok(())
    }

    fn str(&self, key: &str) -> Result<Option<&'a str>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| format!("field `{key}` must be a string")),
        }
    }

    fn required_str(&self, key: &str) -> Result<&'a str, String> {
        self.str(key)?
            .ok_or_else(|| format!("op `{}` requires field `{key}`", self.op))
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_i64()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
        }
    }

    fn bool(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some(Json::Bool(b)) => Ok(*b),
            Some(_) => Err(format!("field `{key}` must be a boolean")),
        }
    }

    fn f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("field `{key}` must be a number")),
        }
    }

    /// `--sample`-style field: a `skip:warmup:measure:stride:count` spec
    /// or the literal `"default"`.
    fn sample(&self) -> Result<Option<SampleSpec>, String> {
        match self.str("sample")? {
            None => Ok(None),
            Some("default") => Ok(Some(SampleSpec::default_spec())),
            Some(spec) => SampleSpec::parse(spec).map(Some).map_err(|e| e.to_string()),
        }
    }

    /// `only`: a comma-separated string or an array of strings.
    fn only(&self) -> Result<Vec<String>, String> {
        match self.get("only") {
            None => Ok(Vec::new()),
            Some(Json::Str(s)) => Ok(s.split(',').map(|b| b.trim().to_string()).collect()),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "field `only` must contain strings".to_string())
                })
                .collect(),
            Some(_) => Err("field `only` must be a string or an array of strings".to_string()),
        }
    }
}

fn known_benchmark(name: &str) -> Result<(), String> {
    if ppsim_compiler::spec2000_suite()
        .iter()
        .any(|s| s.name == name)
    {
        Ok(())
    } else {
        Err(format!("unknown benchmark `{name}` (see `ppsim list`)"))
    }
}

fn commits_field(f: &Fields) -> Result<u64, String> {
    let commits = f.u64("commits", 500_000)?;
    if commits == 0 {
        return Err("field `commits` must be at least 1".to_string());
    }
    Ok(commits)
}

fn profile_field(f: &Fields) -> Result<u64, String> {
    let steps = f.u64("profile_steps", 200_000)?;
    if steps == 0 {
        return Err("field `profile_steps` must be at least 1".to_string());
    }
    Ok(steps)
}

fn grid_fields(f: &Fields) -> Result<GridRequest, String> {
    let only = f.only()?;
    for bench in &only {
        known_benchmark(bench)?;
    }
    Ok(GridRequest {
        commits: commits_field(f)?,
        profile_steps: profile_field(f)?,
        only,
        sample: f.sample()?,
    })
}

/// Parses one request line. Every error names the offending field or
/// value; nothing about a bad line changes server state.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let Json::Obj(ref fields) = doc else {
        return Err("request must be a JSON object".to_string());
    };
    let op = doc
        .get("op")
        .ok_or("request object needs an `op` field")?
        .as_str()
        .ok_or("field `op` must be a string")?;
    let f = Fields { op, fields };
    match op {
        "cell" => {
            f.check_keys(&[
                "bench",
                "scheme",
                "predication",
                "ifconv",
                "shadow",
                "commits",
                "profile_steps",
                "sample",
            ])?;
            let bench = f.required_str("bench")?;
            known_benchmark(bench)?;
            let scheme = f.required_str("scheme")?;
            let scheme =
                SchemeSpec::parse(scheme).ok_or_else(|| format!("unknown scheme `{scheme}`"))?;
            let predication = match f.str("predication")? {
                None | Some("cmov") => PredicationModel::Cmov,
                Some("selective") => PredicationModel::Selective,
                Some(other) => {
                    return Err(format!(
                        "unknown predication `{other}` (expected cmov|selective)"
                    ))
                }
            };
            Ok(Request::Cell(CellRequest {
                bench: bench.to_string(),
                scheme,
                predication,
                ifconv: f.bool("ifconv", false)?,
                shadow: f.bool("shadow", false)?,
                commits: commits_field(&f)?,
                profile_steps: profile_field(&f)?,
                sample: f.sample()?,
            }))
        }
        "fig6a" => {
            f.check_keys(&["commits", "profile_steps", "only", "sample"])?;
            Ok(Request::Fig6a(grid_fields(&f)?))
        }
        "report" => {
            f.check_keys(&["commits", "profile_steps", "only", "sample"])?;
            Ok(Request::Report(grid_fields(&f)?))
        }
        "sweep" => {
            f.check_keys(&[
                "kind",
                "ifconv",
                "commits",
                "profile_steps",
                "only",
                "sample",
            ])?;
            let kind = f.required_str("kind")?;
            let kind = SweepKind::parse(kind)
                .ok_or_else(|| format!("unknown sweep kind `{kind}` (size|history|threshold)"))?;
            Ok(Request::Sweep(SweepRequest {
                kind,
                ifconv: f.bool("ifconv", true)?,
                grid: grid_fields(&f)?,
            }))
        }
        "check" => {
            f.check_keys(&["seed", "iters", "sample_epsilon"])?;
            let epsilon = f.f64("sample_epsilon")?;
            if let Some(e) = epsilon {
                if !e.is_finite() || e < 0.0 {
                    return Err("field `sample_epsilon` must be finite and >= 0".to_string());
                }
            }
            Ok(Request::Check(CheckRequest {
                seed: f.u64("seed", 0)?,
                iters: f.u64("iters", 25)?,
                sample_epsilon: epsilon,
            }))
        }
        "stats" => {
            f.check_keys(&[])?;
            Ok(Request::Stats)
        }
        "shutdown" => {
            f.check_keys(&[])?;
            Ok(Request::Shutdown)
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// The connection-opening `hello` event.
pub fn hello() -> Json {
    Json::obj()
        .field("event", "hello")
        .field("proto", PROTO_VERSION)
        .field("service", "ppsim-serve")
}

/// A `progress` event for request `id`.
pub fn progress(id: u64, stage: &str, done: u64, total: u64) -> Json {
    Json::obj()
        .field("event", "progress")
        .field("id", id)
        .field("stage", stage)
        .field("done", done)
        .field("total", total)
}

/// The terminal `result` event for request `id`. `warm` and `coalesced`
/// describe *how* this answer was produced (cache replay / joined
/// another client's run); `data` is the deterministic payload.
pub fn result(id: u64, op: &str, warm: bool, coalesced: bool, data: Json) -> Json {
    Json::obj()
        .field("event", "result")
        .field("id", id)
        .field("op", op)
        .field("warm", warm)
        .field("coalesced", coalesced)
        .field("data", data)
}

/// The line of [`result`]`(id, op, warm, coalesced, data)` with `data`
/// given as rendered JSON text and written into the envelope verbatim,
/// so an answer is never parsed and re-rendered on its way out. The
/// bytes equal the rendered event's because [`Json`]'s rendering of
/// parsed [`Json`] text is that text.
pub fn result_line(id: u64, op: &str, warm: bool, coalesced: bool, data: &str) -> String {
    let head = Json::obj()
        .field("event", "result")
        .field("id", id)
        .field("op", op)
        .field("warm", warm)
        .field("coalesced", coalesced)
        .to_string();
    // Reopen the rendered head object to append the `data` field; the
    // spare byte is for the caller's line terminator.
    let mut line = String::with_capacity(head.len() + data.len() + 9);
    line.push_str(&head[..head.len() - 1]);
    line.push_str(",\"data\":");
    line.push_str(data);
    line.push('}');
    line
}

/// The terminal `error` event for request `id` (0 when the line never
/// parsed far enough to get a sequence number).
pub fn error(id: u64, message: &str) -> Json {
    Json::obj()
        .field("event", "error")
        .field("id", id)
        .field("message", message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_cell() {
        let r = parse_request(r#"{"op":"cell","bench":"gzip","scheme":"predicate"}"#).unwrap();
        let Request::Cell(c) = r else {
            panic!("not a cell")
        };
        assert_eq!(c.bench, "gzip");
        assert_eq!(c.scheme, SchemeSpec::Predicate);
        assert_eq!(c.predication, PredicationModel::Cmov);
        assert!(!c.ifconv);
        assert_eq!(c.commits, 500_000);
        assert!(c.sample.is_none());
    }

    #[test]
    fn cell_job_matches_batch_construction() {
        let r = parse_request(
            r#"{"op":"cell","bench":"gcc","scheme":"pep-pa","ifconv":true,"commits":40000}"#,
        )
        .unwrap();
        let Request::Cell(c) = r else {
            panic!("not a cell")
        };
        let cfg = ExperimentConfig {
            commits: 40_000,
            ..ExperimentConfig::default()
        };
        let batch = experiments::plan(
            &cfg,
            experiments::PlanSpec::Cell {
                bench: "gcc",
                ifconv: true,
                scheme: SchemeSpec::PepPa,
                predication: PredicationModel::Cmov,
            },
        )
        .remove(0);
        assert_eq!(c.job().canon(), batch.canon(), "identical cache identity");
    }

    #[test]
    fn rejects_unknown_fields_ops_and_values() {
        for (line, needle) in [
            (
                r#"{"op":"cell","bench":"gzip","scheme":"predicate","bogus":1}"#,
                "unknown field",
            ),
            (r#"{"op":"warp"}"#, "unknown op"),
            (
                r#"{"op":"cell","scheme":"predicate"}"#,
                "requires field `bench`",
            ),
            (
                r#"{"op":"cell","bench":"nope","scheme":"predicate"}"#,
                "unknown benchmark",
            ),
            (
                r#"{"op":"cell","bench":"gzip","scheme":"zap"}"#,
                "unknown scheme",
            ),
            (
                r#"{"op":"cell","bench":"gzip","scheme":"predicate","commits":0}"#,
                "at least 1",
            ),
            (
                r#"{"op":"cell","bench":"gzip","scheme":"predicate","commits":-3}"#,
                "non-negative",
            ),
            (r#"{"op":"fig6a","only":"gzip,nope"}"#, "unknown benchmark"),
            (r#"{"op":"sweep","kind":"banana"}"#, "unknown sweep kind"),
            (r#"{"op":"check","sample_epsilon":-1.0}"#, "sample_epsilon"),
            (r#"{"op":"stats","extra":true}"#, "unknown field"),
            (r#"[1,2]"#, "must be a JSON object"),
            (r#"{"bench":"gzip"}"#, "needs an `op`"),
            (r#"{{{"#, "malformed JSON"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn sample_field_accepts_default_and_spec() {
        let r = parse_request(
            r#"{"op":"cell","bench":"gzip","scheme":"predicate","sample":"default"}"#,
        )
        .unwrap();
        let Request::Cell(c) = r else { panic!() };
        assert_eq!(c.sample, Some(SampleSpec::default_spec()));
        let r = parse_request(r#"{"op":"fig6a","sample":"0:1000:1000:2000:2"}"#).unwrap();
        let Request::Fig6a(g) = r else { panic!() };
        assert_eq!(g.sample.unwrap().count, 2);
        assert!(parse_request(r#"{"op":"fig6a","sample":"1:2"}"#).is_err());
    }

    /// The verbatim envelope is byte-identical to parsing the `data`
    /// text and rendering the event around the parsed value, for the
    /// answers of every op shape.
    #[test]
    fn result_line_equals_the_reparsed_event() {
        use crate::{ServeOptions, ServerState};
        let dir = std::env::temp_dir().join(format!("ppsim-result-line-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServerState::new(&ServeOptions {
            runner: ppsim_core::RunnerOptions {
                jobs: 2,
                cache_dir: Some(dir.clone()),
                ..ppsim_core::RunnerOptions::default()
            },
            ..ServeOptions::default()
        });
        let cell = |line: &str| match parse_request(line).unwrap() {
            Request::Cell(c) => c,
            other => panic!("{other:?}"),
        };
        let grid = GridRequest {
            commits: 3_000,
            profile_steps: 20_000,
            only: vec!["gzip".to_string()],
            sample: None,
        };
        let full = cell(r#"{"op":"cell","bench":"gzip","scheme":"predicate","commits":3000}"#);
        let sampled =
            cell(r#"{"op":"cell","bench":"gzip","scheme":"tage","sample":"1000:500:1000:2000:2"}"#);
        let answers = [
            ("cell", state.run_cell(&full.job()).unwrap().0),
            (
                "cell",
                state
                    .run_cell_sampled(&sampled.job(), sampled.sample.unwrap())
                    .unwrap()
                    .0,
            ),
            ("fig6a", state.run_fig6a(&grid, |_, _| {}).unwrap().0),
            ("report", state.run_report(&grid, |_, _| {}).unwrap().0),
            ("stats", state.stats_json().to_string()),
        ];
        // The report's text is multi-line, so its `data` carries escapes.
        assert!(answers[3].1.contains(r#"\n"#));
        assert!(answers[1].1.contains(r#""windows":["#));
        for (op, data) in &answers {
            for (warm, coalesced) in [(false, false), (true, false), (false, true)] {
                let parsed = Json::parse(data).unwrap();
                assert_eq!(
                    result_line(42, op, warm, coalesced, data),
                    result(42, op, warm, coalesced, parsed).to_string(),
                    "{op}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_accepts_string_and_array_forms() {
        let r = parse_request(r#"{"op":"report","only":"gzip, gcc"}"#).unwrap();
        let Request::Report(g) = r else { panic!() };
        assert_eq!(g.only, ["gzip", "gcc"]);
        let r = parse_request(r#"{"op":"report","only":["twolf"]}"#).unwrap();
        let Request::Report(g) = r else { panic!() };
        assert_eq!(g.only, ["twolf"]);
        assert!(parse_request(r#"{"op":"report","only":7}"#).is_err());
    }
}
