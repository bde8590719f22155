//! `serve-mix`: a `ppsim serve` daemon answering a seeded request mix
//! from one client in a closed loop (the next request is sent when the
//! previous answer arrives, as `ppsim submit` does).
//!
//! Why: the pipeline is nearly idle, so the cache read path, report
//! rendering and the daemon carry the time; a gain in the simulation
//! loop must show no change here. The few cold misses put cache writes
//! beside the reads. No logs of served requests exist, so the mix is a
//! stated guess (see [`crate::gen::ROUND`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ppsim_compiler::spec2000_suite;
use ppsim_core::experiments::{fig6a_col, full_results, plan, PlanSpec, FIG6A_SCHEMES};
use ppsim_core::{ExperimentConfig, Job, Json, RunnerOptions, SampleSpec};
use ppsim_pipeline::PredicationModel;
use ppsim_predictors::SchemeSpec;
use ppsim_serve::protocol::{parse_request, GridRequest, Request as Wire};
use ppsim_serve::{ServeOptions, Server, ServerState};

use crate::gen::{self, ColdCell, Request};
use crate::kernels::{self, Kernels};
use crate::measure::{
    cpu_seconds, median, peak_rss_mib, percentile, reset_peak_rss, runs_json, samples_json,
    Interval, Spans, Tally,
};
use crate::{nproc, runner_at, Args, Metrics, Outcome, TempDir};

/// First argument that makes the binary run as the daemon.
pub const DAEMON_ARG: &str = "__serve-daemon";

/// Commit budget of the prewarmed grid (the cold `report` of set-up).
const PREWARM_COMMITS: u64 = 50_000;

/// Daemon start-ups whose median is `setup_s`.
const SETUPS: usize = 3;

/// Rounds of [`gen::ROUND`] sent at least: the 95th percentile needs at
/// least ten requests beyond it, and a traced run, which traces every
/// other round, needs a traced and an untraced one.
const MIN_ROUNDS: u64 = 6;

/// Runs the daemon: binds an ephemeral loopback port, prints it, serves
/// until a `shutdown` request or until the parent closes stdin.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        eprintln!("perfbench daemon: missing cache directory");
        return ExitCode::FAILURE;
    };
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_clients: 4,
        runner: RunnerOptions {
            cache_dir: Some(PathBuf::from(dir)),
            ..RunnerOptions::default()
        },
    };
    let server = match Server::bind(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("{addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    }
    // A parent that dies without stopping us closes our stdin.
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    server.run();
    ExitCode::SUCCESS
}

/// A daemon child process, killed and reaped if dropped while running.
struct Daemon {
    child: Child,
    _stdin: ChildStdin,
    addr: String,
}

impl Daemon {
    fn start(cache_dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg(DAEMON_ARG)
            .arg(cache_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting daemon: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut addr = String::new();
        let read = BufReader::new(stdout).read_line(&mut addr);
        let daemon = Daemon {
            child,
            _stdin: stdin,
            addr: addr.trim().to_string(),
        };
        match read {
            Ok(n) if n > 0 => Ok(daemon),
            _ => Err("daemon exited before listening".to_string()),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Requests shutdown and waits for the process to end.
    fn stop(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.request(r#"{"op":"shutdown"}"#)?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        }
        Err("daemon did not stop within 30 s".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        };
        conn.read_line()?;
        if !conn.line.starts_with(r#"{"event":"hello""#) {
            return Err(format!("unexpected greeting {}", conn.line.trim()));
        }
        Ok(conn)
    }

    fn read_line(&mut self) -> Result<(), String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("reading from daemon: {e}")),
        }
    }

    /// Sends one request and waits for its terminal event; returns the
    /// latency in seconds. An `error` event is an `Err`.
    fn request(&mut self, req: &str) -> Result<f64, String> {
        let started = Instant::now();
        self.writer
            .write_all(format!("{req}\n").as_bytes())
            .map_err(|e| format!("sending request: {e}"))?;
        loop {
            self.read_line()?;
            if !self.line.starts_with(r#"{"event":"progress""#) {
                break;
            }
        }
        let secs = started.elapsed().as_secs_f64();
        if self.line.starts_with(r#"{"event":"result""#) {
            Ok(secs)
        } else {
            Err(format!("{req} answered {}", self.line.trim()))
        }
    }

    /// The `data` object of the last result, as sent.
    fn data(&self) -> &str {
        let line = self.line.trim_end();
        line.find(r#","data":"#)
            .map_or("", |at| &line[at + 8..line.len() - 1])
    }

    /// The last result's `data`, parsed.
    fn data_json(&self) -> Result<Json, String> {
        Json::parse(self.data()).map_err(|e| format!("result data: {e}"))
    }
}

fn fingerprint(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// The request lines of a round, and the grid they refer to.
struct Mix {
    cfg: ExperimentConfig,
    grid: Vec<Job>,
    benches: Vec<&'static str>,
}

fn predication_name(p: PredicationModel) -> &'static str {
    match p {
        PredicationModel::Cmov => "cmov",
        PredicationModel::Selective => "selective",
    }
}

impl Mix {
    fn new() -> Mix {
        let cfg = ExperimentConfig {
            commits: PREWARM_COMMITS,
            ..ExperimentConfig::default()
        };
        Mix {
            grid: plan(&cfg, PlanSpec::FullReport),
            benches: spec2000_suite().iter().map(|s| s.name).collect(),
            cfg,
        }
    }

    fn grid_line(&self, op: &str) -> String {
        format!(r#"{{"op":"{op}","commits":{}}}"#, self.cfg.commits)
    }

    fn line(&self, r: &Request) -> String {
        match r {
            Request::Report => self.grid_line("report"),
            Request::Fig6a => self.grid_line("fig6a"),
            Request::Hit(i) => {
                let j = &self.grid[*i];
                format!(
                    r#"{{"op":"cell","bench":"{}","scheme":"{}","predication":"{}","ifconv":{},"shadow":{},"commits":{}}}"#,
                    j.benchmark,
                    j.scheme.name(),
                    predication_name(j.predication),
                    j.ifconv,
                    j.shadow,
                    j.commits
                )
            }
            Request::Cold(c) => self.cold_line(c),
        }
    }

    fn cold_line(&self, c: &ColdCell) -> String {
        let (scheme, predication, _) = FIG6A_SCHEMES[c.column];
        let sample = c
            .sample_skip
            .map(|skip| format!(r#","sample":"{skip}:2000:4000:8000:2""#))
            .unwrap_or_default();
        format!(
            r#"{{"op":"cell","bench":"{}","scheme":"{}","predication":"{}","ifconv":{},"commits":{}{sample}}}"#,
            self.benches[c.bench],
            scheme.name(),
            predication_name(predication),
            c.ifconv,
            c.commits
        )
    }

    fn round(&self, seed: u64, round: u64) -> Vec<Request> {
        gen::serve_round(
            seed,
            round,
            self.grid.len(),
            self.benches.len(),
            FIG6A_SCHEMES.len(),
        )
    }
}

/// Starts a daemon on a fresh cache and sends the prewarm `report`;
/// returns the daemon, its connection, and the set-up wall time.
fn set_up(mix: &Mix, dir: &Path, answers: &mut Answers) -> Result<(Daemon, Conn, f64), String> {
    let started = Instant::now();
    let daemon = Daemon::start(dir)?;
    let mut conn = Conn::open(&daemon.addr)?;
    let line = mix.grid_line("report");
    conn.request(&line)?;
    let secs = started.elapsed().as_secs_f64();
    answers.record(&line, &conn);
    Ok((daemon, conn, secs))
}

/// Served answers, kept for checking against batch renderings: the
/// first `data` of every distinct request, and whether every repeat
/// matched it.
#[derive(Default)]
struct Answers {
    first: HashMap<String, (u64, String)>,
    mismatched: Vec<String>,
}

impl Answers {
    fn record(&mut self, line: &str, conn: &Conn) {
        let data = conn.data();
        let print = fingerprint(data);
        match self.first.get(line) {
            Some((p, _)) => {
                if *p != print {
                    self.mismatched.push(line.to_string());
                }
            }
            None => {
                self.first
                    .insert(line.to_string(), (print, data.to_string()));
            }
        }
    }
}

/// Telemetry and counters from a `stats` request.
#[derive(Clone, Debug, Default)]
struct DaemonStats {
    jobs_total: f64,
    jobs_run: f64,
    captures: f64,
    fused_passes: f64,
    lanes_per_pass: f64,
    warm_hits: f64,
    cold_runs: f64,
    /// (wall, compile, capture, sim) seconds per simulated job.
    per_job: Vec<[f64; 4]>,
}

fn stats(conn: &mut Conn) -> Result<DaemonStats, String> {
    conn.request(r#"{"op":"stats"}"#)?;
    let d = conn.data_json()?;
    let num = |path: &str| d.get_path(path).and_then(Json::as_f64).unwrap_or(0.0);
    let per_job = d
        .get_path("telemetry.per_job")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|j| {
            let f = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) / 1e6;
            [
                f("wall_micros"),
                f("compile_micros"),
                f("capture_micros"),
                f("sim_micros"),
            ]
        })
        .collect();
    Ok(DaemonStats {
        jobs_total: num("telemetry.jobs_total"),
        jobs_run: num("telemetry.jobs_run"),
        captures: num("telemetry.captures"),
        fused_passes: num("telemetry.fused_passes"),
        lanes_per_pass: num("telemetry.lanes_per_pass"),
        warm_hits: num("server.counters.warm_hits"),
        cold_runs: num("server.counters.cold_runs"),
        per_job,
    })
}

/// What the timed rounds measured.
#[derive(Default)]
struct Served {
    /// (class, latency seconds) per request.
    latencies: Vec<(&'static str, f64)>,
    /// Wall and daemon CPU per round: the daemon's CPU clock is too
    /// coarse for single requests, so rounds are the unit of `wall_s`
    /// and `cpu_s`.
    rounds: Vec<Interval>,
    traced_rounds: Vec<f64>,
    untraced_rounds: Vec<f64>,
    /// Cold lines sent, for the committed-instruction count.
    cold_lines: Vec<String>,
    /// Cold lines sent inside traced rounds.
    traced_cold_lines: Vec<String>,
    /// Telemetry deltas over traced rounds.
    delta: DaemonStats,
    /// Requests of each class inside traced rounds.
    traced_counts: HashMap<&'static str, f64>,
}

/// Sends rounds until `seconds` have passed (and at least [`MIN_ROUNDS`]).
/// With `spans`, odd rounds are traced: each request gets a span and the
/// daemon's telemetry is read around the round.
#[allow(clippy::too_many_arguments)]
fn serve_rounds(
    mix: &Mix,
    conn: &mut Conn,
    daemon_pid: u32,
    seed: u64,
    seconds: f64,
    answers: &mut Answers,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> Result<Served, String> {
    let mut out = Served::default();
    let phase = Instant::now();
    let mut round = 0u64;
    while round < MIN_ROUNDS || phase.elapsed().as_secs_f64() < seconds {
        let traced = spans.is_some() && round % 2 == 1;
        let before = if traced { Some(stats(conn)?) } else { None };
        let reqs = mix.round(seed, round);
        let cpu0 = cpu_seconds(daemon_pid)?;
        let started = Instant::now();
        let root = match (&mut spans, traced) {
            (Some(s), true) => Some(s.enter("bench", format!("round {round}"))),
            _ => None,
        };
        for r in &reqs {
            let line = mix.line(r);
            let span = match (&mut spans, root) {
                (Some(s), Some(_)) => Some(s.enter("serve", r.class())),
                _ => None,
            };
            let res = conn.request(&line);
            if let (Some(s), Some(id)) = (&mut spans, span) {
                s.exit(id);
            }
            match res {
                Ok(secs) => {
                    tally.ok(1);
                    out.latencies.push((r.class(), secs));
                    answers.record(&line, conn);
                    if traced {
                        *out.traced_counts.entry(r.class()).or_default() += 1.0;
                    }
                }
                Err(e) => tally.error("request", e),
            }
            if let Request::Cold(_) = r {
                if traced {
                    out.traced_cold_lines.push(line.clone());
                }
                out.cold_lines.push(line);
            }
        }
        if let (Some(s), Some(id)) = (&mut spans, root) {
            s.exit(id);
        }
        let wall = started.elapsed().as_secs_f64();
        out.rounds.push(Interval {
            wall,
            cpu: cpu_seconds(daemon_pid)? - cpu0,
        });
        if let Some(b) = before {
            let a = stats(conn)?;
            let d = &mut out.delta;
            d.jobs_total += a.jobs_total - b.jobs_total;
            d.jobs_run += a.jobs_run - b.jobs_run;
            d.warm_hits += a.warm_hits - b.warm_hits;
            d.cold_runs += a.cold_runs - b.cold_runs;
            d.per_job
                .extend_from_slice(&a.per_job[b.per_job.len().min(a.per_job.len())..]);
            out.traced_rounds.push(wall);
        } else {
            out.untraced_rounds.push(wall);
        }
        round += 1;
    }
    Ok(out)
}

/// Batch renderings of every distinct served request, from an in-process
/// runner with its own cache: each must equal the served `data`.
fn check(mix: &Mix, dir: PathBuf, answers: &Answers, tally: &mut Tally) -> Result<(), String> {
    for line in &answers.mismatched {
        tally.op(false, || {
            format!("repeated request answered differently: {line}")
        });
    }
    let runner = runner_at(dir);
    let cfg = &mix.cfg;
    let mut grid = None;
    let norm = |j: Json| -> String {
        // The daemon re-parses its rendered data before sending it.
        Json::parse(&j.to_string()).map_or_else(|e| e, |p| p.to_string())
    };
    for (line, (_, served)) in &answers.first {
        let batch = match parse_request(line).map_err(|e| format!("{line}: {e}"))? {
            Wire::Report(_) => {
                let results = grid.get_or_insert_with(|| full_results(&runner, cfg));
                norm(
                    Json::obj()
                        .field("text", results.report_text(cfg).as_str())
                        .field("json", results.report_json(cfg)),
                )
            }
            Wire::Fig6a(_) => {
                let results = grid.get_or_insert_with(|| full_results(&runner, cfg));
                norm(results.fig6a(cfg).to_json())
            }
            Wire::Cell(c) => {
                let job = c.job();
                match c.sample {
                    None => {
                        let r = runner.run_job(&job);
                        norm(cell_json(&job, None, &r, &[]))
                    }
                    Some(spec) => {
                        let s = runner.run_job_sampled(&job, spec);
                        norm(cell_json(&job, Some(spec), &s.aggregate, &s.samples))
                    }
                }
            }
            _ => return Err(format!("unexpected request {line}")),
        };
        tally.op(batch == *served, || {
            format!("served data differs from batch for {line}")
        });
    }
    Ok(())
}

/// A cell's `data` object, rendered from a batch result.
fn cell_json(
    job: &Job,
    sample: Option<SampleSpec>,
    r: &ppsim_runner::JobResult,
    windows: &[ppsim_runner::JobResult],
) -> Json {
    let mut j = Json::obj()
        .field("key", job.hash_hex().as_str())
        .field("label", job.label().as_str());
    if let Some(spec) = sample {
        j = j.field("sample", spec.canon().as_str());
    }
    j = j
        .field("static_insns", r.static_insns)
        .field("static_cond_branches", r.static_cond_branches)
        .field("stats", r.stats.metrics().to_json());
    if sample.is_some() {
        j = j.field(
            "windows",
            Json::Arr(
                windows
                    .iter()
                    .map(|w| w.stats.metrics().to_json())
                    .collect(),
            ),
        );
    }
    j
}

/// The predicate column's average misprediction rate in a served
/// `fig6a`, in percent.
fn served_predicate_misp_pct(answers: &Answers, mix: &Mix) -> Result<f64, String> {
    let (_, data) = answers
        .first
        .get(&mix.grid_line("fig6a"))
        .ok_or("no fig6a was served")?;
    let doc = Json::parse(data).map_err(|e| format!("fig6a data: {e}"))?;
    let col = fig6a_col(SchemeSpec::Predicate);
    let rates: Vec<f64> = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("fig6a data has no rows")?
        .iter()
        .filter_map(|r| r.get("misprediction_rates")?.as_arr()?.get(col)?.as_f64())
        .collect();
    if rates.is_empty() {
        return Err("fig6a data has no predicate rates".to_string());
    }
    Ok(rates.iter().sum::<f64>() / rates.len() as f64 * 100.0)
}

/// Instructions committed by the served cells of `lines`.
fn committed(answers: &Answers, lines: &[String]) -> f64 {
    lines
        .iter()
        .filter_map(|l| answers.first.get(l))
        .filter_map(|(_, d)| Json::parse(d).ok())
        .filter_map(|d| {
            d.get_path("stats.counters.committed")
                .and_then(Json::as_f64)
        })
        .sum()
}

pub fn run(args: &Args, tmp: &TempDir) -> Result<Outcome, String> {
    let mix = Mix::new();
    let mut tally = Tally::default();
    let mut answers = Answers::default();

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup = Vec::new();
    let mut live = None;
    for i in 0..setups {
        let dir = tmp.join(&format!("daemon{i}"));
        let (daemon, conn, secs) = set_up(&mix, &dir, &mut answers)?;
        tally.ok(1);
        setup.push(secs);
        if let Some((old, old_conn, _)) = live.replace((daemon, conn, dir)) {
            drop(old_conn);
            Daemon::stop(old)?;
        }
    }
    let (daemon, mut conn, dir) = live.expect("at least one set-up");
    let after_setup = stats(&mut conn)?;
    reset_peak_rss(daemon.pid())?;

    let mut spans = Spans::default();
    let served = serve_rounds(
        &mix,
        &mut conn,
        daemon.pid(),
        args.seed,
        args.seconds,
        &mut answers,
        &mut tally,
        args.trace.then_some(&mut spans),
    )?;
    let peak = peak_rss_mib(daemon.pid())?;
    drop(conn);
    daemon.stop()?;
    check(&mix, tmp.join("batch"), &answers, &mut tally)?;

    let lat: Vec<f64> = served.latencies.iter().map(|(_, s)| *s).collect();
    let walls: Vec<f64> = served.rounds.iter().map(|r| r.wall).collect();
    let cpus: Vec<f64> = served.rounds.iter().map(|r| r.cpu).collect();
    let stamp = Json::obj()
        .field("prewarm_commits", PREWARM_COMMITS)
        .field("permits", nproc())
        .field("requests", lat.len())
        .field("rounds", served.rounds.len())
        .field("setup_s", samples_json(&setup))
        .field("runs", runs_json(&served.rounds));
    let mut m = Metrics::default();
    if args.trace {
        traced_metrics(
            &mut m,
            &mut spans,
            &answers,
            &mix,
            &dir,
            tmp,
            &served,
            &after_setup,
        )?;
        return Ok(Outcome {
            tally,
            metrics: m,
            stamp,
            spans: Some(spans),
        });
    }
    m.set("setup_s", median(&setup));
    m.set("wall_s", median(&walls));
    m.set("cpu_s", median(&cpus));
    m.set(
        "sim_minsts_per_cpu_s",
        committed(&answers, &served.cold_lines) / 1e6 / cpus.iter().sum::<f64>(),
    );
    m.set("peak_rss_mb", peak);
    m.set("req_p50_ms", median(&lat) * 1e3);
    m.set("req_p95_ms", percentile(&lat, 0.95) * 1e3);
    m.set("req_per_s", lat.len() as f64 / walls.iter().sum::<f64>());
    m.set(
        "predicate_misp_pct",
        served_predicate_misp_pct(&answers, &mix)?,
    );
    Ok(Outcome {
        tally,
        metrics: m,
        stamp,
        spans: None,
    })
}

/// Median seconds of `reps` calls of `f`.
fn median_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs)
}

/// Per-layer metrics of a traced serve-mix run: in-process replays of
/// the daemon's calls over its own cache, and the daemon's telemetry.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    m: &mut Metrics,
    spans: &mut Spans,
    answers: &Answers,
    mix: &Mix,
    dir: &Path,
    tmp: &TempDir,
    served: &Served,
    setup: &DaemonStats,
) -> Result<(), String> {
    let cfg = &mix.cfg;
    let state = ServerState::new(&ServeOptions {
        runner: RunnerOptions {
            cache_dir: Some(dir.to_path_buf()),
            ..RunnerOptions::default()
        },
        ..ServeOptions::default()
    });
    let hit_job = &mix.grid[0];
    let cell_hit_s = median_of(200, || {
        std::hint::black_box(state.run_cell(hit_job).ok());
    });
    let grid = GridRequest {
        commits: cfg.commits,
        profile_steps: cfg.profile_steps,
        only: cfg.only.clone(),
        sample: None,
    };
    let report_s = median_of(3, || {
        std::hint::black_box(state.run_report(&grid, |_, _| {}).ok());
    });
    let results = ppsim_core::experiments::PlanResults::collect(&state.runner, cfg, &mix.grid);
    let render_report_s = median_of(3, || {
        std::hint::black_box((
            results.report_text(cfg),
            results.report_json(cfg).to_string(),
        ));
    });
    let render_fig6a_s = median_of(3, || {
        std::hint::black_box(results.fig6a(cfg).to_json().to_string());
    });
    drop(state);
    let (loaded, load_us) = kernels::cache_loads(dir, &mix.grid)?;
    let store_ms = kernels::cache_stores(&tmp.join("store-replay"), &mix.grid, &loaded)?;

    Kernels::over_grid(&mix.grid)?.set_metrics(m);

    let d = &served.delta;
    let count = |c: &str| served.traced_counts.get(c).copied().unwrap_or(0.0);
    let sum = |i: usize| d.per_job.iter().map(|t| t[i]).sum::<f64>();
    let (job_s, compile_s, capture_s, sim_s) = (sum(0), sum(1), sum(2), sum(3));
    let lookups = d.jobs_total + d.warm_hits + d.cold_runs;
    let cells_answered = count("report") * mix.grid.len() as f64
        + count("fig6a") * plan(cfg, PlanSpec::Fig6a).len() as f64
        + count("hit")
        + count("cold");
    spans.attribute(
        "serve",
        "core",
        count("report") * render_report_s + count("fig6a") * render_fig6a_s,
    );
    spans.attribute(
        "serve",
        "runner",
        lookups * load_us * 1e-6 + d.jobs_run * store_ms * 1e-3,
    );
    spans.attribute("serve", "compiler", compile_s);
    spans.attribute("serve", "isa", capture_s);
    spans.attribute("serve", "pipeline", job_s - compile_s - capture_s);

    let traced_wall: f64 = served.traced_rounds.iter().sum();
    let hits: Vec<f64> = served
        .latencies
        .iter()
        .filter(|(c, _)| *c == "hit")
        .map(|(_, s)| *s)
        .collect();
    let set_up_sum = |i: usize| setup.per_job.iter().map(|t| t[i]).sum::<f64>();
    m.set("compiler.compile_s", set_up_sum(1));
    m.set("isa.capture_s", set_up_sum(2));
    m.set("isa.captures", setup.captures);
    m.set("isa.cbp_import_s", 0.0);
    m.set("pipeline.sim_s", sim_s);
    let cold = committed(answers, &served.traced_cold_lines);
    m.set("pipeline.ns_per_lane_record", sim_s * 1e9 / cold.max(1.0));
    m.set(
        "runner.worker_busy_pct",
        job_s / (nproc() as f64 * traced_wall) * 100.0,
    );
    m.set("runner.fused_passes", setup.fused_passes);
    m.set("runner.lanes_per_pass", setup.lanes_per_pass);
    m.set("runner.cache_stores", d.jobs_run);
    m.set("runner.cache_store_ms", store_ms);
    m.set("runner.cache_loads", lookups);
    m.set("runner.cache_load_us", load_us);
    m.set("runner.loads_per_cell", lookups / cells_answered.max(1.0));
    m.set("core.render_ms", render_report_s * 1e3);
    m.set("serve.cell_hit_us", cell_hit_s * 1e6);
    m.set("serve.report_warm_ms", report_s * 1e3);
    m.set("serve.wire_us", (median(&hits) - cell_hit_s) * 1e6);
    m.set_self_times(spans, traced_wall);
    m.set(
        "trace_overhead_pct",
        (median(&served.traced_rounds) / median(&served.untraced_rounds) - 1.0) * 100.0,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `data` with its first `committed` counter incremented.
    fn flip_committed(data: &str) -> String {
        let key = r#""committed":"#;
        let at = data.find(key).expect("a committed counter") + key.len();
        let end = at + data[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let n: u64 = data[at..end].parse().unwrap();
        format!("{}{}{}", &data[..at], n + 1, &data[end..])
    }

    #[test]
    fn a_flipped_counter_in_served_data_registers_as_a_failed_operation() {
        let mix = Mix::new();
        let tmp = TempDir::new("serve-check-test").unwrap();
        let line = mix.line(&Request::Hit(0));
        let Ok(Wire::Cell(cell)) = parse_request(&line) else {
            panic!("{line} is a cell request")
        };
        let job = cell.job();
        let runner = runner_at(tmp.join("reference"));
        let good = Json::parse(&cell_json(&job, None, &runner.run_job(&job), &[]).to_string())
            .unwrap()
            .to_string();
        let mut answers = Answers::default();
        answers.first.insert(line.clone(), (0, good.clone()));
        let mut tally = Tally::default();
        check(&mix, tmp.join("batch1"), &answers, &mut tally).unwrap();
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        answers.first.insert(line, (0, flip_committed(&good)));
        check(&mix, tmp.join("batch2"), &answers, &mut tally).unwrap();
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
