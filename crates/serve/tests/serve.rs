//! End-to-end tests for the serve daemon: byte determinism against the
//! batch CLI, concurrent dedup, and protocol robustness. Every test
//! runs its own server on an ephemeral loopback port with a private
//! cache directory.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

use ppsim_core::{experiments, ExperimentConfig, Json, Runner, RunnerOptions, SampleSpec};
use ppsim_pipeline::{PredicationModel, SchemeSpec};
use ppsim_serve::protocol::GridRequest;
use ppsim_serve::{submit, ServeOptions, Server, ServerState, SubmitOptions};

/// The fig-6a cell every determinism test asks for (PEP-PA column).
const CELL: &str =
    r#"{"op":"cell","bench":"gzip","scheme":"pep-pa","ifconv":true,"commits":30000}"#;
const COMMITS: u64 = 30_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppsim-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct TestServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: JoinHandle<Arc<ServerState>>,
    dir: PathBuf,
}

impl TestServer {
    fn start(tag: &str, max_clients: usize) -> TestServer {
        let dir = temp_dir(tag);
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            max_clients,
            runner: RunnerOptions {
                jobs: 2,
                cache_dir: Some(dir.clone()),
                ..RunnerOptions::default()
            },
        };
        let server = Server::bind(&opts).expect("bind ephemeral loopback");
        let addr = server.local_addr().unwrap();
        let state = Arc::clone(server.state());
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            state,
            thread,
            dir,
        }
    }

    /// Requests shutdown through the protocol and joins the run loop.
    fn stop(self) {
        self.state.request_stop();
        self.thread.join().expect("server run loop exits cleanly");
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn submit_lines(&self, requests: &str) -> Result<Vec<String>, String> {
        let opts = SubmitOptions {
            addr: self.addr.to_string(),
            raw: None,
            quiet: true,
        };
        let mut out = Vec::new();
        submit(&opts, requests, &mut out)?;
        Ok(String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect())
    }
}

/// Raw-socket session: sends `lines`, returns every event line read
/// until the expected number of terminal events arrived.
fn raw_session(addr: SocketAddr, lines: &[&str], terminals: usize) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut hello = String::new();
    reader.read_line(&mut hello).unwrap();
    for line in lines {
        writeln!(stream, "{line}").unwrap();
    }
    let mut events = Vec::new();
    let mut done = 0;
    while done < terminals {
        let mut event = String::new();
        if reader.read_line(&mut event).unwrap() == 0 {
            break;
        }
        let event = Json::parse(event.trim()).expect("server emits valid JSON");
        let kind = event.get_path("event").and_then(Json::as_str).unwrap_or("");
        if kind == "result" || kind == "error" {
            done += 1;
        }
        events.push(event);
    }
    events
}

fn results_of(events: &[Json]) -> Vec<&Json> {
    events
        .iter()
        .filter(|e| e.get_path("event").and_then(Json::as_str) == Some("result"))
        .collect()
}

/// The acceptance criterion end to end: a fig-6a cell served cold, then
/// warm, is byte-identical both between the two requests and against
/// the same cell executed by the batch runner; warmness is proven by
/// telemetry, not timing.
#[test]
fn cell_is_byte_identical_cold_warm_and_vs_batch() {
    let server = TestServer::start("parity", 8);
    let cold = server.submit_lines(CELL).unwrap();
    let warm = server.submit_lines(CELL).unwrap();
    assert_eq!(cold, warm, "cold and warm data bytes differ");
    assert_eq!(cold.len(), 1);

    let telemetry = server.state.runner.telemetry();
    assert_eq!(telemetry.jobs_run, 1, "second request must not simulate");
    let counters = server.state.counters();
    assert_eq!(
        counters.warm_hits, 1,
        "second request served by the warm lane"
    );
    assert_eq!(counters.cold_runs, 1);

    // Batch reference: the same canonical cell through a fresh runner
    // with its own cache, exactly as `ppsim suite` builds it.
    let batch_dir = temp_dir("parity-batch");
    let batch = Runner::new(RunnerOptions {
        jobs: 1,
        cache_dir: Some(batch_dir.clone()),
        ..RunnerOptions::default()
    });
    let cfg = ExperimentConfig {
        commits: COMMITS,
        ..ExperimentConfig::default()
    };
    let job = experiments::plan(
        &cfg,
        experiments::PlanSpec::Cell {
            bench: "gzip",
            ifconv: true,
            scheme: SchemeSpec::PepPa,
            predication: PredicationModel::Cmov,
        },
    )
    .remove(0);
    let reference = batch.run_job(&job);
    let served = Json::parse(&cold[0]).unwrap();
    assert_eq!(
        served.get_path("stats").unwrap().to_string(),
        reference.stats.metrics().to_json().to_string(),
        "served stats bytes != batch stats bytes"
    );
    assert_eq!(
        served.get_path("key").and_then(Json::as_str),
        Some(job.hash_hex().as_str()),
        "served cell key != batch job key"
    );
    let _ = std::fs::remove_dir_all(&batch_dir);
    server.stop();
}

/// Satellite: N concurrent identical requests → exactly one simulation
/// (telemetry-proven) and N byte-identical results.
#[test]
fn concurrent_duplicate_cells_coalesce_to_one_simulation() {
    const N: usize = 6;
    let server = TestServer::start("dedup", N + 2);
    let gate = Arc::new(std::sync::Barrier::new(N));
    let outputs: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let server = &server;
                scope.spawn(move || {
                    gate.wait();
                    server.submit_lines(CELL).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for out in &outputs[1..] {
        assert_eq!(out, &outputs[0], "clients saw different bytes");
    }
    let telemetry = server.state.runner.telemetry();
    assert_eq!(
        telemetry.jobs_run, 1,
        "exactly one simulation for {N} identical requests"
    );
    let counters = server.state.counters();
    assert_eq!(
        counters.cold_runs + counters.coalesced + counters.warm_hits,
        N as u64,
        "every request accounted to exactly one lane"
    );
    assert_eq!(counters.cold_runs, 1, "one leader");
    server.stop();
}

/// The served `report` op returns the exact bytes `ppsim suite` prints
/// for the same configuration.
#[test]
fn served_report_matches_batch_suite_bytes() {
    let cfg = ExperimentConfig {
        commits: COMMITS,
        only: vec!["gzip".to_string()],
        ..ExperimentConfig::default()
    };
    let batch_dir = temp_dir("report-batch");
    let batch = Runner::new(RunnerOptions {
        jobs: 2,
        cache_dir: Some(batch_dir.clone()),
        ..RunnerOptions::default()
    });
    let expected = experiments::full_report(&batch, &cfg);
    let _ = std::fs::remove_dir_all(&batch_dir);

    let server = TestServer::start("report", 4);
    let request = format!(r#"{{"op":"report","commits":{COMMITS},"only":"gzip"}}"#);
    let events = raw_session(server.addr, &[&request], 1);
    let results = results_of(&events);
    assert_eq!(results.len(), 1);
    let text = results[0]
        .get_path("data.text")
        .and_then(Json::as_str)
        .expect("report result carries data.text");
    assert_eq!(text, expected, "served report != batch suite stdout");
    assert!(
        events.iter().any(|e| {
            e.get_path("event").and_then(Json::as_str) == Some("progress")
                && e.get_path("stage").and_then(Json::as_str) == Some("report")
        }),
        "grid ops stream progress events"
    );
    server.stop();
}

/// Satellite: malformed JSON, unknown ops and unknown fields error that
/// request only — the connection and the server stay usable — and an
/// oversized line drops the client without poisoning shared state.
#[test]
fn protocol_violations_do_not_poison_the_server() {
    let server = TestServer::start("robust", 4);

    // Malformed, unknown, invalid — then a valid stats on the SAME
    // connection must still answer.
    let events = raw_session(
        server.addr,
        &[
            "{not json",
            r#"{"op":"warp"}"#,
            r#"{"op":"cell","bench":"gzip"}"#,
            r#"{"op":"stats"}"#,
        ],
        4,
    );
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get_path("event").and_then(Json::as_str))
        .collect();
    assert_eq!(kinds, ["error", "error", "error", "result"]);

    // Oversized line: error event, then the connection closes. One byte
    // over the cap, so the server consumes every byte we sent (a larger
    // blast would leave unread bytes and turn the close into a RST).
    let mut stream = TcpStream::connect(server.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut hello = String::new();
    reader.read_line(&mut hello).unwrap();
    let big = vec![b'x'; ppsim_serve::protocol::MAX_LINE + 1];
    stream.write_all(&big).unwrap();
    stream.flush().unwrap();
    let mut event = String::new();
    reader.read_line(&mut event).unwrap();
    let event = Json::parse(event.trim()).unwrap();
    assert_eq!(
        event.get_path("event").and_then(Json::as_str),
        Some("error")
    );
    assert!(event
        .get_path("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("exceeds"));
    let mut rest = String::new();
    match reader.read_to_string(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "connection closed after oversized line"),
        // A reset is also a close; the assertions below prove the
        // server itself stayed healthy.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("unexpected read error: {e}"),
    }

    // A fresh client is served normally afterwards.
    let events = raw_session(server.addr, &[r#"{"op":"stats"}"#], 1);
    assert_eq!(results_of(&events).len(), 1);
    let counters = server.state.counters();
    assert_eq!(counters.oversized_lines, 1);
    assert!(counters.errors >= 4);
    server.stop();
}

/// Satellite: a client that vanishes mid-request must not wedge the
/// daemon; the next client asking for the same cell gets a full answer.
#[test]
fn mid_request_disconnect_does_not_poison_state() {
    let server = TestServer::start("disconnect", 4);
    {
        let mut stream = TcpStream::connect(server.addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut hello = String::new();
        reader.read_line(&mut hello).unwrap();
        writeln!(stream, "{CELL}").unwrap();
        stream.flush().unwrap();
        // Drop both halves immediately: the request may be mid-parse,
        // mid-simulation, or unread — all must be survivable.
    }
    let out = server.submit_lines(CELL).unwrap();
    assert_eq!(out.len(), 1, "server still answers after a disconnect");
    server.stop();
}

/// Satellite: seeded-RNG fuzz of raw request bytes (the `check` crate's
/// style). No input may kill the daemon or corrupt its event framing.
#[test]
fn fuzzed_request_bytes_never_kill_the_server() {
    let server = TestServer::start("fuzz", 4);
    let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    // Mutation corpus: valid requests with bytes spliced in, plus pure
    // garbage of varying lengths.
    let corpus = [
        CELL,
        r#"{"op":"stats"}"#,
        r#"{"op":"fig6a","only":"gzip","commits":20000}"#,
        r#"{"op":"check","iters":1}"#,
    ];
    for round in 0..8 {
        let mut stream = TcpStream::connect(server.addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut hello = String::new();
        reader.read_line(&mut hello).unwrap();
        for _ in 0..12 {
            let mut line = corpus[(rng() % corpus.len() as u64) as usize]
                .as_bytes()
                .to_vec();
            let mutations = rng() % 6;
            for _ in 0..mutations {
                let i = (rng() as usize) % line.len();
                // Printable garbage only: a raw newline would just split
                // the line, which is legal framing.
                line[i] = 0x20 + (rng() % 0x5F) as u8;
            }
            if round % 2 == 0 {
                let extra = (rng() % 64) as usize;
                line.extend((0..extra).map(|_| 0x20 + (rng() % 0x5F) as u8));
            }
            stream.write_all(&line).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        // The server may legitimately answer slowly here (a mutation can
        // still be a valid simulation request); just drop the socket.
    }
    // The daemon must still serve a clean client and report sane
    // counters.
    let events = raw_session(server.addr, &[r#"{"op":"stats"}"#], 1);
    let results = results_of(&events);
    assert_eq!(results.len(), 1);
    assert!(
        results[0]
            .get_path("data.server.counters.requests")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    server.stop();
}

/// The `report` op runs the full grid in one pass over its 44 streams.
/// The if-converted binaries come back in Figure 6b and the IPC
/// ablation; each (binary, budget) stream must still be captured exactly
/// once, and no capture may outlive the op. A repeat reads each cell
/// from the disk cache once: it adds one job and one hit per unique cell
/// to the telemetry, and simulates nothing.
#[test]
fn report_captures_each_stream_once() {
    let dir = temp_dir("one-pass");
    let state = ServerState::new(&ServeOptions {
        runner: RunnerOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            ..RunnerOptions::default()
        },
        ..ServeOptions::default()
    });
    let req = GridRequest {
        commits: 2_000,
        profile_steps: 20_000,
        only: Vec::new(),
        sample: None,
    };
    let (cold, _) = state.run_report(&req, |_, _| {}).expect("report renders");
    let jobs = experiments::plan(&req.config(), experiments::PlanSpec::FullReport);
    let streams: HashSet<(&str, bool)> = jobs
        .iter()
        .map(|j| (j.benchmark.as_str(), j.ifconv))
        .collect();
    assert_eq!(streams.len(), 44);
    let before = state.runner.telemetry();
    assert_eq!(before.captures, streams.len() as u64);
    assert_eq!(state.runner.live_streams(), 0);

    let (warm, _) = state.run_report(&req, |_, _| {}).expect("report renders");
    assert_eq!(warm, cold);
    let after = state.runner.telemetry();
    let cells = jobs.iter().map(|j| j.canon()).collect::<HashSet<_>>().len() as u64;
    assert_eq!(after.jobs_total - before.jobs_total, cells);
    assert_eq!(after.cache_hits - before.cache_hits, cells);
    assert_eq!(
        after.jobs_run, before.jobs_run,
        "a warm report simulates nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A grid op answered entirely from the cache says so: the first
/// `fig6a` and `report` simulate and answer `"warm":false` (the report
/// has cells Figure 6a lacks), their repeats answer `"warm":true` with
/// the same `data`, as a repeated `cell` does.
#[test]
fn repeated_grid_ops_answer_warm() {
    let server = TestServer::start("grid-warm", 4);
    let report = format!(r#"{{"op":"report","commits":{COMMITS},"only":"gzip"}}"#);
    let fig6a = format!(r#"{{"op":"fig6a","commits":{COMMITS},"only":"gzip"}}"#);
    for request in [&fig6a, &report] {
        let events = raw_session(server.addr, &[request, request], 2);
        let results = results_of(&events);
        assert_eq!(results.len(), 2, "{request}");
        let warm: Vec<_> = results.iter().map(|r| r.get_path("warm")).collect();
        assert_eq!(
            warm,
            [Some(&Json::Bool(false)), Some(&Json::Bool(true))],
            "{request}"
        );
        assert_eq!(results[0].get_path("data"), results[1].get_path("data"));
    }
    server.stop();
}

/// A repeated sampled `cell` answers `"warm":true` with the same `data`
/// once every window is in the cache, and counts as a warm hit.
#[test]
fn repeated_sampled_cell_answers_warm() {
    let server = TestServer::start("sampled-warm", 4);
    let request = r#"{"op":"cell","bench":"gzip","scheme":"tage","commits":30000,"sample":"1000:500:1000:2000:2"}"#;
    let events = raw_session(server.addr, &[request, request], 2);
    let results = results_of(&events);
    assert_eq!(results.len(), 2);
    let warm: Vec<_> = results.iter().map(|r| r.get_path("warm")).collect();
    assert_eq!(warm, [Some(&Json::Bool(false)), Some(&Json::Bool(true))]);
    assert_eq!(results[0].get_path("data"), results[1].get_path("data"));
    let counters = server.state.counters();
    assert_eq!((counters.cold_runs, counters.warm_hits), (1, 1));
    server.stop();
}

/// A cold grid op streams progress over the grid's cells: `done` never
/// decreases, `total` is constant, and the last event reads
/// `done == total`. The warm repeat sends exactly one progress event.
#[test]
fn grid_progress_is_monotone_and_ends_at_total() {
    let server = TestServer::start("progress", 4);
    let request = r#"{"op":"fig6a","commits":5000,"only":"gzip,twolf"}"#;
    let progress = |events: &[Json]| -> Vec<(i64, i64)> {
        events
            .iter()
            .filter(|e| e.get_path("event").and_then(Json::as_str) == Some("progress"))
            .map(|e| {
                assert_eq!(e.get_path("stage").and_then(Json::as_str), Some("fig6a"));
                let n = |k| e.get_path(k).and_then(Json::as_i64).unwrap();
                (n("done"), n("total"))
            })
            .collect()
    };
    let cold = progress(&raw_session(server.addr, &[request], 1));
    let cells = experiments::plan(
        &ExperimentConfig {
            commits: 5_000,
            only: vec!["gzip".to_string(), "twolf".to_string()],
            ..ExperimentConfig::default()
        },
        experiments::PlanSpec::Fig6a,
    )
    .len() as i64;
    assert_eq!(cold.len() as i64, cells + 1, "the probe, then every cell");
    assert!(cold.iter().all(|&(_, total)| total == cells), "{cold:?}");
    assert!(cold.windows(2).all(|w| w[0].0 <= w[1].0), "{cold:?}");
    assert_eq!(cold.first(), Some(&(0, cells)));
    assert_eq!(cold.last(), Some(&(cells, cells)));
    let warm = progress(&raw_session(server.addr, &[request], 1));
    assert_eq!(warm, [(cells, cells)]);
    server.stop();
}

/// A sampled `report` answers the batch sampled report's bytes.
#[test]
fn sampled_report_matches_batch_sampled_suite() {
    let spec = SampleSpec {
        skip: 1_000,
        warmup: 500,
        measure: 1_000,
        stride: 2_000,
        count: 2,
    };
    let cfg = ExperimentConfig {
        commits: COMMITS,
        only: vec!["gzip".to_string()],
        sample: Some(spec),
        ..ExperimentConfig::default()
    };
    let batch_dir = temp_dir("sampled-batch");
    let batch = Runner::new(RunnerOptions {
        jobs: 2,
        cache_dir: Some(batch_dir.clone()),
        ..RunnerOptions::default()
    });
    let expected = experiments::full_report(&batch, &cfg);
    let _ = std::fs::remove_dir_all(&batch_dir);

    let server = TestServer::start("sampled-report", 4);
    let request = format!(
        r#"{{"op":"report","commits":{COMMITS},"only":"gzip","sample":"{}"}}"#,
        spec.canon()
    );
    let events = raw_session(server.addr, &[&request], 1);
    let text = results_of(&events)[0]
        .get_path("data.text")
        .and_then(Json::as_str)
        .expect("report result carries data.text");
    assert_eq!(text, expected, "served sampled report != batch");
    server.stop();
}

/// `stats` exposes the tentpole's counters: telemetry, server counters
/// and cache usage, all as one JSON object.
#[test]
fn stats_reports_telemetry_counters_and_cache() {
    let server = TestServer::start("stats", 4);
    server.submit_lines(CELL).unwrap();
    let events = raw_session(server.addr, &[r#"{"op":"stats"}"#], 1);
    let stats = results_of(&events)[0].get_path("data").unwrap();
    assert_eq!(
        stats.get_path("telemetry.jobs_run").and_then(Json::as_i64),
        Some(1)
    );
    assert!(
        stats
            .get_path("server.counters.requests")
            .and_then(Json::as_f64)
            .unwrap()
            >= 1.0
    );
    assert!(
        stats
            .get_path("cache.entries")
            .and_then(Json::as_i64)
            .unwrap()
            >= 1,
        "cell result persisted to the disk cache"
    );
    server.stop();
}

/// A `shutdown` request drains the daemon: `run` returns, and new
/// connections are no longer served.
#[test]
fn shutdown_request_drains_and_stops() {
    let server = TestServer::start("shutdown", 4);
    let events = raw_session(server.addr, &[r#"{"op":"shutdown"}"#], 1);
    let results = results_of(&events);
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].get_path("data.stopping"),
        Some(&Json::Bool(true))
    );
    let addr = server.addr;
    let dir = server.dir.clone();
    server
        .thread
        .join()
        .expect("run loop exits after shutdown op");
    // The listener is gone: connecting now fails outright (nothing is
    // bound to the port anymore).
    assert!(TcpStream::connect(addr).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--max-clients` refuses the connection over the cap with an error
/// event instead of hanging it.
#[test]
fn max_clients_cap_refuses_excess_connections() {
    let server = TestServer::start("cap", 1);
    // Hold one connection open past its hello.
    let held = TcpStream::connect(server.addr).unwrap();
    let mut reader = BufReader::new(held.try_clone().unwrap());
    let mut hello = String::new();
    reader.read_line(&mut hello).unwrap();
    // The second connection must be refused with an error event.
    let refused = TcpStream::connect(server.addr).unwrap();
    let mut reader2 = BufReader::new(refused);
    let mut line = String::new();
    reader2.read_line(&mut line).unwrap();
    let event = Json::parse(line.trim()).unwrap();
    assert_eq!(
        event.get_path("event").and_then(Json::as_str),
        Some("error")
    );
    assert!(event
        .get_path("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("capacity"));
    drop(held);
    server.stop();
}
