//! The daemon: TCP accept loop, per-connection handlers, graceful
//! shutdown.
//!
//! One OS thread per connection, bounded by `--max-clients` (requests
//! themselves are additionally bounded by the simulation permits and the
//! grid lane in [`ServerState`], so the thread count caps memory while
//! the lanes cap CPU). The accept loop and the read loops are
//! nonblocking-with-timeout so every thread notices the stop flag within
//! a few hundred milliseconds; shutdown then *drains*: the listener
//! closes, in-flight requests finish and stream their terminal events,
//! and `run` joins every handler before returning. Results are flushed
//! to the disk cache the moment they are produced (the cache writes
//! through), so there is no separate flush step to lose.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ppsim_core::Json;

use crate::protocol::{self, Request, MAX_LINE};
use crate::state::{Provenance, ServerState};
use crate::ServeOptions;

/// How often blocked loops re-check the stop flag.
const POLL: Duration = Duration::from_millis(25);
/// Read timeout on client sockets (idle clients re-check the flag at
/// this cadence).
const READ_POLL: Duration = Duration::from_millis(250);

/// Process-wide SIGINT latch: the C handler can only touch a static.
static SIGINT: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigint(_sig: i32) {
    SIGINT.store(true, Ordering::SeqCst);
}

/// Routes SIGINT to the stop flag so ctrl-C drains instead of killing
/// mid-write. Best-effort and idempotent; a no-op off unix.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT_NO: i32 = 2;
        // SAFETY: `signal` with a plain `extern "C" fn(i32)` handler that
        // only stores to an atomic is async-signal-safe; no Rust state is
        // touched from the handler.
        unsafe {
            signal(SIGINT_NO, on_sigint as *const () as usize);
        }
    }
}

/// A bound, not-yet-running daemon. Binding is separate from serving so
/// callers (tests, the CLI) can learn the ephemeral port first.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    max_clients: usize,
}

impl Server {
    /// Binds the listener and builds the warm state.
    pub fn bind(opts: &ServeOptions) -> std::io::Result<Server> {
        opts.validate()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState::new(opts)),
            max_clients: opts.max_clients,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (tests reach telemetry and counters here).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Serves until SIGINT or a `shutdown` request, then drains: joins
    /// every handler thread before returning the final state.
    pub fn run(self) -> Arc<ServerState> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.state.stopping() {
            if SIGINT.load(Ordering::SeqCst) {
                self.state.request_stop();
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    handlers.retain(|h| !h.is_finished());
                    if handlers.len() >= self.max_clients {
                        self.state.count(|c| c.connections_refused += 1);
                        refuse(stream);
                        continue;
                    }
                    self.state.count(|c| c.connections += 1);
                    let state = Arc::clone(&self.state);
                    handlers.push(std::thread::spawn(move || handle_client(stream, &state)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(_) => std::thread::sleep(POLL),
            }
        }
        drop(self.listener);
        for h in handlers {
            let _ = h.join();
        }
        self.state
    }
}

/// Tells an over-capacity client why it is being dropped.
fn refuse(mut stream: TcpStream) {
    let _ = writeln!(
        stream,
        "{}",
        protocol::error(0, "server at --max-clients capacity")
    );
}

/// Writes one event line; `false` means the client is gone.
fn send(stream: &mut TcpStream, event: &Json) -> bool {
    send_line(stream, event.to_string())
}

/// Terminates `line` and writes it in one call (one segment under
/// `TCP_NODELAY`); `false` means the client is gone.
fn send_line(stream: &mut TcpStream, mut line: String) -> bool {
    line.push('\n');
    stream.write_all(line.as_bytes()).is_ok()
}

/// Reads lines and serves requests until the client disconnects, a
/// protocol violation forces a drop, or the server stops. Handler
/// errors never escape to poison shared state: every failure path is an
/// `error` event and/or a clean return.
fn handle_client(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    if !send(&mut stream, &protocol::hello()) {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut next_id: u64 = 0;
    loop {
        // Serve every complete line already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            next_id += 1;
            if !serve_line(&mut stream, state, next_id, line) {
                return;
            }
        }
        if buf.len() > MAX_LINE {
            state.count(|c| {
                c.oversized_lines += 1;
                c.errors += 1;
            });
            let msg = format!("request line exceeds {MAX_LINE} bytes; closing connection");
            send(&mut stream, &protocol::error(next_id + 1, &msg));
            return;
        }
        if state.stopping() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Parses and executes one request line, streaming its events. Returns
/// `false` when the connection should close (client gone or shutdown).
fn serve_line(stream: &mut TcpStream, state: &ServerState, id: u64, line: &str) -> bool {
    let request = match protocol::parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            state.count(|c| c.errors += 1);
            // A malformed line errors *that request only*; the
            // connection and the server state stay usable.
            return send(stream, &protocol::error(id, &e));
        }
    };
    state.count(|c| c.requests += 1);
    let op = request.op();
    let outcome: Result<(String, Provenance), String> = match &request {
        Request::Cell(cell) => {
            let job = cell.job();
            if !send(
                stream,
                &protocol::progress(
                    id,
                    if cell.sample.is_some() {
                        "sampled"
                    } else {
                        "cell"
                    },
                    0,
                    1,
                ),
            ) {
                return false;
            }
            match cell.sample {
                Some(spec) => state.run_cell_sampled(&job, spec),
                None => state.run_cell(&job),
            }
        }
        Request::Fig6a(grid) => state.run_fig6a(grid, progress_cb(stream, id, "fig6a")),
        Request::Report(grid) => state.run_report(grid, progress_cb(stream, id, "report")),
        Request::Sweep(sweep) => state.run_sweep(sweep),
        Request::Check(check) => state.run_check_op(check),
        Request::Stats => Ok((state.stats_json().to_string(), Provenance::Warm)),
        Request::Shutdown => {
            state.request_stop();
            Ok((
                Json::obj().field("stopping", true).to_string(),
                Provenance::Warm,
            ))
        }
    };
    match outcome {
        Ok((data, provenance)) => {
            state.count(|c| c.results += 1);
            // The data text is our own Json's rendering; the envelope
            // wraps it verbatim.
            let line =
                protocol::result_line(id, op, provenance.warm(), provenance.coalesced(), &data);
            let alive = send_line(stream, line);
            alive && !matches!(request, Request::Shutdown)
        }
        Err(e) => {
            state.count(|c| c.errors += 1);
            send(stream, &protocol::error(id, &e))
        }
    }
}

/// A progress callback that streams `progress` events for a grid op.
/// It is `Send` because the grid's pool workers report through it (one
/// at a time, behind the grid op's lock). Write failures are swallowed:
/// a vanished client must not abort the shared computation other
/// clients may be coalesced onto.
fn progress_cb<'a>(
    stream: &'a mut TcpStream,
    id: u64,
    stage: &'a str,
) -> impl FnMut(u64, u64) + Send + 'a {
    move |done, total| {
        send(stream, &protocol::progress(id, stage, done, total));
    }
}
