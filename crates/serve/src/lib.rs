//! # ppsim-serve — the persistent experiment service
//!
//! Batch `ppsim` rebuilds its warm state — the on-disk result cache and
//! the compile memo — on every invocation and throws it away at exit.
//! This crate lifts that state into a long-running daemon: `ppsim serve` owns one [`Runner`](ppsim_core::Runner) for
//! its lifetime and answers experiment requests over a newline-
//! delimited JSON protocol (see [`protocol`]); `ppsim submit` is the
//! matching scriptable client (see [`client`]).
//!
//! Three properties define the service (DESIGN.md §8):
//!
//! * **Determinism** — a `result` event's `data` object is a pure
//!   function of the request: byte-identical whether it was simulated
//!   cold, replayed from the disk cache, or coalesced onto another
//!   client's run, and byte-identical to the same experiment run via
//!   the batch CLI (`report` returns `ppsim suite`'s exact stdout).
//! * **Dedup** — concurrent identical requests coalesce onto one
//!   computation (cells by canonical job key, grid ops by op key).
//! * **Bounded state** — the disk cache is size-capped (LRU), the
//!   compile memo evicts its least recently used binary at a fixed cap,
//!   a captured trace lives only while queued cells need it, handler
//!   threads are bounded by `--max-clients`, and cold simulations by
//!   `--jobs`.

pub mod client;
pub mod protocol;
pub mod server;
pub mod state;

pub use client::{submit, SubmitOptions};
pub use server::{install_sigint_handler, Server};
pub use state::{Counters, ServerState};

use ppsim_core::RunnerOptions;

/// Default listen address (loopback; the protocol has no auth).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7877";

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address.
    pub addr: String,
    /// Maximum concurrent client connections.
    pub max_clients: usize,
    /// Runner configuration (jobs, cache dir, cache size cap). The
    /// cache must be enabled: persistent warm state is the service.
    pub runner: RunnerOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: DEFAULT_ADDR.to_string(),
            max_clients: 64,
            runner: RunnerOptions::default(),
        }
    }
}

impl ServeOptions {
    /// Rejects configurations that cannot serve: no cache, a bad
    /// runner config, or zero clients.
    pub fn validate(&self) -> Result<(), String> {
        self.runner.validate()?;
        if !self.runner.cache {
            return Err("serve requires the result cache (drop --no-cache)".to_string());
        }
        if self.max_clients == 0 {
            return Err("--max-clients must be at least 1".to_string());
        }
        if self.addr.is_empty() {
            return Err("--addr must not be empty".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_validate() {
        assert!(ServeOptions::default().validate().is_ok());
    }

    #[test]
    fn nonsensical_options_are_rejected() {
        let no_cache = ServeOptions {
            runner: RunnerOptions {
                cache: false,
                ..RunnerOptions::default()
            },
            ..ServeOptions::default()
        };
        assert!(no_cache.validate().unwrap_err().contains("cache"));
        let no_clients = ServeOptions {
            max_clients: 0,
            ..ServeOptions::default()
        };
        assert!(no_clients.validate().unwrap_err().contains("max-clients"));
        let no_addr = ServeOptions {
            addr: String::new(),
            ..ServeOptions::default()
        };
        assert!(no_addr.validate().is_err());
    }
}
