//! Single-flight coalescing of identical in-flight computations.
//!
//! A long-running service (`ppsim serve`) can receive the same canonical
//! cell request from many clients at once. Running the simulation once
//! and fanning the result out is both a throughput win and a determinism
//! guarantee: every client observes literally the same result value. An
//! [`Inflight`] table holds one *flight* per key for exactly as long as
//! the computation runs: the first caller becomes the **leader** and
//! executes the closure; callers arriving while the flight is open block
//! and receive the leader's result; callers arriving after
//! the flight closed start a fresh one (by then the result is expected
//! to be in a cache in front of this table — the table coalesces
//! *concurrency*, it is not a memo).
//!
//! Leader panics are caught so followers never deadlock: every waiter
//! (and the leader itself) gets an `Err` describing the panic, and the
//! entry is removed so the key is immediately usable again.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// The per-key rendezvous: the leader publishes into `slot` and wakes
/// every follower blocked on `cv`. The slot holds the outcome and how
/// many followers have yet to read it: each reads a clone but the last,
/// which takes it. A flight nobody joined publishes nothing.
struct Flight<V> {
    slot: Mutex<Option<(Result<V, String>, usize)>>,
    cv: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Flight<V> {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

/// A table of in-flight computations keyed by `K` (see module docs).
pub struct Inflight<K, V> {
    flights: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

impl<K, V> Default for Inflight<K, V> {
    fn default() -> Self {
        Inflight {
            flights: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Inflight<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Inflight::default()
    }

    /// Number of currently open flights (observability only).
    pub fn open(&self) -> usize {
        self.flights.lock().unwrap().len()
    }

    /// Runs `work` under single-flight semantics for `key`.
    ///
    /// Returns `(outcome, led)`: `led` is `true` for the caller that
    /// actually executed `work` (exactly one per flight), `false` for
    /// callers that joined an open flight and received the leader's
    /// value. A flight with `f` followers clones that value `f` times, so
    /// a lone leader clones nothing. The outcome is `Err` only if the
    /// leader panicked; the panic is contained and the key is immediately
    /// reusable.
    pub fn run<F: FnOnce() -> V>(&self, key: K, work: F) -> (Result<V, String>, bool) {
        let (flight, leader) = {
            let mut map = self.flights.lock().unwrap();
            match map.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::new());
                    map.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            let mut slot = flight
                .cv
                .wait_while(flight.slot.lock().unwrap(), |slot| slot.is_none())
                .unwrap();
            let (outcome, unread) = slot.as_mut().expect("published");
            *unread -= 1;
            let mine = if *unread == 0 {
                slot.take().expect("published").0
            } else {
                outcome.clone()
            };
            return (mine, false);
        }

        let outcome = catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!("in-flight job panicked: {msg}")
        });
        // Close the flight *before* publishing: a caller racing in now
        // starts fresh instead of joining a finished flight. Followers
        // join only under the map lock, so once the flight is out of the
        // map every other handle on it belongs to a waiting follower.
        let followers = {
            let mut map = self.flights.lock().unwrap();
            map.remove(&key);
            Arc::strong_count(&flight) - 1
        };
        if followers > 0 {
            *flight.slot.lock().unwrap() = Some((outcome.clone(), followers));
            flight.cv.notify_all();
        }
        (outcome, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn serial_calls_each_lead() {
        let table: Inflight<u32, u32> = Inflight::new();
        let (a, led_a) = table.run(1, || 10);
        let (b, led_b) = table.run(1, || 20);
        assert_eq!(a.unwrap(), 10);
        assert_eq!(b.unwrap(), 20, "a closed flight is not a memo");
        assert!(led_a && led_b);
        assert_eq!(table.open(), 0);
    }

    #[test]
    fn concurrent_same_key_runs_once() {
        const N: usize = 8;
        let table: Inflight<&'static str, u64> = Inflight::new();
        let runs = AtomicUsize::new(0);
        let gate = Barrier::new(N);
        let results: Vec<(Result<u64, String>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        table.run("cell", || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough that the
                            // barrier-released peers join it.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            0xBEEF
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let leaders = results.iter().filter(|(_, led)| *led).count();
        assert_eq!(leaders, 1, "exactly one leader");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "work ran once");
        for (v, _) in &results {
            assert_eq!(*v.as_ref().unwrap(), 0xBEEF);
        }
        assert_eq!(table.open(), 0, "flight closed");
    }

    /// Counts its own clones.
    struct Counted(Arc<AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, Ordering::SeqCst);
            Counted(Arc::clone(&self.0))
        }
    }

    #[test]
    fn the_leaders_value_is_cloned_once_per_follower() {
        let clones = Arc::new(AtomicUsize::new(0));
        let table: Inflight<u32, Counted> = Inflight::new();
        let (out, led) = table.run(1, || Counted(Arc::clone(&clones)));
        assert!(led && out.is_ok());
        assert_eq!(
            clones.load(Ordering::SeqCst),
            0,
            "a lone leader clones nothing"
        );

        const N: usize = 6;
        let outcomes: Vec<(Result<Counted, String>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        table.run(2, || {
                            // Hold the flight open until every peer has
                            // joined: the map's handle, the leader's and
                            // one per follower.
                            while Arc::strong_count(&table.flights.lock().unwrap()[&2]) < N + 1 {
                                std::thread::yield_now();
                            }
                            Counted(Arc::clone(&clones))
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(outcomes.iter().all(|(out, _)| out.is_ok()));
        let leaders = outcomes.iter().filter(|(_, led)| *led).count();
        assert_eq!(leaders, 1, "exactly one leader");
        assert_eq!(
            clones.load(Ordering::SeqCst),
            N - 1,
            "one clone per follower"
        );
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let table: Inflight<u32, u32> = Inflight::new();
        let out = std::thread::scope(|scope| {
            let a = scope.spawn(|| table.run(1, || 1));
            let b = scope.spawn(|| table.run(2, || 2));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(out.0 .1 && out.1 .1, "both led their own flight");
    }

    #[test]
    fn leader_panic_is_contained_and_key_reusable() {
        let table: Inflight<u32, u32> = Inflight::new();
        let (out, led) = table.run(7, || panic!("boom"));
        assert!(led);
        let err = out.unwrap_err();
        assert!(err.contains("boom"), "{err}");
        assert_eq!(table.open(), 0, "panicked flight removed");
        let (ok, _) = table.run(7, || 42);
        assert_eq!(ok.unwrap(), 42, "key usable after a panic");
    }
}
