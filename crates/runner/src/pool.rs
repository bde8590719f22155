//! A deterministic work-stealing thread pool for job grids.
//!
//! Built on `std::thread::scope` only — the workspace carries no external
//! dependencies. Each worker owns a deque seeded with a contiguous chunk
//! of job indices (odd workers walk theirs backwards); when a worker
//! drains its own deque it steals from the back of the longest victim
//! deque. Worker 0 is the calling thread, so a pool of N workers spawns
//! N − 1 threads. Results land in pre-allocated indexed slots, so the
//! *assembly order* is the canonical grid order regardless of which
//! worker ran which job or in what interleaving — output is
//! byte-identical for any `--jobs N`.
//!
//! Running worker 0 on the caller is a memory decision as much as a
//! thread-count one: every fresh thread that allocates gets its own glibc
//! malloc arena, and arenas keep freed simulator state resident. A
//! long-lived caller (the `ppsim serve` handler, running one grid after
//! another) would otherwise run every grid on fresh threads only; when
//! the daemon still ran its grids in `--jobs`-sized chunks, that raised
//! its peak RSS on the serve-mix benchmark by 15–22%.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `work(i)` for every `i in 0..n` across `jobs` workers and returns
/// the results in index order.
///
/// The calling thread runs worker 0's share and `min(jobs, n) − 1`
/// threads run the rest; `jobs == 1` short-circuits to a plain serial
/// loop (no threads, no locks). `work` must be safe to call concurrently
/// from many threads.
pub fn run_indexed<T, F>(n: usize, jobs: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(jobs >= 1, "worker count must be at least 1");
    if jobs == 1 || n <= 1 {
        return (0..n).map(&work).collect();
    }

    let workers = jobs.min(n);
    // Seed each worker's deque with a contiguous chunk so cache-warm
    // neighbours (same benchmark, different scheme) run on one thread.
    // Odd workers walk their chunk backwards, so two neighbouring chunks
    // reach their shared boundary together — both first or both last —
    // and a run of related indices straddling it is not split between
    // the start and the end of the grid.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let chunk = w * n / workers..(w + 1) * n / workers;
            Mutex::new(if w % 2 == 0 {
                chunk.collect()
            } else {
                chunk.rev().collect()
            })
        })
        .collect();

    // One pre-allocated slot per job; each index is written exactly once.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let drain = |w: usize| {
        while let Some(i) = next_index(&deques, w) {
            let value = work(i);
            *slots[i].lock().expect("result slot lock poisoned") = Some(value);
        }
    };
    std::thread::scope(|scope| {
        for w in 1..workers {
            let drain = &drain;
            scope.spawn(move || drain(w));
        }
        drain(0);
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every job index was claimed exactly once")
        })
        .collect()
}

/// Pops the next job for worker `w`: front of its own deque, else the
/// back of the longest victim deque (classic work stealing — steal big
/// untouched chunks, leave the victim its cache-warm front).
fn next_index(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = deques[w].lock().unwrap().pop_front() {
        return Some(i);
    }
    loop {
        // Pick the currently longest victim. Lengths are sampled without
        // holding all locks, so the pick can be stale; the retry loop
        // below covers races where the victim drains first.
        let victim = deques
            .iter()
            .enumerate()
            .filter(|(v, _)| *v != w)
            .map(|(v, d)| (d.lock().unwrap().len(), v))
            .max()
            .filter(|(len, _)| *len > 0)
            .map(|(_, v)| v)?;
        if let Some(i) = deques[victim].lock().unwrap().pop_back() {
            return Some(i);
        }
        // Victim drained between the sample and the steal — rescan.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_index_order() {
        for jobs in [1, 2, 3, 8] {
            let out = run_indexed(37, jobs, |i| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..101).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(101, 8, |i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn uneven_work_is_stolen() {
        // Front-loaded delays: worker 0's chunk is slow, so the others
        // must steal for the run to finish promptly. Correctness (not
        // timing) is what's asserted.
        let out = run_indexed(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i + 1
        });
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = run_indexed(3, 16, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn the_caller_is_worker_zero_and_odd_workers_walk_backwards() {
        // Every job meets a partner at a two-party barrier, so the two
        // workers run in lockstep rounds and neither ever steals.
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let started = AtomicUsize::new(0);
        let ran = run_indexed(4, 2, |_| {
            let round = started.fetch_add(1, Ordering::SeqCst) / 2;
            barrier.wait();
            (std::thread::current().id(), round)
        });
        let (threads, rounds): (Vec<_>, Vec<_>) = ran.into_iter().unzip();
        assert_eq!(
            threads[..2],
            [caller, caller],
            "worker 0's chunk runs on the caller"
        );
        assert_ne!(threads[2], caller);
        assert_eq!(threads[2], threads[3]);
        assert_eq!(
            rounds,
            [0, 1, 1, 0],
            "worker 1 walks its chunk from the end"
        );
    }

    #[test]
    fn empty_grid() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }
}
