//! The fleet's worker pool: scoped threads over one shared cursor.
//!
//! The offline-vendored constraint rules out rayon, so the pool is built
//! from the standard library alone. Jobs are independent, so scheduling
//! is one `AtomicUsize` cursor over the job indices: each worker claims
//! the next index with `fetch_add(1)`, runs it, and exits once the index
//! it drew reaches `n`. Every `fetch_add` returns a distinct value, so
//! each index is claimed by exactly one worker — no lost jobs, no
//! duplicates, whatever the interleaving — and a worker that drew a long
//! job simply claims nothing more while the others drain the rest, so
//! an expensive job never serializes the batch behind it.
//!
//! Results flow back through a bounded `mpsc::sync_channel` tagged with
//! their job index, and [`run_indexed`] reassembles them in submission
//! order, so the output `Vec` is identical whatever interleaving the
//! workers ran under — the mechanical half of the fleet's determinism
//! guarantee (the other half is that each job is a pure function of its
//! input). The stress suite in `tests/tests/fleet_stress.rs` hammers
//! these claims with pathological work distributions.
//!
//! The claim path takes no locks. Result *collection* uses `mpsc` (a
//! hand-off, not a scheduler), and `stiglint`'s `lock-free` pass pins
//! the distinction: this file must never reintroduce a `Mutex`,
//! `RwLock`, or `Condvar` (a central locked queue serialized every job
//! hand-off and topped out *below* 1× on the 864-session sweep).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// A one-way cooperative cancellation flag.
///
/// The gateway arms one token per job; workers check it between sessions,
/// so cancellation never interrupts a session mid-flight — completed work
/// stays deterministic, pending work is simply not started. Tokens are
/// cheap, `Sync`, and usually shared via `Arc`.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicBool,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Runs `f` over `items` on `workers` threads, returning the results in
/// input order.
///
/// Work distribution is one shared cursor: each worker claims the next
/// unclaimed index when it finishes its last, so an expensive item
/// never serializes the batch behind it. Results return through a
/// bounded channel (capacity `2 × workers`, enough that no worker
/// blocks on a full channel while the collector is slotting results)
/// and land in their submission slot, so the caller observes pure
/// data-parallel semantics: `run_indexed(items, w, f)` equals
/// `items.iter().map(f)` for every `w ≥ 1`.
///
/// # Panics
///
/// Propagates a panic from any worker (after all threads are joined), and
/// panics if `workers == 0`.
pub fn run_indexed<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_indexed_observed(items, workers, f, |_, _| {}, &CancelToken::new())
        .expect("un-cancelled run completes every job")
}

/// How far an interrupted run got before it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted {
    /// Jobs that finished before the cancellation took effect.
    pub completed: usize,
    /// Jobs submitted in total.
    pub total: usize,
}

/// [`run_indexed`] with completion observation and cooperative
/// cancellation — the primitive under the gateway's streaming progress
/// and job cancellation.
///
/// `on_done(completed, total)` fires on the collector (calling) thread
/// after each job lands, with a monotonically increasing `completed`;
/// an un-cancelled run fires it exactly `items.len()` times, ending at
/// `(total, total)`. Workers check `cancel` between jobs: a job already
/// running completes normally (its result is kept and observed), jobs
/// not yet started are abandoned. The run returns `Ok` only if *every*
/// job completed — a cancellation that lands after the last job is not
/// an interruption.
///
/// # Errors
///
/// Returns [`Interrupted`] when cancellation stopped any job from
/// running.
///
/// # Panics
///
/// Propagates a panic from any worker (after all threads are joined), and
/// panics if `workers == 0`.
pub fn run_indexed_observed<T, R, F, P>(
    items: Vec<T>,
    workers: usize,
    f: F,
    mut on_done: P,
    cancel: &CancelToken,
) -> Result<Vec<R>, Interrupted>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    P: FnMut(usize, usize),
{
    assert!(workers > 0, "need at least one worker");
    let n = items.len();
    let next = AtomicUsize::new(0);

    let (tx, rx) = mpsc::sync_channel::<(usize, R)>(workers * 2);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut completed = 0usize;
    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let items = &items;
            let f = &f;
            scope.spawn(move || {
                while !cancel.is_cancelled() {
                    // Relaxed is enough: the cursor only has to hand out
                    // distinct indices, and the items were shared before
                    // the spawn.
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        return;
                    }
                    // A send can only fail if the collector is gone, which
                    // means the scope is already unwinding; stop quietly.
                    if tx.send((index, f(&items[index]))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx); // collector's rx ends when the last worker clone drops
        for (index, result) in rx {
            slots[index] = Some(result);
            completed += 1;
            on_done(completed, n);
        }
    });
    if completed == n {
        Ok(slots
            .into_iter()
            .map(|r| r.expect("worker delivered every job"))
            .collect())
    } else {
        Err(Interrupted {
            completed,
            total: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_is_claimed_exactly_once_under_contention() {
        // 4 workers racing on the cursor: every job must run exactly
        // once, and its result must land in its own slot.
        let n = 10_000;
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = run_indexed((0..n).collect(), 4, |&i: &usize| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_indexed_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 8] {
            let out = run_indexed(items.clone(), workers, |x| x * x);
            let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn run_indexed_uses_multiple_threads() {
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = run_indexed((0..64).collect::<Vec<_>>(), 4, |x: &usize| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            thread::yield_now();
            concurrent.fetch_sub(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(out.len(), 64);
        // Not asserted > 1: on a single-core host the scheduler may never
        // overlap the workers. The pool ran and delivered either way.
        assert!(peak.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn run_indexed_handles_empty_input() {
        let out: Vec<u32> = run_indexed(Vec::<u32>::new(), 3, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn run_indexed_more_workers_than_jobs() {
        let out = run_indexed(vec![7], 8, |x: &i32| -x);
        assert_eq!(out, vec![-7]);
    }

    #[test]
    fn skewed_distribution_completes_in_submission_order() {
        // All the cost lives in the first 32 indices, so whichever
        // workers draw them run long while the rest drain the cheap
        // tail. Correctness (the assertable half) is: complete,
        // ordered, exact results.
        let n = 256usize;
        let items: Vec<u64> = (0..n as u64).collect();
        let out = run_indexed(items, 8, |&x| {
            let spins = if x < 32 { 20_000 } else { 1 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7);
            }
            acc ^ x
        });
        let expect: Vec<u64> = (0..n as u64)
            .map(|x| {
                let spins = if x < 32 { 20_000 } else { 1 };
                let mut acc = x;
                for _ in 0..spins {
                    acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7);
                }
                acc ^ x
            })
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(vec![0, 1, 2], 2, |x: &i32| {
                assert!(*x != 1, "boom");
                *x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = run_indexed(vec![1], 0, |x: &i32| *x);
    }

    #[test]
    fn observer_sees_every_completion_in_order() {
        let mut seen = Vec::new();
        let out = run_indexed_observed(
            (0..10).collect::<Vec<_>>(),
            3,
            |x: &u32| x * 2,
            |done, total| seen.push((done, total)),
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(out, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(seen, (1..=10).map(|d| (d, 10)).collect::<Vec<_>>());
    }

    #[test]
    fn pre_cancelled_run_is_interrupted_immediately() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        let err = run_indexed_observed(vec![1, 2, 3], 2, |x: &i32| *x, |_, _| {}, &token)
            .expect_err("cancelled before start");
        assert_eq!(err.total, 3);
        assert_eq!(err.completed, 0);
    }

    #[test]
    fn mid_run_cancellation_keeps_completed_prefix_work() {
        // One worker, cancel fired by the job itself after 2 completions:
        // the remaining jobs must be abandoned, the finished ones kept.
        let token = CancelToken::new();
        let err = run_indexed_observed(
            (0..100).collect::<Vec<_>>(),
            1,
            |x: &u32| {
                if *x == 1 {
                    token.cancel();
                }
                *x
            },
            |_, _| {},
            &token,
        )
        .expect_err("cancelled mid-run");
        assert_eq!(err.total, 100);
        assert!(err.completed >= 2, "running jobs complete");
        assert!(err.completed < 100, "pending jobs are abandoned");
    }

    #[test]
    fn cancellation_after_last_job_is_not_an_interruption() {
        let token = CancelToken::new();
        let out = run_indexed_observed(
            vec![1, 2],
            1,
            |x: &i32| *x,
            |done, total| {
                if done == total {
                    token.cancel();
                }
            },
            &token,
        );
        assert_eq!(out.unwrap(), vec![1, 2]);
    }
}
