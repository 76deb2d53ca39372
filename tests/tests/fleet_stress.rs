//! Hostile-distribution stress tests for the fleet pool.
//!
//! Workers claim job indices from one shared atomic cursor, so the
//! dangerous schedules are the ones a fair benchmark never produces:
//! all the heavy work at the front of the batch, a single long job
//! pinning one worker while the rest of the pool drains, many workers
//! racing on the cursor, and seeded-random skew in between. Each test
//! asserts the full contract — no deadlock (the test completes), no
//! lost or duplicated session, index-ordered results identical to a
//! serial map — plus panic containment: one poisoned session fails its
//! own `RunReport` without wedging the pool.

use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;

use stigmergy_fleet::{run_batch, run_indexed, BatchSpec, ProtocolKind, DEFAULT_PAYLOAD};
use stigmergy_scheduler::{CodingSpec, FaultSpec, ScheduleSpec};

/// SplitMix64: the seeded PRNG behind the hostile distributions — tiny,
/// deterministic, and independent of `std`'s unstable hasher.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Burns `units` of deterministic CPU work and returns a value that
/// encodes both the input and the work done — a lost or duplicated job
/// can't hide behind a constant result.
fn burn(units: u64) -> u64 {
    let mut acc = units.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    for _ in 0..units {
        acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7);
    }
    acc
}

/// Runs `items` through the pool at `workers` and asserts the result is
/// exactly the serial map, index-ordered.
fn assert_matches_serial(items: &[u64], workers: usize, label: &str) {
    let expected: Vec<u64> = items.iter().map(|&w| burn(w)).collect();
    let got = run_indexed(items.to_vec(), workers, |&w| burn(w));
    assert_eq!(expected, got, "{label}: workers={workers}");
}

#[test]
fn one_long_session_plus_many_trivial_ones() {
    // Index 0 is a single long job; everything else is near-free. The
    // long job pins the worker that claimed it, so the rest of the pool
    // must drain the trivial work and exit without it — and the result
    // must still land in slot 0.
    let mut items = vec![0u64; 512];
    items[0] = 400_000;
    for workers in [1, 2, 4, 8] {
        assert_matches_serial(&items, workers, "one-long");
    }
}

#[test]
fn all_heavy_work_in_one_victims_shard() {
    // Every heavy job sits in the leading quarter of the indices, so
    // the first claims all run long while later claims finish
    // instantly and race back to the cursor: the pool must keep every
    // worker busy until the heavy front drains, then empty the tail.
    let workers = 4;
    let n = 256;
    let mut items = vec![0u64; n];
    for slot in items.iter_mut().take(n / workers) {
        *slot = 6_000;
    }
    assert_matches_serial(&items, workers, "one-victim");
    assert_matches_serial(&items, 8, "one-victim");
}

#[test]
fn seeded_hostile_distributions_preserve_order_and_count() {
    // Pseudo-random skew: most jobs trivial, a seeded minority heavy,
    // across several seeds and worker counts. Each element's result
    // encodes its input, so the equality check proves no session was
    // lost, duplicated, or delivered out of order.
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        let mut rng = SplitMix64(seed);
        let items: Vec<u64> = (0..300)
            .map(|_| {
                let r = rng.next();
                if r.is_multiple_of(16) {
                    2_000 + (r % 8_000)
                } else {
                    r % 8
                }
            })
            .collect();
        for workers in [2, 4, 8] {
            assert_matches_serial(&items, workers, "seeded-skew");
        }
    }
}

#[test]
fn steal_heavy_thieves_claim_every_index_exactly_once() {
    // Eight workers race on the cursor through `run_indexed`, each job
    // counting its own index and then yielding so claims interleave as
    // much as the host allows. Every index must run exactly once and
    // land in its own slot.
    let n = 10_000usize;
    let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let out = run_indexed((0..n).collect(), 8, |&index: &usize| {
        counts[index].fetch_add(1, Ordering::Relaxed);
        thread::yield_now();
        index
    });
    assert_eq!(out, (0..n).collect::<Vec<_>>(), "results in index order");
    for (index, count) in counts.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "index {index} must run exactly once"
        );
    }
}

#[test]
fn poisoned_session_fails_its_report_without_wedging_the_pool() {
    // cohort = 0 makes every swarm constructor panic while the pair
    // protocols run normally. The batch must complete, the poisoned
    // sessions must carry their own errors, and the healthy sessions
    // must be byte-identical to a pool that never saw a panic.
    let spec = BatchSpec {
        protocols: vec![ProtocolKind::Sync2, ProtocolKind::SyncSwarmSec],
        algorithms: vec![],
        schedules: vec![ScheduleSpec::Synchronous],
        plans: vec![FaultSpec::Benign],
        seeds: vec![0, 1, 2, 3],
        cohort: 0,
        payload: DEFAULT_PAYLOAD.to_vec(),
        budget_cap: Some(2_000),
        keep_traces: false,
        coding: CodingSpec::Binary,
    };
    let reference = run_batch(&spec, 1);
    assert_eq!(reference.runs.len(), 8);
    for run in &reference.runs {
        if run.protocol == "sync-swarm-sec" {
            let error = run.error.as_deref().expect("swarm session is poisoned");
            assert!(error.starts_with("session panicked:"), "{error}");
            assert_eq!(run.steps, 0, "poisoned report carries no work");
        } else {
            assert!(run.error.is_none(), "pair session unaffected: {run:?}");
            assert!(run.delivered, "pair session still delivers");
        }
    }
    for workers in [2, 4, 8] {
        let parallel = run_batch(&spec, workers);
        assert_eq!(reference.runs, parallel.runs, "workers={workers}");
        assert_eq!(
            reference.metrics.to_json(),
            parallel.metrics.to_json(),
            "workers={workers}"
        );
    }
}
