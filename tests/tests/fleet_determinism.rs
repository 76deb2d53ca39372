//! The fleet's headline guarantee, as a regression test: dispatching the
//! full 6-protocol conformance matrix at `workers = 1` and `workers = 8`
//! yields **byte-identical** serialized traces per seed and identical
//! merged metrics. Sessions are pure functions of their `SessionSpec`;
//! the worker pool only changes *when* they run, never *what* they
//! compute — this file is what keeps that true as the engine evolves.

use stigmergy_fleet::{run_batch, trace_codec, BatchReport, BatchSpec};
use stigmergy_integration::fingerprint;

/// The full matrix at a budget small enough to keep every whole trace in
/// memory (the byte-level comparison) but large enough for every fault
/// kind to fire and several frames to decode.
fn capped_spec(seeds: Vec<u64>) -> BatchSpec {
    BatchSpec {
        budget_cap: Some(2_000),
        keep_traces: true,
        ..BatchSpec::conformance_matrix(seeds)
    }
}

#[test]
fn workers_1_and_8_produce_byte_identical_traces_per_seed() {
    let spec = capped_spec(vec![0, 1, 2, 3]);
    let serial = run_batch(&spec, 1);
    let parallel = run_batch(&spec, 8);

    assert_eq!(serial.runs.len(), 6 * 3 * 3 * 4, "matrix shape");
    assert_eq!(serial.runs.len(), parallel.runs.len());
    for (a, b) in serial.runs.iter().zip(&parallel.runs) {
        let cell = format!("{}/{}/{}/seed={}", a.protocol, a.schedule, a.plan, a.seed);
        // Same session lands in the same output slot regardless of which
        // worker ran it.
        assert_eq!(
            (a.protocol, a.schedule, a.plan, a.seed),
            (b.protocol, b.schedule, b.plan, b.seed),
            "report order diverged at {cell}"
        );
        let ta = a.trace.as_deref().expect("keep_traces retains bytes");
        let tb = b.trace.as_deref().expect("keep_traces retains bytes");
        assert!(ta == tb, "trace bytes diverged for {cell}");
        assert_eq!(
            a.trace_hash,
            trace_codec::fingerprint(ta),
            "hash is of the bytes"
        );
        assert_eq!(a, b, "full report diverged for {cell}");
    }
    assert_eq!(serial.metrics, parallel.metrics, "merged metrics diverged");
}

#[test]
fn determinism_matrix_workers_1_2_4_8() {
    // The pool's acceptance gate: every worker count in
    // the matrix produces the same trace fingerprint and byte-identical
    // merged-metrics JSON — including the crash cells, whose crash-stop
    // plans the engine applies once the session arms them.
    let spec = capped_spec(vec![0, 1]);
    let reference = run_batch(&spec, 1);
    let reference_json = reference.metrics.to_json();
    let crash_hashes = |report: &BatchReport| -> Vec<u64> {
        report
            .runs
            .iter()
            .filter(|r| r.plan == "crash")
            .map(|r| r.trace_hash)
            .collect()
    };
    assert!(
        !crash_hashes(&reference).is_empty(),
        "matrix must exercise crash plans"
    );
    for workers in [2, 4, 8] {
        let other = run_batch(&spec, workers);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&other),
            "trace fingerprint diverged at workers={workers}"
        );
        assert_eq!(
            reference_json,
            other.metrics.to_json(),
            "merged-metrics JSON diverged at workers={workers}"
        );
        assert_eq!(
            crash_hashes(&reference),
            crash_hashes(&other),
            "crash cells diverged at workers={workers}"
        );
    }
}

#[test]
fn repeated_runs_are_reproducible_at_any_worker_count() {
    // Not just 1-vs-N: every worker count replays the same batch.
    let spec = capped_spec(vec![7]);
    let reference = run_batch(&spec, 1);
    for workers in [2, 3, 5] {
        let other = run_batch(&spec, workers);
        assert_eq!(reference.runs, other.runs, "workers={workers}");
        assert_eq!(reference.metrics, other.metrics, "workers={workers}");
    }
}

#[test]
fn hash_only_mode_agrees_with_kept_traces() {
    // The full-budget conformance path stores only hashes; they must be
    // hashes of exactly the bytes the capped path retains.
    let kept = run_batch(&capped_spec(vec![5]), 2);
    let hashed = run_batch(
        &BatchSpec {
            keep_traces: false,
            ..capped_spec(vec![5])
        },
        2,
    );
    for (a, b) in kept.runs.iter().zip(&hashed.runs) {
        assert!(b.trace.is_none(), "hash-only mode must not retain bytes");
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.trace_len, b.trace_len);
    }
}

#[test]
fn distinct_seeds_actually_perturb_the_runs() {
    // The guarantee would be vacuous if every seed produced the same
    // trace: check the matrix content varies across seeds.
    let report: BatchReport = run_batch(&capped_spec(vec![0, 1]), 2);
    let per_seed = |seed: u64| -> Vec<u64> {
        report
            .runs
            .iter()
            .filter(|r| r.seed == seed)
            .map(|r| r.trace_hash)
            .collect()
    };
    assert_ne!(per_seed(0), per_seed(1), "seeds must differentiate runs");
}
