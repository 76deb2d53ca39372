//! Property tests for the metrics layer: bucket counts always sum to the
//! sample count, the plain and atomic histograms bucket alike, and the
//! folds of any chunking of a batch's reports merge back into the fold
//! of the whole batch — the algebra the fleet's workers-don't-matter
//! guarantee rests on.

use proptest::prelude::*;
use stigmergy_fleet::{
    AlgoOutcome, BatchSpec, Histogram, HistogramSnapshot, MetricsSnapshot, RunReport,
};

/// Strategy: a small strictly increasing bound vector.
fn bounds_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..500, 1..8).prop_map(|mut raw| {
        raw.sort_unstable();
        raw.dedup();
        raw
    })
}

/// A zero-work report for the strategy's fields to override.
fn blank() -> RunReport {
    let spec = &BatchSpec::conformance_matrix(vec![0]).sessions()[0];
    RunReport {
        error: None,
        ..RunReport::poisoned(spec, "")
    }
}

/// Random session reports over every field the metrics read.
fn report_strategy() -> impl Strategy<Value = RunReport> {
    (
        (
            any::<bool>(),
            0u64..2_000_000,
            0u64..2_000_000,
            0u64..4_000_000,
            0u64..300,
            0u64..10,
        ),
        (0u64..2, 0u64..64, 0u64..8, 0u64..8),
        (
            any::<bool>(),
            0u64..20,
            0u64..5_000,
            any::<bool>(),
            0u64..4_000_000,
        ),
    )
        .prop_map(
            |(
                (delivered, steps_to_delivery, steps, activations, faults, retransmissions),
                (corrupt, delivered_bits, fec_corrected, fec_rejected),
                (algorithm, rounds, bits, decided, activations_to_decision),
            )| RunReport {
                delivered,
                steps_to_delivery: delivered.then_some(steps_to_delivery),
                steps,
                activations,
                faults,
                retransmissions,
                corrupt,
                delivered_bits,
                fec_corrected,
                fec_rejected,
                algo: algorithm.then_some(AlgoOutcome {
                    rounds,
                    bits,
                    activations_to_decision: decided.then_some(activations_to_decision),
                    decision: None,
                    rejected: false,
                }),
                ..blank()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_bins_sum_to_sample_count(
        bounds in bounds_strategy(),
        samples in prop::collection::vec(0u64..1_000, 0..200),
    ) {
        let h = Histogram::new(&bounds);
        let mut plain = HistogramSnapshot::empty(&bounds);
        for &s in &samples {
            h.record(s);
            plain.record(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.bins.iter().sum::<u64>(), samples.len() as u64);
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(snap.bins.len(), snap.bounds.len() + 1);
        // The plain-data histogram the batch fold uses buckets alike.
        prop_assert_eq!(plain, snap);
    }

    #[test]
    fn histogram_bucketing_is_order_independent(
        bounds in bounds_strategy(),
        samples in prop::collection::vec(0u64..1_000, 1..100),
    ) {
        let forward = Histogram::new(&bounds);
        for &s in &samples {
            forward.record(s);
        }
        let backward = Histogram::new(&bounds);
        for &s in samples.iter().rev() {
            backward.record(s);
        }
        prop_assert_eq!(forward.snapshot(), backward.snapshot());
    }

    #[test]
    fn merged_worker_snapshots_equal_serial_snapshot(
        runs in prop::collection::vec(report_strategy(), 0..120),
        chunk in 1usize..40,
    ) {
        // Each chunk is one worker's contiguous claim, folded on its own.
        let parts: Vec<MetricsSnapshot> = runs.chunks(chunk).map(MetricsSnapshot::of).collect();
        prop_assert_eq!(MetricsSnapshot::merge_all(&parts), MetricsSnapshot::of(&runs));
    }

    #[test]
    fn snapshot_invariants_hold_for_any_stream(
        runs in prop::collection::vec(report_strategy(), 0..120),
    ) {
        let s = MetricsSnapshot::of(&runs);
        prop_assert_eq!(s.sessions, runs.len() as u64);
        prop_assert_eq!(s.delivered + s.timed_out, s.sessions);
        // steps-to-delivery is only recorded for delivered sessions.
        prop_assert_eq!(s.steps_to_delivery.count, s.delivered);
        prop_assert_eq!(s.activations_to_decision.count, s.algo_decided);
        // The per-session histograms see every session.
        prop_assert_eq!(s.activations_per_session.count, s.sessions);
        prop_assert_eq!(s.faults_per_session.count, s.sessions);
        prop_assert_eq!(s.retransmissions_per_session.count, s.sessions);
        // Histogram sums equal the scalar totals.
        prop_assert_eq!(s.activations_per_session.sum, s.activations);
        prop_assert_eq!(s.faults_per_session.sum, s.faults);
        prop_assert_eq!(s.retransmissions_per_session.sum, s.retransmissions);
        // Every histogram's bins add up to its count.
        for h in [
            &s.steps_to_delivery,
            &s.activations_per_session,
            &s.faults_per_session,
            &s.retransmissions_per_session,
            &s.activations_to_decision,
        ] {
            prop_assert_eq!(h.bins.iter().sum::<u64>(), h.count);
        }
    }

    #[test]
    fn merge_is_associative_over_three_shards(
        runs in prop::collection::vec(report_strategy(), 3..60),
        cut in 0usize..60,
    ) {
        let third = runs.len() / 3;
        let (first, rest) = runs.split_at(third);
        let (second, last) = rest.split_at(cut % (rest.len() + 1));
        let (a, b, c) = (
            MetricsSnapshot::of(first),
            MetricsSnapshot::of(second),
            MetricsSnapshot::of(last),
        );
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left, MetricsSnapshot::of(&runs));
    }

    #[test]
    fn json_equality_mirrors_snapshot_equality(
        runs in prop::collection::vec(report_strategy(), 0..40),
        others in prop::collection::vec(report_strategy(), 0..4),
    ) {
        let (a, b) = (MetricsSnapshot::of(&runs), MetricsSnapshot::of(&runs));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
        let c = MetricsSnapshot::of(&others);
        prop_assert_eq!(a == c, a.to_json() == c.to_json());
    }
}
