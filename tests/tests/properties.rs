//! Property-based integration tests: random valid configurations and
//! payloads through the full stack.

use proptest::prelude::*;
use stigmergy::naming::label_by_sec;
use stigmergy::session::SyncNetwork;
use stigmergy_fleet::{AlgoOutcome, BatchSpec, MetricsSnapshot, RunReport};
use stigmergy_geometry::Point;

/// Random well-separated configurations with no robot at the SEC centre —
/// the configurations the paper's protocols are defined on.
fn configuration(min_n: usize, max_n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0f64..300.0, 0.0f64..300.0), min_n..=max_n)
        .prop_map(|raw| {
            raw.into_iter()
                .map(|(x, y)| Point::new(x, y))
                .collect::<Vec<Point>>()
        })
        .prop_filter("separated", |pts| {
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    if pts[i].distance(pts[j]) < 10.0 {
                        return false;
                    }
                }
            }
            true
        })
        .prop_filter("no robot at SEC centre", |pts| {
            let sec = stigmergy_geometry::smallest_enclosing_circle(pts).unwrap();
            pts.iter().all(|p| p.distance(sec.center) > 1.0)
        })
}

/// Random session reports for the metrics-merge property, over every
/// field the metrics read; the rest is a zero-work report.
fn report() -> impl Strategy<Value = RunReport> {
    let spec = BatchSpec::conformance_matrix(vec![0]).sessions().remove(0);
    let blank = RunReport {
        error: None,
        ..RunReport::poisoned(&spec, "")
    };
    (
        any::<bool>(),
        0u64..5_000,
        0u64..50_000,
        0u64..20_000,
        0u64..100,
        0u64..50,
        (0u64..3, 0u64..64, 0u64..8, 0u64..8),
        (
            any::<bool>(),
            0u64..20,
            0u64..2_000,
            any::<bool>(),
            0u64..20_000,
        ),
    )
        .prop_map(
            move |(
                delivered,
                steps_to_delivery,
                steps,
                activations,
                faults,
                retransmissions,
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
                ..blank.clone()
            },
        )
}

/// SplitMix64 step — drives the Fisher–Yates shuffle deterministically
/// from a proptest-chosen seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fleet_metrics_merge_is_permutation_invariant(
        runs in prop::collection::vec(report(), 1..40),
        perm_seed in any::<u64>(),
        shard_size in 1usize..8,
    ) {
        // Reference: the fold over every report in spec order — what
        // `run_batch` returns at any worker count.
        let reference = MetricsSnapshot::of(&runs);

        // Adversarial order: a seeded Fisher–Yates permutation, folded in
        // chunks of arbitrary size and merged. Merging is addition, so
        // no order or chunking can change the totals.
        let mut permuted = runs.clone();
        let mut state = perm_seed;
        for i in (1..permuted.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            permuted.swap(i, j);
        }
        let parts: Vec<MetricsSnapshot> = permuted.chunks(shard_size).map(MetricsSnapshot::of).collect();
        let merged = MetricsSnapshot::merge_all(&parts);

        prop_assert_eq!(&reference, &merged, "snapshot diverged under permutation");
        prop_assert_eq!(
            reference.to_json(),
            merged.to_json(),
            "JSON must be byte-identical, not just logically equal"
        );
    }

    #[test]
    fn random_configurations_route_with_lex_naming(
        pts in configuration(2, 8),
        payload in prop::collection::vec(any::<u8>(), 0..12),
        seed in any::<u64>(),
    ) {
        let n = pts.len();
        let mut net = SyncNetwork::anonymous_with_direction(pts, seed).unwrap();
        net.send(0, n - 1, &payload).unwrap();
        net.run_until_delivered(200_000).unwrap();
        prop_assert_eq!(net.inbox(n - 1), vec![(0usize, payload)]);
    }

    #[test]
    fn random_configurations_route_with_sec_naming(
        pts in configuration(3, 7),
        payload in prop::collection::vec(any::<u8>(), 1..8),
        seed in any::<u64>(),
    ) {
        let n = pts.len();
        let mut net = SyncNetwork::anonymous(pts, seed).unwrap();
        net.send(1, n - 1, &payload).unwrap();
        net.run_until_delivered(200_000).unwrap();
        prop_assert_eq!(net.inbox(n - 1), vec![(1usize, payload)]);
    }

    #[test]
    fn sec_labelings_are_bijections_everywhere(pts in configuration(2, 12)) {
        for obs in 0..pts.len() {
            let l = label_by_sec(&pts, obs).unwrap();
            let mut seen = vec![false; pts.len()];
            for i in 0..pts.len() {
                let label = l.label_of(i).unwrap();
                prop_assert!(!seen[label], "duplicate label");
                seen[label] = true;
                prop_assert_eq!(l.index_of(label), Some(i));
            }
        }
    }

    #[test]
    fn collision_margin_on_random_configurations(pts in configuration(3, 6)) {
        let n = pts.len();
        let mut net = SyncNetwork::anonymous_with_direction(pts.clone(), 5).unwrap();
        for i in 0..n {
            net.send(i, (i + 1) % n, &[i as u8]).unwrap();
        }
        net.run_until_delivered(200_000).unwrap();
        // Robots never get closer than half their initial min distance
        // (signal excursions reach only half the granular radius).
        let min_initial = (0..n)
            .flat_map(|i| {
                let pts = &pts;
                ((i + 1)..n).map(move |j| pts[i].distance(pts[j]))
            })
            .fold(f64::INFINITY, f64::min);
        prop_assert!(
            net.engine().trace().min_pairwise_distance() >= min_initial / 2.0 - 1e-9
        );
    }
}
