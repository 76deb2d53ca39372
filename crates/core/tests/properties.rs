//! Property-based tests for the protocol crate: payload roundtrips
//! through each codec/protocol family and invariants of the
//! acknowledgement bookkeeping.

use proptest::prelude::*;
use stigmergy::ack::ChangeTracker;
use stigmergy::kslice::KSliceSync;
use stigmergy::sync2::Sync2;
use stigmergy_coding::alphabet::LevelAlphabet;
use stigmergy_geometry::Point;
use stigmergy_robots::{Capabilities, Engine};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sync2_roundtrips_any_payload(
        payload in prop::collection::vec(any::<u8>(), 0..24),
        seed in any::<u64>(),
        separation in 4.0f64..200.0,
    ) {
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(separation, 0.0)])
            .protocols([Sync2::new(), Sync2::new()])
            .frame_seed(seed)
            .build()
            .unwrap();
        e.protocol_mut(0).send(&payload);
        let out = e
            .run_until(2_000, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        prop_assert!(out.satisfied);
        prop_assert_eq!(&e.protocol(1).inbox()[0], &payload);
    }

    #[test]
    fn sync2_coded_roundtrips_any_payload_any_alphabet(
        payload in prop::collection::vec(any::<u8>(), 1..24),
        levels in 1usize..64,
        seed in any::<u64>(),
    ) {
        let alphabet = LevelAlphabet::new(levels).unwrap();
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(10.0, 0.0)])
            .protocols([Sync2::with_alphabet(alphabet), Sync2::with_alphabet(alphabet)])
            .frame_seed(seed)
            .build()
            .unwrap();
        e.protocol_mut(0).send(&payload);
        let out = e
            .run_until(2_000, |e| !e.protocol(1).inbox().is_empty())
            .unwrap();
        prop_assert!(out.satisfied, "levels={levels}");
        prop_assert_eq!(&e.protocol(1).inbox()[0], &payload);
    }

    #[test]
    fn kslice_roundtrips_across_radices(
        payload in prop::collection::vec(any::<u8>(), 1..8),
        k in 2usize..12,
        target_sel in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let n = 7usize;
        let target = 1 + target_sel % (n - 1);
        let positions: Vec<Point> = (0..n)
            .map(|i| {
                let theta = std::f64::consts::TAU * (i as f64) / (n as f64);
                Point::new(30.0 * theta.cos() + i as f64 * 0.05, 30.0 * theta.sin())
            })
            .collect();
        let mut e = Engine::builder()
            .positions(positions)
            .protocols((0..n).map(|_| KSliceSync::new(k)))
            .capabilities(Capabilities::anonymous_with_direction())
            .frame_seed(seed)
            .build()
            .unwrap();
        e.step().unwrap();
        let label = stigmergy::label_by_lex(e.trace().initial())
            .unwrap()
            .label_of(target)
            .unwrap();
        e.protocol_mut(0).send_label(label, &payload);
        let payload_check = payload.clone();
        let out = e
            .run_until(3_000, |e| {
                e.protocol(target)
                    .inbox()
                    .iter()
                    .any(|m| m.payload == payload_check)
            })
            .unwrap();
        prop_assert!(out.satisfied, "k={k} target={target}");
    }

    #[test]
    fn change_tracker_counts_are_exact(
        moves in prop::collection::vec(any::<bool>(), 0..60),
    ) {
        // Feed a synthetic observation stream: `true` = the peer moved
        // before this observation.
        let mut t = ChangeTracker::new(1);
        let mut pos = Point::new(0.0, 0.0);
        t.observe(0, pos);
        let mut expected = 0u32;
        for moved in &moves {
            if *moved {
                pos = Point::new(pos.x + 1.0, pos.y);
                expected += 1;
            }
            t.observe(0, pos);
        }
        prop_assert_eq!(t.count(0), expected);
        // Reset zeroes counts but keeps continuity.
        t.reset();
        prop_assert_eq!(t.count(0), 0);
        prop_assert!(!t.observe(0, pos));
        pos = Point::new(pos.x + 1.0, pos.y);
        prop_assert!(t.observe(0, pos));
    }
}
