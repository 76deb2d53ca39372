//! Property test: every `ScheduleSpec` and `FaultSpec` the factories can
//! express survives the wire codec unchanged — and so does every
//! `BatchSpec` composed from them plus a gateway `Message::Submit`
//! wrapping that. The gateway's determinism guarantee rests on this:
//! what the server decodes must be `==` to what the client held.

use proptest::prelude::*;
use stigmergy_fleet::{BatchSpec, ProtocolKind};
use stigmergy_gateway::{JobRequest, Message};
use stigmergy_scheduler::wire::{Reader, Wire};
use stigmergy_scheduler::{AlgorithmSpec, CodingSpec, FaultSpec, ScheduleSpec};

/// A strategy over every `ScheduleSpec` variant. The shim has no
/// `prop_oneof`, so one tuple of parameters is drawn and a variant
/// index selects which constructor consumes them.
fn schedule_spec() -> impl Strategy<Value = ScheduleSpec> {
    (
        0usize..10,
        any::<u64>(),
        0.01f64..1.0,
        1u64..100,
        0usize..64,
        (1u64..20, 1u64..20),
        prop::collection::vec(prop::collection::vec(0usize..8, 1..4), 1..5),
    )
        .prop_map(
            |(variant, seed, p, max_gap, victim, (burst_len, lull_len), script)| match variant {
                0 => ScheduleSpec::Synchronous,
                1 => ScheduleSpec::RoundRobin,
                2 => ScheduleSpec::FairAsync { seed, p, max_gap },
                3 => ScheduleSpec::SingleActive { seed, max_gap },
                4 => ScheduleSpec::LaggingReceiver { max_gap },
                5 => ScheduleSpec::Lagging { victim, max_gap },
                6 => ScheduleSpec::Bursty {
                    seed,
                    burst_len,
                    lull_len,
                },
                7 => ScheduleSpec::WorstCaseFair { max_gap },
                8 => ScheduleSpec::CrashFiltered {
                    inner: Box::new(ScheduleSpec::WorstCaseFair { max_gap }),
                },
                _ => ScheduleSpec::Scripted { script },
            },
        )
}

/// A strategy over every `AlgorithmSpec` variant.
fn algorithm_spec() -> impl Strategy<Value = AlgorithmSpec> {
    (0usize..3, 0usize..64, any::<u64>()).prop_map(|(variant, initiator, inputs)| match variant {
        0 => AlgorithmSpec::Flood { initiator },
        1 => AlgorithmSpec::Election,
        _ => AlgorithmSpec::Agreement { inputs },
    })
}

/// A strategy over every `CodingSpec` variant.
fn coding_spec() -> impl Strategy<Value = CodingSpec> {
    (0usize..3, 0u32..4, 1u8..60).prop_map(|(variant, log2_levels, dwell)| {
        let levels = 2u8 << log2_levels;
        match variant {
            0 => CodingSpec::Binary,
            1 => CodingSpec::MultiLevel { levels, dwell },
            _ => CodingSpec::Fec { levels, dwell },
        }
    })
}

/// A strategy over every `FaultSpec` variant.
fn fault_spec() -> impl Strategy<Value = FaultSpec> {
    (
        0usize..4,
        0.0f64..1.0,
        0.0f64..1.0,
        0usize..64,
        0u64..10_000,
    )
        .prop_map(|(variant, delta, prob, robot, time)| match variant {
            0 => FaultSpec::Benign,
            1 => FaultSpec::NonRigid { delta, prob },
            2 => FaultSpec::Dropout { prob },
            _ => FaultSpec::Crash {
                robot,
                time,
                delta,
                prob,
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn schedule_specs_round_trip(spec in schedule_spec()) {
        let back = ScheduleSpec::from_wire(&spec.to_wire())
            .expect("own encoding must decode");
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn fault_specs_round_trip(spec in fault_spec()) {
        let back = FaultSpec::from_wire(&spec.to_wire())
            .expect("own encoding must decode");
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn algorithm_specs_round_trip(spec in algorithm_spec()) {
        let back = AlgorithmSpec::from_wire(&spec.to_wire())
            .expect("own encoding must decode");
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn batch_specs_round_trip_through_the_gateway_frame(
        protocols in prop::collection::vec(prop::sample::select(ProtocolKind::ALL.to_vec()), 0..8),
        algorithms in prop::collection::vec(algorithm_spec(), 0..4),
        schedules in prop::collection::vec(schedule_spec(), 1..4),
        plans in prop::collection::vec(fault_spec(), 1..4),
        seeds in prop::collection::vec(any::<u64>(), 1..6),
        cohort in 2usize..16,
        payload in prop::collection::vec(any::<u8>(), 1..32),
        cap in 1u64..100_000,
        with_cap in any::<bool>(),
        workers in 1u64..16,
        deadline_ms in 0u64..100_000,
        coding in coding_spec(),
    ) {
        let spec = BatchSpec {
            protocols,
            algorithms,
            schedules,
            plans,
            seeds,
            cohort,
            payload,
            budget_cap: with_cap.then_some(cap),
            keep_traces: false,
            coding,
        };
        let request = JobRequest { spec, workers, deadline_ms };
        let msg = Message::Submit { request: request.clone() };
        let decoded = Message::decode(&msg.encode()).expect("own encoding must decode");
        prop_assert_eq!(decoded, msg);
    }
}

/// Every `ScheduleSpec` × `FaultSpec` variant pair, exhaustively: the
/// proptest above samples the parameter space; this pins the full
/// variant cross-product so a new variant without a codec arm cannot
/// slip through.
#[test]
fn every_variant_pair_round_trips() {
    let schedules = [
        ScheduleSpec::Synchronous,
        ScheduleSpec::RoundRobin,
        ScheduleSpec::FairAsync {
            seed: 9,
            p: 0.5,
            max_gap: 6,
        },
        ScheduleSpec::SingleActive {
            seed: 3,
            max_gap: 4,
        },
        ScheduleSpec::LaggingReceiver { max_gap: 8 },
        ScheduleSpec::Lagging {
            victim: 1,
            max_gap: 5,
        },
        ScheduleSpec::Bursty {
            seed: 2,
            burst_len: 3,
            lull_len: 7,
        },
        ScheduleSpec::WorstCaseFair { max_gap: 2 },
        ScheduleSpec::CrashFiltered {
            inner: Box::new(ScheduleSpec::WorstCaseFair { max_gap: 2 }),
        },
        ScheduleSpec::Scripted {
            script: vec![vec![0, 1], vec![2]],
        },
    ];
    let plans = [
        FaultSpec::Benign,
        FaultSpec::NonRigid {
            delta: 0.25,
            prob: 0.75,
        },
        FaultSpec::Dropout { prob: 0.1 },
        FaultSpec::Crash {
            robot: 2,
            time: 40,
            delta: 0.5,
            prob: 0.2,
        },
    ];
    let algorithms = [
        AlgorithmSpec::Flood { initiator: 1 },
        AlgorithmSpec::Election,
        AlgorithmSpec::Agreement { inputs: 0b101 },
    ];
    for schedule in &schedules {
        for plan in &plans {
            for algorithm in &algorithms {
                let mut buf = Vec::new();
                schedule.encode_wire(&mut buf);
                plan.encode_wire(&mut buf);
                algorithm.encode_wire(&mut buf);
                let mut r = Reader::new(&buf);
                assert_eq!(&ScheduleSpec::decode_wire(&mut r).unwrap(), schedule);
                assert_eq!(&FaultSpec::decode_wire(&mut r).unwrap(), plan);
                assert_eq!(&AlgorithmSpec::decode_wire(&mut r).unwrap(), algorithm);
                r.finish().unwrap();
            }
        }
    }
}

/// Version-3 frames pinned byte for byte under `tests/golden/`. The
/// round-trip tests above would still pass if encoder and decoder
/// drifted in lockstep; these pins would not. Regenerate only with a
/// `WIRE_VERSION` bump:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test -p stigmergy-integration --test wire_roundtrip
/// ```
#[test]
fn gateway_frames_match_their_v3_byte_pins() {
    let submit = Message::Submit {
        request: JobRequest {
            spec: BatchSpec {
                budget_cap: Some(2_000),
                coding: CodingSpec::Fec {
                    levels: 8,
                    dwell: 10,
                },
                ..BatchSpec::conformance_matrix(vec![0, 1, 2])
            },
            workers: 4,
            deadline_ms: 30_000,
        },
    };
    let done = Message::Done {
        job: 7,
        fingerprints: vec![0xDEAD_BEEF, 1, u64::MAX],
        metrics_json: "{\"sessions\":3}".into(),
    };
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for (name, msg) in [("submit-v3", submit), ("done-v3", done)] {
        let actual = stigmergy_fleet::to_hex(&msg.encode());
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{name}.hex"));
        if update {
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: cannot read {} ({e})", path.display()));
        assert_eq!(
            actual, expected,
            "{name}: wire bytes drifted from the v3 pin"
        );
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }
}
