//! Golden-trace tests: one representative session per conformance
//! protocol, its canonical trace encoding pinned as a hex file under
//! `tests/golden/`. Any drift — a changed activation order, a perturbed
//! position bit, a reordered fault event — fails the test with the first
//! differing line.
//!
//! To regenerate after an *intentional* engine or codec change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p stigmergy-integration --test golden_traces
//! ```
//!
//! then review the diff like any other source change.

use std::path::PathBuf;

use stigmergy_fleet::{fingerprint, run_session, to_hex, ProtocolKind, SessionSpec, CONFORMANCE};
use stigmergy_scheduler::{AlgorithmSpec, CodingSpec, FaultSpec, ScheduleSpec};

/// One golden scenario per distributed algorithm, over the §4 swarm
/// channel under the worst-case-fair schedule with non-rigid motion.
/// The budget cap keeps the pinned prefix a few hundred instants — far
/// short of a decision, which is fine: the golden guards *trace* drift
/// (activation order, excursion geometry, fault events); decision
/// values are pinned by the adversarial matrix and `work_counters.rs`.
const GOLDEN_ALGORITHMS: [AlgorithmSpec; 3] = [
    AlgorithmSpec::Flood { initiator: 0 },
    AlgorithmSpec::Election,
    AlgorithmSpec::Agreement { inputs: 0b101 },
];

/// The pinned scenario: bursty activations with non-rigid motion, one
/// seed per protocol, a budget small enough that the hex files stay a
/// few KB but large enough for faults to fire and frames to decode.
///
/// Sync protocols run the conformance matrix's coding (8-level paced
/// signalling with FEC); async and hardened sessions ignore the coding
/// field, so their pinned traces are untouched by it. The separate
/// `*-binary` scenarios pin the legacy uncoded sync paths — the
/// `sync2-binary` hex file is the pre-coding `sync2.hex` byte for byte,
/// proving the coding layer never leaks into `CodingSpec::Binary` runs.
fn golden_spec(protocol: ProtocolKind) -> SessionSpec {
    SessionSpec {
        protocol,
        algorithm: None,
        schedule: ScheduleSpec::Bursty {
            seed: 0x0AD5_CEDD,
            burst_len: 3,
            lull_len: 5,
        },
        plan: FaultSpec::NonRigid {
            delta: 0.35,
            prob: 0.5,
        },
        seed: 1,
        cohort: 3,
        payload: b"adv".to_vec(),
        budget_cap: Some(256),
        keep_trace: true,
        coding: CodingSpec::Fec {
            levels: 8,
            dwell: 10,
        },
    }
}

fn golden_algo_spec(algorithm: AlgorithmSpec) -> SessionSpec {
    SessionSpec {
        protocol: ProtocolKind::AsyncSwarm,
        algorithm: Some(algorithm),
        schedule: ScheduleSpec::WorstCaseFair { max_gap: 6 },
        plan: FaultSpec::NonRigid {
            delta: 0.35,
            prob: 0.5,
        },
        seed: 1,
        cohort: 3,
        payload: b"adv".to_vec(),
        budget_cap: Some(256),
        keep_trace: true,
        coding: CodingSpec::Binary,
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.hex"))
}

fn trace_of(spec: &SessionSpec, name: &str) -> Vec<u8> {
    let report = run_session(spec);
    assert!(
        report.error.is_none(),
        "{name}: golden run failed: {:?}",
        report.error
    );
    report.trace.expect("keep_trace retains bytes")
}

/// Every pinned scenario as `(file stem, session spec)`.
fn golden_scenarios() -> Vec<(String, SessionSpec)> {
    let mut out: Vec<(String, SessionSpec)> = CONFORMANCE
        .iter()
        .map(|&p| (p.name().to_string(), golden_spec(p)))
        .collect();
    // The legacy uncoded sync protocols: `sync2-binary` is byte-pinned
    // to the pre-coding `sync2.hex` content.
    out.extend(
        [
            ProtocolKind::Sync2,
            ProtocolKind::SyncSwarmRouted,
            ProtocolKind::SyncSwarmLex,
            ProtocolKind::SyncSwarmSec,
        ]
        .map(|p| {
            let spec = SessionSpec {
                coding: CodingSpec::Binary,
                ..golden_spec(p)
            };
            (format!("{}-binary", p.name()), spec)
        }),
    );
    out.push(("hardened".to_string(), golden_spec(ProtocolKind::Hardened)));
    out.extend(
        GOLDEN_ALGORITHMS
            .iter()
            .map(|&a| (format!("algo-{}", a.name()), golden_algo_spec(a))),
    );
    out
}

/// Every pinned scenario as `(file stem, trace bytes)`.
fn all_golden() -> Vec<(String, Vec<u8>)> {
    golden_scenarios()
        .into_iter()
        .map(|(name, spec)| {
            let bytes = trace_of(&spec, &name);
            (name, bytes)
        })
        .collect()
}

#[test]
fn golden_traces_have_not_drifted() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut drifted = Vec::new();
    for (name, bytes) in all_golden() {
        let actual = to_hex(&bytes);
        let path = golden_path(&name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: cannot read golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        if actual != expected {
            let line = actual
                .lines()
                .zip(expected.lines())
                .position(|(a, b)| a != b)
                .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
            drifted.push(format!("{name} (first diff: {line})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "golden traces drifted: {}. If intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff.",
        drifted.join(", ")
    );
}

#[test]
fn reported_hash_is_the_fingerprint_of_the_golden_bytes() {
    // `trace_hash` is all a session keeps of its trace unless asked for
    // the bytes, so it must be the fingerprint of exactly the pinned
    // bytes: the streamed encoder's and the hardened session's alike.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // the drift test is rewriting the files
    }
    for (name, spec) in golden_scenarios() {
        let hex: Vec<u8> = std::fs::read_to_string(golden_path(&name))
            .unwrap_or_else(|e| panic!("{name}: cannot read golden file ({e})"))
            .bytes()
            .filter(u8::is_ascii_hexdigit)
            .collect();
        let golden: Vec<u8> = hex
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect();
        let report = run_session(&SessionSpec {
            keep_trace: false,
            ..spec
        });
        assert_eq!(report.trace_len, golden.len(), "{name}: trace length");
        assert_eq!(
            report.trace_hash,
            fingerprint(&golden),
            "{name}: reported hash is not the fingerprint of the golden bytes"
        );
    }
}

#[test]
fn golden_runs_are_reproducible_in_process() {
    // The drift test is only meaningful if the pinned scenario replays
    // exactly; a flaky golden run would blame the codec for engine
    // nondeterminism.
    for (name, spec) in golden_scenarios() {
        let a = trace_of(&spec, &name);
        let b = trace_of(&spec, &name);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: golden scenario not reproducible"
        );
        assert_eq!(a, b);
    }
}

#[test]
fn golden_scenarios_differ_across_protocols() {
    // Six distinct protocols, the four uncoded sync variants, the
    // hardened session and three algorithms must pin fourteen distinct
    // traces — identical files would mean the spec ignores its
    // protocol, coding, or algorithm field.
    let golden = all_golden();
    let expected = golden.len();
    let mut hashes: Vec<u64> = golden.into_iter().map(|(_, b)| fingerprint(&b)).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), expected);
}
