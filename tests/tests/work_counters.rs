//! Exact work counters: the instants, activations, moves and deliveries
//! that fixed workloads cost, pinned as numbers. Instants and moves per
//! delivered bit are the paper's own cost measure, so a changed counter
//! means the engine did different work. A change that means to do so
//! updates the pin here, in the same commit, where review sees it.
//!
//! Batch rows run at `workers = 2`: the pool must never change the work.
//! Each row checks `delivered` first, as a one-sided ratchet, so a lost
//! session fails by name (`delivered fell 633 -> 631`) instead of as
//! one drifted counter among many. Then every counter must match
//! exactly, and one failure lists every counter that drifted. `fold` is
//! FNV-1a over each run's `(trace_hash, trace_len)` in report order, so
//! one changed trace byte anywhere in a batch shows up too.
//!
//! The two full-size rows take seconds in release and minutes in debug,
//! so they are `#[ignore]`d; CI's `work-counters` job runs them in
//! release with `-- --include-ignored`. Wall-clock cost is measured by
//! `crates/benchmark` (see `BENCHMARK.json`), not here.

use stigmergy_fleet::{
    run_batch, run_session, BatchSpec, ProtocolKind, SessionSpec, CONFORMANCE, DEFAULT_PAYLOAD,
};
use stigmergy_integration::fingerprint;
use stigmergy_scheduler::{CodingSpec, FaultSpec, ScheduleSpec};

type Counters = Vec<(&'static str, u64)>;

fn counter(counters: &[(&str, u64)], key: &str) -> Option<u64> {
    counters.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

fn keys<'a>(counters: &[(&'a str, u64)]) -> Vec<&'a str> {
    counters.iter().map(|&(k, _)| k).collect()
}

/// Asserts `actual` equals the `pinned` counters, `delivered` first.
fn assert_pinned(row: &str, actual: &[(&str, u64)], pinned: &[(&str, u64)]) {
    if let (Some(got), Some(want)) = (counter(actual, "delivered"), counter(pinned, "delivered")) {
        assert!(got >= want, "{row}: delivered fell {want} -> {got}");
    }
    assert_eq!(keys(actual), keys(pinned), "{row}: counter set changed");
    let drift: Vec<String> = actual
        .iter()
        .zip(pinned)
        .filter(|(a, p)| a.1 != p.1)
        .map(|(&(key, got), &(_, want))| format!("{key} = {got}, pinned {want}"))
        .collect();
    assert!(
        drift.is_empty(),
        "{row}: work counters drifted\n  {}",
        drift.join("\n  ")
    );
}

/// Runs `spec` at `workers = 2` and reads its counters in pin order.
fn batch_counters(spec: &BatchSpec) -> Counters {
    let report = run_batch(spec, 2);
    let m = &report.metrics;
    let mut counters = vec![
        ("sessions", m.sessions),
        ("delivered", m.delivered),
        ("timed_out", m.timed_out),
        ("steps", m.steps),
        ("activations", m.activations),
        ("faults", m.faults),
        ("retransmissions", m.retransmissions),
        ("corrupt", m.corrupt),
        ("delivered_bits", m.delivered_bits),
        ("fec_corrected", m.fec_corrected),
        ("fec_rejected", m.fec_rejected),
    ];
    if !spec.algorithms.is_empty() {
        counters.extend([
            ("algo_rounds", m.algo_rounds),
            ("algo_bits", m.algo_bits),
            ("algo_decided", m.algo_decided),
            ("activations_to_decision", m.activations_to_decision.sum),
        ]);
    }
    counters.push(("fold", fingerprint(&report)));
    counters
}

/// The conformance matrix over seeds `0..seeds`, every session capped at
/// 2,000 instants.
fn capped_sweep(seeds: u64) -> BatchSpec {
    BatchSpec {
        budget_cap: Some(2_000),
        ..BatchSpec::conformance_matrix((0..seeds).collect())
    }
}

/// One adversarial session for one protocol: lagging receiver,
/// non-rigid motion, and the sweep's FEC coding, so a change in a single
/// protocol's hot path cannot hide inside a batch aggregate.
fn micro_counters(protocol: ProtocolKind) -> Counters {
    let report = run_session(&SessionSpec {
        protocol,
        algorithm: None,
        schedule: ScheduleSpec::LaggingReceiver { max_gap: 8 },
        plan: FaultSpec::NonRigid {
            delta: 0.35,
            prob: 0.5,
        },
        seed: 0,
        cohort: 3,
        payload: DEFAULT_PAYLOAD.to_vec(),
        budget_cap: None,
        keep_trace: false,
        coding: CodingSpec::Fec {
            levels: 8,
            dwell: 10,
        },
    });
    assert!(
        report.error.is_none(),
        "micro-{}: {:?}",
        protocol.name(),
        report.error
    );
    vec![
        ("steps", report.steps),
        ("activations", report.activations),
        ("moves", report.moves),
        ("faults", report.faults),
        ("delivered", u64::from(report.delivered)),
        ("delivered_bits", report.delivered_bits),
        ("fec_corrected", report.fec_corrected),
        ("fec_rejected", report.fec_rejected),
        ("trace_len", report.trace_len as u64),
        ("trace_hash", report.trace_hash),
    ]
}

#[test]
fn capped_sweep_864() {
    assert_pinned(
        "capped-sweep-864",
        &batch_counters(&capped_sweep(16)),
        &[
            ("sessions", 864),
            ("delivered", 633),
            ("timed_out", 231),
            ("steps", 895_838),
            ("activations", 1_100_131),
            ("faults", 308_547),
            ("retransmissions", 0),
            ("corrupt", 2),
            ("delivered_bits", 15_192),
            ("fec_corrected", 18),
            ("fec_rejected", 58),
            ("fold", 18_356_099_829_590_190_560),
        ],
    );
}

#[test]
fn algo_matrix_16() {
    assert_pinned(
        "algo-matrix-16",
        &batch_counters(&BatchSpec::algorithm_matrix((0..16).collect())),
        &[
            ("sessions", 192),
            ("delivered", 192),
            ("timed_out", 0),
            ("steps", 432_458),
            ("activations", 359_116),
            ("faults", 141_116),
            ("retransmissions", 0),
            ("corrupt", 0),
            ("delivered_bits", 0),
            ("fec_corrected", 0),
            ("fec_rejected", 0),
            ("algo_rounds", 224),
            ("algo_bits", 31_232),
            ("algo_decided", 192),
            ("activations_to_decision", 359_116),
            ("fold", 12_537_759_552_659_345_913),
        ],
    );
}

#[test]
fn micro_per_protocol() {
    let pinned: [(&str, [(&str, u64); 10]); 6] = [
        (
            "sync2",
            [
                ("steps", 289),
                ("activations", 326),
                ("moves", 56),
                ("faults", 158),
                ("delivered", 1),
                ("delivered_bits", 24),
                ("fec_corrected", 1),
                ("fec_rejected", 0),
                ("trace_len", 16_372),
                ("trace_hash", 5_417_700_408_591_335_214),
            ],
        ),
        (
            "async2",
            [
                ("steps", 1_769),
                ("activations", 1_991),
                ("moves", 1_991),
                ("faults", 986),
                ("delivered", 1),
                ("delivered_bits", 24),
                ("fec_corrected", 0),
                ("fec_rejected", 0),
                ("trace_len", 100_360),
                ("trace_hash", 14_482_933_609_544_458_169),
            ],
        ),
        (
            "sync-swarm-routed",
            [
                ("steps", 289),
                ("activations", 615),
                ("moves", 59),
                ("faults", 300),
                ("delivered", 1),
                ("delivered_bits", 24),
                ("fec_corrected", 0),
                ("fec_rejected", 0),
                ("trace_len", 23_994),
                ("trace_hash", 14_879_970_493_339_256_594),
            ],
        ),
        (
            "sync-swarm-lex",
            [
                ("steps", 289),
                ("activations", 615),
                ("moves", 68),
                ("faults", 317),
                ("delivered", 1),
                ("delivered_bits", 24),
                ("fec_corrected", 0),
                ("fec_rejected", 0),
                ("trace_len", 24_351),
                ("trace_hash", 1_217_219_263_725_723_783),
            ],
        ),
        (
            "sync-swarm-sec",
            [
                ("steps", 289),
                ("activations", 615),
                ("moves", 57),
                ("faults", 307),
                ("delivered", 1),
                ("delivered_bits", 24),
                ("fec_corrected", 0),
                ("fec_rejected", 0),
                ("trace_len", 24_141),
                ("trace_hash", 14_947_920_049_635_682_404),
            ],
        ),
        (
            "async-swarm",
            [
                ("steps", 1_321),
                ("activations", 2_808),
                ("moves", 2_808),
                ("faults", 1_421),
                ("delivered", 1),
                ("delivered_bits", 24),
                ("fec_corrected", 0),
                ("fec_rejected", 0),
                ("trace_len", 110_487),
                ("trace_hash", 4_272_648_983_932_034_129),
            ],
        ),
    ];
    assert_eq!(
        pinned.map(|(name, _)| name),
        CONFORMANCE.map(ProtocolKind::name),
        "one pinned row per conformance protocol, in order"
    );
    for (protocol, (name, counters)) in CONFORMANCE.into_iter().zip(pinned) {
        assert_pinned(
            &format!("micro-{name}"),
            &micro_counters(protocol),
            &counters,
        );
    }
}

#[test]
#[ignore = "full budgets: about 10 s in release; CI runs it with --include-ignored"]
fn sweep_864() {
    assert_pinned(
        "sweep-864",
        &batch_counters(&BatchSpec::conformance_matrix((0..16).collect())),
        &[
            ("sessions", 864),
            ("delivered", 633),
            ("timed_out", 231),
            ("steps", 24_833_838),
            ("activations", 36_150_461),
            ("faults", 5_918_218),
            ("retransmissions", 0),
            ("corrupt", 2),
            ("delivered_bits", 15_192),
            ("fec_corrected", 18),
            ("fec_rejected", 58),
            ("fold", 11_843_327_297_980_758_626),
        ],
    );
}

#[test]
#[ignore = "100,008 sessions: about 40 s in release; CI runs it with --include-ignored"]
fn sweep_wide_100008() {
    assert_pinned(
        "sweep-wide-100008",
        &batch_counters(&capped_sweep(1_852)),
        &[
            ("sessions", 100_008),
            ("delivered", 73_072),
            ("timed_out", 26_936),
            ("steps", 103_951_255),
            ("activations", 127_543_548),
            ("faults", 35_786_839),
            ("retransmissions", 0),
            ("corrupt", 165),
            ("delivered_bits", 1_753_728),
            ("fec_corrected", 1_858),
            ("fec_rejected", 6_671),
            ("fold", 1_315_537_922_933_930_433),
        ],
    );
}

#[test]
#[should_panic(expected = "capped-sweep-864: delivered fell 633 -> 631")]
fn a_delivery_loss_is_named() {
    assert_pinned(
        "capped-sweep-864",
        &[("delivered", 631), ("steps", 895_838)],
        &[("delivered", 633), ("steps", 895_838)],
    );
}

#[test]
#[should_panic(expected = "steps = 895839, pinned 895838")]
fn any_counter_off_by_one_fails() {
    assert_pinned(
        "capped-sweep-864",
        &[("delivered", 633), ("steps", 895_839)],
        &[("delivered", 633), ("steps", 895_838)],
    );
}
