//! Exact work counters: the instants, activations, moves and deliveries
//! that fixed workloads cost, pinned as numbers. Instants and moves per
//! delivered bit are the paper's own cost measure, so a changed counter
//! means the engine did different work. A change that means to do so
//! updates the pin here, in the same commit, where review sees it.
//!
//! Batch rows run at `workers = 2`: the pool must never change the work.
//! Every batch row first requires `corrupt == 0` — a frame is corrected
//! or rejected, never surfaced as a different payload — so `corrupt` is
//! asserted, never pinned. Each row then checks `delivered`, as a
//! one-sided ratchet, so a lost session fails by name (`delivered fell
//! 661 -> 659`) instead of as one drifted counter among many. Then every
//! counter must match exactly, and one failure lists every counter that
//! drifted. `trace_hash` is the trace's XXH64 fingerprint
//! (`stigmergy_fleet::fingerprint`), and `fold` is FNV-1a over each
//! run's `(trace_hash, trace_len)` in report order, so one changed trace
//! byte anywhere in a batch shows up too.
//!
//! `fec_rejected` counts only the frames a receiver gave up on within
//! its session's budget. A paced session's budget ends once its sender
//! has drained, bounded by the sender's own activation gap
//! (`SessionSpec::budget`). A receiver that still holds an abandoned
//! partial frame then rejects it only after `SILENCE_RESET_RUN` (34)
//! silent observations in a row, which come after the outcome is fixed,
//! so that frame is not counted; the session is undelivered either way.
//! That is why `fec_rejected` fell when the cap moved from the cohort's
//! worst gap to the sender's: 58 -> 55 on the two 864-session rows,
//! 6,671 -> 5,691 on `sweep_wide_100008`.
//!
//! `sweep_864` and `algo_matrix_16` also pin their whole metrics JSON
//! byte for byte in `tests/golden/metrics-*.json`: histogram bins and
//! key order, which gateway clients and the benchmark parse, not only
//! the scalar counters. CI's fleet-smoke job diffs the CLI's
//! `batch --seeds 16` output against the same sweep file, and its
//! algo-smoke job `batch --algorithms --seeds 16` against the algorithm
//! file, so the CLI's own spec and writer are held to the pins too.
//! Regenerate them only with an intended metrics change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p stigmergy-integration --test work_counters
//! ```
//!
//! `sweep_864` runs at full budgets, which end where each session's
//! outcome is fixed (`SessionSpec::budget`), so it takes seconds even
//! in debug. `sweep_wide_100008` takes seconds in release and minutes
//! in debug, so it is `#[ignore]`d; CI's `work-counters` job runs it in
//! release with `-- --include-ignored`. Wall-clock cost is measured by
//! `crates/benchmark` (see `BENCHMARK.json`), not here.

use stigmergy_fleet::{
    run_batch, run_session, BatchReport, BatchSpec, ProtocolKind, SessionSpec, CONFORMANCE,
    DEFAULT_PAYLOAD,
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

/// Requires `report`'s metrics JSON to equal `tests/golden/<name>.json`
/// byte for byte (or rewrites the file under `UPDATE_GOLDEN`).
fn assert_metrics_golden(name: &str, report: &BatchReport) {
    let actual = report.metrics.to_json();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.json"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: cannot read {} ({e})", path.display()));
    assert_eq!(
        actual, expected,
        "{name}: metrics JSON drifted from its pin"
    );
}

/// Runs `spec` at `workers = 2`, requires that no session surfaced a
/// corrupt payload, checks the metrics JSON against the `golden` pin if
/// one is named, and reads its counters in pin order.
fn batch_counters(row: &str, spec: &BatchSpec, golden: Option<&str>) -> Counters {
    let report = run_batch(spec, 2);
    if let Some(name) = golden {
        assert_metrics_golden(name, &report);
    }
    let m = &report.metrics;
    assert_eq!(m.corrupt, 0, "{row}: corrupt payloads surfaced");
    let mut counters = vec![
        ("sessions", m.sessions),
        ("delivered", m.delivered),
        ("timed_out", m.timed_out),
        ("steps", m.steps),
        ("activations", m.activations),
        ("faults", m.faults),
        ("retransmissions", m.retransmissions),
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
        &batch_counters("capped-sweep-864", &capped_sweep(16), None),
        &[
            ("sessions", 864),
            ("delivered", 710),
            ("timed_out", 154),
            ("steps", 517_535),
            ("activations", 686_426),
            ("faults", 212_438),
            ("retransmissions", 0),
            ("delivered_bits", 17_040),
            ("fec_corrected", 18),
            // Frames still mid-flight when the sender drained are not
            // counted: see the module doc on `fec_rejected`.
            ("fec_rejected", 55),
            ("fold", 7_512_401_773_286_286_241),
        ],
    );
}

#[test]
fn algo_matrix_16() {
    assert_pinned(
        "algo-matrix-16",
        &batch_counters(
            "algo-matrix-16",
            &BatchSpec::algorithm_matrix((0..16).collect()),
            Some("metrics-algo-matrix-16"),
        ),
        &[
            ("sessions", 192),
            ("delivered", 192),
            ("timed_out", 0),
            ("steps", 313_916),
            ("activations", 262_434),
            ("faults", 104_190),
            ("retransmissions", 0),
            ("delivered_bits", 0),
            ("fec_corrected", 0),
            ("fec_rejected", 0),
            ("algo_rounds", 224),
            ("algo_bits", 31_232),
            ("algo_decided", 192),
            ("activations_to_decision", 262_434),
            ("fold", 12_823_078_500_617_753_537),
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
                ("trace_hash", 16_833_436_613_113_209_167),
            ],
        ),
        (
            "async2",
            [
                ("steps", 1_265),
                ("activations", 1_424),
                ("moves", 1_424),
                ("faults", 717),
                ("delivered", 1),
                ("delivered_bits", 24),
                ("fec_corrected", 0),
                ("fec_rejected", 0),
                ("trace_len", 72_031),
                ("trace_hash", 15_417_206_510_176_648_735),
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
                ("trace_hash", 15_481_814_993_604_823_357),
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
                ("trace_hash", 13_196_490_942_840_366_110),
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
                ("trace_hash", 3_050_623_632_823_934_853),
            ],
        ),
        (
            "async-swarm",
            [
                ("steps", 1_281),
                ("activations", 2_723),
                ("moves", 2_723),
                ("faults", 1_377),
                ("delivered", 1),
                ("delivered_bits", 24),
                ("fec_corrected", 0),
                ("fec_rejected", 0),
                ("trace_len", 107_123),
                ("trace_hash", 4_064_560_389_991_069_980),
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
fn sweep_864() {
    assert_pinned(
        "sweep-864",
        &batch_counters(
            "sweep-864",
            &BatchSpec::conformance_matrix((0..16).collect()),
            Some("metrics-sweep-864"),
        ),
        &[
            ("sessions", 864),
            ("delivered", 710),
            ("timed_out", 154),
            ("steps", 517_535),
            ("activations", 686_426),
            ("faults", 212_438),
            ("retransmissions", 0),
            ("delivered_bits", 17_040),
            ("fec_corrected", 18),
            // Frames still mid-flight when the sender drained are not
            // counted: see the module doc on `fec_rejected`.
            ("fec_rejected", 55),
            ("fold", 7_512_401_773_286_286_241),
        ],
    );
}

#[test]
#[ignore = "100,008 sessions: about 30 s in release; CI runs it with --include-ignored"]
fn sweep_wide_100008() {
    assert_pinned(
        "sweep-wide-100008",
        &batch_counters("sweep-wide-100008", &capped_sweep(1_852), None),
        &[
            ("sessions", 100_008),
            ("delivered", 82_246),
            ("timed_out", 17_762),
            ("steps", 59_890_601),
            ("activations", 79_379_323),
            ("faults", 24_657_856),
            ("retransmissions", 0),
            ("delivered_bits", 1_973_904),
            ("fec_corrected", 1_858),
            // Frames still mid-flight when the sender drained are not
            // counted: see the module doc on `fec_rejected`.
            ("fec_rejected", 5_691),
            ("fold", 3_618_269_057_672_190_645),
        ],
    );
}

#[test]
#[should_panic(expected = "capped-sweep-864: delivered fell 661 -> 659")]
fn a_delivery_loss_is_named() {
    assert_pinned(
        "capped-sweep-864",
        &[("delivered", 659), ("steps", 894_525)],
        &[("delivered", 661), ("steps", 894_525)],
    );
}

#[test]
#[should_panic(expected = "steps = 894526, pinned 894525")]
fn any_counter_off_by_one_fails() {
    assert_pinned(
        "capped-sweep-864",
        &[("delivered", 661), ("steps", 894_526)],
        &[("delivered", 661), ("steps", 894_525)],
    );
}
