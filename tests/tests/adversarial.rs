//! Adversarial and degenerate-input tests: scripted worst-case schedules,
//! configurations the paper excludes, and resource-bound behaviour.

use stigmergy::session::{AsyncNetwork, SyncNetwork};
use stigmergy::CoreError;
use stigmergy_geometry::Point;
use stigmergy_integration::ring;
use stigmergy_scheduler::Scripted;

#[test]
fn async_survives_starvation_bursts() {
    // Robot 2 (the receiver) wakes once every 12 instants; the others
    // churn. Delivery must still happen (fairness is all that's needed).
    let script: Vec<Vec<usize>> = (0..12)
        .map(|k| if k == 11 { vec![2] } else { vec![0, 1] })
        .collect();
    let mut net =
        AsyncNetwork::anonymous_with_schedule(ring(3, 20.0), 0xC01, Scripted::new(script)).unwrap();
    net.send(0, 2, b"burst-proof").unwrap();
    net.run_until_delivered(2_000_000).unwrap();
    assert_eq!(net.inbox(2), vec![(0, b"burst-proof".to_vec())]);
}

#[test]
fn async_survives_alternating_halves() {
    // The swarm is split into two halves that are never awake together
    // (except t0) — observations across the halves are maximally stale.
    let script: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3]];
    let mut net =
        AsyncNetwork::anonymous_with_schedule(ring(4, 25.0), 0xC02, Scripted::new(script)).unwrap();
    net.send(0, 3, b"cross-half").unwrap();
    net.run_until_delivered(2_000_000).unwrap();
    assert_eq!(net.inbox(3), vec![(0, b"cross-half".to_vec())]);
}

#[test]
fn coincident_robots_rejected_at_build() {
    let positions = vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0)];
    assert!(matches!(
        SyncNetwork::anonymous_with_direction(positions, 1),
        Err(CoreError::Model(_))
    ));
}

#[test]
fn robot_at_sec_center_rejected_for_sec_naming_only() {
    let positions = vec![
        Point::new(0.0, 10.0),
        Point::new(0.0, -10.0),
        Point::new(0.0, 0.0), // dead centre of the SEC
    ];
    // BySec: the horizon of robot 2 is undefined → send fails eagerly.
    let mut sec = SyncNetwork::anonymous(positions.clone(), 2).unwrap();
    assert!(matches!(sec.send(0, 1, b"x"), Err(CoreError::Naming(_))));
    // ByLex tolerates the same configuration.
    let mut lex = SyncNetwork::anonymous_with_direction(positions, 2).unwrap();
    lex.send(0, 1, b"x").unwrap();
    lex.run_until_delivered(10_000).unwrap();
    assert_eq!(lex.inbox(1), vec![(0, b"x".to_vec())]);
}

#[test]
fn collinear_configurations_work() {
    // All robots on one line: Voronoi cells are slabs, SEC is pinned by
    // the extremes — everything still routes.
    let positions: Vec<Point> = (0..5)
        .map(|i| Point::new(f64::from(i) * 10.0, 0.0))
        .collect();
    let mut net = SyncNetwork::anonymous_with_direction(positions, 0xC03).unwrap();
    net.send(0, 4, b"end to end").unwrap();
    net.run_until_delivered(20_000).unwrap();
    assert_eq!(net.inbox(4), vec![(0, b"end to end".to_vec())]);
}

#[test]
fn very_close_and_very_far_robots() {
    // Granular radii differing by orders of magnitude.
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(0.5, 0.0),   // tiny granulars here
        Point::new(500.0, 0.0), // huge granular there
    ];
    let mut net = SyncNetwork::anonymous_with_direction(positions, 0xC04).unwrap();
    net.send(0, 2, b"far").unwrap();
    net.send(2, 1, b"near").unwrap();
    net.run_until_delivered(20_000).unwrap();
    assert_eq!(net.inbox(2), vec![(0, b"far".to_vec())]);
    assert_eq!(net.inbox(1), vec![(2, b"near".to_vec())]);
}

#[test]
fn timeout_is_clean_and_resumable() {
    let mut net = SyncNetwork::anonymous_with_direction(ring(3, 20.0), 0xC05).unwrap();
    net.send(0, 1, b"slow boat").unwrap();
    // Far too few steps.
    assert!(matches!(
        net.run_until_delivered(3),
        Err(CoreError::Timeout { steps: 3 })
    ));
    // …but the run can simply continue.
    net.run_until_delivered(20_000).unwrap();
    assert_eq!(net.inbox(1), vec![(0, b"slow boat".to_vec())]);
}

#[test]
fn tiny_sigma_still_delivers_sync() {
    // A motion cap far below the natural step size: the engine clamps
    // every move; the synchronous protocol's excursions shrink but decode
    // fine because magnitude does not carry information in bit coding.
    use stigmergy::sync_swarm::SyncSwarm;
    use stigmergy_robots::{Capabilities, Engine};
    let positions = ring(3, 20.0);
    let mut e = Engine::builder()
        .positions(positions)
        .protocols((0..3).map(|_| SyncSwarm::anonymous_with_direction()))
        .capabilities(Capabilities::anonymous_with_direction())
        .sigma(0.8)
        .build()
        .unwrap();
    e.step().unwrap();
    let label = stigmergy::label_by_lex(e.trace().initial())
        .unwrap()
        .label_of(2)
        .unwrap();
    e.protocol_mut(0).send_label(label, b"capped");
    let out = e
        .run_until(20_000, |e| {
            e.protocol(2).inbox().iter().any(|m| m.payload == b"capped")
        })
        .unwrap();
    assert!(out.satisfied);
}

#[test]
fn self_send_and_bad_indices_rejected() {
    let mut net = SyncNetwork::anonymous_with_direction(ring(3, 20.0), 0xC06).unwrap();
    assert!(matches!(
        net.send(1, 1, b"me"),
        Err(CoreError::SelfAddressed)
    ));
    assert!(matches!(
        net.send(0, 3, b"x"),
        Err(CoreError::UnknownDestination { dest: 3, cohort: 3 })
    ));
    assert!(matches!(
        net.send(9, 0, b"x"),
        Err(CoreError::UnknownDestination { .. })
    ));
}

#[test]
fn limited_visibility_breaks_the_keyboard_protocols() {
    // §5 poses limited visibility as an open problem. This is the negative
    // half: with a sensing radius smaller than the swarm's diameter,
    // robots disagree on the cohort (their granular keyboards have
    // different slice counts and labels), so routing fails — exactly why
    // the paper's protocols assume unbounded visibility.
    use stigmergy::sync_swarm::SyncSwarm;
    use stigmergy_robots::{Capabilities, Engine};

    // A line of robots where the ends cannot see each other.
    let positions: Vec<Point> = (0..4)
        .map(|i| Point::new(f64::from(i) * 10.0, 0.0))
        .collect();
    let mut e = Engine::builder()
        .positions(positions)
        .protocols((0..4).map(|_| SyncSwarm::anonymous_with_direction()))
        .capabilities(Capabilities::anonymous_with_direction())
        .visibility(15.0) // sees only immediate neighbours
        .build()
        .unwrap();
    e.step().unwrap();
    // Robot 0 sees {0,1}: a 2-robot cohort. Robot 1 sees {0,1,2}: 3.
    assert_eq!(e.protocol(0).geometry().unwrap().cohort(), 2);
    assert_eq!(e.protocol(1).geometry().unwrap().cohort(), 3);
    // A message from 0 addressed by its (wrong) naming never reaches 3 —
    // robot 3 is not even in robot 0's world.
    e.protocol_mut(0).send_label(1, b"doomed");
    let out = e
        .run_until(2_000, |e| {
            (1..4).any(|i| e.protocol(i).inbox().iter().any(|m| m.payload == b"doomed"))
        })
        .unwrap();
    // The bit excursions still happen, but whoever decodes them maps them
    // onto a different labelling — robot 3 can never be addressed, and
    // cross-cohort decodes disagree. The strongest guaranteed statement:
    // robot 3 receives nothing.
    let _ = out;
    assert!(e.protocol(3).inbox().is_empty(), "robot 3 is unreachable");
}

// ---------------------------------------------------------------------------
// Fault-injection matrix: every protocol of the paper's capability table
// (§3 pair + §3 swarm ×3 namings, §4 pair + §4 swarm) under every
// adversarial-but-legal schedule × every fault plan. The matrix is built
// and dispatched by the fleet runtime (`BatchSpec::conformance_matrix`),
// which reproduces the historical scenario parameters exactly at seed 0
// (frame seeds 0xFA01/0xFA02/0xB0_01…04, plan seeds 0xA1/0xA2/frame ^
// 0x5EED). The invariants, asserted per `RunReport`:
//
//   1. the collision invariant is never violated — injected faults may
//      starve, shorten, or hide moves, but robots never meet;
//   2. every run ends cleanly — the message is either delivered intact or
//      the budget expires without a panic or a model error;
//   3. no corrupted payload is ever delivered (detect-or-reject end to
//      end: a garbled excursion sequence fails the frame CRC and is
//      dropped, never surfaced as a different message);
//   4. asynchronous protocols, whose only model assumption is fairness,
//      must still *deliver* wherever §4's guarantees hold — the
//      adversarial schedules are all fair — and never past a crashed
//      receiver.
//
// Synchronous protocols are outside their regime here (the schedules are
// not synchronous), so for them delivery is not required — only clean
// behaviour. A crash-stop of the receiver (robot 1 of async2) ends its
// inbox, so that session must end in a clean timeout. A crash-stop of a
// bystander (robot 1 of the three-robot async swarm) must not stop the
// channel: the engine is the perfect failure detector, every live view
// lists the crashed peer, and the survivors exclude it from the §4.2
// acknowledgement rule, so delivery is owed there. Observation
// dropout keeps Lemma 4.1's premise — every change of a peer follows an
// observation — because a robot whose view missed part of its cohort
// stays put, and the engine keeps a null move bit for bit, so "you
// changed twice" still implies "you saw me" and delivery is owed there
// too.

use stigmergy::sync_swarm::SyncSwarm;
use stigmergy_fleet::{run_batch, BatchSpec, ProtocolKind, RunReport};
use stigmergy_robots::engine::DEFAULT_COLLISION_EPS;
use stigmergy_robots::{Capabilities, Engine, Trace};
use stigmergy_scheduler::{FaultPlan, FaultSpec, ScheduleSpec, WakeAllFirst};

const ADV_PAYLOAD: &[u8] = b"adv";

/// The §4 invariants, keyed by plan kind. Only asynchronous protocols
/// carry a delivery obligation; for synchronous ones any clean outcome
/// passes (clean-ness itself is checked for every run).
fn assert_async_invariants(run: &RunReport) {
    let cell = format!("{}/{}/{}", run.protocol, run.schedule, run.plan);
    match run.plan {
        // A crashed receiver (robot 1 of a pair) can never deliver; a
        // crashed bystander (robot 1 of the three-robot swarm, whose
        // receiver is robot 2) is reported by the engine's detector and
        // must not stop the channel.
        "crash" if run.protocol == "async2" => {
            assert!(!run.delivered, "delivery past a crashed receiver in {cell}");
        }
        "crash" => assert!(run.delivered, "a crashed bystander wedged {cell}"),
        // Neither fault breaks Lemma 4.1: any movement, however short,
        // still counts as a change, and a robot that missed part of its
        // cohort does not move at all. §4's delivery guarantee must
        // survive both.
        "non-rigid" | "dropout" => assert!(run.delivered, "async delivery failed in {cell}"),
        _ => {}
    }
}

#[test]
fn fault_matrix_via_fleet() {
    let spec = BatchSpec::conformance_matrix(vec![0]);
    let report = run_batch(&spec, 2);
    // 6 protocols × 3 schedules × 3 plans.
    assert_eq!(report.runs.len(), 54, "matrix shape");
    for run in &report.runs {
        let cell = format!("{}/{}/{}", run.protocol, run.schedule, run.plan);
        // Invariant 2: clean completion (collisions and model errors are
        // reported as `error`).
        assert!(run.error.is_none(), "{cell}: {:?}", run.error);
        // Invariant 1: the recorded trace never brings robots together.
        assert!(
            run.min_distance >= DEFAULT_COLLISION_EPS,
            "collision invariant violated in {cell}"
        );
        // Invariant 3: detect-or-reject — nothing *different* decodes.
        assert_eq!(run.corrupt, 0, "corrupted payload surfaced in {cell}");
        // Invariant 4.
        if matches!(run.protocol, "async2" | "async-swarm") {
            assert_async_invariants(run);
        }
    }
    // The matrix must actually exercise every cell kind.
    for protocol in ["sync2", "async2", "sync-swarm-routed", "async-swarm"] {
        assert!(report.runs.iter().any(|r| r.protocol == protocol));
    }
    assert_eq!(report.metrics.sessions, 54);
    assert_eq!(
        report.metrics.delivered + report.metrics.timed_out,
        report.metrics.sessions
    );
}

#[test]
fn asynchronous_sessions_deliver_through_dropout() {
    // A robot that moves on an activation where dropout hid its peer, or
    // whose null move lands an ulp away, reads to that peer as an
    // acknowledgement it never gave: a bit is lost and the session runs
    // out its budget or decodes a different frame.
    let spec = BatchSpec {
        protocols: vec![ProtocolKind::Async2, ProtocolKind::AsyncSwarm],
        plans: vec![FaultSpec::Dropout { prob: 0.1 }],
        ..BatchSpec::conformance_matrix((0..16).collect())
    };
    let report = run_batch(&spec, 2);
    // 2 protocols × 3 schedules × 16 seeds.
    assert_eq!(report.runs.len(), 96, "matrix shape");
    let lost: Vec<String> = report
        .runs
        .iter()
        .filter(|run| !run.delivered || run.corrupt != 0 || run.error.is_some())
        .map(|run| {
            format!(
                "{}/{}/seed {}: delivered {}, corrupt {}, {} steps",
                run.protocol, run.schedule, run.seed, run.delivered, run.corrupt, run.steps
            )
        })
        .collect();
    assert!(
        lost.is_empty(),
        "lost under dropout:\n  {}",
        lost.join("\n  ")
    );
}

// ---------------------------------------------------------------------------
// Algorithm axis of the conformance matrix: the three distributed
// algorithms (flooding broadcast, leader election, binary agreement)
// over the §4 anonymous-swarm channel, each under the worst-case-fair
// schedule with and without the crash-filtering wrapper, under a
// motion-fault plan and a crash-stop plan. The obligations are stronger
// than the transport matrix's: algorithms must *terminate with a
// decision* even past a crash (the perfect-failure-detector regime —
// the engine lists the crashed robot in every live view, and survivors
// exclude it), not merely deliver one frame.

#[test]
fn algorithm_matrix_via_fleet() {
    let spec = BatchSpec::algorithm_matrix(vec![0]);
    let report = run_batch(&spec, 2);
    // 3 algorithms × 2 schedules × 2 plans.
    assert_eq!(report.runs.len(), 12, "algorithm matrix shape");
    for run in &report.runs {
        let algorithm = run.algorithm.expect("algorithm sessions only");
        let cell = format!("{algorithm}/{}/{}", run.schedule, run.plan);
        // The transport invariants carry over unchanged.
        assert!(run.error.is_none(), "{cell}: {:?}", run.error);
        assert!(
            run.min_distance >= DEFAULT_COLLISION_EPS,
            "collision invariant violated in {cell}"
        );
        assert_eq!(run.corrupt, 0, "unroutable frame surfaced in {cell}");
        // The algorithm obligations: terminate in budget, decide, and
        // agree — crash plans included.
        let algo = run.algo.expect("algorithm counters recorded");
        assert!(
            algo.activations_to_decision.is_some(),
            "{cell}: timed out instead of terminating"
        );
        assert!(!algo.rejected, "{cell}: rejected a decidable configuration");
        assert!(
            algo.decision.is_some(),
            "{cell}: terminated without deciding"
        );
        assert!(algo.bits > 0, "{cell}: decided without using the channel");
        assert!(algo.rounds >= 1, "{cell}: decided in zero rounds");
        assert!(run.delivered, "{cell}: decision not counted as delivery");
    }
    // Every algorithm appears, and the crash cells really decide among
    // the survivors: flooding covers only the two live robots, and
    // agreement (inputs 0b101, robot 1's `0` crashed away) decides 1.
    for algorithm in ["flood", "election", "agreement"] {
        assert!(report.runs.iter().any(|r| r.algorithm == Some(algorithm)));
    }
    for run in &report.runs {
        if run.plan != "crash" {
            continue;
        }
        match run.algorithm {
            Some("flood") => assert_eq!(run.algo.unwrap().decision, Some(2)),
            Some("agreement") => assert_eq!(run.algo.unwrap().decision, Some(1)),
            _ => {}
        }
    }
    assert_eq!(report.metrics.sessions, 12);
    assert_eq!(report.metrics.algo_decided, 12);
}

/// The workers-don't-matter guarantee, extended to the algorithm axis:
/// the full algorithm matrix at `workers = 1` and `workers = 4` yields
/// byte-identical per-session reports (trace fingerprints included) and
/// byte-identical merged metrics JSON.
#[test]
fn algorithm_matrix_is_worker_count_invariant() {
    let spec = BatchSpec::algorithm_matrix(vec![0]);
    let serial = run_batch(&spec, 1);
    let pooled = run_batch(&spec, 4);
    assert_eq!(serial.runs.len(), pooled.runs.len());
    for (a, b) in serial.runs.iter().zip(&pooled.runs) {
        assert_eq!(
            a.trace_hash,
            b.trace_hash,
            "trace fingerprint diverged across worker counts in {}/{}/{}",
            a.algorithm.unwrap_or(a.protocol),
            a.schedule,
            a.plan
        );
        assert_eq!(a, b, "run report diverged across worker counts");
    }
    assert_eq!(serial.metrics, pooled.metrics);
    assert_eq!(serial.metrics.to_json(), pooled.metrics.to_json());
}

/// The acceptance test of the fault subsystem: the same `FaultPlan`
/// seed yields a bit-identical `Trace` (positions, activations, *and*
/// fault events), and a different seed yields a different one.
#[test]
fn fault_runs_replay_deterministically_end_to_end() {
    fn faulted_trace(plan_seed: u64) -> Trace {
        let n = 3;
        let mut e = Engine::builder()
            .positions(ring(n, 18.0))
            .protocols((0..n).map(|_| SyncSwarm::anonymous_with_direction()))
            .capabilities(Capabilities::anonymous_with_direction())
            .schedule(WakeAllFirst::new(
                ScheduleSpec::Bursty {
                    seed: 0x0AD5_CEDD,
                    burst_len: 3,
                    lull_len: 5,
                }
                .build(n),
            ))
            .frame_seed(0xDE7)
            .build()
            .unwrap();
        e.step().unwrap();
        e.set_fault_plan(
            FaultPlan::new(plan_seed)
                .non_rigid(0.4, 0.5)
                .observation_dropout(0.2)
                .crash_stop(1, 300),
        );
        let label = stigmergy::label_by_lex(e.trace().initial())
            .unwrap()
            .label_of(2)
            .unwrap();
        e.protocol_mut(0).send_label(label, ADV_PAYLOAD);
        e.run_until(2_000, |_| false).unwrap();
        e.trace().clone()
    }

    let a = faulted_trace(0xCAFE);
    let b = faulted_trace(0xCAFE);
    assert_eq!(a, b, "same fault seed must replay identically");
    assert!(
        !a.faults().is_empty(),
        "the plan must actually have fired faults"
    );
    let c = faulted_trace(0xCAFE + 1);
    assert_ne!(a, c, "a different fault seed must perturb the run");
}

#[test]
fn full_visibility_radius_behaves_like_unbounded() {
    use stigmergy::sync_swarm::SyncSwarm;
    use stigmergy_robots::{Capabilities, Engine};
    let positions = ring(4, 20.0);
    let mut e = Engine::builder()
        .positions(positions)
        .protocols((0..4).map(|_| SyncSwarm::anonymous_with_direction()))
        .capabilities(Capabilities::anonymous_with_direction())
        .visibility(1_000.0) // larger than the diameter: no effect
        .build()
        .unwrap();
    e.step().unwrap();
    assert_eq!(e.protocol(0).geometry().unwrap().cohort(), 4);
    let label = stigmergy::label_by_lex(e.trace().initial())
        .unwrap()
        .label_of(2)
        .unwrap();
    e.protocol_mut(0).send_label(label, b"fine");
    let out = e
        .run_until(2_000, |e| {
            e.protocol(2).inbox().iter().any(|m| m.payload == b"fine")
        })
        .unwrap();
    assert!(out.satisfied);
}
