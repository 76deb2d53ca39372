//! Experiments E11–E12: the §5 stabilization sketch and the title claim —
//! distributed computation over the movement channel.

use crate::table::Table;
use crate::workloads;
use stigmergy::apps::{run_app, EchoAggregate, LeaderElection};
use stigmergy::session::SyncNetwork;
use stigmergy::stabilize::StabilizingSync;
use stigmergy_robots::{Capabilities, Engine};
use stigmergy_scheduler::Synchronous;

/// E11: self-stabilization (§5) — transient memory faults are absorbed at
/// the next epoch boundary; the plain protocol stays broken.
#[must_use]
pub fn e11() -> Vec<Table> {
    let period = 256u64;
    let positions = workloads::ring(4, 22.0);

    // Stabilizing run: fault robot 2 mid-epoch, converge, then deliver.
    let mut e = Engine::builder()
        .positions(positions.clone())
        .protocols((0..4).map(|_| StabilizingSync::new(period)))
        .capabilities(Capabilities::identified_with_direction())
        .schedule(Synchronous)
        .global_clock()
        .frame_seed(0xE11)
        .build()
        .expect("valid ring");
    e.run(10).expect("collision-free");
    *e.protocol_mut(2) = StabilizingSync::new(period); // memory wipe
    while e.time() < period {
        e.step().expect("collision-free");
    }
    let dest = e.ids().expect("identified")[2];
    let me = e.ids().expect("identified")[0];
    e.protocol_mut(0).send_id(dest, b"post-fault");
    let out = e
        .run_until(4_000, |e| {
            e.protocol(2)
                .inbox()
                .contains(&(me, b"post-fault".to_vec()))
        })
        .expect("collision-free");

    // Control: the plain protocol with the same fault pattern loses a
    // message to the wiped robot (its geometry/parity stay corrupt).
    let mut plain = Engine::builder()
        .positions(positions)
        .protocols((0..4).map(|_| stigmergy::sync_swarm::SyncSwarm::routed()))
        .capabilities(Capabilities::identified_with_direction())
        .schedule(Synchronous)
        .frame_seed(0xE11)
        .build()
        .expect("valid ring");
    plain.step().expect("collision-free");
    let dest2 = plain.ids().expect("identified")[2];
    plain.protocol_mut(0).send_id(dest2, &[0xAA; 8]);
    plain.run(10).expect("collision-free"); // wipe lands mid-excursion
    *plain.protocol_mut(3) = stigmergy::sync_swarm::SyncSwarm::routed();
    let dest3 = plain.ids().expect("identified")[3];
    plain.protocol_mut(1).send_id(dest3, b"lost");
    let plain_out = plain
        .run_until(2_000, |e| {
            e.protocol(3).inbox().iter().any(|m| m.payload == b"lost")
        })
        .expect("collision-free");

    let mut t = Table::new(
        "e11: transient memory fault (Dolev model) — stabilizing vs plain",
        ["protocol", "fault", "post-fault delivery", "note"],
    );
    t.row([
        format!("StabilizingSync (epoch {period})"),
        "robot 2 wiped mid-epoch".to_string(),
        out.satisfied.to_string(),
        "recovers at the next epoch boundary".to_string(),
    ]);
    t.row([
        "plain SyncSwarm".to_string(),
        "robot 3 wiped mid-excursion".to_string(),
        plain_out.satisfied.to_string(),
        "geometry + parity stay corrupt forever".to_string(),
    ]);
    vec![t]
}

/// E12: the title claim — classical distributed algorithms running with
/// every message carried by movement signals.
#[must_use]
pub fn e12() -> Vec<Table> {
    let mut t = Table::new(
        "e12: distributed computation over movement signals",
        [
            "algorithm",
            "n",
            "rounds",
            "movement instants",
            "result",
            "correct",
        ],
    );

    // Leader election by nonce flooding.
    for n in [4usize, 6] {
        let nonces: Vec<u64> = (0..n).map(|i| (i as u64 * 37 + 11) % 53).collect();
        let expected = nonces
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut net =
            SyncNetwork::anonymous_with_direction(workloads::ring(n, 12.0 * n as f64), 0xE12)
                .expect("valid ring");
        let mut apps: Vec<LeaderElection> =
            nonces.iter().map(|&v| LeaderElection::new(v)).collect();
        let rounds = run_app(&mut net, &mut apps, 20, 400_000).expect("quiescence");
        let agreed = apps.iter().all(|a| a.leader() == Some(expected));
        t.row([
            "leader election (max-nonce flood)".to_string(),
            n.to_string(),
            rounds.to_string(),
            net.engine().time().to_string(),
            format!("leader = robot {expected}"),
            agreed.to_string(),
        ]);
    }

    // Sum aggregation.
    {
        let n = 5usize;
        let values: Vec<u32> = (0..n as u32).map(|i| 10 * (i + 1)).collect();
        let expected: u64 = values.iter().map(|&v| u64::from(v)).sum();
        let mut net = SyncNetwork::anonymous_with_direction(workloads::ring(n, 60.0), 0xE12)
            .expect("valid ring");
        let mut apps: Vec<EchoAggregate> =
            values.iter().map(|&v| EchoAggregate::new(v, 0)).collect();
        let rounds = run_app(&mut net, &mut apps, 10, 400_000).expect("quiescence");
        t.row([
            "echo aggregation (sum)".to_string(),
            n.to_string(),
            rounds.to_string(),
            net.engine().time().to_string(),
            format!("sum = {}", apps[0].sum()),
            (apps[0].sum() == expected).to_string(),
        ]);
    }
    vec![t]
}

/// E13: sensing precision vs keyboard resolution (§5's round-off
/// discussion) — the quantitative case for `k`-segment addressing.
///
/// A keyboard with `s` diameters separates half-slices by `π/s`; an
/// observation perturbed by noise of magnitude `ε` at excursion radius
/// `d` is mis-classified once its angular error `≈ ε/d` rivals the
/// decoder's acceptance band (`π/4s`). Monte-Carlo over seeded noise.
#[must_use]
pub fn e13() -> Vec<Table> {
    use stigmergy_geometry::granular::{SliceSide, SliceZone, SlicedGranular};
    use stigmergy_geometry::{Point, Tolerance, Vec2};
    use stigmergy_scheduler::rng::SplitMix64;

    let samples = 4_000u32;
    let radius = 1.0f64;
    let excursion = 0.5 * radius;
    let mut t = Table::new(
        "e13: excursion classification accuracy under observation noise",
        [
            "diameters",
            "acceptance band (rad)",
            "ε/R = 1e-4",
            "ε/R = 1e-3",
            "ε/R = 1e-2",
            "ε/R = 5e-2",
        ],
    );
    for slices in [4usize, 12, 32, 64] {
        let kb = SlicedGranular::new(Point::ORIGIN, radius, slices).expect("valid keyboard");
        let mut cells = Vec::new();
        for (k, eps_rel) in [1e-4f64, 1e-3, 1e-2, 5e-2].into_iter().enumerate() {
            let eps = eps_rel * radius;
            let mut rng = SplitMix64::new(0xE13 + k as u64 + slices as u64 * 100);
            let mut correct = 0u32;
            for s in 0..samples {
                let slice = (s as usize) % slices;
                let side = if s % 2 == 0 {
                    SliceSide::Zero
                } else {
                    SliceSide::One
                };
                let ideal = kb.target(slice, side, excursion).expect("in range");
                // Uniform noise in a disc of radius ε.
                let theta = rng.next_f64() * std::f64::consts::TAU;
                let r = eps * rng.next_f64().sqrt();
                let observed = ideal + Vec2::new(theta.cos(), theta.sin()) * r;
                if let SliceZone::OnSlice {
                    slice: got,
                    side: got_side,
                    deviation,
                    ..
                } = kb.classify(observed, Tolerance::default())
                {
                    if got == slice && got_side == side && deviation <= kb.decode_tolerance() {
                        correct += 1;
                    }
                }
            }
            cells.push(format!(
                "{:.1}%",
                100.0 * f64::from(correct) / f64::from(samples)
            ));
        }
        t.row([
            slices.to_string(),
            format!("{:.4}", kb.decode_tolerance()),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
    }
    vec![t]
}

/// E14: the §5 partial-synchrony question — what actually breaks under
/// CORDA.
///
/// The CORDA model weakens the SSM in two independent ways: Look and Move
/// decouple (a robot moves from a stale observation), and movement is
/// interruptible (a robot is observable mid-move). Sweeping both shows
/// decoupling alone is harmless — every observed position change still
/// implies a fresh Look, so Lemma 4.1's argument survives — while
/// interruptible movement breaks it: a slowly-moving robot changes
/// position at every instant *without looking*, so "changed twice" no
/// longer acknowledges anything, and the Receipt property fails.
#[must_use]
pub fn e14() -> Vec<Table> {
    use stigmergy::async2::{Async2, DriftPolicy};
    use stigmergy_geometry::Point;
    use stigmergy_robots::CordaEngine;

    let seeds = 20u64;
    let mut t = Table::new(
        "e14: Async2 under CORDA weakenings (20 seeds, 2-byte message)",
        [
            "look→move delay",
            "movement",
            "delivered intact",
            "corrupted/deadlocked",
            "diagnosis",
        ],
    );
    let cases: [(u64, f64, &str, &str); 5] = [
        (0, f64::INFINITY, "atomic", "the SSM baseline"),
        (
            8,
            f64::INFINITY,
            "atomic",
            "decoupling alone: Lemma 4.1 survives",
        ),
        (
            32,
            f64::INFINITY,
            "atomic",
            "decoupling alone: Lemma 4.1 survives",
        ),
        (
            8,
            0.5,
            "interruptible (0.5/instant)",
            "mid-move changes ack nothing: Receipt fails",
        ),
        (
            32,
            0.5,
            "interruptible (0.5/instant)",
            "mid-move changes ack nothing: Receipt fails",
        ),
    ];
    for (delay, speed, movement, diagnosis) in cases {
        let mut ok = 0u64;
        for seed in 0..seeds {
            let mut e = CordaEngine::with_speed(
                vec![Point::new(0.0, 0.0), Point::new(16.0, 0.0)],
                vec![
                    Async2::new(DriftPolicy::Diverge),
                    Async2::new(DriftPolicy::Diverge),
                ],
                delay,
                speed,
                seed,
            )
            .expect("valid pair");
            let payload = vec![0x5A, seed as u8];
            e.protocol_mut(0).send(&payload);
            let done = e
                .run_until(200_000, |e| !e.protocol(1).inbox().is_empty())
                .expect("collision-free");
            if done && e.protocol(1).inbox()[0] == payload {
                ok += 1;
            }
        }
        t.row([
            delay.to_string(),
            movement.to_string(),
            format!("{ok}/{seeds}"),
            format!("{}/{seeds}", seeds - ok),
            diagnosis.to_string(),
        ]);
    }
    vec![t]
}

/// E15: end-to-end latency scaling — instants to deliver one message as
/// payload grows, across every protocol family. The paper gives only the
/// per-bit costs; this is the composed curve a user of the library sees.
#[must_use]
pub fn e15() -> Vec<Table> {
    use stigmergy::async2::DriftPolicy;
    use stigmergy::session::{AsyncNetwork, AsyncPair, SyncNetwork};
    use stigmergy::sync2::Sync2;
    use stigmergy::sync2_coded::Sync2Coded;
    use stigmergy_coding::alphabet::LevelAlphabet;
    use stigmergy_geometry::Point;
    use stigmergy_robots::Engine;

    let sizes = [1usize, 4, 16, 64];
    let mut t = Table::new(
        "e15: delivery latency (instants) vs payload size",
        ["protocol", "1 B", "4 B", "16 B", "64 B"],
    );

    let mut row = |name: &str, f: &mut dyn FnMut(usize) -> u64| {
        let cells: Vec<String> = sizes.iter().map(|&s| f(s).to_string()).collect();
        t.row([
            name.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
    };

    row("Sync2 (bit coding)", &mut |size| {
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(12.0, 0.0)])
            .protocols([Sync2::new(), Sync2::new()])
            .frame_seed(0xE15)
            .build()
            .expect("valid pair");
        e.protocol_mut(0).send(&workloads::payload(size, 0xE15));
        let out = e
            .run_until(20_000, |e| !e.protocol(1).inbox().is_empty())
            .expect("collision-free");
        assert!(out.satisfied);
        out.steps_taken
    });

    row("Sync2Coded (256 symbols)", &mut |size| {
        let a = LevelAlphabet::new(128).expect("valid alphabet");
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(12.0, 0.0)])
            .protocols([Sync2Coded::new(a), Sync2Coded::new(a)])
            .frame_seed(0xE15)
            .build()
            .expect("valid pair");
        e.protocol_mut(0).send(&workloads::payload(size, 0xE15));
        let out = e
            .run_until(20_000, |e| !e.protocol(1).inbox().is_empty())
            .expect("collision-free");
        assert!(out.satisfied);
        out.steps_taken
    });

    row("SyncSwarm n=8 (§3.3)", &mut |size| {
        let mut net = SyncNetwork::anonymous_with_direction(workloads::ring(8, 80.0), 0xE15)
            .expect("valid ring");
        net.send(0, 5, &workloads::payload(size, 0xE15))
            .expect("valid route");
        net.run_until_delivered(20_000).expect("delivery")
    });

    row("Async2 (fair scheduler)", &mut |size| {
        let mut pair = AsyncPair::new(
            Point::new(0.0, 0.0),
            Point::new(16.0, 0.0),
            DriftPolicy::Diverge,
            0xE15,
        )
        .expect("valid pair");
        pair.send(0, &workloads::payload(size, 0xE15))
            .expect("valid sender");
        pair.run_until_delivered(2_000_000).expect("delivery")
    });

    row("AsyncSwarm n=4 (§4.2)", &mut |size| {
        let mut net = AsyncNetwork::anonymous(workloads::ring(4, 25.0), 0xE15).expect("valid ring");
        net.send(0, 2, &workloads::payload(size, 0xE15))
            .expect("valid route");
        net.run_until_delivered(4_000_000).expect("delivery")
    });

    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_contrast_holds() {
        let tables = e11();
        let s = tables[0].to_string();
        let rows: Vec<&str> = s.lines().skip(3).collect();
        assert!(rows[0].contains("true"), "stabilizing must recover: {s}");
        assert!(rows[1].contains("false"), "plain must stay broken: {s}");
    }

    #[test]
    fn e13_fine_keyboards_degrade_first() {
        let tables = e13();
        let s = tables[0].to_string();
        let rows: Vec<&str> = s.lines().skip(3).collect();
        assert_eq!(rows.len(), 4);
        // At ε/R = 1e-4 everything decodes; at 5e-2 the 64-diameter
        // keyboard has collapsed while the 4-diameter one survives.
        let pct = |row: &str, col: usize| -> f64 {
            row.split('|')
                .nth(col)
                .unwrap()
                .trim()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        assert!(pct(rows[0], 3) > 99.0, "{s}");
        assert!(pct(rows[3], 3) > 99.0, "{s}");
        assert!(
            pct(rows[0], 6) > 90.0,
            "coarse keyboard should survive:\n{s}"
        );
        assert!(pct(rows[3], 6) < 60.0, "fine keyboard should degrade:\n{s}");
    }

    #[test]
    fn e14_decoupling_survives_interruptible_breaks() {
        let tables = e14();
        let s = tables[0].to_string();
        let rows: Vec<&str> = s.lines().skip(3).collect();
        // Atomic-movement rows are perfect.
        for row in &rows[..3] {
            assert!(row.contains("20/20"), "atomic row imperfect: {row}");
        }
        // At least one interruptible row shows failures.
        assert!(
            rows[3..].iter().any(|r| !r.contains("| 20/20 ")),
            "expected interruptible-movement failures:\n{s}"
        );
    }

    #[test]
    fn e15_latency_scales_linearly_per_family() {
        let tables = e15();
        let s = tables[0].to_string();
        let rows: Vec<&str> = s.lines().skip(3).collect();
        assert_eq!(rows.len(), 5);
        // Synchronous bit coding: exact 2 instants/bit ⇒ 64 B = 1056.
        assert!(rows[0].contains("1056"), "{s}");
        // The 256-symbol alphabet is exactly 8× faster.
        assert!(rows[1].contains("132"), "{s}");
    }

    #[test]
    fn e12_algorithms_are_correct() {
        let tables = e12();
        let s = tables[0].to_string();
        assert!(!s.contains("| false |"), "{s}");
        assert_eq!(tables[0].len(), 3);
        // Rounds and movement instants per row, pinned exactly: 6 rounds
        // and 5,536 instants in all.
        let work: Vec<[&str; 2]> = s
            .lines()
            .skip(3)
            .map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                [cells[3], cells[4]]
            })
            .collect();
        assert_eq!(work, [["2", "2112"], ["2", "2880"], ["2", "544"]], "{s}");
    }
}
