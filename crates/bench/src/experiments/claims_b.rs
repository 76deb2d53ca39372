//! Experiments E6–E10: collision margins, preprocessing cost, scheduler
//! stress, byte coding, and broadcast-while-flocking.

use crate::table::{fnum, Table};
use crate::workloads;
use std::time::Instant;
use stigmergy::async_n::AsyncSwarm;
use stigmergy::flocking::Flocking;
use stigmergy::session::{AsyncNetwork, SyncNetwork};
use stigmergy::sync2::Sync2;
use stigmergy::sync_swarm::SyncSwarm;
use stigmergy::SwarmGeometry;
use stigmergy_coding::alphabet::LevelAlphabet;
use stigmergy_geometry::voronoi::granular_radii;
use stigmergy_geometry::{smallest_enclosing_circle, Point, Vec2};
use stigmergy_robots::{Capabilities, Engine, Observed, View};
use stigmergy_scheduler::{FairAsync, RoundRobin, Schedule, SingleActive};

/// E6: granular confinement — the minimum pairwise distance over whole
/// runs never falls below the granular bound, for both the synchronous
/// and asynchronous swarm protocols.
#[must_use]
pub fn e6() -> Vec<Table> {
    let mut t = Table::new(
        "e6: collision margin under heavy traffic",
        [
            "protocol",
            "n",
            "min distance over run",
            "guaranteed bound",
            "margin ok",
        ],
    );

    // Synchronous: all-pairs ring of messages. Excursions reach fraction
    // 1/2 of each granular, so distance ≥ d_ij − (r_i + r_j)/2 ≥
    // (r_i + r_j)/2.
    for n in [4usize, 8, 16] {
        let positions = workloads::uniform(n, 40.0 * n as f64 / 4.0, 18.0, 0xE6 + n as u64);
        let radii = granular_radii(&positions).expect("distinct positions");
        let bound = (0..n)
            .flat_map(|i| {
                let positions = &positions;
                let radii = &radii;
                ((i + 1)..n)
                    .map(move |j| positions[i].distance(positions[j]) - (radii[i] + radii[j]) / 2.0)
            })
            .fold(f64::INFINITY, f64::min);
        let mut net =
            SyncNetwork::anonymous_with_direction(positions, 0xE6).expect("valid placement");
        for i in 0..n {
            net.send(i, (i + 1) % n, &workloads::payload(3, i as u64))
                .expect("valid route");
        }
        net.run_until_delivered(20_000).expect("delivery");
        let min_d = net.engine().trace().min_pairwise_distance();
        t.row([
            "SyncSwarm (§3.3)".to_string(),
            n.to_string(),
            fnum(min_d),
            fnum(bound),
            (min_d >= bound - 1e-9).to_string(),
        ]);
    }

    // Asynchronous: excursions reach fraction 7/8; bound is
    // d_ij − 7(r_i + r_j)/8 ≥ (r_i + r_j)/8.
    for n in [3usize, 5] {
        let positions = workloads::ring(n, 25.0);
        let radii = granular_radii(&positions).expect("distinct positions");
        let bound = (0..n)
            .flat_map(|i| {
                let positions = &positions;
                let radii = &radii;
                ((i + 1)..n).map(move |j| {
                    positions[i].distance(positions[j]) - 0.875 * (radii[i] + radii[j])
                })
            })
            .fold(f64::INFINITY, f64::min);
        let mut net = AsyncNetwork::anonymous(positions, 0xE6).expect("valid ring");
        net.send(0, n - 1, b"m").expect("valid route");
        net.run_until_delivered(300_000).expect("delivery");
        let min_d = net.engine().trace().min_pairwise_distance();
        t.row([
            "AsyncSwarm (§4.2)".to_string(),
            n.to_string(),
            fnum(min_d),
            fnum(bound),
            (min_d >= bound - 1e-9).to_string(),
        ]);
    }
    vec![t]
}

/// E7: preprocessing cost — the `t0` pipeline (SEC, granulars, slicing,
/// naming) as swarm size grows. Wall-clock numbers are machine-local;
/// the scaling shape is the result.
#[must_use]
pub fn e7() -> Vec<Table> {
    let mut t = Table::new(
        "e7: t0 preprocessing cost (mean of 10 runs, this machine)",
        [
            "n",
            "SEC (µs)",
            "granular radii (µs)",
            "full SwarmGeometry (µs)",
        ],
    );
    for n in [8usize, 32, 128, 512] {
        let positions = workloads::uniform(n, 100.0 * (n as f64).sqrt(), 2.0, 0xE7);
        let reps = 10u32;

        let sec_us = time_us(reps, || {
            let _ = smallest_enclosing_circle(&positions).expect("non-empty");
        });
        let radii_us = time_us(reps, || {
            let _ = granular_radii(&positions).expect("distinct");
        });
        let view = View::new(
            Observed {
                position: positions[0],
                id: None,
            },
            positions[1..]
                .iter()
                .map(|&p| Observed {
                    position: p,
                    id: None,
                })
                .collect(),
            1.0,
        );
        let geom_us = time_us(reps, || {
            let _ = SwarmGeometry::build(&view, stigmergy::NamingScheme::BySec, true)
                .expect("valid configuration");
        });
        t.row([n.to_string(), fnum(sec_us), fnum(radii_us), fnum(geom_us)]);
    }
    vec![t]
}

fn time_us(reps: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
}

/// E8: Theorems 4.5/4.6 — the asynchronous protocols deliver under every
/// fair scheduler, from gentle to adversarial; latency scales with
/// scheduler harshness.
#[must_use]
pub fn e8() -> Vec<Table> {
    let mut t = Table::new(
        "e8: AsyncSwarm delivery vs scheduler (n = 3, 2-byte message)",
        [
            "scheduler",
            "instants to deliver",
            "sender activations",
            "worst inactivity gap",
            "delivered",
        ],
    );
    let schedulers: Vec<(&str, Box<dyn Schedule>)> = vec![
        ("FairAsync p=0.9", Box::new(FairAsync::new(0xE8, 0.9, 16))),
        ("FairAsync p=0.5", Box::new(FairAsync::new(0xE8, 0.5, 16))),
        ("FairAsync p=0.2", Box::new(FairAsync::new(0xE8, 0.2, 16))),
        ("RoundRobin", Box::new(RoundRobin)),
        ("SingleActive", Box::new(SingleActive::new(0xE8, 16))),
    ];
    for (name, schedule) in schedulers {
        let positions = workloads::ring(3, 20.0);
        let mut e = Engine::builder()
            .positions(positions)
            .protocols((0..3).map(|_| AsyncSwarm::anonymous()))
            .capabilities(Capabilities::anonymous())
            .schedule(WakeAllFirstBox(schedule))
            .frame_seed(0xE8)
            .build()
            .expect("valid ring");
        e.step().expect("warm-up");
        let label = stigmergy::label_by_sec(e.trace().initial(), 0)
            .expect("valid naming")
            .label_of(2)
            .expect("in range");
        e.protocol_mut(0)
            .send_label(label, &workloads::payload(2, 0xE8));
        let out = e
            .run_until(2_000_000, |e| !e.protocol(2).inbox().is_empty())
            .expect("collision-free");
        let log = e.trace().activation_log();
        let report = stigmergy_scheduler::audit_fairness(&log, 3);
        t.row([
            name.to_string(),
            out.steps_taken.to_string(),
            report.activations[0].to_string(),
            report.worst_gap().to_string(),
            out.satisfied.to_string(),
        ]);
    }
    vec![t]
}

/// Adapter: boxed schedule with the wake-all-first semantics.
#[derive(Debug)]
struct WakeAllFirstBox(Box<dyn Schedule>);

impl Schedule for WakeAllFirstBox {
    fn activations(&mut self, t: u64, n: usize) -> stigmergy_scheduler::ActivationSet {
        if t == 0 {
            let _ = self.0.activations(0, n);
            stigmergy_scheduler::ActivationSet::full(n)
        } else {
            self.0.activations(t, n)
        }
    }

    fn name(&self) -> &'static str {
        "wake-all-first(boxed)"
    }
}

/// E9: the §3.1 byte-coding optimisation — moves per message shrink by
/// the bits-per-symbol factor.
#[must_use]
pub fn e9() -> Vec<Table> {
    let mut t = Table::new(
        "e9: displacement alphabets, 64-byte message (528 frame bits)",
        [
            "alphabet",
            "bits/move",
            "moves",
            "instants",
            "speedup vs binary",
        ],
    );
    let payload = workloads::payload(64, 0xE9);
    let mut binary_steps = 0u64;
    for levels in [1usize, 2, 8, 128] {
        let alphabet = LevelAlphabet::new(levels).expect("non-empty alphabet");
        let mut e = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
            .protocols([
                Sync2::with_alphabet(alphabet),
                Sync2::with_alphabet(alphabet),
            ])
            .frame_seed(0xE9)
            .build()
            .expect("valid pair");
        e.protocol_mut(0).send(&payload);
        let out = e
            .run_until(5_000, |e| !e.protocol(1).inbox().is_empty())
            .expect("collision-free");
        assert!(out.satisfied, "levels={levels}: not delivered");
        assert_eq!(
            e.protocol(1).inbox()[0],
            payload,
            "levels={levels}: corrupted"
        );
        if levels == 1 {
            binary_steps = out.steps_taken;
        }
        t.row([
            format!("{} symbols ({} levels/side)", 2 * levels, levels),
            alphabet.bits_per_symbol().to_string(),
            e.protocol(0).signals_sent().to_string(),
            out.steps_taken.to_string(),
            format!("{:.2}×", binary_steps as f64 / out.steps_taken as f64),
        ]);
    }
    vec![t]
}

/// E10: §5 composition — a flocking swarm broadcasts while translating;
/// the message arrives and the flock stays coherent.
#[must_use]
pub fn e10() -> Vec<Table> {
    let v = Vec2::new(0.05, 0.02);
    let positions = workloads::ring(5, 15.0);
    let mut e = Engine::builder()
        .positions(positions.clone())
        .protocols((0..5).map(|_| Flocking::new(SyncSwarm::anonymous_with_direction(), v)))
        .capabilities(Capabilities::anonymous_with_direction())
        .unit_frames()
        .build()
        .expect("valid ring");
    e.step().expect("warm-up");
    e.protocol_mut(2).inner_mut().send_broadcast(b"rendezvous");
    let out = e
        .run_until(5_000, |e| {
            (0..5).filter(|&i| i != 2).all(|i| {
                e.protocol(i)
                    .inner()
                    .inbox()
                    .iter()
                    .any(|m| m.payload == b"rendezvous")
            })
        })
        .expect("collision-free");

    let steps = e.trace().len() as f64;
    let mut t = Table::new(
        "e10: broadcast while flocking (5 robots, velocity (0.05, 0.02)/instant)",
        ["metric", "value"],
    );
    t.row([
        "all 4 peers received the broadcast",
        out.satisfied.to_string().as_str(),
    ]);
    t.row([
        "instants elapsed",
        (out.steps_taken + 1).to_string().as_str(),
    ]);
    let expected_travel = v.norm() * steps;
    let worst_coherence = (0..5)
        .map(|i| {
            let expected = positions[i] + v * steps;
            e.positions()[i].distance(expected)
        })
        .fold(0.0f64, f64::max);
    t.row(["flock travel (world units)", fnum(expected_travel).as_str()]);
    t.row([
        "worst deviation from ideal flock position",
        fnum(worst_coherence).as_str(),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_margins_hold() {
        let tables = e6();
        let s = tables[0].to_string();
        assert!(!s.contains("false"), "collision margin violated:\n{s}");
        assert_eq!(tables[0].len(), 5);
    }

    #[test]
    fn e8_all_schedulers_deliver() {
        let tables = e8();
        let s = tables[0].to_string();
        assert!(!s.contains("false"), "a scheduler broke delivery:\n{s}");
    }

    #[test]
    fn e9_byte_alphabet_is_8x() {
        let tables = e9();
        let s = tables[0].to_string();
        assert!(s.contains("8.00×") || s.contains("7.9"), "{s}");
    }

    #[test]
    fn e10_broadcast_arrives_in_flight() {
        let tables = e10();
        let s = tables[0].to_string();
        assert!(s.contains("true"), "{s}");
    }
}
