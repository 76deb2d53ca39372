//! A full coordination task enabled by movement-signal communication.
//!
//! ```text
//! cargo run -p stigmergy-examples --bin rendezvous
//! ```
//!
//! The paper's motivation is not chat but *coordination*: once deaf and
//! dumb robots can exchange messages, classical swarm tasks follow. This
//! example runs a complete mission with zero radio packets:
//!
//! 1. **Elect** a leader by SEC-signature election over the movement
//!    channel.
//! 2. **Agree on a point**: the leader broadcasts a rendezvous target
//!    encoded in the only shared coordinate system anonymous robots have —
//!    offsets from the smallest-enclosing-circle centre, in units of its
//!    radius. Every robot decodes it into its *own* frame.
//! 3. **Converge**: robots approach the target, each stopping on its own
//!    ring (ranked by the leader's SEC naming) so nobody collides.

use stigmergy::election_signature;
use stigmergy::naming::label_by_sec;
use stigmergy::session::SyncNetwork;
use stigmergy_fleet::{ring, run_session, ProtocolKind, SessionSpec};
use stigmergy_geometry::{smallest_enclosing_circle, Point};
use stigmergy_robots::{Engine, MovementProtocol, View};
use stigmergy_scheduler::{AlgorithmSpec, CodingSpec, FaultSpec, ScheduleSpec};

/// Phase-3 protocol: walk toward a (locally computed) target, stop on
/// your assigned ring.
struct Approach {
    target: Point,
    stop_radius: f64,
    step: f64,
}

impl MovementProtocol for Approach {
    fn on_activate(&mut self, view: &View) -> Point {
        let own = view.own_position();
        let dist = own.distance(self.target);
        if dist <= self.stop_radius {
            return own; // parked on my ring
        }
        let advance = (dist - self.stop_radius).min(self.step);
        own.lerp(self.target, advance / dist)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5usize;
    let seed = 4242u64;
    let positions = ring(n, 18.0);

    // ---- Phase 1: leader election over movement signals --------------
    // Every robot announces its SEC-naming signature; the unique minimum
    // wins. The runner reports a decision only when all robots agree.
    let report = run_session(&SessionSpec {
        protocol: ProtocolKind::AsyncSwarm,
        algorithm: Some(AlgorithmSpec::Election),
        schedule: ScheduleSpec::Synchronous,
        plan: FaultSpec::Benign,
        seed,
        cohort: n,
        payload: Vec::new(),
        coding: CodingSpec::Binary,
        budget_cap: None,
        keep_trace: false,
    });
    if let Some(error) = report.error {
        return Err(error.into());
    }
    let winner = report
        .algo
        .and_then(|a| a.decision)
        .ok_or("the election did not decide")?;
    // Signatures are similarity-invariant: world positions give the same
    // values every robot derives in its own frame.
    let signatures = (0..n)
        .map(|i| election_signature(&positions, i).map(|s| u64::from(s as u32)))
        .collect::<Result<Vec<u64>, _>>()?;
    let leader = signatures
        .iter()
        .position(|&s| s == winner)
        .ok_or("the winner is not a robot's signature")?;
    println!("phase 1: elected robot {leader} (signature {winner:#010x})");

    // The chat network for phase 2 starts from the same ring.
    let mut net = SyncNetwork::anonymous_with_direction(positions.clone(), seed)?;

    // ---- Phase 2: leader broadcasts the rendezvous point --------------
    // Encoded as (dx, dy) from the SEC centre in milli-radii — the shared
    // frame anonymous robots with a compass can all reconstruct.
    let (dx_milli, dy_milli) = (250i16, -150i16);
    let mut payload = Vec::new();
    payload.extend_from_slice(&dx_milli.to_be_bytes());
    payload.extend_from_slice(&dy_milli.to_be_bytes());
    net.broadcast(leader, &payload)?;
    net.run_until_delivered(100_000)?;
    println!(
        "phase 2: leader broadcast target ({}, {}) milli-radii from the SEC centre",
        dx_milli, dy_milli
    );

    // ---- Phase 3: decode locally and converge --------------------------
    // Each robot reconstructs the target from ITS OWN local geometry (its
    // preprocessed homes) plus the received bytes — no world data leaks.
    let chat_engine = net.engine();
    let mut approaches = Vec::with_capacity(n);
    for i in 0..n {
        let g = chat_engine.protocol(i).geometry().expect("preprocessed");
        let homes = g.homes().to_vec();
        let sec = smallest_enclosing_circle(&homes)?;
        let bytes: Vec<u8> = if i == leader {
            payload.clone()
        } else {
            net.inbox(i)
                .into_iter()
                .find(|(s, _)| *s == leader)
                .map(|(_, p)| p)
                .expect("broadcast received")
        };
        let dx = f64::from(i16::from_be_bytes([bytes[0], bytes[1]])) / 1000.0;
        let dy = f64::from(i16::from_be_bytes([bytes[2], bytes[3]])) / 1000.0;
        let target = Point::new(
            sec.center.x + dx * sec.radius,
            sec.center.y + dy * sec.radius,
        );
        // Parking ring: ranked by the leader's SEC-relative naming —
        // computable by every robot from positions alone, so all robots
        // agree on who parks where without any extra messages.
        let my_rank = rank_under_leader(&net, i, leader);
        let spacing = sec.radius * 0.08;
        approaches.push(Approach {
            target,
            stop_radius: spacing * (1.0 + my_rank as f64),
            step: sec.radius * 0.05,
        });
    }

    // Same frames (same seed AND same capabilities), same world
    // positions: the motion phase continues where the chat phase stood.
    let mut motion = Engine::builder()
        .positions(positions.clone())
        .protocols(approaches)
        .capabilities(stigmergy_robots::Capabilities::anonymous_with_direction())
        .frame_seed(seed)
        .build()?;
    let out = motion.run_until(5_000, |e| {
        // Everyone parked: the last two instants saw no movement.
        let steps = e.trace().steps();
        steps.len() > 10 && steps[steps.len() - 1].positions == steps[steps.len() - 2].positions
    })?;
    assert!(out.satisfied);

    let world_sec = smallest_enclosing_circle(&positions)?;
    let world_target = Point::new(
        world_sec.center.x + 0.25 * world_sec.radius,
        world_sec.center.y - 0.15 * world_sec.radius,
    );
    println!("phase 3: converged after {} instants", motion.trace().len());
    for i in 0..n {
        println!(
            "  robot {i}: {:.1} units from the rendezvous point",
            motion.positions()[i].distance(world_target)
        );
    }
    let max_d = (0..n)
        .map(|i| motion.positions()[i].distance(world_target))
        .fold(0.0f64, f64::max);
    assert!(
        max_d < world_sec.radius * 0.6,
        "swarm failed to gather (worst {max_d:.1})"
    );
    println!("\nmission complete: elected, agreed, converged — all by dancing");
    Ok(())
}

/// Robot `i`'s parking rank: its label in the leader's SEC-relative
/// naming. Computed here from world positions for brevity; the naming is
/// similarity-invariant, so it equals what each robot derives from its
/// own local homes.
fn rank_under_leader(net: &SyncNetwork, i: usize, leader: usize) -> usize {
    label_by_sec(net.engine().trace().initial(), leader)
        .expect("valid configuration")
        .label_of(i)
        .expect("in range")
}
