//! Asynchronous communication under an adversarial scheduler.
//!
//! ```text
//! cargo run -p stigmergy-examples --bin async_rescue
//! ```
//!
//! Two scenarios from §4 of the paper. First, a pair of robots whose duty
//! cycles never align — the scheduler wakes robots at random — chat via
//! the implicit-acknowledgement protocol: a robot holds each signal until
//! it has *seen the peer move twice*, which proves the peer saw the
//! signal. Second, a five-robot swarm delivers a message while the
//! harshest fair adversary wakes exactly one robot per instant.

use stigmergy::async2::DriftPolicy;
use stigmergy::session::{AsyncNetwork, Network};
use stigmergy_geometry::Point;
use stigmergy_scheduler::SingleActive;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Scenario 1: a drifting pair -----------------------------------
    let mut pair = Network::pair(
        Point::new(0.0, 0.0),
        Point::new(20.0, 0.0),
        DriftPolicy::Diverge,
        1234,
    )?;
    pair.send(0, 1, b"found survivor, grid C4")?;
    pair.send(1, 0, b"medkit en route")?;
    let instants = pair.run_until_delivered(200_000)?;
    println!("pair chat complete after {instants} asynchronous instants");
    println!("  robot 1 received: {:?}", text(pair.inbox(1)));
    println!("  robot 0 received: {:?}", text(pair.inbox(0)));
    println!(
        "  drift while chatting (the §4.1 drawback): {:.1} units",
        pair.engine().trace().max_drift()
    );

    // The bounded-drift variant trades drift for ever-smaller steps.
    let mut bounded = Network::pair(
        Point::new(0.0, 0.0),
        Point::new(20.0, 0.0),
        DriftPolicy::AlternateContract { x: 2.0 },
        1234,
    )?;
    bounded.send(0, 1, b"found survivor, grid C4")?;
    bounded.run_until_delivered(200_000)?;
    println!(
        "  with AlternateContract: drift only {:.2} units\n",
        bounded.engine().trace().max_drift()
    );

    // --- Scenario 2: a swarm against the harshest fair adversary -------
    let positions: Vec<Point> = (0..5)
        .map(|k| {
            let theta = std::f64::consts::TAU * f64::from(k) / 5.0;
            Point::new(25.0 * theta.cos(), 25.0 * theta.sin() + f64::from(k) * 0.2)
        })
        .collect();
    let mut swarm =
        AsyncNetwork::anonymous_with_schedule(positions, 99, SingleActive::new(99, 16))?;
    swarm.send(2, 4, b"rally")?;
    let instants = swarm.run_until_delivered(2_000_000)?;
    println!("swarm delivery under SingleActive took {instants} instants");
    println!("  robot 4 received: {:?}", text(swarm.inbox(4)));

    // Fairness audit: the trace proves the scheduler honoured the model.
    let log = swarm.engine().trace().activation_log();
    let report = stigmergy_scheduler::audit_fairness(&log, 5);
    println!(
        "  fairness audit: worst inactivity gap {} instants, SSM valid: {}",
        report.worst_gap(),
        report.is_valid_ssm()
    );
    Ok(())
}

/// An inbox as `(sender, text)` pairs.
fn text(inbox: Vec<(usize, Vec<u8>)>) -> Vec<(usize, String)> {
    inbox
        .into_iter()
        .map(|(sender, p)| (sender, String::from_utf8_lossy(&p).into_owned()))
        .collect()
}
