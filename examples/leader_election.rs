//! Distributed leader election where every message is a dance.
//!
//! ```text
//! cargo run -p stigmergy-examples --bin leader_election
//! ```
//!
//! The paper's point is not chatting for its own sake: once deaf and dumb
//! robots can exchange messages, **any** message-passing distributed
//! algorithm runs on top. Here six anonymous robots elect a leader — each
//! announces its SEC-naming signature and the unique minimum wins — with
//! every single protocol message travelling as granular excursions.

use stigmergy::election_signature;
use stigmergy_fleet::{ring, run_session, ProtocolKind, SessionSpec};
use stigmergy_scheduler::{AlgorithmSpec, CodingSpec, FaultSpec, ScheduleSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 6;
    // The ring the session starts from. Signatures are similarity-
    // invariant, so every robot computes these same values from its own
    // private frame — computing them from world positions is only a
    // shortcut for printing.
    let positions = ring(n, 18.0);
    let signatures = (0..n)
        .map(|i| election_signature(&positions, i).map(|s| s as u32))
        .collect::<Result<Vec<u32>, _>>()?;
    println!("signatures: {signatures:?}\n");

    let report = run_session(&SessionSpec {
        protocol: ProtocolKind::AsyncSwarm,
        algorithm: Some(AlgorithmSpec::Election),
        schedule: ScheduleSpec::Synchronous,
        plan: FaultSpec::Benign,
        seed: 2026,
        cohort: n,
        payload: Vec::new(),
        coding: CodingSpec::Binary,
        budget_cap: None,
        keep_trace: false,
    });
    if let Some(error) = report.error {
        return Err(error.into());
    }
    let algo = report.algo.ok_or("not an algorithm session")?;
    // The runner reports a decision only when every robot reached the
    // same one, and the election decides only on a unique minimum (a tie
    // rejects): agreement and uniqueness are checked for us.
    let winner = algo.decision.ok_or("the election did not decide")?;
    let leader = signatures
        .iter()
        .position(|&s| u64::from(s) == winner)
        .ok_or("the winner is not a robot's signature")?;

    println!(
        "decided after {} movement instants ({} channel bits)",
        report.steps, algo.bits
    );
    println!("\nagreement: all {n} robots elected robot {leader} — without a single radio packet");
    Ok(())
}
