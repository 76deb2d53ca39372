//! Event-driven asynchronous binary agreement (FloodSet with a perfect
//! failure detector).
//!
//! The protocol is round-structured but *event-driven*: there is no round
//! clock. A robot broadcasts its estimate for round `r`, then waits until
//! it holds a round-`r` vote from every peer the failure detector has not
//! struck. Votes for **future** rounds are queued and replayed when the
//! round advances; votes for **past** rounds are ignored (their
//! information is already folded into the estimate that was re-broadcast).
//! After `f + 1` rounds — `f` the crash budget — the robot decides its
//! estimate, the minimum (logical AND) of every value it ever saw.
//!
//! Correctness leans on a property of the movement channel: a broadcast
//! frame is *near-atomic*. Every bit is an excursion held until all live
//! observers have tracked it, and a crashed sender freezes mid-frame, so
//! a frame is delivered either to **every** live observer or to none.
//! Partial delivery — the classic FloodSet hazard — cannot occur, which
//! is why votes from already-struck peers may still be folded in safely
//! (they reached everyone or no one). With at most `f` crashes, some
//! round among the `f + 1` is crash-free, after which all live estimates
//! are equal and stay equal: agreement. Validity holds because the fold
//! is a minimum over proposed inputs; termination because every awaited
//! peer either votes or is struck by the (driver-provided) perfect
//! detector.
//!
//! The [`AbaProtocol`] trait mirrors the poll/process shape of classic
//! asynchronous-BA simulators: `poll` drains outgoing votes,
//! `process_message` returns what happened ([`ProcessOutcome`]), and
//! `decided` exposes the terminal bit. [`AgreementSession`] adapts it to
//! the [`Session`] stack.
//!
//! Wire format (after the stack strips the protocol-id header):
//!
//! ```text
//! VOTE: [0x01, round as u8, value as 0|1]     broadcast
//! ```

use crate::stack::{Outgoing, PeerId, Session, Status};

/// Protocol id for the agreement layer in a [`crate::NodeStack`].
pub const PROTOCOL_ID: u8 = 0x03;

const OP_VOTE: u8 = 0x01;

/// What [`AbaProtocol::process_message`] did with a vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// The vote is for a future round; it was queued for replay.
    MessageQueued,
    /// The vote is stale (past round, duplicate, or post-decision) and
    /// carried no new information.
    MessageIgnored,
    /// The vote was folded into the current round.
    Processed,
    /// The vote completed the final round; the protocol decided.
    Decided(bool),
}

/// The poll/process interface of an event-driven binary-agreement
/// protocol instance at one robot.
pub trait AbaProtocol {
    /// The next vote `(round, value)` this robot must broadcast, if any.
    /// Drain until `None` after every event.
    fn poll(&mut self) -> Option<(u64, bool)>;

    /// Folds a vote from `from` for `round` carrying `value`.
    fn process_message(&mut self, from: PeerId, round: u64, value: bool) -> ProcessOutcome;

    /// The perfect failure detector struck `peer`; re-evaluates any round
    /// that peer was blocking.
    fn on_crash(&mut self, peer: PeerId) -> ProcessOutcome;

    /// The decided bit, once terminal.
    fn decided(&self) -> Option<bool>;
}

/// FloodSet binary agreement over `f + 1` rounds.
pub struct FloodSet {
    est: bool,
    round: u64,
    max_rounds: u64,
    /// `votes[p]` is peer `p`'s vote in the current round (`votes[0]` is
    /// our own, set at round start).
    votes: Vec<Option<bool>>,
    crashed: Vec<bool>,
    /// Future-round votes awaiting their round: `(round, from, value)`.
    queued: Vec<(u64, PeerId, bool)>,
    /// Votes to broadcast, drained by [`AbaProtocol::poll`].
    outbox: Vec<(u64, bool)>,
    decided: Option<bool>,
}

impl FloodSet {
    /// A robot proposing `input`, in a cohort of `cohort` robots, under a
    /// crash budget of `f = max_rounds - 1`.
    ///
    /// Every robot in the run must use the same `max_rounds`; it is part
    /// of the protocol, not a local tuning knob.
    ///
    /// # Panics
    ///
    /// Panics if `cohort < 2` or `max_rounds == 0`.
    #[must_use]
    fn new(input: bool, cohort: usize, max_rounds: u64) -> Self {
        assert!(
            cohort >= 2,
            "agreement needs at least two robots, cohort={cohort}"
        );
        assert!(max_rounds >= 1, "FloodSet needs at least one round");
        let mut votes = vec![None; cohort];
        votes[0] = Some(input);
        Self {
            est: input,
            round: 1,
            max_rounds,
            votes,
            crashed: vec![false; cohort],
            queued: Vec::new(),
            outbox: vec![(1, input)],
            decided: None,
        }
    }

    /// The current round (1-based; frozen once decided).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    fn round_complete(&self) -> bool {
        self.votes
            .iter()
            .zip(&self.crashed)
            .all(|(vote, &dead)| dead || vote.is_some())
    }

    /// Advances through every completable round; called after any event.
    fn settle(&mut self) {
        while self.decided.is_none() && self.round_complete() {
            if self.round == self.max_rounds {
                self.decided = Some(self.est);
                break;
            }
            self.round += 1;
            self.votes.iter_mut().for_each(|v| *v = None);
            self.votes[0] = Some(self.est);
            self.outbox.push((self.round, self.est));
            // Replay queued votes that have become current. Queue order
            // is arrival order, which the deterministic driver fixes.
            let round = self.round;
            let due: Vec<(PeerId, bool)> = {
                let mut due = Vec::new();
                self.queued.retain(|&(r, from, value)| {
                    if r == round {
                        due.push((from, value));
                        false
                    } else {
                        true
                    }
                });
                due
            };
            for (from, value) in due {
                self.fold(from, value);
            }
        }
    }

    fn fold(&mut self, from: PeerId, value: bool) {
        if self.votes[from].is_none() {
            self.votes[from] = Some(value);
        }
        // The FloodSet fold is a minimum: on bits, logical AND. Votes
        // from struck peers still fold in — channel near-atomicity means
        // they reached every live robot or none (see module docs).
        self.est &= value;
    }
}

impl AbaProtocol for FloodSet {
    fn poll(&mut self) -> Option<(u64, bool)> {
        if self.outbox.is_empty() {
            None
        } else {
            Some(self.outbox.remove(0))
        }
    }

    fn process_message(&mut self, from: PeerId, round: u64, value: bool) -> ProcessOutcome {
        if self.decided.is_some()
            || from == 0
            || from >= self.votes.len()
            || round == 0
            || round > self.max_rounds
        {
            return ProcessOutcome::MessageIgnored;
        }
        if round < self.round {
            return ProcessOutcome::MessageIgnored;
        }
        if round > self.round {
            self.queued.push((round, from, value));
            return ProcessOutcome::MessageQueued;
        }
        if self.votes[from].is_some() {
            return ProcessOutcome::MessageIgnored;
        }
        self.fold(from, value);
        self.settle();
        match self.decided {
            Some(bit) => ProcessOutcome::Decided(bit),
            None => ProcessOutcome::Processed,
        }
    }

    fn on_crash(&mut self, peer: PeerId) -> ProcessOutcome {
        if self.decided.is_some() || peer == 0 || peer >= self.crashed.len() {
            return ProcessOutcome::MessageIgnored;
        }
        self.crashed[peer] = true;
        self.settle();
        match self.decided {
            Some(bit) => ProcessOutcome::Decided(bit),
            None => ProcessOutcome::Processed,
        }
    }

    fn decided(&self) -> Option<bool> {
        self.decided
    }
}

/// [`Session`] adapter: frames [`FloodSet`] votes onto the stack.
pub struct AgreementSession {
    aba: FloodSet,
}

impl AgreementSession {
    /// A robot proposing `input` to [`FloodSet`] agreement, in a cohort
    /// of `cohort` robots, under a crash budget of `f = max_rounds - 1`.
    /// Every robot in the run must use the same `max_rounds`.
    ///
    /// # Panics
    ///
    /// Panics if `cohort < 2` or `max_rounds == 0`.
    #[must_use]
    pub fn new(input: bool, cohort: usize, max_rounds: u64) -> Self {
        Self {
            aba: FloodSet::new(input, cohort, max_rounds),
        }
    }

    /// The wrapped protocol instance (for inspection in tests/metrics).
    #[must_use]
    pub fn protocol(&self) -> &FloodSet {
        &self.aba
    }

    fn drain(&mut self, out: &mut Vec<Outgoing>) {
        while let Some((round, value)) = self.aba.poll() {
            debug_assert!(round <= u64::from(u8::MAX), "round fits the wire byte");
            out.push(Outgoing::Broadcast {
                body: vec![OP_VOTE, round as u8, u8::from(value)],
            });
        }
    }
}

impl Session for AgreementSession {
    fn on_start(&mut self, out: &mut Vec<Outgoing>) {
        self.drain(out);
    }

    fn on_message(&mut self, from: PeerId, body: &[u8], out: &mut Vec<Outgoing>) {
        let [OP_VOTE, round, value @ (0 | 1)] = *body else {
            return;
        };
        let _ = self.aba.process_message(from, u64::from(round), value == 1);
        self.drain(out);
    }

    fn on_crash(&mut self, peer: PeerId, out: &mut Vec<Outgoing>) {
        let _ = self.aba.on_crash(peer);
        self.drain(out);
    }

    fn status(&self) -> Status {
        match self.aba.decided() {
            Some(bit) => Status::Decided(u64::from(bit)),
            None => Status::Active,
        }
    }

    fn rounds(&self) -> u64 {
        self.aba.round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_free_round_decides_the_minimum() {
        // Cohort 3, one round (f = 0). Inputs 1,1,0 → everyone decides 0.
        let mut a = FloodSet::new(true, 3, 1);
        assert_eq!(a.poll(), Some((1, true)));
        assert_eq!(a.poll(), None);
        assert_eq!(a.process_message(1, 1, true), ProcessOutcome::Processed);
        assert_eq!(
            a.process_message(2, 1, false),
            ProcessOutcome::Decided(false)
        );
        assert_eq!(a.decided(), Some(false));

        let mut b = FloodSet::new(false, 3, 1);
        assert_eq!(b.poll(), Some((1, false)));
        b.process_message(1, 1, true);
        assert_eq!(
            b.process_message(2, 1, true),
            ProcessOutcome::Decided(false)
        );
    }

    #[test]
    fn future_rounds_queue_and_replay() {
        // f = 1 → two rounds. A fast peer's round-2 vote arrives before
        // our round 1 completes; it must be queued, then folded exactly
        // when round 2 opens.
        let mut a = FloodSet::new(true, 3, 2);
        assert_eq!(a.poll(), Some((1, true)));
        assert_eq!(
            a.process_message(2, 2, false),
            ProcessOutcome::MessageQueued
        );
        assert_eq!(a.round(), 1);
        assert_eq!(a.process_message(1, 1, true), ProcessOutcome::Processed);
        // Round 1 still waits on peer 2's round-1 vote.
        assert_eq!(a.process_message(2, 1, true), ProcessOutcome::Processed);
        // Round 2 opened: the broadcast carries the round-start estimate
        // (still 1 — queued votes replay *after* the round opens), then
        // peer 2's queued 0-vote folds in locally.
        assert_eq!(a.round(), 2);
        assert_eq!(a.poll(), Some((2, true)));
        assert_eq!(
            a.process_message(1, 2, false),
            ProcessOutcome::Decided(false)
        );
    }

    #[test]
    fn past_rounds_and_duplicates_are_ignored() {
        let mut a = FloodSet::new(true, 3, 2);
        let _ = a.poll();
        a.process_message(1, 1, true);
        assert_eq!(
            a.process_message(1, 1, true),
            ProcessOutcome::MessageIgnored
        );
        a.process_message(2, 1, true);
        assert_eq!(a.round(), 2);
        // Round 1 is now in the past.
        assert_eq!(
            a.process_message(1, 1, false),
            ProcessOutcome::MessageIgnored
        );
        // Nonsense rounds and senders.
        assert_eq!(
            a.process_message(1, 0, true),
            ProcessOutcome::MessageIgnored
        );
        assert_eq!(
            a.process_message(1, 99, true),
            ProcessOutcome::MessageIgnored
        );
        assert_eq!(
            a.process_message(0, 2, true),
            ProcessOutcome::MessageIgnored
        );
        assert_eq!(
            a.process_message(9, 2, true),
            ProcessOutcome::MessageIgnored
        );
    }

    #[test]
    fn crash_unblocks_the_waiting_round() {
        // Cohort 3, f = 1. Peer 2 crashes before voting: the strike must
        // complete round 1 and, with peer 1's round-2 vote, the run.
        let mut a = FloodSet::new(true, 3, 2);
        let _ = a.poll();
        assert_eq!(a.process_message(1, 1, true), ProcessOutcome::Processed);
        assert_eq!(a.on_crash(2), ProcessOutcome::Processed);
        assert_eq!(a.round(), 2);
        assert_eq!(a.poll(), Some((2, true)));
        assert_eq!(a.process_message(1, 2, true), ProcessOutcome::Decided(true));
        assert_eq!(a.decided(), Some(true));
        // Post-decision events are inert.
        assert_eq!(a.on_crash(1), ProcessOutcome::MessageIgnored);
        assert_eq!(
            a.process_message(1, 2, false),
            ProcessOutcome::MessageIgnored
        );
    }

    #[test]
    fn crash_can_cascade_through_every_round() {
        // Both peers struck at once: every remaining round completes
        // immediately and the lone survivor decides its own input.
        let mut a = FloodSet::new(false, 3, 3);
        let _ = a.poll();
        assert_eq!(a.on_crash(1), ProcessOutcome::Processed);
        assert_eq!(a.on_crash(2), ProcessOutcome::Decided(false));
        // The cascade still emitted each round's (never-heard) vote.
        assert_eq!(a.poll(), Some((2, false)));
        assert_eq!(a.poll(), Some((3, false)));
        assert_eq!(a.poll(), None);
    }

    #[test]
    fn struck_peer_votes_still_fold() {
        // Peer 2's 0-vote arrives, then the strike: the 0 must survive
        // into the estimate (near-atomic channel delivered it to all).
        let mut a = FloodSet::new(true, 3, 2);
        let _ = a.poll();
        a.process_message(2, 1, false);
        a.on_crash(2);
        a.process_message(1, 1, true);
        assert_eq!(a.round(), 2);
        assert_eq!(
            a.process_message(1, 2, false),
            ProcessOutcome::Decided(false)
        );
    }

    #[test]
    fn session_adapter_frames_votes() {
        let mut s = AgreementSession::new(true, 3, 1);
        let mut out = Vec::new();
        s.on_start(&mut out);
        assert_eq!(
            out,
            vec![Outgoing::Broadcast {
                body: vec![OP_VOTE, 1, 1]
            }]
        );
        assert_eq!(s.status(), Status::Active);
        out.clear();
        s.on_message(1, &[OP_VOTE, 1, 0], &mut out);
        s.on_message(2, &[OP_VOTE, 1, 1], &mut out);
        assert_eq!(s.status(), Status::Decided(0));
        assert_eq!(s.protocol().round(), 1);
        // Malformed votes are dropped at the framing layer.
        let mut s = AgreementSession::new(false, 2, 1);
        s.on_start(&mut Vec::new());
        s.on_message(1, &[OP_VOTE, 1, 9], &mut out); // bad value byte
        s.on_message(1, &[OP_VOTE], &mut out); // short
        s.on_message(1, &[0x08, 1, 1], &mut out); // bad opcode
        assert_eq!(s.status(), Status::Active);
        s.on_crash(1, &mut out);
        assert_eq!(s.status(), Status::Decided(0));
    }

    #[test]
    #[should_panic(expected = "at least two robots")]
    fn singleton_cohort_panics() {
        let _ = FloodSet::new(true, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let _ = FloodSet::new(true, 2, 0);
    }
}
