//! Flooding broadcast with convergecast acknowledgement (RoboCast-style).
//!
//! The initiator broadcasts a `DATA` frame once; every follower that
//! receives it replies with a unicast `ACK` (the convergecast leg). The
//! initiator decides when every *live* follower has acknowledged —
//! crash-stop followers are removed from the pending set by the perfect
//! failure detector, so a crash never wedges the wait. The decision value
//! is the coverage count: how many robots (including the initiator) are
//! known to hold the payload.
//!
//! Followers decide `1` on receipt. A follower whose designated initiator
//! crashes before `DATA` arrives rejects — nobody can re-seed the flood.
//!
//! Wire format (after the stack strips the protocol-id header):
//!
//! ```text
//! DATA: [0x01, payload…]      broadcast, initiator → all
//! ACK:  [0x02]                unicast,  follower  → initiator
//! ```

use crate::stack::{Outgoing, PeerId, Session, Status};

/// Protocol id for the flood layer in a [`crate::NodeStack`].
pub const PROTOCOL_ID: u8 = 0x01;

const OP_DATA: u8 = 0x01;
const OP_ACK: u8 = 0x02;

enum Role {
    /// Broadcasts the payload and collects acks from `pending`.
    Initiator {
        payload: Vec<u8>,
        pending: Vec<PeerId>,
    },
    /// Waits for `DATA` from `initiator`, acks, decides.
    Follower { initiator: PeerId, received: bool },
}

/// One robot's flood session.
pub struct FloodSession {
    role: Role,
    acked: u64,
    status: Status,
}

impl FloodSession {
    /// The initiating robot in a cohort of `cohort` robots: floods
    /// `payload` to local peers `1..cohort` and waits for their acks.
    ///
    /// # Panics
    ///
    /// Panics if `cohort < 2` — a flood needs someone to flood to.
    #[must_use]
    pub fn initiator(payload: Vec<u8>, cohort: usize) -> Self {
        assert!(
            cohort >= 2,
            "flood needs at least one peer, cohort={cohort}"
        );
        Self {
            role: Role::Initiator {
                payload,
                pending: (1..cohort).collect(),
            },
            acked: 0,
            status: Status::Active,
        }
    }

    /// A follower expecting the flood from local peer `initiator`.
    ///
    /// # Panics
    ///
    /// Panics if `initiator == 0` — a robot is never its own initiator.
    #[must_use]
    pub fn follower(initiator: PeerId) -> Self {
        assert_ne!(initiator, 0, "a follower's initiator is a peer, not itself");
        Self {
            role: Role::Follower {
                initiator,
                received: false,
            },
            acked: 0,
            status: Status::Active,
        }
    }

    fn check_coverage(&mut self) {
        if let Role::Initiator { pending, .. } = &self.role {
            if pending.is_empty() {
                // Coverage = self + every follower that acked. Crashed
                // followers were struck from `pending` without acking,
                // so the count reports exactly who holds the payload.
                self.status = Status::Decided(self.acked + 1);
            }
        }
    }
}

impl Session for FloodSession {
    fn on_start(&mut self, out: &mut Vec<Outgoing>) {
        if let Role::Initiator { payload, .. } = &self.role {
            let mut body = Vec::with_capacity(payload.len() + 1);
            body.push(OP_DATA);
            body.extend_from_slice(payload);
            out.push(Outgoing::Broadcast { body });
        }
    }

    fn on_message(&mut self, from: PeerId, body: &[u8], out: &mut Vec<Outgoing>) {
        match (&mut self.role, body.split_first()) {
            (Role::Initiator { pending, .. }, Some((&OP_ACK, []))) => {
                if let Some(i) = pending.iter().position(|&p| p == from) {
                    pending.swap_remove(i);
                    self.acked += 1;
                }
                self.check_coverage();
            }
            (
                Role::Follower {
                    initiator,
                    received,
                },
                Some((&OP_DATA, _payload)),
            ) if from == *initiator && !*received => {
                *received = true;
                out.push(Outgoing::Unicast {
                    peer: from,
                    body: vec![OP_ACK],
                });
                self.status = Status::Decided(1);
            }
            // Anything else — wrong opcode for the role, duplicate DATA,
            // DATA from a non-initiator — is dropped: the channel layer
            // is reliable FIFO, so these only arise from composition
            // mistakes and ignoring them keeps the machine total.
            _ => {}
        }
    }

    fn on_crash(&mut self, peer: PeerId, _out: &mut Vec<Outgoing>) {
        match &mut self.role {
            Role::Initiator { pending, .. } => {
                if let Some(i) = pending.iter().position(|&p| p == peer) {
                    pending.swap_remove(i);
                }
                self.check_coverage();
            }
            Role::Follower {
                initiator,
                received,
            } => {
                if peer == *initiator && !*received {
                    self.status = Status::Rejected("initiator crashed before data arrived");
                }
            }
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(out: Vec<Outgoing>) -> Vec<Outgoing> {
        out
    }

    #[test]
    fn full_flood_decides_with_total_coverage() {
        let mut init = FloodSession::initiator(b"adv".to_vec(), 3);
        let mut out = Vec::new();
        init.on_start(&mut out);
        assert_eq!(
            drain(out),
            vec![Outgoing::Broadcast {
                body: b"\x01adv".to_vec()
            }]
        );

        // Followers (at their own robots) receive DATA from their local
        // view of the initiator and ack.
        let mut f = FloodSession::follower(2);
        let mut out = Vec::new();
        f.on_message(2, b"\x01adv", &mut out);
        assert_eq!(
            out,
            vec![Outgoing::Unicast {
                peer: 2,
                body: vec![OP_ACK]
            }]
        );
        assert_eq!(f.status(), Status::Decided(1));

        // Initiator collects both acks.
        let mut out = Vec::new();
        init.on_message(1, &[OP_ACK], &mut out);
        assert_eq!(init.status(), Status::Active);
        init.on_message(2, &[OP_ACK], &mut out);
        assert!(out.is_empty());
        assert_eq!(init.status(), Status::Decided(3));
    }

    #[test]
    fn crashed_follower_is_struck_from_the_wait() {
        let mut init = FloodSession::initiator(b"x".to_vec(), 4);
        init.on_start(&mut Vec::new());
        let mut out = Vec::new();
        init.on_message(1, &[OP_ACK], &mut out);
        init.on_crash(3, &mut out);
        assert_eq!(init.status(), Status::Active);
        init.on_message(2, &[OP_ACK], &mut out);
        // Coverage counts only robots that hold the payload: self + 2.
        assert_eq!(init.status(), Status::Decided(3));
    }

    #[test]
    fn ack_after_crash_strike_is_harmless() {
        // A frozen excursion can complete delivery after the detector
        // fires; the late ack from the struck peer must not double-count.
        let mut init = FloodSession::initiator(b"x".to_vec(), 3);
        init.on_start(&mut Vec::new());
        let mut out = Vec::new();
        init.on_crash(2, &mut out);
        init.on_message(2, &[OP_ACK], &mut out);
        assert_eq!(init.status(), Status::Active);
        init.on_message(1, &[OP_ACK], &mut out);
        assert_eq!(init.status(), Status::Decided(2));
    }

    #[test]
    fn follower_rejects_when_initiator_dies_first() {
        let mut f = FloodSession::follower(1);
        let mut out = Vec::new();
        f.on_crash(3, &mut out); // unrelated crash: still waiting
        assert_eq!(f.status(), Status::Active);
        f.on_crash(1, &mut out);
        assert_eq!(
            f.status(),
            Status::Rejected("initiator crashed before data arrived")
        );
        assert!(out.is_empty());
    }

    #[test]
    fn follower_that_already_has_data_survives_initiator_crash() {
        let mut f = FloodSession::follower(1);
        let mut out = Vec::new();
        f.on_message(1, b"\x01p", &mut out);
        assert_eq!(f.status(), Status::Decided(1));
        f.on_crash(1, &mut out);
        assert_eq!(f.status(), Status::Decided(1));
    }

    #[test]
    fn duplicate_and_foreign_data_are_ignored() {
        let mut f = FloodSession::follower(1);
        let mut out = Vec::new();
        f.on_message(2, b"\x01imposter", &mut out); // wrong sender
        assert!(out.is_empty());
        assert_eq!(f.status(), Status::Active);
        f.on_message(1, b"\x01real", &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        f.on_message(1, b"\x01real", &mut out); // duplicate: no second ack
        assert!(out.is_empty());
        // Garbage opcodes at either role are dropped.
        let mut init = FloodSession::initiator(b"x".to_vec(), 2);
        init.on_message(1, b"\x09", &mut out);
        init.on_message(1, b"", &mut out);
        assert_eq!(init.status(), Status::Active);
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn singleton_cohort_panics() {
        let _ = FloodSession::initiator(Vec::new(), 1);
    }

    #[test]
    #[should_panic(expected = "not itself")]
    fn self_initiator_panics() {
        let _ = FloodSession::follower(0);
    }
}
