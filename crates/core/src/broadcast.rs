//! One-to-many and one-to-all communication (§5).
//!
//! The paper notes its protocols "can be easily adapted to implement
//! efficiently one-to-many or one-to-all explicit communication". Two
//! mechanisms realize that here:
//!
//! * **one-to-all** — the *self-slice convention*: a robot never needs to
//!   address itself, so an excursion on its own diameter is free to mean
//!   "to everyone". Every observer already decodes every stream
//!   (redundancy), so a broadcast costs exactly one unicast's moves. Each
//!   swarm protocol's mailbox resolves a broadcast to the sender's own
//!   slice, and [`MessageStreams`](crate::decode::MessageStreams) files
//!   it in every observer's inbox. It is exposed as `send_broadcast` on
//!   the swarm protocols, [`Chat::queue_broadcast`], and
//!   [`Network::broadcast`].
//! * **one-to-many** — [`multicast`]: address each recipient in turn. A
//!   smarter encoding (group labels) would need a naming of robot
//!   *subsets*, which the paper does not develop; repeated unicast keeps
//!   the decoder unchanged and the cost transparent (`|targets|` × one
//!   unicast).

use crate::session::{Chat, Network};
use crate::CoreError;

/// Sends `payload` from `from` to every robot in `targets`.
///
/// Skips `from` itself if present in `targets` (a robot does not message
/// itself); duplicate targets are sent only once.
///
/// # Errors
///
/// Propagates the first [`Network::send`] failure; messages queued before
/// the failure remain queued.
pub fn multicast<P: Chat>(
    net: &mut Network<P>,
    from: usize,
    targets: &[usize],
    payload: &[u8],
) -> Result<usize, CoreError> {
    let mut sent = 0usize;
    let mut seen = vec![false; net.cohort()];
    for &to in targets {
        if to == from || to >= seen.len() || seen[to] {
            if to >= seen.len() {
                return Err(CoreError::UnknownDestination {
                    dest: to,
                    cohort: seen.len(),
                });
            }
            continue;
        }
        net.send(from, to, payload)?;
        seen[to] = true;
        sent += 1;
    }
    Ok(sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SyncNetwork;
    use stigmergy_geometry::Point;

    fn net(seed: u64) -> SyncNetwork {
        let positions: Vec<Point> = (0..5)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / 5.0;
                Point::new(12.0 * theta.cos(), 12.0 * theta.sin() + (k as f64) * 0.1)
            })
            .collect();
        SyncNetwork::anonymous_with_direction(positions, seed).unwrap()
    }

    #[test]
    fn multicast_reaches_selected_targets() {
        let mut n = net(1);
        let sent = multicast(&mut n, 0, &[1, 3], b"subset").unwrap();
        assert_eq!(sent, 2);
        n.run_until_delivered(20_000).unwrap();
        assert_eq!(n.inbox(1), vec![(0, b"subset".to_vec())]);
        assert_eq!(n.inbox(3), vec![(0, b"subset".to_vec())]);
        assert!(n.inbox(2).is_empty());
        assert!(n.inbox(4).is_empty());
    }

    #[test]
    fn multicast_skips_self_and_duplicates() {
        let mut n = net(2);
        let sent = multicast(&mut n, 2, &[2, 4, 4, 0], b"x").unwrap();
        assert_eq!(sent, 2);
        n.run_until_delivered(20_000).unwrap();
        assert_eq!(n.inbox(4).len(), 1);
        assert_eq!(n.inbox(0).len(), 1);
    }

    #[test]
    fn multicast_rejects_bad_target() {
        let mut n = net(3);
        assert!(matches!(
            multicast(&mut n, 0, &[1, 99], b"x"),
            Err(CoreError::UnknownDestination { dest: 99, .. })
        ));
    }

    #[test]
    fn broadcast_costs_one_unicast() {
        // One-to-all via the self-slice convention: one message's worth of
        // excursions reaches all four peers.
        let mut n = net(4);
        n.broadcast(0, b"cheap").unwrap();
        n.run_until_delivered(20_000).unwrap();
        let signals = n.engine().protocol(0).signals_sent();
        // A 5-byte payload frames to 16 + 40 = 56 bits = 56 excursions.
        assert_eq!(signals, 56);
        for i in 1..5 {
            assert_eq!(n.inbox(i), vec![(0, b"cheap".to_vec())]);
        }
    }

    #[test]
    fn broadcast_survives_the_fully_symmetric_ring() {
        // The degenerate all-robots-on-SEC configuration: a perfectly
        // regular ring, full rotational symmetry group. Observer-relative
        // SEC naming never needed a *common* naming, so transport-level
        // broadcast works unchanged; only symmetry-sensitive layers above
        // — leader election in `crates/algo` — must reject it, which is
        // what `naming::election_signature`'s deliberate collisions
        // enforce.
        let positions: Vec<Point> = (0..4)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / 4.0;
                Point::new(9.0 * theta.cos(), 9.0 * theta.sin())
            })
            .collect();
        assert!(!crate::naming::rotational_symmetries(&positions)
            .unwrap()
            .is_empty());
        let mut n = SyncNetwork::anonymous(positions, 6).unwrap();
        n.broadcast(2, b"sym").unwrap();
        n.run_until_delivered(30_000).unwrap();
        for i in [0usize, 1, 3] {
            assert_eq!(n.inbox(i), vec![(2, b"sym".to_vec())]);
        }
    }

    #[test]
    fn multicast_to_everyone_matches_broadcast_semantics() {
        let mut a = net(5);
        multicast(&mut a, 1, &[0, 2, 3, 4], b"m").unwrap();
        a.run_until_delivered(30_000).unwrap();
        let mut b = net(5);
        b.broadcast(1, b"m").unwrap();
        b.run_until_delivered(30_000).unwrap();
        for i in [0usize, 2, 3, 4] {
            assert_eq!(a.inbox(i), b.inbox(i), "robot {i}");
        }
        // …but multicast cost 4× the moves.
        assert!(a.engine().protocol(1).signals_sent() > 3 * b.engine().protocol(1).signals_sent());
    }
}
