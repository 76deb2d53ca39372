//! End-to-end delivery across every protocol, naming scheme, scheduler,
//! and payload shape.

use stigmergy::async2::DriftPolicy;
use stigmergy::session::{AsyncNetwork, Network, SyncNetwork};
use stigmergy_geometry::Point;
use stigmergy_integration::ring;
use stigmergy_scheduler::{FairAsync, RoundRobin, SingleActive};

#[test]
fn every_sync_scheme_delivers_every_pair() {
    // The full n×(n−1) traffic matrix, one scheme at a time.
    let n = 5;
    for (scheme, build) in [
        ("id", SyncNetwork::identified as fn(Vec<Point>, u64) -> _),
        ("lex", SyncNetwork::anonymous_with_direction),
        ("sec", SyncNetwork::anonymous),
    ] {
        let mut net = build(ring(n, 30.0), 0xA11).unwrap();
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    let payload = format!("{scheme}:{from}->{to}");
                    net.send(from, to, payload.as_bytes()).unwrap();
                }
            }
        }
        net.run_until_delivered(100_000)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        for to in 0..n {
            let inbox = net.inbox(to);
            assert_eq!(inbox.len(), n - 1, "{scheme}: robot {to} inbox");
            for from in (0..n).filter(|&f| f != to) {
                let expected = format!("{scheme}:{from}->{to}").into_bytes();
                assert!(
                    inbox.contains(&(from, expected)),
                    "{scheme}: missing {from}->{to}"
                );
            }
        }
    }
}

#[test]
fn binary_payloads_survive() {
    // Every byte value, including 0x00 and 0xFF runs.
    let payload: Vec<u8> = (0..=255u8).collect();
    let mut net = SyncNetwork::anonymous_with_direction(ring(3, 20.0), 0xA12).unwrap();
    net.send(0, 2, &payload).unwrap();
    net.run_until_delivered(100_000).unwrap();
    assert_eq!(net.inbox(2), vec![(0, payload)]);
}

#[test]
fn utf8_payloads_survive() {
    let text = "деаф, dumb, 聊天 🤖";
    let mut net = SyncNetwork::anonymous(ring(4, 25.0), 0xA13).unwrap();
    net.send(1, 3, text.as_bytes()).unwrap();
    net.run_until_delivered(100_000).unwrap();
    let inbox = net.inbox(3);
    assert_eq!(String::from_utf8(inbox[0].1.clone()).unwrap(), text);
}

#[test]
fn empty_message_is_a_valid_message() {
    let mut net = SyncNetwork::anonymous_with_direction(ring(3, 20.0), 0xA14).unwrap();
    net.send(0, 1, b"").unwrap();
    net.run_until_delivered(10_000).unwrap();
    assert_eq!(net.inbox(1), vec![(0, Vec::new())]);
}

#[test]
fn long_message_delivery() {
    let payload = vec![0x5Au8; 2_000]; // 16 kbit on the wire
    let mut net = SyncNetwork::anonymous_with_direction(ring(2, 15.0), 0xA15).unwrap();
    net.send(0, 1, &payload).unwrap();
    // 2 instants per bit: ~32k instants.
    net.run_until_delivered(40_000).unwrap();
    assert_eq!(net.inbox(1)[0].1, payload);
}

#[test]
fn async_pair_duplex_over_many_seeds() {
    for seed in 0..5u64 {
        let mut pair = Network::pair(
            Point::new(0.0, 0.0),
            Point::new(14.0, 3.0),
            DriftPolicy::Diverge,
            seed,
        )
        .unwrap();
        pair.send(0, 1, &[seed as u8, 1, 2]).unwrap();
        pair.send(1, 0, &[0xFF, seed as u8]).unwrap();
        pair.run_until_delivered(300_000)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(pair.inbox(1), vec![(0, vec![seed as u8, 1, 2])]);
        assert_eq!(pair.inbox(0), vec![(1, vec![0xFF, seed as u8])]);
    }
}

#[test]
fn async_swarm_under_three_scheduler_families() {
    let positions = ring(3, 22.0);
    // FairAsync.
    let mut a =
        AsyncNetwork::anonymous_with_schedule(positions.clone(), 1, FairAsync::new(1, 0.5, 8))
            .unwrap();
    a.send(0, 2, b"fa").unwrap();
    a.run_until_delivered(300_000).unwrap();
    assert_eq!(a.inbox(2), vec![(0, b"fa".to_vec())]);

    // RoundRobin.
    let mut b = AsyncNetwork::anonymous_with_schedule(positions.clone(), 2, RoundRobin).unwrap();
    b.send(1, 0, b"rr").unwrap();
    b.run_until_delivered(300_000).unwrap();
    assert_eq!(b.inbox(0), vec![(1, b"rr".to_vec())]);

    // SingleActive — the harshest fair adversary.
    let mut c =
        AsyncNetwork::anonymous_with_schedule(positions, 3, SingleActive::new(3, 12)).unwrap();
    c.send(2, 1, b"sa").unwrap();
    c.run_until_delivered(1_000_000).unwrap();
    assert_eq!(c.inbox(1), vec![(2, b"sa".to_vec())]);
}

#[test]
fn interleaved_conversations_stay_separated() {
    // Three concurrent conversations; inboxes must never cross-pollute.
    let mut net = SyncNetwork::anonymous_with_direction(ring(6, 40.0), 0xA16).unwrap();
    net.send(0, 1, b"zero to one").unwrap();
    net.send(1, 0, b"one to zero").unwrap();
    net.send(2, 3, b"two to three").unwrap();
    net.send(3, 2, b"three to two").unwrap();
    net.send(4, 5, b"four to five").unwrap();
    net.send(5, 4, b"five to four").unwrap();
    net.run_until_delivered(50_000).unwrap();
    assert_eq!(net.inbox(1), vec![(0, b"zero to one".to_vec())]);
    assert_eq!(net.inbox(0), vec![(1, b"one to zero".to_vec())]);
    assert_eq!(net.inbox(3), vec![(2, b"two to three".to_vec())]);
    assert_eq!(net.inbox(2), vec![(3, b"three to two".to_vec())]);
    assert_eq!(net.inbox(5), vec![(4, b"four to five".to_vec())]);
    assert_eq!(net.inbox(4), vec![(5, b"five to four".to_vec())]);
}

#[test]
fn sequential_messages_arrive_in_order() {
    let mut net = SyncNetwork::anonymous_with_direction(ring(3, 20.0), 0xA17).unwrap();
    for i in 0..5u8 {
        net.send(0, 1, &[i]).unwrap();
    }
    net.run_until_delivered(50_000).unwrap();
    let payloads: Vec<Vec<u8>> = net.inbox(1).into_iter().map(|(_, p)| p).collect();
    assert_eq!(payloads, vec![vec![0], vec![1], vec![2], vec![3], vec![4]]);
}

#[test]
fn bigger_swarms_still_route() {
    for n in [12usize, 24] {
        let mut net =
            SyncNetwork::anonymous_with_direction(ring(n, 8.0 * n as f64), 0xA18).unwrap();
        net.send(0, n / 2, b"far side").unwrap();
        net.send(n - 1, 1, b"near side").unwrap();
        net.run_until_delivered(50_000)
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        assert_eq!(net.inbox(n / 2), vec![(0, b"far side".to_vec())]);
        assert_eq!(net.inbox(1), vec![(n - 1, b"near side".to_vec())]);
    }
}
