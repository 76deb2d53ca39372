//! Observer-side decoding: movements back into bits and messages.
//!
//! Every robot observes every other robot's excursions and can reconstruct
//! **all** message streams, not just its own — the paper's redundancy
//! property ("every robot is able to know all the messages sent in the
//! system"). [`MessageStreams`] maintains one incremental frame decoder per
//! `(sender, addressee)` pair and sorts completed messages into the
//! observer's inbox or the overheard log.
//!
//! Two observation disciplines feed it:
//!
//! * synchronous protocols sample configurations at *return-phase* instants
//!   and treat every off-home robot as one signal ([`MessageStreams::on_signal`]);
//! * asynchronous protocols watch **zone transitions** ([`ZoneTracker`]):
//!   a new bit is an entry into an addressing half-slice from any other
//!   zone, which the sender's hold-until-acknowledged discipline makes
//!   unambiguous.
//!
//! The swarm protocols (P2–P4, their paced variant, and P6) share
//! everything but their signalling: each holds one crate-private
//! `SwarmMailbox` with the naming scheme, the t0 geometry, the outgoing
//! queue and these streams. The synchronous and paced swarms read their
//! snapshots through the mailbox's `ClassifyMemo`, which classifies a
//! peer again only when it has moved.

use crate::ack::same_bits;
use crate::preprocess::{NamingScheme, SwarmGeometry};
use crate::CoreError;
use std::collections::{BTreeMap, VecDeque};
use stigmergy_coding::bits::BitQueue;
use stigmergy_coding::framing::{encode_frame, FrameDecoder};
use stigmergy_coding::Bit;
use stigmergy_geometry::granular::{SliceSide, SliceZone};
use stigmergy_geometry::Point;
use stigmergy_robots::{View, VisibleId};

/// A message delivered to this observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InboxEntry {
    /// Sender, as a home index of the observer's [`SwarmGeometry`].
    pub sender: usize,
    /// The payload.
    pub payload: Vec<u8>,
}

/// A message this observer decoded for someone else (redundancy log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverheardEntry {
    /// Sender home index.
    pub sender: usize,
    /// Addressee home index.
    pub dest: usize,
    /// The payload.
    pub payload: Vec<u8>,
}

/// Per-(sender, addressee) incremental decoding with inbox/overheard
/// routing. The observer is always home index 0 of its own geometry.
#[derive(Debug, Clone, Default)]
pub struct MessageStreams {
    decoders: BTreeMap<(usize, usize), FrameDecoder>,
    inbox: Vec<InboxEntry>,
    overheard: Vec<OverheardEntry>,
}

impl MessageStreams {
    /// Feeds one decoded signal: `sender` pressed `(slice, side)` on its
    /// keyboard. A bit that completes a message files it in
    /// [`MessageStreams::overheard`] and, if it is for this observer, in
    /// [`MessageStreams::inbox`].
    ///
    /// Signals on κ or outside the addressing range are ignored (they are
    /// pacing movements, not bits). A signal addressed to the sender's own
    /// slice is a **broadcast** (§5 one-to-all): it is delivered to every
    /// observer's inbox.
    pub fn on_signal(
        &mut self,
        geometry: &SwarmGeometry,
        sender: usize,
        slice: usize,
        side: SliceSide,
    ) {
        let Some(dest) = addressee(geometry, sender, slice) else {
            return;
        };
        let decoder = self.decoders.entry((sender, dest)).or_default();
        if let Some(payload) = decoder.push_bit(Bit::from_bool(side.bit())) {
            self.route(sender, dest, payload);
        }
    }

    /// Files a whole message `sender` signalled on `slice`, decoded by
    /// the protocol's own coding, under the same routing as
    /// [`MessageStreams::on_signal`]. A slice that names nobody is
    /// dropped.
    pub(crate) fn deliver(
        &mut self,
        geometry: &SwarmGeometry,
        sender: usize,
        slice: usize,
        payload: Vec<u8>,
    ) {
        if let Some(dest) = addressee(geometry, sender, slice) {
            self.route(sender, dest, payload);
        }
    }

    /// Logs a completed message as overheard and, if it is for this
    /// observer, files it in the inbox.
    fn route(&mut self, sender: usize, dest: usize, payload: Vec<u8>) {
        // dest == 0: unicast to me. dest == sender: broadcast convention.
        if dest == 0 || dest == sender {
            self.inbox.push(InboxEntry {
                sender,
                payload: payload.clone(),
            });
        }
        self.overheard.push(OverheardEntry {
            sender,
            dest,
            payload,
        });
    }

    /// Messages addressed to this observer, in arrival order.
    #[must_use]
    pub fn inbox(&self) -> &[InboxEntry] {
        &self.inbox
    }

    /// Every message decoded, whoever it was for.
    #[must_use]
    pub fn overheard(&self) -> &[OverheardEntry] {
        &self.overheard
    }
}

/// The home index `sender` addresses by signalling on `slice`, or `None`
/// for κ and slices beyond the addressing range.
fn addressee(geometry: &SwarmGeometry, sender: usize, slice: usize) -> Option<usize> {
    geometry.home_for(sender, geometry.label_for_slice(slice)?)
}

/// How a queued swarm message names its destination.
#[derive(Debug, Clone)]
pub(crate) enum Dest {
    /// A label under this robot's naming.
    Label(usize),
    /// A visible ID (identified systems only).
    Id(VisibleId),
    /// Everyone: "send to self" on the wire (§5 one-to-all).
    Broadcast,
}

/// The half of a swarm protocol that does not depend on how a bit is
/// signalled: the naming scheme, the geometry built at the first
/// activation (or the failure to build it), the queue of outgoing
/// messages, and the decoded streams with their inbox/overheard routing.
#[derive(Debug, Clone)]
pub(crate) struct SwarmMailbox {
    scheme: NamingScheme,
    kappa: bool,
    geometry: Option<SwarmGeometry>,
    init_error: Option<CoreError>,
    pending: VecDeque<(Dest, Vec<u8>)>,
    /// The slice and remaining bits of the frame [`SwarmMailbox::next_bit`]
    /// is sending.
    current: Option<(usize, BitQueue)>,
    streams: MessageStreams,
    memo: ClassifyMemo,
}

impl SwarmMailbox {
    /// An empty mailbox naming peers by `scheme`, on keyboards with the
    /// extra slice κ when `kappa` is set.
    pub(crate) fn new(scheme: NamingScheme, kappa: bool) -> Self {
        Self {
            scheme,
            kappa,
            geometry: None,
            init_error: None,
            pending: VecDeque::new(),
            current: None,
            streams: MessageStreams::default(),
            memo: ClassifyMemo::default(),
        }
    }

    /// Queues `payload` for `dest`; it is resolved when it is sent.
    pub(crate) fn post(&mut self, dest: Dest, payload: &[u8]) {
        self.pending.push_back((dest, payload.to_vec()));
    }

    /// Runs the t0 preprocessing on the first view it is given and keeps
    /// the geometry, or the failure, for good. Returns the geometry; `None`
    /// means the configuration was degenerate and the robot stays put.
    pub(crate) fn prepare(&mut self, view: &View) -> Option<&SwarmGeometry> {
        if self.geometry.is_none() && self.init_error.is_none() {
            match SwarmGeometry::build(view, self.scheme, self.kappa) {
                Ok(g) => self.geometry = Some(g),
                Err(e) => self.init_error = Some(e),
            }
        }
        self.geometry.as_ref()
    }

    /// The preprocessed geometry, once built.
    pub(crate) fn geometry(&self) -> Option<&SwarmGeometry> {
        self.geometry.as_ref()
    }

    /// The preprocessing failure, if the first view was degenerate.
    pub(crate) fn init_error(&self) -> Option<&CoreError> {
        self.init_error.as_ref()
    }

    /// Whether every queued message has left the queue, and every bit of
    /// the frame [`SwarmMailbox::next_bit`] was sending.
    pub(crate) fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.current.is_none()
    }

    /// Pops queued messages until one resolves, and returns the keyboard
    /// slice that addresses it with its payload. A label beyond the
    /// cohort or an unknown ID is dropped (sessions validate destinations
    /// up front, so this is defensive). Nothing is popped before the
    /// geometry exists.
    pub(crate) fn next_message(&mut self) -> Option<(usize, Vec<u8>)> {
        let g: &SwarmGeometry = self.geometry.as_ref()?;
        while let Some((dest, payload)) = self.pending.pop_front() {
            let label = match dest {
                Dest::Label(l) => Some(l),
                Dest::Id(id) => (0..g.cohort())
                    .find(|&h| g.id_of(h) == Some(id))
                    .map(|home| g.label_for(0, home)),
                // Broadcast: my own slice (label of self in my naming).
                Dest::Broadcast => Some(g.label_for(0, 0)),
            };
            if let Some(label) = label.filter(|&l| l < g.cohort()) {
                return Some((g.slice_for_label(label), payload));
            }
        }
        None
    }

    /// The next bit of the framed outgoing stream and the slice it rides
    /// on, starting the next resolvable message when the last frame is
    /// done.
    pub(crate) fn next_bit(&mut self) -> Option<(usize, Bit)> {
        if self.current.is_none() {
            let (slice, payload) = self.next_message()?;
            let mut q = BitQueue::new();
            q.enqueue(&encode_frame(&payload));
            self.current = Some((slice, q));
        }
        let (slice, q) = self.current.as_mut()?;
        let slice = *slice;
        let bit = q.dequeue().expect("a frame is never empty");
        if q.is_empty() {
            self.current = None;
        }
        Some((slice, bit))
    }

    /// The geometry and the streams to decode into, once the geometry
    /// exists.
    pub(crate) fn decoding(&mut self) -> Option<(&SwarmGeometry, &mut MessageStreams)> {
        Some((self.geometry.as_ref()?, &mut self.streams))
    }

    /// [`SwarmMailbox::decoding`] plus, for each of `view`'s peers in
    /// order, its [`SwarmGeometry::classify`] result.
    pub(crate) fn decoding_view(&mut self, view: &View) -> Option<DecodingView<'_>> {
        let g = self.geometry.as_ref()?;
        let zones = self.memo.classify(view, |p| g.classify(p));
        Some((g, &mut self.streams, zones))
    }

    /// The decoded streams: this robot's inbox and overheard log.
    pub(crate) fn streams(&self) -> &MessageStreams {
        &self.streams
    }
}

/// A peer's position and its [`SwarmGeometry::classify`] result.
pub(crate) type Classified = (Point, Option<(usize, SliceZone)>);

/// What [`SwarmMailbox::decoding_view`] lends: the geometry, the streams,
/// and each peer of the view with its classify result.
pub(crate) type DecodingView<'a> = (&'a SwarmGeometry, &'a mut MessageStreams, &'a [Classified]);

/// The previous view's [`SwarmGeometry::classify`] results, keyed by
/// the exact bits of each peer's position ([`ChangeTracker::is_last_position`]'s
/// rule, so `-0.0` and `0.0` are different keys).
///
/// Classifying is a pure function of the position once the geometry is
/// built, so a hit returns the very result a recomputation would. A
/// paced sender holds each symbol for `dwell` activations, and idle
/// peers sit at home: on the benchmark's `sweep-864`, `sweep-wide` and
/// `gateway-jobs` workloads 91 % of lookups hit. The two buffers are
/// swapped on every view: after the first, nothing is allocated.
///
/// [`ChangeTracker::is_last_position`]: crate::ack::ChangeTracker::is_last_position
#[derive(Debug, Clone, Default)]
struct ClassifyMemo {
    /// The last view's peers, in view order.
    last: Vec<Classified>,
    /// The view being classified; swapped with `last`.
    next: Vec<Classified>,
}

impl ClassifyMemo {
    /// Each peer of `view`, in order, with its classify result, calling
    /// `classify` only for positions the previous view did not hold.
    fn classify(
        &mut self,
        view: &View,
        mut classify: impl FnMut(Point) -> Option<(usize, SliceZone)>,
    ) -> &[Classified] {
        self.next.clear();
        for o in view.others() {
            let zone = match self.last.iter().find(|(p, _)| same_bits(*p, o.position)) {
                Some(&(_, zone)) => zone,
                None => classify(o.position),
            };
            self.next.push((o.position, zone));
        }
        std::mem::swap(&mut self.last, &mut self.next);
        &self.last
    }
}

/// A zone on a keyboard, for transition detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneKey {
    /// At the keyboard centre.
    Center,
    /// On half-slice `(slice, side)`.
    Slice(usize, SliceSide),
}

/// Watches per-robot keyboard zones and reports *entries into addressing
/// half-slices* — the asynchronous bit events.
#[derive(Debug, Clone, Default)]
pub struct ZoneTracker {
    /// The last zone of each home observed so far, indexed by home.
    last: Vec<Option<ZoneKey>>,
}

impl ZoneTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes robot `home` at `pos`; returns `Some((slice, side))` when
    /// the robot has just *entered* an addressing half-slice.
    pub fn observe(
        &mut self,
        geometry: &SwarmGeometry,
        home: usize,
        pos: Point,
    ) -> Option<(usize, SliceSide)> {
        let key = match geometry
            .keyboard(home)
            .half_slice(pos, stigmergy_geometry::Tolerance::default())
        {
            None => ZoneKey::Center,
            Some((slice, side)) => ZoneKey::Slice(slice, side),
        };
        if home >= self.last.len() {
            self.last.resize(home + 1, None);
        }
        let prev = self.last[home].replace(key);
        if prev == Some(key) {
            return None; // still in the same zone
        }
        match key {
            ZoneKey::Slice(slice, side) if geometry.label_for_slice(slice).is_some() => {
                Some((slice, side))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::session::Chat;
    use stigmergy_robots::{Engine, Observed};

    /// Robot 0 of a preprocessed engine queues a message to label 99,
    /// beyond any test cohort, then one to robot 1 under `label`: the
    /// first is dropped — nobody overhears it — and does not block the
    /// second.
    pub(crate) fn unresolvable_label_is_dropped_not_stuck<P: Chat>(
        e: &mut Engine<P>,
        overheard: fn(&P) -> &[OverheardEntry],
        label: usize,
        max_steps: u64,
    ) {
        e.protocol_mut(0).queue(99, b"void");
        e.protocol_mut(0).queue(label, b"real");
        let out = e
            .run_until(max_steps, |e| {
                e.protocol(1).payloads().any(|p| p == b"real")
            })
            .unwrap();
        assert!(out.satisfied, "queue must not wedge on a bad label");
        for i in 0..e.cohort() {
            assert!(
                overheard(e.protocol(i))
                    .iter()
                    .all(|m| m.payload != b"void"),
                "robot {i} decoded the dropped message"
            );
        }
    }

    const TRIANGLE: [Point; 3] = [
        Point::new(0.0, 0.0),
        Point::new(10.0, 0.0),
        Point::new(0.0, 10.0),
    ];

    /// The view of the robot at `pts[0]`; `ids[k]` is robot `k`'s
    /// visible identifier, if any.
    fn view(pts: &[Point], ids: &[Option<u32>]) -> View {
        let observed = |k: usize| Observed {
            position: pts[k],
            id: ids.get(k).copied().flatten().map(VisibleId::new),
        };
        View::new(observed(0), (1..pts.len()).map(observed).collect(), 1.0)
    }

    fn geometry(kappa: bool) -> SwarmGeometry {
        SwarmGeometry::build(&view(&TRIANGLE, &[]), NamingScheme::ByLex, kappa).unwrap()
    }

    /// Drains `mailbox` through [`SwarmMailbox::next_message`].
    fn sent(mailbox: &mut SwarmMailbox) -> Vec<(usize, Vec<u8>)> {
        std::iter::from_fn(|| mailbox.next_message()).collect()
    }

    #[test]
    fn mailbox_resolves_labels_ids_and_broadcasts() {
        let mut mailbox = SwarmMailbox::new(NamingScheme::ById, false);
        let ids = [Some(7), Some(3), Some(9)];
        let g = mailbox.prepare(&view(&TRIANGLE, &ids)).unwrap().clone();
        mailbox.post(Dest::Label(1), b"label");
        mailbox.post(Dest::Id(VisibleId::new(9)), b"id");
        mailbox.post(Dest::Broadcast, b"all");
        let home_of_9 = (0..3)
            .find(|&h| g.id_of(h) == Some(VisibleId::new(9)))
            .unwrap();
        assert_eq!(
            sent(&mut mailbox),
            vec![
                (g.slice_for_label(1), b"label".to_vec()),
                (g.slice_for_label(g.label_for(0, home_of_9)), b"id".to_vec()),
                (g.slice_for_label(g.label_for(0, 0)), b"all".to_vec()),
            ]
        );
        assert!(mailbox.is_drained());
    }

    #[test]
    fn mailbox_drops_unresolvable_destinations_in_queue_order() {
        let mut mailbox = SwarmMailbox::new(NamingScheme::ById, false);
        mailbox.post(Dest::Label(0), b"a");
        mailbox.post(Dest::Label(3), b"beyond the cohort");
        mailbox.post(Dest::Id(VisibleId::new(4)), b"unknown id");
        mailbox.post(Dest::Label(2), b"b");
        // Nothing resolves, and nothing is dropped, before t0.
        assert_eq!(mailbox.next_message(), None);
        let g = mailbox
            .prepare(&view(&TRIANGLE, &[Some(1), Some(2), Some(3)]))
            .unwrap()
            .clone();
        assert_eq!(
            sent(&mut mailbox),
            vec![
                (g.slice_for_label(0), b"a".to_vec()),
                (g.slice_for_label(2), b"b".to_vec()),
            ]
        );
    }

    #[test]
    fn mailbox_frames_each_message_bit_by_bit() {
        let mut mailbox = SwarmMailbox::new(NamingScheme::ByLex, false);
        let g = mailbox.prepare(&view(&TRIANGLE, &[])).unwrap().clone();
        mailbox.post(Dest::Label(9), b"dropped");
        mailbox.post(Dest::Label(1), b"x");
        mailbox.post(Dest::Label(2), b"");
        let mut bits = Vec::new();
        while let Some((slice, bit)) = mailbox.next_bit() {
            bits.push((slice, bit));
        }
        let expect: Vec<_> = (encode_frame(b"x").iter())
            .map(|b| (g.slice_for_label(1), b))
            .chain(encode_frame(b"").iter().map(|b| (g.slice_for_label(2), b)))
            .collect();
        assert_eq!(bits, expect);
        assert!(mailbox.is_drained());
    }

    #[test]
    fn mailbox_builds_the_geometry_once() {
        let mut mailbox = SwarmMailbox::new(NamingScheme::ByLex, true);
        let first = mailbox.prepare(&view(&TRIANGLE, &[])).unwrap().clone();
        assert!(first.has_kappa());
        let moved = [
            Point::new(1.0, 1.0),
            Point::new(30.0, 0.0),
            Point::new(0.0, -7.0),
        ];
        assert_eq!(mailbox.prepare(&view(&moved, &[])), Some(&first));
        assert_eq!(mailbox.geometry(), Some(&first));
        assert_eq!(mailbox.init_error(), None);
    }

    #[test]
    fn mailbox_keeps_the_preprocessing_error() {
        // The observer sits at the SEC centre: SEC naming is undefined.
        let degenerate = [
            Point::new(0.0, 0.0),
            Point::new(0.0, 5.0),
            Point::new(0.0, -5.0),
        ];
        let mut mailbox = SwarmMailbox::new(NamingScheme::BySec, false);
        mailbox.post(Dest::Broadcast, b"never");
        assert_eq!(mailbox.prepare(&view(&degenerate, &[])), None);
        let error = mailbox.init_error().cloned().expect("preprocessing failed");
        // A later, well-formed view does not retry.
        assert_eq!(mailbox.prepare(&view(&TRIANGLE, &[])), None);
        assert_eq!(mailbox.init_error(), Some(&error));
        assert_eq!(mailbox.next_message(), None);
        assert!(!mailbox.is_drained(), "the message stays queued");
    }

    /// A classify result spelled exactly: `Debug` prints each float's
    /// shortest round-trip form, so `-0.0` and `0.0` differ.
    fn exact(c: Option<(usize, SliceZone)>) -> String {
        format!("{c:?}")
    }

    /// Runs `memo` over `view`, checks every result against a fresh
    /// [`SwarmGeometry::classify`], and returns how many it computed.
    fn memo_misses(memo: &mut ClassifyMemo, g: &SwarmGeometry, view: &View) -> usize {
        let mut misses = 0;
        let peers = memo.classify(view, |p| {
            misses += 1;
            g.classify(p)
        });
        assert_eq!(peers.len(), view.others().len());
        for (&(p, classified), o) in peers.iter().zip(view.others()) {
            assert!(same_bits(p, o.position));
            assert_eq!(exact(classified), exact(g.classify(p)), "{p}");
        }
        misses
    }

    #[test]
    fn memo_hits_return_the_recomputed_zones() {
        let g = geometry(false);
        let kb = g.keyboard(1).clone();
        let on_slice = kb.target(1, SliceSide::One, 0.5).unwrap();
        let off_slice = kb.center() + (on_slice - kb.center()).perp_cw() * 0.3;
        let far = Point::new(500.0, 500.0);
        let mut memo = ClassifyMemo::default();
        let at = |peers: &[Point]| {
            let mut pts = vec![TRIANGLE[0]];
            pts.extend_from_slice(peers);
            view(&pts, &[])
        };
        let first = at(&[on_slice, TRIANGLE[2], far]);
        assert_eq!(memo_misses(&mut memo, &g, &first), 3);
        assert_eq!(memo_misses(&mut memo, &g, &first), 0, "nobody moved");
        // One peer moves; a dropout hides another; the third stays.
        assert_eq!(memo_misses(&mut memo, &g, &at(&[off_slice, far])), 1);
        // The hidden peer reappears: only the previous view is kept.
        assert_eq!(
            memo_misses(&mut memo, &g, &at(&[off_slice, TRIANGLE[2], far])),
            1
        );
    }

    #[test]
    fn memo_keys_a_negative_zero_twin_apart() {
        let g = geometry(false);
        let mut memo = ClassifyMemo::default();
        let plus = view(&[TRIANGLE[0], TRIANGLE[1], Point::new(0.0, 10.0)], &[]);
        let minus = view(&[TRIANGLE[0], TRIANGLE[1], Point::new(-0.0, 10.0)], &[]);
        assert_eq!(memo_misses(&mut memo, &g, &plus), 2);
        assert_eq!(memo_misses(&mut memo, &g, &minus), 1, "-0.0 is a new key");
        assert_eq!(memo_misses(&mut memo, &g, &plus), 1, "and so is 0.0 again");
    }

    #[test]
    fn signals_accumulate_into_messages() {
        let g = geometry(false);
        let mut streams = MessageStreams::default();
        // Sender: home 1; addressee: home 0 (me). Label of home 0:
        let label_me = g.label_for(1, 0);
        let slice = g.slice_for_label(label_me);
        let bits: Vec<Bit> = encode_frame(b"ok").iter().collect();
        let (last, body) = bits.split_last().expect("a frame has bits");
        for bit in body {
            streams.on_signal(&g, 1, slice, SliceSide::from_bit(bit.as_bool()));
        }
        assert!(streams.overheard().is_empty(), "the frame is not done yet");
        streams.on_signal(&g, 1, slice, SliceSide::from_bit(last.as_bool()));
        let [msg] = streams.overheard() else {
            panic!("the last bit completes the frame");
        };
        assert_eq!(msg.sender, 1);
        assert_eq!(msg.dest, 0);
        assert_eq!(msg.payload, b"ok");
        assert_eq!(
            streams.inbox(),
            &[InboxEntry {
                sender: 1,
                payload: b"ok".to_vec()
            }]
        );
        assert!(streams.decoders.values().all(|d| d.pending_bits() == 0));
    }

    #[test]
    fn messages_for_others_are_overheard_only() {
        let g = geometry(false);
        let mut streams = MessageStreams::default();
        // Sender home 1 → dest home 2.
        let slice = g.slice_for_label(g.label_for(1, 2));
        for bit in encode_frame(b"x").iter() {
            streams.on_signal(&g, 1, slice, SliceSide::from_bit(bit.as_bool()));
        }
        assert!(streams.inbox().is_empty());
        assert_eq!(streams.overheard().len(), 1);
        assert_eq!(streams.overheard()[0].dest, 2);
    }

    #[test]
    fn interleaved_senders_keep_separate_streams() {
        let g = geometry(false);
        let mut streams = MessageStreams::default();
        let s1 = g.slice_for_label(g.label_for(1, 0));
        let s2 = g.slice_for_label(g.label_for(2, 0));
        let b1 = encode_frame(b"from1");
        let b2 = encode_frame(b"from2");
        // Interleave bit-by-bit.
        for i in 0..b1.len().max(b2.len()) {
            if let Some(bit) = b1.get(i) {
                streams.on_signal(&g, 1, s1, SliceSide::from_bit(bit.as_bool()));
            }
            if let Some(bit) = b2.get(i) {
                streams.on_signal(&g, 2, s2, SliceSide::from_bit(bit.as_bool()));
            }
        }
        let mut senders: Vec<usize> = streams.inbox().iter().map(|e| e.sender).collect();
        senders.sort_unstable();
        assert_eq!(senders, vec![1, 2]);
    }

    #[test]
    fn kappa_signals_are_ignored() {
        let g = geometry(true);
        let mut streams = MessageStreams::default();
        streams.on_signal(&g, 1, 0, SliceSide::Zero);
        assert!(streams.overheard().is_empty());
        assert!(streams.decoders.values().all(|d| d.pending_bits() == 0));
    }

    #[test]
    fn zone_tracker_reports_entries_only() {
        let g = geometry(true);
        let mut tracker = ZoneTracker::new();
        let kb = g.keyboard(1).clone();
        let home = kb.center();

        // First observation at home: no event, zone Center.
        assert_eq!(tracker.observe(&g, 1, home), None);
        assert_eq!(tracker.last[1], Some(ZoneKey::Center));

        // Move out on addressing slice 2, zero side: event.
        let out = kb.target(2, SliceSide::Zero, 0.5).unwrap();
        assert_eq!(tracker.observe(&g, 1, out), Some((2, SliceSide::Zero)));

        // Further out on the same half-slice: no new event.
        let further = kb.target(2, SliceSide::Zero, 0.7).unwrap();
        assert_eq!(tracker.observe(&g, 1, further), None);

        // Back to centre, then out again: a new event.
        assert_eq!(tracker.observe(&g, 1, home), None);
        assert_eq!(tracker.observe(&g, 1, out), Some((2, SliceSide::Zero)));
    }

    #[test]
    fn zone_tracker_ignores_kappa_walks() {
        let g = geometry(true);
        let mut tracker = ZoneTracker::new();
        let kb = g.keyboard(2).clone();
        assert_eq!(tracker.observe(&g, 2, kb.center()), None);
        // κ is slice 0 when kappa is on.
        let on_kappa = kb.target(0, SliceSide::Zero, 0.3).unwrap();
        assert_eq!(tracker.observe(&g, 2, on_kappa), None);
        let further = kb.target(0, SliceSide::Zero, 0.4).unwrap();
        assert_eq!(tracker.observe(&g, 2, further), None);
        // Entering an addressing slice afterwards still fires.
        let out = kb.target(1, SliceSide::One, 0.5).unwrap();
        assert_eq!(tracker.observe(&g, 2, out), Some((1, SliceSide::One)));
    }

    #[test]
    fn side_changes_on_same_slice_are_events() {
        // zero→one side on the same diameter is a different half-slice: a
        // distinct signal (senders interpose κ/centre anyway, but the
        // tracker must not conflate the two sides).
        let g = geometry(true);
        let mut tracker = ZoneTracker::new();
        let kb = g.keyboard(1).clone();
        tracker.observe(&g, 1, kb.center());
        let zero = kb.target(1, SliceSide::Zero, 0.5).unwrap();
        let one = kb.target(1, SliceSide::One, 0.5).unwrap();
        assert!(tracker.observe(&g, 1, zero).is_some());
        assert_eq!(tracker.observe(&g, 1, one), Some((1, SliceSide::One)));
    }
}
