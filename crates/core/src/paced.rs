//! Paced multi-symbol signalling with forward error correction.
//!
//! [`Sync2`](crate::sync2::Sync2) and the swarm protocols alternate signal
//! and return instants by each robot's *own activation parity* — sound in
//! the synchronous regime, but under an adversarial fair scheduler the
//! sender's signal instants and the receiver's observation instants drift
//! apart and the channel collapses (the conformance sweeps show exactly
//! that: zero delivery in every adversarial sync cell). The *paced*
//! discipline here re-derives the §3.1 byte optimisation so it survives
//! activation skew and lossy movement:
//!
//! * **Symbols are magnitudes.** Each symbol is one of `L` quantized
//!   excursion magnitudes (`log2 L` bits), per
//!   [`MagnitudeAlphabet`]. The excursion *side* carries no data — it
//!   alternates with the symbol index, so a receiver can delimit symbols
//!   without sharing a clock with the sender, and an unexpected side
//!   parity reveals a missed symbol as an *erasure*.
//! * **Dwell pacing.** The sender holds every symbol for `dwell` of its
//!   own activations, re-targeting the same excursion point. Any fair
//!   scheduler whose activation gap is below the dwell shows each symbol
//!   to the receiver at least once; non-rigid truncated moves converge
//!   geometrically onto the target inside one dwell.
//! * **Monotone decoding.** Within one side-run the receiver keeps the
//!   *largest* magnitude it saw: truncated moves approach the target from
//!   below and transitional samples shrink toward home, so the maximum is
//!   always the most-converged sample. Silence (below the alphabet's
//!   threshold) never commits anything.
//! * **FEC instead of retransmission.** With [`CodingSpec::Fec`]-style
//!   configs the symbol stream carries a systematic Hamming(7,4) code
//!   ([`SymbolFec`]): one corrupted symbol or one erasure per block is
//!   repaired in place. The CRC-8 trailer stays on as the backstop — a
//!   frame beyond the correction radius is *rejected, never silently
//!   misdelivered*.
//!
//! A message ends with a **terminator** symbol (maximal level, next side
//! in the alternation) that forces the final data symbol's commit, then a
//! long silent *gap* at home. The receiver treats silence as real only
//! when *sustained* (a truncated move can strand the sender below the
//! decoding threshold for a few instants mid-transition), and the gap is
//! sized so every bounded-gap fair schedule shows the receiver a
//! sustained-silence window between messages — that window re-arms the
//! decoder and keeps back-to-back messages aligned.
//!
//! [`CodingSpec::Fec`]: stigmergy_scheduler::CodingSpec::Fec

use crate::decode::{Dest, InboxEntry, OverheardEntry, SwarmMailbox};
use crate::preprocess::{NamingScheme, SwarmGeometry};
use crate::session::Chat;
use crate::sync2::PairFrame;
use std::collections::{BTreeMap, VecDeque};
use stigmergy_coding::alphabet::MagnitudeAlphabet;
use stigmergy_coding::checksum::{protect, verify};
use stigmergy_coding::fec::{SymbolFec, BLOCK_LEN};
use stigmergy_coding::framing::{self, encode_frame, FrameDecoder};
use stigmergy_coding::{Bit, CodingError};
use stigmergy_geometry::granular::{SliceSide, SliceZone};
use stigmergy_geometry::Point;
use stigmergy_robots::{MovementProtocol, View, VisibleId};

/// The fraction of the granular radius a maximal swarm excursion uses —
/// the same headroom as the synchronous swarm protocols, so collision
/// freedom is inherited unchanged.
const SIGNAL_FRACTION: f64 = 0.5;

/// Consecutive silent observations that count as *real* silence.
///
/// A non-rigid truncated move can strand a sender inside the silence band
/// while crossing sides; the crossing makes geometric progress (≥ the
/// fault plan's δ of the remaining distance per move), so it spends at
/// most ~4 moves in the band, and each move stalls at most the
/// scheduler's activation gap (≤ 8 across the conformance schedules) —
/// at most ~32 transient silences in a row. Sustained silence must
/// out-last that.
const SILENCE_RESET_RUN: u32 = 34;

/// Own-activations a sender parks at home after each message.
///
/// Every conformance schedule activates each robot at least once per 8
/// instants, so `280 ≥ 34 × 8` guarantees the receiver a
/// [`SILENCE_RESET_RUN`]-long silence window in every gap.
const GAP_ACTIVATIONS: u32 = 280;

/// Channel parameters for the paced protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacedConfig {
    alphabet: MagnitudeAlphabet,
    dwell: u32,
    fec: bool,
}

impl PacedConfig {
    /// A config with `levels` magnitude levels (a power of two, so each
    /// symbol carries a whole number of bits), `dwell` own-activations
    /// per symbol, and optional FEC.
    ///
    /// # Errors
    ///
    /// [`CodingError::AlphabetTooSmall`] unless `levels` is a power of
    /// two and at least 2, or if `dwell` is zero (reported with the
    /// offending value, since a zero dwell cannot pace anything).
    pub fn new(levels: usize, dwell: u32, fec: bool) -> Result<Self, CodingError> {
        if dwell == 0 {
            return Err(CodingError::AlphabetTooSmall { got: 0 });
        }
        Ok(Self {
            alphabet: MagnitudeAlphabet::new(levels)?,
            dwell,
            fec,
        })
    }

    /// The magnitude alphabet in use.
    #[must_use]
    pub fn alphabet(&self) -> MagnitudeAlphabet {
        self.alphabet
    }

    /// Own-activations spent holding each symbol.
    #[must_use]
    pub fn dwell(&self) -> u32 {
        self.dwell
    }

    /// Whether the symbol stream is FEC-protected.
    #[must_use]
    pub fn has_fec(&self) -> bool {
        self.fec
    }

    fn fec_codec(&self) -> Option<SymbolFec> {
        self.fec
            .then(|| SymbolFec::new(self.alphabet.bits_per_symbol() as u32))
    }

    /// The data symbols of one message: CRC-protected, length-framed,
    /// packed into magnitude words, FEC-expanded when enabled.
    fn symbols_for(&self, payload: &[u8]) -> Vec<u16> {
        let bits = encode_frame(&protect(payload));
        let words = self.alphabet.pack(&bits);
        match self.fec_codec() {
            Some(codec) => codec.encode(&words).expect("packed words fit the width"),
            None => words,
        }
    }

    /// Own activations a sender spends on one `payload` message: each
    /// data symbol and the terminator held for `dwell`, then the silent
    /// gap at home. The job ticks on every activation of the sender,
    /// whatever it observes, so with nothing else queued
    /// [`Paced2::is_drained`] and [`PacedSwarm::is_drained`] first hold
    /// after this many activations, counted from the one that starts the
    /// message.
    #[must_use]
    pub fn sender_activations(&self, payload: &[u8]) -> u64 {
        let symbols = self.symbols_for(payload).len() as u64;
        (symbols + 1) * u64::from(self.dwell) + u64::from(GAP_ACTIVATIONS)
    }

    /// The terminator level: maximal magnitude, for the strongest
    /// possible final side flip.
    fn terminator_level(&self) -> u16 {
        (self.alphabet.size() - 1) as u16
    }
}

/// One observation of a sender, already quantized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observation {
    /// The sender is (near) home: no symbol on the wire.
    Silence,
    /// An excursion: which side of the alternation and what magnitude.
    Symbol { parity: u8, level: u16 },
}

/// What a committed symbol did to the frame assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SinkEvent {
    /// Still mid-frame.
    Quiet,
    /// A frame completed and passed the checksum.
    Message(Vec<u8>),
    /// The frame is lost (uncorrectable block, erasure without FEC, or
    /// checksum failure): drain to the next silence.
    Abort,
}

/// Frame assembly for one sender: FEC blocks → words → bits → frames.
#[derive(Debug, Clone)]
struct SymbolSink {
    width: usize,
    fec: Option<SymbolFec>,
    block: Vec<Option<u16>>,
    decoder: FrameDecoder,
    corrected: u64,
    rejected: u64,
}

impl SymbolSink {
    fn new(config: &PacedConfig) -> Self {
        Self {
            width: config.alphabet.bits_per_symbol(),
            fec: config.fec_codec(),
            block: Vec::with_capacity(BLOCK_LEN),
            decoder: FrameDecoder::new(),
            corrected: 0,
            rejected: 0,
        }
    }

    fn dirty(&self) -> bool {
        !self.block.is_empty() || self.decoder.pending_bits() > 0
    }

    fn reset(&mut self) {
        self.block.clear();
        self.decoder = FrameDecoder::new();
    }

    /// Commits one symbol (`None` = erasure) into the assembly.
    fn push_symbol(&mut self, symbol: Option<u16>) -> SinkEvent {
        match self.fec {
            Some(codec) => {
                self.block.push(symbol);
                if self.block.len() < BLOCK_LEN {
                    return SinkEvent::Quiet;
                }
                let block: [Option<u16>; BLOCK_LEN] =
                    self.block.as_slice().try_into().expect("block is full");
                self.block.clear();
                let Some(decoded) = codec.decode_block(&block) else {
                    self.rejected += 1;
                    self.reset();
                    return SinkEvent::Abort;
                };
                self.corrected += u64::from(decoded.corrected);
                for word in decoded.data {
                    match self.feed_word(word) {
                        SinkEvent::Quiet => {}
                        terminal => return terminal,
                    }
                }
                SinkEvent::Quiet
            }
            None => match symbol {
                Some(word) => self.feed_word(word),
                None => {
                    // No FEC: a missed symbol is unrecoverable.
                    self.rejected += 1;
                    self.reset();
                    SinkEvent::Abort
                }
            },
        }
    }

    /// Unpacks one word's bits into the frame decoder.
    fn feed_word(&mut self, word: u16) -> SinkEvent {
        for i in (0..self.width).rev() {
            let bit = Bit::from_bool(word & (1 << i) != 0);
            if let Some(protected) = self.decoder.push_bit(bit) {
                // Remaining bits of this word (and block) are padding.
                self.reset();
                return match verify(&protected) {
                    Ok(payload) => SinkEvent::Message(payload),
                    Err(_) => {
                        self.rejected += 1;
                        SinkEvent::Abort
                    }
                };
            }
        }
        SinkEvent::Quiet
    }
}

/// Symbol delimiting for one sender: side-runs, erasure insertion, and
/// the sustained-silence re-arm.
#[derive(Debug, Clone, Copy, Default)]
struct RunTracker {
    /// Index of the next symbol to commit (its expected parity is
    /// `index % 2`).
    index: u64,
    /// The open run: side parity and the largest magnitude seen.
    run: Option<(u8, u16)>,
    /// Ignoring everything until the next sustained silence.
    draining: bool,
    /// Consecutive silent observations so far.
    silence_run: u32,
}

impl RunTracker {
    /// Feeds one observation; returns a completed, checksum-verified
    /// payload if this observation finished a frame.
    fn observe(&mut self, sink: &mut SymbolSink, obs: Observation) -> Option<Vec<u8>> {
        match obs {
            Observation::Silence => {
                self.silence_run = self.silence_run.saturating_add(1);
                if self.silence_run >= SILENCE_RESET_RUN {
                    // Real quiescence: the sender is parked in its gap.
                    // Re-arm (or, if a frame was abandoned mid-flight,
                    // reject it) — idempotent once clean.
                    if self.draining {
                        self.draining = false;
                    } else if self.run.is_some() || sink.dirty() {
                        sink.rejected += 1;
                    }
                    sink.reset();
                    self.run = None;
                    self.index = 0;
                }
                None
            }
            Observation::Symbol { parity, level } => {
                self.silence_run = 0;
                if self.draining {
                    return None;
                }
                match self.run {
                    Some((p, seen)) if p == parity => {
                        // Same run: moves only ever converge toward the
                        // target, so the largest sample is the truest.
                        self.run = Some((p, seen.max(level)));
                        None
                    }
                    Some((p, seen)) => {
                        // Side flip: the previous symbol is final.
                        let committed = self.commit(sink, p, seen);
                        if !self.draining {
                            self.run = Some((parity, level));
                        }
                        committed
                    }
                    None => {
                        if parity != (self.index % 2) as u8 {
                            // The very first symbol was missed entirely.
                            self.absorb(sink.push_symbol(None));
                            self.index += 1;
                        }
                        if !self.draining {
                            self.run = Some((parity, level));
                        }
                        None
                    }
                }
            }
        }
    }

    /// Commits a finished run, inserting a parity erasure if a whole
    /// symbol went missing in between.
    fn commit(&mut self, sink: &mut SymbolSink, parity: u8, level: u16) -> Option<Vec<u8>> {
        self.run = None;
        if parity != (self.index % 2) as u8 {
            if let Some(msg) = self.absorb(sink.push_symbol(None)) {
                return Some(msg);
            }
            self.index += 1;
            if self.draining {
                return None;
            }
        }
        let event = sink.push_symbol(Some(level));
        self.index += 1;
        self.absorb(event)
    }

    /// Applies a sink event to the drain state.
    fn absorb(&mut self, event: SinkEvent) -> Option<Vec<u8>> {
        match event {
            SinkEvent::Quiet => None,
            SinkEvent::Message(payload) => {
                self.draining = true;
                self.run = None;
                Some(payload)
            }
            SinkEvent::Abort => {
                self.draining = true;
                self.run = None;
                None
            }
        }
    }
}

/// The sender side: one message in flight, paced symbol by symbol.
#[derive(Debug, Clone)]
struct SendJob {
    /// Data symbols, already framed/packed/FEC-expanded. The slot at
    /// `symbols.len()` is the terminator; one past it is the silent gap.
    symbols: Vec<u16>,
    /// For the swarm: the keyboard slice carrying this message.
    slice: usize,
    /// Current slot.
    at: usize,
    /// Activations left in the current slot.
    left: u32,
}

impl SendJob {
    fn new(symbols: Vec<u16>, slice: usize, config: &PacedConfig) -> Self {
        Self {
            symbols,
            slice,
            at: 0,
            left: config.dwell,
        }
    }

    /// Spends one sender activation on the job in `slot`. Returns the
    /// excursion to hold — the job's slice, whether it is on the one
    /// side, and its fraction of a full excursion — or `None` in the
    /// silent gap or with no job. A symbol's first activation counts in
    /// `signals_sent`; the slot empties when the gap is over.
    fn advance(
        slot: &mut Option<Self>,
        config: &PacedConfig,
        signals_sent: &mut u64,
    ) -> Option<(usize, bool, f64)> {
        let job = slot.as_mut()?;
        let fresh = job.left == config.dwell;
        let excursion = job.current(config).map(|(level, parity)| {
            if fresh {
                *signals_sent += 1;
            }
            let fraction = config
                .alphabet
                .fraction(usize::from(level))
                .expect("queued symbols are in range");
            (job.slice, parity != 0, fraction)
        });
        if !job.tick(config) {
            *slot = None;
        }
        excursion
    }

    /// The symbol and side parity of the current slot, or `None` in the
    /// gap.
    fn current(&self, config: &PacedConfig) -> Option<(u16, u8)> {
        let parity = (self.at % 2) as u8;
        match self.at.cmp(&self.symbols.len()) {
            std::cmp::Ordering::Less => Some((self.symbols[self.at], parity)),
            std::cmp::Ordering::Equal => Some((config.terminator_level(), parity)),
            std::cmp::Ordering::Greater => None,
        }
    }

    /// Advances the dwell clock; returns `false` when the job (including
    /// its trailing gap) is over.
    fn tick(&mut self, config: &PacedConfig) -> bool {
        self.left -= 1;
        if self.left == 0 {
            self.at += 1;
            self.left = if self.at == self.symbols.len() + 1 {
                GAP_ACTIVATIONS
            } else {
                config.dwell
            };
        }
        self.at <= self.symbols.len() + 1
    }
}

/// The paced two-robot protocol: [`Sync2`](crate::sync2::Sync2)'s
/// geometry with multi-symbol pacing and optional FEC. Works under any
/// fair schedule whose activation gap stays below the dwell.
#[derive(Debug, Clone)]
pub struct Paced2 {
    config: PacedConfig,
    /// Unset until the first two-robot activation; `Some(None)` if the
    /// peer was hidden then.
    frame: Option<Option<PairFrame>>,
    queue: VecDeque<Vec<u16>>,
    job: Option<SendJob>,
    tracker: RunTracker,
    sink: SymbolSink,
    inbox: Vec<Vec<u8>>,
    signals_sent: u64,
}

impl Paced2 {
    /// Creates an idle instance with the given channel parameters.
    #[must_use]
    pub fn new(config: PacedConfig) -> Self {
        Self {
            sink: SymbolSink::new(&config),
            config,
            frame: None,
            queue: VecDeque::new(),
            job: None,
            tracker: RunTracker::default(),
            inbox: Vec::new(),
            signals_sent: 0,
        }
    }

    /// The channel parameters.
    #[must_use]
    pub fn config(&self) -> PacedConfig {
        self.config
    }

    /// Queues a message for the peer.
    pub fn send(&mut self, payload: &[u8]) {
        self.queue.push_back(self.config.symbols_for(payload));
    }

    /// Messages received so far, in order.
    #[must_use]
    pub fn inbox(&self) -> &[Vec<u8>] {
        &self.inbox
    }

    /// Whether all queued traffic has been put on the wire.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.job.is_none()
    }

    /// Symbols put on the wire so far (terminators included).
    #[must_use]
    pub fn signals_sent(&self) -> u64 {
        self.signals_sent
    }

    /// FEC blocks repaired while receiving.
    #[must_use]
    pub fn fec_corrected(&self) -> u64 {
        self.sink.corrected
    }

    /// Frames lost to uncorrectable blocks, erasures without FEC, or
    /// checksum failures.
    #[must_use]
    pub fn fec_rejected(&self) -> u64 {
        self.sink.rejected
    }

    fn decode_peer(&mut self, frame: &PairFrame, peer_pos: Point) {
        let u = (peer_pos - frame.peer_home).dot(frame.peer_right);
        let fraction = u.abs() / frame.lateral_step;
        let obs = match self.config.alphabet.classify(fraction) {
            None => Observation::Silence,
            Some(level) => Observation::Symbol {
                parity: u8::from(u < 0.0),
                level: level as u16,
            },
        };
        if let Some(payload) = self.tracker.observe(&mut self.sink, obs) {
            self.inbox.push(payload);
        }
    }

    fn sender_target(&mut self, frame: &PairFrame) -> Point {
        if self.job.is_none() {
            let config = &self.config;
            self.job = self
                .queue
                .pop_front()
                .map(|symbols| SendJob::new(symbols, 0, config));
        }
        match SendJob::advance(&mut self.job, &self.config, &mut self.signals_sent) {
            Some((_, one_side, fraction)) => frame.excursion(one_side, fraction),
            None => frame.home, // idle, or the silent gap
        }
    }
}

impl MovementProtocol for Paced2 {
    fn on_activate(&mut self, view: &View) -> Point {
        // Any other cohort size is a spec error: freeze rather than
        // mis-signal (as Sync2 does).
        let Some(frame) = PairFrame::fix(&mut self.frame, view) else {
            return view.own_position();
        };
        // Decode on *every* activation — pacing, not activation parity,
        // delimits symbols.
        if let Some(peer) = view.others().first() {
            self.decode_peer(&frame, peer.position);
        }
        self.sender_target(&frame)
    }
}

impl Chat for Paced2 {
    // `symbols_for` frames the payload with its CRC-8 byte.
    const MAX_PAYLOAD: usize = framing::MAX_PAYLOAD - 1;
    fn queue(&mut self, _label: usize, payload: &[u8]) {
        self.send(payload);
    }
    fn queue_broadcast(&mut self, payload: &[u8]) {
        self.send(payload);
    }
    fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.inbox().iter().map(Vec::as_slice)
    }
    fn fec_stats(&self) -> (u64, u64) {
        (self.fec_corrected(), self.fec_rejected())
    }
}

/// Per-sender receive state.
#[derive(Debug, Clone)]
struct SenderState {
    tracker: RunTracker,
    sink: SymbolSink,
    /// The keyboard slice the current message rides on (= addressee).
    slice: usize,
}

/// The paced swarm protocol: the synchronous swarm keyboard (labelled
/// granular diameters) driven by the paced multi-symbol discipline. The
/// addressee is still chosen by *slice*; the excursion *magnitude* now
/// carries `log2 L` bits per symbol and the side paces the stream.
#[derive(Debug, Clone)]
pub struct PacedSwarm {
    config: PacedConfig,
    mailbox: SwarmMailbox,
    job: Option<SendJob>,
    senders: BTreeMap<usize, SenderState>,
    signals_sent: u64,
}

impl PacedSwarm {
    /// Routes by `scheme`; the named constructors below pick one each.
    #[must_use]
    pub fn with_scheme(scheme: NamingScheme, config: PacedConfig) -> Self {
        Self {
            config,
            mailbox: SwarmMailbox::new(scheme, false),
            job: None,
            senders: BTreeMap::new(),
            signals_sent: 0,
        }
    }

    /// Paced P2 (§3.2): route by observable-ID order.
    #[must_use]
    pub fn routed(config: PacedConfig) -> Self {
        Self::with_scheme(NamingScheme::ById, config)
    }

    /// Paced P3 (§3.3): route by lexicographic position order.
    #[must_use]
    pub fn anonymous_with_direction(config: PacedConfig) -> Self {
        Self::with_scheme(NamingScheme::ByLex, config)
    }

    /// Paced P4 (§3.4): route by SEC radial order.
    #[must_use]
    pub fn anonymous(config: PacedConfig) -> Self {
        Self::with_scheme(NamingScheme::BySec, config)
    }

    /// Queues a message for the robot labelled `dest_label` under this
    /// robot's naming.
    pub fn send_label(&mut self, dest_label: usize, payload: &[u8]) {
        self.mailbox.post(Dest::Label(dest_label), payload);
    }

    /// Queues a message for the robot with visible identifier `dest`.
    pub fn send_id(&mut self, dest: VisibleId, payload: &[u8]) {
        self.mailbox.post(Dest::Id(dest), payload);
    }

    /// Queues a broadcast to every robot.
    pub fn send_broadcast(&mut self, payload: &[u8]) {
        self.mailbox.post(Dest::Broadcast, payload);
    }

    /// Messages addressed to this robot, in arrival order.
    #[must_use]
    pub fn inbox(&self) -> &[InboxEntry] {
        self.mailbox.streams().inbox()
    }

    /// Every message this robot decoded, including other pairs' traffic.
    #[must_use]
    pub fn overheard(&self) -> &[OverheardEntry] {
        self.mailbox.streams().overheard()
    }

    /// The preprocessed geometry (available after the first activation).
    #[must_use]
    pub fn geometry(&self) -> Option<&SwarmGeometry> {
        self.mailbox.geometry()
    }

    /// Whether all queued traffic has been put on the wire.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.mailbox.is_drained() && self.job.is_none()
    }

    /// Symbols put on the wire so far (terminators included).
    #[must_use]
    pub fn signals_sent(&self) -> u64 {
        self.signals_sent
    }

    /// A preprocessing failure, if the initial configuration was
    /// degenerate. Such a robot stays put forever.
    #[must_use]
    pub fn init_error(&self) -> Option<&crate::CoreError> {
        self.mailbox.init_error()
    }

    /// FEC blocks repaired across all observed senders.
    #[must_use]
    pub fn fec_corrected(&self) -> u64 {
        self.senders.values().map(|s| s.sink.corrected).sum()
    }

    /// Frames lost across all observed senders.
    #[must_use]
    pub fn fec_rejected(&self) -> u64 {
        self.senders.values().map(|s| s.sink.rejected).sum()
    }

    fn decode_snapshot(&mut self, view: &View) {
        let Some((g, streams, peers)) = self.mailbox.decoding_view(view) else {
            return;
        };
        for &(_, classified) in peers {
            let Some((home, zone)) = classified else {
                continue;
            };
            let reach = g.keyboard(home).radius() * SIGNAL_FRACTION;
            let (obs, slice) = match zone {
                SliceZone::Center => (Observation::Silence, None),
                SliceZone::OnSlice {
                    slice,
                    side,
                    distance,
                    deviation,
                } => {
                    let fraction = distance / reach;
                    match self.config.alphabet.classify(fraction) {
                        // Below the lowest level: home-adjacent = silence.
                        None => (Observation::Silence, None),
                        Some(_) if deviation > g.keyboard(home).decode_tolerance() => {
                            // A substantial excursion *off* every diameter
                            // is a transient between slices — no
                            // observation at all.
                            continue;
                        }
                        Some(level) => (
                            Observation::Symbol {
                                parity: u8::from(side.bit()),
                                level: level as u16,
                            },
                            Some(slice),
                        ),
                    }
                }
            };
            let state = self.senders.entry(home).or_insert_with(|| SenderState {
                tracker: RunTracker::default(),
                sink: SymbolSink::new(&self.config),
                slice: 0,
            });
            if let Some(slice) = slice {
                state.slice = slice;
            }
            if let Some(payload) = state.tracker.observe(&mut state.sink, obs) {
                streams.deliver(g, home, state.slice, payload);
            }
        }
    }

    fn sender_target(&mut self, home: Point) -> Point {
        if self.job.is_none() {
            let config = &self.config;
            self.job = self
                .mailbox
                .next_message()
                .map(|(slice, payload)| SendJob::new(config.symbols_for(&payload), slice, config));
        }
        let Some((slice, one_side, fraction)) =
            SendJob::advance(&mut self.job, &self.config, &mut self.signals_sent)
        else {
            return home; // idle, or the silent gap
        };
        let g = self.mailbox.geometry().expect("geometry initialized");
        g.keyboard(0)
            .target(
                slice,
                SliceSide::from_bit(one_side),
                SIGNAL_FRACTION * fraction,
            )
            .unwrap_or(home)
    }
}

impl MovementProtocol for PacedSwarm {
    fn on_activate(&mut self, view: &View) -> Point {
        let Some(home) = self.mailbox.prepare(view).map(|g| g.home(0)) else {
            return view.own_position();
        };
        self.decode_snapshot(view);
        self.sender_target(home)
    }
}

impl Chat for PacedSwarm {
    const MAX_PAYLOAD: usize = Paced2::MAX_PAYLOAD;
    fn queue(&mut self, label: usize, payload: &[u8]) {
        self.send_label(label, payload);
    }
    fn queue_broadcast(&mut self, payload: &[u8]) {
        self.send_broadcast(payload);
    }
    fn inbox_entries(&self) -> &[InboxEntry] {
        self.inbox()
    }
    fn swarm_geometry(&self) -> Option<&SwarmGeometry> {
        self.geometry()
    }
    fn failure(&self) -> Option<&crate::CoreError> {
        self.init_error()
    }
    fn fec_stats(&self) -> (u64, u64) {
        (self.fec_corrected(), self.fec_rejected())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_robots::{Capabilities, Engine};
    use stigmergy_scheduler::{FaultSpec, RoundRobin, ScheduleSpec, Synchronous, WakeAllFirst};

    fn config(levels: usize, fec: bool) -> PacedConfig {
        PacedConfig::new(levels, 10, fec).unwrap()
    }

    fn pair_engine(cfg: PacedConfig, seed: u64) -> Engine<Paced2> {
        Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(12.0, 0.0)])
            .protocols([Paced2::new(cfg), Paced2::new(cfg)])
            .schedule(Synchronous)
            .frame_seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn pair_delivers_synchronously_at_every_width() {
        for levels in [2usize, 4, 8, 16] {
            for fec in [false, true] {
                let mut e = pair_engine(config(levels, fec), 7 + levels as u64);
                e.protocol_mut(0).send(b"paced!");
                let out = e
                    .run_until(20_000, |e| !e.protocol(1).inbox().is_empty())
                    .unwrap();
                assert!(out.satisfied, "levels={levels} fec={fec}");
                assert_eq!(e.protocol(1).inbox()[0], b"paced!".to_vec());
                assert_eq!(e.protocol(1).fec_rejected(), 0);
            }
        }
    }

    #[test]
    fn pair_back_to_back_messages_stay_aligned() {
        let mut e = pair_engine(config(8, true), 21);
        e.protocol_mut(0).send(b"a");
        e.protocol_mut(0).send(b"bc");
        e.protocol_mut(0).send(b"def");
        let out = e
            .run_until(60_000, |e| e.protocol(1).inbox().len() == 3)
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(
            e.protocol(1).inbox(),
            &[b"a".to_vec(), b"bc".to_vec(), b"def".to_vec()]
        );
    }

    #[test]
    fn pair_duplex() {
        let mut e = pair_engine(config(8, true), 22);
        e.protocol_mut(0).send(b"fwd");
        e.protocol_mut(1).send(b"rev");
        let out = e
            .run_until(40_000, |e| {
                !e.protocol(0).inbox().is_empty() && !e.protocol(1).inbox().is_empty()
            })
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(1).inbox()[0], b"fwd".to_vec());
        assert_eq!(e.protocol(0).inbox()[0], b"rev".to_vec());
    }

    /// Steps `e` until `drained(sender)` holds, counting robot 0's
    /// activations; fails once `limit` of them pass without it.
    fn activations_to_drain<P: MovementProtocol>(
        e: &mut Engine<P>,
        drained: impl Fn(&P) -> bool,
        limit: u64,
    ) -> u64 {
        let mut activations = 0;
        while !drained(e.protocol(0)) {
            assert!(
                activations < limit,
                "still sending after {limit} activations"
            );
            activations += u64::from(e.step().unwrap().active.contains(0));
        }
        activations
    }

    #[test]
    fn sender_activations_is_when_the_sender_drains() {
        let payloads: [&[u8]; 5] = [b"", b"a", b"adv", b"paced!", b"twenty-four bytes, fixed"];
        for payload in payloads {
            for (levels, fec) in [(2, false), (8, false), (8, true), (16, true)] {
                let cfg = config(levels, fec);
                let want = cfg.sender_activations(payload);
                // Round-robin: the sender's activations are not instants.
                let mut pair = Engine::builder()
                    .positions([Point::new(0.0, 0.0), Point::new(14.0, 0.0)])
                    .protocols([Paced2::new(cfg), Paced2::new(cfg)])
                    .schedule(WakeAllFirst::new(RoundRobin))
                    .build()
                    .unwrap();
                pair.step().unwrap();
                pair.protocol_mut(0).send(payload);
                let got = activations_to_drain(&mut pair, Paced2::is_drained, want);
                assert_eq!(got, want, "pair: {payload:?} levels={levels} fec={fec}");

                let mut swarm = ring_engine(
                    3,
                    Capabilities::anonymous_with_direction(),
                    || PacedSwarm::anonymous_with_direction(cfg),
                    9,
                );
                swarm.step().unwrap();
                let label = label_of(&swarm, 0, 2);
                swarm.protocol_mut(0).send_label(label, payload);
                let got = activations_to_drain(&mut swarm, PacedSwarm::is_drained, want);
                assert_eq!(got, want, "swarm: {payload:?} levels={levels} fec={fec}");
            }
        }
    }

    #[test]
    fn pair_silent_when_idle() {
        let mut e = pair_engine(config(8, true), 23);
        e.run(100).unwrap();
        assert_eq!(e.trace().path_length(0), 0.0);
        assert_eq!(e.trace().path_length(1), 0.0);
        assert!(e.protocol(0).is_drained());
    }

    #[test]
    fn pair_wrong_cohort_freezes() {
        let cfg = config(4, false);
        let mut e = Engine::builder()
            .positions([
                Point::new(0.0, 0.0),
                Point::new(8.0, 0.0),
                Point::new(4.0, 6.0),
            ])
            .protocols([Paced2::new(cfg), Paced2::new(cfg), Paced2::new(cfg)])
            .build()
            .unwrap();
        e.protocol_mut(0).send(b"nope");
        e.run(60).unwrap();
        for i in 0..3 {
            assert_eq!(e.trace().path_length(i), 0.0, "robot {i} moved");
        }
    }

    #[test]
    fn pair_distance_never_decreases() {
        let mut e = pair_engine(config(16, true), 24);
        e.protocol_mut(0).send(&[0xAA, 0x55]);
        e.protocol_mut(1).send(&[0x0F, 0xF0]);
        let d0 = e.positions()[0].distance(e.positions()[1]);
        for _ in 0..2_000 {
            e.step().unwrap();
            let d = e.positions()[0].distance(e.positions()[1]);
            assert!(d >= d0 - 1e-9, "robots approached: {d} < {d0}");
        }
    }

    /// The tentpole claim: the paced channel survives the adversarial
    /// schedule × fault cells where the activation-parity protocols
    /// deliver nothing.
    #[test]
    fn pair_delivers_under_adversarial_schedules_and_faults() {
        let schedules = [
            ScheduleSpec::LaggingReceiver { max_gap: 8 },
            ScheduleSpec::Bursty {
                seed: 0x0AD5_CEDD,
                burst_len: 3,
                lull_len: 5,
            },
            ScheduleSpec::WorstCaseFair { max_gap: 6 },
        ];
        let plans = [
            FaultSpec::Dropout { prob: 0.1 },
            FaultSpec::NonRigid {
                delta: 0.35,
                prob: 0.5,
            },
        ];
        let mut delivered = 0u32;
        let mut cells = 0u32;
        for schedule in &schedules {
            for plan in &plans {
                for seed in 1..=4u64 {
                    cells += 1;
                    let fault_plan = plan.plan(0xA1 ^ seed);
                    let cfg = config(8, true);
                    let mut e = Engine::builder()
                        .positions([Point::new(0.0, 0.0), Point::new(14.0, 0.0)])
                        .protocols([Paced2::new(cfg), Paced2::new(cfg)])
                        .schedule(WakeAllFirst::new(schedule.build_faulted(2, &fault_plan)))
                        .frame_seed(0xFA01 ^ seed)
                        .record_trace(false)
                        .build()
                        .unwrap();
                    e.step().unwrap();
                    e.set_fault_plan(fault_plan);
                    e.protocol_mut(0).send(b"adv");
                    let out = e
                        .run_until(40_000, |e| {
                            e.protocol(1).inbox().iter().any(|m| m == &b"adv".to_vec())
                        })
                        .unwrap();
                    delivered += u32::from(out.satisfied);
                }
            }
        }
        // The legacy sync protocols score 0/24 on this exact matrix.
        assert!(
            delivered >= cells * 3 / 4,
            "paced channel too lossy: {delivered}/{cells}"
        );
    }

    fn ring_engine(
        n: usize,
        caps: Capabilities,
        proto: impl Fn() -> PacedSwarm,
        seed: u64,
    ) -> Engine<PacedSwarm> {
        let positions: Vec<Point> = (0..n)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
                let r = 10.0 + (k as f64) * 0.1;
                Point::new(r * theta.sin(), r * theta.cos())
            })
            .collect();
        Engine::builder()
            .positions(positions)
            .protocols((0..n).map(|_| proto()))
            .capabilities(caps)
            .schedule(Synchronous)
            .frame_seed(seed)
            .build()
            .unwrap()
    }

    fn label_of(e: &Engine<PacedSwarm>, sender: usize, target: usize) -> usize {
        let g = e.protocol(sender).geometry().expect("preprocessed");
        let world_home = e.trace().initial()[target];
        let local_home = e.frames()[sender].to_local(world_home);
        let home_idx = (0..g.cohort())
            .find(|&h| g.home(h).approx_eq(local_home))
            .expect("home present");
        g.label_for(0, home_idx)
    }

    #[test]
    fn swarm_delivery_and_overhearing() {
        let mut e = ring_engine(
            5,
            Capabilities::anonymous_with_direction(),
            || PacedSwarm::anonymous_with_direction(config(8, true)),
            31,
        );
        e.step().unwrap();
        let label = label_of(&e, 0, 3);
        e.protocol_mut(0).send_label(label, b"hello 3");
        let out = e
            .run_until(40_000, |e| {
                e.protocol(3)
                    .inbox()
                    .iter()
                    .any(|m| m.payload == b"hello 3")
            })
            .unwrap();
        assert!(out.satisfied);
        // Redundancy: bystanders decoded the traffic too.
        for observer in [1usize, 2, 4] {
            assert!(
                e.protocol(observer)
                    .overheard()
                    .iter()
                    .any(|m| m.payload == b"hello 3"),
                "robot {observer} missed the traffic"
            );
        }
        assert_eq!(e.protocol(3).fec_rejected(), 0);
    }

    #[test]
    fn swarm_broadcast_reaches_all() {
        let mut e = ring_engine(
            4,
            Capabilities::anonymous_with_direction(),
            || PacedSwarm::anonymous_with_direction(config(4, false)),
            32,
        );
        e.step().unwrap();
        e.protocol_mut(2).send_broadcast(b"to all");
        let out = e
            .run_until(60_000, |e| {
                (0..4)
                    .filter(|&i| i != 2)
                    .all(|i| e.protocol(i).inbox().iter().any(|m| m.payload == b"to all"))
            })
            .unwrap();
        assert!(out.satisfied, "broadcast not delivered to everyone");
    }

    #[test]
    fn swarm_routed_by_id() {
        let mut e = ring_engine(
            4,
            Capabilities::identified_with_direction(),
            || PacedSwarm::routed(config(8, true)),
            33,
        );
        e.step().unwrap();
        let target_id = e.ids().unwrap()[2];
        e.protocol_mut(0).send_id(target_id, b"for id");
        let out = e
            .run_until(40_000, |e| !e.protocol(2).inbox().is_empty())
            .unwrap();
        assert!(out.satisfied);
        assert_eq!(e.protocol(2).inbox()[0].payload, b"for id");
    }

    #[test]
    fn swarm_chirality_only() {
        let mut e = ring_engine(
            5,
            Capabilities::anonymous(),
            || PacedSwarm::anonymous(config(8, true)),
            34,
        );
        e.step().unwrap();
        let label = label_of(&e, 2, 0);
        e.protocol_mut(2).send_label(label, b"sec naming");
        let out = e
            .run_until(40_000, |e| {
                e.protocol(0)
                    .inbox()
                    .iter()
                    .any(|m| m.payload == b"sec naming")
            })
            .unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn swarm_stays_inside_granulars() {
        let mut e = ring_engine(
            5,
            Capabilities::anonymous_with_direction(),
            || PacedSwarm::anonymous_with_direction(config(16, true)),
            35,
        );
        e.step().unwrap();
        let label = label_of(&e, 0, 2);
        e.protocol_mut(0).send_label(label, &[0xAB, 0xCD]);
        let homes = e.trace().initial().to_vec();
        let radii: Vec<f64> = (0..5)
            .map(|i| {
                (0..5)
                    .filter(|&j| j != i)
                    .map(|j| homes[i].distance(homes[j]))
                    .fold(f64::INFINITY, f64::min)
                    / 2.0
            })
            .collect();
        for _ in 0..2_000 {
            e.step().unwrap();
            for i in 0..5 {
                let d = homes[i].distance(e.positions()[i]);
                assert!(d <= radii[i] + 1e-9, "robot {i} left its granular");
            }
        }
    }

    #[test]
    fn swarm_adversarial_bystander_crash_still_delivers() {
        // A *bystander* crash freezes one robot; the paced channel between
        // the two live endpoints keeps working (sync-swarm crash cells are
        // structurally zero under the parity protocols).
        let schedule = ScheduleSpec::LaggingReceiver { max_gap: 8 };
        let plan = FaultSpec::Crash {
            robot: 1,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        let fault_plan = plan.plan(0xB0_02 ^ 0x5EED);
        let n = 3;
        let positions: Vec<Point> = (0..n)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
                let r = 18.0 + (k as f64) * 0.1;
                Point::new(r * theta.sin(), r * theta.cos())
            })
            .collect();
        let cfg = config(8, true);
        let mut e = Engine::builder()
            .positions(positions)
            .protocols((0..n).map(|_| PacedSwarm::anonymous_with_direction(cfg)))
            .capabilities(Capabilities::anonymous_with_direction())
            .schedule(WakeAllFirst::new(schedule.build_faulted(n, &fault_plan)))
            .frame_seed(0xB0_02)
            .record_trace(false)
            .build()
            .unwrap();
        e.step().unwrap();
        e.set_fault_plan(fault_plan);
        let label = label_of(&e, 0, 2);
        e.protocol_mut(0).send_label(label, b"adv");
        let out = e
            .run_until(40_000, |e| {
                e.protocol(2).inbox().iter().any(|m| m.payload == b"adv")
            })
            .unwrap();
        assert!(out.satisfied, "bystander crash must not kill the channel");
    }

    #[test]
    fn swarm_unresolvable_label_is_dropped_not_stuck() {
        let mut e = ring_engine(
            3,
            Capabilities::anonymous_with_direction(),
            || PacedSwarm::anonymous_with_direction(config(8, true)),
            36,
        );
        e.step().unwrap();
        let good = label_of(&e, 0, 1);
        crate::decode::tests::unresolvable_label_is_dropped_not_stuck(
            &mut e,
            PacedSwarm::overheard,
            good,
            40_000,
        );
    }

    #[test]
    fn config_validation() {
        assert!(PacedConfig::new(3, 10, true).is_err());
        assert!(PacedConfig::new(0, 10, false).is_err());
        assert!(PacedConfig::new(8, 0, false).is_err());
        let c = PacedConfig::new(8, 10, true).unwrap();
        assert_eq!(c.alphabet().bits_per_symbol(), 3);
        assert_eq!(c.dwell(), 10);
        assert!(c.has_fec());
    }

    #[test]
    fn transient_silence_does_not_tear_down_a_frame() {
        let cfg = config(4, false);
        let mut sink = SymbolSink::new(&cfg);
        let mut tracker = RunTracker::default();
        tracker.observe(
            &mut sink,
            Observation::Symbol {
                parity: 0,
                level: 1,
            },
        );
        tracker.observe(
            &mut sink,
            Observation::Symbol {
                parity: 1,
                level: 2,
            },
        );
        assert!(sink.dirty());
        // A short sub-threshold stall mid-transition: no reset.
        for _ in 0..(SILENCE_RESET_RUN - 1) {
            tracker.observe(&mut sink, Observation::Silence);
        }
        assert_eq!(sink.rejected, 0);
        assert!(sink.dirty());
        // A symbol resumes the frame and clears the silence run.
        tracker.observe(
            &mut sink,
            Observation::Symbol {
                parity: 0,
                level: 3,
            },
        );
        for _ in 0..(SILENCE_RESET_RUN - 1) {
            tracker.observe(&mut sink, Observation::Silence);
        }
        assert_eq!(sink.rejected, 0);
        // Sustained silence finally rejects the abandoned frame and
        // re-arms.
        tracker.observe(&mut sink, Observation::Silence);
        assert_eq!(sink.rejected, 1);
        assert!(!sink.dirty());
        assert_eq!(tracker.index, 0);
    }

    #[test]
    fn tracker_inserts_parity_erasure_for_missed_first_symbol() {
        let cfg = config(4, true);
        // Build a valid symbol stream, then replay it with the opening
        // symbol dropped: the side-parity skew reveals the miss and FEC
        // absorbs the erasure.
        let symbols = cfg.symbols_for(b"x");
        let mut sink = SymbolSink::new(&cfg);
        let mut tracker = RunTracker::default();
        let mut message = None;
        for (i, &s) in symbols.iter().enumerate().skip(1) {
            let obs = Observation::Symbol {
                parity: (i % 2) as u8,
                level: s,
            };
            if let Some(m) = tracker.observe(&mut sink, obs) {
                message = Some(m);
            }
        }
        // Terminator flip commits the last data symbol.
        let term = Observation::Symbol {
            parity: (symbols.len() % 2) as u8,
            level: cfg.terminator_level(),
        };
        if let Some(m) = tracker.observe(&mut sink, term) {
            message = Some(m);
        }
        assert_eq!(message, Some(b"x".to_vec()));
        assert_eq!(sink.corrected, 1);
        assert_eq!(sink.rejected, 0);
    }
}
