//! High-level sessions: a message-passing network over movement signals.
//!
//! The protocols address peers by *labels* in a naming scheme, while an
//! application thinks in robot indices. [`Network`] bridges the two: it
//! owns the engine, translates indices to labels (the naming functions are
//! similarity-invariant, so labels computed from world positions agree
//! with what each robot computes in its private frame), tracks what was
//! sent, and runs the system until everything is delivered.
//!
//! A swarm names its peers:
//!
//! ```
//! use stigmergy::session::SyncNetwork;
//! use stigmergy_geometry::Point;
//!
//! let mut net = SyncNetwork::anonymous_with_direction(
//!     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(5.0, 8.0)],
//!     7,
//! )?;
//! net.send(0, 1, b"hi")?;
//! net.send(1, 2, b"there")?;
//! net.run_until_delivered(10_000)?;
//! assert_eq!(net.inbox(1), vec![(0, b"hi".to_vec())]);
//! assert_eq!(net.inbox(2), vec![(1, b"there".to_vec())]);
//! # Ok::<(), stigmergy::CoreError>(())
//! ```
//!
//! A pair is the same session with one peer each (protocol P5 here):
//!
//! ```
//! use stigmergy::async2::DriftPolicy;
//! use stigmergy::session::Network;
//! use stigmergy_geometry::Point;
//!
//! let a = Point::new(0.0, 0.0);
//! let mut pair = Network::pair(a, Point::new(10.0, 0.0), DriftPolicy::Diverge, 9)?;
//! pair.send(0, 1, b"marco")?;
//! pair.send(1, 0, b"polo")?;
//! pair.run_until_delivered(50_000)?;
//! assert_eq!(pair.inbox(1), vec![(0, b"marco".to_vec())]);
//! assert_eq!(pair.inbox(0), vec![(1, b"polo".to_vec())]);
//! # Ok::<(), stigmergy::CoreError>(())
//! ```

use crate::ack::{AdaptiveBudget, RetransmitPolicy};
use crate::async2::{Async2, DriftPolicy};
use crate::async_n::AsyncSwarm;
use crate::backup::{Channel, Delivery, Wireless};
use crate::decode::InboxEntry;
use crate::preprocess::{NamingScheme, SwarmGeometry};
use crate::sync_swarm::SyncSwarm;
use crate::CoreError;
use std::collections::BTreeMap;
use stigmergy_coding::fec::{protect_bytes, recover_bytes};
use stigmergy_geometry::Point;
use stigmergy_robots::{Engine, MovementProtocol, TraceEvent};
use stigmergy_scheduler::{FairAsync, FaultPlan, Schedule, Synchronous, WakeAllFirst};

/// What a session needs of a protocol: queue a message, read the inbox,
/// count FEC work.
///
/// Every pair and swarm protocol implements it once, in its own module.
/// [`Network`] drives pairs and swarms through it, and so does the batch
/// runner in `stigmergy-fleet`.
pub trait Chat: MovementProtocol {
    /// The longest payload one frame of this protocol carries.
    const MAX_PAYLOAD: usize = stigmergy_coding::framing::MAX_PAYLOAD;
    /// Queues `payload` for the robot labelled `label` in this robot's
    /// naming; a pair has one peer and ignores the label.
    fn queue(&mut self, label: usize, payload: &[u8]);
    /// Queues a broadcast (§5 one-to-all); a pair's one peer is everyone.
    fn queue_broadcast(&mut self, payload: &[u8]);
    /// The payloads received so far, in arrival order.
    fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.inbox_entries().iter().map(|m| m.payload.as_slice())
    }
    /// The messages received so far, each with its sender's home index in
    /// [`Chat::swarm_geometry`]. Pairs build no geometry and list none
    /// here; their messages are in [`Chat::payloads`].
    fn inbox_entries(&self) -> &[InboxEntry] {
        &[]
    }
    /// The preprocessed geometry, once built; pairs have none.
    fn swarm_geometry(&self) -> Option<&SwarmGeometry> {
        None
    }
    /// A preprocessing failure, if any.
    fn failure(&self) -> Option<&CoreError> {
        None
    }
    /// `(corrected, rejected)` FEC counters; protocols without a coded
    /// channel report zeros.
    fn fec_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// A message-passing network over movement signals, for a swarm or a
/// two-robot pair.
///
/// A swarm addresses peers through a naming scheme; a pair has one peer,
/// so its messages are queued under label 0 and every inbox entry comes
/// from the other robot.
#[derive(Debug)]
pub struct Network<P> {
    engine: Engine<P>,
    /// The swarm's naming scheme; `None` for a pair, which runs under the
    /// builder's default capabilities.
    naming: Option<NamingScheme>,
    /// Queued `(from, to, payload)` messages, each with its multiplicity.
    expectations: BTreeMap<(usize, usize, Vec<u8>), usize>,
}

/// A synchronous network (protocols P1–P4 territory).
pub type SyncNetwork = Network<SyncSwarm>;
/// An asynchronous network (protocol P6).
pub type AsyncNetwork = Network<AsyncSwarm>;

impl SyncNetwork {
    /// Anonymous robots with chirality only (§3.4 naming).
    ///
    /// # Errors
    ///
    /// Fails on degenerate configurations (coincident robots; a robot at
    /// the SEC centre surfaces on the first send/run).
    pub fn anonymous(positions: Vec<Point>, seed: u64) -> Result<Self, CoreError> {
        Self::build(
            positions,
            Some(NamingScheme::BySec),
            SyncSwarm::anonymous,
            Synchronous,
            seed,
            true,
        )
    }

    /// Anonymous robots with a common North (§3.3 naming).
    ///
    /// # Errors
    ///
    /// As [`SyncNetwork::anonymous`].
    pub fn anonymous_with_direction(positions: Vec<Point>, seed: u64) -> Result<Self, CoreError> {
        Self::build(
            positions,
            Some(NamingScheme::ByLex),
            SyncSwarm::anonymous_with_direction,
            Synchronous,
            seed,
            true,
        )
    }

    /// Identified robots with a common North (§3.2 routing).
    ///
    /// # Errors
    ///
    /// As [`SyncNetwork::anonymous`].
    pub fn identified(positions: Vec<Point>, seed: u64) -> Result<Self, CoreError> {
        Self::build(
            positions,
            Some(NamingScheme::ById),
            SyncSwarm::routed,
            Synchronous,
            seed,
            true,
        )
    }
}

impl AsyncNetwork {
    /// Anonymous asynchronous robots (§4.2) under a seeded fair scheduler.
    ///
    /// # Errors
    ///
    /// Fails on degenerate configurations.
    pub fn anonymous(positions: Vec<Point>, seed: u64) -> Result<Self, CoreError> {
        Self::anonymous_with_schedule(positions, seed, FairAsync::new(seed, 0.5, 16))
    }

    /// Anonymous asynchronous robots under a caller-supplied scheduler
    /// (wrapped so every robot wakes at `t0`, the §4.2 assumption).
    ///
    /// # Errors
    ///
    /// Fails on degenerate configurations.
    pub fn anonymous_with_schedule<S: Schedule + 'static>(
        positions: Vec<Point>,
        seed: u64,
        schedule: S,
    ) -> Result<Self, CoreError> {
        Self::build(
            positions,
            Some(NamingScheme::BySec),
            AsyncSwarm::anonymous,
            WakeAllFirst::new(schedule),
            seed,
            true,
        )
    }
}

impl Network<Async2> {
    /// Two asynchronous robots at `a` and `b` (protocol P5) under a seeded
    /// fair scheduler that wakes both at `t0`.
    ///
    /// # Errors
    ///
    /// Fails if the two positions coincide.
    pub fn pair(a: Point, b: Point, policy: DriftPolicy, seed: u64) -> Result<Self, CoreError> {
        let schedule = WakeAllFirst::new(FairAsync::new(seed, 0.5, 16));
        let protocol = || Async2::new(policy);
        Self::build(vec![a, b], None, protocol, schedule, seed, true)
    }
}

impl<P: Chat> Network<P> {
    /// A network over any cohort, naming and schedule whose trace streams
    /// into `observer` instead of being recorded: the engine keeps only
    /// the initial configuration, which naming reads. `naming` is `None`
    /// for a pair. The batch runner in `stigmergy-fleet` builds its chat
    /// and algorithm sessions this way.
    ///
    /// # Errors
    ///
    /// Fails on configurations the engine rejects (coincident robots).
    pub fn streaming(
        positions: Vec<Point>,
        naming: Option<NamingScheme>,
        protocol: impl Fn() -> P,
        schedule: impl Schedule + 'static,
        seed: u64,
        observer: impl FnMut(TraceEvent<'_>) + 'static,
    ) -> Result<Self, CoreError> {
        let mut net = Self::build(positions, naming, protocol, schedule, seed, false)?;
        net.engine.observe_trace(observer);
        Ok(net)
    }

    /// Builds the engine every session runs on: one `protocol()` per
    /// position, the naming's capabilities (a pair keeps the builder's
    /// default), `schedule`, frames drawn from `seed`, and the trace
    /// recorded if `record` is set.
    fn build(
        positions: Vec<Point>,
        naming: Option<NamingScheme>,
        protocol: impl Fn() -> P,
        schedule: impl Schedule + 'static,
        seed: u64,
        record: bool,
    ) -> Result<Self, CoreError> {
        let n = positions.len();
        let mut builder = Engine::builder()
            .positions(positions)
            .protocols((0..n).map(|_| protocol()))
            .schedule(schedule)
            .frame_seed(seed)
            .record_trace(record);
        if let Some(scheme) = naming {
            builder = builder.capabilities(scheme.capabilities());
        }
        Ok(Self {
            engine: builder.build()?,
            naming,
            expectations: BTreeMap::new(),
        })
    }

    /// Number of robots.
    #[must_use]
    pub fn cohort(&self) -> usize {
        self.engine.cohort()
    }

    /// The underlying engine (positions, trace, frames).
    #[must_use]
    pub fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }

    /// Queues a message from robot `from` to robot `to` (engine indices).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownDestination`] for out-of-range indices.
    /// * [`CoreError::SelfAddressed`] if `from == to` (use
    ///   [`Network::broadcast`]).
    /// * [`CoreError::PayloadTooLarge`] beyond the protocol's
    ///   [`Chat::MAX_PAYLOAD`].
    /// * [`CoreError::Naming`] if the configuration admits no naming.
    pub fn send(&mut self, from: usize, to: usize, payload: &[u8]) -> Result<(), CoreError> {
        let n = self.cohort();
        if from >= n || to >= n {
            return Err(CoreError::UnknownDestination {
                dest: from.max(to),
                cohort: n,
            });
        }
        if from == to {
            return Err(CoreError::SelfAddressed);
        }
        check_payload::<P>(payload)?;
        let label = match self.naming {
            Some(scheme) => {
                let initial = self.engine.trace().initial();
                scheme.label_of(initial, self.engine.ids(), from, to)?
            }
            None => 0,
        };
        self.engine.protocol_mut(from).queue(label, payload);
        self.expect(from, to, payload);
        Ok(())
    }

    /// Queues a broadcast from robot `from` to everyone (§5 one-to-all).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownDestination`] for an out-of-range index.
    /// * [`CoreError::PayloadTooLarge`] beyond the protocol's
    ///   [`Chat::MAX_PAYLOAD`].
    pub fn broadcast(&mut self, from: usize, payload: &[u8]) -> Result<(), CoreError> {
        if from >= self.cohort() {
            return Err(CoreError::UnknownDestination {
                dest: from,
                cohort: self.cohort(),
            });
        }
        check_payload::<P>(payload)?;
        self.engine.protocol_mut(from).queue_broadcast(payload);
        for to in (0..self.cohort()).filter(|&i| i != from) {
            self.expect(from, to, payload);
        }
        Ok(())
    }

    fn expect(&mut self, from: usize, to: usize, payload: &[u8]) {
        *self
            .expectations
            .entry((from, to, payload.to_vec()))
            .or_insert(0) += 1;
    }

    /// Runs until every queued message has been delivered.
    ///
    /// Returns the number of instants executed.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Timeout`] if `max_steps` elapse first.
    /// * Any robot's preprocessing failure, surfaced after the first
    ///   instant.
    /// * [`CoreError::Model`] on a model violation (collision).
    pub fn run_until_delivered(&mut self, max_steps: u64) -> Result<u64, CoreError> {
        let mut taken = max_steps.min(1);
        self.engine.run(taken)?;
        if taken > 0 {
            self.preprocessing_failure()?;
        }
        // Inboxes only grow, and only a new entry can complete a
        // delivery, so the engine runs unchecked between entries.
        let received =
            |e: &Engine<P>| -> usize { e.protocols().iter().map(|p| p.payloads().count()).sum() };
        while !self.all_delivered() {
            let before = received(&self.engine);
            let out = self
                .engine
                .run_until(max_steps - taken, |e| received(e) != before)?;
            taken += out.steps_taken;
            if !out.satisfied {
                return Err(CoreError::Timeout { steps: max_steps });
            }
        }
        Ok(taken)
    }

    /// The first robot's preprocessing failure, if any: surfaced after the
    /// first instant, when every robot has run its t0 preprocessing.
    fn preprocessing_failure(&self) -> Result<(), CoreError> {
        match (0..self.cohort()).find_map(|i| self.engine.protocol(i).failure()) {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Runs exactly `steps` instants.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] on a model violation.
    pub fn run(&mut self, steps: u64) -> Result<(), CoreError> {
        self.engine.run(steps)?;
        Ok(())
    }

    /// Whether every queued message has reached its addressee.
    ///
    /// Matching respects multiplicity: sending the same payload to the
    /// same robot twice requires two inbox entries. Each check counts
    /// inbox entries in place, with no copies, so it is safe to call
    /// every instant of a long run.
    #[must_use]
    fn all_delivered(&self) -> bool {
        self.expectations
            .iter()
            .all(|((from, to, payload), &need)| self.delivered_count(*from, *to, payload) >= need)
    }

    /// How many entries of robot `to`'s inbox carry `payload` from robot
    /// `from` (engine indices).
    fn delivered_count(&self, from: usize, to: usize, payload: &[u8]) -> usize {
        self.received(to)
            .filter(|&(sender, p)| sender == from && p == payload)
            .count()
    }

    /// Robot `robot`'s inbox as `(sender_engine_index, payload)` pairs.
    ///
    /// A swarm's inbox is empty before the first instant (geometry not
    /// yet built), and the inbox of an index outside the cohort is empty:
    /// no such robot received anything.
    #[must_use]
    pub fn inbox(&self, robot: usize) -> Vec<(usize, Vec<u8>)> {
        self.received(robot)
            .map(|(sender, p)| (sender, p.to_vec()))
            .collect()
    }

    /// Robot `robot`'s inbox entries, borrowed, each with its sender's
    /// engine index: the other robot in a pair; in a swarm, the robot
    /// whose world home matches the entry's sender (entries that match
    /// none are skipped).
    fn received(&self, robot: usize) -> impl Iterator<Item = (usize, &[u8])> {
        let protocol = self.engine.protocols().get(robot);
        let pair = protocol
            .filter(|_| self.naming.is_none())
            .map(|protocol| protocol.payloads().map(move |p| (1 - robot, p)));
        let swarm = protocol.and_then(|protocol| {
            let g = protocol.swarm_geometry()?;
            Some(protocol.inbox_entries().iter().filter_map(move |e| {
                Some((
                    self.home_to_engine(robot, g, e.sender)?,
                    e.payload.as_slice(),
                ))
            }))
        });
        pair.into_iter()
            .flatten()
            .chain(swarm.into_iter().flatten())
    }

    /// Translates one robot's home index into an engine index by matching
    /// world home positions.
    fn home_to_engine(&self, robot: usize, g: &SwarmGeometry, home: usize) -> Option<usize> {
        let world = self.engine.frames()[robot].to_world(g.home(home));
        self.engine
            .trace()
            .initial()
            .iter()
            .position(|&p| p.approx_eq(world))
    }
}

/// Refuses a payload longer than `P` can frame.
fn check_payload<P: Chat>(payload: &[u8]) -> Result<(), CoreError> {
    let (len, max) = (payload.len(), P::MAX_PAYLOAD);
    if len > max {
        return Err(CoreError::PayloadTooLarge { len, max });
    }
    Ok(())
}

/// Why a hardened session abandoned the movement channel for a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// An endpoint of the message crash-stopped; a crashed robot can
    /// neither signal nor observe, so movement delivery is hopeless.
    PeerCrashed {
        /// The crashed endpoint.
        robot: usize,
    },
    /// Every retransmission attempt exhausted its step budget.
    MovementExhausted,
}

/// How a hardened delivery ultimately got through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRoute {
    /// Delivered by movement signals.
    Movement {
        /// Attempts used (1 = no retransmission needed).
        attempts: u32,
        /// Engine instants spent across all attempts.
        steps: u64,
    },
    /// Delivered over the secondary wireless channel after degradation.
    Secondary {
        /// Why the session degraded.
        reason: DegradeReason,
        /// Secondary transmissions used.
        attempts: u32,
    },
}

/// Hardened-session delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Messages delivered over movement signals.
    pub movement_ok: u64,
    /// Retransmissions issued (attempts beyond each message's first).
    pub retransmissions: u64,
    /// Degradations caused by a crash-stopped endpoint.
    pub degraded_crash: u64,
    /// Degradations caused by exhausted movement budgets.
    pub degraded_timeout: u64,
    /// Messages recovered over the secondary channel.
    pub secondary_ok: u64,
    /// Engine instants spent on movement delivery.
    pub movement_steps: u64,
    /// Symbol corrections the secondary channel's FEC performed.
    pub fec_corrected: u64,
    /// Secondary frames rejected as beyond the correction radius.
    pub fec_rejected: u64,
}

/// A fault-tolerant session: movement signals first, with per-message
/// timeout budgets and bounded backed-off retransmission, degrading to a
/// secondary wireless channel when an endpoint crash-stops or the
/// budgets run dry.
///
/// This is [`crate::backup::BackupChannel`] inverted. There, wireless is
/// primary and movement is the backup; here the movement channel — the
/// paper's subject — carries the traffic, and the wireless device is the
/// contingency for faults movement cannot survive (a crash-stopped
/// robot cannot wiggle out a frame). Payloads crossing the secondary
/// channel are protected by the symbol-level forward error correction of
/// [`stigmergy_coding::fec`]: a single corrupted byte per block is
/// repaired in place instead of paying CRC-8's reject-and-retransmit
/// round trip, and only noise beyond the correction radius forces a
/// retry.
///
/// The retransmission schedule is *adaptive* ([`AdaptiveBudget`]): FEC
/// corrections on the secondary path back off the movement budgets
/// (the secondary is evidently needed and working), and an
/// uncorrectable block escalates — subsequent sends spend a single
/// minimal movement attempt before failing over, because one wireless
/// retry costs a transmission while one movement attempt costs
/// thousands of instants.
#[derive(Debug)]
pub struct HardenedSession {
    net: SyncNetwork,
    adaptive: AdaptiveBudget,
    secondary: Wireless,
    secondary_inbox: Vec<(usize, usize, Vec<u8>)>,
    stats: SessionStats,
}

impl HardenedSession {
    /// Builds a hardened session over the robots at `positions`, with a
    /// benign fault plan.
    ///
    /// # Errors
    ///
    /// Fails on configurations the movement network rejects.
    fn new(
        positions: Vec<Point>,
        seed: u64,
        policy: RetransmitPolicy,
        secondary: Wireless,
    ) -> Result<Self, CoreError> {
        Ok(Self {
            net: SyncNetwork::anonymous_with_direction(positions, seed)?,
            adaptive: AdaptiveBudget::new(policy),
            secondary,
            secondary_inbox: Vec::new(),
            stats: SessionStats::default(),
        })
    }

    /// Builds a hardened session over the robots at `positions`, with
    /// `plan` injected into the movement engine.
    ///
    /// # Errors
    ///
    /// Fails on configurations the movement network rejects.
    pub fn with_faults(
        positions: Vec<Point>,
        seed: u64,
        policy: RetransmitPolicy,
        secondary: Wireless,
        plan: FaultPlan,
    ) -> Result<Self, CoreError> {
        let mut session = Self::new(positions, seed, policy, secondary)?;
        session.net.engine_mut().set_fault_plan(plan);
        Ok(session)
    }

    /// Sends `payload` from `from` to `to` and drives the session until
    /// the message is through (movement or secondary) or every recourse
    /// is exhausted.
    ///
    /// # Errors
    ///
    /// * Validation errors from the movement network (bad indices,
    ///   oversized payload, degenerate naming).
    /// * [`CoreError::Timeout`] when the movement budgets *and* the
    ///   secondary retries are exhausted — the clean-failure outcome the
    ///   adversarial suite asserts on.
    /// * [`CoreError::Model`] on a model violation (collision).
    pub fn send(
        &mut self,
        from: usize,
        to: usize,
        payload: &[u8],
    ) -> Result<SessionRoute, CoreError> {
        let n = self.net.cohort();
        if from >= n || to >= n {
            return Err(CoreError::UnknownDestination {
                dest: from.max(to),
                cohort: n,
            });
        }
        if from == to {
            return Err(CoreError::SelfAddressed);
        }
        let baseline = self.net.delivered_count(from, to, payload);
        let mut total_steps = 0u64;
        for attempt in 0..self.adaptive.max_attempts() {
            if let Some(robot) = self.crashed_endpoint(from, to) {
                self.stats.degraded_crash += 1;
                return self.send_secondary(
                    from,
                    to,
                    payload,
                    DegradeReason::PeerCrashed { robot },
                );
            }
            self.net.send(from, to, payload)?;
            if attempt > 0 {
                self.stats.retransmissions += 1;
            }
            let budget = self.adaptive.budget_for(attempt);
            let mut crashed = None;
            for step in 0..budget {
                self.net.run(1)?;
                total_steps += 1;
                self.stats.movement_steps += 1;
                if attempt == 0 && step == 0 {
                    self.net.preprocessing_failure()?;
                }
                if self.net.delivered_count(from, to, payload) > baseline {
                    self.stats.movement_ok += 1;
                    return Ok(SessionRoute::Movement {
                        attempts: attempt + 1,
                        steps: total_steps,
                    });
                }
                if let Some(robot) = self.crashed_endpoint(from, to) {
                    crashed = Some(robot);
                    break;
                }
            }
            if let Some(robot) = crashed {
                self.stats.degraded_crash += 1;
                return self.send_secondary(
                    from,
                    to,
                    payload,
                    DegradeReason::PeerCrashed { robot },
                );
            }
        }
        self.stats.degraded_timeout += 1;
        self.send_secondary(from, to, payload, DegradeReason::MovementExhausted)
    }

    fn send_secondary(
        &mut self,
        from: usize,
        to: usize,
        payload: &[u8],
        reason: DegradeReason,
    ) -> Result<SessionRoute, CoreError> {
        let framed = protect_bytes(payload).map_err(|_| CoreError::PayloadTooLarge {
            len: payload.len(),
            max: stigmergy_coding::framing::MAX_PAYLOAD,
        })?;
        for attempt in 1..=self.adaptive.policy().max_attempts() {
            if let Delivery::Arrived(data) = self.secondary.transmit(from, to, &framed) {
                match recover_bytes(&data) {
                    Ok((recovered, corrected)) if recovered == payload => {
                        self.stats.fec_corrected += corrected;
                        if corrected > 0 {
                            self.adaptive.record_corrected(corrected);
                        } else {
                            self.adaptive.record_clean();
                        }
                        self.secondary_inbox.push((from, to, payload.to_vec()));
                        self.stats.secondary_ok += 1;
                        return Ok(SessionRoute::Secondary {
                            reason,
                            attempts: attempt,
                        });
                    }
                    // Uncorrectable, or miscorrected into a frame that
                    // is not ours — both mean noise beyond the radius.
                    _ => {
                        self.stats.fec_rejected += 1;
                        self.adaptive.record_uncorrectable();
                    }
                }
            }
        }
        Err(CoreError::Timeout {
            steps: self.adaptive.policy().total_budget(),
        })
    }

    fn crashed_endpoint(&self, from: usize, to: usize) -> Option<usize> {
        [from, to]
            .into_iter()
            .find(|&r| self.net.engine().is_crashed(r))
    }

    /// Robot `robot`'s combined inbox: movement deliveries first, then
    /// secondary-channel recoveries, each as `(sender, payload)`. Empty
    /// for an index outside the cohort.
    #[must_use]
    pub fn inbox(&self, robot: usize) -> Vec<(usize, Vec<u8>)> {
        let mut entries = self.net.inbox(robot);
        entries.extend(
            self.secondary_inbox
                .iter()
                .filter(|(_, to, _)| *to == robot)
                .map(|(from, _, p)| (*from, p.clone())),
        );
        entries
    }

    /// Delivery statistics so far.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The underlying movement network.
    #[must_use]
    pub fn network(&self) -> &SyncNetwork {
        &self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paced::{Paced2, PacedConfig};
    use crate::sync2::Sync2;

    fn triangle() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(12.0, 0.0),
            Point::new(5.0, 9.0),
        ]
    }

    #[test]
    fn sync_anonymous_with_direction_end_to_end() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 1).unwrap();
        net.send(0, 2, b"up").unwrap();
        net.send(2, 1, b"across").unwrap();
        let steps = net.run_until_delivered(5_000).unwrap();
        assert!(steps > 0);
        assert_eq!(net.inbox(2), vec![(0, b"up".to_vec())]);
        assert_eq!(net.inbox(1), vec![(2, b"across".to_vec())]);
        assert!(net.all_delivered());
    }

    #[test]
    fn sync_identified_end_to_end() {
        let mut net = SyncNetwork::identified(triangle(), 2).unwrap();
        net.send(1, 0, b"routed").unwrap();
        net.run_until_delivered(5_000).unwrap();
        assert_eq!(net.inbox(0), vec![(1, b"routed".to_vec())]);
    }

    #[test]
    fn sync_chirality_only_end_to_end() {
        let mut net = SyncNetwork::anonymous(triangle(), 3).unwrap();
        net.send(0, 1, b"sec").unwrap();
        net.run_until_delivered(5_000).unwrap();
        assert_eq!(net.inbox(1), vec![(0, b"sec".to_vec())]);
    }

    #[test]
    fn async_network_end_to_end() {
        let mut net = AsyncNetwork::anonymous(triangle(), 4).unwrap();
        net.send(0, 2, b"async swarm").unwrap();
        net.run_until_delivered(200_000).unwrap();
        assert_eq!(net.inbox(2), vec![(0, b"async swarm".to_vec())]);
    }

    #[test]
    fn broadcast_end_to_end() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 5).unwrap();
        net.broadcast(1, b"everyone").unwrap();
        net.run_until_delivered(5_000).unwrap();
        assert_eq!(net.inbox(0), vec![(1, b"everyone".to_vec())]);
        assert_eq!(net.inbox(2), vec![(1, b"everyone".to_vec())]);
    }

    #[test]
    fn send_validation() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 6).unwrap();
        assert!(matches!(
            net.send(0, 9, b"x"),
            Err(CoreError::UnknownDestination { dest: 9, cohort: 3 })
        ));
        assert!(matches!(
            net.send(1, 1, b"x"),
            Err(CoreError::SelfAddressed)
        ));
        assert!(matches!(
            net.broadcast(7, b"x"),
            Err(CoreError::UnknownDestination { .. })
        ));
        // A pair has one peer, but it may not address itself either.
        assert!(matches!(
            pair(6).send(0, 0, b"x"),
            Err(CoreError::SelfAddressed)
        ));
    }

    #[test]
    fn timeout_reported() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 7).unwrap();
        net.send(0, 1, b"too slow").unwrap();
        // 4 steps cannot carry a 40-bit frame.
        assert!(matches!(
            net.run_until_delivered(4),
            Err(CoreError::Timeout { steps: 4 })
        ));
    }

    #[test]
    fn degenerate_configuration_surfaces() {
        // Robot at the SEC centre with BySec naming: send() fails eagerly.
        let pts = vec![Point::new(0.0, 5.0), Point::new(0.0, -5.0), Point::ORIGIN];
        let mut net = SyncNetwork::anonymous(pts, 8).unwrap();
        assert!(matches!(net.send(0, 1, b"x"), Err(CoreError::Naming(_))));
    }

    fn pair(seed: u64) -> Network<Async2> {
        Network::pair(
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            DriftPolicy::Diverge,
            seed,
        )
        .unwrap()
    }

    #[test]
    fn async_pair_chat() {
        let mut pair = pair(9);
        pair.send(0, 1, b"marco").unwrap();
        pair.send(1, 0, b"polo").unwrap();
        pair.run_until_delivered(50_000).unwrap();
        assert_eq!(pair.inbox(1), vec![(0, b"marco".to_vec())]);
        assert_eq!(pair.inbox(0), vec![(1, b"polo".to_vec())]);
        assert!(pair.all_delivered());
        assert!(!pair.engine().trace().is_empty());
    }

    #[test]
    fn async_pair_validation() {
        let mut pair = pair(10);
        assert!(matches!(
            pair.send(2, 0, b"x"),
            Err(CoreError::UnknownDestination { dest: 2, cohort: 2 })
        ));
        assert!(matches!(
            pair.broadcast(2, b"x"),
            Err(CoreError::UnknownDestination { .. })
        ));
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 13).unwrap();
        let big = vec![0u8; 70_000];
        assert!(matches!(
            net.send(0, 1, &big),
            Err(CoreError::PayloadTooLarge { len: 70_000, .. })
        ));
        assert!(matches!(
            net.broadcast(0, &big),
            Err(CoreError::PayloadTooLarge { .. })
        ));
        // Each protocol's own limit holds to the byte; paced frames carry
        // a CRC byte, so their limit is one lower.
        fn frames_up_to_its_limit<P: Chat>(mut pair: Network<P>) {
            let max = P::MAX_PAYLOAD;
            let over = vec![0u8; max + 1];
            assert!(matches!(
                pair.send(0, 1, &over),
                Err(CoreError::PayloadTooLarge { len, max: m }) if len == max + 1 && m == max
            ));
            assert!(matches!(
                pair.broadcast(1, &over),
                Err(CoreError::PayloadTooLarge { .. })
            ));
            assert!(pair.all_delivered(), "nothing was queued");
            pair.send(0, 1, &over[1..]).unwrap();
            pair.broadcast(1, &over[1..]).unwrap();
        }
        let ends = || vec![Point::new(0.0, 0.0), Point::new(14.0, 0.0)];
        let paced = PacedConfig::new(8, 10, true).unwrap();
        assert_eq!(
            Paced2::MAX_PAYLOAD,
            stigmergy_coding::framing::MAX_PAYLOAD - 1
        );
        frames_up_to_its_limit(
            Network::build(ends(), None, || Paced2::new(paced), Synchronous, 1, true).unwrap(),
        );
        assert_eq!(Sync2::MAX_PAYLOAD, stigmergy_coding::framing::MAX_PAYLOAD);
        frames_up_to_its_limit(
            Network::build(ends(), None, Sync2::new, Synchronous, 1, true).unwrap(),
        );
    }

    #[test]
    fn inbox_before_running_is_empty() {
        let net = SyncNetwork::anonymous_with_direction(triangle(), 11).unwrap();
        assert!(net.inbox(0).is_empty());
        assert_eq!(net.cohort(), 3);
    }

    #[test]
    fn inbox_outside_the_cohort_is_empty() {
        let mut swarm = SyncNetwork::anonymous_with_direction(triangle(), 11).unwrap();
        swarm.send(0, 2, b"in range").unwrap();
        swarm.run_until_delivered(10_000).unwrap();
        let mut pair = pair(12);
        pair.send(0, 1, b"in range").unwrap();
        pair.run_until_delivered(50_000).unwrap();
        let mut hardened = HardenedSession::new(
            triangle(),
            23,
            RetransmitPolicy::default(),
            Wireless::reliable(23),
        )
        .unwrap();
        hardened.send(0, 2, b"in range").unwrap();
        for robot in [swarm.cohort(), usize::MAX] {
            assert!(swarm.inbox(robot).is_empty(), "swarm {robot}");
        }
        for robot in [pair.cohort(), usize::MAX] {
            assert!(pair.inbox(robot).is_empty(), "pair {robot}");
        }
        for robot in [hardened.network().cohort(), usize::MAX] {
            assert!(hardened.inbox(robot).is_empty(), "hardened {robot}");
        }
        assert!(!swarm.inbox(2).is_empty() && !pair.inbox(1).is_empty());
        assert!(!hardened.inbox(2).is_empty());
    }

    #[test]
    fn hardened_delivers_over_movement_when_healthy() {
        let mut s = HardenedSession::new(
            triangle(),
            21,
            RetransmitPolicy::default(),
            Wireless::reliable(21),
        )
        .unwrap();
        let route = s.send(0, 2, b"primary path").unwrap();
        assert!(
            matches!(route, SessionRoute::Movement { attempts: 1, steps } if steps > 0),
            "got {route:?}"
        );
        assert_eq!(s.inbox(2), vec![(0, b"primary path".to_vec())]);
        let stats = s.stats();
        assert_eq!(stats.movement_ok, 1);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.secondary_ok, 0);
    }

    #[test]
    fn hardened_degrades_to_secondary_on_peer_crash() {
        let mut s = HardenedSession::with_faults(
            triangle(),
            22,
            RetransmitPolicy::default(),
            Wireless::reliable(22),
            FaultPlan::new(22).crash_stop(2, 0),
        )
        .unwrap();
        let route = s.send(0, 2, b"rescued").unwrap();
        assert!(
            matches!(
                route,
                SessionRoute::Secondary {
                    reason: DegradeReason::PeerCrashed { robot: 2 },
                    ..
                }
            ),
            "got {route:?}"
        );
        assert_eq!(s.inbox(2), vec![(0, b"rescued".to_vec())]);
        assert_eq!(s.stats().degraded_crash, 1);
        assert_eq!(s.stats().secondary_ok, 1);
    }

    #[test]
    fn hardened_crash_mid_delivery_degrades() {
        // The receiver crashes 10 instants in — long before a 40-bit frame
        // can cross the movement channel.
        let mut s = HardenedSession::with_faults(
            triangle(),
            23,
            RetransmitPolicy::new(3, 2_000, 2),
            Wireless::reliable(23),
            FaultPlan::new(23).crash_stop(1, 10),
        )
        .unwrap();
        let route = s.send(0, 1, b"mid-crash").unwrap();
        assert!(
            matches!(
                route,
                SessionRoute::Secondary {
                    reason: DegradeReason::PeerCrashed { robot: 1 },
                    ..
                }
            ),
            "got {route:?}"
        );
        assert_eq!(s.inbox(1), vec![(0, b"mid-crash".to_vec())]);
    }

    #[test]
    fn hardened_retransmits_then_degrades_on_exhausted_budgets() {
        // Budgets of 4 + 8 instants cannot carry any frame, so both
        // movement attempts time out and the secondary channel recovers.
        let mut s = HardenedSession::new(
            triangle(),
            24,
            RetransmitPolicy::new(2, 4, 2),
            Wireless::reliable(24),
        )
        .unwrap();
        let route = s.send(1, 0, b"slow road").unwrap();
        assert!(
            matches!(
                route,
                SessionRoute::Secondary {
                    reason: DegradeReason::MovementExhausted,
                    ..
                }
            ),
            "got {route:?}"
        );
        let stats = s.stats();
        assert_eq!(
            stats.retransmissions, 1,
            "second attempt was a retransmission"
        );
        assert_eq!(stats.degraded_timeout, 1);
        assert_eq!(stats.movement_steps, 12);
        assert_eq!(s.inbox(0), vec![(1, b"slow road".to_vec())]);
    }

    #[test]
    fn hardened_total_failure_is_clean_timeout() {
        // Receiver crashed AND the secondary device is dead: the send must
        // fail with a clean timeout, never hang or panic.
        let mut s = HardenedSession::with_faults(
            triangle(),
            25,
            RetransmitPolicy::new(2, 50, 2),
            Wireless::new(25, 0.0, 0.0, Some(0)),
            FaultPlan::new(25).crash_stop(2, 0),
        )
        .unwrap();
        let err = s.send(0, 2, b"doomed").unwrap_err();
        assert!(matches!(err, CoreError::Timeout { .. }), "got {err:?}");
        assert!(s.inbox(2).is_empty());
    }

    #[test]
    fn hardened_secondary_heals_single_bit_corruption() {
        // 100% corruption rate, single-bit bursts: every CRC-8 scheme
        // would reject every frame, but the FEC repairs each one in
        // place, so the first secondary attempt succeeds.
        let mut s = HardenedSession::with_faults(
            triangle(),
            27,
            RetransmitPolicy::default(),
            Wireless::new(27, 0.0, 1.0, None),
            FaultPlan::new(27).crash_stop(2, 0),
        )
        .unwrap();
        let route = s.send(0, 2, b"healed").unwrap();
        assert!(
            matches!(route, SessionRoute::Secondary { attempts: 1, .. }),
            "got {route:?}"
        );
        assert_eq!(s.inbox(2), vec![(0, b"healed".to_vec())]);
        let stats = s.stats();
        assert!(stats.fec_corrected >= 1, "the flip was corrected");
        assert_eq!(stats.fec_rejected, 0);
        assert_eq!(s.adaptive.pressure(), 1, "one correction event");
    }

    #[test]
    fn hardened_corrections_back_off_movement_budgets() {
        // Budgets 4 + 8 instants cannot carry any frame, so each send
        // times out of movement and recovers over the (always-corrupted,
        // always-corrected) secondary. The correction raises pressure,
        // halving the second send's movement budgets: 12 then 6 instants.
        let mut s = HardenedSession::new(
            triangle(),
            28,
            RetransmitPolicy::new(2, 4, 2),
            Wireless::new(28, 0.0, 1.0, None),
        )
        .unwrap();
        s.send(0, 1, b"first").unwrap();
        assert_eq!(s.stats().movement_steps, 12);
        assert_eq!(s.adaptive.pressure(), 1);
        s.send(0, 1, b"second").unwrap();
        assert_eq!(s.stats().movement_steps, 12 + 6, "budgets halved");
        assert_eq!(s.stats().secondary_ok, 2);
        assert!(s.stats().fec_corrected >= 2);
    }

    #[test]
    fn hardened_uncorrectable_bursts_escalate_to_failover() {
        // An 8-byte burst in every frame puts at least one FEC block
        // beyond the correction radius (a "healed" frame is 14 bytes in
        // 2 blocks), so every secondary attempt is rejected and the send
        // fails cleanly. The escalation collapses the next send's
        // movement schedule to a single 1-instant attempt.
        let mut s = HardenedSession::new(
            triangle(),
            29,
            RetransmitPolicy::new(3, 4, 2),
            Wireless::noisy(29, 0.0, 1.0, 8, None),
        )
        .unwrap();
        let err = s.send(0, 1, b"jam").unwrap_err();
        assert!(matches!(err, CoreError::Timeout { .. }), "got {err:?}");
        assert_eq!(s.stats().movement_steps, 4 + 8 + 16);
        assert_eq!(s.stats().fec_rejected, 3, "every retry was jammed");
        assert_eq!(s.adaptive.pressure(), crate::ack::MAX_PRESSURE);
        let err = s.send(0, 1, b"jam").unwrap_err();
        assert!(matches!(err, CoreError::Timeout { .. }), "got {err:?}");
        assert_eq!(
            s.stats().movement_steps,
            28 + 1,
            "escalated: one minimal movement attempt before failover"
        );
        assert_eq!(s.stats().fec_rejected, 6);
        assert!(s.inbox(1).is_empty());
    }

    #[test]
    fn hardened_validation_errors_propagate() {
        let mut s = HardenedSession::new(
            triangle(),
            26,
            RetransmitPolicy::default(),
            Wireless::reliable(26),
        )
        .unwrap();
        assert!(matches!(
            s.send(0, 9, b"x"),
            Err(CoreError::UnknownDestination { .. })
        ));
        assert!(matches!(s.send(1, 1, b"x"), Err(CoreError::SelfAddressed)));
    }

    #[test]
    fn larger_swarm_many_messages() {
        let positions: Vec<Point> = (0..7)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / 7.0;
                Point::new(15.0 * theta.cos() + (k as f64) * 0.05, 15.0 * theta.sin())
            })
            .collect();
        let mut net = SyncNetwork::anonymous_with_direction(positions, 12).unwrap();
        for i in 0..7 {
            net.send(i, (i + 2) % 7, format!("msg-{i}").as_bytes())
                .unwrap();
        }
        net.run_until_delivered(20_000).unwrap();
        for i in 0..7 {
            let to = (i + 2) % 7;
            assert!(net
                .inbox(to)
                .contains(&(i, format!("msg-{i}").into_bytes())));
        }
    }
}
