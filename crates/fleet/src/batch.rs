//! Batch execution: a [`BatchSpec`] fans out into sessions, the pool runs
//! them on N workers, and each session comes back as a [`RunReport`].
//!
//! Determinism contract: a session is a pure function of its
//! [`SessionSpec`] — schedules and fault plans are built from Send-safe
//! specs *inside* the worker, every RNG is seeded from the spec, and the
//! pool returns reports in submission order — so `workers = 1` and
//! `workers = N` produce identical report vectors, byte-identical encoded
//! traces, and equal metrics snapshots. The conformance matrix from the
//! adversarial suite ships as [`BatchSpec::conformance_matrix`], with the
//! same cohorts, schedules, plans, and budgets as the hand-rolled loops
//! it replaces.

use crate::metrics::MetricsSnapshot;
use crate::pool::{run_indexed_observed, CancelToken};
use crate::trace_codec::{fingerprint, TraceEncoder};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Duration;
use std::time::Instant;
use stigmergy::ack::RetransmitPolicy;
use stigmergy::async2::{Async2, DriftPolicy};
use stigmergy::async_n::AsyncSwarm;
use stigmergy::backup::Wireless;
use stigmergy::election_signature;
use stigmergy::paced::{Paced2, PacedConfig, PacedSwarm};
use stigmergy::session::{Chat, HardenedSession, Network};
use stigmergy::sync2::Sync2;
use stigmergy::sync_swarm::SyncSwarm;
use stigmergy::{CoreError, NamingScheme};
use stigmergy_algo::{
    agreement, election, flood, AgreementSession, ElectionSession, FloodSession, NodeStack,
    Outgoing, Status,
};
use stigmergy_coding::CodingError;
use stigmergy_geometry::{Point, Vec2};
use stigmergy_robots::engine::DEFAULT_COLLISION_EPS;
use stigmergy_robots::{Engine, MovementProtocol};
use stigmergy_scheduler::rng::SplitMix64;
use stigmergy_scheduler::wire::{
    get_seq, put_bytes, put_seq, put_u64, put_u8, Reader, Wire, WireError,
};
use stigmergy_scheduler::{AlgorithmSpec, CodingSpec, FaultSpec, ScheduleSpec, WakeAllFirst};

/// Payload every batch session sends, unless overridden.
pub const DEFAULT_PAYLOAD: &[u8] = b"adv";

/// The protocol a session exercises. Everything fleet knows about a
/// protocol is its row in `ProtocolKind::row`: a new protocol is one
/// variant plus one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// §3 two-robot synchronous chat.
    Sync2,
    /// §4 two-robot asynchronous chat.
    Async2,
    /// §3 swarm, identified robots (ById naming).
    SyncSwarmRouted,
    /// §3 swarm, anonymous with sense of direction (ByLex naming).
    SyncSwarmLex,
    /// §3 swarm, fully anonymous (BySec naming).
    SyncSwarmSec,
    /// §4 swarm, fully anonymous.
    AsyncSwarm,
    /// Hardened session: movement-first with retransmission and a
    /// CRC-protected wireless secondary. Runs its own internal
    /// synchronous network, so the session's `ScheduleSpec` is unused.
    Hardened,
}

/// The six paper protocols of the conformance matrix, in the order the
/// adversarial suite historically ran them.
pub const CONFORMANCE: [ProtocolKind; 6] = [
    ProtocolKind::Sync2,
    ProtocolKind::Async2,
    ProtocolKind::SyncSwarmRouted,
    ProtocolKind::SyncSwarmLex,
    ProtocolKind::SyncSwarmSec,
    ProtocolKind::AsyncSwarm,
];

/// How a protocol's sessions carry bits: the setting (synchronous or
/// asynchronous), the cohort (a pair or the spec's swarm) and, for a
/// swarm, the naming its capabilities allow (DESIGN.md §1).
#[derive(Debug, Clone, Copy)]
enum Channel {
    /// Two robots, synchronous; paced when the session's coding says so.
    SyncPair,
    /// Two robots, asynchronous.
    AsyncPair,
    /// `cohort` robots, synchronous; paced when the session's coding says
    /// so.
    SyncN(NamingScheme),
    /// `cohort` robots, asynchronous.
    AsyncN(NamingScheme),
    /// [`HardenedSession`]: movement first, wireless failover.
    Failover,
}

/// One protocol's row of the table.
struct Row {
    /// Short name for reports.
    name: &'static str,
    /// One-byte tag in the gateway's `BatchSpec` encoding.
    wire_code: u8,
    /// Frame-seed base; session seed 0 runs exactly these frames.
    tag: u64,
    /// Step budget before the crash cap and the spec's ceiling.
    budget: u64,
    /// Fixed plan-seed base, for the pairs that historically had one;
    /// the other rows derive the plan seed from the frame seed.
    plan_seed: Option<u64>,
    channel: Channel,
}

// `ALL` lists every variant once, in declaration order, and every row's
// wire code is its position there.
const _: () = {
    let mut i = 0;
    while i < ProtocolKind::ALL.len() {
        let kind = ProtocolKind::ALL[i];
        assert!(kind as usize == i && kind.row().wire_code as usize == i);
        i += 1;
    }
};

impl ProtocolKind {
    /// Every protocol, in wire-code order.
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::Sync2,
        ProtocolKind::Async2,
        ProtocolKind::SyncSwarmRouted,
        ProtocolKind::SyncSwarmLex,
        ProtocolKind::SyncSwarmSec,
        ProtocolKind::AsyncSwarm,
        ProtocolKind::Hardened,
    ];

    /// The protocol's row — the only per-variant `match` in fleet.
    /// Columns: name, wire code, frame-seed tag, default budget (the
    /// adversarial suite's), fixed plan-seed base, channel.
    const fn row(self) -> Row {
        use Channel::{AsyncN, AsyncPair, Failover, SyncN, SyncPair};
        use NamingScheme::{ById, ByLex, BySec};
        let (name, wire_code, tag, budget, plan_seed, channel) = match self {
            ProtocolKind::Sync2 => ("sync2", 0, 0xFA01, 40_000, Some(0xA1), SyncPair),
            ProtocolKind::Async2 => ("async2", 1, 0xFA02, 600_000, Some(0xA2), AsyncPair),
            ProtocolKind::SyncSwarmRouted => {
                ("sync-swarm-routed", 2, 0xB0_01, 40_000, None, SyncN(ById))
            }
            ProtocolKind::SyncSwarmLex => {
                ("sync-swarm-lex", 3, 0xB0_02, 40_000, None, SyncN(ByLex))
            }
            ProtocolKind::SyncSwarmSec => {
                ("sync-swarm-sec", 4, 0xB0_03, 40_000, None, SyncN(BySec))
            }
            ProtocolKind::AsyncSwarm => ("async-swarm", 5, 0xB0_04, 800_000, None, AsyncN(BySec)),
            // Budget per retransmission attempt; the policy does backoff.
            ProtocolKind::Hardened => ("hardened", 6, 0xB0_05, 4_000, None, Failover),
        };
        Row {
            name,
            wire_code,
            tag,
            budget,
            plan_seed,
            channel,
        }
    }

    /// A short name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The default step budget, matching the adversarial suite's.
    #[must_use]
    fn default_budget(self) -> u64 {
        self.row().budget
    }

    /// The protocol's wire tag — one byte, stable across releases, used
    /// by the gateway's `BatchSpec` encoding.
    #[must_use]
    pub fn wire_code(self) -> u8 {
        self.row().wire_code
    }

    /// Decodes a [`ProtocolKind::wire_code`] tag.
    #[must_use]
    fn from_wire_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.wire_code() == code)
    }
}

impl Wire for ProtocolKind {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        put_u8(out, self.wire_code());
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        Self::from_wire_code(tag).ok_or(WireError::bad_tag("protocol kind", tag))
    }
}

/// The irregular ring the swarm sessions start from — same construction
/// as the integration-test helper, so fleet-driven conformance runs the
/// exact cohorts the hand-rolled loops did.
#[must_use]
pub fn ring(n: usize, radius: f64) -> Vec<Point> {
    (0..n)
        .map(|k| {
            let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
            let r = radius * (1.0 + 0.03 * (k as f64 + 1.0) / (n as f64));
            let dir = Vec2::from_bearing(theta);
            Point::new(r * dir.x, r * dir.y)
        })
        .collect()
}

/// A whole sweep: the cross product of protocols × schedules × plans ×
/// seeds, plus the knobs shared by every session.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// Protocols to exercise.
    pub protocols: Vec<ProtocolKind>,
    /// Distributed algorithms to run over the async-swarm transport
    /// (each expands into its own sessions after the protocol block).
    pub algorithms: Vec<AlgorithmSpec>,
    /// Activation schedules (each wrapped in `WakeAllFirst`).
    pub schedules: Vec<ScheduleSpec>,
    /// Fault plans.
    pub plans: Vec<FaultSpec>,
    /// Per-session seeds: each seed derives the frame seed and the fault
    /// plan seed for its session.
    pub seeds: Vec<u64>,
    /// Swarm cohort size.
    pub cohort: usize,
    /// Payload to send.
    pub payload: Vec<u8>,
    /// The channel coding every synchronous session runs under.
    /// [`CodingSpec::Binary`] reproduces the historical one-bit-per-
    /// excursion protocols byte for byte; multi-level and FEC codings
    /// instantiate the paced protocols instead. Asynchronous protocols
    /// ignore this knob — their zone-entry decoding carries no magnitude.
    pub coding: CodingSpec,
    /// Optional ceiling on every session's step budget — determinism
    /// tests run the full matrix at a small cap so whole traces fit in
    /// memory.
    pub budget_cap: Option<u64>,
    /// Whether reports retain the full encoded trace (`RunReport::trace`)
    /// or only its hash.
    pub keep_traces: bool,
}

impl BatchSpec {
    /// The adversarial suite's conformance matrix over the given seeds:
    /// 6 protocols × 3 adversarial-but-legal schedules × 3 fault plans,
    /// with the historical cohort, payload, and budgets.
    #[must_use]
    pub fn conformance_matrix(seeds: Vec<u64>) -> Self {
        Self {
            protocols: CONFORMANCE.to_vec(),
            algorithms: Vec::new(),
            schedules: vec![
                // The message's receiver is the starved victim.
                ScheduleSpec::LaggingReceiver { max_gap: 8 },
                ScheduleSpec::Bursty {
                    seed: 0x0AD5_CEDD,
                    burst_len: 3,
                    lull_len: 5,
                },
                ScheduleSpec::WorstCaseFair { max_gap: 6 },
            ],
            plans: vec![
                FaultSpec::NonRigid {
                    delta: 0.35,
                    prob: 0.5,
                },
                FaultSpec::Dropout { prob: 0.1 },
                // Robot 1 crash-stops mid-run: the receiver in a pair, so
                // nothing can deliver; a bystander in a swarm, which the
                // engine's failure detector reports to the survivors.
                FaultSpec::Crash {
                    robot: 1,
                    time: 35,
                    delta: 0.5,
                    prob: 0.25,
                },
            ],
            seeds,
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            // The paced multi-symbol channel with FEC: the synchronous
            // protocols survive the adversarial schedules and fault plans
            // the binary channel loses every cell of (the delivered-rate
            // ratchet in CI pins the gain).
            coding: CodingSpec::Fec {
                levels: 8,
                dwell: 10,
            },
            budget_cap: None,
            keep_traces: false,
        }
    }

    /// The algorithm conformance matrix over the given seeds: the three
    /// distributed algorithms × a fair schedule with and without the
    /// crash-filtering wrapper × a benign-ish and a crash-stop fault
    /// plan. Every cell must terminate with consistent decisions among
    /// the non-crashed robots.
    #[must_use]
    pub fn algorithm_matrix(seeds: Vec<u64>) -> Self {
        Self {
            protocols: Vec::new(),
            algorithms: vec![
                AlgorithmSpec::Flood { initiator: 0 },
                AlgorithmSpec::Election,
                AlgorithmSpec::Agreement { inputs: 0b101 },
            ],
            schedules: vec![
                ScheduleSpec::WorstCaseFair { max_gap: 6 },
                ScheduleSpec::CrashFiltered {
                    inner: Box::new(ScheduleSpec::WorstCaseFair { max_gap: 6 }),
                },
            ],
            plans: vec![
                FaultSpec::NonRigid {
                    delta: 0.35,
                    prob: 0.5,
                },
                // Robot 1 crash-stops before any frame can complete
                // (the shortest algorithm frame is 32 bits > 35
                // instants), so every algorithm must decide among the
                // survivors.
                FaultSpec::Crash {
                    robot: 1,
                    time: 35,
                    delta: 0.5,
                    prob: 0.25,
                },
            ],
            seeds,
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            // Algorithms ride the asynchronous transport, which has no
            // magnitude channel; binary keeps their traces pinned.
            coding: CodingSpec::Binary,
            budget_cap: None,
            keep_traces: false,
        }
    }

    /// Expands the cross product into individual session specs, in the
    /// canonical order: protocol-major (then schedule, plan, seed),
    /// followed by the algorithm block in the same inner order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionSpec> {
        let mut out = Vec::with_capacity(
            (self.protocols.len() + self.algorithms.len())
                * self.schedules.len()
                * self.plans.len()
                * self.seeds.len(),
        );
        let mut push_block = |protocol: ProtocolKind, algorithm: Option<AlgorithmSpec>| {
            for schedule in &self.schedules {
                for plan in &self.plans {
                    for &seed in &self.seeds {
                        out.push(SessionSpec {
                            protocol,
                            algorithm,
                            schedule: schedule.clone(),
                            plan: plan.clone(),
                            seed,
                            cohort: self.cohort,
                            payload: self.payload.clone(),
                            coding: if algorithm.is_some() {
                                CodingSpec::Binary
                            } else {
                                self.coding
                            },
                            budget_cap: self.budget_cap,
                            keep_trace: self.keep_traces,
                        });
                    }
                }
            }
        };
        for &protocol in &self.protocols {
            push_block(protocol, None);
        }
        for &algorithm in &self.algorithms {
            // Algorithms ride the §4 anonymous swarm transport.
            push_block(ProtocolKind::AsyncSwarm, Some(algorithm));
        }
        out
    }
}

/// The gateway's `Submit` payload: the five axes as sequences, then the
/// shared knobs.
impl Wire for BatchSpec {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        put_seq(out, &self.protocols);
        put_seq(out, &self.algorithms);
        put_seq(out, &self.schedules);
        put_seq(out, &self.plans);
        put_seq(out, &self.seeds);
        self.cohort.encode_wire(out);
        put_bytes(out, &self.payload);
        match self.budget_cap {
            Some(cap) => {
                put_u8(out, 1);
                put_u64(out, cap);
            }
            None => put_u8(out, 0),
        }
        put_u8(out, u8::from(self.keep_traces));
        self.coding.encode_wire(out);
    }

    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Fields in wire order: a struct literal evaluates in source order.
        Ok(BatchSpec {
            protocols: get_seq(r, "protocols")?,
            algorithms: get_seq(r, "algorithms")?,
            schedules: get_seq(r, "schedules")?,
            plans: get_seq(r, "plans")?,
            seeds: get_seq(r, "seeds")?,
            cohort: usize::decode_wire(r)?,
            payload: r.bytes("payload")?,
            budget_cap: match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                tag => return Err(WireError::bad_tag("budget cap flag", tag)),
            },
            keep_traces: match r.u8()? {
                0 => false,
                1 => true,
                tag => return Err(WireError::bad_tag("keep-traces flag", tag)),
            },
            coding: CodingSpec::decode_wire(r)?,
        })
    }
}

/// Everything one session needs — plain data, `Send`, built inside the
/// worker that runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// The distributed algorithm to run over it, if any. Set only with
    /// [`ProtocolKind::AsyncSwarm`], whose channel the algorithm driver
    /// speaks.
    pub algorithm: Option<AlgorithmSpec>,
    /// The activation schedule (wrapped in `WakeAllFirst` at build time).
    pub schedule: ScheduleSpec,
    /// The fault plan.
    pub plan: FaultSpec,
    /// The session seed; frame and plan seeds derive from it.
    pub seed: u64,
    /// Swarm cohort size (pairs ignore this).
    pub cohort: usize,
    /// Payload to send.
    pub payload: Vec<u8>,
    /// The channel coding (synchronous protocols only — see
    /// [`BatchSpec::coding`]).
    pub coding: CodingSpec,
    /// Optional budget ceiling.
    pub budget_cap: Option<u64>,
    /// Whether to retain the encoded trace in the report.
    pub keep_trace: bool,
}

impl SessionSpec {
    /// Frame-generation seed: the protocol's historical base perturbed by
    /// the session seed (seed 0 reproduces the adversarial suite's fixed
    /// frames exactly). Algorithm sessions fold in a per-algorithm tag so
    /// the three algorithms never share frames.
    #[must_use]
    pub fn frame_seed(&self) -> u64 {
        let tag = self
            .algorithm
            .map_or(self.protocol.row().tag, |a| algo_row(a).tag);
        if self.seed == 0 {
            tag
        } else {
            SplitMix64::new(tag ^ self.seed).next_u64()
        }
    }

    /// Fault-plan seed, mirroring the adversarial suite's `seed ^ 0x5EED`
    /// derivation from the frame seed.
    #[must_use]
    pub fn plan_seed(&self) -> u64 {
        match self.protocol.row().plan_seed {
            Some(base) => base ^ self.seed,
            None => self.frame_seed() ^ 0x5EED,
        }
    }

    /// The effective step budget: the protocol's default, lowered to the
    /// last instant a chat session's outcome can still change, then to
    /// the spec's explicit ceiling.
    ///
    /// A crash plan lowers the default to 20,000 instants. That is a
    /// ceiling, not a proof: the crash cells that deliver do so far
    /// inside it. The asynchronous swarm is among them — the engine's
    /// failure detector lists a crashed bystander in every live view,
    /// and the survivors drop it from the §4.2 ack rule. Two caps are
    /// proofs, from the spec alone:
    ///
    /// * **The receiver crashes** at instant `t`: the budget ends at
    ///   `t`. A crashed robot is never activated again, so its inbox is
    ///   final.
    /// * **A paced sender drains.** On a synchronous channel with paced
    ///   coding, a plan that never crashes robot 0 (the sender) and a
    ///   schedule that bounds robot 0's own gap by `G`
    ///   ([`ScheduleSpec::gap_bound`]), the budget ends at `S·(G+1)`,
    ///   `S` = [`PacedConfig::sender_activations`]. The sender ticks its
    ///   job on every own activation and has one in every `G + 1`
    ///   instants, so by then it is home and idle; the channel is
    ///   open-loop and silence never commits a symbol, so no later
    ///   observation completes the frame. Only the sender's gap counts:
    ///   a starved receiver that has not yet seen the frame's end never
    ///   will, however late it wakes.
    ///
    /// Algorithm sessions take per-algorithm budgets and neither cap:
    /// crash-stop is exactly the regime they must *terminate* under, not
    /// time out. Hardened sessions budget each retransmission attempt
    /// and take only the crash ceiling.
    #[must_use]
    pub fn budget(&self) -> u64 {
        let budget = match self.algorithm {
            Some(algorithm) => algo_row(algorithm).budget,
            None if self.plan.crashes() => self.protocol.default_budget().min(20_000),
            None => self.protocol.default_budget(),
        };
        let budget = self.outcome_fixed_at().map_or(budget, |t| budget.min(t));
        self.budget_cap.map_or(budget, |cap| budget.min(cap))
    }

    /// The earlier of [`SessionSpec::budget`]'s two caps, for a chat
    /// session where one applies.
    fn outcome_fixed_at(&self) -> Option<u64> {
        if self.algorithm.is_some() {
            return None;
        }
        let (cohort, synchronous) = match self.protocol.row().channel {
            Channel::SyncPair => (2, true),
            Channel::AsyncPair => (2, false),
            Channel::SyncN(_) => (self.cohort, true),
            Channel::AsyncN(_) => (self.cohort, false),
            Channel::Failover => return None,
        };
        let crash = match self.plan {
            FaultSpec::Crash { robot, time, .. } => Some((robot, time)),
            _ => None,
        };
        let receiver_crash = crash
            .filter(|&(robot, _)| robot == cohort.saturating_sub(1))
            .map(|(_, time)| time);
        let paced = paced_config(self.coding).ok().flatten();
        let sender_drained = paced
            .filter(|_| synchronous && crash.is_none_or(|(robot, _)| robot != 0))
            .zip(self.schedule.gap_bound(cohort, 0))
            .map(|(config, gap)| {
                config
                    .sender_activations(&self.payload)
                    .saturating_mul(gap.saturating_add(1))
            });
        receiver_crash.into_iter().chain(sender_drained).min()
    }
}

/// One algorithm's row: what [`ProtocolKind::row`] is to protocols.
struct AlgoRow {
    /// Frame-seed base, as [`SessionSpec::frame_seed`] uses it.
    tag: u64,
    /// Step budget before the spec's ceiling.
    budget: u64,
    /// The algorithm's `crates/algo` protocol id.
    protocol_id: u8,
}

fn algo_row(algorithm: AlgorithmSpec) -> AlgoRow {
    let (tag, budget, protocol_id) = match algorithm {
        AlgorithmSpec::Flood { .. } => (0xA1_60_01, 600_000, flood::PROTOCOL_ID),
        AlgorithmSpec::Election => (0xA1_60_02, 900_000, election::PROTOCOL_ID),
        AlgorithmSpec::Agreement { .. } => (0xA1_60_03, 1_200_000, agreement::PROTOCOL_ID),
    };
    AlgoRow {
        tag,
        budget,
        protocol_id,
    }
}

/// What came back from one session.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Algorithm name, for algorithm sessions.
    pub algorithm: Option<&'static str>,
    /// Schedule name.
    pub schedule: &'static str,
    /// Fault plan name.
    pub plan: &'static str,
    /// The session seed.
    pub seed: u64,
    /// Whether the payload arrived within budget.
    pub delivered: bool,
    /// Instants executed (including the preprocessing instant).
    pub steps: u64,
    /// Instants from queueing to delivery, when delivered.
    pub steps_to_delivery: Option<u64>,
    /// Total robot activations.
    pub activations: u64,
    /// Activations that moved a robot.
    pub moves: u64,
    /// Faults injected.
    pub faults: u64,
    /// Retransmissions issued (hardened sessions; 0 elsewhere).
    pub retransmissions: u64,
    /// Inbox entries that did not match the sent payload (must be 0:
    /// detect-or-reject end to end).
    pub corrupt: u64,
    /// Payload bits delivered end to end (0 when undelivered, and for
    /// algorithm sessions, whose traffic `algo.bits` counts).
    pub delivered_bits: u64,
    /// FEC symbol corrections (paced protocols; hardened secondary).
    pub fec_corrected: u64,
    /// FEC blocks rejected as beyond the correction radius.
    pub fec_rejected: u64,
    /// Smallest pairwise distance over the recorded trace.
    pub min_distance: f64,
    /// Encoded trace length in bytes.
    pub trace_len: usize,
    /// [`fingerprint`] (XXH64) of the encoded trace.
    pub trace_hash: u64,
    /// The encoded trace itself, when `keep_trace` was set.
    pub trace: Option<Vec<u8>>,
    /// Algorithm counters, for algorithm sessions.
    pub algo: Option<AlgoOutcome>,
    /// A model violation (collision, degenerate naming), if the session
    /// died. Invariant sessions must report `None`.
    pub error: Option<String>,
}

/// What a distributed-algorithm session measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoOutcome {
    /// Protocol rounds executed (1 for flood and election; the highest
    /// FloodSet round any live robot reached for agreement).
    pub rounds: u64,
    /// Channel cost of every frame enqueued, in bits: 16 header bits
    /// plus 8 per payload byte (`bits(L) = 16 + 8L`).
    pub bits: u64,
    /// Engine activations consumed when the last live robot reached a
    /// terminal status, if the run terminated in budget.
    pub activations_to_decision: Option<u64>,
    /// The common decision value, when every live robot decided (flood:
    /// the initiator's coverage count; election: the winning signature;
    /// agreement: the agreed bit).
    pub decision: Option<u64>,
    /// Whether the algorithm *rejected* the configuration (e.g. a
    /// symmetric election) — terminal, but not a decision.
    pub rejected: bool,
}

impl RunReport {
    /// The report of a session whose worker closure panicked: zero work
    /// counters, no trace, and the panic message preserved as the
    /// session's `error`. Panic containment is per session — one
    /// poisoned spec fails its own `RunReport` while the rest of the
    /// batch (and the pool) carries on — and stays deterministic: the
    /// same spec panics with the same message at every worker count.
    #[must_use]
    pub fn poisoned(spec: &SessionSpec, message: &str) -> Self {
        Self {
            error: Some(format!("session panicked: {message}")),
            ..Self::unrun(spec)
        }
    }

    /// The report of a session that did no work: the spec's names and
    /// seed, zero counters, the empty trace, no error.
    fn unrun(spec: &SessionSpec) -> Self {
        Self {
            protocol: spec.protocol.name(),
            algorithm: spec.algorithm.map(|a| a.name()),
            schedule: spec.schedule.name(),
            plan: spec.plan.name(),
            seed: spec.seed,
            delivered: false,
            steps: 0,
            steps_to_delivery: None,
            activations: 0,
            moves: 0,
            faults: 0,
            retransmissions: 0,
            corrupt: 0,
            delivered_bits: 0,
            fec_corrected: 0,
            fec_rejected: 0,
            min_distance: f64::INFINITY,
            trace_len: 0,
            trace_hash: fingerprint(&[]),
            trace: None,
            algo: None,
            error: None,
        }
    }
}

/// A finished batch: per-session reports (in spec order), the metrics
/// folded over them, and wall-clock accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One report per session, in [`BatchSpec::sessions`] order.
    pub runs: Vec<RunReport>,
    /// `MetricsSnapshot::of(&runs)`: the totals over every session.
    pub metrics: MetricsSnapshot,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

impl BatchReport {
    /// Reports for one protocol.
    pub fn for_protocol<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a RunReport> {
        self.runs.iter().filter(move |r| r.protocol == name)
    }
}

/// Runs every session of `spec` on `workers` threads.
///
/// # Panics
///
/// Panics if `workers == 0`, or if a worker thread panics.
#[must_use]
pub fn run_batch(spec: &BatchSpec, workers: usize) -> BatchReport {
    run_batch_with(spec, workers, |_| {}, &CancelToken::new())
        .expect("un-cancelled batch runs to completion")
}

/// Where a batch stands, as reported to a progress observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Sessions finished so far.
    pub completed: usize,
    /// Sessions in the batch.
    pub total: usize,
}

/// A batch stopped by its [`CancelToken`] before every session ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchInterrupted {
    /// Sessions that finished before cancellation took effect.
    pub completed: usize,
    /// Sessions the spec expanded to.
    pub total: usize,
}

impl std::fmt::Display for BatchInterrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch cancelled after {} of {} sessions",
            self.completed, self.total
        )
    }
}

impl std::error::Error for BatchInterrupted {}

/// [`run_batch`] with streaming progress and cooperative cancellation —
/// the entry point the gateway serves jobs through.
///
/// `on_progress` fires on the calling thread after every finished
/// session, with `completed` strictly increasing; an un-cancelled batch
/// fires it exactly `spec.sessions().len()` times. Cancellation is
/// checked between sessions only, so every session that *did* run is the
/// same pure function of its spec as under [`run_batch`] — a job that
/// completes despite a late cancel request is byte-identical to one that
/// was never cancelled.
///
/// # Errors
///
/// Returns [`BatchInterrupted`] when `cancel` stopped any session from
/// running.
///
/// # Panics
///
/// Panics if `workers == 0`, or if a worker thread panics.
pub fn run_batch_with<F>(
    spec: &BatchSpec,
    workers: usize,
    mut on_progress: F,
    cancel: &CancelToken,
) -> Result<BatchReport, BatchInterrupted>
where
    F: FnMut(Progress),
{
    #[allow(clippy::disallowed_methods)]
    // stiglint: allow(determinism) -- feeds only the `wall` duration of BatchReport, never traces, fingerprints, or metrics
    let start = Instant::now();
    let sessions = spec.sessions();
    let runs = run_indexed_observed(
        sessions,
        workers,
        run_session_contained,
        |completed, total| on_progress(Progress { completed, total }),
        cancel,
    )
    .map_err(|i| BatchInterrupted {
        completed: i.completed,
        total: i.total,
    })?;
    Ok(BatchReport {
        metrics: MetricsSnapshot::of(&runs),
        runs,
        workers,
        wall: start.elapsed(),
    })
}

/// [`run_session`] with panic containment: a panic anywhere inside the
/// session (a degenerate spec tripping a constructor `expect`, an engine
/// invariant assertion) is caught and converted into
/// [`RunReport::poisoned`] instead of unwinding through the worker pool.
/// One poisoned chunk fails its own report; the batch completes.
#[must_use]
pub fn run_session_contained(spec: &SessionSpec) -> RunReport {
    catch_unwind(AssertUnwindSafe(|| run_session(spec)))
        .unwrap_or_else(|payload| RunReport::poisoned(spec, &panic_message(payload.as_ref())))
}

/// Renders a panic payload as text. `panic!`/`assert!`/`expect` payloads
/// are `&str` or `String`; both forms are deterministic for a given
/// spec, which keeps poisoned reports byte-identical across worker
/// counts.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one session to completion. Pure: same spec, same report (modulo
/// nothing — even the trace bytes are pinned by the spec).
#[must_use]
pub fn run_session(spec: &SessionSpec) -> RunReport {
    if let Some(algorithm) = spec.algorithm {
        return run_algo_session(spec, algorithm);
    }
    // Only the synchronous channels read the coding.
    let paced = || paced_config(spec.coding).expect("coding spec with valid levels and dwell");
    match spec.protocol.row().channel {
        Channel::SyncPair => match paced() {
            Some(cfg) => run_chat(spec, None, || Paced2::new(cfg)),
            None => run_chat(spec, None, Sync2::new),
        },
        Channel::SyncN(scheme) => match paced() {
            Some(cfg) => run_chat(spec, Some(scheme), || PacedSwarm::with_scheme(scheme, cfg)),
            None => run_chat(spec, Some(scheme), || SyncSwarm::with_scheme(scheme)),
        },
        Channel::AsyncPair => run_chat(spec, None, || Async2::new(DriftPolicy::Diverge)),
        Channel::AsyncN(scheme) => run_chat(spec, Some(scheme), || AsyncSwarm::with_scheme(scheme)),
        Channel::Failover => run_hardened(spec),
    }
}

/// Translates a [`CodingSpec`] into the paced channel's config — `None`
/// for binary, which keeps the historical protocols (and their traces)
/// untouched. The gateway admits a spec only if this accepts its coding.
///
/// # Errors
///
/// [`CodingError::AlphabetTooSmall`] for levels that are not a power of
/// two of at least 2, or for a zero dwell.
pub fn paced_config(coding: CodingSpec) -> Result<Option<PacedConfig>, CodingError> {
    let (levels, dwell, fec) = match coding {
        CodingSpec::Binary => return Ok(None),
        CodingSpec::MultiLevel { levels, dwell } => (levels, dwell, false),
        CodingSpec::Fec { levels, dwell } => (levels, dwell, true),
    };
    PacedConfig::new(usize::from(levels), u32::from(dwell), fec).map(Some)
}

/// Builds a session's [`Network`] and starts it the way the adversarial
/// suite did. With `naming` unset it is a pair at fixed positions under
/// the builder's default capabilities; otherwise `spec.cohort` robots on
/// [`ring`] under the naming's capabilities. The trace streams into the
/// returned [`TraceEncoder`]: the engine keeps no step history, only the
/// initial configuration that naming reads, and the bytes are identical
/// to encoding a recorded trace (the golden-trace suite pins them).
/// Starting runs one benign preprocessing instant, then arms the fault
/// plan; a model error in that instant comes back as the third element.
fn start<P: Chat + 'static>(
    spec: &SessionSpec,
    naming: Option<NamingScheme>,
    make: impl Fn() -> P,
) -> (Network<P>, Rc<RefCell<TraceEncoder>>, Option<String>) {
    let (positions, n) = match naming {
        None => (vec![Point::new(0.0, 0.0), Point::new(14.0, 0.0)], 2),
        Some(_) => (ring(spec.cohort, 18.0), spec.cohort),
    };
    let plan = spec.plan.plan(spec.plan_seed());
    // `build_faulted` arms crash-aware wrappers (`CrashFiltered`) with
    // this session's plan; plain schedules ignore the plan.
    let schedule = WakeAllFirst::new(spec.schedule.build_faulted(n, &plan));
    let encoder = Rc::new(RefCell::new(TraceEncoder::new(&positions)));
    let sink = Rc::clone(&encoder);
    let mut net = Network::streaming(
        positions,
        naming,
        make,
        schedule,
        spec.frame_seed(),
        move |ev| sink.borrow_mut().record_event(&ev),
    )
    .expect("pair and ring configurations are always valid");
    let error = net.run(1).err().map(|e| e.to_string());
    if error.is_none() {
        net.engine_mut().set_fault_plan(plan);
    }
    (net, encoder, error)
}

/// Runs a chat session from [`start`] to delivery or budget exhaustion:
/// robot 0 sends the payload to the last robot. Inbox entries that
/// differ from the payload count as corrupt — detect-or-reject demands
/// that stays 0.
fn run_chat<P: Chat + 'static>(
    spec: &SessionSpec,
    naming: Option<NamingScheme>,
    make: impl Fn() -> P,
) -> RunReport {
    let (mut net, encoder, mut error) = start(spec, naming, make);
    let receiver = net.cohort() - 1;
    let mut steps_to_delivery = None;
    if error.is_none() {
        let sent = net.send(0, receiver, &spec.payload);
        match sent.and_then(|()| net.run_until_delivered(spec.budget())) {
            Ok(steps) => steps_to_delivery = Some(steps),
            Err(CoreError::Timeout { .. }) => {}
            Err(e) => error = Some(e.to_string()),
        }
    }
    let engine = net.engine();
    let corrupt = engine
        .protocol(receiver)
        .payloads()
        .filter(|&p| p != spec.payload)
        .count() as u64;
    let fec = engine.protocols().iter().fold((0, 0), |(c, r), p| {
        let (ci, ri) = p.fec_stats();
        (c + ci, r + ri)
    });
    let encoder = encoder.borrow();
    finish(
        spec,
        engine,
        &encoder,
        steps_to_delivery,
        corrupt,
        fec,
        error,
    )
}

/// Builds the report from a finished engine: counters, the trace
/// encoding (streamed, or replayed from a recorded trace), and the
/// collision invariant check. The one place a finished session's report
/// is built. The session delivered iff `steps_to_delivery` is set.
fn finish<P: MovementProtocol>(
    spec: &SessionSpec,
    engine: &Engine<P>,
    encoder: &TraceEncoder,
    steps_to_delivery: Option<u64>,
    corrupt: u64,
    fec: (u64, u64),
    mut error: Option<String>,
) -> RunReport {
    let stats = engine.stats();
    let delivered = steps_to_delivery.is_some();
    let min_distance = engine.min_pairwise_distance();
    if error.is_none() && min_distance < DEFAULT_COLLISION_EPS {
        error = Some(format!(
            "collision invariant violated: min distance {min_distance}"
        ));
    }
    RunReport {
        delivered,
        steps: stats.steps,
        steps_to_delivery,
        activations: stats.activations,
        moves: stats.moves,
        faults: stats.faults_injected,
        corrupt,
        delivered_bits: delivered_payload_bits(spec, delivered),
        fec_corrected: fec.0,
        fec_rejected: fec.1,
        min_distance,
        trace_len: encoder.encoded_len(),
        trace_hash: encoder.fingerprint(),
        trace: spec.keep_trace.then(|| encoder.to_bytes()),
        error,
        ..RunReport::unrun(spec)
    }
}

/// The payload bits a delivered session moved end to end. Algorithm
/// sessions report 0 here — their traffic is metered in `algo.bits`.
fn delivered_payload_bits(spec: &SessionSpec, delivered: bool) -> u64 {
    if delivered && spec.algorithm.is_none() {
        8 * spec.payload.len() as u64
    } else {
        0
    }
}

fn run_hardened(spec: &SessionSpec) -> RunReport {
    let plan = spec.plan.plan(spec.plan_seed());
    let policy = RetransmitPolicy::new(3, spec.budget().max(1), 2);
    let mut session = HardenedSession::with_faults(
        ring(spec.cohort, 18.0),
        spec.frame_seed(),
        policy,
        Wireless::reliable(spec.frame_seed()),
        plan,
    )
    .expect("ring configuration is always valid");
    let receiver = spec.cohort - 1;
    let (delivered, error) = match session.send(0, receiver, &spec.payload) {
        Ok(_) => (true, None),
        Err(CoreError::Timeout { .. }) => (false, None),
        Err(e) => (false, Some(e.to_string())),
    };
    let stats = session.stats();
    let corrupt = session
        .inbox(receiver)
        .iter()
        .filter(|(_, p)| p != &spec.payload)
        .count() as u64;
    let engine = session.network().engine();
    let mut report = finish(
        spec,
        engine,
        &TraceEncoder::from_trace(engine.trace()),
        delivered.then_some(stats.movement_steps),
        corrupt,
        (stats.fec_corrected, stats.fec_rejected),
        error,
    );
    report.retransmissions = stats.retransmissions;
    report
}

/// Queues a stack's outgoing frames on robot `i`'s protocol and returns
/// their channel cost in bits: `bits(L) = 16 + 8L` per frame (16-bit
/// header plus 8 bits per payload byte, one excursion per bit).
fn enqueue_frames(
    engine: &mut Engine<AsyncSwarm>,
    i: usize,
    labels: &[usize],
    out: Vec<Outgoing>,
) -> u64 {
    let mut bits = 0;
    for msg in out {
        bits += 16 + 8 * msg.body().len() as u64;
        match msg {
            Outgoing::Broadcast { body } => engine.protocol_mut(i).send_broadcast(&body),
            Outgoing::Unicast { peer, body } => {
                engine.protocol_mut(i).send_label(labels[peer], &body);
            }
        }
    }
    bits
}

/// Drives one distributed-algorithm session over the async-swarm
/// movement channel.
///
/// The driver is the glue `DESIGN.md` §13 specifies: it builds each
/// robot's [`NodeStack`], translates engine indices into each robot's
/// local home indices, pumps delivered inbox frames into the stacks, and
/// relays the engine's failure detector to the algorithm — when the
/// fault plan's crash-stop instant has passed, every surviving robot's
/// stack gets `on_crash`, in fixed robot order. (The movement channel
/// needs no relay: every view lists the crashed peers, and `AsyncSwarm`
/// excludes them from its implicit-ack rule itself.) The run ends when
/// every live robot's stack is terminal, or the budget expires.
#[allow(clippy::too_many_lines)]
fn run_algo_session(spec: &SessionSpec, algorithm: AlgorithmSpec) -> RunReport {
    let n = spec.cohort;
    assert!(
        (2..=64).contains(&n),
        "algorithm sessions need a cohort in 2..=64, got {n}"
    );
    if let AlgorithmSpec::Flood { initiator } = algorithm {
        assert!(
            initiator < n,
            "flood initiator {initiator} outside cohort {n}"
        );
    }
    let scheme = NamingScheme::BySec;
    let (mut net, encoder, mut error) =
        start(spec, Some(scheme), || AsyncSwarm::with_scheme(scheme));
    let engine = net.engine_mut();
    let mut algo = AlgoOutcome {
        rounds: 0,
        bits: 0,
        activations_to_decision: None,
        decision: None,
        rejected: false,
    };
    let mut steps_to_delivery = None;
    let mut corrupt = 0u64;

    'run: {
        // `start` ran the preprocessing instant (geometries build).
        if error.is_some() {
            break 'run;
        }

        // Identity maps: `home[i][j]` is engine robot `j` as a home index
        // of robot `i`'s geometry; `labels[i][h]` addresses home `h` for
        // unicast sends from `i`.
        let initial: Vec<Point> = engine.trace().initial().to_vec();
        let mut home = vec![vec![0usize; n]; n];
        let mut labels = vec![vec![0usize; n]; n];
        for i in 0..n {
            let Some(g) = engine.protocol(i).geometry() else {
                error = Some(format!("robot {i}: degenerate configuration, no geometry"));
                break 'run;
            };
            for (j, &world) in initial.iter().enumerate() {
                if i == j {
                    continue; // home[i][i] = 0, self
                }
                let local = engine.frames()[i].to_local(world);
                let Some(h) = (0..g.cohort()).find(|&h| g.home(h).approx_eq(local)) else {
                    error = Some(format!("robot {i}: robot {j} not among its homes"));
                    break 'run;
                };
                home[i][j] = h;
            }
            for (h, label) in labels[i].iter_mut().enumerate() {
                *label = g.label_for(0, h);
            }
        }

        // The crash-stops that hit the cohort, in the order they strike;
        // the engine ignores the others, and so does the detector.
        let mut crash_list: Vec<(usize, u64)> = spec
            .plan
            .plan(spec.plan_seed())
            .crash_stops()
            .iter()
            .copied()
            .filter(|&(robot, _)| robot < n)
            .collect();
        crash_list.sort_unstable_by_key(|&(robot, time)| (time, robot));

        // One stack per robot. All robots must agree on `max_rounds`; it
        // derives from the plan's crash budget (`f + 1` FloodSet rounds).
        let max_rounds = crash_list.len() as u64 + 1;
        let proto_id = algo_row(algorithm).protocol_id;
        let mut stacks: Vec<NodeStack> = Vec::with_capacity(n);
        for (i, home_i) in home.iter().enumerate() {
            let session: Box<dyn stigmergy_algo::Session> = match algorithm {
                AlgorithmSpec::Flood { initiator } if i == initiator => {
                    Box::new(FloodSession::initiator(spec.payload.clone(), n))
                }
                AlgorithmSpec::Flood { initiator } => {
                    Box::new(FloodSession::follower(home_i[initiator]))
                }
                AlgorithmSpec::Election => {
                    // The election signature is similarity-invariant, so
                    // computing it from the world-frame snapshot equals
                    // each robot's own local-frame computation. Truncation
                    // to the 32-bit wire width preserves symmetry ties.
                    match election_signature(&initial, i) {
                        Ok(sig) => Box::new(ElectionSession::new(sig as u32, n)),
                        Err(e) => {
                            error = Some(format!("election signature: {e}"));
                            break 'run;
                        }
                    }
                }
                AlgorithmSpec::Agreement { inputs } => {
                    Box::new(AgreementSession::new((inputs >> i) & 1 == 1, n, max_rounds))
                }
            };
            let mut stack = NodeStack::new();
            stack.register(proto_id, session);
            stacks.push(stack);
        }
        for i in 0..n {
            let out = stacks[i].start();
            algo.bits += enqueue_frames(engine, i, &labels[i], out);
        }

        // The pump loop: step, strike newly-crashed robots, route fresh
        // inbox frames, check termination. A stack's status changes only
        // in `start`, `on_frame` and `on_crash`, so termination is
        // re-checked only after the first instant and after instants
        // that routed a frame or a crash.
        let mut live = vec![true; n];
        let mut notified = vec![false; n];
        let mut cursor = vec![0usize; n];
        let budget = spec.budget();
        let mut taken = 0u64;
        let mut routed = true;
        while taken < budget {
            if let Err(e) = engine.run(1) {
                error = Some(e.to_string());
                break 'run;
            }
            taken += 1;
            let now = engine.stats().steps;
            for &(robot, when) in &crash_list {
                // `steps` counts executed instants, so `now > when` means
                // instant `when` — where the engine froze the robot — has
                // already run: the detector never accuses a live robot.
                if notified[robot] || now <= when {
                    continue;
                }
                notified[robot] = true;
                live[robot] = false;
                routed = true;
                for i in 0..n {
                    if i == robot || !live[i] {
                        continue;
                    }
                    let out = stacks[i].on_crash(home[i][robot]);
                    algo.bits += enqueue_frames(engine, i, &labels[i], out);
                }
            }
            for i in 0..n {
                if !live[i] || engine.protocol(i).inbox().len() <= cursor[i] {
                    continue;
                }
                let fresh: Vec<(usize, Vec<u8>)> = engine.protocol(i).inbox()[cursor[i]..]
                    .iter()
                    .map(|m| (m.sender, m.payload.clone()))
                    .collect();
                cursor[i] += fresh.len();
                routed = true;
                for (sender, payload) in fresh {
                    let out = stacks[i].on_frame(sender, &payload);
                    algo.bits += enqueue_frames(engine, i, &labels[i], out);
                }
            }
            if std::mem::take(&mut routed)
                && (0..n)
                    .filter(|&i| live[i])
                    .all(|i| stacks[i].all_terminal())
            {
                steps_to_delivery = Some(taken);
                algo.activations_to_decision = Some(engine.stats().activations);
                break;
            }
        }

        if algo.activations_to_decision.is_none() {
            break 'run; // timed out: counters stand, no decision
        }

        // Decision extraction. Frames that failed demux count as corrupt
        // (a garbled frame cannot carry a registered protocol id).
        let mut statuses = Vec::with_capacity(n);
        for (i, stack) in stacks.iter().enumerate() {
            corrupt += stack.unroutable();
            if !live[i] {
                continue;
            }
            algo.rounds = algo.rounds.max(stack.rounds_of(proto_id).unwrap_or(1));
            statuses.push(stack.status_of(proto_id).expect("session registered"));
        }
        algo.rejected = statuses.iter().any(|s| matches!(s, Status::Rejected(_)));
        match algorithm {
            AlgorithmSpec::Flood { initiator } => {
                // The initiator's coverage count is the session decision
                // (followers decide 1). A crashed initiator leaves the
                // followers rejecting: terminal, but no decision.
                if live[initiator] {
                    algo.decision = stacks[initiator]
                        .status_of(proto_id)
                        .and_then(|s| s.decision());
                }
            }
            AlgorithmSpec::Election | AlgorithmSpec::Agreement { .. } => {
                // Every live robot must land on the same terminal status —
                // the agreement property itself for FloodSet, and the
                // common-knowledge property for election (identical
                // electorates see the same unique-or-tied minimum).
                let first = statuses.first().copied();
                if statuses.iter().any(|s| Some(*s) != first) {
                    error = Some(format!(
                        "split decision: live robots disagree ({statuses:?})"
                    ));
                } else {
                    algo.decision = first.and_then(|s| s.decision());
                }
            }
        }
        // "Delivered" for an algorithm session = terminated with a
        // consistent decision (a rejection terminates but delivers no
        // decision, mirroring undelivered payloads).
        if error.is_some() || algo.decision.is_none() {
            steps_to_delivery = None;
        }
    }

    let encoder = encoder.borrow();
    let mut report = finish(
        spec,
        engine,
        &encoder,
        steps_to_delivery,
        corrupt,
        (0, 0),
        error,
    );
    report.algo = Some(algo);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> BatchSpec {
        BatchSpec {
            budget_cap: Some(1_500),
            keep_traces: true,
            ..BatchSpec::conformance_matrix(vec![0, 1])
        }
    }

    #[test]
    fn sessions_expand_the_full_cross_product() {
        let spec = tiny_spec();
        let sessions = spec.sessions();
        assert_eq!(sessions.len(), 6 * 3 * 3 * 2);
        // Protocol-major order: first block is all sync2.
        assert!(sessions[..18]
            .iter()
            .all(|s| s.protocol == ProtocolKind::Sync2));
        assert_eq!(sessions[0].seed, 0);
        assert_eq!(sessions[1].seed, 1);
    }

    #[test]
    fn seed_zero_reproduces_historical_frame_seeds() {
        let spec = SessionSpec {
            protocol: ProtocolKind::Sync2,
            algorithm: None,
            schedule: ScheduleSpec::Synchronous,
            plan: FaultSpec::Benign,
            seed: 0,
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding: CodingSpec::Binary,
        };
        assert_eq!(spec.frame_seed(), 0xFA01);
        assert_eq!(spec.plan_seed(), 0xA1);
    }

    #[test]
    fn crash_plans_get_capped_budgets() {
        let mut spec = tiny_spec().sessions().pop().unwrap();
        spec.protocol = ProtocolKind::AsyncSwarm;
        spec.budget_cap = None;
        spec.plan = FaultSpec::Crash {
            robot: 1,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        assert_eq!(spec.budget(), 20_000);
        spec.plan = FaultSpec::Benign;
        assert_eq!(spec.budget(), 800_000);
        spec.budget_cap = Some(100);
        assert_eq!(spec.budget(), 100);
    }

    #[test]
    fn budget_ends_where_the_outcome_is_fixed() {
        let crash = |robot| FaultSpec::Crash {
            robot,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        let lagging = ScheduleSpec::LaggingReceiver { max_gap: 8 };
        let spec = |protocol, plan| SessionSpec {
            protocol,
            algorithm: None,
            schedule: lagging.clone(),
            plan,
            seed: 0,
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            coding: CodingSpec::Fec {
                levels: 8,
                dwell: 10,
            },
            budget_cap: None,
            keep_trace: false,
        };
        let dropout = FaultSpec::Dropout { prob: 0.1 };

        // The receiver crashes: robot 1 in a pair, cohort − 1 in a swarm.
        assert_eq!(spec(ProtocolKind::Sync2, crash(1)).budget(), 35);
        assert_eq!(spec(ProtocolKind::Async2, crash(1)).budget(), 35);
        assert_eq!(spec(ProtocolKind::AsyncSwarm, crash(2)).budget(), 35);
        assert_eq!(spec(ProtocolKind::SyncSwarmSec, crash(2)).budget(), 35);
        // A bystander's crash fixes nothing.
        assert_eq!(spec(ProtocolKind::AsyncSwarm, crash(1)).budget(), 20_000);
        let mut binary = spec(ProtocolKind::SyncSwarmLex, crash(1));
        binary.coding = CodingSpec::Binary;
        assert_eq!(binary.budget(), 20_000);

        // A paced sender drains within S·(G+1) instants, G its own gap
        // bound. The lagging receiver never delays the sender (G = 0).
        let paced = PacedConfig::new(8, 10, true).unwrap();
        let sender_activations = paced.sender_activations(DEFAULT_PAYLOAD);
        assert_eq!(sender_activations, 570);
        assert_eq!(
            spec(ProtocolKind::Sync2, dropout.clone()).budget(),
            sender_activations
        );
        assert_eq!(
            spec(ProtocolKind::SyncSwarmLex, dropout.clone()).budget(),
            sender_activations
        );
        // A crashed bystander leaves the sender's schedule as it was.
        let mut filtered = spec(ProtocolKind::SyncSwarmRouted, crash(1));
        filtered.schedule = ScheduleSpec::CrashFiltered {
            inner: Box::new(lagging.clone()),
        };
        assert_eq!(filtered.budget(), sender_activations);
        // A lagging sender waits up to G = 8 instants per activation.
        let mut starved = spec(ProtocolKind::Sync2, dropout.clone());
        starved.schedule = ScheduleSpec::Lagging {
            victim: 0,
            max_gap: 8,
        };
        assert_eq!(starved.budget(), 5_130);
        starved.protocol = ProtocolKind::SyncSwarmSec;
        assert_eq!(starved.budget(), 5_130);
        let mut binary = spec(ProtocolKind::Sync2, dropout.clone());
        binary.coding = CodingSpec::Binary;
        assert_eq!(binary.budget(), 40_000);
        let mut unbounded = spec(ProtocolKind::Sync2, dropout.clone());
        unbounded.schedule = ScheduleSpec::Lagging {
            victim: 0,
            max_gap: u64::MAX,
        };
        assert_eq!(unbounded.budget(), 40_000);
        // A crashed sender may never drain; the asynchronous channels
        // ignore the coding.
        assert_eq!(spec(ProtocolKind::Sync2, crash(0)).budget(), 20_000);
        assert_eq!(spec(ProtocolKind::SyncSwarmSec, crash(0)).budget(), 20_000);
        assert_eq!(
            spec(ProtocolKind::Async2, dropout.clone()).budget(),
            600_000
        );

        // The explicit ceiling still wins; algorithm and hardened budgets
        // take neither cap.
        let mut capped = spec(ProtocolKind::Sync2, dropout);
        capped.budget_cap = Some(100);
        assert_eq!(capped.budget(), 100);
        capped.plan = crash(1);
        capped.budget_cap = Some(1_000);
        assert_eq!(capped.budget(), 35);
        assert_eq!(
            algo_spec(AlgorithmSpec::Election, crash(2)).budget(),
            900_000
        );
        assert_eq!(spec(ProtocolKind::Hardened, crash(2)).budget(), 4_000);
    }

    /// Runs one paced chat session the way [`run_chat`] does, to its
    /// budget. If it did not deliver, requires that the sender is
    /// drained, then keeps stepping to `horizon` and requires that the
    /// receiver's inbox never changes. Returns whether it delivered.
    fn outcome_is_fixed_at_budget<P: Chat + 'static>(
        spec: &SessionSpec,
        naming: Option<NamingScheme>,
        make: impl Fn() -> P,
        drained: impl Fn(&P) -> bool,
        horizon: u64,
    ) -> bool {
        let (mut net, _, error) = start(spec, naming, make);
        assert_eq!(error, None, "{spec:?}");
        let receiver = net.cohort() - 1;
        net.send(0, receiver, &spec.payload).unwrap();
        match net.run_until_delivered(spec.budget()) {
            Ok(_) => return true,
            Err(CoreError::Timeout { .. }) => {}
            Err(e) => panic!("{spec:?}: {e}"),
        }
        let inbox = |net: &Network<P>| -> Vec<Vec<u8>> {
            net.engine()
                .protocol(receiver)
                .payloads()
                .map(<[u8]>::to_vec)
                .collect()
        };
        let seed = spec.seed;
        let protocol = spec.protocol.name();
        assert!(
            drained(net.engine().protocol(0)),
            "{protocol} seed {seed}: sender still sending at {}",
            spec.budget()
        );
        let fixed = inbox(&net);
        for t in spec.budget()..horizon {
            net.run(1).unwrap();
            assert_eq!(
                inbox(&net),
                fixed,
                "{protocol} seed {seed}: inbox changed {} instants past the budget",
                t + 1 - spec.budget()
            );
        }
        false
    }

    /// The sender's own gap bound is enough: in the four synchronous
    /// lagging-receiver × dropout cells, every session still undelivered
    /// at its 570-instant budget has a drained sender, and its receiver's
    /// inbox stays as it is through the 5,130 instants the cohort-wide
    /// gap bound (the receiver's 8) would have allowed.
    #[test]
    fn undelivered_paced_sessions_stay_undelivered_past_the_budget() {
        let batch = BatchSpec {
            protocols: vec![
                ProtocolKind::Sync2,
                ProtocolKind::SyncSwarmRouted,
                ProtocolKind::SyncSwarmLex,
                ProtocolKind::SyncSwarmSec,
            ],
            schedules: vec![ScheduleSpec::LaggingReceiver { max_gap: 8 }],
            plans: vec![FaultSpec::Dropout { prob: 0.1 }],
            ..BatchSpec::conformance_matrix((0..16).collect())
        };
        let cfg = paced_config(batch.coding).unwrap().unwrap();
        let horizon = cfg.sender_activations(&batch.payload) * (8 + 1);
        let mut undelivered = 0;
        for spec in batch.sessions() {
            assert_eq!(spec.budget(), 570);
            let delivered = match spec.protocol.row().channel {
                Channel::SyncN(scheme) => outcome_is_fixed_at_budget(
                    &spec,
                    Some(scheme),
                    || PacedSwarm::with_scheme(scheme, cfg),
                    PacedSwarm::is_drained,
                    horizon,
                ),
                _ => outcome_is_fixed_at_budget(
                    &spec,
                    None,
                    || Paced2::new(cfg),
                    Paced2::is_drained,
                    horizon,
                ),
            };
            undelivered += u32::from(!delivered);
        }
        assert!(undelivered > 0, "no session exercised the cap");
    }

    #[test]
    fn single_session_is_reproducible() {
        let spec = SessionSpec {
            protocol: ProtocolKind::SyncSwarmLex,
            algorithm: None,
            schedule: ScheduleSpec::Bursty {
                seed: 0x0AD5_CEDD,
                burst_len: 3,
                lull_len: 5,
            },
            plan: FaultSpec::NonRigid {
                delta: 0.35,
                prob: 0.5,
            },
            seed: 7,
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            budget_cap: Some(2_000),
            keep_trace: true,
            coding: CodingSpec::Binary,
        };
        let a = run_session(&spec);
        let b = run_session(&spec);
        assert_eq!(a, b);
        assert!(a.trace.is_some());
        assert!(a.error.is_none());
        assert!(a.faults > 0, "non-rigid plan at p=0.5 must fire");
    }

    #[test]
    fn batch_report_aggregates_all_sessions() {
        let spec = BatchSpec {
            protocols: vec![ProtocolKind::Sync2, ProtocolKind::SyncSwarmLex],
            algorithms: vec![],
            schedules: vec![ScheduleSpec::WorstCaseFair { max_gap: 6 }],
            plans: vec![FaultSpec::Benign],
            seeds: vec![0, 1, 2],
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            budget_cap: Some(3_000),
            keep_traces: false,
            coding: CodingSpec::Binary,
        };
        let report = run_batch(&spec, 2);
        assert_eq!(report.runs.len(), 6);
        assert_eq!(report.metrics.sessions, 6);
        assert_eq!(report.workers, 2);
        assert_eq!(
            report.metrics.steps,
            report.runs.iter().map(|r| r.steps).sum::<u64>()
        );
        assert_eq!(report.for_protocol("sync2").count(), 3);
        assert!(report.runs.iter().all(|r| r.error.is_none()));
        assert!(report.runs.iter().all(|r| r.trace.is_none()));
        assert!(report.runs.iter().all(|r| r.trace_len > 0));
    }

    #[test]
    fn observed_batch_equals_plain_batch_and_streams_progress() {
        let spec = BatchSpec {
            budget_cap: Some(500),
            ..BatchSpec::conformance_matrix(vec![0])
        };
        let plain = run_batch(&spec, 2);
        let mut progress = Vec::new();
        let observed = run_batch_with(&spec, 2, |p| progress.push(p), &CancelToken::new()).unwrap();
        assert_eq!(plain.runs, observed.runs);
        assert_eq!(plain.metrics, observed.metrics);
        let total = spec.sessions().len();
        assert_eq!(progress.len(), total, "one event per session");
        assert_eq!(
            progress.last(),
            Some(&Progress {
                completed: total,
                total
            })
        );
        assert!(progress.windows(2).all(|w| w[0].completed < w[1].completed));
    }

    #[test]
    fn cancelled_batch_reports_interruption() {
        let spec = BatchSpec {
            budget_cap: Some(500),
            ..BatchSpec::conformance_matrix(vec![0])
        };
        let token = CancelToken::new();
        token.cancel();
        let err = run_batch_with(&spec, 2, |_| {}, &token).expect_err("pre-cancelled");
        assert_eq!(err.completed, 0);
        assert_eq!(err.total, spec.sessions().len());
        assert!(err.to_string().contains("cancelled after 0 of"));
    }

    #[test]
    fn wire_codes_round_trip_and_cover_every_protocol() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_wire_code(kind.wire_code()), Some(kind));
            // Exhaustive on purpose: a new variant stops this test from
            // building until it is listed here and in `ALL`.
            match kind {
                ProtocolKind::Sync2
                | ProtocolKind::Async2
                | ProtocolKind::SyncSwarmRouted
                | ProtocolKind::SyncSwarmLex
                | ProtocolKind::SyncSwarmSec
                | ProtocolKind::AsyncSwarm
                | ProtocolKind::Hardened => {}
            }
        }
        assert_eq!(ProtocolKind::from_wire_code(7), None);
        // Exhaustiveness cannot catch a value copied into two rows.
        let rows = ProtocolKind::ALL.map(ProtocolKind::row);
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.wire_code, b.wire_code);
                assert_ne!(a.tag, b.tag);
            }
        }
    }

    #[test]
    fn poisoned_session_is_contained_and_deterministic() {
        // cohort = 0 trips a constructor invariant inside run_session
        // (empty ring) in every build profile; the containment wrapper
        // must turn the panic into a failed report, not an unwind.
        let spec = SessionSpec {
            protocol: ProtocolKind::SyncSwarmSec,
            algorithm: None,
            schedule: ScheduleSpec::Synchronous,
            plan: FaultSpec::Benign,
            seed: 0,
            cohort: 0,
            payload: DEFAULT_PAYLOAD.to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding: CodingSpec::Binary,
        };
        let report = run_session_contained(&spec);
        let error = report.error.as_deref().expect("poisoned report errors");
        assert!(error.starts_with("session panicked:"), "{error}");
        assert!(!report.delivered);
        assert_eq!(report.steps, 0);
        assert_eq!(report.trace_len, 0);
        assert_eq!(
            run_session_contained(&spec),
            report,
            "poisoned reports replay byte-identically"
        );
    }

    #[test]
    fn panic_messages_render_str_string_and_other() {
        let a: Box<dyn std::any::Any + Send> = Box::new("boom");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned boom"));
        let c: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(a.as_ref()), "boom");
        assert_eq!(panic_message(b.as_ref()), "owned boom");
        assert_eq!(panic_message(c.as_ref()), "non-string panic payload");
    }

    #[test]
    fn hardened_sessions_deliver_and_count_retransmissions() {
        let spec = SessionSpec {
            protocol: ProtocolKind::Hardened,
            algorithm: None,
            schedule: ScheduleSpec::Synchronous, // unused by hardened
            plan: FaultSpec::Benign,
            seed: 3,
            cohort: 3,
            payload: b"hardened".to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding: CodingSpec::Binary,
        };
        let report = run_session(&spec);
        assert!(report.delivered);
        assert!(report.error.is_none());
        assert_eq!(report.corrupt, 0);
        assert_eq!(run_session(&spec), report, "hardened runs replay too");
    }

    fn paced_spec(coding: CodingSpec) -> SessionSpec {
        SessionSpec {
            protocol: ProtocolKind::Sync2,
            algorithm: None,
            schedule: ScheduleSpec::LaggingReceiver { max_gap: 8 },
            plan: FaultSpec::NonRigid {
                delta: 0.35,
                prob: 0.5,
            },
            seed: 0,
            cohort: 3,
            payload: b"adv".to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding,
        }
    }

    #[test]
    fn paced_sync_pair_delivers_where_legacy_times_out() {
        // The adversarial cell that zeroes every legacy sync protocol:
        // lagging receiver plus non-rigid movement. The paced coding
        // layer's dwell/terminator framing survives it.
        let legacy = run_session(&paced_spec(CodingSpec::Binary));
        assert!(!legacy.delivered, "legacy sync2 should still time out");
        let paced = run_session(&paced_spec(CodingSpec::Fec {
            levels: 8,
            dwell: 10,
        }));
        assert!(paced.delivered, "paced sync2 must get the payload through");
        assert!(paced.error.is_none());
        assert_eq!(paced.corrupt, 0, "detect-or-reject holds under coding");
        assert_eq!(paced.delivered_bits, 24, "3 payload bytes delivered");
    }

    #[test]
    fn oversized_payloads_report_the_typed_error() {
        // Before the send was checked against the protocol's own limit,
        // these panicked in `encode_frame` and came back poisoned. A
        // paced frame carries its CRC byte, so its limit is one lower.
        let fec = CodingSpec::Fec {
            levels: 8,
            dwell: 10,
        };
        for (protocol, coding, len) in [
            (ProtocolKind::Sync2, CodingSpec::Binary, 65_536),
            (ProtocolKind::Sync2, fec, 65_535),
            (ProtocolKind::SyncSwarmRouted, fec, 65_535),
        ] {
            let spec = SessionSpec {
                protocol,
                payload: vec![0x5A; len],
                ..paced_spec(coding)
            };
            let report = run_session_contained(&spec);
            let error = report.error.as_deref().expect("oversized payload errors");
            let max = len - 1;
            assert_eq!(
                error,
                format!("payload of {len} bytes exceeds the {max}-byte frame maximum"),
                "{protocol:?} {coding:?}"
            );
            assert!(!report.delivered);
        }
    }

    #[test]
    fn paced_sessions_replay_byte_identically() {
        let spec = SessionSpec {
            keep_trace: true,
            ..paced_spec(CodingSpec::MultiLevel {
                levels: 4,
                dwell: 10,
            })
        };
        let a = run_session(&spec);
        let b = run_session(&spec);
        assert_eq!(a, b, "paced runs replay byte-identically");
        assert!(a.trace.is_some());
    }

    #[test]
    fn invalid_coding_spec_is_poisoned_not_fatal() {
        // 3 levels is not a power of two: `PacedConfig::new` rejects it,
        // and the containment wrapper turns the panic into a report.
        let spec = paced_spec(CodingSpec::MultiLevel {
            levels: 3,
            dwell: 10,
        });
        let report = run_session_contained(&spec);
        let error = report.error.as_deref().expect("poisoned report errors");
        assert!(error.starts_with("session panicked:"), "{error}");
        assert!(!report.delivered);
    }

    #[test]
    fn asynchronous_sessions_ignore_the_coding() {
        // An invalid coding must not poison the sessions that never read
        // it: they run exactly as they do under the binary coding.
        for protocol in [
            ProtocolKind::Async2,
            ProtocolKind::AsyncSwarm,
            ProtocolKind::Hardened,
        ] {
            let run = |coding| {
                run_session_contained(&SessionSpec {
                    protocol,
                    budget_cap: Some(2_000),
                    ..paced_spec(coding)
                })
            };
            let invalid = run(CodingSpec::MultiLevel {
                levels: 3,
                dwell: 10,
            });
            assert_eq!(invalid, run(CodingSpec::Binary), "{}", protocol.name());
            assert!(invalid.error.is_none(), "{:?}", invalid.error);
        }
    }

    #[test]
    fn worker_count_is_invisible_for_coded_batches() {
        // A k>2 batch must fingerprint identically whether one worker or
        // four drive it — the claim order cannot leak into coded runs.
        let spec = BatchSpec {
            protocols: vec![ProtocolKind::Sync2, ProtocolKind::SyncSwarmLex],
            algorithms: vec![],
            schedules: vec![ScheduleSpec::LaggingReceiver { max_gap: 8 }],
            plans: vec![FaultSpec::Dropout { prob: 0.1 }],
            seeds: vec![0, 1],
            cohort: 3,
            payload: b"adv".to_vec(),
            budget_cap: Some(50_000),
            keep_traces: false,
            coding: CodingSpec::Fec {
                levels: 8,
                dwell: 10,
            },
        };
        let serial = run_batch(&spec, 1);
        let pooled = run_batch(&spec, 4);
        assert_eq!(serial.runs, pooled.runs);
        assert_eq!(serial.metrics, pooled.metrics);
        assert!(serial
            .runs
            .iter()
            .zip(pooled.runs.iter())
            .all(|(a, b)| a.trace_hash == b.trace_hash));
    }

    fn algo_spec(algorithm: AlgorithmSpec, plan: FaultSpec) -> SessionSpec {
        SessionSpec {
            protocol: ProtocolKind::AsyncSwarm,
            algorithm: Some(algorithm),
            schedule: ScheduleSpec::WorstCaseFair { max_gap: 6 },
            plan,
            seed: 1,
            cohort: 3,
            payload: b"adv".to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding: CodingSpec::Binary,
        }
    }

    #[test]
    fn algorithm_matrix_expands_algorithm_sessions() {
        let spec = BatchSpec::algorithm_matrix(vec![0, 1]);
        let sessions = spec.sessions();
        assert_eq!(sessions.len(), 3 * 2 * 2 * 2);
        assert!(sessions
            .iter()
            .all(|s| s.protocol == ProtocolKind::AsyncSwarm && s.algorithm.is_some()));
        // Algorithm-major order, same inner order as protocol blocks.
        assert!(sessions[..8]
            .iter()
            .all(|s| matches!(s.algorithm, Some(AlgorithmSpec::Flood { initiator: 0 }))));
    }

    #[test]
    fn algorithm_budgets_are_exempt_from_the_crash_cap() {
        let crash = FaultSpec::Crash {
            robot: 1,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        let spec = algo_spec(AlgorithmSpec::Election, crash);
        assert_eq!(spec.budget(), 900_000, "crash cap must not strangle algos");
        assert_eq!(
            algo_spec(AlgorithmSpec::Flood { initiator: 0 }, FaultSpec::Benign).budget(),
            600_000
        );
        assert_eq!(
            algo_spec(AlgorithmSpec::Agreement { inputs: 0 }, FaultSpec::Benign).budget(),
            1_200_000
        );
    }

    #[test]
    fn flood_session_covers_the_cohort_and_reproduces() {
        let spec = algo_spec(AlgorithmSpec::Flood { initiator: 0 }, FaultSpec::Benign);
        let report = run_session(&spec);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.delivered);
        let algo = report.algo.as_ref().expect("algo outcome populated");
        assert_eq!(algo.decision, Some(3), "full coverage of a 3-cohort");
        assert!(!algo.rejected);
        assert!(algo.bits > 0);
        assert!(algo.activations_to_decision.is_some());
        assert_eq!(
            run_session(&spec),
            report,
            "algo runs replay byte-identically"
        );
    }

    #[test]
    fn election_session_elects_one_leader() {
        let spec = algo_spec(
            AlgorithmSpec::Election,
            FaultSpec::NonRigid {
                delta: 0.35,
                prob: 0.5,
            },
        );
        let report = run_session(&spec);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.delivered);
        let algo = report.algo.as_ref().expect("algo outcome populated");
        assert!(
            algo.decision.is_some(),
            "ring cohort has distinct signatures"
        );
        assert!(!algo.rejected);
    }

    #[test]
    fn crash_outside_the_cohort_is_ignored_by_algorithm_sessions() {
        // The engine never freezes robot 5 of 3, so the failure detector
        // must not strike it either: the session runs as the same plan
        // without the crash-stop does.
        let outside = algo_spec(
            AlgorithmSpec::Election,
            FaultSpec::Crash {
                robot: 5,
                time: 35,
                delta: 0.5,
                prob: 0.25,
            },
        );
        let report = run_session_contained(&outside);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.delivered);
        let crash_free = run_session(&SessionSpec {
            plan: FaultSpec::NonRigid {
                delta: 0.5,
                prob: 0.25,
            },
            ..outside
        });
        assert_eq!(
            RunReport {
                plan: crash_free.plan,
                ..report
            },
            crash_free
        );
    }

    #[test]
    fn agreement_decides_among_survivors_of_a_crash() {
        let crash = FaultSpec::Crash {
            robot: 1,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        let spec = SessionSpec {
            schedule: ScheduleSpec::CrashFiltered {
                inner: Box::new(ScheduleSpec::WorstCaseFair { max_gap: 6 }),
            },
            ..algo_spec(AlgorithmSpec::Agreement { inputs: 0b101 }, crash)
        };
        let report = run_session(&spec);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.delivered);
        let algo = report.algo.as_ref().expect("algo outcome populated");
        // Robot 1 (input 0) crash-stops before its first vote frame can
        // complete, so the AND fold over the survivors (inputs 1, 1)
        // decides `true`.
        assert_eq!(algo.decision, Some(1));
        assert!(algo.rounds >= 1);
        assert_eq!(run_session(&spec), report);
    }
}
