//! A span-instrumented replica of `fleet::run_session` for the six
//! conformance protocols.
//!
//! The replica builds the engine `run_session` builds, from the same
//! public pieces (`Engine::builder`, `WakeAllFirst`, `build_faulted`,
//! `frame_seed`/`plan_seed`, `PacedConfig`, `ring`), but wraps every
//! protocol in [`Timed`] and times its own [`TraceEncoder`] observer, so
//! one session's time splits into scheduler build, engine build, the
//! first instant (geometry and naming), the `label_by_*` call, protocol
//! activations, trace encoding, and the engine's own remainder. Its
//! fingerprint must equal `run_session`'s `trace_hash`: the spans time
//! the real work, not an approximation of it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use stigmergy::async2::{Async2, DriftPolicy};
use stigmergy::async_n::AsyncSwarm;
use stigmergy::paced::{Paced2, PacedConfig, PacedSwarm};
use stigmergy::{label_by_id, label_by_lex, label_by_sec};
use stigmergy_fleet::{ring, ProtocolKind, SessionSpec, TraceEncoder};
use stigmergy_geometry::Point;
use stigmergy_robots::{Capabilities, Engine, MovementProtocol, View};
use stigmergy_scheduler::{CodingSpec, WakeAllFirst};

/// Nanoseconds since `t`.
pub(crate) fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Where one replicated session spent its time, plus the work counters
/// and fingerprint that tie it to `run_session`'s report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Spans {
    /// `FaultSpec::plan` + `ScheduleSpec::build_faulted` + `WakeAllFirst`.
    pub schedule_ns: u64,
    /// `Engine::builder()…build()`, frames and protocols included.
    pub build_ns: u64,
    /// The first instant, where protocols compute geometry and naming.
    pub t0_ns: u64,
    /// The `label_by_*` call that names the receiver (swarms only).
    pub label_ns: Option<u64>,
    /// `run_until` to delivery or budget.
    pub run_ns: u64,
    /// Time inside `on_activate`, over every robot and instant.
    pub activate_ns: u64,
    /// Time inside the trace observer, plus the final fingerprint.
    pub codec_ns: u64,
    /// Trace events the observer recorded.
    pub events: u64,
    /// The whole replica, end to end.
    pub total_ns: u64,
    /// Instants executed.
    pub steps: u64,
    /// Robot activations.
    pub activations: u64,
    /// Encoded trace length.
    pub trace_len: usize,
    /// FNV-1a 64 of the encoded trace.
    pub fingerprint: u64,
}

impl Spans {
    /// The engine's own time: every instant minus the protocol and
    /// observer spans inside it.
    #[must_use]
    pub fn engine_self_ns(&self) -> u64 {
        (self.t0_ns + self.run_ns).saturating_sub(self.activate_ns + self.codec_ns)
    }
}

/// Times `on_activate` of the protocol it wraps; otherwise transparent.
#[derive(Debug)]
pub(crate) struct Timed<P> {
    /// The wrapped protocol.
    pub inner: P,
    /// Nanoseconds spent in `inner.on_activate`.
    pub ns: u64,
}

impl<P: MovementProtocol> MovementProtocol for Timed<P> {
    fn on_activate(&mut self, view: &View) -> Point {
        let t = Instant::now();
        let target = self.inner.on_activate(view);
        self.ns += nanos(t);
        target
    }
}

/// How a swarm session names its receiver, as `run_session` does for
/// each capability set.
#[derive(Debug, Clone, Copy)]
enum Naming {
    Id,
    Lex,
    Sec,
}

impl Naming {
    fn label<P: MovementProtocol>(self, e: &Engine<P>, to: usize) -> Result<usize, String> {
        let labeling = match self {
            Naming::Id => label_by_id(e.ids().ok_or("identified swarm without ids")?),
            Naming::Lex => label_by_lex(e.trace().initial()),
            Naming::Sec => label_by_sec(e.trace().initial(), 0),
        }
        .map_err(|err| err.to_string())?;
        labeling
            .label_of(to)
            .ok_or_else(|| format!("receiver {to} is not nameable"))
    }
}

/// Replays `spec` with spans.
///
/// # Errors
///
/// Fails for a session the replica does not cover — algorithm sessions,
/// the hardened session, and binary coding of the synchronous protocols —
/// or when the engine or naming cannot be built.
pub(crate) fn replay(spec: &SessionSpec) -> Result<Spans, String> {
    if spec.algorithm.is_some() {
        return Err("algorithm sessions have no replica".into());
    }
    let paced = match spec.coding {
        CodingSpec::Binary => None,
        CodingSpec::MultiLevel { levels, dwell } => Some((levels, dwell, false)),
        CodingSpec::Fec { levels, dwell } => Some((levels, dwell, true)),
    }
    .map(|(levels, dwell, fec)| PacedConfig::new(usize::from(levels), u32::from(dwell), fec))
    .transpose()
    .map_err(|e| e.to_string())?;
    let payload = spec.payload.as_slice();
    let pair = vec![Point::new(0.0, 0.0), Point::new(14.0, 0.0)];
    let swarm = ring(spec.cohort, 18.0);
    let receiver = spec.cohort.saturating_sub(1);
    let swarm_has =
        |inbox: &[stigmergy::decode::InboxEntry]| inbox.iter().any(|m| m.payload == payload);
    match (spec.protocol, paced) {
        (ProtocolKind::Sync2, Some(cfg)) => drive(
            spec,
            pair,
            None,
            move || Paced2::new(cfg),
            |e| {
                e.protocol_mut(0).inner.send(payload);
                Ok(None)
            },
            |e| e.protocol(1).inner.inbox().iter().any(|m| m == payload),
        ),
        (ProtocolKind::Async2, _) => drive(
            spec,
            pair,
            None,
            || Async2::new(DriftPolicy::Diverge),
            |e| {
                e.protocol_mut(0).inner.send(payload);
                Ok(None)
            },
            |e| e.protocol(1).inner.inbox().iter().any(|m| m == payload),
        ),
        (ProtocolKind::SyncSwarmRouted, Some(cfg)) => drive(
            spec,
            swarm,
            Some(Capabilities::identified_with_direction()),
            move || PacedSwarm::routed(cfg),
            |e| send_named(e, Naming::Id, receiver, |p, l| p.send_label(l, payload)),
            |e| swarm_has(e.protocol(receiver).inner.inbox()),
        ),
        (ProtocolKind::SyncSwarmLex, Some(cfg)) => drive(
            spec,
            swarm,
            Some(Capabilities::anonymous_with_direction()),
            move || PacedSwarm::anonymous_with_direction(cfg),
            |e| send_named(e, Naming::Lex, receiver, |p, l| p.send_label(l, payload)),
            |e| swarm_has(e.protocol(receiver).inner.inbox()),
        ),
        (ProtocolKind::SyncSwarmSec, Some(cfg)) => drive(
            spec,
            swarm,
            Some(Capabilities::anonymous()),
            move || PacedSwarm::anonymous(cfg),
            |e| send_named(e, Naming::Sec, receiver, |p, l| p.send_label(l, payload)),
            |e| swarm_has(e.protocol(receiver).inner.inbox()),
        ),
        (ProtocolKind::AsyncSwarm, _) => drive(
            spec,
            swarm,
            Some(Capabilities::anonymous()),
            AsyncSwarm::anonymous,
            |e| send_named(e, Naming::Sec, receiver, |p, l| p.send_label(l, payload)),
            |e| swarm_has(e.protocol(receiver).inner.inbox()),
        ),
        (kind, _) => Err(format!(
            "no replica for {} under {} coding",
            kind.name(),
            spec.coding.name()
        )),
    }
}

/// Names `to` from robot 0's point of view, timed, and queues the
/// payload for it. Returns the naming span.
fn send_named<P: MovementProtocol>(
    e: &mut Engine<Timed<P>>,
    naming: Naming,
    to: usize,
    send: impl FnOnce(&mut P, usize),
) -> Result<Option<u64>, String> {
    let t = Instant::now();
    let label = naming.label(e, to)?;
    let label_ns = nanos(t);
    send(&mut e.protocol_mut(0).inner, label);
    Ok(Some(label_ns))
}

/// The observer's state: the canonical encoder and its span.
struct Recorder {
    encoder: TraceEncoder,
    ns: u64,
    events: u64,
}

/// `run_session`'s engine-driving shape — one benign instant, arm the
/// fault plan, queue the message, run to delivery or budget — with a
/// span around each step.
fn drive<P, F, Q, D>(
    spec: &SessionSpec,
    positions: Vec<Point>,
    caps: Option<Capabilities>,
    make: F,
    queue: Q,
    delivered: D,
) -> Result<Spans, String>
where
    P: MovementProtocol + 'static,
    F: Fn() -> P,
    Q: FnOnce(&mut Engine<Timed<P>>) -> Result<Option<u64>, String>,
    D: Fn(&Engine<Timed<P>>) -> bool,
{
    let start = Instant::now();
    let n = positions.len();
    let plan = spec.plan.plan(spec.plan_seed());
    let schedule = WakeAllFirst::new(spec.schedule.build_faulted(n, &plan));
    let schedule_ns = nanos(start);

    let t = Instant::now();
    let mut builder = Engine::builder()
        .positions(positions)
        .protocols((0..n).map(|_| Timed {
            inner: make(),
            ns: 0,
        }));
    if let Some(caps) = caps {
        builder = builder.capabilities(caps);
    }
    let mut engine = builder
        .schedule(schedule)
        .frame_seed(spec.frame_seed())
        .record_trace(false)
        .build()
        .map_err(|e| e.to_string())?;
    let build_ns = nanos(t);

    let recorder = Rc::new(RefCell::new(Recorder {
        encoder: TraceEncoder::new(engine.positions()),
        ns: 0,
        events: 0,
    }));
    let sink = Rc::clone(&recorder);
    engine.observe_trace(move |ev| {
        let t = Instant::now();
        let mut r = sink.borrow_mut();
        r.encoder.record_event(&ev);
        r.ns += nanos(t);
        r.events += 1;
    });

    let t = Instant::now();
    let first = engine.step();
    let t0_ns = nanos(t);
    let mut label_ns = None;
    let mut run_ns = 0;
    if first.is_ok() {
        engine.set_fault_plan(plan);
        label_ns = queue(&mut engine)?;
        let t = Instant::now();
        // A model error ends the session exactly as it ends run_session's;
        // the fingerprint comparison covers what was recorded up to it.
        let _ = engine.run_until(spec.budget(), |e| delivered(e));
        run_ns = nanos(t);
    }

    let activate_ns = engine.protocols().iter().map(|p| p.ns).sum();
    let stats = engine.stats();
    let r = recorder.borrow();
    let t = Instant::now();
    let fingerprint = r.encoder.fingerprint();
    let codec_ns = r.ns + nanos(t);
    Ok(Spans {
        schedule_ns,
        build_ns,
        t0_ns,
        label_ns,
        run_ns,
        activate_ns,
        codec_ns,
        events: r.events,
        total_ns: nanos(start),
        steps: stats.steps,
        activations: stats.activations,
        trace_len: r.encoder.encoded_len(),
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_fleet::{run_session, BatchSpec, CONFORMANCE};

    #[test]
    fn replica_fingerprint_matches_run_session_for_every_protocol() {
        let spec = BatchSpec {
            budget_cap: Some(400),
            ..BatchSpec::conformance_matrix(vec![3])
        };
        for kind in CONFORMANCE {
            // One session per protocol, across schedules and fault plans.
            let sessions: Vec<SessionSpec> = spec
                .sessions()
                .into_iter()
                .filter(|s| s.protocol == kind)
                .collect();
            let session = &sessions[kind.wire_code() as usize % sessions.len()];
            let report = run_session(session);
            let spans = replay(session).expect("conformance sessions replicate");
            assert_eq!(spans.fingerprint, report.trace_hash, "{}", kind.name());
            assert_eq!(spans.trace_len, report.trace_len, "{}", kind.name());
            assert_eq!(spans.steps, report.steps, "{}", kind.name());
            assert_eq!(spans.activations, report.activations, "{}", kind.name());
            assert!(spans.events >= spans.steps);
            assert!(spans.total_ns >= spans.t0_ns + spans.run_ns);
            let swarm = !matches!(kind, ProtocolKind::Sync2 | ProtocolKind::Async2);
            assert_eq!(spans.label_ns.is_some(), swarm, "{}", kind.name());
        }
    }

    #[test]
    fn uncovered_sessions_are_refused() {
        let algo = BatchSpec::algorithm_matrix(vec![0]).sessions();
        assert!(replay(&algo[0]).unwrap_err().contains("algorithm"));
        let binary = BatchSpec {
            coding: CodingSpec::Binary,
            ..BatchSpec::conformance_matrix(vec![0])
        }
        .sessions();
        assert!(replay(&binary[0])
            .unwrap_err()
            .contains("no replica for sync2"));
    }
}
