//! The simulation engine.
//!
//! The engine owns the world: true positions, per-robot frames, the
//! activation schedule, and the trace. One [`Engine::step`] is one SSM time
//! instant: the scheduler picks the active robots, each active robot
//! observes the *same* snapshot through its own frame and returns a
//! destination, and all moves are applied simultaneously, each capped by
//! that robot's `σ`. A null move — returning exactly the own position the
//! view showed — keeps the robot's world position bit for bit, so a peer
//! that compares positions exactly (the implicit acknowledgement of the
//! paper's Remark 4.3) never sees a robot that stayed put as moving.
//!
//! The engine also enforces the model's physical invariant the paper's
//! §3.2 machinery exists to guarantee: robots never collide. A step that
//! brings two robots within the collision tolerance fails with
//! [`ModelError::Collision`] — protocols are *supposed* to make that
//! impossible, and tests rely on the engine to catch them out if not.

use crate::capabilities::Capabilities;
use crate::frame::{FrameGenerator, LocalFrame};
use crate::identity::VisibleId;
use crate::protocol::MovementProtocol;
use crate::trace::{FaultEvent, StepRecord, Trace, TraceEvent};
use crate::view::{Observed, View};
use crate::ModelError;
use std::cmp::Ordering;
use std::fmt;
use stigmergy_geometry::{Point, Tolerance};
use stigmergy_scheduler::{ActivationSet, FaultPlan, Schedule, Synchronous};

/// The streaming trace consumer an engine can notify; see
/// [`Engine::observe_trace`].
pub type TraceObserver = Box<dyn FnMut(TraceEvent<'_>)>;

/// Default collision tolerance: two robots closer than this have collided.
pub const DEFAULT_COLLISION_EPS: f64 = 1e-9;

/// Report of one executed instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The instant that just executed.
    pub time: u64,
    /// Robots that were active.
    pub active: ActivationSet,
    /// How many robots changed position.
    pub moved: usize,
}

/// Outcome of [`Engine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Instants executed during this call.
    pub steps_taken: u64,
    /// Whether the predicate was satisfied (vs. the step budget running
    /// out).
    pub satisfied: bool,
}

/// Cumulative execution counters, maintained by every [`Engine::step`].
///
/// Unlike the trace, these are kept even when trace recording is off, so
/// multi-million-instant batch runs still report activity without the
/// `O(steps × n)` trace memory. All fields are plain sums, so totals over
/// any partition of sessions are order-independent — the property the
/// fleet metrics merge relies on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instants executed.
    pub steps: u64,
    /// Robot activations (sum of active-set sizes, after crash filtering).
    pub activations: u64,
    /// Activations that changed the robot's position.
    pub moves: u64,
    /// Faults injected: crash-stops + observation dropouts + non-rigid
    /// interruptions.
    pub faults_injected: u64,
}

/// The SSM simulation engine over a homogeneous cohort of protocol `P`.
///
/// Robot state is kept structure-of-arrays (`positions` / `frames` /
/// `protocols` / `sigmas`), and the per-instant hot path reuses
/// preallocated scratch buffers — the observation snapshot, the active
/// set, the dropout list, and the observation view — so a steady-state
/// instant performs no heap allocation at all. Derived geometry (the
/// running collision margin) is cached and refreshed only on instants
/// whose moves changed some position bitwise.
pub struct Engine<P> {
    positions: Vec<Point>,
    frames: Vec<LocalFrame>,
    protocols: Vec<P>,
    sigmas: Vec<f64>,
    ids: Option<Vec<VisibleId>>,
    schedule: Box<dyn Schedule>,
    trace: Trace,
    time: u64,
    collision_eps: f64,
    global_clock: bool,
    visibility: Option<f64>,
    record: bool,
    faults: FaultPlan,
    stats: EngineStats,
    observer: Option<TraceObserver>,
    // Hot-path scratch, reused across instants.
    snapshot: Vec<Point>,
    active: ActivationSet,
    dropped: Vec<usize>,
    view: View,
    // Cached derived geometry: the minimum pairwise distance over every
    // configuration produced so far (initial + after each instant),
    // refreshed only when a move changed some position bitwise.
    min_pairwise: f64,
    geometry_dirty: bool,
}

impl<P: fmt::Debug> fmt::Debug for Engine<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("positions", &self.positions)
            .field("protocols", &self.protocols)
            .field("schedule", &self.schedule)
            .field("time", &self.time)
            .field("faults", &self.faults)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Engine<()> {
    /// Starts building an engine.
    #[must_use]
    pub fn builder<P>() -> EngineBuilder<P> {
        EngineBuilder::new()
    }
}

impl<P: MovementProtocol> Engine<P> {
    /// Executes one time instant.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Collision`] if the step brings two robots
    /// within the collision tolerance; the engine state still reflects the
    /// offending configuration for post-mortem inspection.
    pub fn step(&mut self) -> Result<StepReport, ModelError> {
        let time = self.time;
        let moved = self.step_inner()?;
        Ok(StepReport {
            time,
            active: self.active.clone(),
            moved,
        })
    }

    /// The allocation-free instant: everything [`Engine::step`] does,
    /// without materializing the [`StepReport`]. [`Engine::run`] and
    /// [`Engine::run_until`] drive this directly.
    fn step_inner(&mut self) -> Result<usize, ModelError> {
        let n = self.positions.len();
        let time = self.time;
        self.schedule.activations_into(time, n, &mut self.active);

        // Crash-stop: a crashed robot is never activated again (its body
        // stays visible). The crash itself is recorded at its instant so
        // the trace pins when the adversary struck.
        if !self.faults.is_benign() {
            for k in 0..self.faults.crash_stops().len() {
                let (robot, when) = self.faults.crash_stops()[k];
                if when == time && robot < n {
                    self.stats.faults_injected += 1;
                    self.emit_fault(FaultEvent::CrashStop { time, robot });
                }
            }
            for k in 0..self.faults.crash_stops().len() {
                let (robot, when) = self.faults.crash_stops()[k];
                if when <= time {
                    self.active.remove(robot);
                }
            }
        }
        self.stats.activations += self.active.len() as u64;

        self.snapshot.clear();
        self.snapshot.extend_from_slice(&self.positions);
        let has_dropouts = self.faults.has_dropouts();
        let has_crashes = !self.faults.crash_stops().is_empty();
        let has_non_rigid = self.faults.has_non_rigid();
        let view_time = self.global_clock.then_some(self.time);

        let mut moved = 0usize;
        let mut changed = self.geometry_dirty;
        for i in 0..n {
            if !self.active.contains(i) {
                continue;
            }
            // Transient observation dropout: this activation fails to see
            // some other robots. A robot always sees itself.
            let mut dropped = std::mem::take(&mut self.dropped);
            dropped.clear();
            if has_dropouts {
                self.faults.dropped_observations(i, n, time, &mut dropped);
                self.stats.faults_injected += dropped.len() as u64;
                for &j in &dropped {
                    self.emit_fault(FaultEvent::ObservationDropout {
                        time,
                        observer: i,
                        observed: j,
                    });
                }
            }
            {
                let ids = self.ids.as_deref();
                let frame = &self.frames[i];
                let own = Observed {
                    position: frame.to_local(self.snapshot[i]),
                    id: ids.map(|d| d[i]),
                };
                self.view
                    .reset(own, frame.len_to_local(self.sigmas[i]), view_time);
                for (j, &p) in self.snapshot.iter().enumerate() {
                    if j != i
                        && !dropped.contains(&j)
                        && self
                            .visibility
                            .is_none_or(|r| self.snapshot[i].distance(p) <= r)
                    {
                        self.view.push_other(Observed {
                            position: frame.to_local(p),
                            id: ids.map(|d| d[j]),
                        });
                    }
                }
                self.view.seal_others();
                // The perfect failure detector: every peer crash-stopped
                // before this instant, whether or not this activation
                // sees its body. It is not an observation, so neither
                // dropout nor the visibility radius hides it.
                if has_crashes {
                    for &(robot, when) in self.faults.crash_stops() {
                        if when < time && robot < n && robot != i {
                            self.view.push_crashed(frame.to_local(self.snapshot[robot]));
                        }
                    }
                    self.view.seal_crashed();
                }
            }
            self.dropped = dropped;

            let local_target = self.protocols[i].on_activate(&self.view);
            // A null move is exact: the round trip through the frame is
            // off by an ulp away from the frame origin, and a peer that
            // compares positions exactly would read that as a move.
            let mut new_pos = if local_target == self.view.own_position() {
                self.snapshot[i]
            } else {
                let world_target = self.frames[i].to_world(local_target);
                cap_move(self.snapshot[i], world_target, self.sigmas[i])
            };
            // Non-rigid motion: the adversary interrupts the move after a
            // fraction in [δ, 1) of the σ-capped distance.
            if has_non_rigid {
                let fraction = self.faults.motion_fraction(i, time);
                if fraction < 1.0 {
                    new_pos = self.snapshot[i].lerp(new_pos, fraction);
                    self.stats.faults_injected += 1;
                    self.emit_fault(FaultEvent::NonRigidMotion {
                        time,
                        robot: i,
                        fraction,
                    });
                }
            }
            if !new_pos.approx_eq(self.positions[i]) {
                moved += 1;
            }
            // Geometry invalidation is bitwise, not approximate: the
            // collision margin must fold in *any* new configuration.
            if new_pos.x.to_bits() != self.positions[i].x.to_bits()
                || new_pos.y.to_bits() != self.positions[i].y.to_bits()
            {
                changed = true;
            }
            self.positions[i] = new_pos;
        }
        self.stats.moves += moved as u64;
        self.stats.steps += 1;

        if let Some(observer) = self.observer.as_mut() {
            observer(TraceEvent::Step {
                time,
                active: &self.active,
                positions: &self.positions,
            });
        }
        if self.record {
            self.trace.record(StepRecord {
                time,
                active: self.active.clone(),
                positions: self.positions.clone(),
            });
        }
        self.time += 1;

        if changed {
            self.geometry_dirty = false;
            if let Some((first, second, distance)) = self.refresh_geometry() {
                // Stay dirty so a post-mortem step re-detects the overlap.
                self.geometry_dirty = true;
                return Err(ModelError::Collision {
                    time,
                    first,
                    second,
                    distance,
                });
            }
        }
        Ok(moved)
    }

    /// Folds the current configuration into the cached collision margin
    /// and reports the first (row-major) colliding pair, if any. The full
    /// pass always completes, so the margin stays exact even on the
    /// instant that collides.
    fn refresh_geometry(&mut self) -> Option<(usize, usize, f64)> {
        let mut collision = None;
        for i in 0..self.positions.len() {
            for j in (i + 1)..self.positions.len() {
                let (p, q) = (self.positions[i], self.positions[j]);
                // A pair clearly farther than both the margin and the
                // collision radius changes neither.
                let reach = self.min_pairwise.max(self.collision_eps);
                if p.distance_cmp(q, reach) == Some(Ordering::Greater) {
                    continue;
                }
                let d = p.distance(q);
                self.min_pairwise = self.min_pairwise.min(d);
                if collision.is_none() && d < self.collision_eps {
                    collision = Some((i, j, d));
                }
            }
        }
        collision
    }

    /// Records a fault with every installed consumer (observer first,
    /// then the in-memory trace).
    fn emit_fault(&mut self, event: FaultEvent) {
        if let Some(observer) = self.observer.as_mut() {
            observer(TraceEvent::Fault(&event));
        }
        if self.record {
            self.trace.record_fault(event);
        }
    }

    /// Runs until `predicate` returns `true` (checked after every instant)
    /// or `max_steps` instants elapse.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Engine::step`].
    pub fn run_until<F>(
        &mut self,
        max_steps: u64,
        mut predicate: F,
    ) -> Result<RunOutcome, ModelError>
    where
        F: FnMut(&Engine<P>) -> bool,
    {
        for taken in 0..max_steps {
            self.step_inner()?;
            if predicate(self) {
                return Ok(RunOutcome {
                    steps_taken: taken + 1,
                    satisfied: true,
                });
            }
        }
        Ok(RunOutcome {
            steps_taken: max_steps,
            satisfied: false,
        })
    }

    /// Runs exactly `steps` instants.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Engine::step`].
    pub fn run(&mut self, steps: u64) -> Result<(), ModelError> {
        for _ in 0..steps {
            self.step_inner()?;
        }
        Ok(())
    }

    fn check_collisions(&self, time: u64) -> Result<(), ModelError> {
        for i in 0..self.positions.len() {
            for j in (i + 1)..self.positions.len() {
                let d = self.positions[i].distance(self.positions[j]);
                if d < self.collision_eps {
                    return Err(ModelError::Collision {
                        time,
                        first: i,
                        second: j,
                        distance: d,
                    });
                }
            }
        }
        Ok(())
    }

    /// Current world positions.
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The per-robot frames (world↔local similarity transforms).
    #[must_use]
    pub fn frames(&self) -> &[LocalFrame] {
        &self.frames
    }

    /// The recorded trace so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The protocol instance of robot `i`.
    #[must_use]
    pub fn protocol(&self, i: usize) -> &P {
        &self.protocols[i]
    }

    /// Mutable access to robot `i`'s protocol instance — how the
    /// application layer hands a robot new messages to send.
    pub fn protocol_mut(&mut self, i: usize) -> &mut P {
        &mut self.protocols[i]
    }

    /// All protocol instances.
    #[must_use]
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Number of robots.
    #[must_use]
    pub fn cohort(&self) -> usize {
        self.positions.len()
    }

    /// The next instant to execute.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Fault injection: teleports robot `i` by `offset` (world units),
    /// outside the protocol's control.
    ///
    /// This models the transient faults the paper's §5 stabilization
    /// discussion is about: a robot knocked off its position without its
    /// protocol knowing. Tests use it to verify that self-stabilizing
    /// wrappers recover and that plain protocols detectably fail.
    ///
    /// The displacement happens *between* instants and is not recorded as
    /// a trace step; trace-derived metrics see the faulted position from
    /// the next executed instant onward.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Collision`] if the displacement lands the
    /// robot on top of another (the fault must still be physical).
    pub fn displace_robot(
        &mut self,
        i: usize,
        offset: stigmergy_geometry::Vec2,
    ) -> Result<(), ModelError> {
        self.positions[i] += offset;
        // The displaced configuration is never a trace step, so it must
        // not enter the cached collision margin — but the next executed
        // instant starts from new positions and must re-derive geometry
        // even if none of its own moves change anything.
        self.geometry_dirty = true;
        self.check_collisions(self.time)
    }

    /// The visible identifiers, if the system is identified.
    #[must_use]
    pub fn ids(&self) -> Option<&[VisibleId]> {
        self.ids.as_deref()
    }

    /// The engine's fault plan (benign unless one was installed).
    #[must_use]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Installs a fault plan, replacing the benign one an engine is built
    /// with: crash-stops, non-rigid motion, and observation dropouts
    /// injected during execution, all decided deterministically from the
    /// plan's seed. Decisions for instants not yet executed follow the new
    /// plan. Every injected fault is recorded in the trace (when recording
    /// is on), so a faulted run replays bit-for-bit from the same engine
    /// configuration, seed and installation instant.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Whether robot `i` has crash-stopped by the current instant.
    #[must_use]
    pub fn is_crashed(&self, i: usize) -> bool {
        self.faults.is_crashed(i, self.time)
    }

    /// Cumulative execution counters since construction, available even
    /// with trace recording off.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The minimum pairwise distance over every configuration the engine
    /// has produced (initial + after each executed instant) — the
    /// collision margin. Bit-identical to what
    /// [`Trace::min_pairwise_distance`] computes on a fully recorded
    /// trace, but maintained incrementally and available with recording
    /// off. `INFINITY` for a single-robot cohort.
    #[must_use]
    pub fn min_pairwise_distance(&self) -> f64 {
        self.min_pairwise
    }

    /// Installs a streaming trace observer.
    ///
    /// The observer is called at exactly the points trace recording
    /// appends records — every executed instant (after its moves) and
    /// every injected fault, in injection order — regardless of whether
    /// in-memory recording is enabled. One observer at a time; installing
    /// replaces any previous one.
    pub fn observe_trace<F>(&mut self, observer: F)
    where
        F: FnMut(TraceEvent<'_>) + 'static,
    {
        self.observer = Some(Box::new(observer));
    }
}

/// Moves from `from` toward `target`, travelling at most `sigma`.
fn cap_move(from: Point, target: Point, sigma: f64) -> Point {
    if from.distance_cmp(target, sigma) == Some(Ordering::Less) {
        return target;
    }
    let d = from.distance(target);
    if d <= sigma {
        target
    } else {
        from.lerp(target, sigma / d)
    }
}

/// Builder for [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder<P> {
    positions: Option<Vec<Point>>,
    protocols: Option<Vec<P>>,
    schedule: Option<Box<dyn Schedule>>,
    capabilities: Capabilities,
    frame_seed: u64,
    unit_frames: bool,
    sigma: f64,
    sigmas: Option<Vec<f64>>,
    collision_eps: f64,
    global_clock: bool,
    visibility: Option<f64>,
    record: bool,
}

impl<P> Default for EngineBuilder<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EngineBuilder<P> {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            positions: None,
            protocols: None,
            schedule: None,
            capabilities: Capabilities::default(),
            frame_seed: 0xC0FF_EE00,
            unit_frames: false,
            sigma: 1.0e6,
            sigmas: None,
            collision_eps: DEFAULT_COLLISION_EPS,
            global_clock: false,
            visibility: None,
            record: true,
        }
    }

    /// Sets the initial world positions `P(t0)`.
    #[must_use]
    pub fn positions<I: IntoIterator<Item = Point>>(mut self, positions: I) -> Self {
        self.positions = Some(positions.into_iter().collect());
        self
    }

    /// Sets the per-robot protocol instances (one per position, same
    /// order).
    #[must_use]
    pub fn protocols<I: IntoIterator<Item = P>>(mut self, protocols: I) -> Self {
        self.protocols = Some(protocols.into_iter().collect());
        self
    }

    /// Sets the activation schedule. Defaults to [`Synchronous`].
    #[must_use]
    pub fn schedule<S: Schedule + 'static>(mut self, schedule: S) -> Self {
        self.schedule = Some(Box::new(schedule));
        self
    }

    /// Sets the cohort capabilities (IDs, sense of direction). Defaults to
    /// anonymous with chirality only.
    #[must_use]
    pub fn capabilities(mut self, capabilities: Capabilities) -> Self {
        self.capabilities = capabilities;
        self
    }

    /// Seed for generating the private frames.
    #[must_use]
    pub fn frame_seed(mut self, seed: u64) -> Self {
        self.frame_seed = seed;
        self
    }

    /// Uses identity frames (world = local) for every robot — debugging
    /// aid; production tests should exercise random frames.
    #[must_use]
    pub fn unit_frames(mut self) -> Self {
        self.unit_frames = true;
        self
    }

    /// Uniform motion cap `σ` for every robot (world units). Defaults to a
    /// generous 10⁶.
    #[must_use]
    pub fn sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Per-robot motion caps (world units), overriding [`EngineBuilder::sigma`].
    #[must_use]
    pub fn sigmas<I: IntoIterator<Item = f64>>(mut self, sigmas: I) -> Self {
        self.sigmas = Some(sigmas.into_iter().collect());
        self
    }

    /// Collision tolerance (world units).
    #[must_use]
    pub fn collision_epsilon(mut self, eps: f64) -> Self {
        self.collision_eps = eps;
        self
    }

    /// Grants the cohort a global clock: every view carries the current
    /// time instant (the paper's §5 "GPS input" assumption, needed by
    /// self-stabilizing protocols). Off by default — the base model has
    /// no global time.
    #[must_use]
    pub fn global_clock(mut self) -> Self {
        self.global_clock = true;
        self
    }

    /// Turns the in-memory trace's step and fault records on or off (the
    /// initial configuration is always kept). For multi-million-instant
    /// asynchronous runs the full trace costs `O(steps × n)` memory; turn
    /// it off when only the final state and inboxes matter. Trace-derived
    /// metrics (paths, drift) are unavailable on such engines; a
    /// streaming consumer installed with [`Engine::observe_trace`] still
    /// sees every step and fault.
    #[must_use]
    pub fn record_trace(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Limits each robot's sensing to `radius` (world units): views omit
    /// robots farther away. The paper's protocols assume **unbounded**
    /// visibility; §5 poses limited visibility as an open problem, and
    /// this option exists to study exactly how they fail without it.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive.
    #[must_use]
    pub fn visibility(mut self, radius: f64) -> Self {
        assert!(radius > 0.0, "visibility radius must be positive");
        self.visibility = Some(radius);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// * [`ModelError::IncompleteBuilder`] if positions or protocols are
    ///   missing.
    /// * [`ModelError::CardinalityMismatch`] if counts disagree.
    /// * [`ModelError::CoincidentRobots`] if two robots share a position.
    /// * [`ModelError::NonPositiveSigma`] for a bad motion cap.
    pub fn build(self) -> Result<Engine<P>, ModelError> {
        let positions = self.positions.ok_or(ModelError::IncompleteBuilder {
            missing: "positions",
        })?;
        let protocols = self.protocols.ok_or(ModelError::IncompleteBuilder {
            missing: "protocols",
        })?;
        if protocols.len() != positions.len() {
            return Err(ModelError::CardinalityMismatch {
                what: "protocols",
                expected: positions.len(),
                got: protocols.len(),
            });
        }
        let sigmas = match self.sigmas {
            Some(s) => {
                if s.len() != positions.len() {
                    return Err(ModelError::CardinalityMismatch {
                        what: "sigmas",
                        expected: positions.len(),
                        got: s.len(),
                    });
                }
                s
            }
            None => vec![self.sigma; positions.len()],
        };
        for (i, &s) in sigmas.iter().enumerate() {
            if s.is_nan() || s <= 0.0 {
                return Err(ModelError::NonPositiveSigma { robot: i });
            }
        }
        let tol = Tolerance::absolute(self.collision_eps);
        let mut min_pairwise = f64::INFINITY;
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let d = positions[i].distance(positions[j]);
                if tol.zero(d) {
                    return Err(ModelError::CoincidentRobots {
                        first: i,
                        second: j,
                    });
                }
                min_pairwise = min_pairwise.min(d);
            }
        }

        let frames = if self.unit_frames {
            positions.iter().map(|_| LocalFrame::identity()).collect()
        } else {
            FrameGenerator::new(self.frame_seed, self.capabilities.sense_of_direction())
                .frames(&positions)
        };
        let ids = self.capabilities.observable_ids().then(|| {
            // Arbitrary distinct values — deliberately not 0..n, so no
            // protocol can conflate an ID with an engine index.
            positions
                .iter()
                .enumerate()
                .map(|(i, _)| VisibleId::new(1000 + 37 * i as u32))
                .collect()
        });

        let trace = Trace::new(positions.clone());
        let n = positions.len();
        Ok(Engine {
            snapshot: Vec::with_capacity(n),
            active: ActivationSet::empty(n),
            dropped: Vec::new(),
            view: View::new(
                Observed {
                    position: Point::ORIGIN,
                    id: None,
                },
                Vec::with_capacity(n.saturating_sub(1)),
                0.0,
            ),
            positions,
            frames,
            protocols,
            sigmas,
            ids,
            schedule: self.schedule.unwrap_or_else(|| Box::new(Synchronous)),
            trace,
            time: 0,
            collision_eps: self.collision_eps,
            global_clock: self.global_clock,
            visibility: self.visibility,
            record: self.record,
            faults: FaultPlan::new(0),
            stats: EngineStats::default(),
            observer: None,
            min_pairwise,
            geometry_dirty: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_geometry::Vec2;
    use stigmergy_scheduler::RoundRobin;

    /// Walks toward a fixed local target forever.
    struct Walker {
        target: Point,
    }
    impl MovementProtocol for Walker {
        fn on_activate(&mut self, _view: &View) -> Point {
            self.target
        }
    }

    /// Stays put.
    struct Still;
    impl MovementProtocol for Still {
        fn on_activate(&mut self, view: &View) -> Point {
            view.own_position()
        }
    }

    fn two_still() -> Engine<Still> {
        Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(4.0, 0.0)])
            .protocols([Still, Still])
            .unit_frames()
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validation() {
        let missing: Result<Engine<Still>, _> = Engine::builder().build();
        assert!(matches!(
            missing,
            Err(ModelError::IncompleteBuilder {
                missing: "positions"
            })
        ));

        let mismatch = Engine::builder()
            .positions([Point::ORIGIN, Point::new(1.0, 0.0)])
            .protocols([Still])
            .build();
        assert!(matches!(
            mismatch,
            Err(ModelError::CardinalityMismatch { .. })
        ));

        let coincident = Engine::builder()
            .positions([Point::ORIGIN, Point::ORIGIN])
            .protocols([Still, Still])
            .build();
        assert!(matches!(
            coincident,
            Err(ModelError::CoincidentRobots {
                first: 0,
                second: 1
            })
        ));

        let bad_sigma = Engine::builder()
            .positions([Point::ORIGIN, Point::new(1.0, 0.0)])
            .protocols([Still, Still])
            .sigma(0.0)
            .build();
        assert!(matches!(
            bad_sigma,
            Err(ModelError::NonPositiveSigma { robot: 0 })
        ));
    }

    #[test]
    fn still_robots_do_not_move() {
        let mut e = two_still();
        let report = e.step().unwrap();
        assert_eq!(report.moved, 0);
        assert_eq!(e.positions()[0], Point::new(0.0, 0.0));
        assert_eq!(e.time(), 1);
        assert_eq!(e.trace().len(), 1);
    }

    #[test]
    fn sigma_caps_movement() {
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(100.0, 0.0)])
            .protocols([
                Walker {
                    target: Point::new(10.0, 0.0),
                },
                Walker {
                    target: Point::new(100.0, 0.0),
                },
            ])
            .unit_frames()
            .sigma(1.0)
            .build()
            .unwrap();
        e.step().unwrap();
        // Robot 0 wanted to go 10 units but σ = 1.
        assert!(e.positions()[0].approx_eq(Point::new(1.0, 0.0)));
        // Robot 1's target is its own position: no move.
        assert!(e.positions()[1].approx_eq(Point::new(100.0, 0.0)));
        e.step().unwrap();
        assert!(e.positions()[0].approx_eq(Point::new(2.0, 0.0)));
    }

    #[test]
    fn per_robot_sigmas() {
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(10.0, 10.0)])
            .protocols([
                Walker {
                    target: Point::new(5.0, 0.0),
                },
                Walker {
                    target: Point::new(10.0, 0.0),
                },
            ])
            .unit_frames()
            .sigmas([1.0, 2.0])
            .build()
            .unwrap();
        e.step().unwrap();
        assert!(e.positions()[0].approx_eq(Point::new(1.0, 0.0)));
        assert!(e.positions()[1].approx_eq(Point::new(10.0, 8.0)));
    }

    #[test]
    fn scheduler_gates_activations() {
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(5.0, 0.0)])
            .protocols([
                Walker {
                    target: Point::new(0.0, 1.0),
                },
                Walker {
                    target: Point::new(5.0, 1.0),
                },
            ])
            .unit_frames()
            .schedule(RoundRobin)
            .sigma(0.25)
            .build()
            .unwrap();
        // t=0: only robot 0 active.
        e.step().unwrap();
        assert!(e.positions()[0].y > 0.0);
        assert_eq!(e.positions()[1].y, 0.0);
        // t=1: only robot 1 active.
        e.step().unwrap();
        assert!(e.positions()[1].y > 0.0);
    }

    #[test]
    fn views_are_local() {
        // Robot 1's frame has origin at its own start; it must see itself
        // at the origin and the other robot offset.
        struct AssertView {
            checked: bool,
        }
        impl MovementProtocol for AssertView {
            fn on_activate(&mut self, view: &View) -> Point {
                assert!(view.own_position().approx_eq(Point::ORIGIN));
                assert_eq!(view.others().len(), 1);
                assert!(view.sigma() > 0.0);
                self.checked = true;
                view.own_position()
            }
        }
        let mut e = Engine::builder()
            .positions([Point::new(3.0, 3.0), Point::new(-2.0, 5.0)])
            .protocols([AssertView { checked: false }, AssertView { checked: false }])
            .frame_seed(7)
            .build()
            .unwrap();
        e.step().unwrap();
        assert!(e.protocol(0).checked && e.protocol(1).checked);
    }

    #[test]
    fn frames_consistent_with_world() {
        // A robot commanded to move +1 local North moves scale·(rotated
        // North) in the world; distances observed by others agree.
        struct NorthOnce {
            done: bool,
        }
        impl MovementProtocol for NorthOnce {
            fn on_activate(&mut self, view: &View) -> Point {
                if self.done {
                    view.own_position()
                } else {
                    self.done = true;
                    view.own_position() + Vec2::NORTH
                }
            }
        }
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(9.0, 0.0)])
            .protocols([NorthOnce { done: false }, NorthOnce { done: false }])
            .frame_seed(99)
            .build()
            .unwrap();
        let scale0 = e.frames()[0].scale();
        e.step().unwrap();
        let moved = Point::ORIGIN.distance(e.positions()[0]);
        assert!(
            (moved - scale0).abs() < 1e-9,
            "moved {moved}, scale {scale0}"
        );
    }

    #[test]
    fn collision_detected() {
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(1.0, 0.0)])
            .protocols([
                Walker {
                    target: Point::new(0.5, 0.0),
                },
                Walker {
                    target: Point::new(-0.5, 0.0),
                },
            ])
            .unit_frames()
            .collision_epsilon(1e-6)
            .build()
            .unwrap();
        // Both robots head to x=0.5 / x=0.5: robot 1 targets local -0.5
        // which in identity frame is world -0.5... robot 0 goes to 0.5,
        // robot 1 goes to -0.5: they swap sides and pass through each other
        // but end apart. Make them meet instead:
        let r = e.step();
        // They end at (0.5,0) and (-0.5,0): distance 1, no collision.
        assert!(r.is_ok());

        let mut e2 = Engine::builder()
            .positions([Point::ORIGIN, Point::new(1.0, 0.0)])
            .protocols([
                Walker {
                    target: Point::new(0.5, 0.0),
                },
                Walker {
                    target: Point::new(0.5, 0.0),
                },
            ])
            .unit_frames()
            .collision_epsilon(1e-6)
            .build()
            .unwrap();
        let r2 = e2.step();
        assert!(matches!(
            r2,
            Err(ModelError::Collision {
                first: 0,
                second: 1,
                ..
            })
        ));
    }

    #[test]
    fn run_until_predicate() {
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(50.0, 0.0)])
            .protocols([
                Walker {
                    target: Point::new(100.0, 0.0),
                },
                Still.into_walker(),
            ])
            .unit_frames()
            .sigma(1.0)
            .build()
            .unwrap();
        let out = e.run_until(100, |eng| eng.positions()[0].x >= 5.0).unwrap();
        assert!(out.satisfied);
        assert_eq!(out.steps_taken, 5);

        let out2 = e.run_until(3, |eng| eng.positions()[0].x >= 100.0).unwrap();
        assert!(!out2.satisfied);
        assert_eq!(out2.steps_taken, 3);
    }

    impl Still {
        fn into_walker(self) -> Walker {
            Walker {
                target: Point::new(50.0, 0.0),
            }
        }
    }

    #[test]
    fn ids_present_only_when_identified() {
        struct CheckIds {
            expect: bool,
            seen: bool,
        }
        impl MovementProtocol for CheckIds {
            fn on_activate(&mut self, view: &View) -> Point {
                assert_eq!(view.own_id().is_some(), self.expect);
                assert!(view.others().iter().all(|o| o.id.is_some() == self.expect));
                self.seen = true;
                view.own_position()
            }
        }
        for expect in [false, true] {
            let caps = if expect {
                Capabilities::identified_with_direction()
            } else {
                Capabilities::anonymous()
            };
            let mut e = Engine::builder()
                .positions([Point::ORIGIN, Point::new(2.0, 0.0)])
                .protocols([
                    CheckIds {
                        expect,
                        seen: false,
                    },
                    CheckIds {
                        expect,
                        seen: false,
                    },
                ])
                .capabilities(caps)
                .build()
                .unwrap();
            e.step().unwrap();
            assert!(e.protocol(0).seen);
        }
        // IDs are distinct and not 0..n.
        let e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(2.0, 0.0)])
            .protocols([Still, Still])
            .capabilities(Capabilities::identified())
            .build()
            .unwrap();
        let ids = e.ids().unwrap();
        assert_ne!(ids[0], ids[1]);
        assert!(ids[0].raw() >= 1000);
    }

    #[test]
    fn trace_records_every_step() {
        let mut e = two_still();
        e.run(5).unwrap();
        assert_eq!(e.trace().len(), 5);
        let log = e.trace().activation_log();
        let report = stigmergy_scheduler::audit_fairness(&log, 2);
        assert!(report.is_fair(0)); // synchronous default
    }

    #[test]
    fn displace_robot_teleports_and_checks_collisions() {
        let mut e = two_still();
        e.displace_robot(0, Vec2::new(0.0, 3.0)).unwrap();
        assert!(e.positions()[0].approx_eq(Point::new(0.0, 3.0)));
        // Displacing onto the other robot is a (fault-model) collision.
        let err = e.displace_robot(0, Vec2::new(4.0, -3.0));
        assert!(matches!(err, Err(ModelError::Collision { .. })));
    }

    #[test]
    fn global_clock_appears_in_views_when_enabled() {
        struct ClockCheck {
            expect: bool,
            seen: Vec<Option<u64>>,
        }
        impl MovementProtocol for ClockCheck {
            fn on_activate(&mut self, view: &View) -> Point {
                assert_eq!(view.time().is_some(), self.expect);
                self.seen.push(view.time());
                view.own_position()
            }
        }
        for expect in [false, true] {
            let mut builder = Engine::builder()
                .positions([Point::ORIGIN, Point::new(3.0, 0.0)])
                .protocols([
                    ClockCheck {
                        expect,
                        seen: vec![],
                    },
                    ClockCheck {
                        expect,
                        seen: vec![],
                    },
                ]);
            if expect {
                builder = builder.global_clock();
            }
            let mut e = builder.build().unwrap();
            e.run(3).unwrap();
            if expect {
                assert_eq!(e.protocol(0).seen, vec![Some(0), Some(1), Some(2)]);
            }
        }
    }

    #[test]
    fn visibility_limits_views() {
        struct CountOthers {
            counts: Vec<usize>,
        }
        impl MovementProtocol for CountOthers {
            fn on_activate(&mut self, view: &View) -> Point {
                self.counts.push(view.others().len());
                view.own_position()
            }
        }
        // Line 0 -- 10 -- 20: with radius 12, the middle sees both ends,
        // the ends see only the middle.
        let mut e = Engine::builder()
            .positions([
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
            ])
            .protocols([
                CountOthers { counts: vec![] },
                CountOthers { counts: vec![] },
                CountOthers { counts: vec![] },
            ])
            .visibility(12.0)
            .build()
            .unwrap();
        e.step().unwrap();
        assert_eq!(e.protocol(0).counts, vec![1]);
        assert_eq!(e.protocol(1).counts, vec![2]);
        assert_eq!(e.protocol(2).counts, vec![1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_visibility_rejected() {
        let _: EngineBuilder<Still> = Engine::builder().positions([Point::ORIGIN]).visibility(0.0);
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(4.0, 0.0)])
            .protocols([
                Walker {
                    target: Point::new(0.0, 9.0),
                },
                Walker {
                    target: Point::new(4.0, 9.0),
                },
            ])
            .unit_frames()
            .sigma(1.0)
            .record_trace(false)
            .build()
            .unwrap();
        e.run(20).unwrap();
        assert!(e.trace().is_empty(), "no steps recorded");
        assert_eq!(e.trace().initial().len(), 2, "initial kept");
        // The simulation itself is unaffected.
        assert!(e.positions()[0].approx_eq(Point::new(0.0, 9.0)));
    }

    #[test]
    fn default_schedule_is_synchronous() {
        let mut e = two_still();
        let report = e.step().unwrap();
        assert_eq!(report.active.len(), 2);
    }

    fn faulted_walkers(plan: FaultPlan) -> Engine<Walker> {
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(10.0, 0.0)])
            .protocols([
                Walker {
                    target: Point::new(0.0, 100.0),
                },
                Walker {
                    target: Point::new(10.0, 100.0),
                },
            ])
            .unit_frames()
            .sigma(1.0)
            .build()
            .unwrap();
        e.set_fault_plan(plan);
        e
    }

    #[test]
    fn crash_stopped_robot_freezes_but_stays_visible() {
        let mut e = faulted_walkers(FaultPlan::new(1).crash_stop(1, 3));
        e.run(8).unwrap();
        // Robot 0 kept walking all 8 instants; robot 1 stopped after 3.
        assert!(e.positions()[0].approx_eq(Point::new(0.0, 8.0)));
        assert!(e.positions()[1].approx_eq(Point::new(10.0, 3.0)));
        assert!(e.is_crashed(1) && !e.is_crashed(0));
        // The crash is in the trace, and post-crash activation sets
        // exclude the crashed robot.
        assert!(e
            .trace()
            .faults()
            .contains(&FaultEvent::CrashStop { time: 3, robot: 1 }));
        for s in e.trace().steps() {
            assert_eq!(s.active.contains(1), s.time < 3);
        }
    }

    #[test]
    fn crashed_robot_still_observed_by_others() {
        struct CountOthers {
            counts: Vec<usize>,
        }
        impl MovementProtocol for CountOthers {
            fn on_activate(&mut self, view: &View) -> Point {
                self.counts.push(view.others().len());
                view.own_position()
            }
        }
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(5.0, 0.0)])
            .protocols([
                CountOthers { counts: vec![] },
                CountOthers { counts: vec![] },
            ])
            .unit_frames()
            .build()
            .unwrap();
        e.set_fault_plan(FaultPlan::new(2).crash_stop(1, 0));
        e.run(4).unwrap();
        assert_eq!(
            e.protocol(0).counts,
            vec![1; 4],
            "crashed body stays visible"
        );
        assert!(e.protocol(1).counts.is_empty(), "crashed robot never ran");
    }

    #[test]
    fn crashed_peers_are_listed_in_every_live_view() {
        /// Drifts along its local x-axis, recording at each activation
        /// the instant, the detector's list and the bodies it saw.
        struct Drift {
            seen: Vec<(u64, Vec<Point>, Vec<Point>)>,
        }
        impl MovementProtocol for Drift {
            fn on_activate(&mut self, view: &View) -> Point {
                let others = view.others().iter().map(|o| o.position).collect();
                let time = view.time().expect("global clock");
                self.seen.push((time, view.crashed().to_vec(), others));
                view.own_position() + Vec2::new(0.5, 0.0)
            }
        }
        let when = 4;
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(20.0, 0.0), Point::new(0.0, 20.0)])
            .protocols((0..3).map(|_| Drift { seen: vec![] }))
            .frame_seed(9)
            .sigma(1.0)
            .global_clock()
            .build()
            .unwrap();
        e.set_fault_plan(
            FaultPlan::new(6)
                .crash_stop(1, when)
                .observation_dropout(0.5),
        );
        e.run(16).unwrap();
        let frozen = e.positions()[1];
        let mut hidden = 0;
        for i in [0, 2] {
            let listed = e.frames()[i].to_local(frozen);
            assert_eq!(e.protocol(i).seen.len(), 16, "robot {i} is live");
            for (t, crashed, others) in &e.protocol(i).seen {
                if *t > when {
                    assert_eq!(crashed, &[listed], "robot {i} at {t}");
                    hidden += usize::from(!others.contains(&listed));
                } else {
                    assert!(crashed.is_empty(), "robot {i} accused early at {t}");
                }
            }
        }
        assert!(hidden > 0, "dropout never hid the crashed body");
        // The crashed robot ran only before its crash, and never saw
        // itself listed.
        let own = &e.protocol(1).seen;
        assert_eq!(own.len() as u64, when);
        assert!(own.iter().all(|(_, crashed, _)| crashed.is_empty()));
    }

    #[test]
    fn non_rigid_motion_shortens_moves_but_respects_delta() {
        let delta = 0.25;
        let mut e = faulted_walkers(FaultPlan::new(77).non_rigid(delta, 1.0));
        e.run(10).unwrap();
        let faults = e.trace().faults();
        assert_eq!(faults.len(), 20, "every activation was non-rigid");
        for f in faults {
            match *f {
                FaultEvent::NonRigidMotion { fraction, .. } => {
                    assert!((delta..1.0).contains(&fraction));
                }
                ref other => panic!("unexpected fault {other:?}"),
            }
        }
        // Each instant both robots still advanced at least δ·σ.
        for (prev, s) in std::iter::once(&e.trace().initial().to_vec())
            .chain(e.trace().steps().iter().map(|s| &s.positions))
            .zip(e.trace().steps().iter().map(|s| &s.positions))
        {
            for (p, q) in prev.iter().zip(s.iter()) {
                let step = p.distance(*q);
                assert!(step >= delta - 1e-12 && step <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn observation_dropout_hides_other_robots_transiently() {
        struct CountOthers {
            counts: Vec<usize>,
        }
        impl MovementProtocol for CountOthers {
            fn on_activate(&mut self, view: &View) -> Point {
                self.counts.push(view.others().len());
                view.own_position()
            }
        }
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(5.0, 0.0), Point::new(0.0, 5.0)])
            .protocols([
                CountOthers { counts: vec![] },
                CountOthers { counts: vec![] },
                CountOthers { counts: vec![] },
            ])
            .unit_frames()
            .build()
            .unwrap();
        e.set_fault_plan(FaultPlan::new(5).observation_dropout(0.5));
        e.run(40).unwrap();
        let all: Vec<usize> = (0..3).flat_map(|i| e.protocol(i).counts.clone()).collect();
        assert!(all.iter().any(|&c| c < 2), "dropout never struck");
        assert!(all.contains(&2), "dropout was not transient");
        let dropouts = e
            .trace()
            .faults()
            .iter()
            .filter(|f| matches!(f, FaultEvent::ObservationDropout { .. }))
            .count();
        let hidden: usize = all.iter().map(|&c| 2 - c).sum();
        assert_eq!(dropouts, hidden, "every dropout is recorded exactly once");
    }

    #[test]
    fn faulted_runs_replay_identically_from_the_seed() {
        let plan = || {
            FaultPlan::new(123)
                .crash_stop(0, 6)
                .non_rigid(0.3, 0.4)
                .observation_dropout(0.2)
        };
        let run = |p: FaultPlan| {
            let mut e = faulted_walkers(p);
            e.run(12).unwrap();
            e.trace().clone()
        };
        let a = run(plan());
        let b = run(plan());
        assert_eq!(a, b, "same plan seed must yield identical traces");
        assert!(!a.faults().is_empty());
        let c = run(FaultPlan::new(124)
            .crash_stop(0, 6)
            .non_rigid(0.3, 0.4)
            .observation_dropout(0.2));
        assert_ne!(a, c, "a different seed must perturb the run");
    }

    #[test]
    fn stats_count_steps_activations_and_moves() {
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(5.0, 0.0)])
            .protocols([
                Walker {
                    target: Point::new(0.0, 9.0),
                },
                Still.into_walker(),
            ])
            .unit_frames()
            .schedule(RoundRobin)
            .sigma(1.0)
            .build()
            .unwrap();
        assert_eq!(e.stats(), EngineStats::default());
        e.run(4).unwrap();
        let s = e.stats();
        assert_eq!(s.steps, 4);
        assert_eq!(s.activations, 4, "round-robin: one robot per instant");
        // Robot 0 walked on its 2 activations; robot 1 walked toward
        // (50, 0) on its 2 activations.
        assert_eq!(s.moves, 4);
        assert_eq!(s.faults_injected, 0);
    }

    #[test]
    fn stats_count_faults_even_without_trace_recording() {
        let run = |record: bool| {
            let mut e = Engine::builder()
                .positions([Point::ORIGIN, Point::new(10.0, 0.0)])
                .protocols([
                    Walker {
                        target: Point::new(0.0, 100.0),
                    },
                    Walker {
                        target: Point::new(10.0, 100.0),
                    },
                ])
                .unit_frames()
                .sigma(1.0)
                .record_trace(record)
                .build()
                .unwrap();
            e.set_fault_plan(
                FaultPlan::new(123)
                    .crash_stop(0, 6)
                    .non_rigid(0.3, 0.4)
                    .observation_dropout(0.2),
            );
            e.run(12).unwrap();
            e
        };
        let recorded = run(true);
        let blind = run(false);
        assert_eq!(recorded.stats(), blind.stats());
        assert_eq!(
            recorded.stats().faults_injected,
            recorded.trace().faults().len() as u64,
            "counter must agree with the recorded fault events"
        );
        assert!(recorded.stats().faults_injected > 0);
        assert!(blind.trace().is_empty());
    }

    #[test]
    fn cached_collision_margin_matches_trace_min_pairwise() {
        // A faulted, frame-randomized run: the cached margin must agree
        // bitwise with the trace-derived one, including the initial
        // configuration and every recorded step.
        let mut e = faulted_walkers(
            FaultPlan::new(123)
                .crash_stop(0, 6)
                .non_rigid(0.3, 0.4)
                .observation_dropout(0.2),
        );
        assert_eq!(
            e.min_pairwise_distance().to_bits(),
            e.trace().min_pairwise_distance().to_bits(),
            "initial margins diverge"
        );
        e.run(12).unwrap();
        assert_eq!(
            e.min_pairwise_distance().to_bits(),
            e.trace().min_pairwise_distance().to_bits()
        );
        // Displacement is not a trace step: both margins must ignore the
        // displaced configuration itself but fold in what follows.
        e.displace_robot(0, Vec2::new(3.0, 0.0)).unwrap();
        e.run(3).unwrap();
        assert_eq!(
            e.min_pairwise_distance().to_bits(),
            e.trace().min_pairwise_distance().to_bits()
        );
    }

    /// Visits `stops` one per activation, then stays at the last.
    struct Tour {
        stops: Vec<Point>,
        next: usize,
    }
    impl MovementProtocol for Tour {
        fn on_activate(&mut self, view: &View) -> Point {
            let Some(&stop) = self.stops.get(self.next) else {
                return view.own_position();
            };
            self.next += 1;
            stop
        }
    }

    #[test]
    fn pairs_inside_the_band_of_the_margin_are_measured() {
        // Robot 2 closes on robot 0 through distances within 2⁻³⁰ of the
        // running minimum, then of the collision radius, where the
        // squared-distance filter must defer to the distance itself. The
        // far pairs are skipped by it.
        let dir = Vec2::new(0.6, 0.8);
        let reaches = {
            let s = 1.0 + 2f64.powi(-34);
            [
                1.0 + 2f64.powi(-33),
                1.0 + 2f64.powi(-32),
                s,
                s.next_up(),
                s.next_down(),
                s.next_down().next_down(),
                1.0 - 2f64.powi(-34),
            ]
        };
        let tour = |stops: Vec<Point>| Tour { stops, next: 0 };
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(3.0, 0.0), Point::new(0.0, 5.0)])
            .protocols([
                tour(Vec::new()),
                tour(Vec::new()),
                tour(reaches.iter().map(|&r| Point::ORIGIN + dir * r).collect()),
            ])
            .unit_frames()
            .collision_epsilon(1.0)
            .build()
            .unwrap();
        let same_margins = |e: &Engine<Tour>| {
            assert_eq!(
                e.min_pairwise_distance().to_bits(),
                e.trace().min_pairwise_distance().to_bits()
            );
        };
        for _ in 1..reaches.len() {
            e.step().unwrap();
            same_margins(&e);
        }
        match e.step() {
            Err(ModelError::Collision {
                first: 0,
                second: 2,
                distance,
                ..
            }) => {
                let d = e.positions()[0].distance(e.positions()[2]);
                assert_eq!(distance.to_bits(), d.to_bits());
                assert!(d < 1.0);
            }
            other => panic!("expected the collision of robots 0 and 2, got {other:?}"),
        }
        same_margins(&e);
    }

    #[test]
    fn margin_available_with_recording_off() {
        let build = |record: bool| {
            let mut e = Engine::builder()
                .positions([Point::ORIGIN, Point::new(10.0, 0.0)])
                .protocols([
                    Walker {
                        target: Point::new(8.0, 0.0),
                    },
                    Walker {
                        target: Point::new(2.0, 0.0),
                    },
                ])
                .unit_frames()
                .sigma(1.0)
                .record_trace(record)
                .build()
                .unwrap();
            e.run(3).unwrap();
            e
        };
        let recorded = build(true);
        let blind = build(false);
        assert_eq!(
            blind.min_pairwise_distance().to_bits(),
            recorded.trace().min_pairwise_distance().to_bits()
        );
    }

    #[test]
    fn observer_sees_exactly_what_the_trace_records() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let plan = FaultPlan::new(123)
            .crash_stop(0, 6)
            .non_rigid(0.3, 0.4)
            .observation_dropout(0.2);
        let mut recorded = faulted_walkers(plan.clone());
        recorded.run(12).unwrap();

        let rebuilt = Rc::new(RefCell::new(Trace::new(
            recorded.trace().initial().to_vec(),
        )));
        let sink = Rc::clone(&rebuilt);
        let mut observed = faulted_walkers(plan);
        observed.observe_trace(move |event| match event {
            TraceEvent::Step {
                time,
                active,
                positions,
            } => sink.borrow_mut().record(StepRecord {
                time,
                active: active.clone(),
                positions: positions.to_vec(),
            }),
            TraceEvent::Fault(fault) => sink.borrow_mut().record_fault(fault.clone()),
        });
        observed.run(12).unwrap();

        assert_eq!(*rebuilt.borrow(), *observed.trace());
        assert_eq!(*rebuilt.borrow(), *recorded.trace());
    }

    #[test]
    fn observer_fires_even_with_recording_off() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let steps = Rc::new(RefCell::new(0u64));
        let faults = Rc::new(RefCell::new(0u64));
        let (s, f) = (Rc::clone(&steps), Rc::clone(&faults));
        let mut e = Engine::builder()
            .positions([Point::ORIGIN, Point::new(10.0, 0.0)])
            .protocols([
                Walker {
                    target: Point::new(0.0, 100.0),
                },
                Walker {
                    target: Point::new(10.0, 100.0),
                },
            ])
            .unit_frames()
            .sigma(1.0)
            .record_trace(false)
            .build()
            .unwrap();
        e.set_fault_plan(FaultPlan::new(77).non_rigid(0.25, 1.0));
        e.observe_trace(move |event| match event {
            TraceEvent::Step { .. } => *s.borrow_mut() += 1,
            TraceEvent::Fault(_) => *f.borrow_mut() += 1,
        });
        e.run(10).unwrap();
        assert!(e.trace().is_empty(), "in-memory recording stayed off");
        assert_eq!(*steps.borrow(), 10);
        assert_eq!(*faults.borrow(), e.stats().faults_injected);
    }

    #[test]
    fn a_null_move_keeps_the_position_bit_for_bit() {
        /// Walks a fixed local step for `walks` activations, then stays
        /// put by returning exactly the position it was shown.
        struct WalkThenStay {
            walks: u32,
        }
        impl MovementProtocol for WalkThenStay {
            fn on_activate(&mut self, view: &View) -> Point {
                if self.walks == 0 {
                    return view.own_position();
                }
                self.walks -= 1;
                view.own_position() + Vec2::new(0.3, 0.4)
            }
        }
        let mut drifted = 0;
        for frame_seed in 0..256 {
            let mut e = Engine::builder()
                .positions([Point::new(3.0, -2.0), Point::new(40.0, 7.0)])
                .protocols([WalkThenStay { walks: 9 }, WalkThenStay { walks: 9 }])
                .frame_seed(frame_seed)
                .build()
                .unwrap();
            e.run(9).unwrap();
            let walked = e.positions().to_vec();
            e.step().unwrap();
            drifted += walked
                .iter()
                .zip(e.positions())
                .filter(|(a, b)| a.x.to_bits() != b.x.to_bits() || a.y.to_bits() != b.y.to_bits())
                .count();
        }
        assert_eq!(drifted, 0, "null moves that changed a position bitwise");
    }

    #[test]
    fn benign_plan_changes_nothing() {
        let mut plain = two_still();
        plain.run(5).unwrap();
        let mut faulted = Engine::builder()
            .positions([Point::new(0.0, 0.0), Point::new(4.0, 0.0)])
            .protocols([Still, Still])
            .unit_frames()
            .build()
            .unwrap();
        faulted.set_fault_plan(FaultPlan::new(999));
        faulted.run(5).unwrap();
        assert_eq!(plain.trace(), faulted.trace());
        assert!(faulted.fault_plan().is_benign());
    }
}
