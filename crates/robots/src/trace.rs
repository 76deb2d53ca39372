//! Execution traces.
//!
//! The engine records every instant: who was active and where everyone
//! ended up. Traces power three things: the figure reproductions (each
//! paper figure is a rendered trace), the fairness audit (the recorded
//! activation log is checked against the SSM assumptions), and the
//! experiment metrics (path lengths, drift, moves per bit).

use stigmergy_geometry::Point;
use stigmergy_scheduler::ActivationSet;

/// One recorded instant.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// The time instant.
    pub time: u64,
    /// Which robots were active.
    pub active: ActivationSet,
    /// World positions after all moves of this instant were applied.
    pub positions: Vec<Point>,
}

/// One injected fault, recorded where it struck.
///
/// Fault events make faulted runs replayable: a trace plus the records
/// of what the fault plan actually did pins the full execution, and two
/// runs of the same engine configuration with the same plan seed must
/// produce equal traces — fault events included.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A robot crash-stopped: from `time` on it is never activated
    /// again, though its body remains visible to others.
    CrashStop {
        /// Instant of the crash.
        time: u64,
        /// The crashed robot.
        robot: usize,
    },
    /// A move was cut short after covering only `fraction` of its
    /// intended (σ-capped) distance.
    NonRigidMotion {
        /// Instant of the interrupted move.
        time: u64,
        /// The affected robot.
        robot: usize,
        /// Fraction of the intended move actually covered, in `[δ, 1)`.
        fraction: f64,
    },
    /// An active robot transiently failed to observe another robot.
    ObservationDropout {
        /// Instant of the dropout.
        time: u64,
        /// The robot whose observation failed.
        observer: usize,
        /// The robot it failed to see.
        observed: usize,
    },
}

impl FaultEvent {
    /// The instant at which the fault struck.
    #[must_use]
    pub fn time(&self) -> u64 {
        match *self {
            FaultEvent::CrashStop { time, .. }
            | FaultEvent::NonRigidMotion { time, .. }
            | FaultEvent::ObservationDropout { time, .. } => time,
        }
    }
}

/// A borrowed trace event, delivered to an engine's trace observer.
///
/// Observers see events at exactly the points — and in exactly the order —
/// that trace recording would append them, regardless of whether the
/// engine is also keeping an in-memory [`Trace`]. This is what lets a
/// streaming consumer (the fleet's incremental trace encoder) reproduce
/// the canonical trace byte-for-byte without the `O(steps × n)` memory.
#[derive(Debug)]
pub enum TraceEvent<'a> {
    /// One executed instant, observed after all of its moves were applied.
    Step {
        /// The time instant.
        time: u64,
        /// Which robots were active.
        active: &'a ActivationSet,
        /// World positions after the instant's moves.
        positions: &'a [Point],
    },
    /// One injected fault, observed where it struck.
    Fault(&'a FaultEvent),
}

/// A full execution trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    initial: Vec<Point>,
    steps: Vec<StepRecord>,
    faults: Vec<FaultEvent>,
}

impl Trace {
    /// Starts a trace from the initial configuration.
    #[must_use]
    pub fn new(initial: Vec<Point>) -> Self {
        Self {
            initial,
            steps: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Appends one instant's record.
    pub fn record(&mut self, step: StepRecord) {
        // stiglint: allow(hot-alloc) -- the trace must grow with the run; Vec doubling amortizes to O(1) per step with no per-step allocation
        self.steps.push(step);
    }

    /// Appends one injected-fault record.
    pub fn record_fault(&mut self, fault: FaultEvent) {
        // stiglint: allow(hot-alloc) -- fault log grows with injected faults only; amortized Vec growth, cold in fault-free runs
        self.faults.push(fault);
    }

    /// All recorded fault events, in injection order.
    #[must_use]
    pub fn faults(&self) -> &[FaultEvent] {
        &self.faults
    }

    /// The initial configuration `P(t0)`.
    #[must_use]
    pub fn initial(&self) -> &[Point] {
        &self.initial
    }

    /// All recorded steps, in time order.
    #[must_use]
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Number of recorded instants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The activation log, for [`stigmergy_scheduler::audit_fairness`].
    #[must_use]
    pub fn activation_log(&self) -> Vec<ActivationSet> {
        self.steps.iter().map(|s| s.active.clone()).collect()
    }

    /// The world position of `robot` after instant index `step`, or its
    /// initial position for `step == None`.
    #[must_use]
    pub fn position_at(&self, robot: usize, step: Option<usize>) -> Option<Point> {
        match step {
            None => self.initial.get(robot).copied(),
            Some(s) => self
                .steps
                .get(s)
                .and_then(|r| r.positions.get(robot))
                .copied(),
        }
    }

    /// The robot's full path: initial position followed by its position
    /// after every instant.
    #[must_use]
    pub fn path(&self, robot: usize) -> Vec<Point> {
        let mut p = Vec::with_capacity(self.steps.len() + 1);
        if let Some(&init) = self.initial.get(robot) {
            p.push(init);
        }
        for s in &self.steps {
            if let Some(&pos) = s.positions.get(robot) {
                p.push(pos);
            }
        }
        p
    }

    /// Total distance travelled by `robot`.
    #[must_use]
    pub fn path_length(&self, robot: usize) -> f64 {
        let path = self.path(robot);
        path.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Number of instants at which `robot` actually changed position.
    #[must_use]
    pub fn move_count(&self, robot: usize) -> usize {
        let path = self.path(robot);
        path.windows(2).filter(|w| !w[0].approx_eq(w[1])).count()
    }

    /// The minimum pairwise distance over the whole trace — the collision
    /// margin (experiment E6).
    #[must_use]
    pub fn min_pairwise_distance(&self) -> f64 {
        let mut min = f64::INFINITY;
        let configs =
            std::iter::once(&self.initial[..]).chain(self.steps.iter().map(|s| &s.positions[..]));
        for positions in configs {
            for i in 0..positions.len() {
                for j in (i + 1)..positions.len() {
                    min = min.min(positions[i].distance(positions[j]));
                }
            }
        }
        min
    }

    /// The maximum distance of any robot from its initial position over the
    /// whole trace (the §4.1 drift metric, experiment E3).
    #[must_use]
    pub fn max_drift(&self) -> f64 {
        let mut max: f64 = 0.0;
        for s in &self.steps {
            for (i, p) in s.positions.iter().enumerate() {
                if let Some(&init) = self.initial.get(i) {
                    max = max.max(init.distance(*p));
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)]);
        t.record(StepRecord {
            time: 0,
            active: ActivationSet::from_indices(2, [0]),
            positions: vec![Point::new(1.0, 0.0), Point::new(4.0, 0.0)],
        });
        t.record(StepRecord {
            time: 1,
            active: ActivationSet::from_indices(2, [0, 1]),
            positions: vec![Point::new(1.0, 1.0), Point::new(4.0, 2.0)],
        });
        t
    }

    #[test]
    fn basic_accessors() {
        let t = sample_trace();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.initial().len(), 2);
        assert_eq!(t.steps()[1].time, 1);
    }

    #[test]
    fn paths_and_lengths() {
        let t = sample_trace();
        assert_eq!(
            t.path(0),
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0)
            ]
        );
        assert!((t.path_length(0) - 2.0).abs() < 1e-12);
        assert_eq!(t.move_count(0), 2);
        assert_eq!(t.move_count(1), 1);
    }

    #[test]
    fn positions_at() {
        let t = sample_trace();
        assert_eq!(t.position_at(0, None), Some(Point::new(0.0, 0.0)));
        assert_eq!(t.position_at(1, Some(1)), Some(Point::new(4.0, 2.0)));
        assert_eq!(t.position_at(5, None), None);
        assert_eq!(t.position_at(0, Some(9)), None);
    }

    #[test]
    fn activation_log_roundtrip() {
        let t = sample_trace();
        let log = t.activation_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].len(), 1);
        assert_eq!(log[1].len(), 2);
        let report = stigmergy_scheduler::audit_fairness(&log, 2);
        assert!(report.is_valid_ssm());
    }

    #[test]
    fn min_pairwise_distance_over_time() {
        let t = sample_trace();
        // Closest approach: (1,1) to (4,2) is sqrt(10); (1,0)-(4,0) is 3;
        // (0,0)-(4,0) is 4. Min = 3.
        assert!((t.min_pairwise_distance() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn drift() {
        let t = sample_trace();
        // Robot 0 ends sqrt(2) away; robot 1 ends 2.0 away.
        assert!((t.max_drift() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fault_events_recorded_and_compared() {
        let mut a = sample_trace();
        let b = sample_trace();
        assert_eq!(a, b);
        a.record_fault(FaultEvent::CrashStop { time: 1, robot: 0 });
        a.record_fault(FaultEvent::NonRigidMotion {
            time: 1,
            robot: 1,
            fraction: 0.5,
        });
        a.record_fault(FaultEvent::ObservationDropout {
            time: 0,
            observer: 0,
            observed: 1,
        });
        assert_ne!(a, b, "fault events participate in trace equality");
        assert_eq!(a.faults().len(), 3);
        assert_eq!(a.faults()[0].time(), 1);
        assert_eq!(a.faults()[2].time(), 0);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(vec![Point::ORIGIN]);
        assert!(t.is_empty());
        assert_eq!(t.path_length(0), 0.0);
        assert_eq!(t.max_drift(), 0.0);
        assert_eq!(t.path(0), vec![Point::ORIGIN]);
    }
}
