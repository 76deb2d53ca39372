//! Adversarial-but-legal schedules and seed-deterministic fault plans.
//!
//! The SSM gives an adversary two knobs: *which* robots are active at
//! each instant (subject only to fairness) and, in the fault-injection
//! extension, *how well* an activation goes (crash-stop, non-rigid
//! motion, observation dropout). This module provides both:
//!
//! * [`LaggingRobot`], [`Bursty`], and [`WorstCaseFair`] are schedules
//!   that stay inside the model's fairness contract while being as
//!   hostile as the contract allows — one robot held at the fairness
//!   bound, feast-and-famine activation bursts, and every robot delayed
//!   to its bound, respectively.
//! * [`FaultPlan`] is a declarative, seed-deterministic description of
//!   engine-level faults. All of its per-(robot, instant) decisions are
//!   pure functions of `(seed, robot, t)`, so a plan replays
//!   identically regardless of query order — the property the trace
//!   replay tests rely on.

use crate::activation::ActivationSet;
use crate::rng::SplitMix64;
use crate::Schedule;

/// A fair schedule that starves one chosen robot to the fairness bound.
///
/// Every robot except the victim is active at every instant; the victim
/// is activated only when its inactivity gap would otherwise exceed
/// `max_gap`. This is the harshest *targeted* adversary the SSM
/// permits: the victim misses the maximum number of observations the
/// fairness assumption allows, indefinitely.
#[derive(Debug, Clone, Copy)]
pub struct LaggingRobot {
    victim: usize,
    max_gap: u64,
    last_victim_active: Option<u64>,
}

impl LaggingRobot {
    /// Creates a schedule lagging `victim` with inactivity gaps of
    /// exactly `max_gap`.
    ///
    /// # Panics
    ///
    /// Panics if `max_gap == 0`.
    #[must_use]
    pub fn new(victim: usize, max_gap: u64) -> Self {
        assert!(max_gap > 0, "max_gap must be positive");
        Self {
            victim,
            max_gap,
            last_victim_active: None,
        }
    }
}

impl Schedule for LaggingRobot {
    fn activations(&mut self, t: u64, n: usize) -> ActivationSet {
        let mut set = ActivationSet::empty(n);
        self.activations_into(t, n, &mut set);
        set
    }

    fn activations_into(&mut self, t: u64, n: usize, out: &mut ActivationSet) {
        out.reset(n);
        if n == 0 {
            return;
        }
        if self.victim >= n {
            // No robot to starve: behave synchronously.
            out.fill();
            return;
        }
        let last = *self
            .last_victim_active
            .get_or_insert_with(|| t.saturating_sub(1));
        let victim_due = t.saturating_sub(last) >= self.max_gap;
        out.fill();
        out.remove(self.victim);
        if victim_due || n == 1 {
            out.insert(self.victim);
            self.last_victim_active = Some(t);
        }
    }

    fn name(&self) -> &'static str {
        "lagging-robot"
    }
}

/// Feast-and-famine activation: full-cohort bursts separated by lulls
/// in which a single seed-chosen robot runs alone.
///
/// During a burst of `burst_len` instants every robot is active
/// (synchronous behaviour); during the following lull of `lull_len`
/// instants exactly one robot — drawn per-lull from the seed — is
/// active while the rest starve. Fairness holds as long as
/// `lull_len` stays at or below the gap bound a test audits for, since
/// every robot is activated in the burst that ends each lull.
#[derive(Debug, Clone)]
pub struct Bursty {
    rng: SplitMix64,
    burst_len: u64,
    lull_len: u64,
    lull_robot: usize,
    current_lull: Option<u64>,
}

impl Bursty {
    /// Creates a bursty schedule with the given phase lengths.
    ///
    /// # Panics
    ///
    /// Panics if either phase length is zero.
    #[must_use]
    pub fn new(seed: u64, burst_len: u64, lull_len: u64) -> Self {
        assert!(burst_len > 0, "burst_len must be positive");
        assert!(lull_len > 0, "lull_len must be positive");
        Self {
            rng: SplitMix64::new(seed),
            burst_len,
            lull_len,
            lull_robot: 0,
            current_lull: None,
        }
    }

    /// The worst inactivity gap this schedule can produce: a full lull.
    #[must_use]
    pub fn worst_gap(&self) -> u64 {
        self.lull_len
    }
}

impl Schedule for Bursty {
    fn activations(&mut self, t: u64, n: usize) -> ActivationSet {
        let mut set = ActivationSet::empty(n);
        self.activations_into(t, n, &mut set);
        set
    }

    fn activations_into(&mut self, t: u64, n: usize, out: &mut ActivationSet) {
        out.reset(n);
        if n == 0 {
            return;
        }
        let period = self.burst_len + self.lull_len;
        let phase = t % period;
        if phase < self.burst_len {
            self.current_lull = None;
            out.fill();
        } else {
            let lull_index = t / period;
            if self.current_lull != Some(lull_index) {
                self.current_lull = Some(lull_index);
                self.lull_robot = self.rng.below(n);
            }
            out.insert(self.lull_robot.min(n - 1));
        }
    }

    fn name(&self) -> &'static str {
        "bursty"
    }
}

/// Delays **every** robot to the fairness bound.
///
/// A robot is activated only once its inactivity gap reaches `max_gap`;
/// when no robot is due, the single most-overdue robot (lowest index on
/// ties) runs alone to satisfy the SSM's at-least-one rule. The result:
/// one workhorse robot absorbs most instants while every other robot
/// sees the world only once per `max_gap` instants — the slowest legal
/// information flow the fairness contract permits.
#[derive(Debug, Clone)]
pub struct WorstCaseFair {
    max_gap: u64,
    last_active: Vec<u64>,
    started: bool,
}

impl WorstCaseFair {
    /// Creates the schedule with the given fairness bound.
    ///
    /// # Panics
    ///
    /// Panics if `max_gap == 0`.
    #[must_use]
    pub fn new(max_gap: u64) -> Self {
        assert!(max_gap > 0, "max_gap must be positive");
        Self {
            max_gap,
            last_active: Vec::new(),
            started: false,
        }
    }
}

impl Schedule for WorstCaseFair {
    fn activations(&mut self, t: u64, n: usize) -> ActivationSet {
        let mut set = ActivationSet::empty(n);
        self.activations_into(t, n, &mut set);
        set
    }

    fn activations_into(&mut self, t: u64, n: usize, out: &mut ActivationSet) {
        out.reset(n);
        if n == 0 {
            return;
        }
        if !self.started || self.last_active.len() != n {
            self.last_active.clear();
            self.last_active.resize(n, t.saturating_sub(1));
            self.started = true;
        }
        for i in 0..n {
            if t.saturating_sub(self.last_active[i]) >= self.max_gap {
                out.insert(i);
            }
        }
        if out.is_empty() {
            // Most overdue robot, lowest index on ties — deterministic.
            let chosen = (0..n)
                .max_by_key(|&i| (t.saturating_sub(self.last_active[i]), usize::MAX - i))
                .expect("n > 0");
            out.insert(chosen);
        }
        for (i, last) in self.last_active.iter_mut().enumerate() {
            if out.contains(i) {
                *last = t;
            }
        }
    }

    fn name(&self) -> &'static str {
        "worst-case-fair"
    }
}

/// Fault stream identifiers, used to decorrelate the per-decision RNGs.
const STREAM_NON_RIGID: u64 = 0x4E52_4744; // "NRGD"
const STREAM_DROPOUT: u64 = 0x4452_4F50; // "DROP"

/// A declarative, seed-deterministic fault schedule for the engine.
///
/// A plan describes *which* faults strike *whom* and *when*:
///
/// * **crash-stop** — from a given instant on, a robot is never
///   activated again (it remains visible, as a crashed robot's body
///   still occupies its position);
/// * **non-rigid motion** — with some probability, an activation's move
///   is cut short after covering only a fraction in `[delta, 1)` of the
///   intended (σ-capped) distance, mirroring the non-rigid movement
///   variant of the robot model;
/// * **observation dropout** — with some probability, an active robot
///   transiently fails to observe some *other* robot this instant.
///
/// Every probabilistic decision is computed statelessly from
/// `(seed, stream, robot, t)`, so two engines driving the same plan —
/// or the same engine queried in a different order — make identical
/// decisions. That is what makes fault runs replayable from a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    crash_stops: Vec<(usize, u64)>,
    non_rigid_delta: f64,
    non_rigid_prob: f64,
    dropout_prob: f64,
}

impl FaultPlan {
    /// Creates an empty (fault-free) plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            crash_stops: Vec::new(),
            non_rigid_delta: 1.0,
            non_rigid_prob: 0.0,
            dropout_prob: 0.0,
        }
    }

    /// Schedules `robot` to crash-stop at instant `time` (inclusive).
    #[must_use]
    pub fn crash_stop(mut self, robot: usize, time: u64) -> Self {
        self.crash_stops.push((robot, time));
        self
    }

    /// Enables non-rigid motion: with probability `prob`, a move covers
    /// only a fraction in `[delta, 1)` of its intended distance.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1]` or `prob` not in `[0, 1]`.
    #[must_use]
    pub fn non_rigid(mut self, delta: f64, prob: f64) -> Self {
        assert!(
            delta > 0.0 && delta <= 1.0,
            "delta must be in (0, 1]: a robot always covers at least δ of its move"
        );
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0, 1]");
        self.non_rigid_delta = delta;
        self.non_rigid_prob = prob;
        self
    }

    /// Enables transient observation dropouts with the given
    /// per-(observer, instant) probability.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    #[must_use]
    pub fn observation_dropout(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0, 1]");
        self.dropout_prob = prob;
        self
    }

    /// Whether the plan injects any fault at all.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.crash_stops.is_empty() && self.non_rigid_prob == 0.0 && self.dropout_prob == 0.0
    }

    /// Scheduled crash-stop events as `(robot, time)` pairs.
    #[must_use]
    pub fn crash_stops(&self) -> &[(usize, u64)] {
        &self.crash_stops
    }

    /// Whether the plan can ever drop an observation. A `false` lets the
    /// engine skip the per-(observer, observed) dropout queries entirely.
    #[must_use]
    pub fn has_dropouts(&self) -> bool {
        self.dropout_prob > 0.0
    }

    /// Whether the plan can ever cut a move short.
    #[must_use]
    pub fn has_non_rigid(&self) -> bool {
        self.non_rigid_prob > 0.0
    }

    /// Whether `robot` has crash-stopped by instant `t`.
    #[must_use]
    pub fn is_crashed(&self, robot: usize, t: u64) -> bool {
        self.crash_stops
            .iter()
            .any(|&(r, when)| r == robot && when <= t)
    }

    /// The instant at which `robot` crashes, if any.
    #[must_use]
    pub fn crash_time(&self, robot: usize) -> Option<u64> {
        self.crash_stops
            .iter()
            .filter(|&&(r, _)| r == robot)
            .map(|&(_, when)| when)
            .min()
    }

    /// The fraction of the intended move `robot` covers at instant `t`:
    /// `1.0` normally, or a seed-determined value in `[delta, 1)` when
    /// a non-rigid fault strikes.
    #[must_use]
    pub fn motion_fraction(&self, robot: usize, t: u64) -> f64 {
        if self.non_rigid_prob == 0.0 {
            return 1.0;
        }
        let mut rng = self.decision_rng(STREAM_NON_RIGID, robot, t);
        if rng.chance(self.non_rigid_prob) {
            self.non_rigid_delta + rng.next_f64() * (1.0 - self.non_rigid_delta)
        } else {
            1.0
        }
    }

    /// Appends to `dropped`, in increasing order, every robot of `0..n`
    /// other than `observer` itself (a robot always sees itself) whose
    /// observation drops out of `observer`'s view at instant `t`, from
    /// one derivation of the observer's stream.
    pub fn dropped_observations(
        &self,
        observer: usize,
        n: usize,
        t: u64,
        dropped: &mut Vec<usize>,
    ) {
        if self.dropout_prob == 0.0 {
            return;
        }
        let draw = self.dropout_draw(observer, t);
        for observed in 0..n {
            if observed != observer && self.drops_pair(draw, observed) {
                // stiglint: allow(hot-alloc) -- `dropped` is the engine's reused scratch; capacity persists across activations after the first
                dropped.push(observed);
            }
        }
    }

    /// The first draw of `observer`'s dropout stream at `t`, which
    /// every observed robot's decision offsets.
    fn dropout_draw(&self, observer: usize, t: u64) -> u64 {
        self.decision_rng(STREAM_DROPOUT, observer, t).next_u64()
    }

    /// Whether the observer whose stream drew `draw` drops `observed`.
    fn drops_pair(&self, draw: u64, observed: usize) -> bool {
        // One draw per observed robot, offset so pairs decorrelate.
        let draw = draw.wrapping_add((observed as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut pair = SplitMix64::new(draw);
        pair.chance(self.dropout_prob)
    }

    /// A decision RNG pinned to `(seed, stream, robot, t)`.
    ///
    /// Delegates to [`crate::rng::derive_stream`], the workspace's single
    /// documented key-derivation function: decisions are independent of
    /// query order, of each other, and of the decisions of other robots
    /// at the same instant (the derivation tests pin this).
    fn decision_rng(&self, stream: u64, robot: usize, t: u64) -> SplitMix64 {
        crate::rng::derive_stream(self.seed, stream, robot, t)
    }
}

/// Wraps a schedule to never activate robots their fault plan has
/// crash-stopped.
///
/// Crash-stop in the SSM means the adversary stops activating the robot
/// — filtering at the schedule layer keeps fault logic out of inner
/// schedules while preserving their behaviour for live robots. When the
/// filter would empty an instant's activation set (everyone scheduled
/// this instant has crashed), the set stays empty: with live robots
/// elsewhere the engine simply idles this instant, and the fairness
/// auditor is expected to treat crashed cohorts accordingly.
#[derive(Debug, Clone)]
pub struct CrashFiltered<S> {
    inner: S,
    plan: FaultPlan,
}

impl<S> CrashFiltered<S> {
    /// Wraps `inner`, filtering by `plan`'s crash-stops.
    #[must_use]
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }

    /// The wrapped fault plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<S: Schedule> Schedule for CrashFiltered<S> {
    fn activations(&mut self, t: u64, n: usize) -> ActivationSet {
        let mut set = ActivationSet::empty(n);
        self.activations_into(t, n, &mut set);
        set
    }

    fn activations_into(&mut self, t: u64, n: usize, out: &mut ActivationSet) {
        self.inner.activations_into(t, n, out);
        for &(robot, when) in &self.plan.crash_stops {
            if when <= t {
                out.remove(robot);
            }
        }
    }

    fn name(&self) -> &'static str {
        "crash-filtered"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::audit_fairness;
    use crate::schedules::Synchronous;

    impl FaultPlan {
        /// The per-pair reference for [`FaultPlan::dropped_observations`].
        fn drops_observation(&self, observer: usize, observed: usize, t: u64) -> bool {
            let draw = || self.dropout_draw(observer, t);
            observer != observed && self.dropout_prob != 0.0 && self.drops_pair(draw(), observed)
        }
    }

    #[test]
    fn lagging_robot_starves_exactly_to_the_bound() {
        let max_gap = 6;
        let mut s = LaggingRobot::new(1, max_gap);
        let n = 4;
        let mut victim_activations = Vec::new();
        for t in 0..60 {
            let set = s.activations(t, n);
            // Everyone else is always active.
            for i in 0..n {
                if i != 1 {
                    assert!(set.contains(i), "non-victim {i} inactive at t={t}");
                }
            }
            if set.contains(1) {
                victim_activations.push(t);
            }
        }
        assert!(!victim_activations.is_empty());
        for w in victim_activations.windows(2) {
            assert_eq!(w[1] - w[0], max_gap, "victim gap not at the bound");
        }
    }

    #[test]
    fn lagging_robot_with_out_of_range_victim_is_synchronous() {
        let mut s = LaggingRobot::new(10, 4);
        assert_eq!(s.activations(0, 3).len(), 3);
    }

    #[test]
    fn lagging_robot_single_cohort_never_empty() {
        let mut s = LaggingRobot::new(0, 4);
        for t in 0..20 {
            assert!(!s.activations(t, 1).is_empty());
        }
    }

    #[test]
    fn bursty_alternates_full_and_single() {
        let mut s = Bursty::new(5, 3, 2);
        for t in 0..30 {
            let set = s.activations(t, 5);
            match t % 5 {
                0..=2 => assert_eq!(set.len(), 5, "burst instant t={t}"),
                _ => assert_eq!(set.len(), 1, "lull instant t={t}"),
            }
        }
    }

    #[test]
    fn bursty_is_deterministic() {
        let mut a = Bursty::new(9, 4, 3);
        let mut b = Bursty::new(9, 4, 3);
        for t in 0..100 {
            assert_eq!(a.activations(t, 6), b.activations(t, 6));
        }
    }

    #[test]
    fn bursty_gap_bounded_by_lull() {
        let mut s = Bursty::new(2, 3, 4);
        let log: Vec<_> = (0..200).map(|t| s.activations(t, 5)).collect();
        let report = audit_fairness(&log, 5);
        assert!(report.is_valid_ssm());
        assert!(report.is_fair(s.worst_gap() + 1));
    }

    #[test]
    fn worst_case_fair_delays_to_the_bound() {
        let max_gap = 5;
        let mut s = WorstCaseFair::new(max_gap);
        let n = 4;
        let log: Vec<_> = (0..200).map(|t| s.activations(t, n)).collect();
        let report = audit_fairness(&log, n);
        assert!(report.is_valid_ssm(), "produced an empty instant");
        assert!(report.is_fair(max_gap), "exceeded the fairness bound");
        // The adversary actually uses its budget: activations sit exactly
        // `max_gap` instants apart, which the auditor (counting the
        // inactive instants in between) reports as `max_gap - 1`.
        assert_eq!(report.worst_gap(), max_gap - 1);
    }

    #[test]
    fn worst_case_fair_is_deterministic() {
        let mut a = WorstCaseFair::new(7);
        let mut b = WorstCaseFair::new(7);
        for t in 0..100 {
            assert_eq!(a.activations(t, 5), b.activations(t, 5));
        }
    }

    #[test]
    fn fault_plan_defaults_are_benign() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_benign());
        assert!(!plan.is_crashed(0, 1_000));
        assert_eq!(plan.motion_fraction(0, 5), 1.0);
        assert!(!plan.drops_observation(0, 1, 5));
    }

    #[test]
    fn crash_stop_takes_effect_at_its_instant() {
        let plan = FaultPlan::new(1).crash_stop(2, 10);
        assert!(!plan.is_crashed(2, 9));
        assert!(plan.is_crashed(2, 10));
        assert!(plan.is_crashed(2, 11));
        assert!(!plan.is_crashed(1, 11));
        assert_eq!(plan.crash_time(2), Some(10));
        assert_eq!(plan.crash_time(0), None);
    }

    #[test]
    fn motion_fraction_respects_delta_floor() {
        let delta = 0.3;
        let plan = FaultPlan::new(7).non_rigid(delta, 0.8);
        let mut faulted = 0;
        for t in 0..500 {
            for robot in 0..4 {
                let f = plan.motion_fraction(robot, t);
                assert!(f >= delta && f <= 1.0, "fraction {f} out of range");
                if f < 1.0 {
                    faulted += 1;
                }
            }
        }
        assert!(faulted > 0, "non-rigid fault never struck");
    }

    #[test]
    fn decisions_are_order_independent() {
        let plan = FaultPlan::new(42)
            .non_rigid(0.5, 0.5)
            .observation_dropout(0.3);
        // Query in one order...
        let a: Vec<f64> = (0..50).map(|t| plan.motion_fraction(1, t)).collect();
        let d: Vec<bool> = (0..50).map(|t| plan.drops_observation(0, 2, t)).collect();
        // ...then interleaved and reversed.
        let a2: Vec<f64> = (0..50).rev().map(|t| plan.motion_fraction(1, t)).collect();
        let d2: Vec<bool> = (0..50)
            .rev()
            .map(|t| plan.drops_observation(0, 2, t))
            .collect();
        assert_eq!(a, a2.into_iter().rev().collect::<Vec<_>>());
        assert_eq!(d, d2.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_same_decisions_different_seed_differs() {
        let a = FaultPlan::new(5).non_rigid(0.2, 0.5);
        let b = FaultPlan::new(5).non_rigid(0.2, 0.5);
        let c = FaultPlan::new(6).non_rigid(0.2, 0.5);
        let fa: Vec<f64> = (0..100).map(|t| a.motion_fraction(0, t)).collect();
        let fb: Vec<f64> = (0..100).map(|t| b.motion_fraction(0, t)).collect();
        let fc: Vec<f64> = (0..100).map(|t| c.motion_fraction(0, t)).collect();
        assert_eq!(fa, fb);
        assert_ne!(fa, fc);
    }

    #[test]
    fn dropout_never_hides_self() {
        let plan = FaultPlan::new(3).observation_dropout(1.0);
        for t in 0..20 {
            assert!(!plan.drops_observation(1, 1, t));
            assert!(plan.drops_observation(1, 0, t));
        }
    }

    #[test]
    fn dropped_observations_match_the_per_pair_queries() {
        let mut seeds = SplitMix64::new(0xD809);
        for k in 0..40 {
            let prob = [0.0, 0.1, 0.5, 0.9, 1.0][k % 5];
            let plan = FaultPlan::new(seeds.next_u64()).observation_dropout(prob);
            for n in [1usize, 2, 3, 8, 17] {
                for t in (0..30).chain([u64::MAX]) {
                    for observer in 0..n {
                        let mut dropped = vec![usize::MAX];
                        plan.dropped_observations(observer, n, t, &mut dropped);
                        let want: Vec<usize> = std::iter::once(usize::MAX)
                            .chain((0..n).filter(|&j| plan.drops_observation(observer, j, t)))
                            .collect();
                        assert_eq!(dropped, want, "p={prob} n={n} t={t} observer={observer}");
                    }
                }
            }
        }
    }

    #[test]
    fn dropout_pairs_decorrelate() {
        let plan = FaultPlan::new(11).observation_dropout(0.5);
        let differs =
            (0..200).any(|t| plan.drops_observation(0, 1, t) != plan.drops_observation(0, 2, t));
        assert!(
            differs,
            "dropout decisions identical across observed robots"
        );
    }

    #[test]
    fn crash_filtered_removes_crashed_robots() {
        let plan = FaultPlan::new(0).crash_stop(0, 3);
        let mut s = CrashFiltered::new(Synchronous, plan);
        assert!(s.activations(2, 3).contains(0));
        let after = s.activations(3, 3);
        assert!(!after.contains(0));
        assert_eq!(after.len(), 2);
        assert_eq!(s.name(), "crash-filtered");
        assert_eq!(s.plan().crash_time(0), Some(3));
    }

    #[test]
    fn names() {
        assert_eq!(LaggingRobot::new(0, 1).name(), "lagging-robot");
        assert_eq!(Bursty::new(0, 1, 1).name(), "bursty");
        assert_eq!(WorstCaseFair::new(1).name(), "worst-case-fair");
    }
}
