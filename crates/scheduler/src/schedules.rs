//! Concrete schedulers.
//!
//! All randomized schedulers are seeded and deterministic: the same seed
//! yields the same activation sequence, so every experiment in the workspace
//! is reproducible bit-for-bit.

use crate::activation::ActivationSet;
use crate::rng::SplitMix64;
use crate::Schedule;

/// The synchronous scheduler: every robot active at every instant (§3 of
/// the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Synchronous;

impl Schedule for Synchronous {
    fn activations(&mut self, _t: u64, n: usize) -> ActivationSet {
        ActivationSet::full(n)
    }

    fn activations_into(&mut self, _t: u64, n: usize, out: &mut ActivationSet) {
        out.reset(n);
        out.fill();
    }

    fn name(&self) -> &'static str {
        "synchronous"
    }
}

/// A seeded random fair asynchronous scheduler.
///
/// Each robot is activated independently with probability `p` per instant,
/// subject to two SSM guarantees:
///
/// * at least one robot is active at each instant (a random robot is forced
///   when the Bernoulli draws produce none);
/// * no robot's inactivity gap exceeds `max_gap` instants (the robot is
///   forced active when it would) — a bounded gap implies the fairness the
///   paper assumes.
#[derive(Debug, Clone)]
pub struct FairAsync {
    rng: SplitMix64,
    p: f64,
    max_gap: u64,
    last_active: Vec<u64>,
    started: bool,
}

impl FairAsync {
    /// Creates a fair scheduler with activation probability `p` and maximum
    /// inactivity gap `max_gap`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]` or `max_gap == 0`.
    #[must_use]
    pub fn new(seed: u64, p: f64, max_gap: u64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "activation probability must be in (0, 1]"
        );
        assert!(max_gap > 0, "max_gap must be positive");
        Self {
            rng: SplitMix64::new(seed),
            p,
            max_gap,
            last_active: Vec::new(),
            started: false,
        }
    }
}

impl Schedule for FairAsync {
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
            // Treat every robot as having been active "just before" t.
            self.last_active.clear();
            self.last_active.resize(n, t.saturating_sub(1));
            self.started = true;
        }
        for i in 0..n {
            let gap = t.saturating_sub(self.last_active[i]);
            if gap >= self.max_gap || self.rng.chance(self.p) {
                out.insert(i);
            }
        }
        if out.is_empty() {
            out.insert(self.rng.below(n));
        }
        for (i, last) in self.last_active.iter_mut().enumerate() {
            if out.contains(i) {
                *last = t;
            }
        }
    }

    fn name(&self) -> &'static str {
        "fair-async"
    }
}

/// The harshest fair adversary: exactly **one** robot active per instant,
/// chosen uniformly at random, with the same bounded-gap fairness guard as
/// [`FairAsync`].
///
/// This maximizes the number of observations a robot can miss and is the
/// stress scheduler for the asynchronous protocols' Receipt property.
#[derive(Debug, Clone)]
pub struct SingleActive {
    rng: SplitMix64,
    max_gap: u64,
    last_active: Vec<u64>,
    started: bool,
}

impl SingleActive {
    /// Creates a single-activation scheduler with inactivity gaps bounded
    /// by `max_gap`.
    ///
    /// # Panics
    ///
    /// Panics if `max_gap == 0`.
    #[must_use]
    pub fn new(seed: u64, max_gap: u64) -> Self {
        assert!(max_gap > 0, "max_gap must be positive");
        Self {
            rng: SplitMix64::new(seed),
            max_gap,
            last_active: Vec::new(),
            started: false,
        }
    }
}

impl Schedule for SingleActive {
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
        // Fairness override: the robot with the largest (over-limit) gap.
        let overdue = (0..n)
            .filter(|&i| t.saturating_sub(self.last_active[i]) >= self.max_gap)
            .max_by_key(|&i| t.saturating_sub(self.last_active[i]));
        let chosen = overdue.unwrap_or_else(|| self.rng.below(n));
        self.last_active[chosen] = t;
        out.insert(chosen);
    }

    fn name(&self) -> &'static str {
        "single-active"
    }
}

/// Deterministic round-robin: robot `t mod n` is active at instant `t`.
///
/// Fair with gap exactly `n`, and fully deterministic — useful for
/// reproducing minimal counterexamples by hand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl Schedule for RoundRobin {
    fn activations(&mut self, t: u64, n: usize) -> ActivationSet {
        let mut set = ActivationSet::empty(n);
        self.activations_into(t, n, &mut set);
        set
    }

    fn activations_into(&mut self, t: u64, n: usize, out: &mut ActivationSet) {
        out.reset(n);
        if n > 0 {
            out.insert((t % n as u64) as usize);
        }
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// A fully scripted schedule: an explicit table of activation sets, applied
/// cyclically.
///
/// This is the adversary interface — tests hand-craft the worst
/// interleavings the SSM permits and check the protocols still deliver.
#[derive(Debug, Clone)]
pub struct Scripted {
    script: Vec<Vec<usize>>,
}

impl Scripted {
    /// Creates a scripted schedule from a cycle of activation lists.
    ///
    /// # Panics
    ///
    /// Panics if the script is empty or any step activates no robot (the
    /// SSM requires at least one active robot per instant).
    #[must_use]
    pub fn new<I, S>(script: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: IntoIterator<Item = usize>,
    {
        let script: Vec<Vec<usize>> = script
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        assert!(!script.is_empty(), "script must have at least one step");
        assert!(
            script.iter().all(|s| !s.is_empty()),
            "every scripted step must activate at least one robot"
        );
        Self { script }
    }
}

impl Schedule for Scripted {
    fn activations(&mut self, t: u64, n: usize) -> ActivationSet {
        let mut set = ActivationSet::empty(n);
        self.activations_into(t, n, &mut set);
        set
    }

    fn activations_into(&mut self, t: u64, n: usize, out: &mut ActivationSet) {
        out.reset(n);
        let step = &self.script[(t % self.script.len() as u64) as usize];
        for i in step.iter().copied().filter(|&i| i < n) {
            out.insert(i);
        }
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_activates_everyone() {
        let mut s = Synchronous;
        for t in 0..10 {
            let set = s.activations(t, 7);
            assert_eq!(set.len(), 7);
        }
    }

    #[test]
    fn fair_async_never_empty() {
        let mut s = FairAsync::new(1, 0.05, 100);
        for t in 0..500 {
            assert!(!s.activations(t, 5).is_empty(), "empty at t={t}");
        }
    }

    #[test]
    fn fair_async_bounded_gap() {
        let max_gap = 7;
        let mut s = FairAsync::new(2, 0.01, max_gap);
        let n = 4;
        let mut last = vec![0u64; n];
        for t in 0..2000 {
            let set = s.activations(t, n);
            for (i, last_t) in last.iter_mut().enumerate() {
                if set.contains(i) {
                    *last_t = t;
                } else {
                    assert!(
                        t - *last_t <= max_gap,
                        "robot {i} starved for {} instants at t={t}",
                        t - *last_t
                    );
                }
            }
        }
    }

    #[test]
    fn fair_async_deterministic_per_seed() {
        let mut a = FairAsync::new(99, 0.3, 16);
        let mut b = FairAsync::new(99, 0.3, 16);
        for t in 0..100 {
            assert_eq!(a.activations(t, 6), b.activations(t, 6));
        }
    }

    #[test]
    fn fair_async_different_seeds_differ() {
        let mut a = FairAsync::new(1, 0.5, 16);
        let mut b = FairAsync::new(2, 0.5, 16);
        let diffs = (0..100)
            .filter(|&t| a.activations(t, 6) != b.activations(t, 6))
            .count();
        assert!(diffs > 0, "two seeds produced identical schedules");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn fair_async_rejects_zero_probability() {
        let _ = FairAsync::new(0, 0.0, 4);
    }

    #[test]
    fn single_active_exactly_one() {
        let mut s = SingleActive::new(3, 50);
        for t in 0..300 {
            assert_eq!(s.activations(t, 9).len(), 1);
        }
    }

    #[test]
    fn single_active_is_fair() {
        let max_gap = 12;
        let mut s = SingleActive::new(4, max_gap);
        let n = 6;
        let mut last = vec![0u64; n];
        for t in 0..3000 {
            let set = s.activations(t, n);
            for (i, last_t) in last.iter_mut().enumerate() {
                if set.contains(i) {
                    *last_t = t;
                } else {
                    assert!(t - *last_t <= max_gap + n as u64, "robot {i} starved");
                }
            }
        }
        // Everyone got activated at least once.
        assert!(last.iter().all(|&t| t > 0));
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = RoundRobin;
        assert!(s.activations(0, 3).contains(0));
        assert!(s.activations(1, 3).contains(1));
        assert!(s.activations(2, 3).contains(2));
        assert!(s.activations(3, 3).contains(0));
        assert_eq!(s.activations(5, 3).len(), 1);
    }

    #[test]
    fn scripted_cycles_and_clips() {
        let mut s = Scripted::new([vec![0, 1], vec![2], vec![0]]);
        let set0 = s.activations(0, 3);
        assert!(set0.contains(0) && set0.contains(1));
        assert!(s.activations(1, 3).contains(2));
        assert!(s.activations(3, 3).contains(0)); // wrapped
                                                  // Indices beyond the cohort are clipped.
        let clipped = s.activations(1, 2);
        assert!(clipped.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one robot")]
    fn scripted_rejects_empty_step() {
        let _ = Scripted::new([Vec::<usize>::new()]);
    }

    #[test]
    fn zero_cohort_is_handled() {
        let mut schedulers: Vec<Box<dyn Schedule>> = vec![
            Box::new(Synchronous),
            Box::new(FairAsync::new(0, 0.5, 4)),
            Box::new(SingleActive::new(0, 4)),
            Box::new(RoundRobin),
        ];
        for s in &mut schedulers {
            assert!(s.activations(0, 0).is_empty());
        }
    }

    #[test]
    fn names() {
        assert_eq!(Synchronous.name(), "synchronous");
        assert_eq!(FairAsync::new(0, 0.5, 4).name(), "fair-async");
        assert_eq!(SingleActive::new(0, 4).name(), "single-active");
        assert_eq!(RoundRobin.name(), "round-robin");
        assert_eq!(Scripted::new([vec![0]]).name(), "scripted");
    }
}

/// Wraps a schedule so that **every** robot is active at instant 0.
///
/// §4.2 of the paper assumes "the robots know `P(t0)`, i.e. … all the
/// robots are awake in `t0`". Activating everyone at the first instant lets
/// each robot observe the true initial configuration and run its
/// preprocessing before any robot has moved; afterwards the inner schedule
/// takes over unchanged.
#[derive(Debug, Clone)]
pub struct WakeAllFirst<S> {
    inner: S,
}

impl<S> WakeAllFirst<S> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Self { inner }
    }
}

impl<S: Schedule> Schedule for WakeAllFirst<S> {
    fn activations(&mut self, t: u64, n: usize) -> ActivationSet {
        let mut set = ActivationSet::empty(n);
        self.activations_into(t, n, &mut set);
        set
    }

    fn activations_into(&mut self, t: u64, n: usize, out: &mut ActivationSet) {
        if t == 0 {
            // Consume the inner schedule's instant anyway so resuming at
            // t=1 is well-defined for stateful schedulers.
            self.inner.activations_into(0, n, out);
            out.reset(n);
            out.fill();
        } else {
            self.inner.activations_into(t, n, out);
        }
    }

    fn name(&self) -> &'static str {
        "wake-all-first"
    }
}

#[cfg(test)]
mod wake_all_tests {
    use super::*;

    #[test]
    fn first_instant_is_full() {
        let mut s = WakeAllFirst::new(RoundRobin);
        assert_eq!(s.activations(0, 5).len(), 5);
        // Afterwards delegates to the inner schedule.
        assert_eq!(s.activations(1, 5).len(), 1);
        assert!(s.activations(1, 5).contains(1));
    }

    #[test]
    fn wraps_and_unwraps() {
        let s = WakeAllFirst::new(Synchronous);
        assert_eq!(s.name(), "wake-all-first");
    }

    #[test]
    fn still_fair_overall() {
        let mut s = WakeAllFirst::new(SingleActive::new(3, 20));
        let log: Vec<ActivationSet> = (0..500).map(|t| s.activations(t, 4)).collect();
        let report = crate::fairness::audit_fairness(&log, 4);
        assert!(report.is_valid_ssm());
    }
}
