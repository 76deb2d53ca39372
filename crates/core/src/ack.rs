//! Implicit-acknowledgement bookkeeping (Lemma 4.1 / Corollary 4.2).
//!
//! The asynchronous protocols never stop moving and never get explicit
//! acks. Instead they rely on the paper's key lemma: *if robot `r` keeps
//! moving in one direction and observes that `r′`'s position changed twice,
//! then `r′` must have observed `r`'s motion at least once.* A sender
//! therefore holds each signal until it has counted **two position
//! changes** from every receiver since the signal began.
//!
//! [`ChangeTracker`] does that counting: it remembers the last observed
//! position of every peer and how many changes have been seen since the
//! last [`ChangeTracker::reset`] (= since the current movement stint
//! began).

use stigmergy_geometry::Point;

/// Counts observed position changes per peer since the last reset.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeTracker {
    last: Vec<Option<Point>>,
    counts: Vec<u32>,
}

impl ChangeTracker {
    /// Creates a tracker over `n` peers (index the peers however the caller
    /// likes — home indices in practice).
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            last: vec![None; n],
            counts: vec![0; n],
        }
    }

    /// Number of peers tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the tracker tracks nobody.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records an observation of peer `i` at `pos`.
    ///
    /// A *change* is any difference from the previously observed position
    /// (exact comparison — in the model robots that move do change their
    /// coordinates; tolerance-based comparison would let a adversarially
    /// tiny move go unnoticed, which the paper's Remark 4.3 forbids).
    ///
    /// Returns `true` if this observation was a change.
    pub fn observe(&mut self, i: usize, pos: Point) -> bool {
        let changed = match self.last[i] {
            Some(prev) => prev != pos,
            // First observation after construction: no change yet —
            // we have nothing to compare against.
            None => false,
        };
        if changed {
            self.counts[i] += 1;
        }
        self.last[i] = Some(pos);
        changed
    }

    /// Changes counted for peer `i` since the last reset.
    #[must_use]
    pub fn count(&self, i: usize) -> u32 {
        self.counts[i]
    }

    /// Whether peer `i` has changed at least `k` times since the reset.
    #[must_use]
    pub fn changed_at_least(&self, i: usize, k: u32) -> bool {
        self.counts[i] >= k
    }

    /// Whether every peer *not* listed in `excluded` has changed at least
    /// `k` times since the reset — the §4.2 sending condition ("until it
    /// observes that the position of every robot changed twice"), with
    /// the sender itself excluded.
    ///
    /// The list also takes crashed peers: a crash-stopped robot never
    /// moves again, so a sender that keeps waiting on its double-change
    /// would hold an excursion forever. A failure detector (the algorithm
    /// driver, which sees fault events) reports crashed peers and the
    /// sender drops them from the acknowledgement condition. Lemma 4.1
    /// still holds pairwise for every live peer.
    #[must_use]
    pub fn all_changed_at_least_except(&self, k: u32, excluded: &[usize]) -> bool {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| !excluded.contains(&i))
            .all(|(_, &c)| c >= k)
    }

    /// Resets all change counts (keeps the last observed positions, so the
    /// next stint compares against current reality, not stale data).
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Whether some peer was last observed at exactly `pos`, bit for bit.
    /// Observing that peer there again is no change: it moves neither a
    /// count nor a last position.
    #[must_use]
    pub fn is_last_position(&self, pos: Point) -> bool {
        self.last.iter().flatten().any(|&p| same_bits(p, pos))
    }
}

/// Whether `a` and `b` are the same position bit for bit: `-0.0` and
/// `0.0` differ, and a NaN equals itself.
pub(crate) fn same_bits(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// A bounded retransmission schedule with exponential backoff.
///
/// The movement protocols' implicit acks ([`ChangeTracker`]) guarantee
/// receipt only while every robot keeps getting activated and observing.
/// Under injected faults (crash-stops, observation dropouts) a signal
/// can stall, so the hardened session layer re-sends: attempt `k` gets a
/// step budget of `initial_budget × backoff_factor^k`, and after
/// `max_attempts` failed attempts the sender gives up on the movement
/// channel and degrades to its secondary channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitPolicy {
    max_attempts: u32,
    initial_budget: u64,
    backoff_factor: u32,
}

impl Default for RetransmitPolicy {
    /// Three attempts with budgets 2 000 / 4 000 / 8 000 instants.
    fn default() -> Self {
        Self::new(3, 2_000, 2)
    }
}

impl RetransmitPolicy {
    /// Creates a policy of `max_attempts` attempts, the first with
    /// `initial_budget` instants and each later one multiplied by
    /// `backoff_factor`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(max_attempts: u32, initial_budget: u64, backoff_factor: u32) -> Self {
        assert!(max_attempts > 0, "need at least one attempt");
        assert!(initial_budget > 0, "budget must be positive");
        assert!(backoff_factor > 0, "backoff factor must be positive");
        Self {
            max_attempts,
            initial_budget,
            backoff_factor,
        }
    }

    /// Number of attempts before degrading.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The step budget of attempt `attempt` (0-based), saturating.
    #[must_use]
    pub fn budget_for(&self, attempt: u32) -> u64 {
        let factor = u64::from(self.backoff_factor).saturating_pow(attempt);
        self.initial_budget.saturating_mul(factor)
    }

    /// The total step budget across all attempts, saturating.
    #[must_use]
    pub fn total_budget(&self) -> u64 {
        (0..self.max_attempts).fold(0u64, |acc, k| acc.saturating_add(self.budget_for(k)))
    }
}

/// How many correction events saturate an [`AdaptiveBudget`].
///
/// Six pressure points halve the movement budgets six times (a 64×
/// reduction), which is already "effectively immediate failover" for
/// every policy in the workspace; deeper shifts would only lose the
/// ability to recover quickly once the channel cleans up.
pub const MAX_PRESSURE: u32 = 6;

/// A [`RetransmitPolicy`] that adapts to forward-error-correction
/// feedback from the secondary channel.
///
/// The hardened session spends movement instants before degrading to
/// wireless. When the wireless FEC reports that it has been *correcting*
/// recent frames, the secondary path is evidently both needed and
/// working, so burning full movement budgets first is wasted time: each
/// correction event raises a pressure level that **halves** every
/// movement budget. An *uncorrectable* block is worse — the noise
/// exceeds the correction radius — so it escalates pressure straight to
/// [`MAX_PRESSURE`], collapsing the schedule to a single minimal
/// movement attempt before failover. Clean (uncorrected) deliveries
/// decay pressure one point at a time, restoring the configured budgets
/// once the channel behaves again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBudget {
    policy: RetransmitPolicy,
    pressure: u32,
}

impl AdaptiveBudget {
    /// Wraps `policy` with zero initial pressure (budgets unchanged).
    #[must_use]
    pub fn new(policy: RetransmitPolicy) -> Self {
        Self {
            policy,
            pressure: 0,
        }
    }

    /// The underlying static policy.
    #[must_use]
    pub fn policy(&self) -> RetransmitPolicy {
        self.policy
    }

    /// Current pressure level in `0..=MAX_PRESSURE`.
    #[must_use]
    pub fn pressure(&self) -> u32 {
        self.pressure
    }

    /// Records a delivery the FEC had to repair (`symbols` > 0 symbol
    /// corrections): one pressure point per event.
    pub fn record_corrected(&mut self, symbols: u64) {
        if symbols > 0 {
            self.pressure = (self.pressure + 1).min(MAX_PRESSURE);
        }
    }

    /// Records a block beyond the correction radius: pressure jumps to
    /// [`MAX_PRESSURE`], so the next send escalates to wireless failover
    /// after a single minimal movement attempt.
    pub fn record_uncorrectable(&mut self) {
        self.pressure = MAX_PRESSURE;
    }

    /// Records a clean delivery (no corrections needed): pressure decays
    /// one point.
    pub fn record_clean(&mut self) {
        self.pressure = self.pressure.saturating_sub(1);
    }

    /// The adapted step budget of attempt `attempt` (0-based): the
    /// policy's budget halved once per pressure point, never below 1.
    #[must_use]
    pub fn budget_for(&self, attempt: u32) -> u64 {
        (self.policy.budget_for(attempt) >> self.pressure).max(1)
    }

    /// The adapted attempt count: the policy's, collapsing to a single
    /// attempt at full pressure (escalation).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        if self.pressure >= MAX_PRESSURE {
            1
        } else {
            self.policy.max_attempts()
        }
    }
}

/// Test support for Lemma 4.1's premise: every change of a robot
/// follows an observation of its peers. Returns how many activations
/// observation dropout blinded in `trace`, and on how many of those the
/// robot's position changed anyway (bitwise).
#[cfg(test)]
pub(crate) fn blind_activations(trace: &stigmergy_robots::Trace) -> (usize, usize) {
    use stigmergy_robots::FaultEvent;
    let blind: std::collections::BTreeSet<(usize, usize)> = trace
        .faults()
        .iter()
        .filter_map(|fault| match *fault {
            FaultEvent::ObservationDropout { time, observer, .. } => {
                Some((usize::try_from(time).expect("short trace"), observer))
            }
            _ => None,
        })
        .collect();
    let moved = blind
        .iter()
        .filter(|&&(t, robot)| {
            let before = trace.position_at(robot, t.checked_sub(1));
            let after = trace.position_at(robot, Some(t));
            before.map(|p| (p.x.to_bits(), p.y.to_bits()))
                != after.map(|p| (p.x.to_bits(), p.y.to_bits()))
        })
        .count();
    (blind.len(), moved)
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;

    #[test]
    fn zero_pressure_matches_the_policy() {
        let a = AdaptiveBudget::new(RetransmitPolicy::new(3, 2_000, 2));
        assert_eq!(a.pressure(), 0);
        assert_eq!(a.budget_for(0), 2_000);
        assert_eq!(a.budget_for(2), 8_000);
        assert_eq!(a.max_attempts(), 3);
    }

    #[test]
    fn corrections_halve_budgets_and_decay_restores_them() {
        let mut a = AdaptiveBudget::new(RetransmitPolicy::new(3, 2_000, 2));
        a.record_corrected(1);
        a.record_corrected(5);
        assert_eq!(a.pressure(), 2);
        assert_eq!(a.budget_for(0), 500);
        assert_eq!(a.max_attempts(), 3, "still below escalation");
        a.record_clean();
        assert_eq!(a.pressure(), 1);
        assert_eq!(a.budget_for(0), 1_000);
        a.record_clean();
        a.record_clean();
        assert_eq!(a.pressure(), 0, "decay saturates at zero");
    }

    #[test]
    fn clean_deliveries_do_not_raise_pressure() {
        let mut a = AdaptiveBudget::new(RetransmitPolicy::default());
        a.record_corrected(0);
        assert_eq!(a.pressure(), 0, "zero corrections is a clean event");
    }

    #[test]
    fn uncorrectable_escalates_to_single_minimal_attempt() {
        let mut a = AdaptiveBudget::new(RetransmitPolicy::new(3, 64, 2));
        a.record_uncorrectable();
        assert_eq!(a.pressure(), MAX_PRESSURE);
        assert_eq!(a.max_attempts(), 1);
        assert_eq!(a.budget_for(0), 1, "64 >> 6 floors at 1");
        // Saturating: more corrections cannot push past the cap.
        a.record_corrected(1);
        assert_eq!(a.pressure(), MAX_PRESSURE);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn budgets_back_off_exponentially() {
        let p = RetransmitPolicy::new(4, 100, 3);
        assert_eq!(p.budget_for(0), 100);
        assert_eq!(p.budget_for(1), 300);
        assert_eq!(p.budget_for(2), 900);
        assert_eq!(p.budget_for(3), 2_700);
        assert_eq!(p.total_budget(), 4_000);
        assert_eq!(p.max_attempts(), 4);
    }

    #[test]
    fn factor_one_is_constant_budget() {
        let p = RetransmitPolicy::new(3, 50, 1);
        assert_eq!(p.budget_for(2), 50);
        assert_eq!(p.total_budget(), 150);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let p = RetransmitPolicy::new(200, u64::MAX / 2, 2);
        assert_eq!(p.budget_for(150), u64::MAX);
        assert_eq!(p.total_budget(), u64::MAX);
    }

    #[test]
    fn default_is_bounded() {
        let p = RetransmitPolicy::default();
        assert_eq!(p.max_attempts(), 3);
        assert_eq!(p.total_budget(), 2_000 + 4_000 + 8_000);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetransmitPolicy::new(0, 1, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_is_not_a_change() {
        let mut t = ChangeTracker::new(2);
        assert!(!t.observe(0, Point::new(1.0, 1.0)));
        assert_eq!(t.count(0), 0);
        assert!(t.is_last_position(Point::new(1.0, 1.0)));
    }

    #[test]
    fn counts_changes() {
        let mut t = ChangeTracker::new(1);
        t.observe(0, Point::new(0.0, 0.0));
        assert!(t.observe(0, Point::new(0.0, 1.0)));
        assert!(!t.observe(0, Point::new(0.0, 1.0))); // unchanged
        assert!(t.observe(0, Point::new(0.0, 2.0)));
        assert_eq!(t.count(0), 2);
        assert!(t.changed_at_least(0, 2));
        assert!(!t.changed_at_least(0, 3));
    }

    #[test]
    fn last_positions_match_bit_for_bit() {
        let mut t = ChangeTracker::new(2);
        t.observe(0, Point::new(0.0, 1.0));
        t.observe(1, Point::new(3.0, 4.0));
        t.observe(0, Point::new(0.0, 2.0));
        assert!(t.is_last_position(Point::new(0.0, 2.0)));
        assert!(t.is_last_position(Point::new(3.0, 4.0)));
        // A superseded position, and a sign-of-zero twin, are not last.
        assert!(!t.is_last_position(Point::new(0.0, 1.0)));
        assert!(!t.is_last_position(Point::new(-0.0, 2.0)));
        // A reset keeps the last positions.
        t.reset();
        assert!(t.is_last_position(Point::new(3.0, 4.0)));
    }

    #[test]
    fn tiny_moves_still_count() {
        // Exact comparison: any coordinate difference is a change.
        let mut t = ChangeTracker::new(1);
        t.observe(0, Point::new(1.0, 1.0));
        assert!(t.observe(0, Point::new(1.0 + 1e-14, 1.0)));
        assert_eq!(t.count(0), 1);
    }

    #[test]
    fn all_changed_with_exclusion() {
        let mut t = ChangeTracker::new(3);
        for i in 0..3 {
            t.observe(i, Point::new(i as f64, 0.0));
        }
        // Peers 1 and 2 change twice; peer 0 (self) never does.
        for step in 1..=2 {
            for i in 1..3 {
                t.observe(i, Point::new(i as f64, step as f64));
            }
        }
        assert!(t.all_changed_at_least_except(2, &[0]));
        assert!(!t.all_changed_at_least_except(2, &[]));
        assert!(!t.all_changed_at_least_except(3, &[0]));
    }

    #[test]
    fn exclusion_set_ignores_frozen_peers() {
        let mut t = ChangeTracker::new(3);
        for i in 0..3 {
            t.observe(i, Point::new(i as f64, 0.0));
        }
        // Peer 2 is crash-stopped: it never changes again. Peer 1 keeps
        // moving.
        for step in 1..=2 {
            t.observe(1, Point::new(1.0, step as f64));
            t.observe(2, Point::new(2.0, 0.0));
        }
        // Waiting on everyone wedges…
        assert!(!t.all_changed_at_least_except(2, &[0]));
        // …but excluding the crashed peer unblocks the stint.
        assert!(t.all_changed_at_least_except(2, &[0, 2]));
        assert!(!t.all_changed_at_least_except(3, &[0, 2]));
    }

    #[test]
    fn reset_keeps_positions() {
        let mut t = ChangeTracker::new(1);
        t.observe(0, Point::new(0.0, 0.0));
        t.observe(0, Point::new(1.0, 0.0));
        assert_eq!(t.count(0), 1);
        t.reset();
        assert_eq!(t.count(0), 0);
        // Re-observing the same position after reset is NOT a change…
        assert!(!t.observe(0, Point::new(1.0, 0.0)));
        // …but a new one is.
        assert!(t.observe(0, Point::new(2.0, 0.0)));
    }

    #[test]
    fn sizes() {
        let t = ChangeTracker::new(4);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert!(ChangeTracker::new(0).is_empty());
    }
}
