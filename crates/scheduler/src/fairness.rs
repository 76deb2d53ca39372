//! Fairness auditing of recorded activation logs.
//!
//! The asynchronous correctness theorems of the paper (4.5, 4.6) hold *under
//! a fair scheduler*. Rather than trust that a scheduler is fair, tests
//! record what it actually did and audit the log: the auditor computes each
//! robot's activation count and maximum inactivity gap, and checks the SSM
//! invariant that some robot is active at every instant.

use crate::activation::ActivationSet;
use std::fmt;

/// The result of auditing an activation log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessReport {
    /// Number of instants audited.
    pub instants: u64,
    /// Per-robot activation counts.
    pub activations: Vec<u64>,
    /// Per-robot maximum inactivity gap observed (including the leading gap
    /// before the first activation and the trailing gap after the last).
    pub max_gaps: Vec<u64>,
    /// Instants at which *no* robot was active — SSM violations.
    pub empty_instants: Vec<u64>,
}

impl FairnessReport {
    /// Whether the log satisfies the SSM: no empty instants and every robot
    /// activated at least once.
    #[must_use]
    pub fn is_valid_ssm(&self) -> bool {
        self.empty_instants.is_empty() && self.activations.iter().all(|&c| c > 0)
    }

    /// Whether, additionally, every robot's inactivity gap is bounded by
    /// `gap_bound` — the finite-run proxy for "activated infinitely often".
    #[must_use]
    pub fn is_fair(&self, gap_bound: u64) -> bool {
        self.is_valid_ssm() && self.max_gaps.iter().all(|&g| g <= gap_bound)
    }

    /// The largest inactivity gap across all robots.
    #[must_use]
    pub fn worst_gap(&self) -> u64 {
        self.max_gaps.iter().copied().max().unwrap_or(0)
    }
}

impl fmt::Display for FairnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fairness over {} instants: activations {:?}, worst gap {}, {} empty instants",
            self.instants,
            self.activations,
            self.worst_gap(),
            self.empty_instants.len()
        )
    }
}

/// Audits a recorded activation log over a cohort of `n` robots.
///
/// The log is the sequence of activation sets at instants `0, 1, 2, …`.
///
/// # Examples
///
/// ```
/// use stigmergy_scheduler::{audit_fairness, ActivationSet};
///
/// let log = vec![
///     ActivationSet::from_indices(2, [0]),
///     ActivationSet::from_indices(2, [1]),
///     ActivationSet::from_indices(2, [0, 1]),
/// ];
/// let report = audit_fairness(&log, 2);
/// assert!(report.is_valid_ssm());
/// assert!(report.is_fair(2));
/// assert_eq!(report.activations, vec![2, 2]);
/// ```
#[must_use]
pub fn audit_fairness(log: &[ActivationSet], n: usize) -> FairnessReport {
    let mut activations = vec![0u64; n];
    let mut max_gaps = vec![0u64; n];
    let mut last_active = vec![-1i64; n];
    let mut empty_instants = Vec::new();

    for (t, set) in log.iter().enumerate() {
        let t = t as u64;
        if set.is_empty() && n > 0 {
            empty_instants.push(t);
        }
        for i in 0..n {
            if set.contains(i) {
                let gap = (t as i64 - last_active[i] - 1).max(0) as u64;
                max_gaps[i] = max_gaps[i].max(gap);
                last_active[i] = t as i64;
                activations[i] += 1;
            }
        }
    }
    // Trailing gaps.
    let len = log.len() as i64;
    for i in 0..n {
        let gap = (len - last_active[i] - 1).max(0) as u64;
        max_gaps[i] = max_gaps[i].max(gap);
    }

    FairnessReport {
        instants: log.len() as u64,
        activations,
        max_gaps,
        empty_instants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedules::{FairAsync, RoundRobin, SingleActive, Synchronous};
    use crate::Schedule;

    fn record(s: &mut dyn Schedule, n: usize, steps: u64) -> Vec<ActivationSet> {
        (0..steps).map(|t| s.activations(t, n)).collect()
    }

    #[test]
    fn synchronous_is_perfectly_fair() {
        let log = record(&mut Synchronous, 4, 50);
        let r = audit_fairness(&log, 4);
        assert!(r.is_valid_ssm());
        assert!(r.is_fair(0));
        assert_eq!(r.worst_gap(), 0);
        assert_eq!(r.activations, vec![50; 4]);
    }

    #[test]
    fn round_robin_gap_is_n_minus_one() {
        let log = record(&mut RoundRobin, 5, 100);
        let r = audit_fairness(&log, 5);
        assert!(r.is_valid_ssm());
        assert_eq!(r.worst_gap(), 4);
        assert!(r.is_fair(4));
        assert!(!r.is_fair(3));
    }

    #[test]
    fn fair_async_respects_declared_gap() {
        let mut s = FairAsync::new(7, 0.1, 20);
        let log = record(&mut s, 6, 2000);
        let r = audit_fairness(&log, 6);
        assert!(r.is_valid_ssm());
        assert!(r.is_fair(20), "worst gap {}", r.worst_gap());
    }

    #[test]
    fn single_active_respects_declared_gap() {
        let mut s = SingleActive::new(8, 30);
        let log = record(&mut s, 5, 3000);
        let r = audit_fairness(&log, 5);
        assert!(r.is_valid_ssm());
        assert!(r.is_fair(30 + 5), "worst gap {}", r.worst_gap());
    }

    #[test]
    fn detects_empty_instants() {
        let log = vec![
            ActivationSet::from_indices(2, [0]),
            ActivationSet::empty(2),
            ActivationSet::from_indices(2, [1]),
        ];
        let r = audit_fairness(&log, 2);
        assert!(!r.is_valid_ssm());
        assert_eq!(r.empty_instants, vec![1]);
    }

    #[test]
    fn detects_starvation() {
        let log: Vec<ActivationSet> = (0..10)
            .map(|_| ActivationSet::from_indices(2, [0]))
            .collect();
        let r = audit_fairness(&log, 2);
        assert!(!r.is_valid_ssm(), "robot 1 never activated");
        assert_eq!(r.activations[1], 0);
        assert_eq!(r.max_gaps[1], 10);
    }

    #[test]
    fn leading_and_trailing_gaps_counted() {
        let mut log = vec![ActivationSet::from_indices(1, [0]); 1];
        log.insert(0, ActivationSet::full(1));
        // Robot 0 active at t=0 and t=1: gaps are 0.
        let r = audit_fairness(&log, 1);
        assert_eq!(r.worst_gap(), 0);

        // Active only in the middle of a 5-instant run.
        let log = vec![
            ActivationSet::empty(1),
            ActivationSet::empty(1),
            ActivationSet::full(1),
            ActivationSet::empty(1),
            ActivationSet::empty(1),
        ];
        let r = audit_fairness(&log, 1);
        assert_eq!(r.max_gaps[0], 2);
    }

    #[test]
    fn empty_log() {
        let r = audit_fairness(&[], 3);
        assert_eq!(r.instants, 0);
        assert!(!r.is_valid_ssm(), "no robot ever activated");
    }

    #[test]
    fn adversarial_lagging_robot_is_still_fair() {
        // The point of the adversary module: schedules engineered to be as
        // hostile as possible while remaining *legal*. The auditor is the
        // judge — every adversary must produce a valid, fair SSM log.
        let mut s = crate::LaggingRobot::new(2, 9);
        let log = record(&mut s, 4, 1_000);
        let r = audit_fairness(&log, 4);
        assert!(r.is_valid_ssm());
        // The victim first runs at t = max_gap, so its leading gap is the
        // full bound — exactly fair, with nothing to spare.
        assert!(r.is_fair(9), "worst gap {}", r.worst_gap());
        assert_eq!(r.worst_gap(), 9);
        // Everyone else is active at every instant.
        for i in [0usize, 1, 3] {
            assert_eq!(r.activations[i], 1_000, "robot {i}");
        }
    }

    #[test]
    fn adversarial_bursty_is_still_fair() {
        let mut s = crate::Bursty::new(0xB0B, 4, 6);
        let log = record(&mut s, 5, 2_000);
        let r = audit_fairness(&log, 5);
        assert!(r.is_valid_ssm());
        // A robot can sit out one full lull plus wait through the next
        // burst's periphery — the declared worst gap is the lull length,
        // and two lulls can never hit the same robot back-to-back without
        // an intervening full burst.
        assert!(
            r.is_fair(s.worst_gap() * 2 + 4),
            "worst gap {}",
            r.worst_gap()
        );
    }

    #[test]
    fn adversarial_worst_case_fair_is_exactly_at_the_bound() {
        // With more robots than the gap bound the deadline mechanism
        // dominates the single-filler mechanism, so every robot really is
        // delayed to the bound. (With few robots the filler cycles faster
        // than the deadline and gaps shrink to ≈ n — still fair.)
        let mut s = crate::WorstCaseFair::new(5);
        let log = record(&mut s, 8, 1_000);
        let r = audit_fairness(&log, 8);
        assert!(r.is_valid_ssm());
        assert!(r.is_fair(5), "worst gap {}", r.worst_gap());
        // This adversary activates a robot *only* at its deadline: the
        // audited gap sits exactly at the bound, not under it.
        assert_eq!(r.worst_gap(), 5);
    }

    #[test]
    fn crash_filtered_schedule_fails_the_audit_honestly() {
        // A crash-stop is *not* legal fairness — the auditor must say so.
        // `CrashFiltered` exists to expose exactly this: the wrapped
        // schedule stays fair, the filtered one starves the crashed robot.
        use crate::adversary::{CrashFiltered, FaultPlan};
        let plan = FaultPlan::new(1).crash_stop(0, 10);
        let mut s = CrashFiltered::new(crate::RoundRobin, plan);
        let log = record(&mut s, 3, 300);
        let r = audit_fairness(&log, 3);
        assert!(!r.is_fair(300), "a crashed robot cannot be fair");
        assert!(r.activations[0] < 300 / 3);
        // The survivors keep their round-robin cadence.
        assert!(r.max_gaps[1] <= 3);
        assert!(r.max_gaps[2] <= 3);
    }

    #[test]
    fn display_is_informative() {
        let log = record(&mut Synchronous, 2, 3);
        let r = audit_fairness(&log, 2);
        let s = format!("{r}");
        assert!(s.contains("3 instants"));
        assert!(s.contains("worst gap 0"));
    }
}
