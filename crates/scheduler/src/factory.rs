//! Send-safe schedule and fault-plan factories.
//!
//! Schedules are stateful trait objects and deliberately cheap to build,
//! but `Box<dyn Schedule>` carries no `Send` bound, so a batch runtime
//! cannot ship built schedules across worker threads. These specs are the
//! thread-safe currency instead: plain-data descriptions (`Clone + Send +
//! Sync`) that each worker turns into a live schedule or fault plan
//! *inside* its own thread. Building from the spec is deterministic, so a
//! session is pinned by `(spec, seed)` no matter which worker runs it —
//! the property the fleet runtime's determinism guarantee rests on.
//!
//! Each spec also owns its validity rule: `validate(cohort)` states
//! exactly the `# Panics` contract of the constructors it builds, so a
//! server can reject a spec at admission instead of panicking a session.
//! Its wire codec lives in [`crate::wire`].

use crate::adversary::{Bursty, CrashFiltered, FaultPlan, LaggingRobot, WorstCaseFair};
use crate::schedules::{FairAsync, RoundRobin, Scripted, SingleActive, Synchronous};
use crate::Schedule;

/// A buildable, thread-safe description of an activation schedule.
///
/// `build` is a pure function of the spec (plus the cohort size for
/// specs that target "the receiver"), so two workers holding clones
/// produce behaviourally identical schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleSpec {
    /// Every robot active at every instant.
    Synchronous,
    /// Robot `t mod n` active at instant `t`.
    RoundRobin,
    /// Seeded random fair scheduler ([`FairAsync`]).
    FairAsync {
        /// RNG seed.
        seed: u64,
        /// Per-instant activation probability.
        p: f64,
        /// Enforced maximum inactivity gap.
        max_gap: u64,
    },
    /// Exactly one random robot per instant ([`SingleActive`]).
    SingleActive {
        /// RNG seed.
        seed: u64,
        /// Enforced maximum inactivity gap.
        max_gap: u64,
    },
    /// Starves robot `n - 1` — the conventional receiver — to the bound.
    LaggingReceiver {
        /// Exact inactivity gap of the victim.
        max_gap: u64,
    },
    /// Starves a fixed robot to the bound ([`LaggingRobot`]).
    Lagging {
        /// The starved robot.
        victim: usize,
        /// Exact inactivity gap of the victim.
        max_gap: u64,
    },
    /// Feast-and-famine bursts ([`Bursty`]).
    Bursty {
        /// RNG seed for the per-lull robot draw.
        seed: u64,
        /// Instants per full-cohort burst.
        burst_len: u64,
        /// Instants per single-robot lull.
        lull_len: u64,
    },
    /// Every robot delayed to the fairness bound ([`WorstCaseFair`]).
    WorstCaseFair {
        /// The fairness bound.
        max_gap: u64,
    },
    /// An explicit cyclic activation table ([`Scripted`]).
    Scripted {
        /// The activation cycle; every step must be non-empty.
        script: Vec<Vec<usize>>,
    },
    /// The inner schedule with crash-stopped robots filtered out of every
    /// activation set ([`CrashFiltered`]).
    ///
    /// The fault plan is not part of the spec — it is supplied at build
    /// time via [`ScheduleSpec::build_faulted`], so one spec fans out
    /// across a seed range exactly like [`FaultSpec`] does. Plain
    /// [`ScheduleSpec::build`] arms an empty plan (the wrapper becomes a
    /// transparent pass-through), keeping `build` a pure function of
    /// `(spec, n)`.
    CrashFiltered {
        /// The schedule whose activations get filtered.
        inner: Box<ScheduleSpec>,
    },
}

impl ScheduleSpec {
    /// Checks the spec against the `# Panics` contract of the schedule it
    /// builds — [`FairAsync::new`], [`SingleActive::new`],
    /// [`LaggingRobot::new`], [`Bursty::new`], [`WorstCaseFair::new`] and
    /// [`Scripted::new`] — plus the rule that every robot it names lies
    /// in a cohort of `cohort`. A spec that passes builds and runs for
    /// that cohort without panicking.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first broken rule.
    pub fn validate(&self, cohort: usize) -> Result<(), String> {
        let positive = |what: &str, x: u64| {
            if x == 0 {
                Err(format!("{} {what} must be positive", self.name()))
            } else {
                Ok(())
            }
        };
        match self {
            ScheduleSpec::Synchronous | ScheduleSpec::RoundRobin => Ok(()),
            ScheduleSpec::FairAsync { p, max_gap, .. } => {
                if !(*p > 0.0 && *p <= 1.0) {
                    return Err(format!("fair-async p {p} outside (0, 1]"));
                }
                positive("max_gap", *max_gap)
            }
            ScheduleSpec::SingleActive { max_gap, .. }
            | ScheduleSpec::LaggingReceiver { max_gap }
            | ScheduleSpec::WorstCaseFair { max_gap } => positive("max_gap", *max_gap),
            ScheduleSpec::Lagging { victim, max_gap } => {
                if *victim >= cohort {
                    return Err(format!("lagging victim {victim} outside cohort {cohort}"));
                }
                positive("max_gap", *max_gap)
            }
            ScheduleSpec::Bursty {
                burst_len,
                lull_len,
                ..
            } => {
                positive("burst_len", *burst_len)?;
                positive("lull_len", *lull_len)
            }
            ScheduleSpec::Scripted { script } => {
                if script.is_empty() {
                    return Err("scripted schedule has no steps".into());
                }
                for (t, step) in script.iter().enumerate() {
                    if step.is_empty() {
                        return Err(format!("scripted step {t} activates no robot"));
                    }
                    if let Some(&robot) = step.iter().find(|&&r| r >= cohort) {
                        return Err(format!(
                            "scripted step {t} activates robot {robot} outside cohort {cohort}"
                        ));
                    }
                }
                Ok(())
            }
            ScheduleSpec::CrashFiltered { inner } => inner.validate(cohort),
        }
    }

    /// Builds the described schedule for a cohort of `n` robots.
    ///
    /// [`ScheduleSpec::CrashFiltered`] builds with an **empty** fault
    /// plan; use [`ScheduleSpec::build_faulted`] to arm the real one.
    #[must_use]
    pub fn build(&self, n: usize) -> Box<dyn Schedule + Send> {
        self.build_faulted(n, &FaultPlan::new(0))
    }

    /// Builds the described schedule, arming `plan` in any
    /// [`ScheduleSpec::CrashFiltered`] layer.
    ///
    /// Every other variant ignores the plan entirely, so for them this is
    /// byte-for-byte identical to [`ScheduleSpec::build`].
    #[must_use]
    pub fn build_faulted(&self, n: usize, plan: &FaultPlan) -> Box<dyn Schedule + Send> {
        match *self {
            ScheduleSpec::Synchronous => Box::new(Synchronous),
            ScheduleSpec::RoundRobin => Box::new(RoundRobin),
            ScheduleSpec::FairAsync { seed, p, max_gap } => {
                Box::new(FairAsync::new(seed, p, max_gap))
            }
            ScheduleSpec::SingleActive { seed, max_gap } => {
                Box::new(SingleActive::new(seed, max_gap))
            }
            ScheduleSpec::LaggingReceiver { max_gap } => {
                Box::new(LaggingRobot::new(n.saturating_sub(1), max_gap))
            }
            ScheduleSpec::Lagging { victim, max_gap } => {
                Box::new(LaggingRobot::new(victim, max_gap))
            }
            ScheduleSpec::Bursty {
                seed,
                burst_len,
                lull_len,
            } => Box::new(Bursty::new(seed, burst_len, lull_len)),
            ScheduleSpec::WorstCaseFair { max_gap } => Box::new(WorstCaseFair::new(max_gap)),
            ScheduleSpec::Scripted { ref script } => Box::new(Scripted::new(script.clone())),
            ScheduleSpec::CrashFiltered { ref inner } => Box::new(CrashFiltered::new(
                inner.build_faulted(n, plan),
                plan.clone(),
            )),
        }
    }

    /// A bound on the inactivity gap [`ScheduleSpec::build`]`(n)` can give
    /// `robot`, in [`FairnessReport::max_gaps`] terms (leading and
    /// trailing gaps included): `robot` is active at least once in every
    /// `bound + 1` consecutive instants. `None` where no bound exists — a
    /// scripted robot the script never activates. Wrapping in
    /// `WakeAllFirst` only adds activations, so the bound holds there too.
    ///
    /// * The deadline schedules force a robot once `max_gap` instants
    ///   have passed since its last activation (or since instant 0).
    /// * The lagging schedules starve only their victim; every other
    ///   robot is active at every instant, and a victim outside the
    ///   cohort starves no one.
    /// * [`SingleActive`] serves one overdue robot per instant, the
    ///   longest-waiting first; each of the other `n − 1` robots can be
    ///   served ahead of it at most once.
    /// * [`Bursty`] leaves a robot out of one lull at a time.
    /// * [`CrashFiltered`] only removes crashed robots, so a live robot
    ///   keeps its inner schedule's bound.
    ///
    /// [`FairnessReport::max_gaps`]: crate::FairnessReport::max_gaps
    #[must_use]
    pub fn gap_bound(&self, n: usize, robot: usize) -> Option<u64> {
        let victim_gap = |victim: usize, max_gap: u64| {
            Some(if robot == victim && victim < n {
                max_gap
            } else {
                0
            })
        };
        match self {
            ScheduleSpec::Synchronous => Some(0),
            ScheduleSpec::RoundRobin => Some(n.saturating_sub(1) as u64),
            ScheduleSpec::FairAsync { max_gap, .. } | ScheduleSpec::WorstCaseFair { max_gap } => {
                Some(*max_gap)
            }
            ScheduleSpec::LaggingReceiver { max_gap } => victim_gap(n.saturating_sub(1), *max_gap),
            ScheduleSpec::Lagging { victim, max_gap } => victim_gap(*victim, *max_gap),
            ScheduleSpec::SingleActive { max_gap, .. } => {
                Some(max_gap.saturating_add(n.saturating_sub(1) as u64))
            }
            ScheduleSpec::Bursty { lull_len, .. } => Some(*lull_len),
            ScheduleSpec::Scripted { script } => scripted_gap(script, robot),
            ScheduleSpec::CrashFiltered { inner } => inner.gap_bound(n, robot),
        }
    }

    /// The name the built schedule will report.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleSpec::Synchronous => "synchronous",
            ScheduleSpec::RoundRobin => "round-robin",
            ScheduleSpec::FairAsync { .. } => "fair-async",
            ScheduleSpec::SingleActive { .. } => "single-active",
            ScheduleSpec::LaggingReceiver { .. } | ScheduleSpec::Lagging { .. } => "lagging-robot",
            ScheduleSpec::Bursty { .. } => "bursty",
            ScheduleSpec::WorstCaseFair { .. } => "worst-case-fair",
            ScheduleSpec::Scripted { .. } => "scripted",
            ScheduleSpec::CrashFiltered { .. } => "crash-filtered",
        }
    }
}

/// The longest cyclic run of steps a script leaves `robot` out of, or
/// `None` if no step activates it. The leading gap before its first step
/// is never longer than the wrap-around gap, so this bounds it too.
fn scripted_gap(script: &[Vec<usize>], robot: usize) -> Option<u64> {
    let steps: Vec<usize> = (0..script.len())
        .filter(|&t| script[t].contains(&robot))
        .collect();
    let (&first, &last) = (steps.first()?, steps.last()?);
    let wrap = script.len() - last - 1 + first;
    let inner = steps.windows(2).map(|w| w[1] - w[0] - 1);
    Some(inner.fold(wrap, usize::max) as u64)
}

/// A buildable, thread-safe description of a fault plan.
///
/// The plan seed is supplied at build time, so one spec fans out across a
/// whole seed range while remaining a pure data value.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// No faults.
    Benign,
    /// Non-rigid motion: moves cut short to a fraction in `[delta, 1)`
    /// with probability `prob`.
    NonRigid {
        /// Minimum fraction of a move always covered.
        delta: f64,
        /// Per-activation fault probability.
        prob: f64,
    },
    /// Transient observation dropouts with the given probability.
    Dropout {
        /// Per-(observer, instant) dropout probability.
        prob: f64,
    },
    /// A crash-stop mid-run, layered over non-rigid motion.
    Crash {
        /// The crashed robot.
        robot: usize,
        /// The crash instant.
        time: u64,
        /// Non-rigid δ floor.
        delta: f64,
        /// Non-rigid fault probability.
        prob: f64,
    },
}

impl FaultSpec {
    /// Checks the spec against the `# Panics` contract of
    /// [`FaultPlan::non_rigid`] (δ in `(0, 1]`, probability in `[0, 1]`)
    /// and [`FaultPlan::observation_dropout`] (probability in `[0, 1]`),
    /// plus the rule that a crashed robot lies in a cohort of `cohort`.
    /// A spec that passes builds a plan for that cohort without
    /// panicking.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first broken rule.
    pub fn validate(&self, cohort: usize) -> Result<(), String> {
        let delta = |what: &str, x: f64| {
            if x > 0.0 && x <= 1.0 {
                Ok(())
            } else {
                Err(format!("{what} {x} outside (0, 1]"))
            }
        };
        let prob = |what: &str, x: f64| {
            if (0.0..=1.0).contains(&x) {
                Ok(())
            } else {
                Err(format!("{what} {x} outside [0, 1]"))
            }
        };
        match *self {
            FaultSpec::Benign => Ok(()),
            FaultSpec::NonRigid { delta: d, prob: p } => {
                delta("non-rigid delta", d)?;
                prob("non-rigid prob", p)
            }
            FaultSpec::Dropout { prob: p } => prob("dropout prob", p),
            FaultSpec::Crash {
                robot,
                delta: d,
                prob: p,
                ..
            } => {
                if robot >= cohort {
                    return Err(format!("crash robot {robot} outside cohort {cohort}"));
                }
                delta("crash delta", d)?;
                prob("crash prob", p)
            }
        }
    }

    /// Builds the described plan with the given seed.
    #[must_use]
    pub fn plan(&self, seed: u64) -> FaultPlan {
        match *self {
            FaultSpec::Benign => FaultPlan::new(seed),
            FaultSpec::NonRigid { delta, prob } => FaultPlan::new(seed).non_rigid(delta, prob),
            FaultSpec::Dropout { prob } => FaultPlan::new(seed).observation_dropout(prob),
            FaultSpec::Crash {
                robot,
                time,
                delta,
                prob,
            } => FaultPlan::new(seed)
                .crash_stop(robot, time)
                .non_rigid(delta, prob),
        }
    }

    /// A short name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultSpec::Benign => "benign",
            FaultSpec::NonRigid { .. } => "non-rigid",
            FaultSpec::Dropout { .. } => "dropout",
            FaultSpec::Crash { .. } => "crash",
        }
    }

    /// Whether this spec crash-stops a robot.
    #[must_use]
    pub fn crashes(&self) -> bool {
        matches!(self, FaultSpec::Crash { .. })
    }
}

/// A buildable, thread-safe description of a distributed algorithm to run
/// over the movement-signal channel (see `crates/algo`).
///
/// Like [`ScheduleSpec`] and [`FaultSpec`], this is plain data: the fleet
/// runtime ships it to worker threads, which instantiate the live
/// algorithm sessions deterministically from `(spec, seed)`. The
/// scheduler crate owns the type (rather than `crates/algo`) so its wire
/// codec and validity rule live next to the other specs'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// Flooding broadcast with convergecast ack aggregation
    /// (RoboCast-style): the initiator floods a payload, every peer acks,
    /// and the initiator decides once the live cohort is covered.
    Flood {
        /// Engine index of the robot initiating the flood.
        initiator: usize,
    },
    /// Leader election over similarity-invariant position signatures
    /// (`stigmergy::election_signature`): unique minimum wins; a
    /// symmetric (degenerate all-on-SEC) configuration is deterministically
    /// rejected.
    Election,
    /// Event-driven binary agreement (FloodSet with a perfect failure
    /// detector): bit `i` of `inputs` is robot `i`'s proposal.
    Agreement {
        /// Input bits, one per robot (robots beyond bit 63 propose 0).
        inputs: u64,
    },
}

impl AlgorithmSpec {
    /// Checks the spec against a cohort of `cohort` robots: the flood
    /// initiator must be one of them, and agreement may set no input bit
    /// beyond them.
    ///
    /// # Errors
    ///
    /// A human-readable description of the broken rule.
    pub fn validate(&self, cohort: usize) -> Result<(), String> {
        match *self {
            AlgorithmSpec::Flood { initiator } if initiator >= cohort => Err(format!(
                "flood initiator {initiator} outside cohort {cohort}"
            )),
            AlgorithmSpec::Agreement { inputs } if cohort < 64 && inputs >> cohort != 0 => Err(
                format!("agreement inputs {inputs:#x} has bits beyond cohort {cohort}"),
            ),
            AlgorithmSpec::Flood { .. }
            | AlgorithmSpec::Election
            | AlgorithmSpec::Agreement { .. } => Ok(()),
        }
    }

    /// A short name for reports and bench suites.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::Flood { .. } => "flood",
            AlgorithmSpec::Election => "election",
            AlgorithmSpec::Agreement { .. } => "agreement",
        }
    }
}

/// A buildable, thread-safe description of the motion channel's symbol
/// coding — how many bits each excursion carries and whether the symbol
/// stream is protected by forward error correction.
///
/// Like the other specs this is plain data: the fleet runtime ships it to
/// worker threads, which instantiate the paced multi-level protocols (or
/// the historical binary ones) deterministically from the spec. The
/// scheduler crate owns the type so its wire codec lives next to the other
/// specs'; its validity rule is `fleet::paced_config`, which builds the
/// paced channel from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodingSpec {
    /// The historical one-bit-per-excursion channel. Default; produces
    /// byte-identical traces to every pre-coding release.
    #[default]
    Binary,
    /// Multi-level magnitude coding: each excursion is one of `levels`
    /// discrete lateral offsets (`log2(levels)` bits per excursion), held
    /// for `dwell` sender activations so starved receivers still sample
    /// every symbol. No redundancy: a corrupted symbol loses the frame.
    MultiLevel {
        /// Magnitude levels per excursion; a power of two in `2..=256`.
        levels: u8,
        /// Sender activations each symbol is held for.
        dwell: u8,
    },
    /// Multi-level coding with systematic Hamming(7,4) forward error
    /// correction over the symbol stream: any single symbol error or
    /// erasure per 7-symbol block is corrected instead of rejected.
    Fec {
        /// Magnitude levels per excursion; a power of two in `2..=256`.
        levels: u8,
        /// Sender activations each symbol is held for.
        dwell: u8,
    },
}

impl CodingSpec {
    /// A short name for reports and bench suites.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CodingSpec::Binary => "binary",
            CodingSpec::MultiLevel { .. } => "multi-level",
            CodingSpec::Fec { .. } => "fec",
        }
    }

    /// Bits carried per excursion (`log2(levels)`; 1 for binary).
    #[must_use]
    pub fn bits_per_symbol(&self) -> u32 {
        match *self {
            CodingSpec::Binary => 1,
            CodingSpec::MultiLevel { levels, .. } | CodingSpec::Fec { levels, .. } => {
                u32::from(levels).max(2).trailing_zeros()
            }
        }
    }

    /// Whether the symbol stream carries FEC parity.
    #[must_use]
    pub fn has_fec(&self) -> bool {
        matches!(self, CodingSpec::Fec { .. })
    }
}

/// Compile-time guarantee that specs can cross threads.
fn _assert_send_sync() {
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<ScheduleSpec>();
    assert_send_sync::<FaultSpec>();
    assert_send_sync::<AlgorithmSpec>();
    assert_send_sync::<CodingSpec>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ActivationSet;

    /// The activation sequence of a built schedule.
    fn activation_prefix(spec: &ScheduleSpec, n: usize, len: u64) -> Vec<ActivationSet> {
        let mut schedule = spec.build(n);
        (0..len).map(|t| schedule.activations(t, n)).collect()
    }

    fn all_specs() -> Vec<ScheduleSpec> {
        vec![
            ScheduleSpec::Synchronous,
            ScheduleSpec::RoundRobin,
            ScheduleSpec::FairAsync {
                seed: 3,
                p: 0.4,
                max_gap: 9,
            },
            ScheduleSpec::SingleActive {
                seed: 4,
                max_gap: 7,
            },
            ScheduleSpec::LaggingReceiver { max_gap: 8 },
            ScheduleSpec::Lagging {
                victim: 0,
                max_gap: 5,
            },
            ScheduleSpec::Bursty {
                seed: 5,
                burst_len: 3,
                lull_len: 5,
            },
            ScheduleSpec::WorstCaseFair { max_gap: 6 },
            ScheduleSpec::Scripted {
                script: vec![vec![0], vec![1, 2]],
            },
            ScheduleSpec::CrashFiltered {
                inner: Box::new(ScheduleSpec::WorstCaseFair { max_gap: 4 }),
            },
        ]
    }

    #[test]
    fn specs_build_schedules_with_matching_names() {
        for spec in all_specs() {
            let schedule = spec.build(3);
            assert_eq!(schedule.name(), spec.name(), "{spec:?}");
        }
    }

    #[test]
    fn activations_into_matches_by_value_for_every_schedule() {
        // Two identically seeded copies driven through the two entry
        // points must produce the same sets *and* the same internal state
        // evolution (same RNG draw sequence) — the contract the engine's
        // allocation-free path relies on.
        for spec in all_specs() {
            for n in [1usize, 3, 5] {
                let mut by_value = spec.build(n);
                let mut in_place = spec.build(n);
                let mut out = ActivationSet::empty(n);
                for t in 0..200 {
                    let expected = by_value.activations(t, n);
                    in_place.activations_into(t, n, &mut out);
                    assert_eq!(out, expected, "{spec:?} diverged at t={t}, n={n}");
                }
            }
        }
    }

    #[test]
    fn built_schedules_are_deterministic_per_spec() {
        for spec in all_specs() {
            assert_eq!(
                activation_prefix(&spec, 4, 100),
                activation_prefix(&spec, 4, 100),
                "{spec:?} not reproducible from its spec"
            );
        }
    }

    #[test]
    fn crash_filtered_build_is_transparent_until_faulted() {
        let spec = ScheduleSpec::CrashFiltered {
            inner: Box::new(ScheduleSpec::Synchronous),
        };
        // Plain build arms an empty plan: pure pass-through.
        let mut plain = spec.build(3);
        assert_eq!(plain.activations(10, 3).len(), 3);
        // build_faulted filters the crashed robot from the crash instant on.
        let plan = FaultPlan::new(7).crash_stop(1, 5);
        let mut armed = spec.build_faulted(3, &plan);
        assert_eq!(armed.activations(4, 3).len(), 3);
        let after = armed.activations(5, 3);
        assert_eq!(after.len(), 2);
        assert!(!after.contains(1));
        // Non-wrapping specs ignore the plan entirely.
        let mut sync = ScheduleSpec::Synchronous.build_faulted(3, &plan);
        assert_eq!(sync.activations(5, 3).len(), 3);
    }

    #[test]
    fn nested_crash_filtered_builds() {
        let spec = ScheduleSpec::CrashFiltered {
            inner: Box::new(ScheduleSpec::CrashFiltered {
                inner: Box::new(ScheduleSpec::RoundRobin),
            }),
        };
        assert_eq!(spec.name(), "crash-filtered");
        let mut s = spec.build(2);
        assert_eq!(s.activations(0, 2).len(), 1);
    }

    /// Specs covering every variant at cohort `n`, with gaps both below
    /// and above `n` so `SingleActive`'s queueing term shows.
    fn gap_specs(n: usize, seed: u64) -> Vec<ScheduleSpec> {
        vec![
            ScheduleSpec::Synchronous,
            ScheduleSpec::RoundRobin,
            ScheduleSpec::FairAsync {
                seed,
                p: 0.05,
                max_gap: 3,
            },
            ScheduleSpec::FairAsync {
                seed,
                p: 0.3,
                max_gap: 12,
            },
            ScheduleSpec::SingleActive { seed, max_gap: 3 },
            ScheduleSpec::SingleActive { seed, max_gap: 10 },
            ScheduleSpec::LaggingReceiver { max_gap: 8 },
            ScheduleSpec::Lagging {
                victim: seed as usize % n,
                max_gap: 5,
            },
            ScheduleSpec::Lagging {
                victim: 0,
                max_gap: 9,
            },
            ScheduleSpec::Lagging {
                victim: n / 2,
                max_gap: 4,
            },
            ScheduleSpec::Lagging {
                victim: n - 1,
                max_gap: 6,
            },
            ScheduleSpec::Lagging {
                victim: n + seed as usize % 3,
                max_gap: 7,
            },
            ScheduleSpec::Bursty {
                seed,
                burst_len: 1,
                lull_len: 7,
            },
            ScheduleSpec::Bursty {
                seed,
                burst_len: 3,
                lull_len: 5,
            },
            ScheduleSpec::WorstCaseFair { max_gap: 2 },
            ScheduleSpec::WorstCaseFair { max_gap: 13 },
            ScheduleSpec::Scripted {
                script: (0..2 * n + 1)
                    .map(|t| {
                        if t % 3 == 0 {
                            vec![0, t % n]
                        } else {
                            vec![t % n]
                        }
                    })
                    .collect(),
            },
            ScheduleSpec::CrashFiltered {
                inner: Box::new(ScheduleSpec::SingleActive { seed, max_gap: 4 }),
            },
        ]
    }

    /// Position in declaration order; the exhaustive match keeps
    /// `gap_specs` covering every variant.
    fn variant(spec: &ScheduleSpec) -> usize {
        match spec {
            ScheduleSpec::Synchronous => 0,
            ScheduleSpec::RoundRobin => 1,
            ScheduleSpec::FairAsync { .. } => 2,
            ScheduleSpec::SingleActive { .. } => 3,
            ScheduleSpec::LaggingReceiver { .. } => 4,
            ScheduleSpec::Lagging { .. } => 5,
            ScheduleSpec::Bursty { .. } => 6,
            ScheduleSpec::WorstCaseFair { .. } => 7,
            ScheduleSpec::Scripted { .. } => 8,
            ScheduleSpec::CrashFiltered { .. } => 9,
        }
    }

    /// The gap bound over the whole cohort, variant by variant. The
    /// largest per-robot bound must equal it, so a per-robot bound
    /// tightens a cap only where robots differ. A lagging victim outside
    /// the cohort starves no one, so there it is 0.
    fn cohort_gap_bound(spec: &ScheduleSpec, n: usize) -> u64 {
        match spec {
            ScheduleSpec::Synchronous => 0,
            ScheduleSpec::RoundRobin => n as u64 - 1,
            ScheduleSpec::FairAsync { max_gap, .. }
            | ScheduleSpec::LaggingReceiver { max_gap }
            | ScheduleSpec::WorstCaseFair { max_gap } => *max_gap,
            ScheduleSpec::Lagging { victim, max_gap } => {
                if *victim < n {
                    *max_gap
                } else {
                    0
                }
            }
            ScheduleSpec::SingleActive { max_gap, .. } => max_gap + n as u64 - 1,
            ScheduleSpec::Bursty { lull_len, .. } => *lull_len,
            ScheduleSpec::Scripted { script } => (0..n)
                .map(|robot| scripted_gap(script, robot).expect("every robot is scripted"))
                .max()
                .unwrap_or(0),
            ScheduleSpec::CrashFiltered { inner } => cohort_gap_bound(inner, n),
        }
    }

    #[test]
    fn every_schedule_keeps_its_gap_bound() {
        let mut seen = [false; 10];
        for n in [2usize, 3, 5, 8] {
            for seed in [1u64, 7, 0x00C0_FFEE] {
                for spec in gap_specs(n, seed) {
                    seen[variant(&spec)] = true;
                    let bounds: Vec<u64> = (0..n)
                        .map(|r| spec.gap_bound(n, r).expect("every robot is scheduled"))
                        .collect();
                    assert_eq!(
                        bounds.iter().copied().max(),
                        Some(cohort_gap_bound(&spec, n)),
                        "{spec:?} n={n}: per-robot bounds {bounds:?}"
                    );
                    for wake_all in [false, true] {
                        let mut schedule: Box<dyn Schedule> = if wake_all {
                            Box::new(crate::WakeAllFirst::new(spec.build(n)))
                        } else {
                            spec.build(n)
                        };
                        let log: Vec<ActivationSet> =
                            (0..10_000).map(|t| schedule.activations(t, n)).collect();
                        let report = crate::audit_fairness(&log, n);
                        assert!(
                            report.is_valid_ssm(),
                            "{spec:?} n={n} wake_all={wake_all}: {report}"
                        );
                        for (r, (&gap, &bound)) in report.max_gaps.iter().zip(&bounds).enumerate() {
                            assert!(
                                gap <= bound,
                                "{spec:?} n={n} wake_all={wake_all}: robot {r} \
                                 gap {gap} > bound {bound}"
                            );
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "a variant has no gap spec");
    }

    #[test]
    fn gap_bound_edge_cases() {
        let spec = ScheduleSpec::Scripted {
            script: vec![vec![0], vec![0, 1]],
        };
        assert_eq!(spec.gap_bound(2, 0), Some(0));
        assert_eq!(spec.gap_bound(2, 1), Some(1));
        assert_eq!(spec.gap_bound(3, 2), None);
        let huge = ScheduleSpec::SingleActive {
            seed: 0,
            max_gap: u64::MAX,
        };
        assert_eq!(huge.gap_bound(3, 0), Some(u64::MAX));
        // Only the lagging victim waits; the sender (robot 0) of a
        // lagging-receiver pair or swarm never does.
        let lagging = ScheduleSpec::LaggingReceiver { max_gap: 8 };
        assert_eq!(lagging.gap_bound(2, 0), Some(0));
        assert_eq!(lagging.gap_bound(2, 1), Some(8));
        assert_eq!(lagging.gap_bound(3, 1), Some(0));
        let crash_filtered = ScheduleSpec::CrashFiltered {
            inner: Box::new(lagging),
        };
        assert_eq!(crash_filtered.gap_bound(3, 0), Some(0));
        assert_eq!(crash_filtered.gap_bound(3, 2), Some(8));
        let outside = ScheduleSpec::Lagging {
            victim: 3,
            max_gap: 8,
        };
        assert_eq!(outside.gap_bound(3, 2), Some(0));
    }

    #[test]
    fn algorithm_spec_names() {
        assert_eq!(AlgorithmSpec::Flood { initiator: 0 }.name(), "flood");
        assert_eq!(AlgorithmSpec::Election.name(), "election");
        assert_eq!(
            AlgorithmSpec::Agreement { inputs: 0b101 }.name(),
            "agreement"
        );
    }

    #[test]
    fn coding_spec_names_and_widths() {
        assert_eq!(CodingSpec::Binary.name(), "binary");
        assert_eq!(CodingSpec::default(), CodingSpec::Binary);
        assert_eq!(CodingSpec::Binary.bits_per_symbol(), 1);
        assert!(!CodingSpec::Binary.has_fec());
        let ml = CodingSpec::MultiLevel {
            levels: 8,
            dwell: 10,
        };
        assert_eq!(ml.name(), "multi-level");
        assert_eq!(ml.bits_per_symbol(), 3);
        assert!(!ml.has_fec());
        let fec = CodingSpec::Fec {
            levels: 16,
            dwell: 10,
        };
        assert_eq!(fec.name(), "fec");
        assert_eq!(fec.bits_per_symbol(), 4);
        assert!(fec.has_fec());
    }

    #[test]
    fn lagging_receiver_targets_last_robot() {
        let spec = ScheduleSpec::LaggingReceiver { max_gap: 4 };
        let log = activation_prefix(&spec, 3, 16);
        // Robot 2 is the starved victim: inactive most instants.
        let victim_active = log.iter().filter(|s| s.contains(2)).count();
        let other_active = log.iter().filter(|s| s.contains(0)).count();
        assert!(victim_active < other_active);
    }

    #[test]
    // A bare thread is the point: this asserts Send across a real spawn.
    #[allow(clippy::disallowed_methods)]
    fn specs_can_be_sent_across_threads() {
        let spec = ScheduleSpec::Bursty {
            seed: 1,
            burst_len: 2,
            lull_len: 3,
        };
        let fault = FaultSpec::NonRigid {
            delta: 0.5,
            prob: 0.5,
        };
        let handle = std::thread::spawn(move || {
            let mut s = spec.build(3);
            let plan = fault.plan(11);
            (s.activations(0, 3).len(), plan.motion_fraction(0, 0))
        });
        let (active, fraction) = handle.join().unwrap();
        assert_eq!(active, 3); // bursty instant 0 is a burst
        assert!((0.0..=1.0).contains(&fraction));
    }

    #[test]
    fn fault_specs_build_the_described_plans() {
        assert!(FaultSpec::Benign.plan(1).is_benign());
        assert!(!FaultSpec::Benign.crashes());
        let nr = FaultSpec::NonRigid {
            delta: 0.3,
            prob: 1.0,
        }
        .plan(2);
        assert!((nr.delta() - 0.3).abs() < 1e-15);
        let crash = FaultSpec::Crash {
            robot: 1,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        assert!(crash.crashes());
        let plan = crash.plan(3);
        assert_eq!(plan.crash_time(1), Some(35));
        let drop = FaultSpec::Dropout { prob: 1.0 }.plan(4);
        assert!(drop.drops_observation(0, 1, 0));
    }

    #[test]
    fn same_seed_same_plan_decisions() {
        let spec = FaultSpec::NonRigid {
            delta: 0.4,
            prob: 0.6,
        };
        let a: Vec<f64> = (0..50)
            .map(|t| spec.plan(9).motion_fraction(1, t))
            .collect();
        let b: Vec<f64> = (0..50)
            .map(|t| spec.plan(9).motion_fraction(1, t))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn names() {
        assert_eq!(FaultSpec::Benign.name(), "benign");
        assert_eq!(
            FaultSpec::NonRigid {
                delta: 0.5,
                prob: 0.5
            }
            .name(),
            "non-rigid"
        );
        assert_eq!(FaultSpec::Dropout { prob: 0.1 }.name(), "dropout");
        assert_eq!(
            FaultSpec::Crash {
                robot: 1,
                time: 35,
                delta: 0.5,
                prob: 0.25
            }
            .name(),
            "crash"
        );
    }
}
