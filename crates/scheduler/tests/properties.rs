//! Property-based tests for schedulers: the SSM contract (non-empty
//! activations), fairness bounds, determinism, and audit consistency.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use stigmergy_scheduler::{
    audit_fairness, ActivationSet, FairAsync, FaultPlan, FaultSpec, RoundRobin, Schedule,
    ScheduleSpec, Scripted, SingleActive, Synchronous, WakeAllFirst,
};

fn record(s: &mut dyn Schedule, n: usize, steps: u64) -> Vec<ActivationSet> {
    (0..steps).map(|t| s.activations(t, n)).collect()
}

/// Every `ScheduleSpec` variant, optionally under a `CrashFiltered`
/// wrapper, with gaps and phases drawn from {0, 1, 2, 7}, `p` from
/// around the unit interval (NaN included), robots from `0..6` and
/// script steps that may be empty.
fn any_schedule() -> impl Strategy<Value = ScheduleSpec> {
    (
        0usize..9,
        any::<bool>(),
        any::<u64>(),
        prop::sample::select(vec![-0.5, 0.0, 0.35, 1.0, 1.5, f64::NAN]),
        prop::sample::select(vec![0u64, 1, 2, 7]),
        prop::sample::select(vec![0u64, 1, 2, 7]),
        0usize..6,
        prop::collection::vec(prop::collection::vec(0usize..6, 0..3), 0..3),
    )
        .prop_map(|(variant, wrap, seed, p, gap, len, robot, script)| {
            let spec = match variant {
                0 => ScheduleSpec::Synchronous,
                1 => ScheduleSpec::RoundRobin,
                2 => ScheduleSpec::FairAsync {
                    seed,
                    p,
                    max_gap: gap,
                },
                3 => ScheduleSpec::SingleActive { seed, max_gap: gap },
                4 => ScheduleSpec::LaggingReceiver { max_gap: gap },
                5 => ScheduleSpec::Lagging {
                    victim: robot,
                    max_gap: gap,
                },
                6 => ScheduleSpec::Bursty {
                    seed,
                    burst_len: gap,
                    lull_len: len,
                },
                7 => ScheduleSpec::WorstCaseFair { max_gap: gap },
                _ => ScheduleSpec::Scripted { script },
            };
            if wrap {
                ScheduleSpec::CrashFiltered {
                    inner: Box::new(spec),
                }
            } else {
                spec
            }
        })
}

/// Every `FaultSpec` variant, with δ and probabilities drawn from around
/// the unit interval (0.0, 1.0, above 1 and NaN included).
fn any_fault() -> impl Strategy<Value = FaultSpec> {
    let unitish = || prop::sample::select(vec![-0.5, 0.0, 0.35, 1.0, 1.5, f64::NAN]);
    (0usize..4, unitish(), unitish(), 0usize..6, 0u64..64).prop_map(
        |(variant, delta, prob, robot, time)| match variant {
            0 => FaultSpec::Benign,
            1 => FaultSpec::NonRigid { delta, prob },
            2 => FaultSpec::Dropout { prob },
            _ => FaultSpec::Crash {
                robot,
                time,
                delta,
                prob,
            },
        },
    )
}

proptest! {
    #[test]
    fn fair_async_contract(seed in any::<u64>(), p in 0.01f64..1.0, gap in 1u64..32, n in 1usize..10) {
        let mut s = FairAsync::new(seed, p, gap);
        let log = record(&mut s, n, 40 * gap);
        let report = audit_fairness(&log, n);
        prop_assert!(report.is_valid_ssm(), "{report}");
        prop_assert!(report.is_fair(gap), "gap {} > bound {gap}", report.worst_gap());
    }

    #[test]
    fn single_active_contract(seed in any::<u64>(), gap in 1u64..32, n in 1usize..10) {
        let mut s = SingleActive::new(seed, gap);
        let log = record(&mut s, n, 50 * gap.max(n as u64));
        for set in &log {
            prop_assert_eq!(set.len(), 1);
        }
        let report = audit_fairness(&log, n);
        prop_assert!(report.is_valid_ssm());
        // The forced-fairness override serves one overdue robot per
        // instant, so the worst gap is bounded by gap + n.
        prop_assert!(report.is_fair(gap + n as u64), "worst {}", report.worst_gap());
    }

    #[test]
    fn schedulers_are_deterministic(seed in any::<u64>(), n in 1usize..8) {
        let a = record(&mut FairAsync::new(seed, 0.4, 8), n, 60);
        let b = record(&mut FairAsync::new(seed, 0.4, 8), n, 60);
        prop_assert_eq!(a, b);
        let c = record(&mut SingleActive::new(seed, 8), n, 60);
        let d = record(&mut SingleActive::new(seed, 8), n, 60);
        prop_assert_eq!(c, d);
    }

    #[test]
    fn wake_all_first_only_changes_t0(seed in any::<u64>(), n in 1usize..8) {
        let mut wrapped = WakeAllFirst::new(FairAsync::new(seed, 0.5, 8));
        let mut plain = FairAsync::new(seed, 0.5, 8);
        let w0 = wrapped.activations(0, n);
        let _ = plain.activations(0, n); // consumed by the wrapper too
        prop_assert_eq!(w0.len(), n);
        for t in 1..50u64 {
            prop_assert_eq!(wrapped.activations(t, n), plain.activations(t, n), "t = {}", t);
        }
    }

    #[test]
    fn scripted_cycles_exactly(n_steps in 1usize..6, reps in 1u64..5) {
        let script: Vec<Vec<usize>> = (0..n_steps).map(|k| vec![k % 3]).collect();
        let mut s = Scripted::new(script.clone());
        for rep in 0..reps {
            for (k, step) in script.iter().enumerate() {
                let t = rep * n_steps as u64 + k as u64;
                let set = s.activations(t, 3);
                prop_assert!(set.contains(step[0]), "t={t}");
                prop_assert_eq!(set.len(), 1);
            }
        }
    }

    #[test]
    fn audit_counts_match_log(seed in any::<u64>(), n in 1usize..6, steps in 1u64..80) {
        let mut s = FairAsync::new(seed, 0.5, 8);
        let log = record(&mut s, n, steps);
        let report = audit_fairness(&log, n);
        prop_assert_eq!(report.instants, steps);
        for i in 0..n {
            let direct = log.iter().filter(|set| set.contains(i)).count() as u64;
            prop_assert_eq!(report.activations[i], direct);
        }
    }

    #[test]
    fn synchronous_is_the_full_set(n in 0usize..20, t in any::<u64>()) {
        let set = Synchronous.activations(t, n);
        prop_assert_eq!(set.len(), n);
    }

    #[test]
    fn round_robin_covers_everyone_each_cycle(n in 1usize..12, start in 0u64..100) {
        let mut s = RoundRobin;
        let mut seen = vec![false; n];
        for t in start..start + n as u64 {
            for i in s.activations(t, n).iter() {
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// `validate` is the constructors' contract: a spec it accepts for a
    /// cohort builds, arms its plan and runs there without panicking,
    /// and — away from the cohort-relative rules — one it rejects is one
    /// a constructor would panic on.
    #[test]
    fn validated_specs_build_and_run_without_panicking(
        schedule in any_schedule(),
        fault in any_fault(),
        n in 1usize..5,
        seed in any::<u64>(),
    ) {
        let plan = catch_unwind(|| fault.plan(seed));
        if fault.validate(n).is_ok() {
            prop_assert!(plan.is_ok(), "{fault:?} passed validate({n}) but panicked");
        }
        prop_assert_eq!(fault.validate(usize::MAX).is_ok(), plan.is_ok(), "{:?}", fault);
        let plan = plan.unwrap_or_else(|_| FaultPlan::new(seed));
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut built = schedule.build_faulted(n, &plan);
            for t in 0..32 {
                built.activations(t, n);
            }
        }));
        if schedule.validate(n).is_ok() && fault.validate(n).is_ok() {
            prop_assert!(run.is_ok(), "{schedule:?} under {fault:?} passed validate({n}) but panicked");
        }
        let built = catch_unwind(|| drop(schedule.build_faulted(usize::MAX, &FaultPlan::new(seed))));
        prop_assert_eq!(schedule.validate(usize::MAX).is_ok(), built.is_ok(), "{:?}", schedule);
    }
}
