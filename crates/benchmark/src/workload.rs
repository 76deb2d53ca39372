//! The four named workloads: which `BatchSpec`s one repetition submits,
//! at which size, and how `--seed` moves them.
//!
//! Every workload is a list of jobs, and a job is one `BatchSpec`. The
//! three sweeps submit one job per repetition straight to `run_batch`;
//! `gateway-jobs` submits hundreds of small jobs through a loopback
//! gateway. The program under test only ever sees these specs.

use stigmergy_fleet::{BatchSpec, SessionSpec};
use stigmergy_scheduler::rng::SplitMix64;

/// Fleet worker threads, fixed by the workload rather than sized from
/// the machine (`nproc` is recorded with every result, never used).
pub const WORKERS: usize = 2;

/// Step-budget ceiling of the short-session workloads, and of
/// `sweep-864` at smoke size.
const SHORT_BUDGET: u64 = 2_000;

/// Step-budget ceiling of the warm-up session or job in set-up.
const WARM_UP_BUDGET: u64 = 200;

/// Input size: tiny for unit tests, sized to `--seconds` for timed runs,
/// or the historical full size whose counts the committed `BENCH_*.json`
/// rows record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few sessions per workload, for the unit tests.
    Smoke,
    /// Repetitions of a few seconds each.
    Timed,
    /// One repetition at the historical size.
    Full,
}

impl Scale {
    /// Name for the provenance line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Timed => "timed",
            Scale::Full => "full",
        }
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 864-session conformance matrix at full budgets: long
    /// sessions, engine steady state and the asynchronous protocols.
    Sweep864,
    /// The same matrix over many seeds at a 2,000-step cap: short
    /// sessions, so per-session set-up and pool dispatch show.
    SweepWide,
    /// The distributed-algorithm matrix over the async-swarm transport.
    AlgoMatrix,
    /// Small conformance jobs served by a loopback gateway to two
    /// closed-loop clients.
    GatewayJobs,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Sweep864,
        Workload::SweepWide,
        Workload::AlgoMatrix,
        Workload::GatewayJobs,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep864 => "sweep-864",
            Workload::SweepWide => "sweep-wide",
            Workload::AlgoMatrix => "algo-matrix",
            Workload::GatewayJobs => "gateway-jobs",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether jobs go through the gateway; the sweeps call `run_batch`.
    #[must_use]
    pub fn served(self) -> bool {
        self == Workload::GatewayJobs
    }

    /// Seeds per sweep range, or jobs per repetition for `gateway-jobs`.
    fn range_len(self, scale: Scale) -> u64 {
        match (self, scale) {
            (Workload::Sweep864, Scale::Smoke) => 1,
            (Workload::Sweep864, _) => 16,
            (Workload::SweepWide, Scale::Smoke) => 1,
            (Workload::SweepWide, Scale::Timed) => 150,
            (Workload::SweepWide, Scale::Full) => 1_852,
            (Workload::AlgoMatrix, Scale::Smoke) => 1,
            (Workload::AlgoMatrix, Scale::Timed) => 240,
            (Workload::AlgoMatrix, Scale::Full) => 1_920,
            (Workload::GatewayJobs, Scale::Smoke) => 2,
            (Workload::GatewayJobs, Scale::Timed) => 250,
            (Workload::GatewayJobs, Scale::Full) => 500,
        }
    }

    /// The jobs one repetition submits, generated from `seed` alone.
    ///
    /// `sweep-wide`, `algo-matrix` and `gateway-jobs` move their seed
    /// range by `seed` range-lengths (wrapping at `u64::MAX`), so seed 0 is
    /// the historical range. `sweep-864` *is* one fixed historical set —
    /// its long sessions make the work of other 16-seed ranges differ by
    /// up to a quarter — so there `seed` permutes the order of the
    /// matrix's protocols, schedules, plans and seeds instead: the same 864
    /// sessions reach the pool in another order.
    #[must_use]
    pub fn jobs(self, seed: u64, scale: Scale) -> Vec<BatchSpec> {
        let len = self.range_len(scale);
        let smoke = scale == Scale::Smoke;
        let budget_cap = Some(SHORT_BUDGET);
        let base = seed.wrapping_mul(len);
        let seeds = (0..len).map(move |i| base.wrapping_add(i));
        match self {
            Workload::Sweep864 => {
                let mut spec = BatchSpec::conformance_matrix((0..len).collect());
                if smoke {
                    spec.budget_cap = budget_cap;
                }
                if seed != 0 {
                    let mut rng = SplitMix64::new(seed);
                    shuffle(&mut spec.protocols, &mut rng);
                    shuffle(&mut spec.schedules, &mut rng);
                    shuffle(&mut spec.plans, &mut rng);
                    shuffle(&mut spec.seeds, &mut rng);
                }
                vec![spec]
            }
            Workload::SweepWide => vec![BatchSpec {
                budget_cap,
                ..BatchSpec::conformance_matrix(seeds.collect())
            }],
            Workload::AlgoMatrix => vec![BatchSpec {
                // Algorithm sessions stop at their decision; the cap only
                // bounds a smoke run in a debug build.
                budget_cap: smoke.then_some(20_000),
                ..BatchSpec::algorithm_matrix(seeds.collect())
            }],
            Workload::GatewayJobs => seeds
                .map(|s| BatchSpec {
                    budget_cap,
                    ..BatchSpec::conformance_matrix(vec![s])
                })
                .collect(),
        }
    }
}

/// A small job shaped like `job` — its first seed at a tiny budget — run
/// once in set-up so lazy initialisation is not timed.
#[must_use]
pub(crate) fn warm_up(job: &BatchSpec) -> BatchSpec {
    BatchSpec {
        seeds: job.seeds.iter().take(1).copied().collect(),
        budget_cap: Some(WARM_UP_BUDGET),
        ..job.clone()
    }
}

/// Every session of `jobs`, in submission order.
#[must_use]
pub(crate) fn expand(jobs: &[BatchSpec]) -> Vec<SessionSpec> {
    jobs.iter().flat_map(BatchSpec::sessions).collect()
}

/// FNV-1a 64 over the `Debug` rendering of every session: a fingerprint
/// of exactly what the program was asked to run.
#[must_use]
pub(crate) fn spec_fnv(sessions: &[SessionSpec]) -> u64 {
    sessions.iter().fold(stigmergy_fleet::fnv1a64(&[]), |h, s| {
        stigmergy_fleet::fnv1a64_update(h, format!("{s:?}").as_bytes())
    })
}

/// Fisher–Yates with the workspace's own seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("sweep"), None);
    }

    #[test]
    fn seed_zero_is_the_historical_input() {
        let jobs = Workload::Sweep864.jobs(0, Scale::Timed);
        assert_eq!(jobs, vec![BatchSpec::conformance_matrix((0..16).collect())]);
        assert_eq!(expand(&jobs).len(), 864);
        let wide = Workload::SweepWide.jobs(0, Scale::Full);
        assert_eq!(wide[0].seeds, (0..1_852).collect::<Vec<_>>());
        assert_eq!(wide[0].budget_cap, Some(2_000));
        assert_eq!(expand(&wide).len(), 100_008);
        let algo = Workload::AlgoMatrix.jobs(0, Scale::Full);
        assert_eq!(expand(&algo).len(), 23_040);
        let served = Workload::GatewayJobs.jobs(0, Scale::Full);
        assert_eq!(served.len(), 500);
        assert_eq!(served[7].seeds, vec![7]);
        assert_eq!(served[7].sessions().len(), 54);
    }

    #[test]
    fn seeds_move_ranges_and_permute_the_fixed_sweep() {
        let wide = Workload::SweepWide.jobs(3, Scale::Timed);
        assert_eq!(wide[0].seeds.first(), Some(&450));
        assert_eq!(wide[0].seeds.len(), 150);
        let served = Workload::GatewayJobs.jobs(2, Scale::Timed);
        assert_eq!(served[0].seeds, vec![500]);

        let permuted = Workload::Sweep864.jobs(5, Scale::Timed);
        let canonical = Workload::Sweep864.jobs(0, Scale::Timed);
        assert_ne!(permuted, canonical);
        let sorted = |specs: &[BatchSpec]| {
            let mut keys: Vec<String> = expand(specs).iter().map(|s| format!("{s:?}")).collect();
            keys.sort();
            keys
        };
        assert_eq!(sorted(&permuted), sorted(&canonical), "same sessions");
        assert_eq!(permuted, Workload::Sweep864.jobs(5, Scale::Timed));
    }

    #[test]
    fn huge_seeds_wrap() {
        let wide = Workload::SweepWide.jobs(u64::MAX, Scale::Timed);
        assert_eq!(wide[0].seeds[0], 0u64.wrapping_sub(150));
        assert_eq!(wide[0].seeds[149], u64::MAX);
        assert_eq!(
            Workload::GatewayJobs.jobs(u64::MAX, Scale::Timed)[250 - 1].seeds,
            vec![u64::MAX]
        );
    }

    #[test]
    fn warm_up_is_one_seed_at_a_tiny_budget() {
        let job = &Workload::SweepWide.jobs(1, Scale::Timed)[0];
        let warm = warm_up(job);
        assert_eq!(warm.seeds, vec![150]);
        assert_eq!(warm.budget_cap, Some(WARM_UP_BUDGET));
        assert_eq!(warm.protocols, job.protocols);
    }

    #[test]
    fn spec_fnv_tracks_the_session_list() {
        let a = expand(&Workload::Sweep864.jobs(0, Scale::Smoke));
        let b = expand(&Workload::Sweep864.jobs(1, Scale::Smoke));
        assert_eq!(spec_fnv(&a), spec_fnv(&a.clone()));
        assert_ne!(spec_fnv(&a), spec_fnv(&b));
    }
}
