//! One benchmark for every performance claim: four named workloads, the
//! end-to-end metrics a user sees, and a traced per-layer ledger.
//!
//! `benchmark --workload NAME --seed S --seconds N --trace 0` runs one
//! workload for about `N` seconds and prints a detail line (provenance,
//! counters, every metric with unit, sample count and per-repetition
//! min/median/max) followed by the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. `--trace 1`
//! runs the traced pass instead and prints the per-layer metrics. See
//! `README.md` for the workloads, the metric tables, and the map from
//! each layer metric to the end-to-end metric it should move.
//!
//! The crate depends only on the library crates; the program under test
//! receives nothing but the generated `BatchSpec`s.

// The benchmark is the measuring instrument: wall-clock reads are its
// job. What it measures stays deterministic, and every run checks that.
#![allow(clippy::disallowed_methods)]

pub mod cli;
pub mod metrics;
pub mod replica;
pub mod run;
pub mod traced;
pub mod workload;

#[cfg(test)]
mod tests {
    use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
    use crate::run::{run_workload, Options};
    use crate::workload::{Scale, Workload};

    /// The objects of one array of the repository root's `BENCHMARK.json`
    /// (flat objects, as that file holds), each as `key -> raw value`.
    fn benchmark_json(array: &str) -> Vec<Vec<(String, String)>> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = doc.find(&format!("\"{array}\"")).expect("array present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let obj = &obj[..obj.find('}').expect("object closes")];
                obj.split(",\n")
                    .map(|member| {
                        let (k, v) = member.split_once(':').expect("key: value");
                        let unquote = |s: &str| s.trim().trim_matches('"').to_string();
                        (unquote(k), unquote(v))
                    })
                    .collect()
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<Vec<(String, String)>> {
        defs.iter()
            .map(|d| {
                let mut members = vec![
                    ("name".to_string(), d.name.to_string()),
                    ("unit".to_string(), d.unit.to_string()),
                    ("better".to_string(), d.better.word().to_string()),
                ];
                if let Some(bound) = d.bound {
                    members.push(("bound".to_string(), bound.to_string()));
                }
                members
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_and_workloads_match_benchmark_json() {
        assert_eq!(table(END_TO_END), benchmark_json("end_to_end"));
        assert_eq!(table(PER_LAYER), benchmark_json("per_layer"));
        let names: Vec<String> = benchmark_json("workloads")
            .into_iter()
            .map(|w| w[0].1.clone())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }

    /// Runs `workload` at smoke size, end to end and traced, and checks
    /// both printed lines.
    fn smoke(workload: Workload) {
        for traced in [false, true] {
            let opts = Options {
                seed: 1,
                seconds: 0,
                traced,
                scale: Scale::Smoke,
            };
            let outcome = run_workload(workload, &opts).expect("smoke run");
            let name = workload.name();
            assert!(
                outcome.correct(),
                "{name} traced={traced}: {:?}",
                outcome.problems
            );
            assert!(outcome.attempted > 0, "{name}");
            assert_eq!(outcome.failed, 0, "{name}");
            let defs = if traced { PER_LAYER } else { END_TO_END };
            let result = outcome.result_line();
            assert!(result.starts_with("{\"correct\":true,\"attempted\":"));
            for d in defs {
                assert!(
                    result.contains(&format!("\"{}\":{{\"value\":", d.name)),
                    "{name}: {}",
                    d.name
                );
            }
            let detail = outcome.detail_line();
            assert!(detail.contains(&format!("\"workload\":\"{name}\"")));
            assert!(detail.contains("\"spec_fnv\":\""));
            if !traced {
                for d in END_TO_END {
                    let v = outcome
                        .ledger
                        .lookup(d.name)
                        .expect("every metric set")
                        .value;
                    assert!(v > 0.0, "{name}: {} = {v}", d.name);
                }
            }
        }
    }

    #[test]
    fn sweep_864_smoke() {
        smoke(Workload::Sweep864);
    }

    #[test]
    fn sweep_wide_smoke() {
        smoke(Workload::SweepWide);
    }

    #[test]
    fn algo_matrix_smoke() {
        smoke(Workload::AlgoMatrix);
    }

    #[test]
    fn gateway_jobs_smoke() {
        smoke(Workload::GatewayJobs);
    }
}
