//! Batch runs through the parallel fleet runtime.
//!
//! The experiment drivers in this crate historically ran every session
//! serially inline. This module dispatches the conformance batch —
//! protocols × schedules × fault plans × seeds — through
//! [`stigmergy_fleet::run_batch`] and checks the fleet's headline
//! guarantee on the way: identical per-seed reports and identical merged
//! metrics regardless of worker count. The wall-clock cost of the same
//! sessions is measured by `crates/benchmark` (see `BENCHMARK.json`).

use stigmergy_fleet::{run_batch, BatchReport, BatchSpec};

use crate::table::Table;

/// Per-protocol summary of a batch report.
#[must_use]
pub fn batch_table(report: &BatchReport) -> Table {
    let mut t = Table::new(
        "fleet batch: per-protocol summary",
        [
            "protocol",
            "sessions",
            "delivered",
            "mean steps to deliver",
            "activations",
            "faults",
            "retransmissions",
            "errors",
        ],
    );
    let mut protocols: Vec<&str> = report.runs.iter().map(|r| r.protocol).collect();
    protocols.dedup();
    for protocol in protocols {
        let runs: Vec<_> = report.for_protocol(protocol).collect();
        let delivered = runs.iter().filter(|r| r.delivered).count();
        let deliveries: Vec<u64> = runs.iter().filter_map(|r| r.steps_to_delivery).collect();
        let mean = if deliveries.is_empty() {
            "-".to_string()
        } else {
            format!(
                "{:.1}",
                deliveries.iter().sum::<u64>() as f64 / deliveries.len() as f64
            )
        };
        t.row([
            protocol.to_string(),
            runs.len().to_string(),
            delivered.to_string(),
            mean,
            runs.iter().map(|r| r.activations).sum::<u64>().to_string(),
            runs.iter().map(|r| r.faults).sum::<u64>().to_string(),
            runs.iter()
                .map(|r| r.retransmissions)
                .sum::<u64>()
                .to_string(),
            runs.iter()
                .filter(|r| r.error.is_some())
                .count()
                .to_string(),
        ]);
    }
    t
}

/// E16: the fleet runtime itself as an artefact — the conformance matrix
/// dispatched through the worker pool at `workers = 1` and `workers = 4`,
/// with the determinism guarantee checked inline. Budgets are capped so
/// the default `run all` path stays fast. The tables are fully
/// deterministic (no timings) so the recorded output stays diffable
/// across runs like every other artefact.
#[must_use]
pub fn e16() -> Vec<Table> {
    let spec = BatchSpec {
        budget_cap: Some(2_000),
        ..BatchSpec::conformance_matrix(vec![0, 1])
    };
    let serial = run_batch(&spec, 1);
    let parallel = run_batch(&spec, 4);
    let identical_runs = serial.runs == parallel.runs;
    let identical_metrics = serial.metrics == parallel.metrics;
    assert!(identical_runs, "fleet determinism violated: runs");
    assert!(identical_metrics, "fleet determinism violated: metrics");
    let mut check = Table::new(
        "fleet determinism: workers=1 vs workers=4",
        ["quantity", "value"],
    );
    check.row(["sessions", &parallel.runs.len().to_string()]);
    check.row(["identical per-session reports", &identical_runs.to_string()]);
    check.row(["identical merged metrics", &identical_metrics.to_string()]);
    vec![batch_table(&parallel), check]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_table_covers_every_protocol_once() {
        let spec = BatchSpec {
            budget_cap: Some(300),
            ..BatchSpec::conformance_matrix(vec![0])
        };
        let report = run_batch(&spec, 2);
        let t = batch_table(&report);
        assert_eq!(t.len(), 6, "one row per conformance protocol");
    }
}
