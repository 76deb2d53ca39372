//! Serving-layer experiments: the gateway on a loopback socket.
//!
//! [`e17`] is a *deterministic* artefact: every printed number is a pure
//! function of the spec, so the recorded output diffs cleanly. The
//! gateway's wall-clock cost is measured by the `gateway-jobs` workload
//! of `crates/benchmark` (see `BENCHMARK.json`).

use stigmergy_fleet::{run_batch, BatchSpec};
use stigmergy_gateway::{Client, Gateway, GatewayConfig, GatewayError, JobRequest, RejectReason};

use crate::table::Table;

/// The capped conformance spec [`e17`] serves.
#[must_use]
fn gateway_spec(seeds: Vec<u64>) -> BatchSpec {
    BatchSpec {
        budget_cap: Some(2_000),
        ..BatchSpec::conformance_matrix(seeds)
    }
}

/// Runs `spec` through a loopback gateway at the given worker count,
/// returning the result and the number of progress frames observed.
///
/// # Errors
///
/// Propagates any client-side [`GatewayError`].
fn run_via_gateway(
    spec: &BatchSpec,
    workers: u64,
) -> Result<(stigmergy_gateway::JobResult, u64), GatewayError> {
    let gateway =
        Gateway::bind(("127.0.0.1", 0), GatewayConfig::default()).map_err(GatewayError::Io)?;
    let mut client = Client::connect(gateway.local_addr())?;
    let mut events = 0u64;
    let result = client.submit_and_wait(
        &JobRequest {
            spec: spec.clone(),
            workers,
            deadline_ms: 0,
        },
        |_completed, _total| events += 1,
    )?;
    gateway.shutdown_and_join();
    Ok((result, events))
}

/// E17: the serving layer as an artefact. A loopback gateway serves the
/// capped conformance matrix at `workers = 1` and `workers = 4`; both
/// answers must be byte-identical to a direct [`run_batch`] — the fleet
/// determinism guarantee surviving the wire. A second table exercises
/// admission control deterministically: with the runner paused and
/// capacity 2, the third submission must be the typed queue-full
/// rejection, and the drain must complete every accepted job.
///
/// # Panics
///
/// Panics if the gateway breaks determinism or admission control —
/// that is the claim this artefact checks.
#[must_use]
pub fn e17() -> Vec<Table> {
    let spec = gateway_spec(vec![0, 1]);
    let direct = run_batch(&spec, 1);
    let direct_fingerprints: Vec<u64> = direct.runs.iter().map(|r| r.trace_hash).collect();
    let direct_metrics = direct.metrics.to_json();

    let mut determinism = Table::new(
        "gateway determinism: loopback serve vs direct run_batch",
        ["quantity", "value"],
    );
    determinism.row(["sessions", &direct.runs.len().to_string()]);
    for workers in [1u64, 4] {
        let (served, events) =
            run_via_gateway(&spec, workers).expect("loopback serve must succeed");
        assert_eq!(
            served.fingerprints, direct_fingerprints,
            "gateway changed trace fingerprints at workers={workers}"
        );
        assert_eq!(
            served.metrics_json, direct_metrics,
            "gateway changed merged metrics at workers={workers}"
        );
        determinism.row([
            &format!("identical fingerprints, workers={workers}"),
            &(served.fingerprints == direct_fingerprints).to_string(),
        ]);
        determinism.row([
            &format!("identical metrics JSON, workers={workers}"),
            &(served.metrics_json == direct_metrics).to_string(),
        ]);
        determinism.row([
            &format!("progress events == sessions, workers={workers}"),
            &(events == direct.runs.len() as u64).to_string(),
        ]);
    }

    vec![determinism, admission_table()]
}

/// The deterministic admission-control exercise behind [`e17`]'s second
/// table: capacity 2, runner paused, so outcomes are scheduling-free.
fn admission_table() -> Table {
    let spec = gateway_spec(vec![0]);
    let gateway = Gateway::bind(
        ("127.0.0.1", 0),
        GatewayConfig {
            capacity: 2,
            max_workers: 8,
        },
    )
    .expect("loopback bind");
    gateway.pause();
    let mut client = Client::connect(gateway.local_addr()).expect("loopback connect");
    let request = JobRequest {
        spec,
        workers: 2,
        deadline_ms: 0,
    };
    let first = client.submit(&request).expect("first fits");
    let second = client.submit(&request).expect("second fits");
    let rejection = match client.submit(&request) {
        Err(GatewayError::Rejected(RejectReason::QueueFull { capacity })) => {
            format!("queue full (capacity {capacity})")
        }
        other => panic!("third submission should be queue-full, got {other:?}"),
    };
    let cancel_state = client.cancel(second.job).expect("cancel queued job");
    gateway.resume();
    let completed = client.wait(first.job, |_, _| {}).expect("first completes");
    let snapshot = gateway.metrics();
    gateway.shutdown_and_join();

    let mut t = Table::new(
        "gateway admission: capacity 2, runner paused",
        ["quantity", "value"],
    );
    t.row(["submission 1", "accepted"]);
    t.row([
        "submission 2",
        &format!("accepted, queued_ahead={}", second.queued_ahead),
    ]);
    t.row(["submission 3 (typed rejection)", &rejection]);
    t.row(["cancel of queued job 2", &format!("{cancel_state:?}")]);
    t.row([
        "job 1 completed after resume",
        &(completed.job == first.job).to_string(),
    ]);
    t.row([
        "accepted == completed + cancelled + expired",
        &(snapshot.accepted == snapshot.completed + snapshot.cancelled + snapshot.deadline_expired)
            .to_string(),
    ]);
    t.row(["rejected_full", &snapshot.rejected_full.to_string()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_tables_are_deterministic() {
        let a = e17();
        let b = e17();
        assert_eq!(a.len(), 2);
        let render = |tables: &[Table]| {
            tables
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&a), render(&b));
    }
}
