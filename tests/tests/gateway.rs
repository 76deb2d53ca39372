//! Loopback integration tests for the gateway: the serving layer's
//! contract, end to end over real TCP sockets.
//!
//! What these tests pin down:
//!
//! * **determinism through the wire** — a job served by the gateway at
//!   `workers = 1` and `workers = N` returns the same fingerprints and
//!   the same metrics JSON as a direct `run_batch` of the same spec;
//! * **admission control** — the queue bound is enforced with a typed
//!   `QueueFull` rejection, never unbounded buffering;
//! * **cancellation and deadlines** — queued jobs can be removed, and
//!   an expired deadline fails the job with the typed reason;
//! * **graceful shutdown** — a drain completes every accepted job while
//!   rejecting new ones, and the idle metrics partition
//!   (`accepted == completed + cancelled + deadline_expired`) holds;
//! * **concurrency** — several clients with overlapping sweeps each get
//!   their own correct, deterministic answer;
//! * **latency** — a warmed submit round trip carries no timer stall,
//!   and a gateway bound to an unspecified address still shuts down.

use stigmergy_fleet::{run_batch, BatchSpec};
use stigmergy_gateway::{
    CancelState, Client, FailReason, Gateway, GatewayConfig, GatewayError, JobRequest, RejectReason,
};

fn capped_spec(seeds: Vec<u64>) -> BatchSpec {
    BatchSpec {
        budget_cap: Some(1_000),
        ..BatchSpec::conformance_matrix(seeds)
    }
}

fn request(seeds: Vec<u64>, workers: u64) -> JobRequest {
    JobRequest {
        spec: capped_spec(seeds),
        workers,
        deadline_ms: 0,
    }
}

fn loopback(config: GatewayConfig) -> (Gateway, std::net::SocketAddr) {
    let gateway = Gateway::bind(("127.0.0.1", 0), config).expect("loopback bind");
    let addr = gateway.local_addr();
    (gateway, addr)
}

#[test]
fn served_job_matches_direct_run_batch_at_any_worker_count() {
    let spec = capped_spec(vec![0, 1]);
    let direct = run_batch(&spec, 1);
    let fingerprints: Vec<u64> = direct.runs.iter().map(|r| r.trace_hash).collect();
    let metrics_json = direct.metrics.to_json();

    let (gateway, addr) = loopback(GatewayConfig::default());
    for workers in [1u64, 4] {
        let mut client = Client::connect(addr).expect("connect");
        let mut progress = Vec::new();
        let result = client
            .submit_and_wait(
                &JobRequest {
                    spec: spec.clone(),
                    workers,
                    deadline_ms: 0,
                },
                |completed, total| progress.push((completed, total)),
            )
            .expect("job completes");
        assert_eq!(result.fingerprints, fingerprints, "workers={workers}");
        assert_eq!(result.metrics_json, metrics_json, "workers={workers}");
        // One progress frame per finished session, monotone, ending full.
        let total = direct.runs.len() as u64;
        assert_eq!(progress.len() as u64, total, "workers={workers}");
        assert!(progress.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(progress.last(), Some(&(total, total)));
    }
    gateway.shutdown_and_join();
}

#[test]
fn served_algorithm_jobs_replay_the_direct_run_exactly() {
    // The algorithm matrix end to end over the wire: the gateway's
    // answer for a distributed-algorithm sweep must carry the same
    // trace fingerprints and byte-identical metrics JSON (algorithm
    // counters included) as an in-process `run_batch`, at any worker
    // count. This closes the loop the v2 wire bump opened: an
    // `AlgorithmSpec` survives encode → admission → pool dispatch →
    // result framing unchanged.
    let spec = BatchSpec::algorithm_matrix(vec![0]);
    let direct = run_batch(&spec, 1);
    let fingerprints: Vec<u64> = direct.runs.iter().map(|r| r.trace_hash).collect();
    assert!(
        direct.metrics.algo_decided == direct.metrics.sessions,
        "reference sweep must decide everywhere"
    );

    let (gateway, addr) = loopback(GatewayConfig::default());
    for workers in [1u64, 4] {
        let mut client = Client::connect(addr).expect("connect");
        let result = client
            .submit_and_wait(
                &JobRequest {
                    spec: spec.clone(),
                    workers,
                    deadline_ms: 0,
                },
                |_, _| {},
            )
            .expect("algorithm job completes");
        assert_eq!(result.fingerprints, fingerprints, "workers={workers}");
        assert_eq!(
            result.metrics_json,
            direct.metrics.to_json(),
            "workers={workers}"
        );
    }
    gateway.shutdown_and_join();
}

#[test]
// Bare threads on purpose: the clients must be truly concurrent peers,
// not pool workers sharing the server's own scheduling.
#[allow(clippy::disallowed_methods)]
fn concurrent_clients_each_get_their_own_deterministic_answer() {
    let (gateway, addr) = loopback(GatewayConfig {
        capacity: 16,
        max_workers: 8,
    });
    // Overlapping sweeps: distinct seed sets, so any cross-wiring of
    // results between clients would be visible immediately.
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                let seeds = vec![i, i + 10];
                let expected = run_batch(&capped_spec(seeds.clone()), 1);
                let mut client = Client::connect(addr).expect("connect");
                let result = client
                    .submit_and_wait(&request(seeds, 1 + i % 3), |_, _| {})
                    .expect("job completes");
                let fingerprints: Vec<u64> = expected.runs.iter().map(|r| r.trace_hash).collect();
                assert_eq!(result.fingerprints, fingerprints, "client {i}");
                assert_eq!(
                    result.metrics_json,
                    expected.metrics.to_json(),
                    "client {i}"
                );
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    let snapshot = gateway.metrics();
    assert_eq!(snapshot.accepted, 4);
    assert_eq!(snapshot.completed, 4);
    gateway.shutdown_and_join();
}

#[test]
fn full_queue_rejects_with_typed_reason_and_drains_after_resume() {
    let (gateway, addr) = loopback(GatewayConfig {
        capacity: 2,
        max_workers: 8,
    });
    gateway.pause(); // runner held: admission outcomes are deterministic
    let mut client = Client::connect(addr).expect("connect");
    let first = client.submit(&request(vec![0], 2)).expect("fits");
    let second = client.submit(&request(vec![1], 2)).expect("fits");
    assert_eq!(second.queued_ahead, 1);
    match client.submit(&request(vec![2], 2)) {
        Err(GatewayError::Rejected(RejectReason::QueueFull { capacity })) => {
            assert_eq!(capacity, 2);
        }
        other => panic!("expected typed queue-full rejection, got {other:?}"),
    }
    gateway.resume();
    client.wait(first.job, |_, _| {}).expect("first completes");
    client
        .wait(second.job, |_, _| {})
        .expect("second completes");
    // Capacity freed: admission opens again.
    let third = client.submit(&request(vec![2], 2)).expect("fits again");
    client.wait(third.job, |_, _| {}).expect("third completes");
    let snapshot = gateway.metrics();
    assert_eq!(snapshot.rejected_full, 1);
    assert_eq!(snapshot.accepted, 3);
    gateway.shutdown_and_join();
}

#[test]
fn invalid_specs_are_rejected_at_admission() {
    let (gateway, addr) = loopback(GatewayConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let mut degenerate = request(vec![0], 2);
    degenerate.workers = 0;
    match client.submit(&degenerate) {
        Err(GatewayError::Rejected(RejectReason::InvalidSpec { detail })) => {
            assert!(detail.contains("workers"), "{detail:?}");
        }
        other => panic!("expected invalid-spec rejection, got {other:?}"),
    }
    let mut hostile = request(vec![0], 2);
    hostile.spec.schedules = vec![stigmergy_scheduler::ScheduleSpec::Scripted {
        script: vec![vec![0], vec![]],
    }];
    assert!(matches!(
        client.submit(&hostile),
        Err(GatewayError::Rejected(RejectReason::InvalidSpec { .. }))
    ));
    assert_eq!(gateway.metrics().rejected_invalid, 2);
    gateway.shutdown_and_join();
}

#[test]
fn queued_jobs_can_be_cancelled_from_another_connection() {
    let (gateway, addr) = loopback(GatewayConfig {
        capacity: 4,
        max_workers: 8,
    });
    gateway.pause();
    let mut submitter = Client::connect(addr).expect("connect");
    let running = submitter.submit(&request(vec![0], 2)).expect("fits");
    let parked = submitter.submit(&request(vec![1], 2)).expect("fits");

    // Any connection may cancel any job — the id is the handle.
    let mut canceller = Client::connect(addr).expect("connect");
    assert_eq!(
        canceller.cancel(parked.job).expect("cancel"),
        CancelState::Dequeued
    );
    assert_eq!(canceller.cancel(999).expect("cancel"), CancelState::Unknown);
    match submitter.wait(parked.job, |_, _| {}) {
        Err(GatewayError::JobFailed(FailReason::Cancelled)) => {}
        other => panic!("expected cancelled, got {other:?}"),
    }
    gateway.resume();
    submitter.wait(running.job, |_, _| {}).expect("completes");
    assert_eq!(
        canceller.cancel(running.job).expect("cancel"),
        CancelState::Finished
    );
    let snapshot = gateway.metrics();
    assert_eq!(snapshot.cancelled, 1);
    assert_eq!(snapshot.completed, 1);
    gateway.shutdown_and_join();
}

#[test]
fn cancelling_a_running_job_stops_it_at_a_session_boundary() {
    let (gateway, addr) = loopback(GatewayConfig::default());
    gateway.pause();
    let mut submitter = Client::connect(addr).expect("connect");
    // Enough sessions that the job cannot finish instantly once resumed.
    let ticket = submitter
        .submit(&request((0..8).collect(), 1))
        .expect("fits");
    let mut canceller = Client::connect(addr).expect("connect");
    gateway.resume();
    let state = canceller.cancel(ticket.job).expect("cancel");
    // The race between the runner picking the job up and the cancel
    // arriving is real; both outcomes must resolve to a cancelled job.
    assert!(
        matches!(state, CancelState::Dequeued | CancelState::Signalled),
        "unexpected {state:?}"
    );
    match submitter.wait(ticket.job, |_, _| {}) {
        Err(GatewayError::JobFailed(FailReason::Cancelled)) => {}
        other => panic!("expected cancelled, got {other:?}"),
    }
    gateway.shutdown_and_join();
}

#[test]
fn expired_deadlines_fail_with_the_typed_reason() {
    let (gateway, addr) = loopback(GatewayConfig::default());
    gateway.pause(); // held in the queue past its deadline
    let mut client = Client::connect(addr).expect("connect");
    let mut req = request(vec![0], 2);
    req.deadline_ms = 20;
    let ticket = client.submit(&req).expect("fits");
    match client.wait(ticket.job, |_, _| {}) {
        Err(GatewayError::JobFailed(FailReason::DeadlineExceeded)) => {}
        other => panic!("expected deadline expiry, got {other:?}"),
    }
    gateway.resume();
    assert_eq!(gateway.metrics().deadline_expired, 1);
    gateway.shutdown_and_join();
}

#[test]
fn graceful_shutdown_drains_accepted_jobs_and_rejects_new_ones() {
    let (gateway, addr) = loopback(GatewayConfig {
        capacity: 8,
        max_workers: 8,
    });
    gateway.pause();
    let mut client = Client::connect(addr).expect("connect");
    let tickets: Vec<_> = (0..3u64)
        .map(|i| client.submit(&request(vec![i], 2)).expect("fits"))
        .collect();
    client.shutdown().expect("shutdown acknowledged");
    match client.submit(&request(vec![9], 2)) {
        Err(GatewayError::Rejected(RejectReason::ShuttingDown)) => {}
        other => panic!("expected shutting-down rejection, got {other:?}"),
    }
    // Shutdown overrides pause: every accepted job still completes, and
    // each can still be observed to its Done frame.
    for (i, ticket) in tickets.iter().enumerate() {
        let expected = run_batch(&capped_spec(vec![i as u64]), 1);
        let result = client.wait(ticket.job, |_, _| {}).expect("drained job");
        assert_eq!(
            result.metrics_json,
            expected.metrics.to_json(),
            "job {i} deterministic through the drain"
        );
    }
    let snapshot = gateway.metrics();
    assert_eq!(snapshot.accepted, 3);
    assert_eq!(
        snapshot.completed + snapshot.cancelled + snapshot.deadline_expired,
        snapshot.accepted,
        "idle metrics must partition accepted jobs"
    );
    assert_eq!(snapshot.rejected_shutdown, 1);
    gateway.shutdown_and_join();
    assert!(gateway_finished_after_join());
}

/// `shutdown_and_join` consumed the gateway; the drain having returned
/// *is* the evidence it finished. Kept as a named helper so the final
/// assert reads as the claim it makes.
fn gateway_finished_after_join() -> bool {
    true
}

#[test]
fn version_mismatch_is_refused_at_handshake() {
    use stigmergy_gateway::{Message, WIRE_VERSION};
    let (gateway, addr) = loopback(GatewayConfig::default());
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stigmergy_gateway::wire::write_frame(&mut stream, &Message::Hello { version: 999 })
        .expect("write");
    match stigmergy_gateway::wire::read_frame(&mut stream) {
        Ok(Message::HelloOk { version }) => assert_eq!(version, WIRE_VERSION),
        other => panic!("expected HelloOk advertising the real version, got {other:?}"),
    }
    // The server then closes: the next read hits EOF.
    assert!(matches!(
        stigmergy_gateway::wire::read_frame(&mut stream),
        Err(GatewayError::Io(_))
    ));
    gateway.shutdown_and_join();
}

#[test]
// A bare thread on purpose: a hung drain must fail this test, not hang it.
#[allow(clippy::disallowed_methods)]
fn gateway_bound_to_the_unspecified_address_still_shuts_down() {
    // Shutdown wakes the blocking accept with a loopback connect; a
    // gateway bound to 0.0.0.0 must map that connect to 127.0.0.1.
    let gateway = Gateway::bind(("0.0.0.0", 0), GatewayConfig::default()).expect("bind");
    let port = gateway.local_addr().port();
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    client.stats().expect("serves before shutdown");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        gateway.shutdown_and_join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown_and_join returns");
}

#[test]
// Wall-clock on purpose: the claim under test is a latency bound.
#[allow(clippy::disallowed_methods)]
fn warmed_submit_round_trip_has_no_timer_stall() {
    // A timer on the response path (Nagle holding a frame for the
    // client's ~40 ms delayed ACK) costs every round trip at least 40 ms.
    // Scheduling noise only adds time, so the fastest of ten round trips
    // is a stable witness.
    let (gateway, addr) = loopback(GatewayConfig::default());
    gateway.pause(); // jobs never run: each is cancelled out of the queue
    let mut client = Client::connect(addr).expect("connect");
    let mut round_trip = || {
        let start = std::time::Instant::now();
        let ticket = client.submit(&request(vec![0], 1)).expect("fits");
        let elapsed = start.elapsed();
        assert_eq!(
            client.cancel(ticket.job).expect("cancel"),
            CancelState::Dequeued
        );
        assert!(matches!(
            client.wait(ticket.job, |_, _| {}),
            Err(GatewayError::JobFailed(FailReason::Cancelled))
        ));
        elapsed
    };
    round_trip(); // warm-up
    let fastest = (0..10).map(|_| round_trip()).min().expect("ten samples");
    assert!(
        fastest < std::time::Duration::from_millis(20),
        "fastest submit -> Accepted round trip took {fastest:?}"
    );
    gateway.shutdown_and_join();
}
