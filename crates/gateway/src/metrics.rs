//! Serving metrics: admission counters plus queue-wait and end-to-end
//! latency histograms, built on the fleet's lock-free metrics machinery.
//!
//! The counters partition every submission (accepted vs the three typed
//! rejections) and every accepted job (completed, cancelled, expired),
//! so `accepted == completed + cancelled + deadline_expired` once the
//! gateway is idle — the invariant the loopback tests assert after a
//! drain. Latency histograms share [`Histogram`] with the fleet, and the
//! JSON rendering reuses the same stable-key-order discipline, so a
//! snapshot diffs like every other artefact. `crates/benchmark` reads
//! these histograms for its per-layer gateway metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use stigmergy_fleet::{Histogram, HistogramSnapshot};

/// Bucket bounds (milliseconds) for the serving-latency histograms:
/// roughly ×4 per bucket from a sub-millisecond hop to long sweeps.
pub const LATENCY_MS_BOUNDS: [u64; 8] = [1, 4, 16, 64, 256, 1_024, 4_096, 16_384];

/// Shared metrics sink for one gateway process.
#[derive(Debug)]
pub struct GatewayMetrics {
    accepted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    rejected_invalid: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    deadline_expired: AtomicU64,
    queue_wait_ms: Histogram,
    e2e_ms: Histogram,
}

impl Default for GatewayMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl GatewayMetrics {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self {
            accepted: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            queue_wait_ms: Histogram::new(&LATENCY_MS_BOUNDS),
            e2e_ms: Histogram::new(&LATENCY_MS_BOUNDS),
        }
    }

    /// Records an admission.
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a queue-full rejection.
    pub fn record_rejected_full(&self) {
        self.rejected_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rejected-because-draining submission.
    pub fn record_rejected_shutdown(&self) {
        self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a validation rejection.
    pub fn record_rejected_invalid(&self) {
        self.rejected_invalid.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job starting to run after `queue_wait_ms` in the queue.
    pub fn record_started(&self, queue_wait_ms: u64) {
        self.queue_wait_ms.record(queue_wait_ms);
    }

    /// Records a job finishing successfully, `e2e_ms` after acceptance.
    pub fn record_completed(&self, e2e_ms: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.e2e_ms.record(e2e_ms);
    }

    /// Records a job ending by cancellation.
    pub fn record_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job ending by deadline expiry.
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-data copy of the current totals.
    #[must_use]
    pub fn snapshot(&self) -> GatewayMetricsSnapshot {
        GatewayMetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            queue_wait_ms: self.queue_wait_ms.snapshot(),
            e2e_ms: self.e2e_ms.snapshot(),
        }
    }
}

/// Plain-data image of a [`GatewayMetrics`] sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayMetricsSnapshot {
    /// Jobs admitted.
    pub accepted: u64,
    /// Submissions rejected because the queue was at capacity.
    pub rejected_full: u64,
    /// Submissions rejected because the gateway was draining.
    pub rejected_shutdown: u64,
    /// Submissions rejected by validation.
    pub rejected_invalid: u64,
    /// Accepted jobs that completed.
    pub completed: u64,
    /// Accepted jobs cancelled by a client.
    pub cancelled: u64,
    /// Accepted jobs that hit their deadline.
    pub deadline_expired: u64,
    /// Milliseconds each started job spent queued.
    pub queue_wait_ms: HistogramSnapshot,
    /// Milliseconds from acceptance to completion, per completed job.
    pub e2e_ms: HistogramSnapshot,
}

impl GatewayMetricsSnapshot {
    /// Serializes with a stable key order (byte-equal for equal
    /// snapshots, like `MetricsSnapshot::to_json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"accepted\":{},\"rejected_full\":{},",
                "\"rejected_shutdown\":{},\"rejected_invalid\":{},",
                "\"completed\":{},\"cancelled\":{},\"deadline_expired\":{},",
                "\"queue_wait_ms\":{},\"e2e_ms\":{}}}"
            ),
            self.accepted,
            self.rejected_full,
            self.rejected_shutdown,
            self.rejected_invalid,
            self.completed,
            self.cancelled,
            self.deadline_expired,
            self.queue_wait_ms.to_json(),
            self.e2e_ms.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_jobs_partition_once_idle() {
        let m = GatewayMetrics::new();
        for _ in 0..5 {
            m.record_accepted();
        }
        m.record_started(3);
        m.record_completed(12);
        m.record_started(0);
        m.record_completed(40_000); // overflow bucket
        m.record_cancelled();
        m.record_cancelled();
        m.record_deadline_expired();
        let s = m.snapshot();
        assert_eq!(s.accepted, 5);
        assert_eq!(s.completed + s.cancelled + s.deadline_expired, 5);
        assert_eq!(s.queue_wait_ms.count, 2);
        assert_eq!(s.e2e_ms.count, 2);
        assert_eq!(*s.e2e_ms.bins.last().unwrap(), 1, "overflow bucket hit");
    }

    #[test]
    fn json_is_stable_with_fixed_key_order() {
        let m = GatewayMetrics::new();
        m.record_accepted();
        m.record_rejected_full();
        let s = m.snapshot();
        let json = s.to_json();
        assert_eq!(json, m.snapshot().to_json());
        assert!(json.starts_with("{\"accepted\":1,\"rejected_full\":1,"));
        assert!(json.contains("\"queue_wait_ms\":{\"bounds\":[1,4,16,"));
    }
}
