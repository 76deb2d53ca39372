//! Fleet metrics: batch totals and fixed-bucket histograms.
//!
//! A batch's [`MetricsSnapshot`] is a sequential fold, in spec order,
//! over the [`RunReport`]s the worker pool returns, so its bytes follow
//! from the reports alone — the same at any worker count. Snapshots are
//! plain data, compare with `==`, [`MetricsSnapshot::merge`] by
//! addition, and serialize themselves to JSON by hand, like every other
//! serialization in the workspace. The atomic [`Histogram`]
//! serves sinks that several threads record into at once, such as the
//! gateway's latency metrics.

use crate::batch::RunReport;
use std::sync::atomic::{AtomicU64, Ordering};

/// A histogram over fixed, inclusive upper bucket bounds.
///
/// A sample lands in the first bucket whose bound is `>= sample`; samples
/// above the last bound land in the implicit overflow bucket. Bin counts,
/// the total count, and the sum are all atomics, so any number of threads
/// record concurrently without locks.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    bins: Vec<AtomicU64>, // one per bound, plus overflow
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            bins: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, sample: u64) {
        let bin = bin_of(&self.bounds, sample);
        self.bins[bin].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(sample, Ordering::Relaxed);
    }

    /// A plain-data copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            bins: self
                .bins
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// The bin `sample` lands in: the first bound `>= sample`, or the
/// overflow bin `bounds.len()`.
fn bin_of(bounds: &[u64], sample: u64) -> usize {
    bounds
        .iter()
        .position(|&b| sample <= b)
        .unwrap_or(bounds.len())
}

/// Plain-data image of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `bins[bounds.len()]` is the overflow bucket.
    pub bins: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given bounds.
    #[must_use]
    pub fn empty(bounds: &[u64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            bins: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample, as [`Histogram::record`] does. A bin vector
    /// that does not match `bounds` drops the bin count, never panics.
    pub fn record(&mut self, sample: u64) {
        if let Some(bin) = self.bins.get_mut(bin_of(&self.bounds, sample)) {
            *bin += 1;
        }
        self.count += 1;
        self.sum += sample;
    }

    /// Adds `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging histograms over
    /// different bucketings is meaningless.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds differ");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean sample value, or `None` before any sample.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Serializes the snapshot as a JSON object with a stable key order —
    /// shared by [`MetricsSnapshot::to_json`] and the gateway's latency
    /// metrics.
    #[must_use]
    pub fn to_json(&self) -> String {
        let list = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        format!(
            "{{\"bounds\":[{}],\"bins\":[{}],\"count\":{},\"sum\":{}}}",
            list(&self.bounds),
            list(&self.bins),
            self.count,
            self.sum
        )
    }
}

/// Default bucket bounds for step-valued histograms (steps to delivery):
/// roughly ×4 per bucket, spanning a one-instant delivery to the longest
/// asynchronous budgets.
pub const STEP_BOUNDS: [u64; 8] = [64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576];

/// Default bucket bounds for per-session activation counts.
pub const ACTIVATION_BOUNDS: [u64; 8] = [
    256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
];

/// Default bucket bounds for small per-session counts (retransmissions,
/// faults injected).
pub const COUNT_BOUNDS: [u64; 8] = [0, 1, 2, 4, 8, 16, 64, 256];

/// Batch totals: one fold over a batch's [`RunReport`]s.
///
/// Every field is a plain `u64` sum, including each histogram bin, so
/// snapshots compare with `==`, merge by addition, and serialize
/// themselves to JSON by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Sessions recorded.
    pub sessions: u64,
    /// Sessions that delivered.
    pub delivered: u64,
    /// Sessions that did not deliver.
    pub timed_out: u64,
    /// Total instants across all sessions.
    pub steps: u64,
    /// Total activations across all sessions.
    pub activations: u64,
    /// Total faults injected.
    pub faults: u64,
    /// Total retransmissions.
    pub retransmissions: u64,
    /// Total corrupted deliveries (must stay 0).
    pub corrupt: u64,
    /// Total payload bits delivered end to end.
    pub delivered_bits: u64,
    /// Total FEC symbol corrections.
    pub fec_corrected: u64,
    /// Total FEC blocks rejected as uncorrectable.
    pub fec_rejected: u64,
    /// Total algorithm rounds across algorithm sessions.
    pub algo_rounds: u64,
    /// Total algorithm traffic in channel bits.
    pub algo_bits: u64,
    /// Algorithm sessions whose every live robot reached a decision.
    pub algo_decided: u64,
    /// Histogram of steps-to-delivery over delivered sessions.
    pub steps_to_delivery: HistogramSnapshot,
    /// Histogram of activations per session.
    pub activations_per_session: HistogramSnapshot,
    /// Histogram of faults injected per session.
    pub faults_per_session: HistogramSnapshot,
    /// Histogram of retransmissions per session.
    pub retransmissions_per_session: HistogramSnapshot,
    /// Histogram of activations-to-decision over decided algorithm
    /// sessions.
    pub activations_to_decision: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// An all-zero snapshot with the default bucketing.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            sessions: 0,
            delivered: 0,
            timed_out: 0,
            steps: 0,
            activations: 0,
            faults: 0,
            retransmissions: 0,
            corrupt: 0,
            delivered_bits: 0,
            fec_corrected: 0,
            fec_rejected: 0,
            algo_rounds: 0,
            algo_bits: 0,
            algo_decided: 0,
            steps_to_delivery: HistogramSnapshot::empty(&STEP_BOUNDS),
            activations_per_session: HistogramSnapshot::empty(&ACTIVATION_BOUNDS),
            faults_per_session: HistogramSnapshot::empty(&COUNT_BOUNDS),
            retransmissions_per_session: HistogramSnapshot::empty(&COUNT_BOUNDS),
            activations_to_decision: HistogramSnapshot::empty(&ACTIVATION_BOUNDS),
        }
    }

    /// The totals of `runs`, folded in order. A batch's metrics are this
    /// fold over its reports in spec order, so they are as deterministic
    /// as the reports themselves.
    #[must_use]
    pub fn of(runs: &[RunReport]) -> Self {
        let mut out = Self::empty();
        for run in runs {
            out.record(run);
        }
        out
    }

    /// Adds one finished session.
    pub fn record(&mut self, run: &RunReport) {
        self.sessions += 1;
        if run.delivered {
            self.delivered += 1;
            self.steps_to_delivery
                .record(run.steps_to_delivery.unwrap_or(0));
        } else {
            self.timed_out += 1;
        }
        self.steps += run.steps;
        self.activations += run.activations;
        self.faults += run.faults;
        self.retransmissions += run.retransmissions;
        self.corrupt += run.corrupt;
        self.delivered_bits += run.delivered_bits;
        self.fec_corrected += run.fec_corrected;
        self.fec_rejected += run.fec_rejected;
        if let Some(algo) = run.algo {
            self.algo_rounds += algo.rounds;
            self.algo_bits += algo.bits;
            if let Some(activations) = algo.activations_to_decision {
                self.algo_decided += 1;
                self.activations_to_decision.record(activations);
            }
        }
        self.activations_per_session.record(run.activations);
        self.faults_per_session.record(run.faults);
        self.retransmissions_per_session.record(run.retransmissions);
    }

    /// Adds `other` into `self`.
    ///
    /// Merging is commutative and associative (every field is a plain
    /// `u64` sum, including each histogram bin), so the folds of any
    /// chunking of a batch's reports, merged in *any* order, equal the
    /// fold of the whole batch — the property `tests/tests/properties.rs`
    /// pins with a permutation proptest down to the JSON bytes.
    ///
    /// # Panics
    ///
    /// Panics if histogram bucketings differ.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.sessions += other.sessions;
        self.delivered += other.delivered;
        self.timed_out += other.timed_out;
        self.steps += other.steps;
        self.activations += other.activations;
        self.faults += other.faults;
        self.retransmissions += other.retransmissions;
        self.corrupt += other.corrupt;
        self.delivered_bits += other.delivered_bits;
        self.fec_corrected += other.fec_corrected;
        self.fec_rejected += other.fec_rejected;
        self.algo_rounds += other.algo_rounds;
        self.algo_bits += other.algo_bits;
        self.algo_decided += other.algo_decided;
        self.steps_to_delivery.merge(&other.steps_to_delivery);
        self.activations_per_session
            .merge(&other.activations_per_session);
        self.faults_per_session.merge(&other.faults_per_session);
        self.retransmissions_per_session
            .merge(&other.retransmissions_per_session);
        self.activations_to_decision
            .merge(&other.activations_to_decision);
    }

    /// Folds any number of snapshots into one, in iteration order —
    /// which, by [`MetricsSnapshot::merge`]'s commutativity, does not
    /// matter: any permutation of `parts` produces byte-identical JSON.
    ///
    /// # Panics
    ///
    /// Panics if histogram bucketings differ between parts.
    #[must_use]
    pub fn merge_all<'a, I>(parts: I) -> Self
    where
        I: IntoIterator<Item = &'a MetricsSnapshot>,
    {
        let mut out = Self::empty();
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// Engine instants spent per payload bit delivered end to end —
    /// the channel's inverse effective bitrate, rounded down. Zero when
    /// nothing was delivered (so the ratio is monotone-comparable in
    /// baselines: lower is better once bits flow).
    #[must_use]
    pub fn steps_per_delivered_bit(&self) -> u64 {
        self.steps.checked_div(self.delivered_bits).unwrap_or(0)
    }

    /// Serializes the snapshot as a JSON object with a stable key order,
    /// so equal snapshots produce byte-equal JSON (the property the CI
    /// smoke job diffs on).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sessions\":{},\"delivered\":{},\"timed_out\":{},",
                "\"steps\":{},\"activations\":{},\"faults\":{},",
                "\"retransmissions\":{},\"corrupt\":{},",
                "\"delivered_bits\":{},\"fec_corrected\":{},\"fec_rejected\":{},",
                "\"algo_rounds\":{},\"algo_bits\":{},\"algo_decided\":{},",
                "\"steps_to_delivery\":{},\"activations_per_session\":{},",
                "\"faults_per_session\":{},\"retransmissions_per_session\":{},",
                "\"activations_to_decision\":{}}}"
            ),
            self.sessions,
            self.delivered,
            self.timed_out,
            self.steps,
            self.activations,
            self.faults,
            self.retransmissions,
            self.corrupt,
            self.delivered_bits,
            self.fec_corrected,
            self.fec_rejected,
            self.algo_rounds,
            self.algo_bits,
            self.algo_decided,
            self.steps_to_delivery.to_json(),
            self.activations_per_session.to_json(),
            self.faults_per_session.to_json(),
            self.retransmissions_per_session.to_json(),
            self.activations_to_decision.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{AlgoOutcome, BatchSpec};

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        let h = Histogram::new(&[10, 100]);
        h.record(0);
        h.record(10); // inclusive: still first bucket
        h.record(11);
        h.record(100);
        h.record(101); // overflow
        let s = h.snapshot();
        assert_eq!(s.bins, vec![2, 2, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 222);
        assert_eq!(s.mean(), Some(44.4));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    #[should_panic(expected = "at least one bound")]
    fn empty_bounds_rejected() {
        let _ = Histogram::new(&[]);
    }

    #[test]
    fn snapshot_merge_is_addition() {
        let mut a = HistogramSnapshot::empty(&[5, 50]);
        let h = Histogram::new(&[5, 50]);
        h.record(3);
        h.record(30);
        a.merge(&h.snapshot());
        a.merge(&h.snapshot());
        assert_eq!(a.bins, vec![2, 2, 0]);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 66);
    }

    #[test]
    #[should_panic(expected = "bounds differ")]
    fn merge_rejects_different_bucketings() {
        let mut a = HistogramSnapshot::empty(&[1]);
        a.merge(&HistogramSnapshot::empty(&[2]));
    }

    /// A zero-work report for the metric-bearing fields to override.
    fn blank() -> RunReport {
        let spec = &BatchSpec::conformance_matrix(vec![0]).sessions()[0];
        RunReport {
            error: None,
            ..RunReport::poisoned(spec, "")
        }
    }

    fn report(i: u64) -> RunReport {
        let delivered = !i.is_multiple_of(3);
        RunReport {
            delivered,
            steps_to_delivery: delivered.then_some(i * 17 % 2_000),
            steps: i * 19,
            activations: i * 23,
            faults: i % 7,
            retransmissions: i % 4,
            delivered_bits: if delivered { 24 } else { 0 },
            fec_corrected: i % 5,
            fec_rejected: i % 2,
            algo: (!i.is_multiple_of(3)).then_some(AlgoOutcome {
                rounds: i % 3,
                bits: i * 11 % 500,
                activations_to_decision: i.is_multiple_of(4).then_some(i * 13 % 1_000),
                decision: None,
                rejected: false,
            }),
            ..blank()
        }
    }

    fn reports(n: u64) -> Vec<RunReport> {
        (0..n).map(report).collect()
    }

    #[test]
    fn snapshot_record_never_panics_on_a_mismatched_bin_vector() {
        let mut h = HistogramSnapshot {
            bounds: vec![10],
            bins: Vec::new(),
            count: 0,
            sum: 0,
        };
        h.record(5);
        assert_eq!((h.bins.len(), h.count, h.sum), (0, 1, 5));
    }

    #[test]
    fn snapshot_totals_are_consistent() {
        let s = MetricsSnapshot::of(&reports(50));
        assert_eq!(s.sessions, 50);
        assert_eq!(s.delivered + s.timed_out, s.sessions);
        assert_eq!(s.steps_to_delivery.count, s.delivered);
        assert_eq!(s.activations_per_session.count, s.sessions);
        assert_eq!(s.activations_per_session.sum, s.activations);
        assert_eq!(s.faults_per_session.sum, s.faults);
        assert_eq!(s.retransmissions_per_session.sum, s.retransmissions);
        assert_eq!(s.activations_to_decision.count, s.algo_decided);
        assert_eq!(s.algo_rounds, (0..50).map(|i| i % 3).sum::<u64>());
        assert_eq!(
            s.algo_bits,
            (0..50)
                .filter(|i| i % 3 != 0)
                .map(|i| i * 11 % 500)
                .sum::<u64>()
        );
        assert_eq!(
            s.algo_decided,
            (0..50).filter(|i| i % 3 != 0 && i % 4 == 0).count() as u64
        );
        assert_eq!(s.delivered_bits, s.delivered * 24);
        assert_eq!(s.fec_corrected, (0..50).map(|i| i % 5).sum::<u64>());
        assert_eq!(s.fec_rejected, (0..50).map(|i| i % 2).sum::<u64>());
        assert_eq!(s.steps_per_delivered_bit(), s.steps / s.delivered_bits);
    }

    #[test]
    fn derived_rates_are_zero_before_any_delivery() {
        let empty = MetricsSnapshot::empty();
        assert_eq!(empty, MetricsSnapshot::of(&[]));
        assert_eq!(empty.steps_per_delivered_bit(), 0);
        let s = MetricsSnapshot::of(&[RunReport {
            steps: 500,
            ..blank()
        }]);
        assert_eq!(s.steps_per_delivered_bit(), 0, "no bits, no ratio");
    }

    #[test]
    fn json_is_stable_and_reflects_totals() {
        let s = MetricsSnapshot::of(&[RunReport {
            delivered: true,
            steps_to_delivery: Some(12),
            steps: 40,
            activations: 80,
            faults: 2,
            retransmissions: 1,
            delivered_bits: 24,
            fec_corrected: 2,
            fec_rejected: 1,
            algo: Some(AlgoOutcome {
                rounds: 3,
                bits: 112,
                activations_to_decision: Some(64),
                decision: Some(1),
                rejected: false,
            }),
            ..blank()
        }]);
        let json = s.to_json();
        assert_eq!(json, s.to_json(), "stable across calls");
        assert!(json.starts_with("{\"sessions\":1,\"delivered\":1,"));
        assert!(json.contains("\"activations\":80"));
        assert!(json.contains("\"bounds\":[64,256,"));
        assert!(json.contains(
            "\"corrupt\":0,\"delivered_bits\":24,\"fec_corrected\":2,\"fec_rejected\":1,"
        ));
        assert!(json.contains("\"algo_rounds\":3,\"algo_bits\":112,\"algo_decided\":1,"));
        assert!(json.contains("\"activations_to_decision\":{\"bounds\":[256,"));
    }

    #[test]
    fn merged_chunk_folds_equal_the_whole_fold() {
        let runs = reports(90);
        let parts: Vec<MetricsSnapshot> = runs.chunks(7).map(MetricsSnapshot::of).collect();
        assert_eq!(
            MetricsSnapshot::merge_all(&parts),
            MetricsSnapshot::of(&runs)
        );
    }
}
