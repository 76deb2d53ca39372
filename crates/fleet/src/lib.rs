//! Parallel batch runtime for protocol sweeps.
//!
//! The paper's protocols are deterministic given a schedule and a seed,
//! but the simulator historically executed every session serially. This
//! crate shards a [`BatchSpec`] — protocols × schedules × fault plans ×
//! seeds — across a hand-rolled `std::thread` worker pool and collects
//! one [`RunReport`] per session, in spec order, plus the
//! [`MetricsSnapshot`] folded over them, while *provably preserving
//! determinism*: the same batch at `workers = 1` and `workers = N`
//! yields identical per-seed traces (byte-for-byte, under the canonical
//! [`trace_codec`]), and so identical metrics. The regression suite in
//! `tests/` asserts exactly that.
//!
//! No external dependencies: the pool is scoped `std::thread` workers
//! claiming session indices from one shared atomic cursor (rayon is
//! unavailable under the vendored-offline constraint), metrics are
//! plain sums and fixed-bucket histograms folded after the pool
//! returns, and the trace codec writes IEEE-754 bit patterns directly.
//!
//! # Example
//!
//! ```
//! use stigmergy_fleet::{BatchSpec, run_batch};
//!
//! let spec = BatchSpec {
//!     budget_cap: Some(500),
//!     ..BatchSpec::conformance_matrix(vec![0, 1])
//! };
//! let serial = run_batch(&spec, 1);
//! let parallel = run_batch(&spec, 4);
//! assert_eq!(serial.runs, parallel.runs);
//! assert_eq!(serial.metrics, parallel.metrics);
//! ```

pub mod batch;
pub mod metrics;
pub mod pool;
pub mod trace_codec;

pub use batch::{
    paced_config, ring, run_batch, run_batch_with, run_session, run_session_contained, AlgoOutcome,
    BatchInterrupted, BatchReport, BatchSpec, Progress, ProtocolKind, RunReport, SessionSpec,
    CONFORMANCE, DEFAULT_PAYLOAD,
};
pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot};
pub use pool::{run_indexed, run_indexed_observed, CancelToken, Interrupted};
pub use trace_codec::{
    encode, encode_hex, fingerprint, fnv1a64, fnv1a64_update, to_hex, TraceEncoder,
};
