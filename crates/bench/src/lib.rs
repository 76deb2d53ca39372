//! Experiment harness for the *Deaf, Dumb, and Chatting Robots*
//! reproduction.
//!
//! The paper is theory-only — its "evaluation" is six explanatory figures
//! and a set of analytical claims. This crate regenerates all of them as
//! executable artefacts:
//!
//! * `fig1`–`fig6` — each paper figure as a simulated scenario whose
//!   printed trace exhibits the figure's content;
//! * `e1`–`e10` — each analytical claim as a measured table (silence,
//!   Lemma 4.1, drift policies, the §5 slice trade-off, the backup
//!   channel, collision margins, scheduler stress, byte coding, flocking).
//!
//! Run everything with `cargo run -p stigmergy-bench --bin experiments`,
//! or one artefact by id (`… -- fig4`, `… -- e3`). Wall-clock performance
//! is measured separately by `crates/benchmark` (see `BENCHMARK.json`),
//! and exact work counters are pinned by `tests/tests/work_counters.rs`.

// The harness is the measuring instrument: wall-clock reads are its job.
// Determinism of what it measures is enforced inside the fleet/gateway.
#![allow(clippy::disallowed_methods)]

pub mod experiments;
pub mod fleet_sweep;
pub mod gateway_bench;
pub mod svg;
pub mod table;
pub mod workloads;

pub use table::Table;
