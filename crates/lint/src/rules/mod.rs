//! The rule passes. The per-file passes (`determinism`, `panics`,
//! `locks`, `wire_complete`, `float_det`) consume a
//! [`crate::scan::FileTokens`] stream; the graph passes
//! (`panic_reach`, `hot_alloc`, `unsafe_audit`, `dead_pub`, and
//! workspace-wide wire inference) consume a [`crate::WorkspaceIndex`]. All return
//! [`crate::Violation`]s; suppression filtering happens in the pass so
//! a suppressed finding never leaves the module.

pub mod dead_pub;
pub mod determinism;
pub mod float_det;
pub mod hot_alloc;
pub mod locks;
pub mod panic_reach;
pub mod panics;
pub mod unsafe_audit;
pub mod wire_complete;
