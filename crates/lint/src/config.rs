//! Workspace policy: which files each pass covers and at what budget.
//!
//! The policy is code, not a config file, on purpose: changing the
//! deterministic scope or raising a panic budget should be a reviewed
//! diff in this crate, next to the rules it weakens.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::wire_complete::Pairing;

/// Crates whose entire `src/` tree is trace-affecting and therefore in
/// determinism scope.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["core", "geometry", "robots", "scheduler", "coding", "algo"];

/// `fleet` files on the batch path (worker pool internals excluded —
/// the pool is concurrency plumbing whose nondeterminism is erased by
/// index-ordered collection; the batch path must never reintroduce it).
pub const FLEET_BATCH_FILES: &[&str] = &[
    "crates/fleet/src/batch.rs",
    "crates/fleet/src/trace_codec.rs",
    "crates/fleet/src/metrics.rs",
    "crates/fleet/src/lib.rs",
];

/// Per-file budgeted-panic-site allowances for the gateway. A file not
/// listed here gets budget 0. Budgets only ratchet down: raising one
/// requires justifying the new sites in review.
pub const PANIC_BUDGETS: &[(&str, usize)] = &[
    // 21 `.expect("… poisoned")` on lock acquisition + 2 header-checked
    // index expressions; the ratchet pins today's count exactly.
    ("crates/gateway/src/server.rs", 23),
    // 3 `.expect` in length-validated codec paths + 1 length-checked
    // `self.buf[..4]` (guarded by the `len < 4` early return).
    ("crates/gateway/src/wire.rs", 4),
];

/// Files in lock-discipline scope (guards may exist, but must not be
/// held across blocking calls).
pub const LOCK_FILES: &[&str] = &[
    "crates/gateway/src/server.rs",
    "crates/gateway/src/client.rs",
];

/// Files declared lock-free: no blocking synchronization primitive at
/// all. The work-stealing pool's claim path is CAS over packed atomic
/// ranges; a `Mutex` reappearing here would resurrect the serialized
/// hand-off the sharded rewrite removed.
pub const LOCK_FREE_FILES: &[&str] = &["crates/fleet/src/pool.rs"];

/// Entry-loop roots for the panic-reachability pass: the gateway's
/// accept/connection/runner loops and the fleet drivers. Suffixes are
/// matched on `::` boundaries against full symbol paths.
pub const PANIC_REACH_ROOTS: &[&str] = &[
    "Shared::listener",
    "Shared::connection",
    "Shared::runner",
    "pool::run_indexed",
    "pool::run_indexed_observed",
];

/// Per-symbol panic-reach allowances. Every entry names the symbol
/// (path suffix) and carries the justification for why its panic
/// sites are acceptable from an entry loop; an entry without a real
/// justification should not survive review.
pub const PANIC_REACH_BUDGET: &[(&str, &str)] = &[
    // --- gateway entry loops and handlers ---
    (
        "Shared::listener",
        "accept-loop lock .expect(poisoned): poisoning means a handler thread already crashed",
    ),
    (
        "Shared::connection",
        "per-connection lock .expect(poisoned) and header-checked indexing; a panic kills one connection, not the daemon",
    ),
    (
        "Shared::runner",
        "queue lock .expect(poisoned) outside the catch_unwind that shields job execution",
    ),
    (
        "Shared::submit",
        "admission lock .expect(poisoned); submission happens before any job code that could poison it",
    ),
    (
        "Shared::cancel",
        "state lock .expect(poisoned) plus .expect(position just found) on an index computed two lines above under the same guard",
    ),
    (
        "Shared::begin_shutdown",
        "shutdown lock .expect(poisoned); runs once, on the operator path",
    ),
    (
        "Shared::run_job",
        "fail-reason lock .expect(poisoned) outside the catch_unwind; the job body itself is shielded",
    ),
    (
        "ConnWriter::send",
        "writer lock .expect(poisoned): a poisoned writer means the peer's connection thread already died",
    ),
    // --- gateway/scheduler codecs: encode panics are logic errors on
    // --- our own side (documented # Panics), decode panics are
    // --- length-guarded
    (
        "gateway::wire::Message::encode",
        "encode-side .expect on values validated at admission; encoding our own rejected range is a logic error",
    ),
    (
        "gateway::wire::put_batch_spec",
        "encode-side .expect on spec fields the admission check already bounded",
    ),
    (
        "gateway::wire::write_frame",
        "length .expect: frames are capped at MAX_FRAME well below u32::MAX",
    ),
    (
        "FrameBuffer::next_frame",
        "self.buf[..4] indexing guarded by the len < 4 early return on the previous line",
    ),
    (
        "Reader::u32",
        "try_into().unwrap() on a take(4)-sized slice — infallible by construction",
    ),
    (
        "Reader::u64",
        "try_into().unwrap() on a take(8)-sized slice — infallible by construction",
    ),
    (
        "scheduler::wire::put_bytes",
        "documented # Panics contract: encoding a sequence the decoder must reject is a caller logic error",
    ),
    (
        "ScheduleSpec::encode_wire",
        "encode-side .expect on counts the factory validated; specs round-trip through the same caps",
    ),
    // --- fleet pool: every index is derived from ranges asserted at
    // --- construction; the asserts themselves are the validation
    (
        "StealScheduler::new",
        "construction-time asserts and worker-count division: rejecting a zero-worker pool before any loop runs is the point",
    ),
    (
        "StealScheduler::pop_local",
        "deque indexing by owner id, bounded by the construction assert",
    ),
    (
        "StealScheduler::try_steal",
        "victim deque indexing by id asserted in-range at construction",
    ),
    (
        "StealScheduler::steal_for",
        "deque indexing and modulo by the worker count asserted nonzero at construction",
    ),
    (
        "pool::run_indexed",
        "join .expect: a worker panic is already a bug escaping its catch_unwind; propagating it is correct",
    ),
    (
        "pool::run_indexed_observed",
        "slot asserts and indexing over disjoint claimed ranges; the steal-schedule tests pin the disjointness invariant",
    ),
    // --- leaves reached through real call chains ---
    (
        "Histogram::record",
        "bins[bin] with bin <= bounds.len() and bins sized bounds.len()+1 at construction",
    ),
    (
        "coding::checksum::verify",
        "t[0] on the &[u8; 1] produced by split_last_chunk::<1> — infallible",
    ),
    (
        "ActivationSet::contains",
        "word indexing by robot/64 with robot < n enforced by the set's constructors",
    ),
    (
        "ActivationSet::remove",
        "word indexing by robot/64 with robot < n enforced by the set's constructors",
    ),
];

/// Hot-loop roots for the hot-path-alloc pass: the engine activation
/// step and the steal scheduler's claim paths.
pub const HOT_ALLOC_ROOTS: &[&str] = &[
    "Engine::step_inner",
    "StealScheduler::pop_local",
    "StealScheduler::steal_for",
];

/// Crates the hot-alloc subgraph walk may enter. The core protocols
/// are deliberately excluded: they allocate amortized during
/// transmission by design and are governed by the runtime
/// allocs-per-activation ratchet (`crates/core/tests/alloc_budget.rs`)
/// instead of a static ban.
pub const HOT_ALLOC_CRATES: &[&str] = &["robots", "geometry", "scheduler", "fleet"];

/// The crate allowed to call libm transcendentals: its wrappers are
/// the audited chokepoint the float-determinism pass funnels through.
pub const FLOAT_EXEMPT_CRATE: &str = "geometry";

/// Ceiling on the call graph's union-edge fraction (union edges /
/// workspace-internal edges), enforced by `stiglint --graph-stats`.
/// Unresolvable calls stay sound (they fan out to every same-named
/// fn) but each one widens reachability, so resolution quality is
/// ratcheted like any other budget. Measured 0.1387 at introduction
/// (after typed-receiver, chained-field, and call-result inference).
pub const MAX_UNION_FRACTION: f64 = 0.15;

/// The explicit cross-file enum↔codec table.
#[must_use]
pub fn wire_pairings() -> Vec<Pairing<'static>> {
    const SPEC_FNS: &[&str] = &["encode_wire", "decode_wire"];
    // `ScheduleSpec::decode_wire` is a thin shim over the depth-tracked
    // `decode_nested` (recursion guard for `CrashFiltered`); the match
    // arms — what completeness is about — live in the helper.
    const SCHED_FNS: &[&str] = &["encode_wire", "decode_nested"];
    const MSG_FNS: &[&str] = &["kind", "encode", "decode"];
    const SUB_FNS: &[&str] = &["encode", "decode"];
    const PROTO_FNS: &[&str] = &["wire_code", "from_wire_code"];
    vec![
        Pairing {
            enum_file: "crates/scheduler/src/factory.rs",
            enum_name: "ScheduleSpec",
            codec_file: "crates/scheduler/src/wire.rs",
            impl_name: "ScheduleSpec",
            fns: SCHED_FNS,
        },
        Pairing {
            enum_file: "crates/scheduler/src/factory.rs",
            enum_name: "AlgorithmSpec",
            codec_file: "crates/scheduler/src/wire.rs",
            impl_name: "AlgorithmSpec",
            fns: SPEC_FNS,
        },
        Pairing {
            enum_file: "crates/scheduler/src/factory.rs",
            enum_name: "FaultSpec",
            codec_file: "crates/scheduler/src/wire.rs",
            impl_name: "FaultSpec",
            fns: SPEC_FNS,
        },
        Pairing {
            enum_file: "crates/gateway/src/wire.rs",
            enum_name: "Message",
            codec_file: "crates/gateway/src/wire.rs",
            impl_name: "Message",
            fns: MSG_FNS,
        },
        Pairing {
            enum_file: "crates/gateway/src/wire.rs",
            enum_name: "RejectReason",
            codec_file: "crates/gateway/src/wire.rs",
            impl_name: "Message",
            fns: SUB_FNS,
        },
        Pairing {
            enum_file: "crates/gateway/src/wire.rs",
            enum_name: "FailReason",
            codec_file: "crates/gateway/src/wire.rs",
            impl_name: "Message",
            fns: SUB_FNS,
        },
        Pairing {
            enum_file: "crates/gateway/src/wire.rs",
            enum_name: "CancelState",
            codec_file: "crates/gateway/src/wire.rs",
            impl_name: "Message",
            fns: SUB_FNS,
        },
        Pairing {
            enum_file: "crates/fleet/src/batch.rs",
            enum_name: "ProtocolKind",
            codec_file: "crates/fleet/src/batch.rs",
            impl_name: "ProtocolKind",
            fns: PROTO_FNS,
        },
    ]
}

/// The panic budget for a workspace-relative path (0 if unlisted).
#[must_use]
pub fn panic_budget(rel: &str) -> usize {
    PANIC_BUDGETS
        .iter()
        .find(|(f, _)| *f == rel)
        .map_or(0, |(_, b)| *b)
}

/// Every `.rs` file the workspace index covers: all crates' `src/`
/// and `tests/` trees, sorted. (Fixture files under
/// `crates/lint/fixtures/` are seeded violations and live outside
/// both trees on purpose.)
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for krate in entries {
            collect_rs(&krate.join("src"), root, &mut out)?;
            collect_rs(&krate.join("tests"), root, &mut out)?;
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Files in float-determinism scope: the determinism scope minus the
/// exempt wrapper crate.
pub fn float_files(root: &Path) -> io::Result<Vec<String>> {
    Ok(deterministic_files(root)?
        .into_iter()
        .filter(|f| !f.starts_with(&format!("crates/{FLOAT_EXEMPT_CRATE}/")))
        .collect())
}

/// All files in determinism scope, as workspace-relative paths, in
/// stable sorted order.
pub fn deterministic_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for krate in DETERMINISTIC_CRATES {
        let dir = root.join("crates").join(krate).join("src");
        collect_rs(&dir, root, &mut out)?;
    }
    for f in FLEET_BATCH_FILES {
        if root.join(f).is_file() {
            out.push((*f).to_string());
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// All `.rs` files under gateway `src/`, workspace-relative, sorted —
/// the panic-safety scope.
pub fn panic_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    collect_rs(&root.join("crates/gateway/src"), root, &mut out)?;
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` as root-relative
/// strings, in directory-entry-sorted order.
pub fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(rel_to(&p, root));
        }
    }
    Ok(())
}

/// Renders `path` relative to `root` with forward slashes.
#[must_use]
pub fn rel_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}
