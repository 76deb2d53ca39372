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
    // 16 `.expect("… poisoned")` on lock acquisition, 2 on indices found
    // under the same guard, 2 on thread joins, plus 2 bounds-checked
    // index expressions; the ratchet pins today's count exactly.
    ("crates/gateway/src/server.rs", 22),
    // 1 length-checked `self.buf[..4]` (guarded by the `len < 4` early
    // return); the payload codecs and their length prefixes live in
    // `scheduler::wire` and `fleet::batch`.
    ("crates/gateway/src/wire.rs", 1),
];

/// Files in lock-discipline scope (guards may exist, but must not be
/// held across blocking calls).
pub const LOCK_FILES: &[&str] = &[
    "crates/gateway/src/server.rs",
    "crates/gateway/src/client.rs",
];

/// Files declared lock-free: no blocking synchronization primitive at
/// all. The pool's claim path is one `fetch_add` on a shared cursor; a
/// `Mutex` reappearing here would resurrect the serialized hand-off of
/// the central locked queue it replaced.
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
        "scheduler::wire::put_len",
        "documented # Panics contract: the one shared length prefix; a sequence past u32::MAX items cannot fit a frame",
    ),
    // --- fleet pool
    (
        "pool::run_indexed",
        ".expect on a run under a fresh CancelToken, which nothing can cancel, so every job completes",
    ),
    (
        "pool::run_indexed_observed",
        "zero-worker assert before any thread starts; items/slots indexed by a cursor claim checked < n; the slot .expect runs only once completed == n, and fetch_add hands each index out once, so every slot is filled",
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
/// step.
pub const HOT_ALLOC_ROOTS: &[&str] = &["Engine::step_inner"];

/// Crates the hot-alloc subgraph walk may enter. The core protocols
/// are deliberately excluded: they allocate amortized during
/// transmission by design and are governed by the runtime
/// allocs-per-activation ratchet (`crates/core/tests/alloc_budget.rs`)
/// instead of a static ban.
pub const HOT_ALLOC_CRATES: &[&str] = &["robots", "geometry", "scheduler", "fleet"];

/// The crate allowed to call libm transcendentals: its wrappers are
/// the audited chokepoint the float-determinism pass funnels through.
pub const FLOAT_EXEMPT_CRATE: &str = "geometry";

/// Ceiling on the call graph's name-union edges, enforced by
/// `stiglint --graph-stats`. Unresolvable calls stay sound (they fan
/// out to every same-named fn) but each one widens reachability, so
/// resolution quality is ratcheted like any other budget. The ceiling
/// counts edges rather than capping their share of internal edges:
/// deleting code takes resolved edges with it and raised that share
/// with no new union edge, while one added union edge still fails here.
/// Lowered to the measured count whenever it falls; the share stays in
/// the `--graph-stats` report. Only call sites under `crates/` count.
pub const MAX_UNION_EDGES: usize = 1_151;

/// Ceiling on the dead `pub` fns in crates' `src/` (the `dead-pub`
/// pass), reported by `stiglint --graph-stats`. It pins the measured
/// count and may only fall.
pub const MAX_DEAD_PUB: usize = 4;

/// The enum↔codec pairings inference cannot see. Every other codec —
/// inherent or `impl Wire for E` — is paired with its enum by
/// `wire_complete::check_inferred_workspace`.
#[must_use]
pub fn wire_pairings() -> Vec<Pairing<'static>> {
    // `ProtocolKind`'s wire code is a column of its one table; `row` is
    // the only fn that matches on the variants.
    vec![Pairing {
        enum_file: "crates/fleet/src/batch.rs",
        enum_name: "ProtocolKind",
        codec_file: "crates/fleet/src/batch.rs",
        impl_name: "ProtocolKind",
        fns: &["row"],
    }]
}

/// The panic budget for a workspace-relative path (0 if unlisted).
#[must_use]
pub fn panic_budget(rel: &str) -> usize {
    PANIC_BUDGETS
        .iter()
        .find(|(f, _)| *f == rel)
        .map_or(0, |(_, b)| *b)
}

/// Whether a file's call sites count toward the `--graph-stats`
/// counters; the root `tests/` and `examples/` only feed dead-pub.
#[must_use]
pub fn counts_in_graph_stats(rel: &str) -> bool {
    rel.starts_with("crates/")
}

/// Whether dead-pub counts the `pub` fns a file defines: only crates'
/// `src/` trees hold the public surface.
#[must_use]
pub fn defines_pub(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/")
}

/// Every `.rs` file the workspace index covers: all crates' `src/`
/// and `tests/` trees plus the root `tests/` and `examples/`
/// packages, sorted. (Fixture files under `crates/lint/fixtures/` are
/// seeded violations and live outside these trees on purpose.)
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    collect_rs(&root.join("tests"), root, &mut out)?;
    collect_rs(&root.join("examples"), root, &mut out)?;
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
fn rel_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}
