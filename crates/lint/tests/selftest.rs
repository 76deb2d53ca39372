//! The lint's own acceptance gate:
//!
//! 1. `stiglint --workspace` runs clean on this repository (the policy
//!    and the code agree — any regression in either breaks this test
//!    before it breaks CI);
//! 2. every seeded-violation fixture is caught, with the expected rule
//!    and count (the lint actually detects what it claims to);
//! 3. the clean controls stay clean (including the adversarial one
//!    built from raw strings, nested comments, and `#[cfg(test)]`);
//! 4. the binary's exit codes match the contract CI relies on.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn lint_fixture(name: &str) -> Vec<lint::Violation> {
    lint::run_paths(&[fixture(name)]).expect("fixture readable")
}

fn count_rule(vs: &[lint::Violation], rule: &str) -> usize {
    vs.iter().filter(|v| v.rule == rule).count()
}

#[test]
fn workspace_is_clean() {
    let violations = lint::run_workspace(&workspace_root()).expect("workspace lints");
    assert!(
        violations.is_empty(),
        "stiglint found violations in the workspace:\n{}",
        lint::report::human(&violations)
    );
}

#[test]
fn every_workspace_suppression_carries_a_reason() {
    // Structural guarantee plus a direct check: collect every
    // suppression the configured scopes parse and assert the reasons
    // are non-empty. (A reason-less suppression would already have
    // failed `workspace_is_clean` as a `suppression` violation; this
    // test pins the stronger claim independently of scoping.)
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        lint::config::collect_rs(&root.join(dir), &root, &mut files).expect("walk");
    }
    // The seeded-violation fixtures deliberately contain malformed
    // suppressions, and the linter's own sources quote the grammar in
    // docs and test strings; both are data about suppressions, not
    // suppressions.
    files.retain(|f| !f.contains("/fixtures/") && !f.starts_with("crates/lint/"));
    let mut seen = 0usize;
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel)).expect("readable");
        let ft = lint::scan::FileTokens::new(&rel, &src);
        assert!(
            ft.scan_violations.is_empty(),
            "malformed suppression in {rel}"
        );
        for s in &ft.suppressions {
            assert!(!s.reason.trim().is_empty(), "empty reason in {rel}");
            seen += 1;
        }
    }
    // The burn-downs left a small set of justified suppressions in
    // the tree (wall-clock, writer mutex, and the hot-alloc scratch
    // idiom sites); if this drifts, re-read the new ones.
    assert!(seen >= 7, "expected the known suppressions, saw {seen}");
}

#[test]
fn fixture_det_hashmap_is_caught() {
    let v = lint_fixture("det_hashmap.rs");
    assert_eq!(count_rule(&v, "determinism"), 5, "{v:?}");
}

#[test]
fn fixture_det_instant_is_caught() {
    let v = lint_fixture("det_instant.rs");
    assert_eq!(count_rule(&v, "determinism"), 3, "{v:?}");
}

#[test]
fn fixture_det_thread_is_caught_including_macro_body() {
    let v = lint_fixture("det_thread.rs");
    assert_eq!(count_rule(&v, "determinism"), 2, "{v:?}");
    // One of the two is inside the macro_rules body.
    assert!(v.iter().any(|x| x.line == 12), "{v:?}");
}

#[test]
fn fixture_bad_suppressions_are_violations() {
    let v = lint_fixture("det_suppression_bad.rs");
    assert_eq!(count_rule(&v, "suppression"), 2, "{v:?}");
    assert_eq!(count_rule(&v, "determinism"), 1, "{v:?}");
}

#[test]
fn fixture_panic_unwrap_is_caught() {
    let v = lint_fixture("panic_unwrap.rs");
    assert_eq!(count_rule(&v, "panic-safety"), 3, "{v:?}");
}

#[test]
fn fixture_panic_budget_is_caught() {
    let v = lint_fixture("panic_budget.rs");
    assert_eq!(count_rule(&v, "panic-safety"), 1, "{v:?}");
    assert!(v.iter().any(|x| x.message.contains("4 budgeted")), "{v:?}");
}

#[test]
fn fixture_wire_missing_is_caught() {
    let v = lint_fixture("wire_missing.rs");
    assert_eq!(count_rule(&v, "wire-completeness"), 1, "{v:?}");
    assert!(v.iter().any(|x| x.message.contains("Frame::Data")), "{v:?}");
}

#[test]
fn fixture_wire_trait_impl_missing_arm_is_caught() {
    let v = lint_fixture("wire_trait_missing.rs");
    assert_eq!(count_rule(&v, "wire-completeness"), 1, "{v:?}");
    assert!(
        v.iter().any(|x| x.message.contains("Signal::Halt")),
        "{v:?}"
    );
}

#[test]
fn fixture_wire_missing_algorithm_arm_is_caught() {
    // The workspace pairing for `AlgorithmSpec` is cross-file
    // (factory.rs ↔ wire.rs); this fixture seeds the same omission —
    // `decode_wire` wildcarding away `Agreement` — in one file, proving
    // the pass sees the algorithm spec shape and not just the
    // schedule/fault ones.
    let v = lint_fixture("wire_missing_algo.rs");
    assert_eq!(count_rule(&v, "wire-completeness"), 1, "{v:?}");
    assert!(
        v.iter()
            .any(|x| x.message.contains("AlgorithmSpec::Agreement")),
        "{v:?}"
    );
}

#[test]
fn the_algorithm_wire_pairing_is_inferred() {
    // `AlgorithmSpec` is declared in `scheduler::factory` and encoded by
    // `impl Wire for AlgorithmSpec` in `scheduler::wire`. Inference must
    // pair the two across files, and no row of the real table may
    // shadow it — else a new algorithm variant could ship without codec
    // arms and no lint would object. The `algo` crate must also stay in
    // determinism scope.
    let idx = lint::WorkspaceIndex::from_sources(&[
        (
            "crates/scheduler/src/factory.rs",
            "pub enum AlgorithmSpec { Flood { initiator: usize }, Election, Agreement { inputs: u64 } }",
        ),
        (
            "crates/scheduler/src/wire.rs",
            "impl Wire for AlgorithmSpec {\n\
                 fn encode_wire(&self, out: &mut Vec<u8>) { match *self {\n\
                     AlgorithmSpec::Flood { .. } => out.push(0),\n\
                     AlgorithmSpec::Election => out.push(1),\n\
                     AlgorithmSpec::Agreement { .. } => out.push(2),\n\
                 } }\n\
                 fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> { Ok(match r.u8()? {\n\
                     0 => AlgorithmSpec::Flood { initiator: 0 },\n\
                     _ => AlgorithmSpec::Election,\n\
                 }) }\n\
             }",
        ),
    ]);
    let v =
        lint::rules::wire_complete::check_inferred_workspace(&idx, &lint::config::wire_pairings());
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].file, "crates/scheduler/src/wire.rs");
    assert!(v[0].message.contains("AlgorithmSpec::Agreement"), "{v:?}");
    assert!(lint::config::DETERMINISTIC_CRATES.contains(&"algo"));
}

#[test]
fn the_protocol_table_pairing_checks_row() {
    // `ProtocolKind` keeps every per-protocol fact in one `row` match;
    // the pairing must point there, and a wildcard arm standing in for
    // a variant's row must be flagged even when another enum in the
    // same match shares no name with it.
    let pairings = lint::config::wire_pairings();
    let pairing = pairings
        .iter()
        .find(|p| p.enum_name == "ProtocolKind")
        .expect("ProtocolKind missing from the wire-completeness table");
    assert_eq!(pairing.fns, ["row"]);
    let src = "pub enum ProtocolKind { Sync2, Hardened }\n\
               enum Channel { Pair, Failover }\n\
               impl ProtocolKind {\n\
                   const fn row(self) -> (u8, Channel) {\n\
                       match self {\n\
                           ProtocolKind::Sync2 => (0, Channel::Pair),\n\
                           _ => (6, Channel::Failover),\n\
                       }\n\
                   }\n\
               }\n";
    let file = lint::scan::FileTokens::new(pairing.enum_file, src);
    let v = lint::rules::wire_complete::check_pairing(pairing, &file, &file);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("ProtocolKind::Hardened"), "{v:?}");
}

#[test]
fn fixture_locks_io_is_caught() {
    let v = lint_fixture("locks_io.rs");
    assert_eq!(count_rule(&v, "lock-discipline"), 2, "{v:?}");
}

#[test]
fn fixture_locks_condvar_is_caught() {
    let v = lint_fixture("locks_condvar.rs");
    assert_eq!(count_rule(&v, "lock-discipline"), 1, "{v:?}");
    assert!(v.iter().any(|x| x.message.contains("deadlock")), "{v:?}");
}

#[test]
fn fixture_lockfree_mutex_is_caught() {
    // The lock-free pass is scoped by `LOCK_FREE_FILES` in workspace
    // mode (not part of `run_paths`), so exercise it directly on the
    // seeded fixture: Mutex + Condvar type names, `.lock(`, `.wait(`.
    let src = std::fs::read_to_string(fixture("lockfree_mutex.rs")).expect("fixture readable");
    let ft = lint::scan::FileTokens::new("lockfree_mutex.rs", &src);
    let v = lint::rules::locks::check_lockfree(&ft);
    assert_eq!(count_rule(&v, "lock-free"), 6, "{v:?}");
    assert!(v.iter().any(|x| x.message.contains("`Mutex`")), "{v:?}");
    assert!(v.iter().any(|x| x.message.contains(".wait(..)")), "{v:?}");
}

#[test]
fn the_pool_is_in_lock_free_scope() {
    // The whole point of the lock-free pool: if pool.rs leaves the
    // lock-free list (or the list empties), the architecture guarantee
    // is no longer enforced.
    assert!(lint::config::LOCK_FREE_FILES.contains(&"crates/fleet/src/pool.rs"));
    assert!(!lint::config::LOCK_FILES.contains(&"crates/fleet/src/pool.rs"));
}

#[test]
fn clean_controls_stay_clean() {
    for name in ["clean.rs", "wire_ok.rs"] {
        let v = lint_fixture(name);
        assert!(v.is_empty(), "{name}: {v:?}");
    }
    // det_suppressed_ok.rs is clean of determinism findings; its
    // expects are visible to the budget pass, which is fine — assert
    // the rules we seeded it for.
    let v = lint_fixture("det_suppressed_ok.rs");
    assert_eq!(count_rule(&v, "determinism"), 0, "{v:?}");
    assert_eq!(count_rule(&v, "suppression"), 0, "{v:?}");
}

#[test]
fn fixture_reach_cross_file_two_calls_from_the_accept_loop_is_caught() {
    // The acceptance case for the pass: the panic site is two calls
    // below the staged accept loop, and the intermediate hop lives in
    // a different file.
    let v = lint::run_paths(&[fixture("reach_entry.rs"), fixture("reach_helper.rs")])
        .expect("fixtures readable");
    let reach: Vec<_> = v.iter().filter(|x| x.rule == "panic-reach").collect();
    assert!(!reach.is_empty(), "{v:?}");
    assert!(
        reach.iter().any(|x| {
            x.message.contains("Shared::listener")
                && x.message.contains("stage_frame")
                && x.message.contains("decode_header")
        }),
        "witness path must name the full cross-file chain: {reach:?}"
    );
}

#[test]
fn fixture_reach_guarded_by_catch_unwind_is_clean() {
    let v = lint_fixture("reach_guarded.rs");
    assert_eq!(count_rule(&v, "panic-reach"), 0, "{v:?}");
}

#[test]
fn fixture_unsafe_missing_is_caught() {
    // One bare block, one bare `unsafe impl`, one empty SAFETY payload.
    let v = lint_fixture("unsafe_missing.rs");
    assert_eq!(count_rule(&v, "unsafe-audit"), 3, "{v:?}");
    assert!(
        v.iter().any(|x| x.message.contains("read_raw")),
        "finding must name the enclosing symbol: {v:?}"
    );
}

#[test]
fn fixture_unsafe_ok_is_clean() {
    let v = lint_fixture("unsafe_ok.rs");
    assert_eq!(count_rule(&v, "unsafe-audit"), 0, "{v:?}");
}

#[test]
fn fixture_float_libm_is_caught() {
    // `.sin()`, `f64::cos(`, `.mul_add(`, `.powf(` — both call forms.
    let v = lint_fixture("float_libm.rs");
    assert_eq!(count_rule(&v, "float-determinism"), 4, "{v:?}");
}

#[test]
fn fixture_float_exact_is_clean() {
    let v = lint_fixture("float_exact_ok.rs");
    assert_eq!(count_rule(&v, "float-determinism"), 0, "{v:?}");
}

#[test]
fn fixture_hot_alloc_format_is_caught_through_the_subgraph() {
    let v = lint_fixture("hot_alloc_format.rs");
    assert_eq!(count_rule(&v, "hot-alloc"), 1, "{v:?}");
    assert!(
        v.iter()
            .any(|x| x.rule == "hot-alloc" && x.message.contains("step_inner")),
        "finding must carry the witness path from the root: {v:?}"
    );
}

#[test]
fn fixture_hot_alloc_in_tests_and_cold_fns_is_clean() {
    let v = lint_fixture("hot_alloc_test_ok.rs");
    assert_eq!(count_rule(&v, "hot-alloc"), 0, "{v:?}");
}

#[test]
fn reach_and_alloc_roots_resolve_at_head() {
    // `require_roots` fails the workspace run if a root suffix stops
    // resolving; this pins the same invariant (plus the budget
    // symbols) without needing a full lint run to notice config rot.
    let idx = lint::build_workspace_index(&workspace_root()).expect("index builds");
    for root in lint::config::PANIC_REACH_ROOTS
        .iter()
        .chain(lint::config::HOT_ALLOC_ROOTS)
    {
        assert!(
            !idx.table.find_by_suffix(root).is_empty(),
            "config rot: root `{root}` resolves to no workspace symbol"
        );
    }
    for (sym, why) in lint::config::PANIC_REACH_BUDGET {
        assert!(
            !idx.table.find_by_suffix(sym).is_empty(),
            "config rot: budgeted symbol `{sym}` resolves to nothing"
        );
        assert!(
            why.trim().len() >= 20,
            "budget entry `{sym}` needs a real justification"
        );
    }
}

#[test]
fn graph_stats_ratchet_holds_at_head() {
    let bin = env!("CARGO_BIN_EXE_stiglint");
    let out = Command::new(bin)
        .args(["--graph-stats", "--root"])
        .arg(workspace_root())
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "union-edge count exceeds the committed ceiling:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("\"union_fraction\":"), "{text}");
    let ceiling = format!("\"max_union_edges\":{}", lint::config::MAX_UNION_EDGES);
    assert!(text.contains(&ceiling), "{text}");
}

#[test]
fn binary_exit_codes_match_the_ci_contract() {
    let bin = env!("CARGO_BIN_EXE_stiglint");
    // Clean workspace + --deny → 0.
    let ok = Command::new(bin)
        .args(["--workspace", "--deny", "--root"])
        .arg(workspace_root())
        .output()
        .expect("spawn");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // Seeded fixture + --deny → 1.
    let caught = Command::new(bin)
        .args(["--deny", &fixture("det_hashmap.rs")])
        .output()
        .expect("spawn");
    assert_eq!(caught.status.code(), Some(1));

    // Same fixture without --deny → report but exit 0.
    let advisory = Command::new(bin)
        .arg(fixture("det_hashmap.rs"))
        .output()
        .expect("spawn");
    assert!(advisory.status.success());
    assert!(!advisory.stdout.is_empty());

    // Usage error → 2.
    let usage = Command::new(bin).output().expect("spawn");
    assert_eq!(usage.status.code(), Some(2));
}

#[test]
fn json_report_is_stable_and_paracomplete() {
    let bin = env!("CARGO_BIN_EXE_stiglint");
    let run = || {
        Command::new(bin)
            .args(["--json", &fixture("wire_missing.rs")])
            .output()
            .expect("spawn")
            .stdout
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "JSON output must be byte-stable across runs");
    let text = String::from_utf8(a).expect("utf8");
    assert!(text.contains("\"rule\":\"wire-completeness\""), "{text}");
    assert!(text.ends_with("\"count\":1}\n"), "{text}");
}
