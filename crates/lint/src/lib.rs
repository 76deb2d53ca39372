//! `stiglint` — a zero-dependency static analyzer for this workspace.
//!
//! Ten rule passes (no rustc, no syn). Six walk single files' token
//! streams: `determinism`, `panic-safety`, `wire-completeness`,
//! `lock-discipline`, `lock-free`, `float-determinism`. Four reason
//! over the whole workspace through a [`WorkspaceIndex`] — a symbol
//! table ([`symbols`]) plus a conservative call graph ([`callgraph`]):
//! `panic-reach`, `unsafe-audit`, `hot-alloc`, and `dead-pub`;
//! wire-completeness also uses the index to pair enums with codecs
//! across files. See DESIGN.md §11
//! for the rule catalogue, resolution rules, suppression grammar, and
//! false-positive policy.
//!
//! Two entry points:
//!
//! - [`run_workspace`] — the CI mode: applies the policy in
//!   [`config`] (scopes, budgets, roots, the wire pairing table) to a
//!   workspace root.
//! - [`run_paths`] — the fixture/spot-check mode: every pass over the
//!   given files with panic budget 0 and no per-symbol budgets.

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symbols;

use std::fs;
use std::io;
use std::path::Path;

use callgraph::CallGraph;
use scan::FileTokens;
use symbols::SymbolTable;

/// One finding. `rule` is the pass's stable name (used in suppression
/// comments and JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (or the path as given in file mode).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// The lexed workspace plus its symbol table and call graph — the
/// input the semantic passes share. Building it once and handing it
/// to every pass keeps the whole ten-pass run at one read and one
/// lex per file.
#[derive(Debug)]
pub struct WorkspaceIndex {
    /// Lexed files; `files[i].path` is the report path.
    pub files: Vec<FileTokens>,
    /// The symbol index over `files`.
    pub table: SymbolTable,
    /// The call graph over `table`.
    pub graph: CallGraph,
}

impl WorkspaceIndex {
    /// Builds the index from already-lexed files.
    #[must_use]
    fn new(files: Vec<FileTokens>) -> Self {
        let paths: Vec<String> = files.iter().map(|f| f.path.clone()).collect();
        let table = SymbolTable::build(&paths, &files);
        let graph = CallGraph::build(&table, &files);
        Self {
            files,
            table,
            graph,
        }
    }

    /// Builds the index straight from `(path, source)` pairs — the
    /// form every unit test uses.
    #[must_use]
    pub fn from_sources(srcs: &[(&str, &str)]) -> Self {
        Self::new(srcs.iter().map(|(p, s)| FileTokens::new(p, s)).collect())
    }

    /// The index of the file reported as `path`.
    #[must_use]
    fn file_idx(&self, path: &str) -> Option<usize> {
        self.files.iter().position(|f| f.path == path)
    }
}

fn load(root: &Path, rel: &str) -> io::Result<FileTokens> {
    let src = fs::read_to_string(root.join(rel))?;
    Ok(FileTokens::new(rel, &src))
}

/// Runs the full workspace policy rooted at `root` (the directory
/// holding the workspace `Cargo.toml`). Returns finalized (sorted,
/// deduplicated) violations.
pub fn run_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let idx = build_workspace_index(root)?;
    let mut out = Vec::new();

    // Malformed suppressions anywhere in the index are violations.
    for ft in &idx.files {
        out.extend(ft.scan_violations.iter().cloned());
    }

    // Pass 1: determinism over the deterministic scope.
    for rel in config::deterministic_files(root)? {
        if let Some(fi) = idx.file_idx(&rel) {
            out.extend(rules::determinism::check(&idx.files[fi]));
        }
    }

    // Pass 2: panic-safety over the gateway, with per-file budgets.
    for rel in config::panic_files(root)? {
        if let Some(fi) = idx.file_idx(&rel) {
            out.extend(rules::panics::check(
                &idx.files[fi],
                config::panic_budget(&rel),
            ));
        }
    }

    // Pass 3: wire-completeness — the explicit table, then symbol-
    // graph inference for every other enum with a codec impl, wherever
    // the impl lives.
    for pairing in config::wire_pairings() {
        match (
            idx.file_idx(pairing.enum_file),
            idx.file_idx(pairing.codec_file),
        ) {
            (Some(ei), Some(ci)) => out.extend(rules::wire_complete::check_pairing(
                &pairing,
                &idx.files[ei],
                &idx.files[ci],
            )),
            _ => out.push(Violation {
                file: pairing.enum_file.to_string(),
                line: 1,
                rule: rules::wire_complete::RULE,
                message: format!(
                    "wire-completeness table references unreadable file(s) `{}`/`{}`",
                    pairing.enum_file, pairing.codec_file
                ),
            }),
        }
    }
    out.extend(rules::wire_complete::check_inferred_workspace(
        &idx,
        &config::wire_pairings(),
    ));

    // Pass 4: lock-discipline over the gateway connections.
    for rel in config::LOCK_FILES {
        if let Some(fi) = idx.file_idx(rel) {
            out.extend(rules::locks::check(&idx.files[fi]));
        }
    }

    // Pass 5: lock-free over the pool's claim path — no blocking
    // synchronization primitives at all.
    for rel in config::LOCK_FREE_FILES {
        if let Some(fi) = idx.file_idx(rel) {
            out.extend(rules::locks::check_lockfree(&idx.files[fi]));
        }
    }

    // Pass 6: float-determinism over the deterministic scope minus the
    // vetted wrapper crate.
    for rel in config::float_files(root)? {
        if let Some(fi) = idx.file_idx(&rel) {
            out.extend(rules::float_det::check(&idx.files[fi]));
        }
    }

    // Pass 7: unsafe-audit over everything indexed.
    out.extend(rules::unsafe_audit::check(&idx));

    // Pass 8: panic-reachability from the entry loops.
    out.extend(rules::panic_reach::check(
        &idx,
        &rules::panic_reach::ReachPolicy {
            roots: config::PANIC_REACH_ROOTS,
            budget: config::PANIC_REACH_BUDGET,
            require_roots: true,
        },
    ));

    // Pass 9: hot-path-alloc over the activation subgraph.
    out.extend(rules::hot_alloc::check(
        &idx,
        &rules::hot_alloc::AllocPolicy {
            roots: config::HOT_ALLOC_ROOTS,
            crates: Some(config::HOT_ALLOC_CRATES),
            require_roots: true,
        },
    ));

    // Pass 10: dead-pub over every crate's `src/`, under its ceiling.
    out.extend(rules::dead_pub::check(
        &idx,
        config::defines_pub,
        config::MAX_DEAD_PUB,
    ));

    report::finalize(&mut out);
    Ok(out)
}

/// Builds the [`WorkspaceIndex`] for the workspace at `root` — the
/// files [`config::workspace_files`] lists, loaded and lexed once.
pub fn build_workspace_index(root: &Path) -> io::Result<WorkspaceIndex> {
    let mut files = Vec::new();
    for rel in config::workspace_files(root)? {
        files.push(load(root, &rel)?);
    }
    Ok(WorkspaceIndex::new(files))
}

/// Runs every pass over explicit files: panic budget 0, no per-symbol
/// budgets, inference-driven wire pairing, lock discipline, the
/// graph passes rooted at the same configured root suffixes (so a
/// fixture tree can stage a `Shared::listener` of its own), and
/// dead-pub with ceiling 0 — the mode fixtures and spot checks use.
pub fn run_paths(paths: &[String]) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for p in paths {
        let src = fs::read_to_string(p)?;
        files.push(FileTokens::new(p, &src));
    }
    let idx = WorkspaceIndex::new(files);
    let mut out = Vec::new();
    for ft in &idx.files {
        out.extend(ft.scan_violations.iter().cloned());
        out.extend(rules::determinism::check(ft));
        out.extend(rules::panics::check(ft, 0));
        out.extend(rules::locks::check(ft));
        out.extend(rules::float_det::check(ft));
    }
    out.extend(rules::wire_complete::check_inferred_workspace(&idx, &[]));
    out.extend(rules::unsafe_audit::check(&idx));
    out.extend(rules::panic_reach::check(
        &idx,
        &rules::panic_reach::ReachPolicy {
            roots: config::PANIC_REACH_ROOTS,
            budget: &[],
            require_roots: false,
        },
    ));
    out.extend(rules::hot_alloc::check(
        &idx,
        &rules::hot_alloc::AllocPolicy {
            roots: config::HOT_ALLOC_ROOTS,
            crates: None,
            require_roots: false,
        },
    ));
    out.extend(rules::dead_pub::check(&idx, |_| true, 0));
    report::finalize(&mut out);
    Ok(out)
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
