//! Hot-path-alloc pass: no allocation in the engine-activation call
//! subgraph.
//!
//! PR 5's runtime ratchet (`allocs-per-activation` in
//! `crates/core/tests/alloc_budget.rs`) catches regressions that the
//! benchmark exercises; this pass catches them statically, before a
//! benchmark run, and in paths the benchmark doesn't cover. Starting
//! from the configured roots (the activation step), every fn reachable
//! inside the hot crates is scanned for the allocating constructs:
//! `format!` / `vec!`, `Vec::new` / `Box::new` / `String::new`,
//! `.to_string()` / `.to_owned()`, `.collect(`, and `.push(`.
//!
//! `.push(` is listed deliberately even though pushing within
//! preallocated capacity does not allocate — that is precisely the
//! scratch idiom — because the *pass* cannot see capacity. Each
//! scratch push carries a suppression naming where the capacity is
//! reserved, so the invariant is written next to the line that
//! depends on it.

use crate::lexer::TokKind;
use crate::Violation;
use crate::WorkspaceIndex;

pub const RULE: &str = "hot-alloc";

/// Pass configuration.
pub struct AllocPolicy<'a> {
    /// Symbol-path suffixes of the hot-loop roots.
    pub roots: &'a [&'a str],
    /// Crates the subgraph walk may enter (`None` = everywhere). The
    /// workspace policy restricts the walk to the engine/fleet crates:
    /// the core protocols legitimately allocate amortized during
    /// transmission and are governed by the runtime ratchet instead.
    pub crates: Option<&'a [&'a str]>,
    /// Whether a root suffix matching no symbol is itself a violation.
    pub require_roots: bool,
}

const ALLOC_MACROS: &[&str] = &["format", "vec"];
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "collect", "push"];
const ALLOC_CTOR_TYPES: &[&str] = &["Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet"];

/// Runs the pass over an indexed workspace.
#[must_use]
pub fn check(idx: &WorkspaceIndex, policy: &AllocPolicy) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut roots = Vec::new();
    for suffix in policy.roots {
        let ids = idx.table.find_by_suffix(suffix);
        if ids.is_empty() && policy.require_roots {
            out.push(Violation {
                file: "crates/lint/src/config.rs".to_string(),
                line: 1,
                rule: RULE,
                message: format!(
                    "hot-alloc root `{suffix}` matches no workspace symbol; \
                     the hot loop moved — update HOT_ALLOC_ROOTS"
                ),
            });
        }
        roots.extend(ids);
    }
    let in_scope = |id: usize| {
        let f = &idx.table.fns[id];
        if f.is_test {
            return false;
        }
        match policy.crates {
            None => true,
            Some(crates) => {
                let krate = f.module.split("::").next().unwrap_or("");
                crates.contains(&krate)
            }
        }
    };
    let (reachable, pred) = idx.graph.reachable(&roots, in_scope);
    for &fn_id in &reachable {
        let f = &idx.table.fns[fn_id];
        if f.is_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let ft = &idx.files[f.file_idx];
        for (line, what) in alloc_sites(ft, open, close) {
            if ft.is_suppressed(RULE, line) {
                continue;
            }
            let witness = idx.graph.witness_path(&idx.table, &pred, fn_id);
            out.push(Violation {
                file: ft.path.clone(),
                line,
                rule: RULE,
                message: format!(
                    "{what} in the hot path via `{witness}`; preallocate scratch \
                     in the constructor and reuse it, or suppress with the line \
                     that reserves capacity"
                ),
            });
        }
    }
    out
}

/// Allocating constructs in a body span: `(line, description)`.
fn alloc_sites(ft: &crate::scan::FileTokens, open: usize, close: usize) -> Vec<(u32, String)> {
    let code: Vec<usize> = ft
        .code_indices()
        .into_iter()
        .filter(|&i| i > open && i < close)
        .collect();
    let mut out = Vec::new();
    for (c, &i) in code.iter().enumerate() {
        let t = &ft.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = |k: usize| code.get(c + k).map(|&j| &ft.toks[j]);
        if ALLOC_MACROS.contains(&t.text.as_str()) && next(1).is_some_and(|n| n.is_punct('!')) {
            out.push((t.line, format!("allocating macro `{}!`", t.text)));
            continue;
        }
        if ALLOC_METHODS.contains(&t.text.as_str())
            && c > 0
            && ft.toks[code[c - 1]].is_punct('.')
            && next(1).is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
        {
            out.push((t.line, format!("allocating call `.{}(`", t.text)));
            continue;
        }
        if ALLOC_CTOR_TYPES.contains(&t.text.as_str())
            && next(1).is_some_and(|n| n.is_punct(':'))
            && next(2).is_some_and(|n| n.is_punct(':'))
            && next(3).is_some_and(|n| {
                n.is_ident("new") || n.is_ident("with_capacity") || n.is_ident("from")
            })
        {
            let ctor = next(3).map(|n| n.text.clone()).unwrap_or_default();
            out.push((
                t.line,
                format!("allocating constructor `{}::{ctor}`", t.text),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkspaceIndex;

    const POLICY: AllocPolicy<'static> = AllocPolicy {
        roots: &["Engine::step_inner"],
        crates: None,
        require_roots: false,
    };

    fn run(srcs: &[(&str, &str)]) -> Vec<Violation> {
        check(&WorkspaceIndex::from_sources(srcs), &POLICY)
    }

    #[test]
    fn format_in_a_reachable_helper_is_flagged() {
        let v = run(&[(
            "crates/robots/src/engine.rs",
            "pub struct Engine;\nimpl Engine { pub fn step_inner(&mut self) { emit(1); } }\n\
             fn emit(n: usize) { let _s = format!(\"step {n}\"); }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`format!`"));
        assert!(v[0]
            .message
            .contains("Engine::step_inner -> robots::engine::emit"));
    }

    #[test]
    fn push_and_collect_and_ctors_are_flagged() {
        let v = run(&[(
            "crates/robots/src/engine.rs",
            "pub struct Engine;\nimpl Engine { pub fn step_inner(&mut self, xs: &[u8]) {\n\
             let mut v = Vec::new();\n    v.push(1);\n    let _c: Vec<u8> = xs.iter().copied().collect();\n} }",
        )]);
        let kinds: Vec<&str> = v
            .iter()
            .map(|x| x.message.split(" in the hot").next().unwrap())
            .collect();
        assert_eq!(v.len(), 3, "{kinds:?}");
    }

    #[test]
    fn allocations_outside_the_subgraph_are_fine() {
        assert!(run(&[(
            "crates/robots/src/engine.rs",
            "pub struct Engine;\nimpl Engine { pub fn step_inner(&mut self) {} }\n\
             pub fn cold_path() { let _s = format!(\"report\"); }",
        )])
        .is_empty());
    }

    #[test]
    fn crate_filter_keeps_the_walk_out_of_excluded_crates() {
        let v = check(
            &WorkspaceIndex::from_sources(&[
                (
                    "crates/robots/src/engine.rs",
                    "use stigmergy::proto::transmit;\npub struct Engine;\n\
                     impl Engine { pub fn step_inner(&mut self) { transmit(); } }",
                ),
                (
                    "crates/core/src/proto.rs",
                    "pub fn transmit() { let _b = Vec::new(); }",
                ),
            ]),
            &AllocPolicy {
                crates: Some(&["robots"]),
                ..POLICY
            },
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn suppressed_scratch_push_is_accepted() {
        assert!(run(&[(
            "crates/robots/src/engine.rs",
            "pub struct Engine;\nimpl Engine { pub fn step_inner(&mut self, d: &mut Vec<u8>) {\n\
             // stiglint: allow(hot-alloc) -- scratch preallocated to n in Engine::new\n\
             d.push(1);\n} }",
        )])
        .is_empty());
    }

    #[test]
    fn test_fns_are_outside_the_subgraph() {
        assert!(run(&[(
            "crates/robots/src/engine.rs",
            "pub struct Engine;\nimpl Engine { pub fn step_inner(&mut self) {} }\n\
             #[cfg(test)]\nmod tests { fn t() { let _v = vec![1]; } }",
        )])
        .is_empty());
    }
}
