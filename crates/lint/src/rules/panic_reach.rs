//! Panic-reachability pass: no panic site may be reachable from the
//! gateway accept/IO loops or the fleet pool's entry points.
//!
//! The per-file `panic-safety` budgets count sites; they cannot see a
//! panic two calls deep in another crate. This pass walks the
//! workspace call graph from the configured roots and tags every
//! panic site in every reachable fn:
//!
//! - `unwrap(` / `expect(` — panics on `None`/`Err`;
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!` /
//!   `assert*!` — unconditional or assertion panics;
//! - indexing/slicing (`x[..]`) — out-of-bounds panics;
//! - division/remainder by a non-literal — divide-by-zero panics
//!   (a literal divisor cannot be zero without failing to compile
//!   anything useful, and float division never panics, so literal
//!   divisors are exempt).
//!
//! A site survives only if one of three shields covers it: it sits
//! inside a `catch_unwind(...)` argument span (the graph does not
//! cross those edges either), the enclosing symbol has an entry in
//! the per-symbol budget table (each entry carries a one-line
//! justification in `config.rs`), or a regular suppression comment
//! covers the line. Every violation prints the witness call path
//! from the root so the finding is checkable by eye.

use crate::lexer::TokKind;
use crate::Violation;
use crate::WorkspaceIndex;

pub const RULE: &str = "panic-reach";

const HARD_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Pass configuration: roots and the budget table.
pub struct ReachPolicy<'a> {
    /// Symbol-path suffixes of the entry loops (`Shared::listener`).
    pub roots: &'a [&'a str],
    /// `(symbol-path suffix, justification)` — sites inside a budgeted
    /// symbol are accepted. The justification is part of the reviewed
    /// policy, not decoration.
    pub budget: &'a [(&'a str, &'a str)],
    /// Whether a root suffix matching no symbol is itself a violation
    /// (on in workspace mode, off for fixture trees that exercise a
    /// subset of the roots).
    pub require_roots: bool,
}

/// Runs the pass over an indexed workspace.
#[must_use]
pub fn check(idx: &WorkspaceIndex, policy: &ReachPolicy) -> Vec<Violation> {
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
                    "panic-reach root `{suffix}` matches no workspace symbol; \
                     the entry loop moved — update PANIC_REACH_ROOTS"
                ),
            });
        }
        roots.extend(ids);
    }
    let (reachable, pred) = idx.graph.reachable(&roots, |id| !idx.table.fns[id].is_test);
    for &fn_id in &reachable {
        let f = &idx.table.fns[fn_id];
        if f.is_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let path = f.path();
        if budgeted(policy, &path) {
            continue;
        }
        let ft = &idx.files[f.file_idx];
        for (line, tok_idx, what) in panic_sites(ft, open, close) {
            if idx.graph.is_protected(f.file_idx, tok_idx) || ft.is_suppressed(RULE, line) {
                continue;
            }
            let witness = idx.graph.witness_path(&idx.table, &pred, fn_id);
            out.push(Violation {
                file: ft.path.clone(),
                line,
                rule: RULE,
                message: format!(
                    "{what} reachable from an entry loop via `{witness}`; \
                     shield it with catch_unwind, remove it, or budget `{path}` \
                     in PANIC_REACH_BUDGET with a justification"
                ),
            });
        }
    }
    out
}

fn budgeted(policy: &ReachPolicy, path: &str) -> bool {
    policy
        .budget
        .iter()
        .any(|(suffix, _)| path == *suffix || path.ends_with(&format!("::{suffix}")))
}

/// Panic sites in the body token span `(open, close)`:
/// `(line, tok_idx, description)`.
#[must_use]
pub fn panic_sites(
    ft: &crate::scan::FileTokens,
    open: usize,
    close: usize,
) -> Vec<(u32, usize, String)> {
    let code: Vec<usize> = ft
        .code_indices()
        .into_iter()
        .filter(|&i| i > open && i < close)
        .collect();
    let mut out = Vec::new();
    for (c, &i) in code.iter().enumerate() {
        let t = &ft.toks[i];
        let next = |k: usize| code.get(c + k).map(|&j| &ft.toks[j]);
        let prev = |k: usize| c.checked_sub(k).map(|p| &ft.toks[code[p]]);
        match t.kind {
            TokKind::Ident => {
                let next_paren = next(1).is_some_and(|t| t.is_punct('('));
                let next_bang = next(1).is_some_and(|t| t.is_punct('!'));
                if (t.text == "unwrap" || t.text == "expect") && next_paren {
                    out.push((t.line, i, format!("`.{}()` panic site", t.text)));
                } else if HARD_MACROS.contains(&t.text.as_str()) && next_bang {
                    out.push((t.line, i, format!("`{}!` panic site", t.text)));
                }
            }
            TokKind::Punct if t.text == "[" => {
                let indexes = prev(1).is_some_and(|p| {
                    (p.kind == TokKind::Ident && !is_expr_keyword(&p.text))
                        || p.is_punct(')')
                        || p.is_punct(']')
                });
                if indexes {
                    out.push((t.line, i, "indexing/slicing panic site".to_string()));
                }
            }
            TokKind::Punct if t.text == "/" || t.text == "%" => {
                let lhs_expr = prev(1).is_some_and(|p| {
                    (p.kind == TokKind::Ident && !is_expr_keyword(&p.text))
                        || p.kind == TokKind::Num
                        || p.is_punct(')')
                        || p.is_punct(']')
                });
                let rhs_nonliteral = next(1).is_some_and(|n| {
                    (n.kind == TokKind::Ident && !is_expr_keyword(&n.text)) || n.is_punct('(')
                });
                if lhs_expr && rhs_nonliteral {
                    out.push((
                        t.line,
                        i,
                        format!("`{}` by non-literal divisor panic site", t.text),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "break"
            | "in"
            | "if"
            | "else"
            | "match"
            | "loop"
            | "while"
            | "move"
            | "mut"
            | "let"
            | "as"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkspaceIndex;

    fn idx(srcs: &[(&str, &str)]) -> WorkspaceIndex {
        WorkspaceIndex::from_sources(srcs)
    }

    const POLICY: ReachPolicy<'static> = ReachPolicy {
        roots: &["Shared::listener"],
        budget: &[],
        require_roots: false,
    };

    #[test]
    fn panic_two_files_away_from_the_accept_loop_is_flagged() {
        let w = idx(&[
            (
                "crates/gw/src/server.rs",
                "use stigmergy_sched::plan::prepare;\npub struct Shared;\n\
                 impl Shared { pub fn listener(&self) { prepare(3); } }",
            ),
            (
                "crates/sched/src/plan.rs",
                "pub fn prepare(n: usize) { deep(n); }\nfn deep(n: usize) { let _ = opt(n).unwrap(); }\nfn opt(n: usize) -> Option<usize> { Some(n) }",
            ),
        ]);
        let v = check(&w, &POLICY);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`.unwrap()`"));
        assert!(v[0]
            .message
            .contains("gw::server::Shared::listener -> sched::plan::prepare -> sched::plan::deep"));
    }

    #[test]
    fn catch_unwind_shields_both_edges_and_sites() {
        let w = idx(&[(
            "crates/gw/src/server.rs",
            "pub struct Shared;\nimpl Shared {\n\
             pub fn listener(&self) { std::panic::catch_unwind(|| { risky() }).ok(); }\n}\n\
             fn risky() { panic!(\"contained\") }",
        )]);
        assert!(check(&w, &POLICY).is_empty());
    }

    #[test]
    fn budget_entries_accept_a_symbol_by_suffix() {
        let w = idx(&[(
            "crates/gw/src/server.rs",
            "pub struct Shared;\nimpl Shared { pub fn listener(&self) { self.accept(); }\n\
             fn accept(&self) { x().expect(\"poisoned\"); }\n}\nfn x() -> Option<u8> { None }",
        )]);
        assert_eq!(check(&w, &POLICY).len(), 1);
        let budgeted = ReachPolicy {
            budget: &[("Shared::accept", "lock poisoning is already a crash")],
            ..POLICY
        };
        assert!(check(&w, &budgeted).is_empty());
    }

    #[test]
    fn unreachable_panics_are_ignored() {
        let w = idx(&[(
            "crates/gw/src/server.rs",
            "pub struct Shared;\nimpl Shared { pub fn listener(&self) {} }\n\
             pub fn elsewhere() { x.unwrap(); }",
        )]);
        assert!(check(&w, &POLICY).is_empty());
    }

    #[test]
    fn division_by_non_literal_counts_literal_does_not() {
        let w = idx(&[(
            "crates/gw/src/server.rs",
            "pub struct Shared;\nimpl Shared { pub fn listener(&self, n: usize, d: usize) {\n\
             let _a = n / 1000;\n    let _b = n % d;\n} }",
        )]);
        let v = check(&w, &POLICY);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains('%'));
    }

    #[test]
    fn missing_root_is_flagged_only_when_required() {
        let w = idx(&[("crates/gw/src/lib.rs", "pub fn f() {}")]);
        assert!(check(&w, &POLICY).is_empty());
        let strict = ReachPolicy {
            require_roots: true,
            ..POLICY
        };
        let v = check(&w, &strict);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("matches no workspace symbol"));
    }

    #[test]
    fn suppression_comment_covers_a_site() {
        let w = idx(&[(
            "crates/gw/src/server.rs",
            "pub struct Shared;\nimpl Shared { pub fn listener(&self, v: &[u8]) {\n\
             // stiglint: allow(panic-reach) -- length checked by the frame header above\n\
             let _ = v[0];\n} }",
        )]);
        assert!(check(&w, &POLICY).is_empty());
    }
}
