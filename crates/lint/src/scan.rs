//! Token-stream scanning: test exclusion, suppressions, item spans.
//!
//! [`FileTokens`] is the currency every rule pass consumes: the lexed
//! stream of one file plus a parallel `in_test` mask (anything under
//! `#[cfg(test)]` or `#[test]` is invisible to the passes — test code
//! may unwrap and hash to its heart's content) and the file's parsed
//! [`Suppression`]s.
//!
//! The suppression grammar is deliberately rigid:
//!
//! ```text
//! // stiglint: allow(<rule>) -- <non-empty reason>
//! ```
//!
//! on the flagged line or the line directly above it. A comment that
//! addresses the linter but fails to parse — wrong shape, unknown
//! syntax, or a missing/empty reason — is itself a violation, so a
//! suppression can never silently rot into a no-op.

use crate::lexer::{lex, Tok, TokKind};
use crate::Violation;

/// One parsed `allow(...)` suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule being allowed (e.g. `determinism`).
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// The comment's line.
    pub line: u32,
}

/// A lexed file ready for the rule passes.
#[derive(Debug)]
pub struct FileTokens {
    /// Workspace-relative path, used in reports.
    pub path: String,
    /// The full token stream, comments included.
    pub toks: Vec<Tok>,
    /// Parallel mask: `true` where the token belongs to test code.
    pub in_test: Vec<bool>,
    /// Every well-formed suppression in the file.
    pub suppressions: Vec<Suppression>,
    /// Violations found during scanning itself (malformed suppressions).
    pub scan_violations: Vec<Violation>,
}

impl FileTokens {
    /// Lexes and scans one file's source.
    #[must_use]
    pub fn new(path: &str, src: &str) -> Self {
        let toks = lex(src);
        let in_test = mark_test_spans(&toks);
        let (suppressions, scan_violations) = parse_suppressions(path, &toks);
        Self {
            path: path.to_string(),
            toks,
            in_test,
            suppressions,
            scan_violations,
        }
    }

    /// Whether a violation of `rule` at `line` is covered by a
    /// suppression on the same line or the line directly above.
    #[must_use]
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }

    /// Indices of non-comment, non-test tokens, in order — the stream
    /// the determinism/panic/lock passes walk.
    #[must_use]
    pub fn code_indices(&self) -> Vec<usize> {
        (0..self.toks.len())
            .filter(|&i| !self.toks[i].is_comment() && !self.in_test[i])
            .collect()
    }

    /// Indices of non-comment tokens including test code — the stream
    /// item-span searches walk (an enum is an enum wherever it sits).
    #[must_use]
    pub fn all_code_indices(&self) -> Vec<usize> {
        (0..self.toks.len())
            .filter(|&i| !self.toks[i].is_comment())
            .collect()
    }
}

/// Marks every token covered by a `#[test]` / `#[cfg(test)]` item.
fn mark_test_spans(toks: &[Tok]) -> Vec<bool> {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut mask = vec![false; toks.len()];
    let mut c = 0usize;
    while c < code.len() {
        if toks[code[c]].is_punct('#') && c + 1 < code.len() && toks[code[c + 1]].is_punct('[') {
            let attr_start_tok = code[c];
            let (idents, after) = read_attr(toks, &code, c + 1);
            if is_test_attr(&idents) {
                // Consume any further attributes stacked on the item.
                let mut c2 = after;
                while c2 + 1 < code.len()
                    && toks[code[c2]].is_punct('#')
                    && toks[code[c2 + 1]].is_punct('[')
                {
                    let (_, a) = read_attr(toks, &code, c2 + 1);
                    c2 = a;
                }
                // The item body: either `… ;` before any brace (e.g.
                // `mod tests;`) or the first `{ … }` group.
                let mut depth = 0usize;
                let mut end = c2;
                while end < code.len() {
                    let t = &toks[code[end]];
                    if t.is_punct(';') && depth == 0 {
                        break;
                    }
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    end += 1;
                }
                let end_tok = if end < code.len() {
                    code[end]
                } else {
                    toks.len() - 1
                };
                for slot in &mut mask[attr_start_tok..=end_tok] {
                    *slot = true;
                }
                c = end + 1;
                continue;
            }
            c = after;
            continue;
        }
        c += 1;
    }
    mask
}

/// Reads one `[ … ]` attribute group starting at `code[open]` (the `[`),
/// returning the idents inside and the code index just past the `]`.
fn read_attr(toks: &[Tok], code: &[usize], open: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut c = open;
    while c < code.len() {
        let t = &toks[code[c]];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (idents, c + 1);
            }
        } else if t.kind == TokKind::Ident {
            idents.push(t.text.clone());
        }
        c += 1;
    }
    (idents, c)
}

/// Whether an attribute's idents mark a test item. `#[cfg(not(test))]`
/// is production code and must NOT match.
fn is_test_attr(idents: &[String]) -> bool {
    match idents.first().map(String::as_str) {
        Some("test") if idents.len() == 1 => true,
        Some("cfg") => idents.iter().any(|i| i == "test") && !idents.iter().any(|i| i == "not"),
        _ => false,
    }
}

/// Extracts suppressions from line comments; malformed ones become
/// violations.
fn parse_suppressions(path: &str, toks: &[Tok]) -> (Vec<Suppression>, Vec<Violation>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let Some(at) = t.text.find("stiglint:") else {
            continue;
        };
        let rest = t.text[at + "stiglint:".len()..].trim();
        match parse_allow(rest) {
            Some((rule, reason)) if !reason.is_empty() => ok.push(Suppression {
                rule: rule.to_string(),
                reason: reason.to_string(),
                line: t.line,
            }),
            _ => bad.push(Violation {
                file: path.to_string(),
                line: t.line,
                rule: "suppression",
                message: format!(
                    "malformed suppression {:?}: expected `stiglint: allow(<rule>) -- <reason>` \
                     with a non-empty reason",
                    t.text.trim_start_matches('/').trim()
                ),
            }),
        }
    }
    (ok, bad)
}

/// Parses `allow(<rule>) -- <reason>`; `None` if the shape is wrong.
fn parse_allow(rest: &str) -> Option<(&str, &str)> {
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim();
    if rule.is_empty() || rule.contains(char::is_whitespace) {
        return None;
    }
    let tail = rest[close + 1..].trim();
    let reason = tail.strip_prefix("--")?.trim();
    Some((rule, reason))
}

/// An `impl … Name { … }` or `enum Name { … }` span, as token
/// indices into the owning file's stream.
#[derive(Debug, Clone, Copy)]
pub struct ItemSpan {
    /// Index of the opening `{`.
    pub open: usize,
    /// Index of the matching `}`.
    pub close: usize,
    /// Line of the item's name token.
    pub line: u32,
}

/// Finds all `enum <name> { … }` definitions, by name.
#[must_use]
pub fn find_enums(ft: &FileTokens) -> Vec<(String, ItemSpan)> {
    find_items(ft, "enum")
}

/// Finds all `impl <name> { … }` and `impl <Trait> for <name> { … }`
/// blocks, by the implementing type's name: a codec may live in an
/// inherent impl or in a trait impl such as `impl Wire for Spec`.
#[must_use]
pub fn find_impls(ft: &FileTokens) -> Vec<(String, ItemSpan)> {
    find_items(ft, "impl")
}

/// Finds `<keyword> <header> { … }` items named by their header: the
/// ident after `for` in `impl Trait for Name`, else a lone ident.
fn find_items(ft: &FileTokens, keyword: &str) -> Vec<(String, ItemSpan)> {
    let code = ft.all_code_indices();
    let mut out = Vec::new();
    let mut c = 0usize;
    while c < code.len() {
        if ft.toks[code[c]].is_ident(keyword) {
            let end = (c + 1..code.len())
                .find(|&h| ft.toks[code[h]].is_punct('{') || ft.toks[code[h]].is_punct(';'));
            if let Some(b) = end.filter(|&b| ft.toks[code[b]].is_punct('{')) {
                let header = &code[c + 1..b];
                let name = match header.iter().position(|&i| ft.toks[i].is_ident("for")) {
                    Some(f) => header.get(f + 1),
                    None if header.len() == 1 => header.first(),
                    None => None,
                }
                .map(|&i| &ft.toks[i])
                .filter(|t| t.kind == TokKind::Ident);
                if let (Some(name), Some(close)) = (name, match_brace(ft, &code, b)) {
                    out.push((
                        name.text.clone(),
                        ItemSpan {
                            open: code[b],
                            close: code[close],
                            line: name.line,
                        },
                    ));
                    c = close;
                    continue;
                }
            }
        }
        c += 1;
    }
    out
}

/// Given `code[open_c]` is a `{`, returns the code index of its `}`.
fn match_brace(ft: &FileTokens, code: &[usize], open_c: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (c, &i) in code.iter().enumerate().skip(open_c) {
        if ft.toks[i].is_punct('{') {
            depth += 1;
        } else if ft.toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(c);
            }
        }
    }
    None
}

/// Finds `fn <name>` bodies inside an item span, returning
/// `(open, close)` token indices of each body's braces.
#[must_use]
pub fn find_fn_bodies(ft: &FileTokens, span: ItemSpan) -> Vec<(String, usize, usize)> {
    let code: Vec<usize> = ft
        .all_code_indices()
        .into_iter()
        .filter(|&i| i > span.open && i < span.close)
        .collect();
    let mut out = Vec::new();
    let mut c = 0usize;
    while c + 1 < code.len() {
        if ft.toks[code[c]].is_ident("fn") && ft.toks[code[c + 1]].kind == TokKind::Ident {
            let name = ft.toks[code[c + 1]].text.clone();
            // Skip the signature to the body's `{` (no stray braces can
            // appear in a signature at this level).
            let mut b = c + 2;
            while b < code.len() && !ft.toks[code[b]].is_punct('{') {
                b += 1;
            }
            if b < code.len() {
                if let Some(close) = match_brace(ft, &code, b) {
                    out.push((name, code[b], code[close]));
                    c = close;
                    continue;
                }
            }
        }
        c += 1;
    }
    out
}

/// Collects the variant names of an enum body.
#[must_use]
pub fn enum_variants(ft: &FileTokens, span: ItemSpan) -> Vec<String> {
    let code: Vec<usize> = ft
        .all_code_indices()
        .into_iter()
        .filter(|&i| i > span.open && i < span.close)
        .collect();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut expecting = true;
    let mut c = 0usize;
    while c < code.len() {
        let t = &ft.toks[code[c]];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 {
            if t.is_punct('#') {
                // Variant attribute: skip the `[ … ]` group.
                let mut d = 0usize;
                c += 1;
                while c < code.len() {
                    let a = &ft.toks[code[c]];
                    if a.is_punct('[') {
                        d += 1;
                    } else if a.is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    c += 1;
                }
            } else if t.is_punct(',') {
                expecting = true;
            } else if expecting && t.kind == TokKind::Ident {
                out.push(t.text.clone());
                expecting = false;
            }
        }
        c += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(src: &str) -> FileTokens {
        FileTokens::new("test.rs", src)
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let f = ft(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}",
        );
        let visible: Vec<String> = f
            .code_indices()
            .into_iter()
            .filter(|&i| f.toks[i].kind == crate::lexer::TokKind::Ident)
            .map(|i| f.toks[i].text.clone())
            .collect();
        assert!(visible.contains(&"live".to_string()));
        assert!(visible.contains(&"live2".to_string()));
        assert!(!visible.contains(&"unwrap".to_string()));
    }

    #[test]
    fn test_fns_and_stacked_attrs_are_masked() {
        let f = ft(
            "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { a.unwrap(); }\nfn live() {}",
        );
        let visible: Vec<String> = f
            .code_indices()
            .into_iter()
            .map(|i| f.toks[i].text.clone())
            .collect();
        assert!(!visible.contains(&"unwrap".to_string()));
        assert!(visible.contains(&"live".to_string()));
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let f = ft("#[cfg(not(test))]\nfn live() { a.unwrap(); }");
        let visible: Vec<String> = f
            .code_indices()
            .into_iter()
            .map(|i| f.toks[i].text.clone())
            .collect();
        assert!(visible.contains(&"unwrap".to_string()));
    }

    #[test]
    fn module_declaration_without_body_is_masked_to_semicolon() {
        let f = ft("#[cfg(test)]\nmod tests;\nfn live() {}");
        let visible: Vec<String> = f
            .code_indices()
            .into_iter()
            .map(|i| f.toks[i].text.clone())
            .collect();
        assert!(visible.contains(&"live".to_string()));
        assert!(!visible.contains(&"tests".to_string()));
    }

    #[test]
    fn suppressions_parse_with_reasons() {
        let f =
            ft("let x = 1; // stiglint: allow(determinism) -- keyed access only, never iterated\n");
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].rule, "determinism");
        assert!(f.scan_violations.is_empty());
        assert!(f.is_suppressed("determinism", 1));
        assert!(f.is_suppressed("determinism", 2)); // line below the comment
        assert!(!f.is_suppressed("determinism", 3));
        assert!(!f.is_suppressed("panic-safety", 1));
    }

    #[test]
    fn suppressions_without_reason_are_violations() {
        for src in [
            "// stiglint: allow(determinism)\n",
            "// stiglint: allow(determinism) --\n",
            "// stiglint: allow(determinism) --   \n",
            "// stiglint: allow() -- reason\n",
            "// stiglint: deny(determinism) -- reason\n",
        ] {
            let f = ft(src);
            assert!(f.suppressions.is_empty(), "{src:?}");
            assert_eq!(f.scan_violations.len(), 1, "{src:?}");
            assert_eq!(f.scan_violations[0].rule, "suppression");
        }
    }

    #[test]
    fn enum_variants_and_fn_bodies() {
        let src = "pub enum E {\n    /// doc\n    A,\n    #[serde(rename = \"b\")]\n    B { x: u32 },\n    C(Vec<u8>),\n}\nimpl E {\n    pub fn encode(&self) -> u8 { match self { E::A => 0, E::B { .. } => 1, E::C(_) => 2 } }\n    fn helper() {}\n}";
        let f = ft(src);
        let enums = find_enums(&f);
        assert_eq!(enums.len(), 1);
        assert_eq!(enums[0].0, "E");
        assert_eq!(enum_variants(&f, enums[0].1), vec!["A", "B", "C"]);
        let impls = find_impls(&f);
        assert_eq!(impls.len(), 1);
        let fns = find_fn_bodies(&f, impls[0].1);
        let names: Vec<&str> = fns.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["encode", "helper"]);
    }

    #[test]
    fn trait_impls_are_found_by_their_type() {
        let f = ft("impl std::fmt::Display for E { fn fmt(&self) {} }\n\
             impl E { fn own(&self) {} }\n\
             fn f(x: impl Fn() -> u8) -> u8 { x() }\n\
             impl<'a> Reader<'a> { fn g(&self) {} }");
        let impls = find_impls(&f);
        let names: Vec<&str> = impls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["E", "E"]);
        let fns = find_fn_bodies(&f, impls[0].1);
        assert_eq!(fns[0].0, "fmt");
    }
}
