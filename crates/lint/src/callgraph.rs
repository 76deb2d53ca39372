//! Conservative workspace call graph over the symbol index.
//!
//! Every call occurrence inside a fn body becomes an [`Edge`] whose
//! [`Callee`] is one of:
//!
//! - `Fn(id)` — resolved to exactly one workspace definition (free fn
//!   matched by module path, method matched by inferred receiver type,
//!   `Type::assoc` path call);
//! - `Union(ids)` — the receiver type could not be inferred but the
//!   method name is defined in the workspace: the edge fans out to
//!   *every* same-named definition. This is the over-approximation
//!   that keeps reachability sound — an un-inferable call can never
//!   silently drop a workspace target;
//! - `Extern(path)` — no workspace definition with that name exists
//!   (std, vendored deps). External calls are out of graph scope by
//!   design; the panic passes tag panic-prone std constructs
//!   (`unwrap`, indexing, …) lexically at the call site instead, so
//!   nothing escapes through this door either.
//!
//! Calls through closure *variables* and generic fn params (`f(x)`)
//! resolve `Extern`, but the closure's **body** belongs to the fn that
//! wrote it (innermost enclosing fn body), so the sites inside it are
//! attributed — and reached — through the caller that created the
//! closure. `catch_unwind(...)` argument spans are recorded per file;
//! edges and panic sites inside them are `protected` and reachability
//! does not cross them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokKind;
use crate::scan::FileTokens;
use crate::symbols::SymbolTable;

/// What an edge points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// Exactly one workspace fn.
    Fn(usize),
    /// Every workspace fn sharing the unresolvable call's name.
    Union(Vec<usize>),
    /// No workspace definition — std or vendored.
    Extern(String),
}

/// One call occurrence.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Fn id of the enclosing (calling) fn.
    pub caller: usize,
    /// Resolution of the called name.
    pub callee: Callee,
    /// The called name as written (for reports).
    pub name: String,
    /// File of the call site.
    pub file_idx: usize,
    /// Line of the call site.
    pub line: u32,
    /// Token index of the called name.
    pub tok_idx: usize,
    /// Whether the site sits inside a `catch_unwind(...)` span.
    pub protected: bool,
}

/// Resolution-quality counters for `--graph-stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Fns with bodies that were walked.
    pub fns: usize,
    /// Edges resolved to exactly one workspace fn.
    pub resolved: usize,
    /// Name-union over-approximated edges.
    pub union_edges: usize,
    /// Edges leaving the workspace (std/vendored).
    pub extern_edges: usize,
}

impl GraphStats {
    /// Union edges as a fraction of workspace-internal edges — the
    /// ratcheted resolution-quality metric. `Extern` edges are
    /// excluded: std calls are out of scope by design, not a
    /// resolution failure.
    #[must_use]
    pub fn union_fraction(&self) -> f64 {
        let internal = self.resolved + self.union_edges;
        if internal == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.union_edges as f64 / internal as f64
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every call occurrence.
    pub edges: Vec<Edge>,
    /// Per-file `catch_unwind(...)` token spans (inclusive).
    pub protected_spans: Vec<Vec<(usize, usize)>>,
    /// Resolution counters.
    pub stats: GraphStats,
    /// caller fn id → indices into `edges`.
    pub out_edges: BTreeMap<usize, Vec<usize>>,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "let", "else", "move", "in", "as",
    "box", "unsafe", "break", "continue", "where", "impl", "dyn", "ref", "mut", "pub", "use",
];

impl CallGraph {
    /// Builds the graph for every fn body in `table`, which was built
    /// over the same `files`.
    #[must_use]
    pub fn build(table: &SymbolTable, files: &[FileTokens]) -> Self {
        let mut graph = Self {
            protected_spans: files.iter().map(find_protected_spans).collect(),
            ..Self::default()
        };
        for (id, f) in table.fns.iter().enumerate() {
            let Some((open, close)) = f.body else {
                continue;
            };
            graph.stats.fns += 1;
            let ft = &files[f.file_idx];
            let b = Walker {
                table,
                ft,
                file_idx: f.file_idx,
                caller: id,
            };
            b.walk(open, close, &mut graph);
        }
        for (i, e) in graph.edges.iter().enumerate() {
            graph.out_edges.entry(e.caller).or_default().push(i);
        }
        graph
    }

    /// Whether token `tok_idx` of file `file_idx` sits inside a
    /// `catch_unwind(...)` span.
    #[must_use]
    pub fn is_protected(&self, file_idx: usize, tok_idx: usize) -> bool {
        self.protected_spans
            .get(file_idx)
            .is_some_and(|spans| spans.iter().any(|&(lo, hi)| lo <= tok_idx && tok_idx <= hi))
    }

    /// Fn ids reachable from `roots` over non-protected workspace
    /// edges (`Fn` and every member of `Union`), with each step's
    /// first-seen witness predecessor edge for path reconstruction.
    /// `enter` decides whether a callee may be entered (included and
    /// traversed) — return `true` for the unrestricted graph.
    pub fn reachable<F: Fn(usize) -> bool>(
        &self,
        roots: &[usize],
        enter: F,
    ) -> (BTreeSet<usize>, BTreeMap<usize, usize>) {
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = roots.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            let Some(edge_ids) = self.out_edges.get(&id) else {
                continue;
            };
            for &ei in edge_ids {
                let e = &self.edges[ei];
                if e.protected {
                    continue;
                }
                let targets: Vec<usize> = match &e.callee {
                    Callee::Fn(t) => vec![*t],
                    Callee::Union(ts) => ts.clone(),
                    Callee::Extern(_) => continue,
                };
                for t in targets {
                    if enter(t) && seen.insert(t) {
                        pred.insert(t, ei);
                        queue.push_back(t);
                    }
                }
            }
        }
        (seen, pred)
    }

    /// Renders a witness call path `root → … → target` using the
    /// predecessor map from [`Self::reachable`].
    #[must_use]
    pub fn witness_path(
        &self,
        table: &SymbolTable,
        pred: &BTreeMap<usize, usize>,
        target: usize,
    ) -> String {
        let mut segs = vec![table.fns[target].path()];
        let mut cur = target;
        while let Some(&ei) = pred.get(&cur) {
            cur = self.edges[ei].caller;
            segs.push(table.fns[cur].path());
        }
        segs.reverse();
        segs.join(" -> ")
    }
}

/// Finds `catch_unwind ( … )` argument spans (token indices, inclusive
/// of the parens) in one file.
fn find_protected_spans(ft: &FileTokens) -> Vec<(usize, usize)> {
    let code = ft.all_code_indices();
    let mut out = Vec::new();
    let mut c = 0usize;
    while c < code.len() {
        if ft.toks[code[c]].is_ident("catch_unwind") {
            let mut p = c + 1;
            if p < code.len() && ft.toks[code[p]].is_punct('(') {
                let mut depth = 0usize;
                let open = code[p];
                while p < code.len() {
                    let t = &ft.toks[code[p]];
                    if t.is_punct('(') {
                        depth += 1;
                    } else if t.is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            out.push((open, code[p]));
                            break;
                        }
                    }
                    p += 1;
                }
                c = p + 1;
                continue;
            }
        }
        c += 1;
    }
    out
}

/// What receiver-type inference concluded about `x` in `x.m(…)`.
enum Recv {
    /// A workspace type or trait — resolve through the method index.
    Ws(String),
    /// Typed, but by something the workspace does not define (std or
    /// vendored): the call cannot land on a workspace method.
    Ext,
    /// No typing evidence — fall back to the sound name union.
    Unknown,
}

/// Whether an annotation ident looks like a generic type parameter
/// (`T`, `F`, `R2`) rather than a concrete type name. Generic params
/// may be bound by workspace traits, so they are not evidence that a
/// receiver is external.
fn looks_generic(id: &str) -> bool {
    id.len() <= 2
        && id
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
        && id.starts_with(|c: char| c.is_ascii_uppercase())
}

struct Walker<'a> {
    table: &'a SymbolTable,
    ft: &'a FileTokens,
    file_idx: usize,
    caller: usize,
}

impl Walker<'_> {
    /// Walks the body token span `[open, close]`, emitting edges.
    fn walk(&self, open: usize, close: usize, graph: &mut CallGraph) {
        let code: Vec<usize> = self
            .ft
            .all_code_indices()
            .into_iter()
            .filter(|&i| i > open && i < close)
            .collect();
        let mut c = 0usize;
        while c < code.len() {
            let t = &self.ft.toks[code[c]];
            if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
                c += 1;
                continue;
            }
            // Macro invocation `name!` — not a call edge (alloc/panic
            // macros are tagged lexically by the passes).
            if self.at(&code, c + 1).is_some_and(|t| t.is_punct('!')) {
                c += 2;
                continue;
            }
            // Nested `fn` definitions were indexed as their own symbols
            // (the innermost-body rule keeps attribution right); a name
            // preceded by `fn` is a definition, not a call.
            if c > 0 && self.ft.toks[code[c - 1]].is_ident("fn") {
                c += 1;
                continue;
            }
            // Allow a turbofish between name and parens.
            let mut p = c + 1;
            if self.at(&code, p).is_some_and(|t| t.is_punct(':'))
                && self.at(&code, p + 1).is_some_and(|t| t.is_punct(':'))
                && self.at(&code, p + 2).is_some_and(|t| t.is_punct('<'))
            {
                let mut depth = 0usize;
                let mut g = p + 2;
                while let Some(u) = self.at(&code, g) {
                    if u.is_punct('<') {
                        depth += 1;
                    } else if u.is_punct('>')
                        && !self.at(&code, g - 1).is_some_and(|v| v.is_punct('-'))
                    {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    g += 1;
                }
                p = g + 1;
            }
            if !self.at(&code, p).is_some_and(|t| t.is_punct('(')) {
                c += 1;
                continue;
            }
            let name = t.text.clone();
            let tok_idx = code[c];
            let line = t.line;
            let callee = if c > 0 && self.ft.toks[code[c - 1]].is_punct('.') {
                self.resolve_method(&code, c, &name)
            } else if c > 1
                && self.ft.toks[code[c - 1]].is_punct(':')
                && self.ft.toks[code[c - 2]].is_punct(':')
            {
                let segs = self.path_segments(&code, c);
                self.resolve_path(&segs, &name)
            } else {
                self.resolve_plain(&name)
            };
            match &callee {
                Callee::Fn(_) => graph.stats.resolved += 1,
                Callee::Union(_) => graph.stats.union_edges += 1,
                Callee::Extern(_) => graph.stats.extern_edges += 1,
            }
            graph.edges.push(Edge {
                caller: self.caller,
                callee,
                name,
                file_idx: self.file_idx,
                line,
                tok_idx,
                protected: graph
                    .protected_spans
                    .get(self.file_idx)
                    .is_some_and(|s| s.iter().any(|&(lo, hi)| lo <= tok_idx && tok_idx <= hi)),
            });
            c = p + 1;
        }
    }

    fn at<'b>(&'b self, code: &[usize], c: usize) -> Option<&'b crate::lexer::Tok> {
        code.get(c).map(|&i| &self.ft.toks[i])
    }

    /// Collects the `::`-separated segments before the name at `c`
    /// (`std::panic::catch_unwind(` → `["std", "panic"]`).
    fn path_segments(&self, code: &[usize], c: usize) -> Vec<String> {
        let mut segs = Vec::new();
        let mut p = c;
        while p >= 3
            && self.ft.toks[code[p - 1]].is_punct(':')
            && self.ft.toks[code[p - 2]].is_punct(':')
            && self.ft.toks[code[p - 3]].kind == TokKind::Ident
        {
            segs.push(self.ft.toks[code[p - 3]].text.clone());
            p -= 3;
        }
        segs.reverse();
        segs
    }

    /// Resolves `.name(` by inferring the receiver's type.
    fn resolve_method(&self, code: &[usize], c: usize, name: &str) -> Callee {
        match self.recv_of(code, c) {
            Recv::Ws(ty) => {
                if let Some(ids) = self.methods_on(&ty, name) {
                    return single_or_union(&ids);
                }
                // Known receiver type without that method: std
                // container method through Deref (`Vec::push`,
                // `Option::map`) — external.
                Callee::Extern(format!("{ty}::{name}"))
            }
            // The receiver is typed, and typed by something the
            // workspace does not define — the call cannot land on a
            // workspace method.
            Recv::Ext => Callee::Extern(name.to_string()),
            Recv::Unknown => match self.table.methods_by_name.get(name) {
                Some(ids) => single_or_union(ids),
                None => Callee::Extern(name.to_string()),
            },
        }
    }

    /// Types the receiver of the method name at `c` (`c - 1` is the
    /// `.`). Handles `self.m(`, `var.m(`, `<base>.field.m(` one field
    /// deep, and `f(…).m(` / `x.g(…).m(` by the producing call's
    /// return annotation. Everything deeper stays `Unknown`.
    fn recv_of(&self, code: &[usize], c: usize) -> Recv {
        if c < 2 {
            return Recv::Unknown;
        }
        let prev = &self.ft.toks[code[c - 2]];
        let prev_chained = self.chained(code, c - 2);
        if prev.is_ident("self") && !prev_chained {
            return match self.self_type() {
                Some(ty) => Recv::Ws(ty),
                None => Recv::Unknown,
            };
        }
        if prev.kind == TokKind::Ident {
            if !prev_chained {
                return self.var_type(code, &prev.text);
            }
            // `<base>.field.m(` — type the base, then the field. A base
            // that is itself mid-chain stays Unknown.
            if c >= 4 && self.ft.toks[code[c - 4]].kind == TokKind::Ident {
                let base = &self.ft.toks[code[c - 4]];
                let base_chained = self.chained(code, c - 4);
                if base_chained {
                    return Recv::Unknown;
                }
                let base_ty = if base.is_ident("self") {
                    match self.self_type() {
                        Some(ty) => Recv::Ws(ty),
                        None => Recv::Unknown,
                    }
                } else {
                    self.var_type(code, &base.text)
                };
                return match base_ty {
                    Recv::Ws(ty) => self.field_of(&ty, &prev.text),
                    // Fields of non-workspace types are not workspace
                    // values the graph can land on.
                    Recv::Ext => Recv::Ext,
                    Recv::Unknown => Recv::Unknown,
                };
            }
            return Recv::Unknown;
        }
        if prev.is_punct(')') {
            return self.call_result_type(code, c - 2);
        }
        Recv::Unknown
    }

    /// Whether the token at `i` follows a member-access `.`. A `.`
    /// preceded by another `.` is a range's `..` and chains nothing: in
    /// `0..v.len()` the receiver `v` starts its own chain.
    fn chained(&self, code: &[usize], i: usize) -> bool {
        let dot = |j: usize| self.ft.toks[code[j]].is_punct('.');
        i >= 1 && dot(i - 1) && !(i >= 2 && dot(i - 2))
    }

    /// Types the value produced by the call whose closing paren sits
    /// at `close` — resolve the called name, then classify its return
    /// annotation.
    fn call_result_type(&self, code: &[usize], close: usize) -> Recv {
        let mut depth = 0usize;
        let mut p = close;
        let open = loop {
            let t = &self.ft.toks[code[p]];
            if t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break p;
                }
            }
            if p == 0 {
                return Recv::Unknown;
            }
            p -= 1;
        };
        if open == 0 {
            return Recv::Unknown;
        }
        let name_tok = &self.ft.toks[code[open - 1]];
        if name_tok.kind != TokKind::Ident || KEYWORDS.contains(&name_tok.text.as_str()) {
            return Recv::Unknown;
        }
        let name = name_tok.text.clone();
        let callee = if open >= 2 && self.ft.toks[code[open - 2]].is_punct('.') {
            self.resolve_method(code, open - 1, &name)
        } else if open >= 3
            && self.ft.toks[code[open - 2]].is_punct(':')
            && self.ft.toks[code[open - 3]].is_punct(':')
        {
            let segs = self.path_segments(code, open - 1);
            self.resolve_path(&segs, &name)
        } else {
            self.resolve_plain(&name)
        };
        match callee {
            Callee::Fn(id) => self.classify(&self.table.fns[id].ret),
            Callee::Union(_) => Recv::Unknown,
            Callee::Extern(_) => Recv::Ext,
        }
    }

    /// Workspace methods reachable through a receiver of type (or
    /// trait) `ty`: the direct `(ty, name)` index, plus — when `ty`
    /// names a trait — that method on every implementing type, so
    /// `&dyn Trait`/`impl Trait` receivers keep their dispatch edges.
    fn methods_on(&self, ty: &str, name: &str) -> Option<Vec<usize>> {
        let mut ids: Vec<usize> = self
            .table
            .methods
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default();
        if self.table.traits.contains(ty) {
            for im in &self.table.impls {
                if im.trait_name.as_deref() != Some(ty) {
                    continue;
                }
                for &fid in &im.fn_ids {
                    if self.table.fns[fid].name == name && !ids.contains(&fid) {
                        ids.push(fid);
                    }
                }
            }
        }
        if ids.is_empty() {
            None
        } else {
            Some(ids)
        }
    }

    /// The enclosing impl/trait type of the calling fn.
    fn self_type(&self) -> Option<String> {
        self.table.fns[self.caller].self_type.clone()
    }

    /// Classifies the annotation of field `field` on struct `ty`.
    fn field_of(&self, ty: &str, field: &str) -> Recv {
        let Some(idents) = self
            .table
            .struct_fields
            .get(ty)
            .and_then(|fields| fields.get(field))
        else {
            return Recv::Unknown;
        };
        self.classify(idents)
    }

    /// Classifies a list of type-annotation idents. A workspace type
    /// or trait wins; otherwise any *concrete* extern ident (`Vec`,
    /// `SyncSender`, `u64`) proves the receiver is external. Idents
    /// that look like generic parameters (`T`, `F`, `R2`) prove
    /// nothing — the bound could be a workspace trait — so an
    /// annotation made only of those stays `Unknown` (union).
    fn classify(&self, idents: &[String]) -> Recv {
        let mut concrete_ext = false;
        for id in idents {
            if self.table.is_type(id) || self.table.traits.contains(id) {
                return Recv::Ws(id.clone());
            }
            if !looks_generic(id) {
                concrete_ext = true;
            }
        }
        if concrete_ext {
            Recv::Ext
        } else {
            Recv::Unknown
        }
    }

    /// Infers a local variable's type from the caller's param
    /// annotations, a `let var: Type` annotation, or a
    /// `let var = <init>` / `let (…, var, …) = <init>` initializer in
    /// the body.
    fn var_type(&self, code: &[usize], var: &str) -> Recv {
        let f = &self.table.fns[self.caller];
        for (pname, idents) in &f.params {
            if pname == var {
                return self.classify(idents);
            }
        }
        // Scan the body for `let [mut] var …` and tuple-destructuring
        // `let ( … var … ) = …`.
        let mut k = 0usize;
        while k + 2 < code.len() {
            if !self.ft.toks[code[k]].is_ident("let") {
                k += 1;
                continue;
            }
            let mut n = k + 1;
            if self.at(code, n).is_some_and(|t| t.is_punct('(')) {
                // Tuple destructure: a workspace-typed initializer
                // can't tell us *which* element `var` binds, so only
                // the external verdict transfers.
                if let Some(r) = self.destructure_init(code, n, var) {
                    return r;
                }
                k = n + 1;
                continue;
            }
            if self.at(code, n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            if !self.at(code, n).is_some_and(|t| t.is_ident(var)) {
                k += 1;
                continue;
            }
            if self.at(code, n + 1).is_some_and(|t| t.is_punct(':'))
                && !self.at(code, n + 2).is_some_and(|t| t.is_punct(':'))
            {
                // `let var: Type` — idents up to the `=` or `;`.
                let mut idents = Vec::new();
                let mut e = n + 2;
                while let Some(t) = self.at(code, e) {
                    if t.is_punct('=') || t.is_punct(';') {
                        break;
                    }
                    if t.kind == TokKind::Ident {
                        idents.push(t.text.clone());
                    }
                    e += 1;
                }
                return self.classify(&idents);
            }
            if self.at(code, n + 1).is_some_and(|t| t.is_punct('=')) {
                return self.init_type(code, n + 2);
            }
            k += 1;
        }
        Recv::Unknown
    }

    /// Handles `let ( … var … ) = <init>`: returns `Some(verdict)`
    /// when `var` is bound inside the tuple pattern at `open` (which
    /// indexes the `(`).
    fn destructure_init(&self, code: &[usize], open: usize, var: &str) -> Option<Recv> {
        let mut depth = 0usize;
        let mut p = open;
        let mut found = false;
        loop {
            let t = self.at(code, p)?;
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident(var) {
                found = true;
            }
            p += 1;
        }
        if !found || !self.at(code, p + 1).is_some_and(|t| t.is_punct('=')) {
            return None;
        }
        Some(match self.init_type(code, p + 2) {
            // An initializer involving workspace types can't say which
            // tuple element `var` is — stay over-approximate.
            Recv::Ws(_) => Recv::Unknown,
            other => other,
        })
    }

    /// Classifies a `let` initializer whose head token is at `n`:
    /// `Type::ctor(…)`, `path::to::fn(…)`, `local_fn(…)`,
    /// `Type { … }`. Anything else (literals, method chains, `self`,
    /// operators) stays `Unknown`.
    fn init_type(&self, code: &[usize], n: usize) -> Recv {
        let Some(head) = self.at(code, n).filter(|t| t.kind == TokKind::Ident) else {
            return Recv::Unknown;
        };
        let head = head.text.clone();
        if head == "self" {
            return Recv::Unknown;
        }
        // `head :: …` — walk the path segments.
        if self.at(code, n + 1).is_some_and(|t| t.is_punct(':'))
            && self.at(code, n + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut segs = vec![head];
            let mut p = n + 1;
            while self.at(code, p).is_some_and(|t| t.is_punct(':'))
                && self.at(code, p + 1).is_some_and(|t| t.is_punct(':'))
                && self
                    .at(code, p + 2)
                    .is_some_and(|t| t.kind == TokKind::Ident)
            {
                segs.push(self.ft.toks[code[p + 2]].text.clone());
                p += 3;
            }
            if let Some(ws) = segs
                .iter()
                .find(|s| self.table.is_type(s) || self.table.traits.contains(s.as_str()))
            {
                return Recv::Ws(ws.clone());
            }
            // `mod::free_fn(…)` — type by the fn's return annotation
            // when the final segment names exactly one workspace fn.
            if let Some(last) = segs.last() {
                if let Some([only]) = self.table.free_by_name.get(last).map(Vec::as_slice) {
                    return self.classify(&self.table.fns[*only].ret);
                }
            }
            return Recv::Ext;
        }
        // `head(…)` — a plain call: type by the callee's return
        // annotation when it resolves to exactly one workspace fn.
        if self.at(code, n + 1).is_some_and(|t| t.is_punct('(')) {
            return match self.resolve_plain(&head) {
                Callee::Fn(id) => self.classify(&self.table.fns[id].ret),
                Callee::Union(_) => Recv::Unknown,
                Callee::Extern(_) => Recv::Ext,
            };
        }
        // `Type { … }` — struct literal.
        if self.at(code, n + 1).is_some_and(|t| t.is_punct('{')) && self.table.is_type(&head) {
            return Recv::Ws(head);
        }
        Recv::Unknown
    }

    /// Resolves `seg::…::name(`.
    fn resolve_path(&self, segs: &[String], name: &str) -> Callee {
        if segs.is_empty() {
            return self.resolve_plain(name);
        }
        let caller_module = self.table.fns[self.caller].module.clone();
        // Expand the leading segment through the file's `use` map,
        // `crate::`, `self::`, and crate-name normalization.
        let mut full: Vec<String> = Vec::new();
        let first = &segs[0];
        let uses = &self.table.uses[self.file_idx];
        if first == "Self" {
            if let Some(ty) = self.self_type() {
                full.push(ty);
            }
        } else if first == "crate" {
            let krate = caller_module.split("::").next().unwrap_or("").to_string();
            full.push(krate);
        } else if first == "self" {
            full.extend(caller_module.split("::").map(str::to_string));
        } else if let Some(path) = uses.get(first) {
            full.extend(path.iter().cloned());
        } else {
            full.push(crate::symbols::normalize_crate(first));
        }
        full.extend(segs[1..].iter().cloned());
        // `… ::Type::name(` — associated fn / method on a type (or a
        // trait: `Proto::step(&x)` dispatches to every impl).
        if let Some(last) = full.last() {
            if let Some(ids) = self.methods_on(last, name) {
                return single_or_union(&ids);
            }
        }
        // `… ::module::name(` — free fn by module path.
        let module = full.join("::");
        if let Some(ids) = self.table.free_by_module.get(&(module, name.to_string())) {
            return single_or_union(ids);
        }
        // A known type without a workspace method of that name (enum
        // variant ctor, derived ctor) or an std path — external, unless
        // the bare name exists somewhere in the workspace (union).
        let last_is_known_type = full.last().is_some_and(|l| self.table.is_type(l));
        if last_is_known_type {
            return Callee::Extern(format!("{}::{name}", full.join("::")));
        }
        if let Some(ids) = self.table.free_by_name.get(name) {
            return single_or_union(ids);
        }
        Callee::Extern(format!("{}::{name}", full.join("::")))
    }

    /// Resolves a bare `name(` call: same module first, then the
    /// file's `use` aliases, then a workspace-wide name union.
    fn resolve_plain(&self, name: &str) -> Callee {
        let module = self.table.fns[self.caller].module.clone();
        if let Some(ids) = self.table.free_by_module.get(&(module, name.to_string())) {
            return single_or_union(ids);
        }
        if let Some(path) = self.table.uses[self.file_idx].get(name) {
            if path.len() >= 2 {
                let module = path[..path.len() - 1].join("::");
                let last = &path[path.len() - 1];
                if let Some(ids) = self.table.free_by_module.get(&(module, last.clone())) {
                    return single_or_union(ids);
                }
            }
        }
        // Tuple-struct / variant constructors are calls syntactically;
        // a known type name with no fn definition is a ctor, not an
        // edge target.
        if self.table.is_type(name) {
            return Callee::Extern(name.to_string());
        }
        match self.table.free_by_name.get(name) {
            Some(ids) => single_or_union(ids),
            None => Callee::Extern(name.to_string()),
        }
    }
}

fn single_or_union(ids: &[usize]) -> Callee {
    match ids {
        [one] => Callee::Fn(*one),
        many => Callee::Union(many.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(srcs: &[(&str, &str)]) -> (SymbolTable, CallGraph, Vec<FileTokens>) {
        let paths: Vec<String> = srcs.iter().map(|(p, _)| (*p).to_string()).collect();
        let files: Vec<FileTokens> = srcs.iter().map(|(p, s)| FileTokens::new(p, s)).collect();
        let table = SymbolTable::build(&paths, &files);
        let graph = CallGraph::build(&table, &files);
        (table, graph, files)
    }

    fn edge_names(table: &SymbolTable, graph: &CallGraph, caller_path: &str) -> Vec<String> {
        let caller = table.find_by_suffix(caller_path)[0];
        graph
            .edges
            .iter()
            .filter(|e| e.caller == caller)
            .map(|e| match &e.callee {
                Callee::Fn(id) => format!("fn:{}", table.fns[*id].path()),
                Callee::Union(ids) => format!(
                    "union:{}",
                    ids.iter()
                        .map(|i| table.fns[*i].path())
                        .collect::<Vec<_>>()
                        .join("|")
                ),
                Callee::Extern(p) => format!("extern:{p}"),
            })
            .collect()
    }

    #[test]
    fn free_fn_calls_resolve_cross_file_by_use() {
        let (t, g, _) = build(&[
            (
                "crates/a/src/lib.rs",
                "use stigmergy_b::helpers::boom;\npub fn entry() { boom(); local(); }\nfn local() {}",
            ),
            ("crates/b/src/helpers.rs", "pub fn boom() { panic!(\"x\") }"),
        ]);
        assert_eq!(
            edge_names(&t, &g, "a::entry"),
            vec!["fn:b::helpers::boom", "fn:a::local"]
        );
    }

    #[test]
    fn method_calls_resolve_by_receiver_type() {
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub struct Engine { view: View }\npub struct View;\nimpl View { pub fn refresh(&self) {} }\n\
             impl Engine {\n    pub fn step(&mut self) { self.tick(); self.view.refresh(); }\n    fn tick(&self) {}\n}",
        )]);
        assert_eq!(
            edge_names(&t, &g, "Engine::step"),
            vec!["fn:a::Engine::tick", "fn:a::View::refresh"]
        );
    }

    #[test]
    fn param_typed_receivers_resolve() {
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub struct Pool;\nimpl Pool { pub fn pop(&self) -> usize { 0 } }\n\
             pub fn drive(pool: &Pool) { pool.pop(); }",
        )]);
        assert_eq!(edge_names(&t, &g, "a::drive"), vec!["fn:a::Pool::pop"]);
    }

    #[test]
    fn unresolvable_methods_become_unions_not_drops() {
        // A closure parameter has no annotation anywhere — the call
        // must fan out to every same-named method, not drop.
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub struct X;\npub struct Y;\nimpl X { pub fn go(&self) {} }\nimpl Y { pub fn go(&self) {} }\n\
             pub fn run(each: fn(&dyn Fn())) { each(&|v| v.go()); }",
        )]);
        let names = edge_names(&t, &g, "a::run");
        assert!(
            names.contains(&"union:a::X::go|a::Y::go".to_string()),
            "{names:?}"
        );
        assert_eq!(g.stats.union_edges, 1);
    }

    #[test]
    fn call_result_receivers_resolve_by_return_type() {
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub struct X;\npub struct Y;\nimpl X { pub fn go(&self) {} }\nimpl Y { pub fn go(&self) {} }\n\
             pub fn run() { chain().go(); }\nfn chain() -> X { X }",
        )]);
        let names = edge_names(&t, &g, "a::run");
        assert!(names.contains(&"fn:a::X::go".to_string()), "{names:?}");
        assert_eq!(g.stats.union_edges, 0);
    }

    #[test]
    fn externally_typed_receivers_do_not_union() {
        // `tx` is destructured from an std channel ctor; `buf` is a
        // Vec-annotated param. Neither can land on the workspace
        // `send`/`push` methods, so no union edges appear.
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub struct Chan;\nimpl Chan { pub fn send(&self) {} pub fn push(&self) {} }\n\
             pub fn run(buf: &mut Vec<u8>) {\n    let (tx, rx) = std::sync::mpsc::channel();\n    tx.send(1).ok();\n    buf.push(2);\n    drop(rx);\n}",
        )]);
        let names = edge_names(&t, &g, "a::run");
        assert!(names.iter().all(|n| !n.starts_with("union:")), "{names:?}");
        assert_eq!(g.stats.union_edges, 0);
        let _ = t;
    }

    #[test]
    fn range_dots_do_not_chain_the_receiver() {
        // `0..v.len()` and `0..self.items.len()`: the `.` after `..`
        // starts a chain rather than continuing one, so both receivers
        // are typed (external) instead of unioning every workspace `len`.
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub struct Bag { items: Vec<u8> }\npub struct Sack;\n\
             impl Sack { pub fn len(&self) -> usize { 0 } }\n\
             impl Bag {\n    pub fn len(&self) -> usize { 0 }\n    pub fn walk(&self, v: Vec<u8>) {\n        \
             for i in 0..v.len() { drop(i); }\n        for j in 0..self.items.len() { drop(j); }\n    }\n}",
        )]);
        let names = edge_names(&t, &g, "Bag::walk");
        assert!(names.iter().all(|n| !n.starts_with("union:")), "{names:?}");
        assert_eq!(
            names.iter().filter(|n| *n == "extern:len").count(),
            2,
            "{names:?}"
        );
        assert_eq!(g.stats.union_edges, 0);
    }

    #[test]
    fn var_field_chains_type_through_struct_fields() {
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub struct Inner;\nimpl Inner { pub fn fire(&self) {} }\n\
             pub struct Outer { pub inner: Inner }\nimpl Outer { pub fn mk() -> Outer { Outer { inner: Inner } } }\n\
             pub fn run() { let o = Outer::mk(); o.inner.fire(); }",
        )]);
        let names = edge_names(&t, &g, "a::run");
        assert!(
            names.contains(&"fn:a::Inner::fire".to_string()),
            "{names:?}"
        );
    }

    #[test]
    fn trait_typed_receivers_dispatch_to_every_impl() {
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub trait Proto { fn step(&self); }\npub struct P1;\npub struct P2;\n\
             impl Proto for P1 { fn step(&self) {} }\nimpl Proto for P2 { fn step(&self) {} }\n\
             pub fn drive(p: &dyn Proto) { p.step(); }",
        )]);
        let names = edge_names(&t, &g, "a::drive");
        assert!(
            names.iter().any(|n| n.starts_with("union:")
                && n.contains("P1::step")
                && n.contains("P2::step")),
            "trait dispatch must reach every impl: {names:?}"
        );
    }

    #[test]
    fn std_calls_are_extern_and_excluded_from_fraction() {
        let (_, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn f() { let v: Vec<u32> = Vec::new(); drop(v); g(); }\npub fn g() {}",
        )]);
        assert_eq!(g.stats.extern_edges, 2); // Vec::new, drop
        assert_eq!(g.stats.resolved, 1); // g()
        assert!(g.stats.union_fraction() < f64::EPSILON);
    }

    #[test]
    fn catch_unwind_spans_protect_edges() {
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn safe() { std::panic::catch_unwind(|| { danger(); }).ok(); danger2(); }\n\
             pub fn danger() {}\npub fn danger2() {}",
        )]);
        let caller = t.find_by_suffix("a::safe")[0];
        let protected: Vec<(&str, bool)> = g
            .edges
            .iter()
            .filter(|e| e.caller == caller && !matches!(e.callee, Callee::Extern(_)))
            .map(|e| (e.name.as_str(), e.protected))
            .collect();
        assert_eq!(protected, vec![("danger", true), ("danger2", false)]);
    }

    #[test]
    fn reachability_crosses_files_but_not_catch_unwind() {
        let (t, g, _) = build(&[
            (
                "crates/gw/src/server.rs",
                "use stigmergy_sched::plan::prepare;\n\
                 pub fn listener() { accept_one(); }\n\
                 fn accept_one() { prepare(7); guarded(); }\n\
                 fn guarded() { std::panic::catch_unwind(|| { shielded() }).ok(); }\n\
                 fn shielded() { }",
            ),
            (
                "crates/sched/src/plan.rs",
                "pub fn prepare(n: usize) { deep(n) }\nfn deep(n: usize) { }",
            ),
        ]);
        let roots = t.find_by_suffix("gw::server::listener");
        let (seen, pred) = g.reachable(&roots, |_| true);
        let paths: Vec<String> = seen.iter().map(|&id| t.fns[id].path()).collect();
        assert!(
            paths.contains(&"sched::plan::deep".to_string()),
            "{paths:?}"
        );
        assert!(paths.contains(&"gw::server::guarded".to_string()));
        assert!(
            !paths.contains(&"gw::server::shielded".to_string()),
            "catch_unwind must stop reachability: {paths:?}"
        );
        let deep = t.find_by_suffix("sched::plan::deep")[0];
        assert_eq!(
            g.witness_path(&t, &pred, deep),
            "gw::server::listener -> gw::server::accept_one -> sched::plan::prepare -> sched::plan::deep"
        );
    }

    #[test]
    fn closure_bodies_attribute_to_enclosing_fn() {
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn spawn_worker() { let w = move || { inner_job(); }; run(w); }\n\
             fn inner_job() {}\nfn run<F: Fn()>(f: F) { f() }",
        )]);
        assert!(edge_names(&t, &g, "a::spawn_worker").contains(&"fn:a::inner_job".to_string()));
    }

    #[test]
    fn enter_filter_scopes_the_walk() {
        let (t, g, _) = build(&[
            (
                "crates/a/src/lib.rs",
                "use stigmergy_b::ext;\npub fn root() { ext(); stay(); }\nfn stay() {}",
            ),
            ("crates/b/src/lib.rs", "pub fn ext() { far() }\nfn far() {}"),
        ]);
        let roots = t.find_by_suffix("a::root");
        let (seen, _) = g.reachable(&roots, |id| t.fns[id].module.starts_with('a'));
        let paths: Vec<String> = seen.iter().map(|&id| t.fns[id].path()).collect();
        assert!(paths.contains(&"a::stay".to_string()));
        assert!(!paths.iter().any(|p| p.starts_with("b::")), "{paths:?}");
    }

    #[test]
    fn turbofish_and_macros_do_not_confuse_the_walker() {
        let (t, g, _) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn f() { helper::<u32>(); println!(\"{}\", 1); }\npub fn helper<T>() {}",
        )]);
        assert_eq!(edge_names(&t, &g, "a::f"), vec!["fn:a::helper"]);
    }
}
