//! Workspace symbol index: every item definition, with module paths,
//! `use`-declaration resolution, and enough type information (param
//! annotations, struct field types, impl receivers) for the call graph
//! to resolve method calls by receiver where this codebase's idioms
//! allow it.
//!
//! The index is built from the same [`FileTokens`] streams the token
//! passes consume — no rustc, no syn. It is a *pragmatic* parser: it
//! understands the item grammar this workspace actually uses (inline
//! `mod` blocks, generic fns and impls, trait impls, tuple and braced
//! structs, `use` trees with `as` renames) and skips what it cannot
//! parse (`macro_rules!` bodies) rather than mis-indexing it. Anything
//! the index misses degrades call-graph *resolution quality* — which
//! the `--graph-stats` ratchet measures — never soundness, because the
//! graph over-approximates unresolved calls (see `callgraph`).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::scan::FileTokens;

/// A function (or method) definition.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Bare name (`step_inner`).
    pub name: String,
    /// Module path (`robots::engine`).
    pub module: String,
    /// Receiver type for methods (`Engine`) or trait name for trait
    /// default methods; `None` for free fns.
    pub self_type: Option<String>,
    /// Index into the file list the table was built from.
    pub file_idx: usize,
    /// Line of the `fn` name token.
    pub line: u32,
    /// Token-index span of the body braces `{ … }`, if the fn has one
    /// (trait method declarations do not).
    pub body: Option<(usize, usize)>,
    /// Annotated params: `(name, type idents in the annotation)`.
    /// `&Arc<ConnWriter>` yields `["Arc", "ConnWriter"]`.
    pub params: Vec<(String, Vec<String>)>,
    /// Idents in the return-type annotation (empty for `()` or when
    /// the signature has none). Used to type `let x = some_fn(...)`
    /// receivers. `Self` is written as the impl's type (the trait's
    /// name in a trait body), so `-> Self` and `-> Result<Self, E>`
    /// type a chained call like any named return.
    pub ret: Vec<String>,
    /// The elements of a tuple return annotation, one ident list
    /// each (empty unless the annotation is a tuple). Used to type
    /// `let (a, b) = some_fn(...)` bindings element by element.
    pub ret_tuple: Vec<Vec<String>>,
    /// Whether the definition sits under `#[cfg(test)]`/`#[test]`.
    pub is_test: bool,
    /// Whether the definition is plain `pub` (`pub(crate)` and
    /// narrower are not).
    pub is_pub: bool,
}

impl FnSym {
    /// Display path: `module::Type::name` or `module::name`.
    #[must_use]
    pub fn path(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{}::{}::{}", self.module, t, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// An `enum` definition.
#[derive(Debug, Clone)]
pub struct EnumSym {
    /// The enum's name.
    pub name: String,
    /// Module path.
    pub module: String,
    /// Index into the file list.
    pub file_idx: usize,
    /// Line of the name token.
    pub line: u32,
    /// Token span of the `{ … }` body.
    pub span: crate::scan::ItemSpan,
    /// Whether the definition is test-only.
    pub is_test: bool,
}

/// An `impl` block (inherent or trait).
#[derive(Debug, Clone)]
pub struct ImplSym {
    /// Base name of the self type (`Engine` from `Engine<P>`).
    pub type_name: String,
    /// Base name of the implemented trait, if a trait impl.
    pub trait_name: Option<String>,
    /// Index into the file list.
    pub file_idx: usize,
    /// Indices into [`SymbolTable::fns`] for the fns defined inside.
    pub fn_ids: Vec<usize>,
}

/// One file's parsed `use` declarations: alias → full path segments
/// (crate names normalized to workspace module prefixes).
pub type UseMap = BTreeMap<String, Vec<String>>;

/// The workspace symbol index.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Workspace-relative paths, parallel to every `file_idx`.
    pub file_paths: Vec<String>,
    /// Derived module path per file.
    pub file_modules: Vec<String>,
    /// Every fn definition.
    pub fns: Vec<FnSym>,
    /// Every enum definition.
    pub enums: Vec<EnumSym>,
    /// Every impl block.
    pub impls: Vec<ImplSym>,
    /// `(type, method)` → fn ids (methods, incl. trait defaults).
    pub methods: BTreeMap<(String, String), Vec<usize>>,
    /// method name → fn ids with a receiver (any type).
    pub methods_by_name: BTreeMap<String, Vec<usize>>,
    /// `(module, name)` → free-fn ids.
    pub free_by_module: BTreeMap<(String, String), Vec<usize>>,
    /// free-fn name → ids.
    pub free_by_name: BTreeMap<String, Vec<usize>>,
    /// struct name → field → type idents.
    pub struct_fields: BTreeMap<String, BTreeMap<String, Vec<String>>>,
    /// Names declared with `trait` — receivers typed by one of these
    /// dispatch to every implementing type.
    pub traits: BTreeSet<String>,
    /// Module-level `type Alias = Base<…>;` declarations: alias → the
    /// base type's name.
    pub aliases: BTreeMap<String, String>,
    /// Per-file `use` alias maps.
    pub uses: Vec<UseMap>,
}

/// Derives a module path from a workspace-relative file path.
/// `crates/gateway/src/server.rs` → `gateway::server`;
/// `crates/core/src/lib.rs` → `core`; `crates/core/tests/x.rs` →
/// `core::tests::x`; anything else → its file stem.
#[must_use]
fn module_path_of(path: &str) -> String {
    let norm = path.replace('\\', "/");
    let parts: Vec<&str> = norm.split('/').collect();
    if let Some(ci) = parts.iter().position(|p| *p == "crates") {
        if parts.len() > ci + 2 {
            let krate = parts[ci + 1];
            let rest = &parts[ci + 2..];
            let mut segs = vec![krate.to_string()];
            for (k, seg) in rest.iter().enumerate() {
                let last = k + 1 == rest.len();
                if last {
                    let stem = seg.trim_end_matches(".rs");
                    if stem != "lib" && stem != "mod" && stem != "main" {
                        segs.push(stem.to_string());
                    }
                } else if *seg != "src" {
                    segs.push((*seg).to_string());
                }
            }
            return segs.join("::");
        }
    }
    let stem = parts.last().map_or("", |s| s.trim_end_matches(".rs"));
    stem.to_string()
}

/// Normalizes a crate name as written in `use` paths to the workspace
/// module prefix the index uses: `stigmergy` → `core`,
/// `stigmergy_robots`/`stigmergy-robots` → `robots`, everything else
/// unchanged.
#[must_use]
pub fn normalize_crate(seg: &str) -> String {
    let s = seg.replace('-', "_");
    if s == "stigmergy" {
        return "core".to_string();
    }
    if let Some(rest) = s.strip_prefix("stigmergy_") {
        return rest.to_string();
    }
    s
}

impl SymbolTable {
    /// Builds the index over a set of lexed files. `paths[i]` names
    /// `files[i]` in reports and derives its module path.
    #[must_use]
    pub fn build(paths: &[String], files: &[FileTokens]) -> Self {
        let mut table = Self::default();
        for (idx, (path, ft)) in paths.iter().zip(files.iter()).enumerate() {
            let module = module_path_of(path);
            table.file_paths.push(path.clone());
            table.file_modules.push(module.clone());
            let mut uses = UseMap::new();
            let code = ft.all_code_indices();
            let mut p = Parser {
                ft,
                code: &code,
                file_idx: idx,
                table: &mut table,
                uses: &mut uses,
            };
            p.items(0, usize::MAX, &module, None);
            table.uses.push(uses);
        }
        table.index();
        table
    }

    fn index(&mut self) {
        // Names are global here, so an alias that shares its name with
        // a struct or enum elsewhere (a test's `type Counters = Vec<…>`)
        // stands for neither.
        let enums: BTreeSet<&str> = self.enums.iter().map(|e| e.name.as_str()).collect();
        let fields = &self.struct_fields;
        self.aliases
            .retain(|name, _| !fields.contains_key(name) && !enums.contains(name.as_str()));
        // An impl on an alias (`impl SyncNetwork`) is an impl on its
        // base type; file order is arbitrary, so resolve once all
        // aliases are known.
        for i in 0..self.impls.len() {
            let base = self.unalias(&self.impls[i].type_name).to_string();
            for &id in &self.impls[i].fn_ids {
                self.fns[id].self_type = Some(base.clone());
            }
            self.impls[i].type_name = base;
        }
        for (id, f) in self.fns.iter().enumerate() {
            match &f.self_type {
                Some(t) => {
                    self.methods
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    self.methods_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                }
                None => {
                    self.free_by_module
                        .entry((f.module.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    self.free_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                }
            }
        }
    }

    /// Fn ids whose display path ends with `suffix` on a `::` boundary
    /// (`"Gateway::bind"` matches `gateway::server::Gateway::bind`).
    #[must_use]
    pub fn find_by_suffix(&self, suffix: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                let p = f.path();
                p == suffix || p.ends_with(&format!("::{suffix}"))
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// The innermost fn whose body span contains token `tok_idx` of
    /// file `file_idx`.
    #[must_use]
    pub fn enclosing_fn(&self, file_idx: usize, tok_idx: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (width, id)
        for (id, f) in self.fns.iter().enumerate() {
            if f.file_idx != file_idx {
                continue;
            }
            if let Some((open, close)) = f.body {
                if open <= tok_idx && tok_idx <= close {
                    let width = close - open;
                    if best.is_none_or(|(w, _)| width < w) {
                        best = Some((width, id));
                    }
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Whether `name` is a known type (has a struct def, enum def, or
    /// any impl block), directly or through an alias.
    #[must_use]
    pub fn is_type(&self, name: &str) -> bool {
        let name = self.unalias(name);
        self.struct_fields.contains_key(name)
            || self.enums.iter().any(|e| e.name == name)
            || self.impls.iter().any(|i| i.type_name == name)
    }

    /// The type `name` names once aliases are followed
    /// (`SyncNetwork` → `Network`); `name` itself if it is no alias.
    #[must_use]
    pub fn unalias<'a>(&'a self, mut name: &'a str) -> &'a str {
        // Bounded: an alias cycle does not compile, but must not hang.
        for _ in 0..8 {
            match self.aliases.get(name) {
                Some(base) => name = base,
                None => break,
            }
        }
        name
    }
}

struct Parser<'a> {
    ft: &'a FileTokens,
    code: &'a [usize],
    file_idx: usize,
    table: &'a mut SymbolTable,
    uses: &'a mut UseMap,
}

impl Parser<'_> {
    fn tok(&self, c: usize) -> Option<&crate::lexer::Tok> {
        self.code.get(c).map(|&i| &self.ft.toks[i])
    }

    fn is_test_at(&self, c: usize) -> bool {
        self.code.get(c).is_some_and(|&i| self.ft.in_test[i])
    }

    /// Walks items in `[lo, hi)` (code indices). `self_type` is set
    /// inside impl/trait bodies.
    fn items(&mut self, lo: usize, hi: usize, module: &str, self_type: Option<&str>) {
        let hi = hi.min(self.code.len());
        let mut c = lo;
        while c < hi {
            let Some(t) = self.tok(c) else { break };
            if t.is_punct('#') && self.tok(c + 1).is_some_and(|t| t.is_punct('[')) {
                c = self.skip_group(c + 1, '[', ']');
                continue;
            }
            if t.is_ident("macro_rules") {
                // `macro_rules! name { … }`: skip the whole body — the
                // token soup inside is not item grammar.
                let mut b = c + 1;
                while b < hi && !self.tok(b).is_some_and(|t| t.is_punct('{')) {
                    b += 1;
                }
                c = self.skip_group(b, '{', '}');
                continue;
            }
            if t.is_ident("mod") {
                if let Some(name) = self.tok(c + 1).filter(|t| t.kind == TokKind::Ident) {
                    let name = name.text.clone();
                    if self.tok(c + 2).is_some_and(|t| t.is_punct('{')) {
                        let close = self.find_close(c + 2, '{', '}');
                        let inner = format!("{module}::{name}");
                        self.items(c + 3, close, &inner, self_type);
                        c = close + 1;
                        continue;
                    }
                }
                c += 1;
                continue;
            }
            if t.is_ident("fn") {
                c = self.parse_fn(c, module, self_type);
                continue;
            }
            if t.is_ident("impl") {
                c = self.parse_impl(c, module);
                continue;
            }
            if t.is_ident("trait") {
                c = self.parse_trait(c, module);
                continue;
            }
            if t.is_ident("struct") {
                c = self.parse_struct(c);
                continue;
            }
            if t.is_ident("enum") {
                c = self.parse_enum(c, module);
                continue;
            }
            if t.is_ident("use") {
                c = self.parse_use(c);
                continue;
            }
            if t.is_ident("type") && self_type.is_none() {
                c = self.parse_alias(c);
                continue;
            }
            // Skip block bodies of items we don't model (const fns
            // initializers, statics) conservatively token by token.
            c += 1;
        }
    }

    /// Code index just past a matched `open … close` group whose opener
    /// sits at `open_c`.
    fn skip_group(&self, open_c: usize, open: char, close: char) -> usize {
        self.find_close(open_c, open, close) + 1
    }

    /// Code index of the `close` matching the `open` at `open_c` (or
    /// the last index, tolerating truncation).
    fn find_close(&self, open_c: usize, open: char, close: char) -> usize {
        let mut depth = 0usize;
        let mut c = open_c;
        while let Some(t) = self.tok(c) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return c;
                }
            }
            c += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Skips a `< … >` generics group at `c` (the `<`), tolerating the
    /// `->` arrow inside `Fn(..) -> R` bounds.
    fn skip_generics(&self, c: usize) -> usize {
        let mut depth = 0usize;
        let mut i = c;
        while let Some(t) = self.tok(i) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                let arrow = i > 0 && self.tok(i - 1).is_some_and(|p| p.is_punct('-'));
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            i += 1;
        }
        self.code.len()
    }

    /// Parses `fn name …` at `c` (the `fn`); returns the code index to
    /// resume at.
    fn parse_fn(&mut self, c: usize, module: &str, self_type: Option<&str>) -> usize {
        let Some(name_tok) = self.tok(c + 1).filter(|t| t.kind == TokKind::Ident) else {
            return c + 1;
        };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let is_test = self.is_test_at(c + 1);
        let is_pub = self.is_pub_before(c);
        let mut i = c + 2;
        if self.tok(i).is_some_and(|t| t.is_punct('<')) {
            i = self.skip_generics(i);
        }
        if !self.tok(i).is_some_and(|t| t.is_punct('(')) {
            return c + 1;
        }
        let params_close = self.find_close(i, '(', ')');
        let mut params = self.parse_params(i + 1, params_close);
        // Signature tail: scan to the body `{` or the `;` of a trait
        // declaration (a `;` inside an array type `[T; N]` is neither);
        // the return type runs from `->` to the `where` keyword or that
        // end. Neither return types nor where clauses contain braces.
        let mut b = params_close + 1;
        let mut ret_hi = None;
        let mut brackets = 0usize;
        while let Some(t) = self.tok(b) {
            if t.is_punct('{') || (t.is_punct(';') && brackets == 0) {
                break;
            }
            if t.is_punct('[') {
                brackets += 1;
            } else if t.is_punct(']') {
                brackets = brackets.saturating_sub(1);
            } else if t.is_ident("where") {
                ret_hi.get_or_insert(b);
            }
            b += 1;
        }
        let ret_hi = ret_hi.unwrap_or(b);
        let mut body = None;
        if self.tok(b).is_some_and(|t| t.is_punct('{')) {
            let close = self.find_close(b, '{', '}');
            body = Some((self.code[b], self.code[close]));
            b = close;
        }
        let mut ret = self.type_idents(params_close + 1, ret_hi);
        let mut ret_tuple = self.tuple_elems(params_close + 3, ret_hi);
        if let Some(ty) = self_type {
            let own = |idents: &mut Vec<String>| {
                for id in idents.iter_mut().filter(|id| *id == "Self") {
                    *id = ty.to_string();
                }
            };
            own(&mut ret);
            ret_tuple.iter_mut().for_each(own);
            params.iter_mut().for_each(|(_, idents)| own(idents));
        }
        self.table.fns.push(FnSym {
            name,
            module: module.to_string(),
            self_type: self_type.map(str::to_string),
            file_idx: self.file_idx,
            line,
            body,
            params,
            ret,
            ret_tuple,
            is_test,
            is_pub,
        });
        b + 1
    }

    /// Whether the `fn` at `c` is declared plain `pub`: the qualifiers
    /// `const`/`async`/`unsafe`/`extern "abi"` may sit between, a
    /// restriction like `pub(crate)` may not.
    fn is_pub_before(&self, c: usize) -> bool {
        let qualifier = |t: &&crate::lexer::Tok| {
            t.kind == TokKind::Str
                || ["const", "async", "unsafe", "extern"].contains(&t.text.as_str())
        };
        (0..c)
            .rev()
            .map(|k| self.tok(k))
            .find(|t| !t.is_some_and(|t| qualifier(&t)))
            .flatten()
            .is_some_and(|t| t.is_ident("pub"))
    }

    /// The type idents in `[lo, hi)`, minus `mut`/`dyn`/`impl`:
    /// `&Arc<ConnWriter>` yields `["Arc", "ConnWriter"]`.
    fn type_idents(&self, lo: usize, hi: usize) -> Vec<String> {
        (lo..hi)
            .filter_map(|k| self.tok(k))
            .filter(|t| {
                t.kind == TokKind::Ident && t.text != "mut" && t.text != "dyn" && t.text != "impl"
            })
            .map(|t| t.text.clone())
            .collect()
    }

    /// The element type idents of a tuple type opening at `lo` and
    /// ending before `hi`; empty unless a `(` opens there.
    fn tuple_elems(&self, lo: usize, hi: usize) -> Vec<Vec<String>> {
        if lo >= hi || !self.tok(lo).is_some_and(|t| t.is_punct('(')) {
            return Vec::new();
        }
        let close = self.find_close(lo, '(', ')');
        let segments = self.segments(lo + 1, close).into_iter();
        segments.map(|(a, b)| self.type_idents(a, b)).collect()
    }

    /// Splits `[lo, hi)` at its top-level commas (brackets, parens and
    /// angle brackets nest; the `>` of `->` does not close one).
    fn segments(&self, lo: usize, hi: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut depth = 0usize;
        let mut seg_start = lo;
        for c in lo..hi {
            let Some(t) = self.tok(c) else { break };
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')')
                || t.is_punct(']')
                || (t.is_punct('>') && !(c > 0 && self.tok(c - 1).is_some_and(|p| p.is_punct('-'))))
            {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(',') {
                out.push((seg_start, c));
                seg_start = c + 1;
            }
        }
        out.push((seg_start, hi));
        out
    }

    /// Parses a param list between `lo` and `hi` (exclusive): for each
    /// top-level `pat: Type` segment with a simple ident pattern,
    /// records the pattern name and every ident in the annotation.
    fn parse_params(&self, lo: usize, hi: usize) -> Vec<(String, Vec<String>)> {
        self.segments(lo, hi)
            .into_iter()
            .filter_map(|(a, b)| self.parse_one_param(a, b))
            .collect()
    }

    fn parse_one_param(&self, lo: usize, hi: usize) -> Option<(String, Vec<String>)> {
        let mut c = lo;
        // Skip `mut`; a leading `&`/lifetime means a receiver or a
        // pattern we still handle as long as an `ident :` leads.
        while self
            .tok(c)
            .is_some_and(|t| t.is_ident("mut") || t.is_punct('&') || t.kind == TokKind::Lifetime)
        {
            c += 1;
        }
        let name_tok = self.tok(c)?;
        if name_tok.kind != TokKind::Ident || name_tok.text == "self" {
            return None;
        }
        if !self.tok(c + 1).is_some_and(|t| t.is_punct(':')) {
            return None;
        }
        Some((name_tok.text.clone(), self.type_idents(c + 2, hi)))
    }

    /// Parses `impl …` at `c`: registers the block and its fns.
    fn parse_impl(&mut self, c: usize, module: &str) -> usize {
        let mut i = c + 1;
        if self.tok(i).is_some_and(|t| t.is_punct('<')) {
            i = self.skip_generics(i);
        }
        let (first, after_first) = self.parse_type_path(i);
        let (type_name, trait_name, mut b) =
            if self.tok(after_first).is_some_and(|t| t.is_ident("for")) {
                let (second, after_second) = self.parse_type_path(after_first + 1);
                (second, first, after_second)
            } else {
                (first, None, after_first)
            };
        // Skip a where clause to the body.
        while let Some(t) = self.tok(b) {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') {
                return b + 1;
            }
            b += 1;
        }
        let Some(type_name) = type_name else {
            return self.skip_group(b, '{', '}');
        };
        let close = self.find_close(b, '{', '}');
        let fn_lo = self.table.fns.len();
        self.items(b + 1, close, module, Some(&type_name));
        let fn_ids: Vec<usize> = (fn_lo..self.table.fns.len()).collect();
        self.table.impls.push(ImplSym {
            type_name,
            trait_name,
            file_idx: self.file_idx,
            fn_ids,
        });
        close + 1
    }

    /// Reads a type path at `c` (`std::fmt::Display`, `Engine<P>`,
    /// `&mut Foo`): returns the base type name (last plain segment) and
    /// the code index just past the path.
    fn parse_type_path(&self, c: usize) -> (Option<String>, usize) {
        let mut i = c;
        let mut base = None;
        while let Some(t) = self.tok(i) {
            if t.is_punct('&')
                || t.kind == TokKind::Lifetime
                || t.is_ident("mut")
                || t.is_ident("dyn")
            {
                i += 1;
            } else if t.kind == TokKind::Ident {
                base = Some(t.text.clone());
                i += 1;
                if self.tok(i).is_some_and(|t| t.is_punct('<')) {
                    i = self.skip_generics(i);
                }
                if self.tok(i).is_some_and(|t| t.is_punct(':'))
                    && self.tok(i + 1).is_some_and(|t| t.is_punct(':'))
                {
                    i += 2;
                    continue;
                }
                break;
            } else {
                break;
            }
        }
        (base, i)
    }

    fn parse_trait(&mut self, c: usize, module: &str) -> usize {
        let Some(name_tok) = self.tok(c + 1).filter(|t| t.kind == TokKind::Ident) else {
            return c + 1;
        };
        let name = name_tok.text.clone();
        self.table.traits.insert(name.clone());
        let mut b = c + 2;
        while let Some(t) = self.tok(b) {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') {
                return b + 1;
            }
            b += 1;
        }
        let close = self.find_close(b, '{', '}');
        self.items(b + 1, close, module, Some(&name));
        close + 1
    }

    fn parse_struct(&mut self, c: usize) -> usize {
        let Some(name_tok) = self.tok(c + 1).filter(|t| t.kind == TokKind::Ident) else {
            return c + 1;
        };
        let name = name_tok.text.clone();
        let mut i = c + 2;
        if self.tok(i).is_some_and(|t| t.is_punct('<')) {
            i = self.skip_generics(i);
        }
        // `struct X;` / tuple struct `struct X(..);` — no named fields.
        if self.tok(i).is_some_and(|t| t.is_punct('(')) {
            let close = self.find_close(i, '(', ')');
            self.table.struct_fields.entry(name).or_default();
            return close + 2; // past `)` and `;`
        }
        if !self.tok(i).is_some_and(|t| t.is_punct('{')) {
            self.table.struct_fields.entry(name).or_default();
            return i + 1;
        }
        let close = self.find_close(i, '{', '}');
        let mut fields = BTreeMap::new();
        let mut k = i + 1;
        let mut depth = 0usize;
        while k < close {
            let Some(t) = self.tok(k) else { break };
            if t.is_punct('#') && self.tok(k + 1).is_some_and(|t| t.is_punct('[')) {
                k = self.skip_group(k + 1, '[', ']');
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')')
                || t.is_punct(']')
                || (t.is_punct('>') && !(k > 0 && self.tok(k - 1).is_some_and(|p| p.is_punct('-'))))
            {
                depth = depth.saturating_sub(1);
            } else if depth == 0
                && t.kind == TokKind::Ident
                && t.text != "pub"
                && self.tok(k + 1).is_some_and(|t| t.is_punct(':'))
                && !self.tok(k + 2).is_some_and(|t| t.is_punct(':'))
            {
                // `field : Type` — collect the annotation's idents up
                // to the comma at this depth.
                let fname = t.text.clone();
                let mut idents = Vec::new();
                let mut e = k + 2;
                let mut d2 = 0usize;
                while e < close {
                    let Some(u) = self.tok(e) else { break };
                    if d2 == 0 && u.is_punct(',') {
                        break;
                    }
                    if u.is_punct('(') || u.is_punct('[') || u.is_punct('<') {
                        d2 += 1;
                    } else if u.is_punct(')')
                        || u.is_punct(']')
                        || (u.is_punct('>')
                            && !(e > 0 && self.tok(e - 1).is_some_and(|p| p.is_punct('-'))))
                    {
                        d2 = d2.saturating_sub(1);
                    } else if u.kind == TokKind::Ident && u.text != "dyn" && u.text != "mut" {
                        idents.push(u.text.clone());
                    }
                    e += 1;
                }
                fields.insert(fname, idents);
                k = e;
                continue;
            }
            k += 1;
        }
        self.table.struct_fields.insert(name, fields);
        close + 1
    }

    /// Parses `type Alias<…> = Base<…>;` at `c` (the `type`).
    fn parse_alias(&mut self, c: usize) -> usize {
        let Some(name_tok) = self.tok(c + 1).filter(|t| t.kind == TokKind::Ident) else {
            return c + 1;
        };
        let name = name_tok.text.clone();
        let mut i = c + 2;
        if self.tok(i).is_some_and(|t| t.is_punct('<')) {
            i = self.skip_generics(i);
        }
        if !self.tok(i).is_some_and(|t| t.is_punct('=')) {
            return i;
        }
        let (base, end) = self.parse_type_path(i + 1);
        if let Some(base) = base.filter(|b| *b != name) {
            self.table.aliases.insert(name, base);
        }
        end
    }

    fn parse_enum(&mut self, c: usize, module: &str) -> usize {
        let Some(name_tok) = self.tok(c + 1).filter(|t| t.kind == TokKind::Ident) else {
            return c + 1;
        };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let is_test = self.is_test_at(c + 1);
        let mut i = c + 2;
        if self.tok(i).is_some_and(|t| t.is_punct('<')) {
            i = self.skip_generics(i);
        }
        if !self.tok(i).is_some_and(|t| t.is_punct('{')) {
            return i + 1;
        }
        let close = self.find_close(i, '{', '}');
        self.table.enums.push(EnumSym {
            name,
            module: module.to_string(),
            file_idx: self.file_idx,
            line,
            span: crate::scan::ItemSpan {
                open: self.code[i],
                close: self.code[close],
                line,
            },
            is_test,
        });
        close + 1
    }

    /// Parses `use a::b::{C, D as E};` into the alias map; returns the
    /// index past the `;`.
    fn parse_use(&mut self, c: usize) -> usize {
        let mut end = c + 1;
        while let Some(t) = self.tok(end) {
            if t.is_punct(';') {
                break;
            }
            end += 1;
        }
        self.use_tree(c + 1, end, &[]);
        end + 1
    }

    /// Recursively walks one use-tree segment list in `[lo, hi)` with
    /// the accumulated `prefix`.
    fn use_tree(&mut self, lo: usize, hi: usize, prefix: &[String]) {
        let mut segs: Vec<String> = prefix.to_vec();
        let mut c = lo;
        while c < hi {
            let Some(t) = self.tok(c) else { break };
            if t.kind == TokKind::Ident && t.text == "as" {
                // `… as Alias`
                if let Some(alias) = self.tok(c + 1).filter(|t| t.kind == TokKind::Ident) {
                    self.record_use(alias.text.clone(), segs.clone());
                }
                return;
            }
            if t.kind == TokKind::Ident {
                let norm = if segs.is_empty() && t.text == "crate" {
                    let module = &self.table.file_modules[self.file_idx];
                    module.split("::").next().unwrap_or_default().to_string()
                } else if segs.is_empty() {
                    normalize_crate(&t.text)
                } else {
                    t.text.clone()
                };
                segs.push(norm);
                c += 1;
                continue;
            }
            if t.is_punct(':') {
                c += 1;
                continue;
            }
            if t.is_punct('{') {
                let close = self.find_close(c, '{', '}');
                // Split the brace body at top-level commas; recurse.
                let mut d = 0usize;
                let mut start = c + 1;
                for k in (c + 1)..close {
                    let Some(u) = self.tok(k) else { break };
                    if u.is_punct('{') {
                        d += 1;
                    } else if u.is_punct('}') {
                        d = d.saturating_sub(1);
                    } else if u.is_punct(',') && d == 0 {
                        self.use_tree(start, k, &segs);
                        start = k + 1;
                    }
                }
                self.use_tree(start, close, &segs);
                return;
            }
            if t.is_punct('*') {
                return; // glob: nothing to alias
            }
            c += 1;
        }
        if !segs.is_empty() {
            let last = segs[segs.len() - 1].clone();
            let alias = if last == "self" {
                segs.pop();
                segs.last().cloned()
            } else {
                Some(last)
            };
            if let Some(alias) = alias {
                self.record_use(alias, segs);
            }
        }
    }

    fn record_use(&mut self, alias: String, path: Vec<String>) {
        if !path.is_empty() {
            self.uses.insert(alias, path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(srcs: &[(&str, &str)]) -> SymbolTable {
        let paths: Vec<String> = srcs.iter().map(|(p, _)| (*p).to_string()).collect();
        let files: Vec<FileTokens> = srcs.iter().map(|(p, s)| FileTokens::new(p, s)).collect();
        SymbolTable::build(&paths, &files)
    }

    #[test]
    fn module_paths_derive_from_file_layout() {
        assert_eq!(
            module_path_of("crates/gateway/src/server.rs"),
            "gateway::server"
        );
        assert_eq!(module_path_of("crates/core/src/lib.rs"), "core");
        assert_eq!(module_path_of("crates/core/src/sub/mod.rs"), "core::sub");
        assert_eq!(
            module_path_of("crates/core/tests/alloc_budget.rs"),
            "core::tests::alloc_budget"
        );
        assert_eq!(module_path_of("fixtures/reach/deep.rs"), "deep");
    }

    #[test]
    fn crate_names_normalize() {
        assert_eq!(normalize_crate("stigmergy"), "core");
        assert_eq!(normalize_crate("stigmergy_robots"), "robots");
        assert_eq!(normalize_crate("std"), "std");
    }

    #[test]
    fn free_fns_and_methods_index_with_paths() {
        let t = table(&[(
            "crates/demo/src/eng.rs",
            "pub fn free_one() {}\n\
             pub struct Engine { pos: Vec<Point>, writer: Arc<ConnWriter> }\n\
             impl Engine {\n    pub fn step(&mut self, n: usize) -> bool { true }\n}\n\
             impl std::fmt::Display for Engine { fn fmt(&self) {} }",
        )]);
        assert_eq!(t.free_by_name["free_one"].len(), 1);
        let step = &t.fns[t.methods[&("Engine".into(), "step".into())][0]];
        assert_eq!(step.path(), "demo::eng::Engine::step");
        assert_eq!(
            step.params,
            vec![("n".to_string(), vec!["usize".to_string()])]
        );
        let fmt = &t.fns[t.methods[&("Engine".into(), "fmt".into())][0]];
        assert_eq!(fmt.self_type.as_deref(), Some("Engine"));
        let disp = t.impls.iter().find(|i| i.trait_name.is_some()).unwrap();
        assert_eq!(disp.trait_name.as_deref(), Some("Display"));
        assert_eq!(
            t.struct_fields["Engine"]["writer"],
            vec!["Arc".to_string(), "ConnWriter".to_string()]
        );
    }

    #[test]
    fn generic_fns_and_impls_parse() {
        let t = table(&[(
            "crates/demo/src/pool.rs",
            "pub fn run_indexed<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>\n\
             where T: Sync, R: Send, F: Fn(&T) -> R + Sync,\n\
             { body() }\n\
             impl<P: Proto> Engine<P> { fn tick(&mut self) {} }",
        )]);
        let run = &t.fns[t.free_by_name["run_indexed"][0]];
        assert!(run.body.is_some());
        assert_eq!(run.params.len(), 3);
        assert_eq!(run.params[0].0, "items");
        assert!(t.methods.contains_key(&("Engine".into(), "tick".into())));
    }

    #[test]
    fn inline_modules_nest_and_tests_are_marked() {
        let t = table(&[(
            "crates/demo/src/lib.rs",
            "mod inner { pub fn deep() {} }\n#[cfg(test)]\nmod tests { fn t_helper() {} }",
        )]);
        let deep = &t.fns[t.free_by_name["deep"][0]];
        assert_eq!(deep.module, "demo::inner");
        let th = &t.fns[t.free_by_name["t_helper"][0]];
        assert!(th.is_test);
        assert!(!deep.is_test);
    }

    #[test]
    fn use_trees_resolve_aliases() {
        let t = table(&[(
            "crates/demo/src/a.rs",
            "use stigmergy_fleet::pool::{run_indexed, CancelToken as Tok};\nuse stigmergy::session;\nfn f() {}",
        )]);
        let uses = &t.uses[0];
        assert_eq!(uses["run_indexed"], vec!["fleet", "pool", "run_indexed"]);
        assert_eq!(uses["Tok"], vec!["fleet", "pool", "CancelToken"]);
        assert_eq!(uses["session"], vec!["core", "session"]);
    }

    #[test]
    fn trait_methods_index_under_trait_name() {
        let t = table(&[(
            "crates/demo/src/lib.rs",
            "pub trait Proto {\n    fn on_activate(&mut self, v: &View) -> Point;\n    fn name(&self) -> &str { \"p\" }\n}",
        )]);
        let on = &t.fns[t.methods[&("Proto".into(), "on_activate".into())][0]];
        assert!(on.body.is_none());
        let name = &t.fns[t.methods[&("Proto".into(), "name".into())][0]];
        assert!(name.body.is_some());
    }

    #[test]
    fn enclosing_fn_finds_innermost_body() {
        let t = table(&[(
            "crates/demo/src/a.rs",
            "fn outer() {\n    let c = || { inner_marker(); };\n}",
        )]);
        let outer = &t.fns[t.free_by_name["outer"][0]];
        let (open, close) = outer.body.unwrap();
        assert!(open < close);
        assert_eq!(
            t.enclosing_fn(0, open + 2),
            Some(t.free_by_name["outer"][0])
        );
    }

    #[test]
    fn enums_and_suffix_lookup() {
        let t = table(&[(
            "crates/scheduler/src/factory.rs",
            "pub enum ScheduleSpec { A, B }\nimpl ScheduleSpec { pub fn mk() {} }",
        )]);
        assert_eq!(t.enums.len(), 1);
        assert_eq!(t.enums[0].module, "scheduler::factory");
        assert_eq!(t.find_by_suffix("ScheduleSpec::mk").len(), 1);
        assert_eq!(t.find_by_suffix("factory::ScheduleSpec::mk").len(), 1);
        assert!(t.find_by_suffix("Spec::mk").is_empty());
    }
}
