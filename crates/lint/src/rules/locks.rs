//! Lock-discipline pass: flag Mutex guards held across blocking I/O or
//! Condvar waits.
//!
//! A guard held across a socket read stalls every thread contending on
//! that Mutex for as long as the peer cares to dawdle; a guard held
//! while waiting on a *different* Condvar is a deadlock in waiting.
//! The pass tracks guard liveness lexically:
//!
//! - A guard registers only for the exact statement shape
//!   `let [mut] NAME = <expr>.lock() [.expect(..)|.unwrap()]* ;`
//!   — the chain must terminate the statement. `let x = { ..lock().. };`
//!   block initializers, `lock().expect(..).clone()` temporaries, and
//!   `mem::take(&mut *..lock()..)` all drop their guard within the
//!   statement and are deliberately not tracked (no false positives
//!   from temporaries).
//! - The guard dies at the `}` closing the block it was declared in, or
//!   at an explicit `drop(NAME)`.
//! - While any guard is live, a call to a blocking sink
//!   ([`BLOCKING_SINKS`]) is a violation — except `.wait(g)` /
//!   `.wait_timeout(g, ..)` where `g` *is* the only live guard, which
//!   is the legitimate Condvar protocol (the wait atomically releases
//!   it).
//!
//! This is a lexical heuristic, not an alias analysis: guards smuggled
//! through helper calls or renamed via `&mut` reborrows are invisible.
//! The configured scope (pool/server/client) is small enough that the
//! statement-shape rule covers every guard those files create.

use crate::lexer::TokKind;
use crate::scan::FileTokens;
use crate::Violation;

pub const RULE: &str = "lock-discipline";

/// Rule name for the lock-free pass.
pub const RULE_LOCK_FREE: &str = "lock-free";

/// Blocking-synchronization type names banned in lock-free scope.
const BLOCKING_SYNC_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier"];

/// Method names banned in lock-free scope (in `.name(` call form).
const BLOCKING_SYNC_METHODS: &[&str] = &["lock", "wait", "wait_timeout", "wait_while"];

/// Method names treated as blocking: socket I/O, frame I/O, channel
/// handoff, and sleeps. These only count in method (`.send(`) or path
/// (`::sleep(`) form, so a local fn that happens to share a name is
/// not a call site.
pub const BLOCKING_SINKS: &[&str] = &[
    "read",
    "read_exact",
    "write",
    "write_all",
    "flush",
    "read_frame",
    "write_frame",
    "send",
    "accept",
    "connect",
    "connect_timeout",
    "sleep",
    "job_finished",
];

/// Frame-I/O helpers that are free functions in this workspace
/// (`write_frame(&mut *stream, msg)`): these count in plain-call form
/// as well.
pub const PLAIN_CALL_SINKS: &[&str] = &["read_frame", "write_frame"];

#[derive(Debug)]
struct Guard {
    name: String,
    depth: usize,
}

/// Runs the lock pass over one file.
#[must_use]
pub fn check(ft: &FileTokens) -> Vec<Violation> {
    let code = ft.code_indices();
    let mut out = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut c = 0usize;
    while c < code.len() {
        let t = &ft.toks[code[c]];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
        } else if t.is_ident("let") {
            if let Some((name, after)) = match_guard_binding(ft, &code, c) {
                guards.push(Guard { name, depth });
                c = after;
                continue;
            }
        } else if t.is_ident("drop")
            && c + 2 < code.len()
            && ft.toks[code[c + 1]].is_punct('(')
            && ft.toks[code[c + 2]].kind == TokKind::Ident
        {
            let dropped = &ft.toks[code[c + 2]].text;
            guards.retain(|g| &g.name != dropped);
        } else if !guards.is_empty()
            && t.kind == TokKind::Ident
            && BLOCKING_SINKS.contains(&t.text.as_str())
            && c + 1 < code.len()
            && ft.toks[code[c + 1]].is_punct('(')
            && (is_method_call(ft, &code, c) || PLAIN_CALL_SINKS.contains(&t.text.as_str()))
            && !ft.is_suppressed(RULE, t.line)
        {
            let held: Vec<&str> = guards.iter().map(|g| g.name.as_str()).collect();
            out.push(Violation {
                file: ft.path.clone(),
                line: t.line,
                rule: RULE,
                message: format!(
                    "blocking call `.{}(..)` while Mutex guard{} `{}` {} held; \
                     drop the guard (or clone what you need) before blocking",
                    t.text,
                    if held.len() == 1 { "" } else { "s" },
                    held.join("`, `"),
                    if held.len() == 1 { "is" } else { "are" },
                ),
            });
        } else if !guards.is_empty()
            && (t.is_ident("wait") || t.is_ident("wait_timeout"))
            && c + 2 < code.len()
            && ft.toks[code[c + 1]].is_punct('(')
            && is_method_call(ft, &code, c)
        {
            // `cv.wait(g)` atomically releases `g`; only *other* live
            // guards are a problem.
            let arg = &ft.toks[code[c + 2]].text;
            let others: Vec<&str> = guards
                .iter()
                .filter(|g| &g.name != arg)
                .map(|g| g.name.as_str())
                .collect();
            if !others.is_empty() && !ft.is_suppressed(RULE, t.line) {
                out.push(Violation {
                    file: ft.path.clone(),
                    line: t.line,
                    rule: RULE,
                    message: format!(
                        "`.{}({arg}, ..)` releases `{arg}` but guard{} `{}` stay{} held \
                         across the wait: deadlock hazard",
                        t.text,
                        if others.len() == 1 { "" } else { "s" },
                        others.join("`, `"),
                        if others.len() == 1 { "s" } else { "" },
                    ),
                });
            }
        }
        c += 1;
    }
    out
}

/// Runs the lock-free pass over one file: in files declared lock-free
/// (the worker pool), *any* blocking synchronization primitive is a
/// violation — the pool's claims are one atomic `fetch_add`, so a
/// `Mutex` sneaking back in is an architecture regression, not a style
/// problem. Bans the blocking
/// sync type names (`BLOCKING_SYNC_TYPES`) and `.lock(` / `.wait*(`
/// method calls; `mpsc` channels and atomics stay legal (the result
/// path is a channel, and `recv` blocking on the collector is the
/// design).
#[must_use]
pub fn check_lockfree(ft: &FileTokens) -> Vec<Violation> {
    let code = ft.code_indices();
    let mut out = Vec::new();
    for (i, &ti) in code.iter().enumerate() {
        let t = &ft.toks[ti];
        if t.kind != TokKind::Ident || ft.is_suppressed(RULE_LOCK_FREE, t.line) {
            continue;
        }
        if BLOCKING_SYNC_TYPES.contains(&t.text.as_str()) {
            out.push(Violation {
                file: ft.path.clone(),
                line: t.line,
                rule: RULE_LOCK_FREE,
                message: format!(
                    "`{}` in a lock-free file: the pool's claim path must \
                     stay atomics-only (atomics + channels); see DESIGN.md §9",
                    t.text
                ),
            });
        } else if BLOCKING_SYNC_METHODS.contains(&t.text.as_str())
            && i + 1 < code.len()
            && ft.toks[code[i + 1]].is_punct('(')
            && is_method_call(ft, &code, i)
        {
            out.push(Violation {
                file: ft.path.clone(),
                line: t.line,
                rule: RULE_LOCK_FREE,
                message: format!(
                    "`.{}(..)` in a lock-free file: blocking synchronization is \
                     banned here; claims must go through the atomic cursor",
                    t.text
                ),
            });
        }
    }
    out
}

/// Whether `code[c]` is the method name of a `.name(` call (previous
/// token is `.`), so bare fns like `thread::sleep` still count via the
/// path form `sleep(`... no: paths arrive as `:: sleep (`. Accept both
/// `.` and `::`-path forms; reject plain local fns named like sinks.
fn is_method_call(ft: &FileTokens, code: &[usize], c: usize) -> bool {
    if c == 0 {
        return false;
    }
    let prev = &ft.toks[code[c - 1]];
    prev.is_punct('.') || prev.is_punct(':')
}

/// Matches `let [mut] NAME = <tokens>.lock() [.expect(STR)|.unwrap()]* ;`
/// starting at the `let`. Returns the guard name and the code index of
/// the terminating `;`.
fn match_guard_binding(ft: &FileTokens, code: &[usize], let_c: usize) -> Option<(String, usize)> {
    let mut c = let_c + 1;
    if c < code.len() && ft.toks[code[c]].is_ident("mut") {
        c += 1;
    }
    let name_tok = &ft.toks[*code.get(c)?];
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    c += 1;
    if !ft.toks[*code.get(c)?].is_punct('=') {
        return None;
    }
    // Scan the initializer to its terminating `;` at depth 0. Any
    // braced block in the initializer disqualifies it (temporaries
    // die inside the block).
    let mut d = 0usize;
    let mut lock_at: Option<usize> = None;
    let mut end = c + 1;
    loop {
        let t = &ft.toks[*code.get(end)?];
        if t.is_punct('(') || t.is_punct('[') {
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            d = d.saturating_sub(1);
        } else if t.is_punct('{') {
            return None;
        } else if t.is_punct(';') && d == 0 {
            break;
        } else if d == 0 && t.is_ident("lock") {
            lock_at = Some(end);
        }
        end += 1;
    }
    let lock_c = lock_at?;
    // After `lock ( )`, only `.expect(..)` / `.unwrap()` links may
    // appear before the `;`.
    let mut c2 = lock_c + 1;
    if !ft.toks[*code.get(c2)?].is_punct('(') {
        return None;
    }
    c2 += 1; // lock's args (there are none, but tolerate any) …
    let mut d2 = 1usize;
    while d2 > 0 {
        let t = &ft.toks[*code.get(c2)?];
        if t.is_punct('(') {
            d2 += 1;
        } else if t.is_punct(')') {
            d2 -= 1;
        }
        c2 += 1;
    }
    while c2 < end {
        if !ft.toks[code[c2]].is_punct('.') {
            return None;
        }
        let m = &ft.toks[*code.get(c2 + 1)?];
        if !(m.is_ident("expect") || m.is_ident("unwrap")) {
            return None;
        }
        c2 += 2;
        if !ft.toks[*code.get(c2)?].is_punct('(') {
            return None;
        }
        let mut d3 = 1usize;
        c2 += 1;
        while d3 > 0 {
            let t = &ft.toks[*code.get(c2)?];
            if t.is_punct('(') {
                d3 += 1;
            } else if t.is_punct(')') {
                d3 -= 1;
            }
            c2 += 1;
        }
    }
    Some((name, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileTokens;

    fn run(src: &str) -> Vec<Violation> {
        check(&FileTokens::new("f.rs", src))
    }

    #[test]
    fn guard_across_write_is_flagged() {
        let src = "fn f(&self) {\n    let mut s = self.stream.lock().expect(\"poisoned\");\n    s.write_all(&buf);\n}";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("write_all"));
        assert!(v[0].message.contains("`s`"));
    }

    #[test]
    fn guard_dropped_before_io_is_clean() {
        let src = "fn f(&self) {\n    let mut s = self.state.lock().unwrap();\n    s.n += 1;\n    drop(s);\n    self.sock.write_all(&buf);\n}";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guard_scope_end_releases() {
        let src = "fn f(&self) {\n    {\n        let st = self.state.lock().expect(\"p\");\n        st.touch();\n    }\n    self.sock.flush();\n}";
        assert!(run(src).is_empty());
    }

    #[test]
    fn block_initializer_is_not_a_guard() {
        let src = "fn f(&self) {\n    let job = { let mut st = self.state.lock().expect(\"p\"); st.queue.pop() };\n    self.sock.write_frame(&job);\n}";
        assert!(run(src).is_empty());
    }

    #[test]
    fn temporary_chain_is_not_a_guard() {
        let src = "fn f(&self) {\n    let v = self.state.lock().expect(\"p\").queue.len();\n    self.sock.send(v);\n}";
        assert!(run(src).is_empty());
    }

    #[test]
    fn condvar_wait_on_own_guard_is_legit() {
        let src = "fn f(&self) {\n    let mut state = self.state.lock().expect(\"p\");\n    while state.empty() {\n        state = self.ready.wait(state).expect(\"p\");\n    }\n}";
        assert!(run(src).is_empty());
    }

    #[test]
    fn condvar_wait_with_second_guard_is_flagged() {
        let src = "fn f(&self) {\n    let other = self.log.lock().expect(\"p\");\n    let mut state = self.state.lock().expect(\"p\");\n    state = self.ready.wait(state).expect(\"p\");\n}";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`other`"));
        assert!(v[0].message.contains("deadlock"));
    }

    #[test]
    fn plain_fn_named_like_sink_is_not_a_call_site() {
        let src = "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    send(g.val);\n}";
        assert!(run(src).is_empty());
    }

    #[test]
    fn plain_frame_io_is_flagged() {
        let src = "fn f(&self) {\n    let mut s = self.stream.lock().expect(\"p\");\n    let _ = write_frame(&mut *s, msg);\n}";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("write_frame"));
    }

    #[test]
    fn bounded_connect_under_a_guard_is_flagged() {
        let src = "fn f(&self) {\n    let st = self.state.lock().expect(\"p\");\n    let _ = TcpStream::connect_timeout(&addr, t);\n}";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("connect_timeout"));
    }

    #[test]
    fn path_form_sleep_is_flagged() {
        let src =
            "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    std::thread::sleep(d);\n}";
        assert_eq!(run(src).len(), 1);
    }

    fn run_lockfree(src: &str) -> Vec<Violation> {
        check_lockfree(&FileTokens::new("f.rs", src))
    }

    #[test]
    fn lockfree_flags_mutex_types_and_lock_calls() {
        let src =
            "use std::sync::Mutex;\nfn f(&self) {\n    let g = self.state.lock().unwrap();\n}";
        let v = run_lockfree(src);
        assert_eq!(v.len(), 2);
        assert!(v[0].message.contains("`Mutex`"));
        assert!(v[1].message.contains(".lock(..)"));
        assert!(v.iter().all(|x| x.rule == RULE_LOCK_FREE));
    }

    #[test]
    fn lockfree_flags_condvar_wait() {
        let src = "fn f(&self) {\n    let g = self.ready.wait(g).unwrap();\n}";
        let v = run_lockfree(src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains(".wait(..)"));
    }

    #[test]
    fn lockfree_allows_atomics_and_channels() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\nuse std::sync::mpsc;\nfn f(&self) {\n    self.word.compare_exchange(a, b, Ordering::AcqRel, Ordering::Acquire);\n    let (tx, rx) = mpsc::sync_channel(4);\n    rx.recv();\n}";
        assert!(run_lockfree(src).is_empty());
    }

    #[test]
    fn lockfree_ignores_names_in_comments_and_strings() {
        let src =
            "// A Mutex would serialize every claim here.\nfn f() {\n    let s = \"Mutex\";\n}";
        assert!(run_lockfree(src).is_empty());
    }

    #[test]
    fn lockfree_fn_named_wait_is_not_a_call_site() {
        let src = "fn wait(n: u64) {}\nfn f() {\n    wait(3);\n}";
        assert!(run_lockfree(src).is_empty());
    }

    #[test]
    fn lockfree_suppression_silences() {
        let src = "fn f(&self) {\n    // stiglint: allow(lock-free) -- shutdown path only, never on a claim\n    let g = self.state.lock().unwrap();\n}";
        assert!(run_lockfree(src).is_empty());
    }

    #[test]
    fn suppression_silences() {
        let src = "fn f(&self) {\n    let s = self.stream.lock().expect(\"p\");\n    // stiglint: allow(lock-discipline) -- single writer per connection by design\n    s.write_frame(&m);\n}";
        assert!(run(src).is_empty());
    }
}
