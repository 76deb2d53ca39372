//! Report rendering: stable-order human text and JSON.
//!
//! Violations are sorted by `(file, line, rule, message)` and
//! deduplicated, so two runs over the same tree produce byte-identical
//! output — the reports are diffable and safe to commit as goldens.

use crate::Violation;

/// Sorts and deduplicates in place.
pub fn finalize(violations: &mut Vec<Violation>) {
    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    violations.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
}

/// Renders the human-readable report (one line per violation plus a
/// summary footer).
#[must_use]
pub fn human(violations: &[Violation]) -> String {
    let mut s = String::new();
    for v in violations {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            v.file, v.line, v.rule, v.message
        ));
    }
    if violations.is_empty() {
        s.push_str("stiglint: no violations\n");
    } else {
        let files: std::collections::BTreeSet<&str> =
            violations.iter().map(|v| v.file.as_str()).collect();
        s.push_str(&format!(
            "stiglint: {} violation{} in {} file{}\n",
            violations.len(),
            if violations.len() == 1 { "" } else { "s" },
            files.len(),
            if files.len() == 1 { "" } else { "s" },
        ));
    }
    s
}

/// Renders the JSON report: `{"violations":[…],"count":N}` with keys
/// and array order stable.
#[must_use]
pub fn json(violations: &[Violation]) -> String {
    let mut s = String::from("{\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_str(&v.file),
            v.line,
            json_str(v.rule),
            json_str(&v.message),
        ));
    }
    s.push_str(&format!("],\"count\":{}}}\n", violations.len()));
    s
}

/// Renders the `--graph-stats` JSON: resolution counters, the union
/// fraction at fixed precision (stable across platforms), the dead
/// `pub` count, and both configured ceilings. One object, keys in
/// fixed order, diffable.
#[must_use]
pub fn graph_stats_json(stats: &crate::callgraph::GraphStats, dead_pub: usize) -> String {
    format!(
        "{{\"fns\":{},\"resolved\":{},\"union\":{},\"extern\":{},\
         \"union_fraction\":{:.4},\"max_union_edges\":{},\
         \"dead_pub\":{dead_pub},\"max_dead_pub\":{}}}\n",
        stats.fns,
        stats.resolved,
        stats.union_edges,
        stats.extern_edges,
        stats.union_fraction(),
        crate::config::MAX_UNION_EDGES,
        crate::config::MAX_DEAD_PUB,
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, line: u32, rule: &'static str, msg: &str) -> Violation {
        Violation {
            file: file.to_string(),
            line,
            rule,
            message: msg.to_string(),
        }
    }

    #[test]
    fn finalize_sorts_and_dedups() {
        let mut vs = vec![
            v("b.rs", 2, "determinism", "x"),
            v("a.rs", 9, "panic-safety", "y"),
            v("b.rs", 2, "determinism", "x"),
            v("a.rs", 1, "determinism", "z"),
        ];
        finalize(&mut vs);
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[0].file, "a.rs");
        assert_eq!(vs[0].line, 1);
        assert_eq!(vs[1].line, 9);
        assert_eq!(vs[2].file, "b.rs");
    }

    #[test]
    fn human_summary_counts() {
        let vs = vec![
            v("a.rs", 1, "determinism", "x"),
            v("a.rs", 2, "determinism", "y"),
        ];
        let h = human(&vs);
        assert!(h.contains("a.rs:1: [determinism] x"));
        assert!(h.contains("2 violations in 1 file\n"));
        assert!(human(&[]).contains("no violations"));
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let vs = vec![v("a.rs", 1, "determinism", "say \"hi\"\npath\\x")];
        let j = json(&vs);
        assert_eq!(
            j,
            "{\"violations\":[{\"file\":\"a.rs\",\"line\":1,\"rule\":\"determinism\",\"message\":\"say \\\"hi\\\"\\npath\\\\x\"}],\"count\":1}\n"
        );
        assert_eq!(json(&[]), "{\"violations\":[],\"count\":0}\n");
    }
}
