//! Dead-`pub` pass: a plain-`pub`, non-test fn outside a trait impl
//! needs a call edge or value reference (`run: claims::e1`) from
//! another file. A union edge reaches every fn it names. The dead
//! fns' count has a ceiling that may only fall (`MAX_DEAD_PUB`; 0 in
//! file mode); above it, every one is reported.

use std::collections::BTreeSet;

use crate::callgraph::Callee;
use crate::Violation;
use crate::WorkspaceIndex;

pub const RULE: &str = "dead-pub";

/// Ids of the dead `pub` fns whose file `defines` accepts, in table
/// order.
#[must_use]
pub fn dead(idx: &WorkspaceIndex, defines: impl Fn(&str) -> bool) -> Vec<usize> {
    let table = &idx.table;
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for e in idx.graph.edges.iter().chain(&idx.graph.value_refs) {
        let ids = match &e.callee {
            Callee::Fn(id) => std::slice::from_ref(id),
            Callee::Union(ids) => ids.as_slice(),
            Callee::Extern(_) => continue,
        };
        used.extend(
            ids.iter()
                .filter(|&&id| table.fns[id].file_idx != e.file_idx),
        );
    }
    let in_trait_impl: BTreeSet<usize> = table
        .impls
        .iter()
        .filter(|im| im.trait_name.is_some())
        .flat_map(|im| im.fn_ids.iter().copied())
        .collect();
    (0..table.fns.len())
        .filter(|id| {
            let f = &table.fns[*id];
            f.is_pub
                && !f.is_test
                && !in_trait_impl.contains(id)
                && !used.contains(id)
                && defines(&table.file_paths[f.file_idx])
        })
        .collect()
}

/// Reports every dead `pub` fn when their count exceeds `ceiling`.
#[must_use]
pub fn check(
    idx: &WorkspaceIndex,
    defines: impl Fn(&str) -> bool,
    ceiling: usize,
) -> Vec<Violation> {
    let dead = dead(idx, defines);
    if dead.len() <= ceiling {
        return Vec::new();
    }
    dead.iter()
        .map(|&id| {
            let f = &idx.table.fns[id];
            Violation {
                file: idx.table.file_paths[f.file_idx].clone(),
                line: f.line,
                rule: RULE,
                message: format!(
                    "`{}` is `pub` but nothing outside its file calls or names it \
                     ({} dead `pub` fns exceed the ceiling {ceiling}); make it private or delete it",
                    f.path(),
                    dead.len()
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead_paths(srcs: &[(&str, &str)]) -> Vec<String> {
        let idx = WorkspaceIndex::from_sources(srcs);
        dead(&idx, |_| true)
            .into_iter()
            .map(|id| idx.table.fns[id].path())
            .collect()
    }

    #[test]
    fn callers_in_the_own_file_do_not_count() {
        let dead = dead_paths(&[(
            "crates/a/src/lib.rs",
            "pub fn lonely() {}\npub fn used_here() {}\nfn private() { used_here(); }\n\
             pub(crate) fn scoped() {}\n#[cfg(test)]\nmod tests { pub fn t() { super::lonely(); } }",
        )]);
        assert_eq!(dead, ["a::lonely", "a::used_here"]);
    }

    #[test]
    fn calls_unions_and_value_refs_from_other_files_count() {
        let dead = dead_paths(&[
            (
                "crates/a/src/lib.rs",
                "pub struct X;\npub struct Y;\nimpl X { pub fn go(&self) {} pub fn idle(&self) {} }\n\
                 impl Y { pub fn go(&self) {} }\npub fn called() {}\npub fn pointed() {}\n\
                 impl std::fmt::Display for X { fn fmt(&self) {} }",
            ),
            (
                "crates/b/src/lib.rs",
                "use stigmergy_a::{called, pointed};\n\
                 pub fn drive<T>(v: T) { called(); v.go(); let f: fn() = pointed; f(); }",
            ),
        ]);
        assert_eq!(dead, ["a::X::idle", "b::drive"]);
    }
}
