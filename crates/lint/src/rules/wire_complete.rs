//! Wire-completeness pass: every enum variant must appear in its
//! codec's match arms.
//!
//! Adding a `ScheduleSpec`/`FaultSpec`/gateway `Message` variant
//! without touching the encode/decode arms would surface as a proptest
//! flake (or worse, a silent wire error). This pass makes it a lint
//! failure: for each (enum, codec fns) pair, every variant name must
//! occur as an identifier inside every codec fn body.
//!
//! Matching is by identifier occurrence, not full pattern analysis: a
//! decode arm that names the variant (`ScheduleSpec::Bursty { .. }` or
//! a constructor call) counts. A codec that genuinely covers a variant
//! without naming it (e.g. via `_ =>`) is exactly the hazard this pass
//! exists to flag — wildcard arms hide missing variants.
//!
//! Pairing comes from two sources:
//!
//! - Symbol-graph inference: every workspace `enum E` is paired with
//!   every `impl E` or `impl Trait for E` (e.g. `impl Wire for E`)
//!   holding fns named in [`CODEC_FNS`], across file and crate
//!   boundaries ([`check_inferred_workspace`]).
//! - An explicit table in [`crate::config`] for what inference cannot
//!   see — a codec whose arms live in a differently named fn (today
//!   only `ProtocolKind::row`). A table row *replaces* inference for
//!   its enum.

use crate::lexer::TokKind;
use crate::scan::{enum_variants, find_enums, find_fn_bodies, FileTokens};
use crate::Violation;

pub const RULE: &str = "wire-completeness";

/// Fn names that mark an impl as a codec.
pub const CODEC_FNS: &[&str] = &[
    "encode",
    "decode",
    "encode_wire",
    "decode_wire",
    "kind",
    "wire_code",
    "from_wire_code",
];

/// One enum↔codec pairing to check.
pub struct Pairing<'a> {
    /// File (workspace-relative) holding `enum <name>`.
    pub enum_file: &'a str,
    /// The enum's name.
    pub enum_name: &'a str,
    /// File holding the codec impl.
    pub codec_file: &'a str,
    /// Name of the type whose impls hold the codec fns. Usually the
    /// enum itself, but a sub-enum may ride inside a parent's codec.
    pub impl_name: &'a str,
    /// Codec fns each variant must appear in. A fn listed here but
    /// absent from the impl is itself a violation.
    pub fns: &'a [&'a str],
}

/// Checks one explicit pairing given the two (possibly equal) files.
#[must_use]
pub fn check_pairing(
    pairing: &Pairing,
    enum_ft: &FileTokens,
    codec_ft: &FileTokens,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some((_, espan)) = find_enums(enum_ft)
        .into_iter()
        .find(|(n, _)| n == pairing.enum_name)
    else {
        out.push(Violation {
            file: pairing.enum_file.to_string(),
            line: 1,
            rule: RULE,
            message: format!(
                "configured enum `{}` not found in {}; update the wire-completeness table",
                pairing.enum_name, pairing.enum_file
            ),
        });
        return out;
    };
    let variants = enum_variants(enum_ft, espan);
    let impls = find_impls_named(codec_ft, pairing.impl_name);
    for fname in pairing.fns {
        let Some((body_open, body_close)) = impls.iter().find_map(|span| {
            find_fn_bodies(codec_ft, *span)
                .into_iter()
                .find(|(n, _, _)| n == fname)
                .map(|(_, o, c)| (o, c))
        }) else {
            out.push(Violation {
                file: pairing.codec_file.to_string(),
                line: 1,
                rule: RULE,
                message: format!(
                    "codec fn `{}::{fname}` not found in {}; update the wire-completeness table",
                    pairing.impl_name, pairing.codec_file
                ),
            });
            continue;
        };
        out.extend(unnamed_variants(
            codec_ft,
            (body_open, body_close),
            &format!("{}::{fname}", pairing.impl_name),
            pairing.enum_name,
            &variants,
        ));
    }
    out
}

/// Symbol-graph inference: pair every workspace `enum E` with the
/// `impl E` and `impl Trait for E` blocks holding codec-named fns,
/// wherever those impls live. An enum declared in `scheduler::factory`
/// with its `impl Wire` in `scheduler::wire` is checked with no table
/// entry. Enums the explicit table covers are skipped entirely — a
/// table row is a reviewed statement of *which* fns carry the arms
/// (`ProtocolKind`'s `encode_wire` reads a column of its `row` table,
/// and inferring on it would be a false positive).
#[must_use]
pub fn check_inferred_workspace(
    idx: &crate::WorkspaceIndex,
    explicit: &[Pairing],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for e in &idx.table.enums {
        if e.is_test {
            continue;
        }
        let covered = explicit
            .iter()
            .any(|p| p.enum_name == e.name && p.enum_file == idx.files[e.file_idx].path);
        if covered {
            continue;
        }
        let enum_ft = &idx.files[e.file_idx];
        let variants = enum_variants(enum_ft, e.span);
        for imp in &idx.table.impls {
            if imp.type_name != e.name {
                continue;
            }
            for &fn_id in &imp.fn_ids {
                let f = &idx.table.fns[fn_id];
                if f.is_test || !CODEC_FNS.contains(&f.name.as_str()) {
                    continue;
                }
                let Some((open, close)) = f.body else {
                    continue;
                };
                out.extend(unnamed_variants(
                    &idx.files[f.file_idx],
                    (open, close),
                    &format!("{}::{}", e.name, f.name),
                    &e.name,
                    &variants,
                ));
            }
        }
    }
    out
}

/// One violation per variant of `enum_name` that the `codec` fn body
/// between tokens `open` and `close` never names, unless suppressed.
fn unnamed_variants(
    codec_ft: &FileTokens,
    (open, close): (usize, usize),
    codec: &str,
    enum_name: &str,
    variants: &[String],
) -> Vec<Violation> {
    let line = codec_ft.toks[open].line;
    if codec_ft.is_suppressed(RULE, line) {
        return Vec::new();
    }
    let named: std::collections::BTreeSet<&str> = codec_ft
        .all_code_indices()
        .into_iter()
        .filter(|&i| i > open && i < close && codec_ft.toks[i].kind == TokKind::Ident)
        .map(|i| codec_ft.toks[i].text.as_str())
        .collect();
    variants
        .iter()
        .filter(|v| !named.contains(v.as_str()))
        .map(|v| Violation {
            file: codec_ft.path.clone(),
            line,
            rule: RULE,
            message: format!(
                "`{codec}` has no arm naming `{enum_name}::{v}`; \
                 a wildcard arm would hide it on the wire"
            ),
        })
        .collect()
}

fn find_impls_named(ft: &FileTokens, name: &str) -> Vec<crate::scan::ItemSpan> {
    crate::scan::find_impls(ft)
        .into_iter()
        .filter(|(n, _)| n == name)
        .map(|(_, s)| s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileTokens;

    const COMPLETE: &str = "pub enum Frame { Ping, Pong, Data }\n\
        impl Frame {\n\
            pub fn encode(&self) -> u8 { match self { Frame::Ping => 0, Frame::Pong => 1, Frame::Data => 2 } }\n\
            pub fn decode(b: u8) -> Frame { match b { 0 => Frame::Ping, 1 => Frame::Pong, _ => Frame::Data } }\n\
        }";

    const MISSING: &str = "pub enum Frame { Ping, Pong, Data }\n\
        impl Frame {\n\
            pub fn encode(&self) -> u8 { match self { Frame::Ping => 0, Frame::Pong => 1, Frame::Data => 2 } }\n\
            pub fn decode(b: u8) -> Frame { match b { 0 => Frame::Ping, _ => Frame::Pong } }\n\
        }";

    fn infer(srcs: &[(&str, &str)]) -> Vec<Violation> {
        check_inferred_workspace(&crate::WorkspaceIndex::from_sources(srcs), &[])
    }

    #[test]
    fn complete_codec_is_clean() {
        assert!(infer(&[("f.rs", COMPLETE)]).is_empty());
    }

    #[test]
    fn missing_decode_arm_is_flagged() {
        let v = infer(&[("f.rs", MISSING)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`Frame::decode`"));
        assert!(v[0].message.contains("`Frame::Data`"));
    }

    #[test]
    fn cross_file_enum_and_codec_pair_with_no_table_entry() {
        let v = infer(&[
            (
                "crates/scheduler/src/factory.rs",
                "pub enum Spec { A, B, C }",
            ),
            (
                "crates/scheduler/src/wire.rs",
                "use crate::factory::Spec;\nimpl Spec {\n    pub fn encode_wire(&self) -> u8 { match self { Spec::A => 0, Spec::B => 1, Spec::C => 2 } }\n    pub fn decode_wire(b: u8) -> Spec { match b { 0 => Spec::A, _ => Spec::B } }\n}",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/scheduler/src/wire.rs");
        assert!(v[0].message.contains("`Spec::decode_wire`"));
        assert!(v[0].message.contains("`Spec::C`"));
    }

    #[test]
    fn explicit_table_rows_override_inference_per_enum() {
        // The decode arms live in a helper the table knows about; naive
        // inference on the `decode_wire` shim must not fire.
        let srcs: &[(&str, &str)] = &[
            ("crates/s/src/factory.rs", "pub enum Spec { A, B }"),
            (
                "crates/s/src/wire.rs",
                "impl Spec {\n    pub fn encode_wire(&self) -> u8 { match self { Spec::A => 0, Spec::B => 1 } }\n    pub fn decode_wire(b: u8) -> Spec { Spec::decode_nested(b, 0) }\n    fn decode_nested(b: u8, _d: u8) -> Spec { match b { 0 => Spec::A, _ => Spec::B } }\n}",
            ),
        ];
        let idx = crate::WorkspaceIndex::from_sources(srcs);
        // Without the row, the shim names neither variant: 2 findings.
        assert_eq!(check_inferred_workspace(&idx, &[]).len(), 2);
        let row = Pairing {
            enum_file: "crates/s/src/factory.rs",
            enum_name: "Spec",
            codec_file: "crates/s/src/wire.rs",
            impl_name: "Spec",
            fns: &["encode_wire", "decode_nested"],
        };
        assert!(check_inferred_workspace(&idx, &[row]).is_empty());
    }

    #[test]
    fn cross_file_pairing() {
        let e = FileTokens::new("spec.rs", "pub enum Spec { A, B }");
        let c = FileTokens::new(
            "wire.rs",
            "impl Spec { pub fn encode_wire(&self) -> u8 { match self { Spec::A => 0, Spec::B => 1 } } }",
        );
        let p = Pairing {
            enum_file: "spec.rs",
            enum_name: "Spec",
            codec_file: "wire.rs",
            impl_name: "Spec",
            fns: &["encode_wire"],
        };
        assert!(check_pairing(&p, &e, &c).is_empty());
        let p2 = Pairing {
            fns: &["encode_wire", "decode_wire"],
            ..p
        };
        let v = check_pairing(&p2, &e, &c);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("decode_wire"));
    }

    #[test]
    fn missing_enum_is_a_config_violation() {
        let e = FileTokens::new("spec.rs", "pub struct NotAnEnum;");
        let p = Pairing {
            enum_file: "spec.rs",
            enum_name: "Spec",
            codec_file: "spec.rs",
            impl_name: "Spec",
            fns: &["encode"],
        };
        let v = check_pairing(&p, &e, &e);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("not found"));
    }

    #[test]
    fn sub_enum_checked_against_parent_codec() {
        let src = "pub enum Reason { Full, Draining }\n\
            pub enum Msg { Ok, No }\n\
            impl Msg {\n\
                pub fn encode(&self) -> u8 { match self { Msg::Ok => 0, Msg::No => 1 } }\n\
            }";
        let f = FileTokens::new("wire.rs", src);
        let p = Pairing {
            enum_file: "wire.rs",
            enum_name: "Reason",
            codec_file: "wire.rs",
            impl_name: "Msg",
            fns: &["encode"],
        };
        let v = check_pairing(&p, &f, &f);
        assert_eq!(v.len(), 2); // neither Full nor Draining is named in Msg::encode
        assert!(v[0].message.contains("`Reason::Full`"));
    }

    #[test]
    fn trait_impl_codecs_are_inferred() {
        let src = "pub enum E { A, B }\n\
            impl Wire for E {\n\
                fn encode_wire(&self) -> u8 { match self { E::A => 0, E::B => 1 } }\n\
                fn decode_wire(b: u8) -> E { match b { 0 => E::A, _ => E::A } }\n\
            }";
        let v = infer(&[("f.rs", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`E::decode_wire`"));
        assert!(v[0].message.contains("`E::B`"));
    }

    #[test]
    fn non_codec_impls_are_not_inferred() {
        let src = "pub enum E { A, B }\nimpl E { pub fn helper(&self) {} }";
        assert!(infer(&[("f.rs", src)]).is_empty());
    }
}
