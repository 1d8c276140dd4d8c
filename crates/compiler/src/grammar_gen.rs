//! Synthesising wire grammars from FLICK `type` declarations.
//!
//! Listing 1 of the paper declares the Memcached command layout directly in
//! the FLICK program using `{size=...}` / `{signed=...}` annotations; the
//! compiler generates parsing and serialisation code from those annotations.
//! This module performs that synthesis: a record whose fields all carry
//! serialisation annotations (or have implicit sizes) becomes a
//! [`UnitGrammar`] and hence a [`GrammarCodec`].
//!
//! Types without annotations (such as Listing 1's two-line `cmd` or Listing
//! 3's `kv`) do not describe a full wire format; for those the compiler
//! falls back to the framework's protocol codec for the type name (see
//! [`crate::factory`]).

use crate::error::CompileError;
use flick_grammar::model::{FieldKind, GrammarItem, LenExpr, UnitGrammar};
use flick_grammar::GrammarCodec;
use flick_lang::ast::{BinOp, Expr, ExprKind};
use flick_lang::typecheck::RecordInfo;
use flick_lang::types::Type;

/// Returns `true` if the record carries enough serialisation annotations to
/// synthesise a grammar (every string/bytes field has a size, every integer
/// field has an explicit or default width).
pub fn can_synthesise(record: &RecordInfo) -> bool {
    record.fields.iter().all(|f| match f.ty {
        Type::Int | Type::Bool => true,
        Type::Str => f.size.is_some(),
        _ => false,
    }) && !record.fields.is_empty()
}

/// Synthesises a grammar codec from an annotated record declaration.
pub fn synthesise(record: &RecordInfo) -> Result<GrammarCodec, CompileError> {
    let mut grammar = UnitGrammar::new(record.name.clone());
    let mut anon = 0usize;
    for field in &record.fields {
        let name = field.name.clone().unwrap_or_else(|| {
            anon += 1;
            String::new()
        });
        let item = match &field.ty {
            Type::Int | Type::Bool => {
                let width = match &field.size {
                    Some(expr) => const_size(expr).ok_or_else(|| {
                        CompileError::Unsupported(format!(
                            "integer field `{name}` of `{}` must have a constant size",
                            record.name
                        ))
                    })?,
                    None => 8,
                };
                let width = width as u8;
                if field.signed {
                    GrammarItem::Field {
                        name,
                        kind: FieldKind::Int { width },
                    }
                } else {
                    GrammarItem::Field {
                        name,
                        kind: FieldKind::UInt { width },
                    }
                }
            }
            Type::Str => {
                let size = field.size.as_ref().ok_or_else(|| {
                    CompileError::Unsupported(format!(
                        "string field `{name}` of `{}` needs a size annotation",
                        record.name
                    ))
                })?;
                let length = lower_len_expr(size, record)?;
                GrammarItem::Field {
                    name,
                    kind: FieldKind::Str { length },
                }
            }
            other => {
                return Err(CompileError::Unsupported(format!(
                    "field type {other} cannot be serialised"
                )))
            }
        };
        grammar = grammar.item(item);
    }
    // Serialisation rules: any integer field that is used as (part of) the
    // size of a later string field is recomputed from that field's length.
    let mut rules: Vec<(String, LenExpr)> = Vec::new();
    for field in &record.fields {
        if let (Some(field_name), Some(size)) = (&field.name, &field.size) {
            if matches!(field.ty, Type::Str) {
                if let ExprKind::Ident(len_field) = &size.kind {
                    rules.push((len_field.clone(), LenExpr::LenOf(field_name.clone())));
                }
            }
        }
    }
    for (target, expr) in rules {
        grammar = grammar.ser_rule(target, expr);
    }
    GrammarCodec::new(grammar).map_err(|e| CompileError::Unsupported(e.to_string()))
}

fn const_size(expr: &Expr) -> Option<u64> {
    match &expr.kind {
        ExprKind::Int(v) if *v > 0 => Some(*v as u64),
        _ => None,
    }
}

fn lower_len_expr(expr: &Expr, record: &RecordInfo) -> Result<LenExpr, CompileError> {
    match &expr.kind {
        ExprKind::Int(v) if *v >= 0 => Ok(LenExpr::Const(*v as u64)),
        ExprKind::Ident(name) => {
            if record.field(name).is_some() {
                Ok(LenExpr::Field(name.clone()))
            } else {
                Err(CompileError::Unsupported(format!(
                    "size expression references unknown field `{name}`"
                )))
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let l = lower_len_expr(lhs, record)?;
            let r = lower_len_expr(rhs, record)?;
            match op {
                BinOp::Add => Ok(LenExpr::add(l, r)),
                BinOp::Sub => Ok(LenExpr::sub(l, r)),
                BinOp::Mul => Ok(LenExpr::Mul(Box::new(l), Box::new(r))),
                other => Err(CompileError::Unsupported(format!(
                    "operator {other:?} is not allowed in size expressions"
                ))),
            }
        }
        _ => Err(CompileError::Unsupported(
            "unsupported size expression".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_grammar::{Message, MsgValue, ParseOutcome, WireCodec};
    use flick_lang::compile_to_ast;

    fn record_of(src: &str, name: &str) -> RecordInfo {
        compile_to_ast(src).unwrap().record(name).unwrap().clone()
    }

    const ANNOTATED: &str = r#"
type cmd: record
  opcode : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

fun touch: (c: cmd) -> (string)
  c.key
"#;

    #[test]
    fn synthesises_length_prefixed_grammar() {
        let record = record_of(ANNOTATED, "cmd");
        assert!(can_synthesise(&record));
        let codec = synthesise(&record).unwrap();
        let mut msg = Message::new("cmd");
        msg.set("opcode", MsgValue::UInt(12));
        msg.set("key", MsgValue::Str("user:1".into()));
        let mut wire = Vec::new();
        codec.serialize(&msg, &mut wire).unwrap();
        assert_eq!(wire.len(), 1 + 2 + 6);
        assert_eq!(wire[0], 12);
        assert_eq!(&wire[1..3], &[0, 6]);
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(message.str_field("key"), Some("user:1"));
                assert_eq!(message.uint_field("keylen"), Some(6));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unannotated_string_cannot_be_synthesised() {
        let src = "type kv: record\n  key : string\n  value : string\n\nfun f: (x: kv) -> (string)\n  x.key\n";
        let record = record_of(src, "kv");
        assert!(!can_synthesise(&record));
        assert!(synthesise(&record).is_err());
    }

    #[test]
    fn anonymous_padding_fields_are_preserved() {
        let src = r#"
type cmd: record
  opcode : integer {signed=false, size=1}
  _ : string {size=3}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

fun f: (c: cmd) -> (string)
  c.key
"#;
        let record = record_of(src, "cmd");
        let codec = synthesise(&record).unwrap();
        let mut msg = Message::new("cmd");
        msg.set("opcode", MsgValue::UInt(1));
        msg.set("key", MsgValue::Str("ab".into()));
        let mut wire = Vec::new();
        codec.serialize(&msg, &mut wire).unwrap();
        // 1 opcode + 3 padding + 2 keylen + 2 key.
        assert_eq!(wire.len(), 8);
    }

    #[test]
    fn size_arithmetic_is_supported() {
        let src = r#"
type rec: record
  total : integer {signed=false, size=2}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}
  body : string {size=total-keylen}

fun f: (r: rec) -> (string)
  r.body
"#;
        let record = record_of(src, "rec");
        let codec = synthesise(&record).unwrap();
        // total=7, keylen=3 -> body is 4 bytes.
        let wire = [0u8, 7, 0, 3, b'a', b'b', b'c', b'w', b'x', b'y', b'z'];
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert_eq!(message.str_field("key"), Some("abc"));
                assert_eq!(message.str_field("body"), Some("wxyz"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
