//! The generic grammar-driven parser and serialiser.
//!
//! [`GrammarCodec`] interprets a [`UnitGrammar`] to parse and serialise
//! messages of any binary format expressible in the grammar model. It is the
//! reproduction of the code the FLICK compiler generates from Spicy-style
//! grammars: incremental (a partial buffer yields
//! [`ParseOutcome::Incomplete`]), allocation-light, and projection-aware
//! (fields the program never accesses are skipped).
//!
//! Parsing runs in two phases. A **scan** walks the grammar computing field
//! offsets and integer values only — an incomplete buffer returns without a
//! single byte copied. **Materialisation** then binds the message to the
//! wire bytes: its raw bytes are a zero-copy [`Bytes`] slice of the
//! caller's buffer, and so are required byte fields; string fields are
//! UTF-8 validated and copied (a `String` must own its bytes); and fields
//! outside the projection are never copied into the message at all — they
//! exist only as a sub-range of the shared raw buffer, which pass-through
//! serialisation emits verbatim. This is what makes projection pay off at
//! multi-KB body sizes (see the `projection_multikb` bench group).
//!
//! Serialisation evaluates length expressions over the same kind of
//! environment the scan uses: `(name, value)` slots lent from the stack,
//! latest binding last. A built message serialises without allocating.

use crate::error::GrammarError;
use crate::limits::{MAX_BODY_BYTES, MAX_FIELDS};
use crate::message::{intern, Message, MsgValue};
use crate::model::{lookup, ByteOrder, FieldKind, GrammarItem, UnitGrammar};
use crate::projection::Projection;
use crate::{ParseOutcome, WireCodec};
use bytes::Bytes;

/// Name/value bindings (integer fields and variables while parsing; named
/// fields and serialisation rules while serialising) kept on the stack; a
/// grammar with more spills to the heap. Every built-in grammar fits
/// (Memcached has the most: nine while parsing, fifteen while serialising).
const INLINE_BINDINGS: usize = 16;

/// Byte/string field spans the scan keeps on the stack, spilling like the
/// bindings (Memcached has the most variable-length fields, three).
const INLINE_SPANS: usize = 8;

/// Runs `f` over `n` slots set to `fill`: an array on the stack
/// when `n <= INLINE`, a heap vector otherwise.
fn with_slots<T: Copy, R, const INLINE: usize>(
    n: usize,
    fill: T,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    if n <= INLINE {
        f(&mut [fill; INLINE][..n])
    } else {
        f(&mut vec![fill; n])
    }
}

/// A [`WireCodec`] driven by a [`UnitGrammar`].
#[derive(Debug, Clone)]
pub struct GrammarCodec {
    grammar: UnitGrammar,
    /// The grammar's unit name, interned.
    unit: &'static str,
    /// The name of each grammar item, interned, index-aligned with
    /// `grammar.items` (empty for anonymous fields).
    names: Vec<&'static str>,
    /// The field each serialisation rule sets, interned, index-aligned
    /// with `grammar.ser_rules`.
    rule_fields: Vec<&'static str>,
    /// How many names the scan binds: named integer fields plus variables.
    bindings: usize,
    /// How many byte/string fields the scan can record a span for.
    spans: usize,
}

impl GrammarCodec {
    /// Creates a codec from a grammar, validating it first. The grammar's
    /// names are interned here, once, so that a parsed message borrows
    /// them.
    pub fn new(grammar: UnitGrammar) -> Result<Self, GrammarError> {
        grammar.validate()?;
        if grammar.items.len() > MAX_FIELDS {
            return Err(GrammarError::invalid(
                &grammar.name,
                format!(
                    "grammar has {} items, more than the {MAX_FIELDS}-field parse limit",
                    grammar.items.len()
                ),
            ));
        }
        let mut bindings = 0;
        let mut spans = 0;
        let names = grammar
            .items
            .iter()
            .map(|item| match item {
                GrammarItem::Variable { name, .. } => {
                    bindings += 1;
                    intern(name)
                }
                GrammarItem::Field { name, kind } => {
                    if !name.is_empty() {
                        match kind.fixed_width() {
                            Some(_) => bindings += 1,
                            None => spans += 1,
                        }
                    }
                    intern(name)
                }
            })
            .collect();
        Ok(GrammarCodec {
            unit: intern(&grammar.name),
            rule_fields: grammar.ser_rules.iter().map(|r| intern(&r.field)).collect(),
            grammar,
            names,
            bindings,
            spans,
        })
    }

    fn read_uint(&self, buf: &[u8], offset: usize, width: usize) -> u64 {
        let mut value: u64 = 0;
        match self.grammar.byte_order {
            ByteOrder::Big => {
                for i in 0..width {
                    value = (value << 8) | buf[offset + i] as u64;
                }
            }
            ByteOrder::Little => {
                for i in (0..width).rev() {
                    value = (value << 8) | buf[offset + i] as u64;
                }
            }
        }
        value
    }

    fn write_uint(&self, out: &mut Vec<u8>, value: u64, width: usize) {
        match self.grammar.byte_order {
            ByteOrder::Big => {
                for i in (0..width).rev() {
                    out.push(((value >> (8 * i)) & 0xff) as u8);
                }
            }
            ByteOrder::Little => {
                for i in 0..width {
                    out.push(((value >> (8 * i)) & 0xff) as u8);
                }
            }
        }
    }

    /// Phase 1: walks the grammar over `buf`, evaluating variables and
    /// integer fields (cheap, and length expressions may depend on them)
    /// and recording the byte range of every *required* byte/string field.
    /// No payload byte is copied; an incomplete buffer costs only the walk
    /// and returns `None`.
    ///
    /// The environment that length expressions read — integer fields and
    /// variables, in parse order — and the recorded spans are slots the
    /// caller lends (on the stack for every built-in grammar), so the scan
    /// allocates only the message's field vector.
    fn scan(
        &self,
        buf: &[u8],
        projection: Option<&Projection>,
        env: &mut [(&'static str, u64)],
        spans: &mut [FieldSpan],
    ) -> Result<Option<Scan>, GrammarError> {
        let unit = self.unit;
        let mut bound = 0;
        let mut spanned = 0;
        let mut message = Message::with_capacity(unit, self.grammar.items.len());
        let mut offset = 0usize;
        for (item, &name) in self.grammar.items.iter().zip(&self.names) {
            match item {
                GrammarItem::Variable { parse, .. } => {
                    let value = parse.eval(&env[..bound], unit)?;
                    env[bound] = (name, value);
                    bound += 1;
                    if projection.map_or(true, |p| p.requires(name)) {
                        message.set_parsed(name, MsgValue::UInt(value));
                    }
                }
                GrammarItem::Field { kind, .. } => {
                    let required =
                        !name.is_empty() && projection.map_or(true, |p| p.requires(name));
                    match kind {
                        FieldKind::UInt { width } | FieldKind::Int { width } => {
                            let width = *width as usize;
                            if buf.len() < offset + width {
                                return Ok(None);
                            }
                            let raw = self.read_uint(buf, offset, width);
                            offset += width;
                            // Integer fields always enter the environment:
                            // later length expressions may depend on them
                            // even when the program never reads them.
                            if !name.is_empty() {
                                env[bound] = (name, raw);
                                bound += 1;
                            }
                            if required {
                                let value = if matches!(kind, FieldKind::Int { .. }) {
                                    let shift = 64 - 8 * width;
                                    MsgValue::Int(((raw << shift) as i64) >> shift)
                                } else {
                                    MsgValue::UInt(raw)
                                };
                                message.set_parsed(name, value);
                            }
                        }
                        FieldKind::Bytes { length } | FieldKind::Str { length } => {
                            // A hostile length field must fail here, before
                            // the transport is asked to buffer `len` bytes:
                            // past the limit the frame is malformed, not
                            // incomplete.
                            let declared = length.eval(&env[..bound], unit)?;
                            if declared > MAX_BODY_BYTES as u64 {
                                return Err(GrammarError::malformed(
                                    unit,
                                    format!(
                                        "field {name:?} declares {declared} bytes, over the \
                                         {MAX_BODY_BYTES}-byte parse limit"
                                    ),
                                ));
                            }
                            let len = declared as usize;
                            let end = offset.checked_add(len).ok_or_else(|| {
                                GrammarError::malformed(
                                    unit,
                                    format!("field {name:?} length overflows the frame offset"),
                                )
                            })?;
                            if buf.len() < end {
                                return Ok(None);
                            }
                            if required {
                                spans[spanned] = FieldSpan {
                                    name,
                                    start: offset,
                                    end,
                                    text: matches!(kind, FieldKind::Str { .. }),
                                };
                                spanned += 1;
                            }
                            offset = end;
                        }
                    }
                }
            }
        }
        Ok(Some(Scan {
            message,
            spans: spanned,
            consumed: offset,
        }))
    }

    /// Phase 2: binds the scanned message to its wire bytes. `raw` must be
    /// the first `consumed` bytes of the scanned buffer; required byte
    /// fields become zero-copy slices of it, string fields are UTF-8
    /// validated and copied into owned `String`s.
    fn materialize(mut message: Message, spans: &[FieldSpan], raw: Bytes) -> Message {
        for span in spans {
            let slice = raw.slice(span.start..span.end);
            let value = if span.text {
                match std::str::from_utf8(&slice) {
                    Ok(s) => MsgValue::Str(s.to_string()),
                    Err(_) => MsgValue::Bytes(slice),
                }
            } else {
                MsgValue::Bytes(slice)
            };
            message.set_parsed(span.name, value);
        }
        message.set_raw(raw);
        message
    }

    /// Writes every field of a built (or modified) message to `out`. The
    /// environment holds each named field's value — an integer's own, a
    /// byte/string field's length — then each serialisation rule's result,
    /// bound after them so that it shadows the message's value.
    fn serialize_fields(
        &self,
        msg: &Message,
        out: &mut Vec<u8>,
        env: &mut [(&'static str, u64)],
    ) -> Result<(), GrammarError> {
        let unit = &self.grammar.name;
        let mut bound = 0;
        for (item, &name) in self.grammar.items.iter().zip(&self.names) {
            let GrammarItem::Field { kind, .. } = item else {
                continue;
            };
            if name.is_empty() {
                continue;
            }
            let value = match kind {
                FieldKind::UInt { .. } => msg.uint_field(name),
                // Bound as the parse binds it: the raw bits of its width,
                // so a negative value is its two's complement.
                FieldKind::Int { width } => match msg.get(name) {
                    Some(&MsgValue::Int(value)) => {
                        Some(value as u64 & (u64::MAX >> (64 - 8 * u32::from(*width))))
                    }
                    other => other.and_then(MsgValue::as_u64),
                },
                FieldKind::Bytes { .. } | FieldKind::Str { .. } => {
                    Some(msg.get(name).map_or(0, MsgValue::byte_len) as u64)
                }
            };
            if let Some(value) = value {
                env[bound] = (name, value);
                bound += 1;
            }
        }
        let fields = bound;
        for (rule, &field) in self.grammar.ser_rules.iter().zip(&self.rule_fields) {
            env[bound] = (field, rule.expr.eval(&env[..bound], unit)?);
            bound += 1;
        }
        let (env, rules) = (&env[..bound], &env[fields..bound]);
        for (item, &name) in self.grammar.items.iter().zip(&self.names) {
            let GrammarItem::Field { kind, .. } = item else {
                continue;
            };
            match kind {
                FieldKind::UInt { width } | FieldKind::Int { width } => {
                    let value = match (lookup(rules, name), msg.get(name)) {
                        (Some(value), _) | (None, Some(&MsgValue::UInt(value))) => value.into(),
                        (None, Some(&MsgValue::Int(value))) => value.into(),
                        _ => 0i128,
                    };
                    // A signed field holds the signed range and is written
                    // as its two's-complement low bytes, which the parse
                    // sign-extends back.
                    let bits = 8 * u32::from(*width);
                    let (min, max) = match kind {
                        FieldKind::Int { .. } => (-1i128 << (bits - 1), (1i128 << (bits - 1)) - 1),
                        _ => (0, (1i128 << bits) - 1),
                    };
                    if !(min..=max).contains(&value) && !name.is_empty() {
                        return Err(GrammarError::FieldOverflow {
                            unit: unit.clone(),
                            field: name.to_string(),
                            value,
                            min,
                            max,
                        });
                    }
                    self.write_uint(out, value as u64, *width as usize);
                }
                FieldKind::Bytes { length } | FieldKind::Str { length } => match msg.get(name) {
                    Some(v) => out.extend_from_slice(v.as_bytes().unwrap_or(&[])),
                    None if name.is_empty() => {
                        // Anonymous padding: emit zero bytes of the declared length.
                        let len = length.eval(env, unit).unwrap_or(0) as usize;
                        out.extend(std::iter::repeat(0u8).take(len));
                    }
                    None => {
                        return Err(GrammarError::MissingField {
                            unit: unit.clone(),
                            field: name.to_string(),
                        })
                    }
                },
            }
        }
        Ok(())
    }
}

/// The byte range of one required variable-length field, recorded by the
/// scan phase and bound to the raw buffer during materialisation.
#[derive(Clone, Copy)]
struct FieldSpan {
    name: &'static str,
    start: usize,
    end: usize,
    /// `true` for [`FieldKind::Str`] fields (UTF-8 validation applies).
    text: bool,
}

impl FieldSpan {
    const EMPTY: FieldSpan = FieldSpan {
        name: "",
        start: 0,
        end: 0,
        text: false,
    };
}

/// A complete scan.
struct Scan {
    /// Variables and integer fields, already materialised (they cost
    /// nothing to copy).
    message: Message,
    /// How many spans the scan recorded: required byte/string fields, not
    /// yet bound to the wire bytes.
    spans: usize,
    consumed: usize,
}

impl WireCodec for GrammarCodec {
    fn name(&self) -> &str {
        &self.grammar.name
    }

    /// Zero-copy: the message's raw bytes — and every required byte field
    /// — are slices of `buf`'s allocation. Fields outside `projection` are
    /// never copied anywhere.
    fn parse_bytes(
        &self,
        buf: &Bytes,
        projection: Option<&Projection>,
    ) -> Result<ParseOutcome, GrammarError> {
        with_slots::<_, _, INLINE_BINDINGS>(self.bindings, ("", 0), |env| {
            with_slots::<_, _, INLINE_SPANS>(self.spans, FieldSpan::EMPTY, |spans| {
                let Some(scan) = self.scan(buf, projection, env, spans)? else {
                    return Ok(ParseOutcome::Incomplete);
                };
                let raw = buf.slice(..scan.consumed);
                Ok(ParseOutcome::Complete {
                    message: Self::materialize(scan.message, &spans[..scan.spans], raw),
                    consumed: scan.consumed,
                })
            })
        })
    }

    /// An unmodified parsed message leaves as its raw bytes, one shared
    /// segment; anything else is written field by field into `out` (no
    /// split worth making there).
    fn serialize_parts(
        &self,
        msg: &Message,
        out: &mut Vec<u8>,
    ) -> Result<Option<Bytes>, GrammarError> {
        if let Some(raw) = msg.raw() {
            return Ok(Some(raw.clone()));
        }
        let slots = self.bindings + self.spans + self.grammar.ser_rules.len();
        with_slots::<_, _, INLINE_BINDINGS>(slots, ("", 0), |env| {
            self.serialize_fields(msg, out, env)
        })?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GrammarItem as GI;
    use crate::model::LenExpr;

    /// A small length-prefixed grammar: `len:u16, tag:u8, body:bytes[len]`.
    fn demo_grammar() -> UnitGrammar {
        UnitGrammar::new("demo")
            .item(GI::field("len", FieldKind::UInt { width: 2 }))
            .item(GI::field("tag", FieldKind::UInt { width: 1 }))
            .item(GI::field(
                "body",
                FieldKind::Bytes {
                    length: LenExpr::field("len"),
                },
            ))
            .ser_rule("len", LenExpr::LenOf("body".into()))
    }

    fn demo_codec() -> GrammarCodec {
        GrammarCodec::new(demo_grammar()).unwrap()
    }

    fn demo_message(tag: u64, body: &[u8]) -> Message {
        let mut m = Message::new("demo");
        m.set("tag", MsgValue::UInt(tag));
        m.set("body", MsgValue::Bytes(Bytes::copy_from_slice(body)));
        m
    }

    #[test]
    fn roundtrip_simple_message() {
        let codec = demo_codec();
        let mut wire = Vec::new();
        codec
            .serialize(&demo_message(7, b"hello"), &mut wire)
            .unwrap();
        assert_eq!(wire.len(), 2 + 1 + 5);
        assert_eq!(&wire[0..2], &[0, 5]);
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(message.uint_field("tag"), Some(7));
                assert_eq!(message.bytes_field("body"), Some(&b"hello"[..]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_reports_needed_bytes() {
        let codec = demo_codec();
        let mut wire = Vec::new();
        codec
            .serialize(&demo_message(1, b"abcdef"), &mut wire)
            .unwrap();
        // Every proper prefix — a partial header, the header alone, the
        // header plus a partial body — is incomplete; the whole is not.
        for end in 0..wire.len() {
            assert_eq!(
                codec.parse(&wire[..end], None).unwrap(),
                ParseOutcome::Incomplete,
                "prefix of {end} bytes"
            );
        }
        assert!(matches!(
            codec.parse(&wire, None).unwrap(),
            ParseOutcome::Complete { .. }
        ));
    }

    #[test]
    fn projection_skips_unrequested_fields() {
        let codec = demo_codec();
        let mut wire = Vec::new();
        codec
            .serialize(&demo_message(3, b"payload"), &mut wire)
            .unwrap();
        let projection = Projection::of(["tag"]);
        match codec.parse(&wire, Some(&projection)).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert_eq!(message.uint_field("tag"), Some(3));
                assert!(
                    message.get("body").is_none(),
                    "body should not be materialised"
                );
                // The raw bytes are still available for pass-through.
                assert_eq!(message.raw().unwrap().len(), wire.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn passthrough_serialisation_uses_raw_bytes() {
        let codec = demo_codec();
        let mut wire = Vec::new();
        codec
            .serialize(&demo_message(9, b"zig"), &mut wire)
            .unwrap();
        let parsed = match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, .. } => message,
            other => panic!("unexpected {other:?}"),
        };
        let mut rewire = Vec::new();
        codec.serialize(&parsed, &mut rewire).unwrap();
        assert_eq!(wire, rewire);
    }

    #[test]
    fn modified_message_recomputes_lengths() {
        let codec = demo_codec();
        let mut wire = Vec::new();
        codec
            .serialize(&demo_message(9, b"zig"), &mut wire)
            .unwrap();
        let mut parsed = match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, .. } => message,
            other => panic!("unexpected {other:?}"),
        };
        parsed.set("body", MsgValue::Bytes(Bytes::from_static(b"longer-body")));
        let mut rewire = Vec::new();
        codec.serialize(&parsed, &mut rewire).unwrap();
        assert_eq!(&rewire[0..2], &[0, 11]);
        assert_eq!(rewire.len(), 2 + 1 + 11);
    }

    #[test]
    fn missing_required_field_errors() {
        let codec = demo_codec();
        let mut m = Message::new("demo");
        m.set("tag", MsgValue::UInt(1));
        let mut out = Vec::new();
        assert!(matches!(
            codec.serialize(&m, &mut out),
            Err(GrammarError::MissingField { .. })
        ));
    }

    #[test]
    fn signed_field_sign_extends() {
        let g = UnitGrammar::new("s").item(GI::field("x", FieldKind::Int { width: 1 }));
        let codec = GrammarCodec::new(g).unwrap();
        match codec.parse(&[0xff], None).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert_eq!(message.get("x"), Some(&MsgValue::Int(-1)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn little_endian_integers() {
        let g = UnitGrammar::new("le")
            .byte_order(ByteOrder::Little)
            .item(GI::field("x", FieldKind::UInt { width: 2 }));
        let codec = GrammarCodec::new(g).unwrap();
        let mut m = Message::new("le");
        m.set("x", MsgValue::UInt(0x0102));
        let mut out = Vec::new();
        codec.serialize(&m, &mut out).unwrap();
        assert_eq!(out, vec![0x02, 0x01]);
        match codec.parse(&out, None).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert_eq!(message.uint_field("x"), Some(0x0102))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn anonymous_fields_are_skipped_but_consume_bytes() {
        let g = UnitGrammar::new("anon")
            .item(GI::field("a", FieldKind::UInt { width: 1 }))
            .item(GI::anonymous(FieldKind::Bytes {
                length: LenExpr::Const(3),
            }))
            .item(GI::field("b", FieldKind::UInt { width: 1 }));
        let codec = GrammarCodec::new(g).unwrap();
        match codec.parse(&[1, 9, 9, 9, 2], None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, 5);
                assert_eq!(message.uint_field("a"), Some(1));
                assert_eq!(message.uint_field("b"), Some(2));
                assert_eq!(message.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn variable_is_computed_during_parse() {
        let g = UnitGrammar::new("v")
            .item(GI::field("total", FieldKind::UInt { width: 1 }))
            .item(GI::field("keylen", FieldKind::UInt { width: 1 }))
            .item(GI::variable(
                "vallen",
                LenExpr::sub(LenExpr::field("total"), LenExpr::field("keylen")),
            ))
            .item(GI::field(
                "key",
                FieldKind::Bytes {
                    length: LenExpr::field("keylen"),
                },
            ))
            .item(GI::field(
                "val",
                FieldKind::Bytes {
                    length: LenExpr::field("vallen"),
                },
            ));
        let codec = GrammarCodec::new(g).unwrap();
        let wire = [5u8, 2, b'a', b'b', b'x', b'y', b'z'];
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, 7);
                assert_eq!(message.uint_field("vallen"), Some(3));
                assert_eq!(message.bytes_field("val"), Some(&b"xyz"[..]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `parse_bytes` binds the message to the caller's allocation: the
    /// raw bytes and every required byte field are views of the input
    /// buffer, not copies.
    #[test]
    fn shared_parse_is_zero_copy() {
        let codec = demo_codec();
        let mut wire = Vec::new();
        codec
            .serialize(&demo_message(7, b"shared-body"), &mut wire)
            .unwrap();
        let wire = Bytes::from(wire);
        let wire_ptr = wire.as_ref().as_ptr();
        match codec.parse_bytes(&wire, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                // The raw buffer is a slice of the input allocation...
                assert_eq!(message.raw().unwrap().as_ref().as_ptr(), wire_ptr);
                // ...and the body field is a slice of the same allocation
                // (offset 3: len u16 + tag u8), not a copy.
                let body = message.bytes_field("body").unwrap();
                assert_eq!(body, b"shared-body");
                assert_eq!(body.as_ptr(), unsafe { wire_ptr.add(3) });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The borrowed-slice path copies its input exactly once: byte-field
    /// values are slices of that single raw copy.
    #[test]
    fn slice_parse_slices_fields_from_the_single_raw_copy() {
        let codec = demo_codec();
        let mut wire = Vec::new();
        codec
            .serialize(&demo_message(7, b"one-copy"), &mut wire)
            .unwrap();
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                let raw_ptr = message.raw().unwrap().as_ref().as_ptr();
                let body = message.bytes_field("body").unwrap();
                assert_ne!(raw_ptr, wire.as_ptr(), "raw must be an owned copy");
                assert_eq!(body.as_ptr(), unsafe { raw_ptr.add(3) });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A projected shared parse of a message with a large skipped body
    /// materialises nothing but the projected fields, yet pass-through
    /// serialisation still reproduces the full wire bytes.
    #[test]
    fn projected_shared_parse_skips_without_copying_and_passes_through() {
        let codec = demo_codec();
        let mut wire = Vec::new();
        codec
            .serialize(&demo_message(3, &vec![b'p'; 16 * 1024]), &mut wire)
            .unwrap();
        let wire = Bytes::from(wire);
        let projection = Projection::of(["tag"]);
        let message = match codec.parse_bytes(&wire, Some(&projection)).unwrap() {
            ParseOutcome::Complete { message, .. } => message,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(message.uint_field("tag"), Some(3));
        assert!(message.get("body").is_none(), "body must not materialise");
        assert_eq!(
            message.raw().unwrap().as_ref().as_ptr(),
            wire.as_ref().as_ptr(),
            "the skipped body exists only as the shared raw view"
        );
        let mut rewire = Vec::new();
        codec.serialize(&message, &mut rewire).unwrap();
        assert_eq!(&rewire[..], &wire[..]);
    }

    /// A `len:u32, body:bytes[len]` grammar.
    fn u32_prefixed() -> GrammarCodec {
        let g = UnitGrammar::new("huge")
            .item(GI::field("len", FieldKind::UInt { width: 4 }))
            .item(GI::field(
                "body",
                FieldKind::Bytes {
                    length: LenExpr::field("len"),
                },
            ));
        GrammarCodec::new(g).unwrap()
    }

    /// A declared length over `MAX_BODY_BYTES` is malformed immediately —
    /// not `Incomplete` — so the transport never buffers toward it, while
    /// the bound itself still waits for its bytes.
    #[test]
    fn oversized_length_field_is_malformed_not_incomplete() {
        let codec = u32_prefixed();
        let over = (MAX_BODY_BYTES as u32 + 1).to_be_bytes();
        assert!(matches!(
            codec.parse(&over, None),
            Err(GrammarError::Malformed { .. })
        ));
        let at = (MAX_BODY_BYTES as u32).to_be_bytes();
        assert_eq!(codec.parse(&at, None).unwrap(), ParseOutcome::Incomplete);
    }

    /// Within the limit, a large-but-legal declared length still reports
    /// `Incomplete` as before.
    #[test]
    fn in_bounds_length_still_reports_incomplete() {
        let codec = demo_codec();
        let wire = [0x01u8, 0x00, 1]; // len = 256, no body yet
        assert_eq!(codec.parse(&wire, None).unwrap(), ParseOutcome::Incomplete);
    }

    /// A length near `u64::MAX` is malformed, never an offset wrapped
    /// into a bogus `Complete`.
    #[test]
    fn unbounded_huge_length_does_not_overflow_offset() {
        let g = UnitGrammar::new("huge")
            .item(GI::field("len", FieldKind::UInt { width: 8 }))
            .item(GI::field(
                "body",
                FieldKind::Bytes {
                    length: LenExpr::field("len"),
                },
            ));
        let codec = GrammarCodec::new(g).unwrap();
        let mut wire = u64::MAX.to_be_bytes().to_vec();
        wire.extend_from_slice(b"xx");
        assert!(matches!(
            codec.parse(&wire, None),
            Err(GrammarError::Malformed { .. })
        ));
    }

    /// A grammar with more items than `MAX_FIELDS` is rejected up front.
    #[test]
    fn field_count_limit_applies_to_the_grammar() {
        let wide = |n: usize| {
            (0..n).fold(UnitGrammar::new("wide"), |g, i| {
                g.item(GI::field(format!("f{i}"), FieldKind::UInt { width: 1 }))
            })
        };
        assert!(GrammarCodec::new(wide(MAX_FIELDS)).is_ok());
        assert!(GrammarCodec::new(wide(MAX_FIELDS + 1)).is_err());
    }

    /// Parse-time lookups see integer fields and variables only: a length
    /// naming a byte field fails with the same text as ever.
    #[test]
    fn length_naming_a_byte_field_is_an_unknown_field_at_parse_time() {
        let g = UnitGrammar::new("l")
            .item(GI::field(
                "a",
                FieldKind::Bytes {
                    length: LenExpr::Const(1),
                },
            ))
            .item(GI::field(
                "b",
                FieldKind::Bytes {
                    length: LenExpr::LenOf("a".into()),
                },
            ));
        let codec = GrammarCodec::new(g).unwrap();
        let err = codec.parse(b"xy", None).unwrap_err();
        assert!(
            err.to_string()
                .contains("length expression references unknown field `a`"),
            "{err}"
        );
    }

    /// More bindings than the scan keeps inline still parse (they spill),
    /// and the latest binding of a repeated name wins.
    #[test]
    fn many_integer_bindings_spill_and_shadow() {
        let mut g = UnitGrammar::new("wide");
        for i in 0..INLINE_BINDINGS + 4 {
            g = g.item(GI::field(format!("n{i}"), FieldKind::UInt { width: 1 }));
        }
        let g = g
            .item(GI::variable("n0", LenExpr::Const(2)))
            .item(GI::field(
                "body",
                FieldKind::Bytes {
                    length: LenExpr::field("n0"),
                },
            ));
        let codec = GrammarCodec::new(g).unwrap();
        let mut wire = vec![9u8; INLINE_BINDINGS + 4];
        wire.extend_from_slice(b"ok");
        let mut message = match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(message.bytes_field("body"), Some(&b"ok"[..]));
                message
            }
            other => panic!("unexpected {other:?}"),
        };
        // Serialising it again spills its slots the same way.
        message.set("body", MsgValue::Bytes(Bytes::from_static(b"ok")));
        let mut rewire = Vec::new();
        codec.serialize(&message, &mut rewire).unwrap();
        assert_eq!(rewire, wire);
    }

    /// More byte fields than the scan keeps spans for inline still parse
    /// (the spans spill), each bound to its own bytes, and every name of
    /// the parsed message is the codec's interned copy.
    #[test]
    fn many_byte_fields_spill_their_spans() {
        let mut g = UnitGrammar::new("spans");
        for i in 0..INLINE_SPANS + 3 {
            g = g.item(GI::field(
                format!("f{i}"),
                FieldKind::Bytes {
                    length: LenExpr::Const(1),
                },
            ));
        }
        let codec = GrammarCodec::new(g).unwrap();
        let wire: Vec<u8> = (0..INLINE_SPANS as u8 + 3).collect();
        let ParseOutcome::Complete { message, .. } = codec.parse(&wire, None).unwrap() else {
            panic!("a complete message expected");
        };
        assert_eq!(message.len(), wire.len());
        for (i, (name, value)) in message.iter().enumerate() {
            assert_eq!(name, format!("f{i}"));
            assert!(std::ptr::eq(name, intern(name)), "{name} is interned");
            assert_eq!(value.as_bytes(), Some(&wire[i..=i]));
        }
        assert!(std::ptr::eq(&*message.unit, intern("spans")));
    }

    /// A serialisation rule's result shadows the message's own value of
    /// its target, both where it is written and for every later rule:
    /// `total` is computed from `len`'s recomputed value, not the stale one
    /// the message carries.
    #[test]
    fn a_rule_reads_an_earlier_rule_over_stale_message_values() {
        let g = UnitGrammar::new("chained")
            .item(GI::field("len", FieldKind::UInt { width: 1 }))
            .item(GI::field("total", FieldKind::UInt { width: 1 }))
            .item(GI::field(
                "body",
                FieldKind::Bytes {
                    length: LenExpr::field("len"),
                },
            ))
            .ser_rule("len", LenExpr::LenOf("body".into()))
            .ser_rule(
                "total",
                LenExpr::add(LenExpr::field("len"), LenExpr::Const(2)),
            );
        let codec = GrammarCodec::new(g).unwrap();
        let mut m = Message::new("chained");
        m.set("len", MsgValue::UInt(99));
        m.set("total", MsgValue::UInt(99));
        m.set("body", MsgValue::Bytes(Bytes::from_static(b"xyz")));
        let mut out = Vec::new();
        codec.serialize(&m, &mut out).unwrap();
        assert_eq!(out, [3, 5, b'x', b'y', b'z']);
    }

    /// Regression: a negative value was cast to `u64` before the range
    /// check, so `-7` overflowed a two-byte signed field.
    #[test]
    fn a_negative_signed_field_serialises_as_twos_complement() {
        let g = UnitGrammar::new("s").item(GI::field("x", FieldKind::Int { width: 2 }));
        let codec = GrammarCodec::new(g).unwrap();
        let mut m = Message::new("s");
        m.set("x", MsgValue::Int(-7));
        let mut out = Vec::new();
        codec.serialize(&m, &mut out).unwrap();
        assert_eq!(out, [0xff, 0xf9]);
        m.set("x", MsgValue::Int(-32769));
        assert!(matches!(
            codec.serialize(&m, &mut out),
            Err(GrammarError::FieldOverflow {
                value: -32769,
                min: -32768,
                max: 32767,
                ..
            })
        ));
    }

    #[test]
    fn signed_fields_round_trip_at_their_bounds() {
        for width in [1u8, 2, 4, 8] {
            let g = UnitGrammar::new("s")
                .item(GI::field("x", FieldKind::Int { width }))
                .item(GI::field("y", FieldKind::UInt { width: 1 }));
            let codec = GrammarCodec::new(g).unwrap();
            let bits = 8 * u32::from(width);
            let (min, max) = (i64::MIN >> (64 - bits), i64::MAX >> (64 - bits));
            for value in [min, -1, max] {
                let mut m = Message::new("s");
                m.set("x", MsgValue::Int(value)).set("y", MsgValue::UInt(7));
                let mut wire = Vec::new();
                assert!(codec.serialize_parts(&m, &mut wire).unwrap().is_none());
                let wire = Bytes::from(wire);
                let ParseOutcome::Complete { message, consumed } =
                    codec.parse_bytes(&wire, None).unwrap()
                else {
                    panic!("width {width}, {value}: incomplete");
                };
                assert_eq!(consumed, usize::from(width) + 1);
                m.set_raw(wire);
                assert_eq!(message, m, "width {width}, {value}");
            }
        }
    }

    /// A serialisation rule and a length expression that name a negative
    /// signed field see its raw bits, as the parse binds them: `-3` in one
    /// byte is 253, so `echo` is written as 253 and `data` is 253 − 250
    /// bytes long. The serialiser used to leave the field unbound.
    #[test]
    fn a_negative_signed_field_is_bound_as_its_raw_bits() {
        let g = UnitGrammar::new("s")
            .item(GI::field("x", FieldKind::Int { width: 1 }))
            .item(GI::field("echo", FieldKind::UInt { width: 1 }))
            .item(GI::field(
                "data",
                FieldKind::Bytes {
                    length: LenExpr::sub(LenExpr::field("x"), LenExpr::Const(250)),
                },
            ))
            .ser_rule("echo", LenExpr::field("x"));
        let codec = GrammarCodec::new(g).unwrap();
        let mut m = Message::new("s");
        m.set("x", MsgValue::Int(-3))
            .set("echo", MsgValue::UInt(0))
            .set("data", MsgValue::Bytes(Bytes::from_static(b"abc")));
        let mut wire = Vec::new();
        assert!(codec.serialize_parts(&m, &mut wire).unwrap().is_none());
        assert_eq!(wire, [0xfd, 253, b'a', b'b', b'c']);
        let wire = Bytes::from(wire);
        let ParseOutcome::Complete { message, consumed } = codec.parse_bytes(&wire, None).unwrap()
        else {
            panic!("incomplete");
        };
        assert_eq!(consumed, wire.len());
        m.set("echo", MsgValue::UInt(253)).set_raw(wire);
        assert_eq!(message, m);
    }

    #[test]
    fn field_overflow_is_detected() {
        let g = UnitGrammar::new("o").item(GI::field("x", FieldKind::UInt { width: 1 }));
        let codec = GrammarCodec::new(g).unwrap();
        let mut m = Message::new("o");
        m.set("x", MsgValue::UInt(300));
        let mut out = Vec::new();
        assert!(matches!(
            codec.serialize(&m, &mut out),
            Err(GrammarError::FieldOverflow { .. })
        ));
    }
}
