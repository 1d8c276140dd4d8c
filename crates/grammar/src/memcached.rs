//! The Memcached binary protocol grammar (Listing 2 of the paper).
//!
//! The grammar reproduces the `cmd` unit: a 24-byte fixed header followed by
//! `extras`, `key` and `value` fields whose lengths are derived from the
//! header, with the `value_len` computed variable and the serialisation
//! rules that recompute `key_len`, `extras_len` and `total_len`.

use crate::engine::GrammarCodec;
use crate::error::GrammarError;
use crate::message::{Message, MsgValue};
use crate::model::{FieldKind, GrammarItem, LenExpr, UnitGrammar};
use crate::projection::Projection;
use crate::{ParseOutcome, WireCodec};
use bytes::Bytes;

/// Well-known Memcached binary opcodes used by the paper's router.
pub mod opcode {
    /// `GET`.
    pub const GET: u64 = 0x00;
    /// `SET`.
    pub const SET: u64 = 0x01;
    /// `GETK` — get returning the key, cached by the FLICK router (opcode 0x0c).
    pub const GETK: u64 = 0x0c;
    /// `GETKQ` — quiet variant of `GETK`.
    pub const GETKQ: u64 = 0x0d;
}

/// Magic byte of a request packet.
pub const MAGIC_REQUEST: u64 = 0x80;
/// Magic byte of a response packet.
pub const MAGIC_RESPONSE: u64 = 0x81;

/// Builds the `cmd` unit grammar for the Memcached binary protocol.
///
/// Field names follow Listing 2: `magic_code`, `opcode`, `key_len`,
/// `extras_len`, `status_or_v_bucket`, `total_len`, `opaque`, `cas`,
/// the computed `value_len`, then `extras`, `key` and `value`.
pub fn grammar() -> UnitGrammar {
    UnitGrammar::new("cmd")
        .item(GrammarItem::field(
            "magic_code",
            FieldKind::UInt { width: 1 },
        ))
        .item(GrammarItem::field("opcode", FieldKind::UInt { width: 1 }))
        .item(GrammarItem::field("key_len", FieldKind::UInt { width: 2 }))
        .item(GrammarItem::field(
            "extras_len",
            FieldKind::UInt { width: 1 },
        ))
        // Anonymous field, reserved for future use (data type in the real protocol).
        .item(GrammarItem::anonymous(FieldKind::UInt { width: 1 }))
        .item(GrammarItem::field(
            "status_or_v_bucket",
            FieldKind::UInt { width: 2 },
        ))
        .item(GrammarItem::field(
            "total_len",
            FieldKind::UInt { width: 4 },
        ))
        .item(GrammarItem::field("opaque", FieldKind::UInt { width: 4 }))
        .item(GrammarItem::field("cas", FieldKind::UInt { width: 8 }))
        .item(GrammarItem::variable(
            "value_len",
            LenExpr::sub(
                LenExpr::field("total_len"),
                LenExpr::add(LenExpr::field("extras_len"), LenExpr::field("key_len")),
            ),
        ))
        .item(GrammarItem::field(
            "extras",
            FieldKind::Bytes {
                length: LenExpr::field("extras_len"),
            },
        ))
        .item(GrammarItem::field(
            "key",
            FieldKind::Str {
                length: LenExpr::field("key_len"),
            },
        ))
        .item(GrammarItem::field(
            "value",
            FieldKind::Bytes {
                length: LenExpr::field("value_len"),
            },
        ))
        .ser_rule("key_len", LenExpr::LenOf("key".into()))
        .ser_rule("extras_len", LenExpr::LenOf("extras".into()))
        .ser_rule(
            "total_len",
            LenExpr::add(
                LenExpr::LenOf("extras".into()),
                LenExpr::add(LenExpr::LenOf("key".into()), LenExpr::LenOf("value".into())),
            ),
        )
}

/// The projection used by the paper's Memcached router: it only accesses
/// `opcode` and `key` (plus `magic_code` to distinguish requests from
/// responses).
pub fn router_projection() -> Projection {
    Projection::of(["magic_code", "opcode", "key"])
}

/// A [`WireCodec`] for the Memcached binary protocol.
#[derive(Debug, Clone)]
pub struct MemcachedCodec {
    inner: GrammarCodec,
}

impl MemcachedCodec {
    /// Creates the codec.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the built-in grammar is statically valid
    /// (covered by tests).
    pub fn new() -> Self {
        MemcachedCodec {
            inner: GrammarCodec::new(grammar()).expect("built-in grammar is valid"),
        }
    }
}

impl Default for MemcachedCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl WireCodec for MemcachedCodec {
    fn name(&self) -> &str {
        "memcached"
    }

    fn parse_bytes(
        &self,
        buf: &Bytes,
        projection: Option<&Projection>,
    ) -> Result<ParseOutcome, GrammarError> {
        self.inner.parse_bytes(buf, projection)
    }

    fn serialize_parts(
        &self,
        msg: &Message,
        out: &mut Vec<u8>,
    ) -> Result<Option<Bytes>, GrammarError> {
        self.inner.serialize_parts(msg, out)
    }
}

/// Builds a request message with the given opcode, key, extras and value.
pub fn request(op: u64, key: &[u8], extras: &[u8], value: &[u8]) -> Message {
    build(MAGIC_REQUEST, op, 0, key, extras, value)
}

/// Builds a response message with the given opcode, status, key and value.
pub fn response(op: u64, status: u64, key: &[u8], value: &[u8]) -> Message {
    build(MAGIC_RESPONSE, op, status, key, &[], value)
}

fn build(magic: u64, op: u64, status: u64, key: &[u8], extras: &[u8], value: &[u8]) -> Message {
    let mut m = Message::with_capacity("cmd", 12);
    m.set("magic_code", MsgValue::UInt(magic));
    m.set("opcode", MsgValue::UInt(op));
    m.set("status_or_v_bucket", MsgValue::UInt(status));
    m.set("opaque", MsgValue::UInt(0));
    m.set("cas", MsgValue::UInt(0));
    m.set("extras", MsgValue::Bytes(Bytes::copy_from_slice(extras)));
    m.set(
        "key",
        MsgValue::Str(String::from_utf8_lossy(key).into_owned()),
    );
    m.set("value", MsgValue::Bytes(Bytes::copy_from_slice(value)));
    m
}

/// Returns `true` if the message is a response packet.
pub fn is_response(msg: &Message) -> bool {
    msg.uint_field("magic_code") == Some(MAGIC_RESPONSE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_24_bytes() {
        let codec = MemcachedCodec::new();
        let mut wire = Vec::new();
        codec
            .serialize(&request(opcode::GET, b"", b"", b""), &mut wire)
            .unwrap();
        assert_eq!(wire.len(), 24);
    }

    #[test]
    fn roundtrip_getk_request() {
        let codec = MemcachedCodec::new();
        let req = request(opcode::GETK, b"user:42", b"", b"");
        let mut wire = Vec::new();
        codec.serialize(&req, &mut wire).unwrap();
        assert_eq!(wire.len(), 24 + 7);
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(message.uint_field("opcode"), Some(opcode::GETK));
                assert_eq!(message.str_field("key"), Some("user:42"));
                assert_eq!(message.uint_field("total_len"), Some(7));
                assert!(!is_response(&message));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn roundtrip_response_with_value() {
        let codec = MemcachedCodec::new();
        let resp = response(opcode::GETK, 0, b"user:42", b"the-cached-value");
        let mut wire = Vec::new();
        codec.serialize(&resp, &mut wire).unwrap();
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert!(is_response(&message));
                assert_eq!(message.bytes_field("value"), Some(&b"the-cached-value"[..]));
                assert_eq!(message.uint_field("total_len"), Some(7 + 16));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn partial_header_is_incomplete() {
        let codec = MemcachedCodec::new();
        match codec.parse(&[0x80, 0x0c, 0x00], None).unwrap() {
            ParseOutcome::Incomplete => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn partial_body_is_incomplete_with_exact_need() {
        let codec = MemcachedCodec::new();
        let mut wire = Vec::new();
        codec
            .serialize(&request(opcode::GET, b"abcd", b"", b""), &mut wire)
            .unwrap();
        // Incomplete until the last key byte, complete on it.
        assert_eq!(wire.len(), 28);
        for end in [24, 26, 27] {
            assert_eq!(
                codec.parse(&wire[..end], None).unwrap(),
                ParseOutcome::Incomplete
            );
        }
        assert!(matches!(
            codec.parse(&wire, None).unwrap(),
            ParseOutcome::Complete { consumed: 28, .. }
        ));
    }

    /// A header whose `total_len` is maxed out (4 GiB value) is rejected as
    /// malformed instead of being treated as a frame to buffer toward.
    #[test]
    fn hostile_total_len_is_malformed() {
        let codec = MemcachedCodec::new();
        let mut wire = Vec::new();
        codec
            .serialize(&request(opcode::GET, b"k", b"", b""), &mut wire)
            .unwrap();
        wire[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(codec.parse(&wire, None).is_err());
    }

    #[test]
    fn router_projection_keeps_only_needed_fields() {
        let codec = MemcachedCodec::new();
        let req = request(opcode::GETK, b"k1", b"", b"somevalue");
        let mut wire = Vec::new();
        codec.serialize(&req, &mut wire).unwrap();
        let projection = router_projection();
        match codec.parse(&wire, Some(&projection)).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert_eq!(message.str_field("key"), Some("k1"));
                assert!(message.get("value").is_none());
                assert!(message.get("cas").is_none());
                // Pass-through still possible.
                let mut rewire = Vec::new();
                codec.serialize(&message, &mut rewire).unwrap();
                assert_eq!(rewire, wire);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn two_pipelined_commands_parse_sequentially() {
        let codec = MemcachedCodec::new();
        let mut wire = Vec::new();
        codec
            .serialize(&request(opcode::GET, b"a", b"", b""), &mut wire)
            .unwrap();
        let first_len = wire.len();
        codec
            .serialize(&request(opcode::GET, b"bb", b"", b""), &mut wire)
            .unwrap();
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, first_len);
                assert_eq!(message.str_field("key"), Some("a"));
                match codec.parse(&wire[consumed..], None).unwrap() {
                    ParseOutcome::Complete { message, .. } => {
                        assert_eq!(message.str_field("key"), Some("bb"));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
