//! Hadoop intermediate key/value record grammar.
//!
//! The Hadoop data aggregator (Listing 3 and §6.1 of the paper) consumes the
//! stream of intermediate results produced by mappers: a sequence of
//! key/value pairs in the Hadoop intermediate file ("IFile"-style) wire
//! format. We model each record as a length-prefixed key and value, which is
//! the shape the paper's `kv` FLICK type maps onto:
//!
//! ```text
//! key_len   : u32 (big endian)
//! value_len : u32 (big endian)
//! key       : key_len bytes (UTF-8 word for the wordcount workload)
//! value     : value_len bytes (decimal count for the wordcount workload)
//! ```

use crate::engine::GrammarCodec;
use crate::error::GrammarError;
use crate::message::{Message, MsgValue};
use crate::model::{FieldKind, GrammarItem, LenExpr, UnitGrammar};
use crate::projection::Projection;
use crate::{ParseOutcome, WireCodec};
use bytes::Bytes;

/// Builds the `kv` unit grammar for Hadoop intermediate records.
pub fn grammar() -> UnitGrammar {
    UnitGrammar::new("kv")
        .item(GrammarItem::field("key_len", FieldKind::UInt { width: 4 }))
        .item(GrammarItem::field(
            "value_len",
            FieldKind::UInt { width: 4 },
        ))
        .item(GrammarItem::field(
            "key",
            FieldKind::Str {
                length: LenExpr::field("key_len"),
            },
        ))
        .item(GrammarItem::field(
            "value",
            FieldKind::Str {
                length: LenExpr::field("value_len"),
            },
        ))
        .ser_rule("key_len", LenExpr::LenOf("key".into()))
        .ser_rule("value_len", LenExpr::LenOf("value".into()))
}

/// A [`WireCodec`] for Hadoop intermediate key/value records.
#[derive(Debug, Clone)]
pub struct HadoopKvCodec {
    inner: GrammarCodec,
}

impl HadoopKvCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        HadoopKvCodec {
            inner: GrammarCodec::new(grammar()).expect("built-in grammar is valid"),
        }
    }
}

impl Default for HadoopKvCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl WireCodec for HadoopKvCodec {
    fn name(&self) -> &str {
        "hadoop-kv"
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

/// Builds a `kv` message from a key and value.
pub fn kv(key: &str, value: &str) -> Message {
    let mut m = Message::with_capacity("kv", 2);
    m.set("key", MsgValue::Str(key.to_string()));
    m.set("value", MsgValue::Str(value.to_string()));
    m
}

/// Builds a `kv` message whose value is a decimal counter, as produced by the
/// wordcount workload.
pub fn count_kv(key: &str, count: u64) -> Message {
    kv(key, &count.to_string())
}

/// Parses the decimal counter of a wordcount `kv` message.
pub fn count_of(msg: &Message) -> Option<u64> {
    msg.str_field("value").and_then(|v| v.parse().ok())
}

/// Serialises a whole batch of records into one byte stream.
pub fn serialize_batch(
    codec: &HadoopKvCodec,
    records: &[Message],
) -> Result<Vec<u8>, GrammarError> {
    let mut out = Vec::new();
    for r in records {
        codec.serialize(r, &mut out)?;
    }
    Ok(out)
}

/// Parses every record in a byte stream, copied once: each record slices
/// that copy.
pub fn parse_batch(codec: &HadoopKvCodec, buf: &[u8]) -> Result<Vec<Message>, GrammarError> {
    let mut buf = Bytes::copy_from_slice(buf);
    let mut out = Vec::new();
    while !buf.is_empty() {
        match codec.parse_bytes(&buf, None)? {
            ParseOutcome::Complete { message, consumed } => {
                out.push(message);
                buf = buf.slice(consumed..);
            }
            ParseOutcome::Incomplete => {
                return Err(GrammarError::malformed(
                    "kv",
                    "truncated record at end of stream",
                ))
            }
        }
    }
    Ok(out)
}

/// Returns the serialised size of one record without serialising it.
pub fn record_wire_len(key: &str, value: &str) -> usize {
    8 + key.len() + value.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_record() {
        let codec = HadoopKvCodec::new();
        let record = count_kv("elephant", 3);
        let mut wire = Vec::new();
        codec.serialize(&record, &mut wire).unwrap();
        assert_eq!(wire.len(), record_wire_len("elephant", "3"));
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(message.str_field("key"), Some("elephant"));
                assert_eq!(count_of(&message), Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_roundtrip_preserves_order() {
        let codec = HadoopKvCodec::new();
        let records = vec![count_kv("a", 1), count_kv("bb", 22), count_kv("ccc", 333)];
        let wire = serialize_batch(&codec, &records).unwrap();
        let parsed = parse_batch(&codec, &wire).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[1].str_field("key"), Some("bb"));
        assert_eq!(count_of(&parsed[2]), Some(333));
    }

    #[test]
    fn truncated_batch_is_an_error() {
        let codec = HadoopKvCodec::new();
        let wire = serialize_batch(&codec, &[count_kv("word", 9)]).unwrap();
        assert!(parse_batch(&codec, &wire[..wire.len() - 1]).is_err());
    }

    #[test]
    fn empty_key_and_value_are_legal() {
        let codec = HadoopKvCodec::new();
        let mut wire = Vec::new();
        codec.serialize(&kv("", ""), &mut wire).unwrap();
        assert_eq!(wire.len(), 8);
        match codec.parse(&wire, None).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert_eq!(message.str_field("key"), Some(""));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_of_rejects_non_numeric_values() {
        assert_eq!(count_of(&kv("w", "not-a-number")), None);
    }

    /// A record whose `key_len` is maxed out is malformed, not a request
    /// to buffer 4 GiB.
    #[test]
    fn hostile_key_len_is_malformed() {
        let codec = HadoopKvCodec::new();
        let mut wire = Vec::new();
        codec.serialize(&kv("word", "1"), &mut wire).unwrap();
        wire[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(codec.parse(&wire, None).is_err());
    }
}
