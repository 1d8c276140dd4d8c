//! Values exchanged between tasks and the shared-state dictionary.

use bytes::Bytes;
use flick_grammar::Message;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A dynamically typed value flowing through a task graph.
///
/// Application messages parsed by read sides travel as [`Value::Msg`];
/// FLICK-level primitives (integers, strings, booleans, lists) appear when
/// compute logic builds intermediate results.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A string (bounded by construction in FLICK programs).
    Str(String),
    /// Raw bytes.
    Bytes(Bytes),
    /// A parsed application message (record value).
    Msg(Message),
    /// A finite list of values.
    List(Vec<Value>),
    /// The `None` value used for absent dictionary entries.
    None,
}

impl Value {
    /// Returns the message if this value is one.
    pub fn as_msg(&self) -> Option<&Message> {
        match self {
            Value::Msg(m) => Some(m),
            _ => None,
        }
    }

    /// Consumes the value and returns the message if it is one.
    pub fn into_msg(self) -> Option<Message> {
        match self {
            Value::Msg(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the integer if this value is numeric.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Re-owns every shared byte region inside the value (see
    /// [`Message::compact`]): byte values and message fields parsed
    /// zero-copy stop pinning the connection's ingest chunk.
    pub fn compact(&mut self) {
        match self {
            Value::Msg(msg) => msg.compact(),
            Value::Bytes(bytes) => *bytes = Bytes::copy_from_slice(bytes),
            Value::List(items) => items.iter_mut().for_each(Value::compact),
            _ => {}
        }
    }

    /// Returns the string slice for string-like values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Bytes(b) => std::str::from_utf8(b).ok(),
            _ => None,
        }
    }

    /// Returns `true` for [`Value::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, Value::None)
    }

    /// Truthiness used by interpreted FLICK conditionals.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::None | Value::Unit => false,
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Msg(_) => true,
        }
    }

    /// An approximate in-memory size in bytes, used by the resource-sharing
    /// micro-benchmark and by channel accounting.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Unit | Value::Bool(_) | Value::None => 1,
            Value::Int(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::Msg(m) => m
                .wire_len()
                .unwrap_or_else(|| m.iter().map(|(_, v)| v.byte_len().max(8)).sum()),
            Value::List(l) => l.iter().map(Value::approx_size).sum(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Msg(m) => write!(f, "{m}"),
            Value::List(l) => write!(f, "[{} values]", l.len()),
            Value::None => write!(f, "None"),
        }
    }
}

impl From<Message> for Value {
    fn from(m: Message) -> Self {
        Value::Msg(m)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The per-program shared dictionary backing FLICK `global` declarations.
///
/// The paper exposes long-term state to task-graph instances through a
/// key/value abstraction shared by all instances of a service (§4.3); this
/// is that abstraction. It is freely cloneable; clones share storage.
#[derive(Debug, Clone, Default)]
pub struct SharedDict {
    inner: Arc<RwLock<HashMap<String, Value>>>,
}

impl SharedDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        SharedDict::default()
    }

    /// Looks up a key, returning [`Value::None`] when absent.
    pub fn get(&self, key: &str) -> Value {
        self.inner.read().get(key).cloned().unwrap_or(Value::None)
    }

    /// Inserts or replaces a key.
    ///
    /// The stored value is compacted first ([`Value::compact`]): shared
    /// dictionaries are long-lived retention (FLICK `global` state, e.g.
    /// the memcached router's response cache), and a zero-copy parsed
    /// message must not pin its connection's whole ingest chunk for the
    /// lifetime of a cache entry.
    pub fn set(&self, key: impl Into<String>, value: Value) {
        let mut value = value;
        value.compact();
        self.inner.write().insert(key.into(), value);
    }

    /// Removes a key, returning its previous value if any.
    pub fn remove(&self, key: &str) -> Option<Value> {
        self.inner.write().remove(key)
    }

    /// Returns `true` if the key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.inner.read().contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Returns `true` when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Clears all entries.
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_grammar::MsgValue;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(true).as_int(), Some(1));
        assert!(Value::None.is_none());
        let m = Message::new("cmd");
        assert!(Value::from(m.clone()).as_msg().is_some());
        assert_eq!(Value::Msg(m.clone()).into_msg(), Some(m));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::None.truthy());
        assert!(!Value::List(vec![]).truthy());
    }

    #[test]
    fn approx_size_scales_with_payload() {
        assert_eq!(
            Value::Bytes(Bytes::from(vec![0u8; 1024])).approx_size(),
            1024
        );
        let mut m = Message::new("cmd");
        m.set("value", MsgValue::Bytes(Bytes::from(vec![0u8; 100])));
        assert!(Value::Msg(m).approx_size() >= 100);
    }

    #[test]
    fn shared_dict_is_shared_between_clones() {
        let d = SharedDict::new();
        let d2 = d.clone();
        d.set("key", Value::Int(1));
        assert_eq!(d2.get("key"), Value::Int(1));
        assert!(d2.contains("key"));
        assert_eq!(d2.len(), 1);
        assert_eq!(d.get("missing"), Value::None);
        d2.remove("key");
        assert!(d.is_empty());
    }

    #[test]
    fn shared_dict_clear() {
        let d = SharedDict::new();
        d.set("a", Value::Int(1));
        d.set("b", Value::Int(2));
        d.clear();
        assert!(d.is_empty());
    }

    /// Retention must not pin the ingest chunk: storing a zero-copy
    /// parsed message into a shared dictionary (the FLICK `global` cache
    /// pattern) compacts it, releasing the connection's buffer for
    /// in-place reuse.
    #[test]
    fn shared_dict_compacts_stored_messages_off_the_ingest_chunk() {
        use flick_grammar::http::{self, HttpCodec};
        use flick_grammar::{ParseOutcome, WireCodec};
        use flick_net::SharedBuf;

        let codec = HttpCodec::new();
        let mut wire = Vec::new();
        codec
            .serialize(&http::response(200, b"cache me"), &mut wire)
            .unwrap();
        let mut buf = SharedBuf::new(64);
        let (tail, _) = buf.tail_mut(wire.len());
        tail[..wire.len()].copy_from_slice(&wire);
        buf.commit(wire.len());
        let view = buf.view();
        let ParseOutcome::Complete { message, consumed } = codec.parse_bytes(&view, None).unwrap()
        else {
            panic!("complete response expected");
        };
        drop(view);
        buf.consume(consumed);
        assert!(buf.is_shared(), "the parsed message pins the chunk");

        let dict = SharedDict::new();
        dict.set("entry", Value::Msg(message));
        assert!(
            !buf.is_shared(),
            "a stored message must be compacted off the ingest chunk"
        );
        let cached = dict.get("entry");
        let cached = cached.as_msg().expect("cached message");
        assert_eq!(cached.bytes_field("body"), Some(&b"cache me"[..]));
    }
}
