//! The dynamically-typed message representation produced by parsers.
//!
//! Input tasks deserialise the byte stream into [`Message`] values, which are
//! the smallest units appropriate for the service (a complete HTTP request, a
//! Memcached command, a Hadoop key/value pair). A message keeps its raw wire
//! bytes when it was parsed from the network, so that services that forward
//! data unchanged (for example the return path of the HTTP load balancer)
//! never pay for re-serialisation.

use bytes::Bytes;
use std::any::Any;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The name of a unit or field. Interned names (grammars, compiled record
/// templates) and literals are borrowed and cost nothing to copy into a
/// message; only a name built at run time is owned.
pub type Name = Cow<'static, str>;

/// Every name [`intern`] has returned, once each.
static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Returns the process-wide copy of `name`, leaking one allocation the
/// first time a name is seen. Codecs intern their grammar's names when
/// they are built and the bytecode compiler interns record templates when
/// it lowers a program, never per message, so the set is bounded by the
/// distinct names of the grammars and programs a process builds.
pub fn intern(name: &str) -> &'static str {
    let mut interned = INTERNED
        .lock()
        .expect("nothing panics while holding the name interner");
    if let Some(name) = interned.get(name) {
        return name;
    }
    let name: &'static str = Box::leak(name.into());
    interned.insert(name);
    name
}

/// How many distinct names have been interned.
pub fn interned_names() -> usize {
    INTERNED
        .lock()
        .expect("nothing panics while holding the name interner")
        .len()
}

/// A single field value inside a [`Message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgValue {
    /// An unsigned integer field (lengths, opcodes, status codes...).
    UInt(u64),
    /// A signed integer field.
    Int(i64),
    /// A byte-string field (keys, values, bodies).
    Bytes(Bytes),
    /// A text field.
    Str(String),
    /// A boolean flag.
    Bool(bool),
}

impl MsgValue {
    /// Returns the value as an unsigned integer if it is numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MsgValue::UInt(v) => Some(*v),
            MsgValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Returns the value as bytes when it is a byte or text field.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            MsgValue::Bytes(b) => Some(b),
            MsgValue::Str(s) => Some(s.as_bytes()),
            _ => None,
        }
    }

    /// Returns the value as text when it is (valid UTF-8) bytes or a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            MsgValue::Str(s) => Some(s),
            MsgValue::Bytes(b) => std::str::from_utf8(b).ok(),
            _ => None,
        }
    }

    /// The number of wire bytes a byte/text value occupies.
    pub fn byte_len(&self) -> usize {
        match self {
            MsgValue::Bytes(b) => b.len(),
            MsgValue::Str(s) => s.len(),
            _ => 0,
        }
    }
}

impl fmt::Display for MsgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgValue::UInt(v) => write!(f, "{v}"),
            MsgValue::Int(v) => write!(f, "{v}"),
            MsgValue::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            MsgValue::Str(s) => write!(f, "{s:?}"),
            MsgValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A parsed application-level message.
///
/// Fields are stored in parse order in a small vector; lookups are linear,
/// which is faster than hashing for the handful of fields real protocol
/// messages carry and avoids any per-message allocation beyond the vector.
/// Names are [`Name`]s: a parsed or compiled message borrows them, so it
/// owns only its field vector and its values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Message {
    /// The unit (grammar) name this message was parsed with.
    pub unit: Name,
    /// Field name/value pairs in wire order.
    fields: Vec<(Name, MsgValue)>,
    /// The raw wire bytes of the message, when parsed from the network and
    /// unmodified since. Cleared by [`Message::set`] so that serialisation
    /// rebuilds the wire representation.
    raw: Option<Bytes>,
    /// Body bytes that follow `raw` on the wire but were not read with
    /// it, and what carries them (see [`Message::unread_body`]). Boxed:
    /// few messages have any, and every message pays for the field.
    unread: Option<Box<Unread>>,
}

#[derive(Debug, Clone, PartialEq, Default)]
struct Unread {
    len: u64,
    /// Attached by the runtime once it moves the bytes.
    rest: Option<Rest>,
}

/// An opaque carrier for the unread part of a message's body, attached by
/// whoever moves those bytes (the runtime attaches a kernel body pipe).
/// Clones share it; two messages are equal only if they share one.
#[derive(Clone)]
pub struct Rest(pub Arc<dyn Any + Send + Sync>);

impl PartialEq for Rest {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for Rest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Rest(..)")
    }
}

impl Message {
    /// Creates an empty message for the given unit.
    pub fn new(unit: impl Into<Name>) -> Self {
        Message {
            unit: unit.into(),
            fields: Vec::new(),
            raw: None,
            unread: None,
        }
    }

    /// Creates a message with pre-allocated space for `n` fields.
    pub fn with_capacity(unit: impl Into<Name>, n: usize) -> Self {
        Message {
            unit: unit.into(),
            fields: Vec::with_capacity(n),
            raw: None,
            unread: None,
        }
    }

    /// Returns the number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` if the message has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Sets a field, replacing any previous value of the same name.
    ///
    /// Mutating a field invalidates the cached raw wire bytes.
    pub fn set(&mut self, name: impl Into<Name>, value: MsgValue) -> &mut Self {
        let name = name.into();
        self.raw = None;
        if let Some(slot) = self.fields.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.fields.push((name, value));
        }
        self
    }

    /// Sets a field without invalidating the raw bytes.
    ///
    /// This is used by parsers, which populate fields that by definition
    /// agree with the raw representation.
    pub(crate) fn set_parsed(&mut self, name: impl Into<Name>, value: MsgValue) {
        self.fields.push((name.into(), value));
    }

    /// Returns a field by name.
    pub fn get(&self, name: &str) -> Option<&MsgValue> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Returns the field at wire-order position `idx` with its name.
    ///
    /// Messages of one grammar unit carry their fields in a fixed parse
    /// order, so consumers that resolve a name to an offset once (the
    /// bytecode VM's field-site caches) can re-read by index and merely
    /// verify the name still matches.
    pub fn field_at(&self, idx: usize) -> Option<(&str, &MsgValue)> {
        self.fields.get(idx).map(|(n, v)| (n.as_ref(), v))
    }

    /// Returns a numeric field as `u64`.
    pub fn uint_field(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(MsgValue::as_u64)
    }

    /// Returns a text field as `&str`.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(MsgValue::as_str)
    }

    /// Returns a byte field.
    pub fn bytes_field(&self, name: &str) -> Option<&[u8]> {
        self.get(name).and_then(MsgValue::as_bytes)
    }

    /// Returns a byte field as its refcounted [`Bytes`] handle, so callers
    /// (e.g. the vectored output path) can share the allocation instead of
    /// copying the slice. `None` when the field is absent or not stored as
    /// bytes.
    pub fn shared_bytes_field(&self, name: &str) -> Option<&Bytes> {
        match self.get(name) {
            Some(MsgValue::Bytes(bytes)) => Some(bytes),
            _ => None,
        }
    }

    /// Iterates over `(name, value)` pairs in wire order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MsgValue)> {
        self.fields.iter().map(|(n, v)| (n.as_ref(), v))
    }

    /// Re-owns every shared byte region of the message: the raw wire
    /// bytes and each byte field are copied into allocations of exactly
    /// their own size.
    ///
    /// Messages parsed zero-copy (`WireCodec::parse_bytes`) slice the
    /// input task's refcounted ingest chunk, which is the right shape for
    /// a message that lives for one request — but *retaining* one pins
    /// the whole chunk for its lifetime and forces the connection onto
    /// fresh chunks. Call this before storing a message beyond the
    /// request it arrived in (the runtime's shared dictionaries do it
    /// automatically).
    pub fn compact(&mut self) {
        for (_, value) in &mut self.fields {
            if let MsgValue::Bytes(bytes) = value {
                *bytes = Bytes::copy_from_slice(bytes);
            }
        }
        if let Some(raw) = &mut self.raw {
            *raw = Bytes::copy_from_slice(raw);
        }
    }

    /// Attaches the raw wire bytes this message was parsed from.
    pub fn set_raw(&mut self, raw: Bytes) {
        self.raw = Some(raw);
    }

    /// Drops the raw wire bytes: the message is serialised from its fields
    /// from now on, as a modified one is.
    pub fn forget_raw(&mut self) {
        self.raw = None;
    }

    /// Returns the raw wire bytes if the message is still unmodified.
    pub fn raw(&self) -> Option<&Bytes> {
        self.raw.as_ref()
    }

    /// How many body bytes follow [`Message::raw`] on the wire unread. Zero
    /// for a message parsed whole. A codec parsing under a projection
    /// without `body` may report a message as soon as its head is
    /// complete: `raw` is then the head plus whatever body prefix was
    /// buffered, and this many bytes are still in the connection. Whoever
    /// forwards the message moves them ([`Message::rest`]).
    pub fn unread_body(&self) -> u64 {
        self.unread.as_ref().map_or(0, |unread| unread.len)
    }

    /// Records that `n` body bytes follow the raw bytes unread (codecs).
    pub fn set_unread_body(&mut self, n: u64) {
        self.unread.get_or_insert_with(Box::default).len = n;
    }

    /// The carrier of the unread body bytes, if one is attached.
    pub fn rest(&self) -> Option<&Rest> {
        self.unread.as_ref()?.rest.as_ref()
    }

    /// Attaches the carrier of the unread body bytes.
    pub fn attach_rest(&mut self, rest: Rest) {
        self.unread.get_or_insert_with(Box::default).rest = Some(rest);
    }

    /// Total byte length of the raw representation, if known.
    pub fn wire_len(&self) -> Option<usize> {
        self.raw.as_ref().map(|b| b.len())
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {{", self.unit)?;
        for (i, (n, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, " {n}: {v}")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_roundtrip() {
        let mut m = Message::new("cmd");
        m.set("opcode", MsgValue::UInt(0x0c));
        m.set("key", MsgValue::Str("user:1".into()));
        assert_eq!(m.uint_field("opcode"), Some(0x0c));
        assert_eq!(m.str_field("key"), Some("user:1"));
        assert_eq!(m.len(), 2);
        assert!(m.get("missing").is_none());
    }

    #[test]
    fn set_replaces_existing_field() {
        let mut m = Message::new("cmd");
        m.set("key", MsgValue::Str("a".into()));
        m.set("key", MsgValue::Str("b".into()));
        assert_eq!(m.len(), 1);
        assert_eq!(m.str_field("key"), Some("b"));
    }

    #[test]
    fn mutation_clears_raw_bytes() {
        let mut m = Message::new("cmd");
        m.set_raw(Bytes::from_static(b"rawbytes"));
        assert!(m.raw().is_some());
        m.set("key", MsgValue::Str("changed".into()));
        assert!(m.raw().is_none());
    }

    #[test]
    fn parsed_fields_keep_raw_bytes() {
        let mut m = Message::new("cmd");
        m.set_raw(Bytes::from_static(b"rawbytes"));
        m.set_parsed("key", MsgValue::Str("k".into()));
        assert!(m.raw().is_some());
        assert_eq!(m.wire_len(), Some(8));
    }

    #[test]
    fn compact_preserves_content_while_reowning_bytes() {
        let shared = Bytes::from(b"GET /abcd".to_vec());
        let mut m = Message::new("cmd");
        m.set_raw(shared.slice(..9));
        m.set_parsed("path", MsgValue::Bytes(shared.slice(4..9)));
        let before = m.clone();
        m.compact();
        assert_eq!(m, before, "compaction must not change observable content");
        assert_eq!(m.bytes_field("path"), Some(&b"/abcd"[..]));
        assert_eq!(m.raw().map(|r| &r[..]), Some(&b"GET /abcd"[..]));
    }

    #[test]
    fn value_conversions() {
        assert_eq!(MsgValue::UInt(5).as_u64(), Some(5));
        assert_eq!(MsgValue::Int(-1).as_u64(), None);
        assert_eq!(MsgValue::Str("hi".into()).as_bytes(), Some(&b"hi"[..]));
        assert_eq!(
            MsgValue::Bytes(Bytes::from_static(b"ok")).as_str(),
            Some("ok")
        );
        assert_eq!(MsgValue::Bytes(Bytes::from_static(b"ok")).byte_len(), 2);
        assert_eq!(MsgValue::Bool(true).as_u64(), None);
    }

    #[test]
    fn interned_names_are_one_copy_each() {
        let first = intern("interned_names_are_one_copy_each");
        let again = intern(&String::from("interned_names_are_one_copy_each"));
        assert!(std::ptr::eq(first, again));
        let count = interned_names();
        intern("interned_names_are_one_copy_each");
        assert_eq!(interned_names(), count);
    }

    /// Literal and interned names are borrowed, and a message built from
    /// them owns no name; a name built at run time stays owned. Either
    /// way the message compares by content.
    #[test]
    fn borrowed_and_owned_names_compare_by_content() {
        let mut borrowed = Message::new("kv");
        borrowed.set(intern("key"), MsgValue::Str("a".into()));
        assert!(matches!(borrowed.unit, Cow::Borrowed(_)));
        assert!(borrowed
            .fields
            .iter()
            .all(|(n, _)| matches!(n, Cow::Borrowed(_))));
        let mut owned = Message::new(String::from("kv"));
        owned.set(format!("{}ey", 'k'), MsgValue::Str("a".into()));
        assert!(matches!(owned.unit, Cow::Owned(_)));
        assert_eq!(borrowed, owned);
        assert_eq!(owned.str_field("key"), Some("a"));
    }

    #[test]
    fn display_formats_fields() {
        let mut m = Message::new("kv");
        m.set("key", MsgValue::Str("a".into()));
        let s = format!("{m}");
        assert!(s.starts_with("kv {"));
        assert!(s.contains("key"));
    }
}
