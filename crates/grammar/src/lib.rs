//! Wire-format message grammars for FLICK.
//!
//! FLICK programs operate on application data types; the transformation
//! between wire format and typed values is described by a *message grammar*
//! (§4.2 of the paper), modelled on the Spicy / Binpac++ parser generators.
//! This crate provides:
//!
//! * a grammar model ([`model::UnitGrammar`]) with fixed- and variable-size
//!   fields, computed variables and byte-order control;
//! * an incremental, allocation-light parser ([`engine::GrammarCodec`])
//!   driven by a grammar, supporting *field projection* so that only the
//!   fields a FLICK program actually accesses are materialised;
//! * a matching serialiser that recomputes length fields;
//! * reusable built-in grammars for the Memcached binary protocol
//!   ([`memcached`]), HTTP/1.1 ([`http`]) and Hadoop intermediate key/value
//!   records ([`hadoop`]).
//!
//! Every codec meets one contract, [`WireCodec`]: one zero-copy parse over
//! a shared buffer ([`WireCodec::parse_bytes`]) and one vectored
//! serialisation ([`WireCodec::serialize_parts`]); the borrowed-slice parse
//! and the contiguous serialisation are provided on top of them. Parsing
//! is bounded by the constants of [`limits`], which no caller tunes.
//!
//! # Examples
//!
//! ```
//! use flick_grammar::memcached::{self, MemcachedCodec};
//! use flick_grammar::{Message, ParseOutcome, WireCodec};
//!
//! let codec = MemcachedCodec::new();
//! let request = memcached::request(memcached::opcode::GETK, b"user:42", b"", b"");
//! let mut wire = Vec::new();
//! codec.serialize(&request, &mut wire).unwrap();
//! match codec.parse(&wire, None).unwrap() {
//!     ParseOutcome::Complete { message, consumed } => {
//!         assert_eq!(consumed, wire.len());
//!         assert_eq!(message.str_field("key").unwrap(), "user:42");
//!     }
//!     other => panic!("expected a complete message, got {other:?}"),
//! }
//! ```

pub mod engine;
pub mod error;
pub mod hadoop;
pub mod http;
pub mod limits;
pub mod memcached;
pub mod message;
pub mod model;
pub mod projection;

pub use engine::GrammarCodec;
pub use error::GrammarError;
pub use message::{intern, interned_names, Message, MsgValue, Name, Rest};
pub use projection::Projection;

use bytes::Bytes;

/// The result of attempting to parse one message from a byte buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseOutcome {
    /// The buffer does not yet contain a complete message.
    Incomplete,
    /// A complete message was parsed.
    Complete {
        /// The parsed message.
        message: Message,
        /// How many bytes of the buffer the message occupied.
        consumed: usize,
    },
}

/// A parser/serialiser pair for one wire format: one parse on the way in,
/// one serialisation on the way out (§4.2). A codec implements exactly
/// [`WireCodec::parse_bytes`] and [`WireCodec::serialize_parts`]; the
/// borrowed-slice [`WireCodec::parse`] and the contiguous
/// [`WireCodec::serialize`] are derived from them.
///
/// Implementations must be cheap to share across threads: the FLICK runtime
/// clones one codec per connection task.
pub trait WireCodec: Send + Sync {
    /// The name of the format (used in diagnostics and task labels).
    fn name(&self) -> &str;

    /// Attempts to parse one message from the front of a shared buffer.
    ///
    /// `projection`, when given, names the fields the caller will access;
    /// the codec may skip materialising any other field as long as the raw
    /// bytes of the message are preserved for pass-through forwarding.
    /// The input is a refcounted [`Bytes`], so the message (its raw
    /// pass-through bytes and its byte-field values) is bound to the
    /// caller's allocation without copying — fields outside the projection
    /// are never copied at all. Parsing is bounded by the constants of
    /// [`limits`]: past one the frame is malformed, not incomplete.
    fn parse_bytes(
        &self,
        buf: &Bytes,
        projection: Option<&Projection>,
    ) -> Result<ParseOutcome, GrammarError>;

    /// Serialises `msg` for a vectored (`writev`-style) output path:
    /// appends the leading part (headers, framing) to `out` and returns
    /// the trailing part — a refcounted body or the unmodified raw wire
    /// bytes — as a separate [`Bytes`] segment, so the transport can hand
    /// both to the kernel in one syscall without concatenating.
    ///
    /// `Ok(None)` means everything was appended to `out`; `Ok(Some(tail))`
    /// means the wire form is `out ++ tail` — in particular a pass-through
    /// message may leave `out` untouched and come back entirely as the
    /// shared segment.
    fn serialize_parts(
        &self,
        msg: &Message,
        out: &mut Vec<u8>,
    ) -> Result<Option<Bytes>, GrammarError>;

    /// [`WireCodec::parse_bytes`] over a borrowed slice, which is copied
    /// once, whole: a caller that parses repeatedly from a growing buffer
    /// should hold it as [`Bytes`] instead.
    fn parse(
        &self,
        buf: &[u8],
        projection: Option<&Projection>,
    ) -> Result<ParseOutcome, GrammarError> {
        self.parse_bytes(&Bytes::copy_from_slice(buf), projection)
    }

    /// [`WireCodec::serialize_parts`] into one contiguous buffer: the tail
    /// segment, if any, is appended to `out`.
    fn serialize(&self, msg: &Message, out: &mut Vec<u8>) -> Result<(), GrammarError> {
        if let Some(tail) = self.serialize_parts(msg, out)? {
            out.extend_from_slice(&tail);
        }
        Ok(())
    }

    /// Whether the connection `msg` crossed — written by this codec or
    /// parsed by it — stays open for another exchange, as far as `msg`
    /// has a say. The runtime returns a back-end connection to its pool
    /// only when the last message written and the last one read on it both
    /// say so. The default, `false`, never lets a connection be reused: a
    /// codec that does not know its protocol's connection semantics keeps
    /// one connection per graph, closed (EOF at the peer) at teardown.
    fn keeps_alive(&self, _msg: &Message) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_roundtrip_example_compiles() {
        // Mirrors the doc example to keep it honest under `cargo test`.
        let codec = memcached::MemcachedCodec::new();
        let request = memcached::request(memcached::opcode::GET, b"k", b"", b"");
        let mut wire = Vec::new();
        codec.serialize(&request, &mut wire).unwrap();
        assert!(matches!(
            codec.parse(&wire, None).unwrap(),
            ParseOutcome::Complete { .. }
        ));
    }
}
