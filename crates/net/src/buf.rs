//! The shared ingest buffer behind the zero-copy data plane.
//!
//! [`SharedBuf`] is the accumulation buffer an input task reads its
//! connection into. It is backed by a refcounted allocation (`Arc<[u8]>`),
//! so a parsed message can bind its raw wire bytes — and every byte field —
//! to the buffer *without copying* ([`SharedBuf::view`] +
//! `WireCodec::parse_bytes`): completing a message costs an `Arc` bump, not
//! a `memcpy`, and an incomplete message costs nothing at all.
//!
//! Ownership rules (DESIGN.md §11):
//!
//! * The buffer's owner (the input task) is the only writer. It may write
//!   into the unfilled tail **only while the allocation is unique** —
//!   `Arc::get_mut` is the guard. The moment a parsed message is alive
//!   downstream (holding a [`Bytes`] slice of the chunk), the allocation is
//!   shared and the next fill switches to a *fresh* chunk instead of
//!   scribbling over bytes a consumer still references.
//! * Switching chunks only copies the *unconsumed* live bytes (the prefix
//!   of a message that has not finished arriving). On a stream that drains
//!   completely between fills — the common case for framed request/response
//!   traffic — nothing is ever carried, and the whole path from socket to
//!   service logic is copy-free.
//! * Every carried byte is reported to the caller, and
//!   [`crate::NetStats::ingest_copies`] counts the events
//!   ([`crate::Endpoint::read_into`] does the accounting), so "the
//!   shared-buffer path performs zero ingest copies" is a counter the test
//!   suite asserts, not a comment.
//! * A chunk is allocated when it is first filled, in one allocation
//!   zeroed in place. A new buffer holds no chunk, so an idle connection
//!   costs none.

use bytes::Bytes;
use std::sync::Arc;

/// Default size of one read from the connection into the buffer (matches
/// the runtime's historical read chunk).
pub const INGEST_READ_SIZE: usize = 16 * 1024;

/// How many read-sized regions one chunk holds. A larger chunk amortises
/// the fresh-allocation cost paid while earlier messages from the same
/// chunk are still alive downstream.
const READS_PER_CHUNK: usize = 4;

/// A refcounted accumulation buffer that hands out zero-copy views.
///
/// See the module docs for the ownership rules. Not `Clone` on purpose:
/// exactly one owner writes; consumers only ever hold [`Bytes`] views.
pub struct SharedBuf {
    /// `None` until the first fill.
    chunk: Option<Arc<[u8]>>,
    /// First live (unconsumed) byte.
    start: usize,
    /// One past the last filled byte.
    end: usize,
    /// Minimum tail space [`SharedBuf::tail_mut`] guarantees by default,
    /// and the unit the chunk size is derived from.
    read_size: usize,
}

impl std::fmt::Debug for SharedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBuf")
            .field("live", &self.len())
            .field("chunk", &self.capacity())
            .field("shared", &self.is_shared())
            .finish()
    }
}

impl Default for SharedBuf {
    fn default() -> Self {
        SharedBuf::new(INGEST_READ_SIZE)
    }
}

impl SharedBuf {
    /// Creates a buffer whose fills are sized for `read_size`-byte reads.
    /// Allocates nothing: the first fill does.
    pub fn new(read_size: usize) -> Self {
        SharedBuf {
            chunk: None,
            start: 0,
            end: 0,
            read_size: read_size.max(1),
        }
    }

    /// Number of live (filled but unconsumed) bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when no live bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The read size this buffer was created with.
    pub fn read_size(&self) -> usize {
        self.read_size
    }

    /// Size of the current chunk; 0 until the first fill.
    pub(crate) fn capacity(&self) -> usize {
        self.chunk.as_ref().map_or(0, |chunk| chunk.len())
    }

    /// `true` while downstream consumers hold views into the current chunk
    /// (diagnostics; the write path uses `Arc::get_mut` as the real guard).
    pub fn is_shared(&self) -> bool {
        self.chunk
            .as_ref()
            .is_some_and(|chunk| Arc::strong_count(chunk) > 1)
    }

    /// A zero-copy view of the live bytes, sharing the chunk's allocation.
    ///
    /// Holding the view (or any slice of it, e.g. a parsed message's raw
    /// bytes) marks the chunk shared: the owner will fill a fresh chunk
    /// rather than overwrite it.
    pub fn view(&self) -> Bytes {
        match &self.chunk {
            Some(chunk) => Bytes::from_arc_slice(Arc::clone(chunk), self.start, self.end),
            None => Bytes::new(),
        }
    }

    /// The chunk, if it exists and no view pins it.
    fn unique_chunk(&mut self) -> Option<&mut [u8]> {
        self.chunk.as_mut().and_then(Arc::get_mut)
    }

    /// Marks the first `n` live bytes consumed (a parser accepted them).
    ///
    /// # Panics
    /// Panics if `n` exceeds the live length.
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consume({n}) beyond live bytes");
        self.start += n;
        if self.start == self.end {
            // Empty: future fills may restart at offset zero. Whether that
            // reuses the chunk in place is decided by `tail_mut`'s
            // uniqueness check, so outstanding views are never clobbered.
            self.start = 0;
            self.end = 0;
        }
    }

    /// `true` when at least `min` tail bytes can be filled without
    /// switching chunks: the chunk exists, is unique (no views pin it) and
    /// has the space. When this is `false`, making room costs a fresh
    /// allocation (or a carry), so callers probing an idle source should
    /// check for data first — [`crate::Endpoint::read_into`] does.
    pub fn can_fill_in_place(&mut self, min: usize) -> bool {
        self.capacity() - self.end >= min.max(1) && self.unique_chunk().is_some()
    }

    /// Returns a writable tail of at least `min` bytes, plus the number of
    /// live bytes that had to be *copied* to make that possible (0 on the
    /// fast paths).
    ///
    /// Fast paths: the chunk is unique and has tail space (fill in place),
    /// or there are no live bytes (a fresh chunk costs an allocation but no
    /// copy). Live bytes are carried — copied — only when a partial message
    /// is buffered *and* the chunk is shared or out of space.
    pub fn tail_mut(&mut self, min: usize) -> (&mut [u8], usize) {
        let min = min.max(1);
        let live = self.len();
        let mut carried = 0;
        if !self.can_fill_in_place(min) {
            let (start, end) = (self.start, self.end);
            let capacity = self.capacity();
            match self.unique_chunk() {
                // Unique but out of tail space: compact in place.
                Some(data) if live + min <= capacity => data.copy_within(start..end, 0),
                _ => {
                    // Built in place as one allocation, then the live bytes
                    // (if any) are carried over.
                    let size = (self.read_size * READS_PER_CHUNK).max(live + min);
                    let mut fresh: Arc<[u8]> = std::iter::repeat(0u8).take(size).collect();
                    if let Some(old) = &self.chunk {
                        Arc::get_mut(&mut fresh).expect("fresh")[..live]
                            .copy_from_slice(&old[start..end]);
                    }
                    self.chunk = Some(fresh);
                }
            }
            self.start = 0;
            self.end = live;
            carried = live;
        }
        let end = self.end;
        let tail = &mut self.unique_chunk().expect("unique with room")[end..];
        (tail, carried)
    }

    /// Marks `n` bytes of the tail returned by [`SharedBuf::tail_mut`] as
    /// filled.
    ///
    /// # Panics
    /// Panics if `n` exceeds the writable tail (an over-commit would
    /// corrupt the buffer's indices and surface as a confusing bounds
    /// failure far from the faulty caller).
    pub fn commit(&mut self, n: usize) {
        assert!(self.end + n <= self.capacity(), "commit({n}) beyond chunk");
        self.end += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(buf: &mut SharedBuf, data: &[u8]) -> usize {
        let (tail, carried) = buf.tail_mut(data.len());
        tail[..data.len()].copy_from_slice(data);
        buf.commit(data.len());
        carried
    }

    /// A new buffer holds no chunk; the first fill allocates one of
    /// `READS_PER_CHUNK` reads, which later fills reuse.
    #[test]
    fn the_chunk_is_allocated_on_the_first_fill() {
        let mut buf = SharedBuf::new(64);
        assert_eq!(buf.capacity(), 0);
        assert!(buf.view().is_empty());
        assert!(!buf.can_fill_in_place(1));
        fill(&mut buf, b"abc");
        assert_eq!(buf.capacity(), 64 * READS_PER_CHUNK);
        let chunk = buf.view().as_ptr();
        buf.consume(3);
        fill(&mut buf, b"def");
        assert_eq!(buf.view().as_ptr(), chunk, "refilled in place");
    }

    #[test]
    fn fill_view_consume_roundtrip() {
        let mut buf = SharedBuf::new(64);
        assert!(buf.is_empty());
        assert_eq!(fill(&mut buf, b"hello world"), 0);
        assert_eq!(buf.len(), 11);
        let view = buf.view();
        assert_eq!(&view[..], b"hello world");
        buf.consume(5);
        assert_eq!(&buf.view()[..], b" world");
        buf.consume(6);
        assert!(buf.is_empty());
    }

    #[test]
    fn views_pin_the_chunk_and_fills_switch_to_a_fresh_one() {
        let mut buf = SharedBuf::new(64);
        fill(&mut buf, b"first");
        let message = buf.view();
        buf.consume(5);
        assert!(buf.is_shared());
        // The next fill must not touch the pinned chunk — and because the
        // buffer is empty, switching chunks carries zero bytes.
        let carried = fill(&mut buf, b"second");
        assert_eq!(carried, 0, "empty buffer switches chunks copy-free");
        assert_eq!(&message[..], b"first", "outstanding view is untouched");
        assert_eq!(&buf.view()[..], b"second");
    }

    #[test]
    fn unique_chunk_is_reused_in_place() {
        let mut buf = SharedBuf::new(8);
        for round in 0..100 {
            let data = [round as u8; 8];
            let carried = fill(&mut buf, &data);
            assert_eq!(carried, 0, "round {round}");
            assert_eq!(&buf.view()[..], &data[..]);
            buf.consume(8);
        }
    }

    #[test]
    fn partial_message_is_carried_only_when_pinned() {
        let mut buf = SharedBuf::new(8);
        fill(&mut buf, b"whole+pa");
        let whole = buf.view().slice(..6);
        buf.consume(6); // "whole+" parsed; "pa" is a partial message.
        assert_eq!(buf.len(), 2);
        // The chunk is pinned by `whole` and the partial bytes must
        // survive, so this fill pays a 2-byte carry.
        let carried = fill(&mut buf, b"rtial");
        assert_eq!(carried, 2);
        assert_eq!(&buf.view()[..], b"partial");
        assert_eq!(&whole[..], b"whole+");
    }

    #[test]
    fn unique_compaction_reclaims_consumed_space() {
        let mut buf = SharedBuf::new(4); // 16-byte chunk
        fill(&mut buf, b"0123456789abcd");
        buf.consume(12);
        // Unique (no views alive) but out of tail space: the 2 live bytes
        // compact to the front of the same-size chunk.
        let carried = fill(&mut buf, b"efghij");
        assert_eq!(carried, 2);
        assert_eq!(&buf.view()[..], b"cdefghij");
    }

    #[test]
    fn oversized_requests_grow_the_chunk() {
        let mut buf = SharedBuf::new(4);
        let big = vec![7u8; 100];
        assert_eq!(fill(&mut buf, &big), 0);
        assert_eq!(buf.len(), 100);
        assert_eq!(&buf.view()[..], &big[..]);
    }

    #[test]
    #[should_panic(expected = "beyond live bytes")]
    fn consume_past_live_panics() {
        let mut buf = SharedBuf::new(8);
        fill(&mut buf, b"ab");
        buf.consume(3);
    }
}
