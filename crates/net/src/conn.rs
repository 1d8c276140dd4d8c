//! Connection endpoints: the in-memory pipes and the transport-neutral
//! [`Endpoint`] wrapper.
//!
//! A [`SimEndpoint`] is one end of a simulated TCP connection: a pair of
//! bounded byte pipes with socket-like semantics (non-blocking reads and
//! writes returning [`NetError::WouldBlock`], EOF after the peer closes,
//! blocking variants for client workloads). Every call is charged the cost
//! of the configured [`StackCosts`] so that middlebox throughput reacts to
//! the transport stack exactly as in the paper's evaluation.
//!
//! [`Endpoint`] is what the rest of the workspace sees: one connection end
//! that is either a simulated pipe pair or a real OS socket
//! ([`crate::tcp::TcpConn`]), with identical non-blocking and readiness
//! semantics. Dispatchers, task graphs and services never know which
//! transport they are on — the tentpole property of the OS transport
//! subsystem (DESIGN.md §10).

/// Upper bound on a coalesced ingest read ([`Endpoint::read_into`] sizes
/// its tail request to the source's pending backlog, up to this cap).
const MAX_COALESCED_READ: usize = 256 * 1024;

use crate::costs::StackCosts;
use crate::error::NetError;
use crate::pipe::BodyPipe;
use crate::poller::{Interest, Poller, Readiness, Token, WakerSlot};
use crate::ratelimit::TokenBucket;
use crate::stats::NetStats;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default capacity of each direction's buffer (mirrors a typical socket
/// send/receive buffer).
pub const DEFAULT_PIPE_CAPACITY: usize = 256 * 1024;

/// One direction of a connection.
struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
    capacity: usize,
}

struct PipeState {
    buf: VecDeque<u8>,
    writer_closed: bool,
    reader_closed: bool,
    /// Registered by the pipe's *reader*; woken when bytes arrive or the
    /// writer closes (EOF becomes observable).
    read_waker: Option<WakerSlot>,
    /// Registered by the pipe's *writer*; woken when the reader drains
    /// bytes (space frees up) or closes (writes fail fast).
    write_waker: Option<WakerSlot>,
}

impl PipeState {
    fn wake_reader(&self, readiness: Readiness) {
        if let Some(waker) = &self.read_waker {
            waker.wake(readiness);
        }
    }

    fn wake_writer(&self, readiness: Readiness) {
        if let Some(waker) = &self.write_waker {
            waker.wake(readiness);
        }
    }
}

impl Pipe {
    fn new(capacity: usize) -> Self {
        Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::with_capacity(capacity.min(16 * 1024)),
                writer_closed: false,
                reader_closed: false,
                read_waker: None,
                write_waker: None,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }
}

struct Shared {
    /// Direction written by side A, read by side B.
    a_to_b: Pipe,
    /// Direction written by side B, read by side A.
    b_to_a: Pipe,
    /// The connection id, for diagnostics.
    id: u64,
}

/// Which side of the connection an [`Endpoint`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The side that initiated the connection.
    Client,
    /// The side returned by `accept`.
    Server,
}

/// One end of a simulated connection.
///
/// Endpoints are cheap to clone; clones share the same underlying pipes (as
/// file descriptors shared between threads would).
#[derive(Clone)]
pub struct SimEndpoint {
    shared: Arc<Shared>,
    side: Side,
    costs: StackCosts,
    stats: Option<Arc<NetStats>>,
    rate: Option<Arc<TokenBucket>>,
    closed: Arc<AtomicBool>,
}

impl std::fmt::Debug for SimEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimEndpoint")
            .field("id", &self.shared.id)
            .field("side", &self.side)
            .finish()
    }
}

/// Creates a connected pair of endpoints (client, server).
///
/// This is the substrate-internal constructor; most code obtains endpoints
/// through [`crate::SimNetwork::connect`] and [`crate::SimListener::accept`].
pub fn pair(
    id: u64,
    costs: StackCosts,
    stats: Option<Arc<NetStats>>,
    capacity: usize,
) -> (Endpoint, Endpoint) {
    let shared = Arc::new(Shared {
        a_to_b: Pipe::new(capacity),
        b_to_a: Pipe::new(capacity),
        id,
    });
    let client = SimEndpoint {
        shared: Arc::clone(&shared),
        side: Side::Client,
        costs,
        stats: stats.clone(),
        rate: None,
        closed: Arc::new(AtomicBool::new(false)),
    };
    let server = SimEndpoint {
        shared,
        side: Side::Server,
        costs,
        stats,
        rate: None,
        closed: Arc::new(AtomicBool::new(false)),
    };
    (Endpoint::from_sim(client), Endpoint::from_sim(server))
}

impl SimEndpoint {
    /// The connection identifier (shared by both endpoints).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Which side of the connection this endpoint is.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Attaches a token-bucket rate limit to this endpoint's writes,
    /// modelling the bandwidth of the link behind it.
    pub fn set_write_rate(&mut self, bucket: Arc<TokenBucket>) {
        self.rate = Some(bucket);
    }

    fn out_pipe(&self) -> &Pipe {
        match self.side {
            Side::Client => &self.shared.a_to_b,
            Side::Server => &self.shared.b_to_a,
        }
    }

    fn in_pipe(&self) -> &Pipe {
        match self.side {
            Side::Client => &self.shared.b_to_a,
            Side::Server => &self.shared.a_to_b,
        }
    }

    /// Writes as much of `data` as fits, without blocking.
    ///
    /// Returns the number of bytes accepted, [`NetError::WouldBlock`] if the
    /// peer's buffer (or this link's rate budget) is currently full, or
    /// [`NetError::Closed`] if the peer has closed the connection.
    ///
    /// The stack cost is charged only for the bytes actually moved, so a
    /// full (or rate-limited) connection does not pay per-attempt stack
    /// cost — matching the read side, where a polled-but-empty connection
    /// pays nothing.
    pub fn write(&self, data: &[u8]) -> Result<usize, NetError> {
        if data.is_empty() {
            return Ok(0);
        }
        // A closed endpoint writes nothing, even to a live peer reader —
        // so a severed ("crashed") connection can never emit a late
        // response the peer would mistake for a healthy one.
        if self.is_closed() {
            return Err(NetError::Closed);
        }
        let pipe = self.out_pipe();
        let mut state = pipe.state.lock();
        if state.reader_closed {
            return Err(NetError::Closed);
        }
        let space = pipe.capacity.saturating_sub(state.buf.len());
        if space == 0 {
            return Err(NetError::WouldBlock);
        }
        // Acquire link budget only for bytes that can actually be buffered,
        // so a full pipe or short write never leaks tokens.
        let wanted = data.len().min(space);
        let n = match &self.rate {
            Some(bucket) => bucket.try_acquire(wanted),
            None => wanted,
        };
        if n == 0 {
            return Err(NetError::WouldBlock);
        }
        state.buf.extend(&data[..n]);
        // Record the send while the pipe lock is still held: the reader
        // can only drain these bytes after taking the lock, so its
        // `record_read` strictly follows this `record_write` and the
        // substrate-wide `bytes_received <= bytes_sent` conservation law
        // holds at every instant, not just at quiescence.
        if let Some(stats) = &self.stats {
            stats.record_write(n);
        }
        state.wake_reader(Readiness::readable());
        pipe.cond.notify_all();
        drop(state);
        StackCosts::charge(self.costs.io_cost(true, n));
        Ok(n)
    }

    /// Writes all of `data`, blocking until the peer has buffer space and
    /// the link budget allows it.
    ///
    /// Used by client workloads; the middlebox runtime only uses the
    /// non-blocking [`Endpoint::write`]. Buffer-full waits block on the
    /// pipe's wakeup (the reader notifies on every drain), and rate-limited
    /// waits sleep for the token bucket's actual refill interval
    /// ([`TokenBucket::next_available`]) — there are no fixed backoff
    /// sleeps on this path.
    pub fn write_all(&self, mut data: &[u8]) -> Result<(), NetError> {
        while !data.is_empty() {
            match self.write(data) {
                Ok(n) => data = &data[n..],
                Err(NetError::WouldBlock) => {
                    let pipe = self.out_pipe();
                    let mut state = pipe.state.lock();
                    if state.reader_closed {
                        return Err(NetError::Closed);
                    }
                    if pipe.capacity.saturating_sub(state.buf.len()) == 0 {
                        // Wait for the reader to drain some bytes. The
                        // timeout is only a defensive heartbeat; the
                        // reader's notify is what normally ends the wait.
                        pipe.cond.wait_for(&mut state, Duration::from_millis(100));
                    } else if let Some(bucket) = &self.rate {
                        // Rate limited: sleep until the bucket has refilled
                        // enough tokens for (a chunk of) the remaining data.
                        drop(state);
                        let wait = bucket.next_available(data.len());
                        if !wait.is_zero() {
                            std::thread::sleep(wait.min(Duration::from_millis(5)));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Writes the segments in `bufs` back to back — the simulated
    /// counterpart of the OS transport's one-syscall `writev`. The sim
    /// pipe has no scatter/gather, so segments are applied in order until
    /// the pipe stops taking bytes, but the accounting contract is
    /// identical (one vectored-write event, per-segment counts), so the
    /// writev-path conservation laws hold on simulated runs too.
    pub fn write_vectored(&self, bufs: &[&[u8]]) -> Result<usize, NetError> {
        let mut total = 0usize;
        let mut segments = 0usize;
        for buf in bufs {
            if buf.is_empty() {
                continue;
            }
            match self.write(buf) {
                Ok(n) => {
                    total += n;
                    segments += 1;
                    if n < buf.len() {
                        break; // Pipe (or rate budget) filled mid-segment.
                    }
                }
                // Progress already made: report it; the next call will
                // surface the error, exactly as the kernel's writev does.
                Err(_) if total > 0 => break,
                Err(e) => return Err(e),
            }
        }
        if total > 0 {
            if let Some(stats) = &self.stats {
                stats.record_vectored(segments);
            }
        }
        Ok(total)
    }

    /// Copies up to `max` bytes from this connection into `pipe` (see
    /// [`Endpoint::fill_pipe`]); counted as reads.
    pub fn fill_pipe(&self, pipe: &BodyPipe, max: usize) -> Result<usize, NetError> {
        pipe.copy_in(max, |buf| self.read(buf))
    }

    /// Copies up to `max` bytes from `pipe` into this connection (see
    /// [`Endpoint::drain_pipe`]); counted as writes.
    pub fn drain_pipe(&self, pipe: &BodyPipe, max: usize) -> Result<usize, NetError> {
        if self.is_closed() {
            return Err(NetError::Closed);
        }
        pipe.copy_out(max, |buf| self.write(buf))
    }

    /// Reads available bytes into `buf` without blocking.
    ///
    /// Returns the number of bytes read, [`NetError::WouldBlock`] when no
    /// data is buffered, or [`NetError::Closed`] once the peer has closed and
    /// all data has been drained (EOF).
    ///
    /// The stack cost is charged only for bytes actually moved: a
    /// polled-but-empty connection pays nothing, so idle connections do not
    /// distort the Kernel/Mtcp cost model.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize, NetError> {
        let pipe = self.in_pipe();
        let mut state = pipe.state.lock();
        if state.buf.is_empty() {
            // EOF from the peer, or this end closed: no byte will come.
            return if state.writer_closed || state.reader_closed {
                Err(NetError::Closed)
            } else {
                Err(NetError::WouldBlock)
            };
        }
        let was_full = state.buf.len() >= pipe.capacity;
        let n = buf.len().min(state.buf.len());
        for (i, b) in state.buf.drain(..n).enumerate() {
            buf[i] = b;
        }
        // Edge-triggered writable wake: a registered writer is only ever
        // blocked on a *full* pipe (anything less and its write would have
        // made progress), so only the full→space transition posts an event
        // — draining an uncontended pipe stays silent instead of waking the
        // peer's output task on every read.
        if was_full {
            state.wake_writer(Readiness::writable());
        }
        pipe.cond.notify_all();
        drop(state);
        StackCosts::charge(self.costs.io_cost(false, n));
        if let Some(stats) = &self.stats {
            stats.record_read(n);
        }
        Ok(n)
    }

    /// Reads at least one byte, blocking up to `timeout`.
    pub fn read_timeout(&self, buf: &mut [u8], timeout: Duration) -> Result<usize, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.read(buf) {
                Err(NetError::WouldBlock) => {
                    let pipe = self.in_pipe();
                    let mut state = pipe.state.lock();
                    if !state.buf.is_empty() || state.writer_closed {
                        continue;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::TimedOut);
                    }
                    pipe.cond.wait_for(&mut state, deadline - now);
                    if state.buf.is_empty() && !state.writer_closed && Instant::now() >= deadline {
                        return Err(NetError::TimedOut);
                    }
                }
                other => return other,
            }
        }
    }

    /// Returns `true` if a write could make progress (buffer space
    /// available, or the write would fail fast because the peer closed).
    ///
    /// `true` while an endpoint's token bucket is empty: rate limiting is a
    /// time-based stall, not a peer-readiness one, so a blocked writer uses
    /// this to tell "retry on a clock" apart from "park until the peer
    /// drains". Counted in [`NetStats::writable_polls`].
    pub fn writable(&self) -> bool {
        if let Some(stats) = &self.stats {
            stats.record_writable_poll();
        }
        let pipe = self.out_pipe();
        let state = pipe.state.lock();
        state.reader_closed || state.buf.len() < pipe.capacity
    }

    /// Registers this endpoint with `poller`: state transitions matching
    /// `interest` will enqueue `token` until [`Endpoint::deregister`].
    ///
    /// Registration is level-triggered at the moment of the call for what
    /// a reader could miss (if bytes or an EOF are already buffered an
    /// event is queued immediately) and edge-triggered afterwards, so a
    /// consumer that drains to `WouldBlock` after each event never misses
    /// a wakeup. Room to write is not reported at registration — nothing
    /// has been written on a fresh registration, so no writer waits for it
    /// — only a reader that already closed is.
    ///
    /// Each direction holds one waker slot per pipe end: registering again
    /// on the same poller (from any clone of this endpoint) replaces the
    /// previous registration. An endpoint is registered with at most one
    /// poller at a time (debug-checked); moving to another takes a full
    /// deregistration first.
    pub fn register(&self, poller: &Poller, token: Token, interest: Interest) {
        debug_assert!(
            !self.watched_elsewhere(poller),
            "an endpoint is registered with at most one poller"
        );
        if interest.is_readable() {
            let pipe = self.in_pipe();
            let mut state = pipe.state.lock();
            state.read_waker = Some(poller.slot(token));
            if !state.buf.is_empty() || state.writer_closed {
                let mut readiness = Readiness::readable();
                readiness.closed = state.writer_closed;
                state.wake_reader(readiness);
            }
        }
        if interest.is_writable() {
            let pipe = self.out_pipe();
            let mut state = pipe.state.lock();
            state.write_waker = Some(poller.slot(token));
            if state.reader_closed {
                state.wake_writer(Readiness::writable().with_closed());
            }
        }
    }

    /// `true` if either direction is registered with a poller other than
    /// `poller` (the one-poller check of [`SimEndpoint::register`]).
    fn watched_elsewhere(&self, poller: &Poller) -> bool {
        let elsewhere =
            |waker: &Option<WakerSlot>| waker.as_ref().is_some_and(|w| !w.belongs_to(poller));
        elsewhere(&self.in_pipe().state.lock().read_waker)
            || elsewhere(&self.out_pipe().state.lock().write_waker)
    }

    /// Removes this endpoint's registration (both directions).
    /// Already-queued events are not retracted (consumers must tolerate
    /// events for deregistered tokens).
    pub fn deregister(&self) {
        self.in_pipe().state.lock().read_waker = None;
        self.out_pipe().state.lock().write_waker = None;
    }

    /// Number of bytes currently buffered for reading.
    pub fn pending(&self) -> usize {
        self.in_pipe().state.lock().buf.len()
    }

    /// Returns `true` if the peer has closed its sending side.
    pub fn peer_closed(&self) -> bool {
        self.in_pipe().state.lock().writer_closed
    }

    /// Returns `true` if this endpoint has been closed locally.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// `true` when neither side has closed and nothing waits to be read.
    pub fn is_idle(&self) -> bool {
        if self.is_closed() {
            return false;
        }
        let state = self.in_pipe().state.lock();
        state.buf.is_empty() && !state.writer_closed
    }

    /// Closes this endpoint: the peer will observe EOF after draining.
    ///
    /// Closing is idempotent; only the first call pays the teardown cost.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        StackCosts::charge(self.costs.teardown);
        // The peer's reader can now observe EOF (after draining) and its
        // writer will fail fast; this end's own reader and writer see the
        // close. Each registration is posted once, after both pipes are
        // marked: one watching both directions under one token gets one
        // event, as a kernel hang-up gives it, not two that a dispatcher
        // turn may split.
        let mut wakes: Vec<(WakerSlot, Readiness)> = Vec::with_capacity(4);
        for (pipe, outbound) in [(self.out_pipe(), true), (self.in_pipe(), false)] {
            let mut state = pipe.state.lock();
            if outbound {
                state.writer_closed = true;
            } else {
                state.reader_closed = true;
            }
            let watchers = [
                (&state.read_waker, Readiness::readable()),
                (&state.write_waker, Readiness::writable()),
            ];
            for (waker, readiness) in watchers {
                let Some(waker) = waker else { continue };
                let readiness = readiness.with_closed();
                match wakes.iter_mut().find(|(w, _)| w.same_as(waker)) {
                    Some((_, merged)) => merged.merge(readiness),
                    None => wakes.push((waker.clone(), readiness)),
                }
            }
            pipe.cond.notify_all();
        }
        for (waker, readiness) in wakes {
            waker.wake(readiness);
        }
        if let Some(stats) = &self.stats {
            stats.record_close();
        }
    }
}

// ---------------------------------------------------------------------------
// The transport-neutral endpoint
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum EndpointKind {
    Sim(SimEndpoint),
    Tcp(crate::tcp::TcpConn),
}

/// One end of a connection, over either transport.
///
/// This is the only connection type the runtime, services and workloads
/// handle: a simulated in-memory pipe pair ([`SimEndpoint`]) or a real OS
/// socket ([`crate::tcp::TcpConn`]) behind one non-blocking API with
/// identical readiness semantics ([`Endpoint::register`] feeds the same
/// [`Poller`]s). Cheap to clone; clones share the underlying connection.
#[derive(Clone)]
pub struct Endpoint {
    kind: EndpointKind,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            EndpointKind::Sim(sim) => sim.fmt(f),
            EndpointKind::Tcp(tcp) => tcp.fmt(f),
        }
    }
}

/// Delegates one wrapper method to whichever transport is inside: shared
/// by [`Endpoint`] (over `EndpointKind`) and [`crate::Listener`] (over its
/// listener kind enum). Both wrapper structs keep the enum in a `kind`
/// field.
macro_rules! dispatch {
    ($kind:ident, $self:expr, $inner:ident => $body:expr) => {
        match &$self.kind {
            $kind::Sim($inner) => $body,
            $kind::Tcp($inner) => $body,
        }
    };
}
pub(crate) use dispatch;

impl Endpoint {
    pub(crate) fn from_sim(sim: SimEndpoint) -> Self {
        Endpoint {
            kind: EndpointKind::Sim(sim),
        }
    }

    pub(crate) fn from_tcp(tcp: crate::tcp::TcpConn) -> Self {
        Endpoint {
            kind: EndpointKind::Tcp(tcp),
        }
    }

    /// The connection identifier (shared by both simulated endpoints;
    /// unique per socket for the OS transport).
    pub fn id(&self) -> u64 {
        dispatch!(EndpointKind, self, ep => ep.id())
    }

    /// Which side of the connection this endpoint is.
    pub fn side(&self) -> Side {
        dispatch!(EndpointKind, self, ep => ep.side())
    }

    /// Attaches a token-bucket rate limit to this endpoint's writes,
    /// modelling the bandwidth of the link behind it. Simulated links
    /// only: a kernel socket's bandwidth is the kernel's, and this leaves
    /// one unchanged.
    pub fn set_write_rate(&mut self, bucket: Arc<TokenBucket>) {
        if let EndpointKind::Sim(sim) = &mut self.kind {
            sim.set_write_rate(bucket);
        }
    }

    /// Writes as much of `data` as fits, without blocking. See
    /// [`SimEndpoint::write`] for the error contract (identical on both
    /// transports).
    pub fn write(&self, data: &[u8]) -> Result<usize, NetError> {
        dispatch!(EndpointKind, self, ep => ep.write(data))
    }

    /// Writes the segments in `bufs` in one call — `writev(2)` on the OS
    /// transport (header+body leave in a single syscall, no staging
    /// concatenation), sequential segment writes with identical accounting
    /// on the sim transport. Returns the total bytes accepted, which may
    /// be a prefix ending mid-segment.
    pub fn write_vectored(&self, bufs: &[&[u8]]) -> Result<usize, NetError> {
        dispatch!(EndpointKind, self, ep => ep.write_vectored(bufs))
    }

    /// Writes all of `data`, blocking until buffer space and link budget
    /// allow. Client-workload helper; the middlebox runtime only uses the
    /// non-blocking [`Endpoint::write`].
    pub fn write_all(&self, data: &[u8]) -> Result<(), NetError> {
        dispatch!(EndpointKind, self, ep => ep.write_all(data))
    }

    /// Reads available bytes into `buf` without blocking. See
    /// [`SimEndpoint::read`] for the error contract.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize, NetError> {
        dispatch!(EndpointKind, self, ep => ep.read(buf))
    }

    /// Moves up to `max` bytes of this connection's input into `pipe`
    /// without blocking: `splice(2)` on the OS transport, so the bytes
    /// never enter user space; a copy on the sim transport. Returns the
    /// bytes moved, [`NetError::WouldBlock`] when the connection has none
    /// or the pipe is full, and [`NetError::Closed`] at EOF.
    pub fn fill_pipe(&self, pipe: &BodyPipe, max: usize) -> Result<usize, NetError> {
        dispatch!(EndpointKind, self, ep => ep.fill_pipe(pipe, max))
    }

    /// Moves up to `max` bytes out of `pipe` onto this connection without
    /// blocking, the other half of [`Endpoint::fill_pipe`]. Returns the
    /// bytes the connection took, [`NetError::WouldBlock`] when the pipe
    /// is empty or the connection full, and [`NetError::Closed`] when the
    /// connection is gone.
    pub fn drain_pipe(&self, pipe: &BodyPipe, max: usize) -> Result<usize, NetError> {
        dispatch!(EndpointKind, self, ep => ep.drain_pipe(pipe, max))
    }

    /// Reads available bytes directly into a [`SharedBuf`] without
    /// blocking — the zero-copy ingest entry point.
    ///
    /// The socket fills the buffer's writable tail in place; a parsed
    /// message then binds to the buffer's allocation via
    /// [`SharedBuf::view`] without any intermediate copy. If making room
    /// required carrying live bytes to a new chunk (a partial message
    /// pinned by earlier messages still alive downstream), the carry is
    /// recorded in [`NetStats::ingest_copies`] — zero on the fast path.
    ///
    /// One call reads at most `max` bytes, and never fewer than the
    /// buffer's read size. An input whose bodies may stream passes that
    /// read size: whatever it reads past a head is body that then crosses
    /// user space instead of a body pipe. Others pass `usize::MAX`.
    ///
    /// [`SharedBuf`]: crate::SharedBuf
    /// [`SharedBuf::view`]: crate::SharedBuf::view
    pub fn read_into(&self, buf: &mut crate::SharedBuf, max: usize) -> Result<usize, NetError> {
        let min = buf.read_size();
        let pending = self.pending();
        // When filling means a fresh chunk (none yet, views of the current
        // one are still alive downstream, or the tail is out of space),
        // probe the connection first: a read that would report
        // `WouldBlock` or EOF anyway must not pay a chunk allocation —
        // input tasks probe after every drained batch, and an idle
        // connection is probed once on registration. Once the peer is
        // closed no byte can arrive, so an empty source then is EOF.
        if !buf.can_fill_in_place(min) && pending == 0 {
            return Err(
                if (self.peer_closed() || self.is_closed()) && self.pending() == 0 {
                    NetError::Closed
                } else {
                    NetError::WouldBlock
                },
            );
        }
        // Coalesce per wakeup: when the source already holds more than one
        // default read's worth, size the tail request to drain it in fewer
        // calls (capped, so one hot connection cannot demand an unbounded
        // chunk). Never at the price of a carry: if the larger request
        // would force a chunk switch that the default size avoids, keep
        // the default — the zero-copy law outranks the syscall count.
        let mut want = min.max(pending.min(max).min(MAX_COALESCED_READ));
        if want > min && buf.can_fill_in_place(min) && !buf.can_fill_in_place(want) {
            want = min;
        }
        let (tail, carried) = buf.tail_mut(want);
        if carried > 0 {
            if let Some(stats) = self.stats() {
                stats.record_ingest_copy(carried);
            }
        }
        let take = tail.len().min(max.max(min));
        let n = self.read(&mut tail[..take])?;
        buf.commit(n);
        Ok(n)
    }

    /// The stats block this endpoint records into, if any.
    fn stats(&self) -> Option<&Arc<NetStats>> {
        match &self.kind {
            EndpointKind::Sim(sim) => sim.stats.as_ref(),
            EndpointKind::Tcp(tcp) => Some(tcp.stats()),
        }
    }

    /// Reads at least one byte, blocking up to `timeout`.
    pub fn read_timeout(&self, buf: &mut [u8], timeout: Duration) -> Result<usize, NetError> {
        dispatch!(EndpointKind, self, ep => ep.read_timeout(buf, timeout))
    }

    /// Reads exactly `buf.len()` bytes, blocking up to `timeout` overall.
    pub fn read_exact_timeout(&self, buf: &mut [u8], timeout: Duration) -> Result<(), NetError> {
        let deadline = Instant::now() + timeout;
        let mut filled = 0usize;
        while filled < buf.len() {
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::TimedOut);
            }
            let n = self.read_timeout(&mut buf[filled..], deadline - now)?;
            filled += n;
        }
        Ok(())
    }

    /// Returns `true` if a write could make progress (buffer space, or a
    /// fail-fast close). Still `true` while a rate limiter is the only
    /// obstacle — see [`SimEndpoint::writable`]. Counted in
    /// [`NetStats::writable_polls`] on both transports.
    pub fn writable(&self) -> bool {
        dispatch!(EndpointKind, self, ep => ep.writable())
    }

    /// Registers this endpoint with `poller`: transitions matching
    /// `interest` enqueue `token` until [`Endpoint::deregister`].
    /// Level-triggered at the moment of the call, edge-triggered
    /// afterwards, on both transports. An endpoint is registered with at
    /// most one poller at a time; registering on another while either
    /// direction is still registered is a bug (a `debug_assert!`).
    pub fn register(&self, poller: &Poller, token: Token, interest: Interest) {
        dispatch!(EndpointKind, self, ep => ep.register(poller, token, interest))
    }

    /// Removes this endpoint's registration, both directions. Once it is
    /// gone the endpoint may register with another poller.
    pub fn deregister(&self) {
        dispatch!(EndpointKind, self, ep => ep.deregister())
    }

    /// Number of bytes currently buffered for reading.
    pub fn pending(&self) -> usize {
        dispatch!(EndpointKind, self, ep => ep.pending())
    }

    /// Returns `true` if the peer has closed its sending side.
    pub fn peer_closed(&self) -> bool {
        dispatch!(EndpointKind, self, ep => ep.peer_closed())
    }

    /// Returns `true` if this endpoint has been closed locally.
    pub fn is_closed(&self) -> bool {
        dispatch!(EndpointKind, self, ep => ep.is_closed())
    }

    /// `true` when the connection is open at both ends and nothing waits
    /// to be read — one `recv(MSG_PEEK)` on the OS transport. What a
    /// connection must be to carry a fresh exchange.
    pub fn is_idle(&self) -> bool {
        dispatch!(EndpointKind, self, ep => ep.is_idle())
    }

    /// Closes this endpoint: the peer will observe EOF after draining.
    /// Idempotent on both transports.
    pub fn close(&self) {
        dispatch!(EndpointKind, self, ep => ep.close())
    }

    /// Closes this endpoint because its byte stream failed to parse,
    /// recording the termination in [`NetStats::malformed_closes`] on top
    /// of the regular close accounting. The plain close happens first so a
    /// concurrent snapshot never sees the malformed count ahead of the
    /// close count.
    pub fn close_malformed(&self) {
        let first = !self.is_closed();
        self.close();
        if first {
            if let Some(stats) = self.stats() {
                stats.record_malformed_close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pair() -> (Endpoint, Endpoint) {
        pair(1, StackCosts::free(), None, DEFAULT_PIPE_CAPACITY)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (client, server) = test_pair();
        assert_eq!(client.write(b"hello").unwrap(), 5);
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }

    #[test]
    fn both_directions_are_independent() {
        let (client, server) = test_pair();
        client.write(b"ping").unwrap();
        server.write(b"pong").unwrap();
        let mut buf = [0u8; 4];
        server.read(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        client.read(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn empty_read_would_block() {
        let (_client, server) = test_pair();
        let mut buf = [0u8; 4];
        assert_eq!(server.read(&mut buf), Err(NetError::WouldBlock));
    }

    #[test]
    fn close_gives_eof_after_drain() {
        let (client, server) = test_pair();
        client.write(b"bye").unwrap();
        client.close();
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 3);
        assert_eq!(server.read(&mut buf), Err(NetError::Closed));
        assert!(server.peer_closed());
    }

    /// Idle means open at both ends with nothing to read.
    #[test]
    fn idle_needs_both_ends_open_and_nothing_pending() {
        let (client, server) = test_pair();
        assert!(client.is_idle());
        server.write(b"late").unwrap();
        assert!(!client.is_idle(), "pending bytes");
        client.read(&mut [0u8; 4]).unwrap();
        assert!(client.is_idle());
        server.close();
        assert!(!client.is_idle(), "peer closed");
        let (client, _server) = test_pair();
        client.close();
        assert!(!client.is_idle(), "closed here");
    }

    #[test]
    fn write_to_closed_peer_fails() {
        let (client, server) = test_pair();
        server.close();
        assert_eq!(client.write(b"data"), Err(NetError::Closed));
    }

    #[test]
    fn buffer_capacity_causes_would_block() {
        let (client, _server) = pair(2, StackCosts::free(), None, 8);
        assert_eq!(client.write(b"0123456789").unwrap(), 8);
        assert_eq!(client.write(b"x"), Err(NetError::WouldBlock));
    }

    #[test]
    fn write_all_blocks_until_reader_drains() {
        let (client, server) = pair(3, StackCosts::free(), None, 16);
        let reader = std::thread::spawn(move || {
            let mut total = 0usize;
            let mut buf = [0u8; 8];
            while total < 64 {
                match server.read(&mut buf) {
                    Ok(n) => total += n,
                    Err(NetError::WouldBlock) => std::thread::sleep(Duration::from_micros(100)),
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            total
        });
        client.write_all(&[7u8; 64]).unwrap();
        assert_eq!(reader.join().unwrap(), 64);
    }

    #[test]
    fn read_timeout_expires() {
        let (_client, server) = test_pair();
        let mut buf = [0u8; 4];
        let err = server
            .read_timeout(&mut buf, Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, NetError::TimedOut);
    }

    #[test]
    fn read_exact_collects_across_writes() {
        let (client, server) = test_pair();
        let writer = std::thread::spawn(move || {
            client.write(b"abc").unwrap();
            std::thread::sleep(Duration::from_millis(5));
            client.write(b"def").unwrap();
        });
        let mut buf = [0u8; 6];
        server
            .read_exact_timeout(&mut buf, Duration::from_secs(1))
            .unwrap();
        assert_eq!(&buf, b"abcdef");
        writer.join().unwrap();
    }

    #[test]
    fn rate_limited_write_reports_would_block() {
        let (mut client, _server) = test_pair();
        client.set_write_rate(Arc::new(TokenBucket::new_bits_per_sec(8_000, 4)));
        assert_eq!(client.write(b"abcd").unwrap(), 4);
        assert_eq!(client.write(b"efgh"), Err(NetError::WouldBlock));
    }

    #[test]
    fn stats_are_recorded() {
        let stats = NetStats::new_shared();
        let (client, server) = pair(9, StackCosts::free(), Some(Arc::clone(&stats)), 1024);
        client.write(b"12345").unwrap();
        let mut buf = [0u8; 8];
        server.read(&mut buf).unwrap();
        client.close();
        server.close();
        let snap = stats.snapshot();
        assert_eq!(snap.bytes_sent, 5);
        assert_eq!(snap.bytes_received, 5);
        assert_eq!(snap.connections_closed, 2);
    }

    #[test]
    fn close_is_idempotent() {
        let (client, _server) = test_pair();
        client.close();
        client.close();
        assert!(client.is_closed());
    }

    mod readiness {
        use super::*;
        use crate::poller::{Interest, Poller, Token};

        #[test]
        fn write_after_register_queues_a_readable_event() {
            let (client, server) = test_pair();
            let poller = Poller::new();
            server.register(&poller, Token(1), Interest::READABLE);
            assert!(poller.wait(Duration::from_millis(5)).is_empty());
            client.write(b"data").unwrap();
            let events = poller.wait(Duration::from_secs(1));
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, Token(1));
            assert!(events[0].readiness.readable);
        }

        #[test]
        fn register_is_level_triggered_for_buffered_data() {
            let (client, server) = test_pair();
            client.write(b"early").unwrap();
            let poller = Poller::new();
            server.register(&poller, Token(2), Interest::READABLE);
            let events = poller.wait(Duration::from_millis(50));
            assert_eq!(events.len(), 1, "pre-buffered data must queue an event");
            assert!(events[0].readiness.readable);
        }

        #[test]
        fn register_after_close_still_reports_eof() {
            let (client, server) = test_pair();
            client.close();
            let poller = Poller::new();
            server.register(&poller, Token(3), Interest::READABLE);
            let events = poller.wait(Duration::from_millis(50));
            assert_eq!(events.len(), 1);
            assert!(events[0].readiness.readable);
            assert!(events[0].readiness.closed);
        }

        #[test]
        fn close_wakes_a_registered_reader() {
            let (client, server) = test_pair();
            let poller = Poller::new();
            server.register(&poller, Token(4), Interest::READABLE);
            client.close();
            let events = poller.wait(Duration::from_secs(1));
            assert_eq!(events.len(), 1);
            assert!(events[0].readiness.closed);
        }

        #[test]
        fn deregister_stops_future_events() {
            let (client, server) = test_pair();
            let poller = Poller::new();
            server.register(&poller, Token(5), Interest::READABLE);
            server.deregister();
            client.write(b"unseen").unwrap();
            assert!(poller.wait(Duration::from_millis(20)).is_empty());
        }

        /// The one-poller rule is checked: an endpoint registered with one
        /// poller cannot register with another.
        #[cfg(debug_assertions)]
        #[test]
        #[should_panic(expected = "at most one poller")]
        fn registering_with_a_second_poller_is_refused() {
            let (_client, server) = test_pair();
            let (first, second) = (Poller::new(), Poller::new());
            server.register(&first, Token(8), Interest::BOTH);
            server.register(&second, Token(9), Interest::READABLE);
        }

        #[test]
        fn writable_interest_wakes_on_drain() {
            let (client, server) = pair(10, StackCosts::free(), None, 8);
            // Fill the pipe completely.
            assert_eq!(client.write(b"01234567").unwrap(), 8);
            let poller = Poller::new();
            client.register(&poller, Token(7), Interest::WRITABLE);
            // Full pipe: no writable event at registration time.
            assert!(poller.wait(Duration::from_millis(5)).is_empty());
            let mut buf = [0u8; 4];
            server.read(&mut buf).unwrap();
            let events = poller.wait(Duration::from_secs(1));
            assert_eq!(events.len(), 1);
            assert!(events[0].readiness.writable);
        }

        /// The edge-triggered half of the writable contract: draining a
        /// pipe that was never full is not a transition, so a registered
        /// writer is not woken — output tasks only pay wakeups when they
        /// were actually blocked.
        #[test]
        fn drain_of_an_unfilled_pipe_stays_silent_for_writable_interest() {
            let (client, server) = pair(12, StackCosts::free(), None, 64);
            let poller = Poller::new();
            client.register(&poller, Token(8), Interest::WRITABLE);
            // Room alone is not reported at registration.
            assert!(poller.wait(Duration::from_millis(20)).is_empty());
            client.write(b"abc").unwrap();
            let mut buf = [0u8; 8];
            server.read(&mut buf).unwrap();
            assert!(
                poller.wait(Duration::from_millis(20)).is_empty(),
                "draining a non-full pipe must not wake the writer"
            );
        }

        /// `read_into` fills the shared buffer in place and never records
        /// an ingest copy on the drain-between-fills path, even while a
        /// parsed message pins the previous chunk.
        #[test]
        fn read_into_fills_the_shared_buffer_without_copies() {
            let stats = NetStats::new_shared();
            let (client, server) = pair(13, StackCosts::free(), Some(Arc::clone(&stats)), 1024);
            let mut buf = crate::SharedBuf::new(64);
            assert_eq!(
                server.read_into(&mut buf, usize::MAX),
                Err(NetError::WouldBlock)
            );
            client.write(b"payload").unwrap();
            assert_eq!(server.read_into(&mut buf, usize::MAX).unwrap(), 7);
            assert_eq!(&buf.view()[..], b"payload");
            let pinned = buf.view();
            buf.consume(7);
            // A second roundtrip while a view pins the old chunk: the fill
            // switches chunks, but carries zero live bytes — no copy.
            client.write(b"more").unwrap();
            assert_eq!(server.read_into(&mut buf, usize::MAX).unwrap(), 4);
            assert_eq!(&buf.view()[..], b"more");
            assert_eq!(&pinned[..], b"payload");
            let snap = stats.snapshot();
            assert_eq!(snap.ingest_copies, 0, "no carries on this path");
        }

        /// Probing an idle connection allocates nothing; the first bytes
        /// allocate the one chunk.
        #[test]
        fn read_into_allocates_on_the_first_fill_only() {
            let (client, server) = test_pair();
            let mut buf = crate::SharedBuf::new(64);
            assert_eq!(
                server.read_into(&mut buf, usize::MAX),
                Err(NetError::WouldBlock)
            );
            assert_eq!(buf.capacity(), 0, "an idle probe leaves it unallocated");
            client.write(b"first").unwrap();
            assert_eq!(server.read_into(&mut buf, usize::MAX), Ok(5));
            assert_eq!(buf.capacity(), 4 * 64);
        }

        /// EOF while a view pins the chunk: `Closed`, without switching to
        /// a fresh chunk just to read it — on both transports.
        #[test]
        fn eof_on_a_shared_chunk_costs_no_allocation() {
            let stack = crate::TcpStack::new();
            let listener = stack.listen("127.0.0.1:0").unwrap();
            let tcp_client = stack
                .connect(&format!("127.0.0.1:{}", listener.port()))
                .unwrap();
            let tcp_server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
            let (sim_client, sim_server) = test_pair();
            for (client, server) in [(tcp_client, tcp_server), (sim_client, sim_server)] {
                let mut buf = crate::SharedBuf::new(64);
                client.write_all(b"last").unwrap();
                client.close();
                let deadline = Instant::now() + Duration::from_secs(5);
                while server.read_into(&mut buf, usize::MAX) == Err(NetError::WouldBlock) {
                    assert!(Instant::now() < deadline, "bytes never arrived");
                }
                let pinned = buf.view();
                buf.consume(pinned.len());
                let chunk = buf.view().as_ptr();
                let deadline = Instant::now() + Duration::from_secs(5);
                let eof = loop {
                    match server.read_into(&mut buf, usize::MAX) {
                        Err(NetError::WouldBlock) => {
                            assert!(Instant::now() < deadline, "EOF never observed")
                        }
                        other => break other,
                    }
                };
                assert_eq!(eof, Err(NetError::Closed));
                assert_eq!(buf.view().as_ptr(), chunk, "the same chunk");
                assert_eq!(&pinned[..], b"last");
            }
        }
    }
}
