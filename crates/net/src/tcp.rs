//! The OS socket transport: real TCP behind the readiness layer.
//!
//! Everything above the substrate — dispatchers, task graphs, shards —
//! speaks [`crate::Endpoint`] + [`crate::Poller`]. This module provides the
//! second implementation of that contract (DESIGN.md §10): nonblocking
//! `std::net` sockets registered in a per-poller [`OsReactor`] — an epoll
//! set (bound via the direct syscall bindings in `crate::sys`; no new
//! crates, per the offline shim policy of §7) that the thread calling
//! [`Poller::wait`] blocks on itself. Each shard's poller lazily owns its
//! own reactor (DESIGN.md §13), so the shard's dispatcher *is* its kernel
//! reactor: no thread stands between `epoll_wait` and the task wakeup, and
//! kernel event demultiplexing scales with the shard topology.
//!
//! The readiness contract matches the simulated sources exactly:
//!
//! * **Edge-triggered afterwards.** Sockets are registered `EPOLLET`; the
//!   kernel reports transitions, and consumers drain to
//!   [`NetError::WouldBlock`] — the invariant `crate::poller` already
//!   imposes.
//! * **Level-triggered at registration.** Adding a socket to the epoll
//!   set makes the kernel poll it, so data or a hang-up that arrived
//!   before [`TcpConn::register`] — while the socket sat unwatched in a
//!   back-end pool, say — is reported as any later transition, and
//!   nothing is posted for a socket that is not ready. Writable readiness
//!   is not reported at registration: nothing has been written on a
//!   fresh registration, so no writer waits for room.
//!   [`TcpListener::register`] posts one synthetic event (spurious
//!   events are allowed by the poller contract).
//! * **`EPOLLOUT` on demand.** A writer's entry asks for `EPOLLOUT` only
//!   after one of its writes returned `EAGAIN`, and the event that reports
//!   the space disarms it again, so a writable socket does not wake its
//!   writer with every readable event (DESIGN.md §13). Re-arming with
//!   `EPOLL_CTL_MOD` makes the kernel re-check readiness, so space freed
//!   before the arm is still reported.
//! * **One poller per socket.** A socket is registered with at most one
//!   poller at a time, and so lives in at most one reactor (debug-checked
//!   at registration). Registering a direction again on the same poller
//!   (from any clone) replaces the previous registration, as with
//!   [`crate::Endpoint`] pipes; moving to another poller takes a full
//!   deregistration first.
//!
//! Stats accounting mirrors the simulated substrate: every operation is
//! recorded in the stack's [`NetStats`]. No cost model is charged — the
//! real kernel already charges real costs; [`crate::StackModel`] is an
//! axis of the simulated network only.

use crate::error::NetError;
use crate::pipe::BodyPipe;
use crate::poller::{Interest, Poller, Readiness, Token};
use crate::stats::NetStats;
use crate::sys;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maps an `std::io` error onto the substrate error vocabulary.
fn map_io(err: std::io::Error) -> NetError {
    use std::io::ErrorKind;
    match err.kind() {
        ErrorKind::WouldBlock => NetError::WouldBlock,
        ErrorKind::BrokenPipe
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::NotConnected
        | ErrorKind::UnexpectedEof => NetError::Closed,
        ErrorKind::ConnectionRefused => NetError::ConnectionRefused,
        ErrorKind::AddrInUse => NetError::AddrInUse,
        ErrorKind::TimedOut => NetError::TimedOut,
        kind => NetError::Io(kind),
    }
}

/// The error for the most recent failed syscall.
pub(crate) fn last_os_error() -> NetError {
    map_io(std::io::Error::last_os_error())
}

/// Opens a nonblocking IPv4 listening socket with `SO_REUSEPORT` set
/// *before* bind — std's `TcpListener::bind` cannot do this, and the
/// option must be set pre-bind for the socket to join an accept-sharding
/// group on an already-bound port.
fn listen_reuseport(addr: SocketAddr) -> Result<std::net::TcpListener, NetError> {
    let SocketAddr::V4(v4) = addr else {
        return Err(NetError::Io(std::io::ErrorKind::Unsupported));
    };
    let fd = unsafe { sys::socket(sys::AF_INET, sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(last_os_error());
    }
    // Wrap immediately so every early return below releases the fd.
    use std::os::fd::FromRawFd;
    let socket = unsafe { std::net::TcpListener::from_raw_fd(fd) };
    let one: sys::c_int = 1;
    for opt in [sys::SO_REUSEADDR, sys::SO_REUSEPORT] {
        let rc = unsafe { sys::setsockopt(fd, sys::SOL_SOCKET, opt, &one, 4) };
        if rc != 0 {
            return Err(last_os_error());
        }
    }
    let raw = sys::sockaddr_in {
        sin_family: sys::AF_INET as u16,
        sin_port: v4.port().to_be(),
        sin_addr: u32::from(*v4.ip()).to_be(),
        sin_zero: [0; 8],
    };
    let rc = unsafe { sys::bind(fd, &raw, std::mem::size_of::<sys::sockaddr_in>() as u32) };
    if rc != 0 {
        return Err(last_os_error());
    }
    let rc = unsafe { sys::listen(fd, 1024) };
    if rc != 0 {
        return Err(last_os_error());
    }
    Ok(socket)
}

// ---------------------------------------------------------------------------
// OsReactor
// ---------------------------------------------------------------------------

/// How many kernel events one `epoll_wait` call drains per pass. The
/// batched-syscall contract (DESIGN.md §13): under load the waiter
/// amortizes one wait syscall over up to this many readiness transitions,
/// and the whole batch enters the poller's queue under one lock
/// acquisition.
pub(crate) const MAX_EVENTS: usize = 256;

/// Userdata value reserved for the reactor's self-pipe wake channel; never
/// collides with a socket entry because those pack the fd into the low
/// 32 bits and `-1` is not a valid descriptor.
const WAKE_TOKEN: u64 = u64::MAX;

/// Packs a registration generation and an fd into epoll userdata.
fn pack_userdata(gen: u32, fd: RawFd) -> u64 {
    ((gen as u64) << 32) | (fd as u32 as u64)
}

/// One socket's epoll registration: the token its events post and the
/// directions it watches. The runtime registers a connection once, under
/// its one task's id, for every direction the task uses it in.
struct Registration {
    /// Registration generation, packed into the epoll userdata. fd numbers
    /// recycle fast under accept churn, so a batch resolved after the fd
    /// was forgotten and a new socket re-added under the same number
    /// carries the old generation — those events are dropped rather than
    /// delivered to the new owner (a stale HUP would otherwise tear down a
    /// healthy connection).
    gen: u32,
    token: Token,
    interest: Interest,
    /// Whether the writer is waiting for send-buffer space: raised when a
    /// write returned `EAGAIN` ([`OsReactor::arm_writable`]), lowered by
    /// the event that reports the space ([`OsReactor::resolve_batch`]).
    /// `EPOLLOUT` is asked for only while it is up, because an edge-
    /// triggered entry reports its whole ready mask with every edge: a
    /// socket watched for `EPOLLOUT` and almost always writable would
    /// wake its writer with every readable event.
    write_armed: bool,
}

impl Registration {
    /// The epoll event mask the registration asks for.
    fn epoll_bits(&self) -> u32 {
        let mut bits = sys::EPOLLET | sys::EPOLLRDHUP;
        if self.interest.is_readable() {
            bits |= sys::EPOLLIN;
        }
        if self.interest.is_writable() && self.write_armed {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    /// Re-asks the kernel for this entry's current mask.
    fn modify(&self, epfd: RawFd, fd: RawFd) {
        let mut event = sys::epoll_event {
            events: self.epoll_bits(),
            u64: pack_userdata(self.gen, fd),
        };
        // SAFETY: a live event struct for an fd registered in `epfd`.
        unsafe { sys::epoll_ctl(epfd, sys::EPOLL_CTL_MOD, fd, &mut event) };
    }
}

/// A per-poller epoll set.
///
/// Each [`Poller`] — one per shard dispatcher — lazily creates its own
/// epoll instance, and the thread in [`Poller::wait`] blocks in
/// `epoll_wait` on it, so kernel event demultiplexing shards with the
/// runtime topology: a registration lives on the reactor of the one poller
/// that watches it, and a socket is registered here only while no other
/// reactor holds it. `epoll_ctl` is safe to call concurrently with
/// `epoll_wait`, so registration changes take effect immediately without
/// waking the waiter.
///
/// The descriptors close when the last `Arc` (the poller, or a socket
/// still registered here) goes away.
pub(crate) struct OsReactor {
    epfd: RawFd,
    /// Read end of the self-pipe, registered under [`WAKE_TOKEN`].
    wake_read: RawFd,
    /// Write end of the self-pipe; [`OsReactor::poke`] writes it.
    wake_write: RawFd,
    registrations: Mutex<HashMap<RawFd, Registration>>,
    /// Source of registration generations (see [`Registration::gen`]); per
    /// reactor, because userdata only has to be unique within one epoll
    /// instance.
    next_gen: AtomicU64,
}

impl OsReactor {
    /// Creates the epoll instance and its self-pipe.
    pub(crate) fn new() -> OsReactor {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        assert!(epfd >= 0, "epoll_create1 failed: errno {}", sys::errno());
        let mut pipe = [0 as sys::c_int; 2];
        let rc = unsafe { sys::pipe2(pipe.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        assert!(rc == 0, "pipe2 failed: errno {}", sys::errno());
        // Level-triggered on purpose: a poke that lands before the waiter
        // enters `epoll_wait` must still end that wait, with no edge to
        // miss.
        let mut event = sys::epoll_event {
            events: sys::EPOLLIN,
            u64: WAKE_TOKEN,
        };
        let rc = unsafe { sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, pipe[0], &mut event) };
        assert!(rc == 0, "registering the wake pipe: errno {}", sys::errno());
        OsReactor {
            epfd,
            wake_read: pipe[0],
            wake_write: pipe[1],
            registrations: Mutex::new(HashMap::new()),
            next_gen: AtomicU64::new(1),
        }
    }

    /// Ends the owning poller's current (or next) `epoll_wait`. The poller
    /// calls this under its state lock, once per raised `epoll_waiting`
    /// flag, so the pipe never holds more than one byte.
    pub(crate) fn poke(&self) {
        // SAFETY: a live one-byte buffer, length 1.
        unsafe { sys::write(self.wake_write, &1u8, 1) };
    }

    /// Takes the byte of the one [`OsReactor::poke`] that ended a wait.
    pub(crate) fn drain_wake_pipe(&self) {
        let mut byte = 0u8;
        // SAFETY: a live one-byte buffer, length 1.
        unsafe { sys::read(self.wake_read, &mut byte, 1) };
    }

    /// Blocks the calling thread in one `epoll_wait` for up to `timeout`
    /// and resolves the batch into the (token, readiness) posts it implies
    /// for the owning poller. Empty on a timeout, a poke or `EINTR`; the
    /// caller re-checks its deadline.
    pub(crate) fn wait(&self, timeout: Duration) -> Vec<(Token, Readiness)> {
        let mut events = [sys::epoll_event { events: 0, u64: 0 }; MAX_EVENTS];
        // Rounded *up*: a sub-millisecond remainder must sleep, not turn
        // into a zero-timeout spin until the deadline passes.
        let millis = timeout.as_nanos().div_ceil(1_000_000);
        let millis = millis.min(sys::c_int::MAX as u128) as sys::c_int;
        // SAFETY: `events` is live and holds the `MAX_EVENTS` slots passed.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                MAX_EVENTS as sys::c_int,
                millis,
            )
        };
        if n <= 0 {
            // Anything but EINTR means the epoll fd itself is broken.
            let errno = sys::errno();
            assert!(n == 0 || errno == sys::EINTR, "epoll_wait: errno {errno}");
            return Vec::new();
        }
        self.resolve_batch(&events[..n as usize])
    }

    /// Resolves one `epoll_wait` batch into the posts it implies. Slots
    /// are resolved under the registration lock, but the posts are queued
    /// by the caller outside it, so a concurrent register/deregister never
    /// waits behind the poller's state lock.
    ///
    /// Stale entries are dropped here: an event whose packed generation no
    /// longer matches the live registration raced a close — the fd was
    /// forgotten and the number recycled while the batch was in flight —
    /// and must not wake the new owner with the old socket's state.
    ///
    /// An `EPOLLOUT` event disarms its entry's write interest (one-shot):
    /// the writer it wakes re-arms it if it meets `EAGAIN` again.
    fn resolve_batch(&self, batch: &[sys::epoll_event]) -> Vec<(Token, Readiness)> {
        let mut wakes: Vec<(Token, Readiness)> = Vec::with_capacity(batch.len());
        let mut registrations = self.registrations.lock();
        for event in batch {
            let user = event.u64;
            if user == WAKE_TOKEN {
                continue;
            }
            let fd = (user & 0xFFFF_FFFF) as u32 as RawFd;
            let gen = (user >> 32) as u32;
            let Some(entry) = registrations.get_mut(&fd) else {
                continue; // Deregistered while the event was in flight.
            };
            if entry.gen != gen {
                continue; // Recycled fd; the event belongs to a dead socket.
            }
            let bits = event.events;
            if bits & sys::EPOLLOUT != 0 && entry.write_armed {
                entry.write_armed = false;
                entry.modify(self.epfd, fd);
            }
            // A close is both directions' news (a parked writer must fail
            // fast, a reader must observe EOF); an ordinary transition is
            // only its own direction's.
            let hangup = sys::EPOLLHUP | sys::EPOLLERR;
            let readiness = Readiness {
                readable: entry.interest.is_readable()
                    && bits & (sys::EPOLLIN | sys::EPOLLRDHUP | hangup) != 0,
                writable: entry.interest.is_writable() && bits & (sys::EPOLLOUT | hangup) != 0,
                closed: bits & (sys::EPOLLRDHUP | hangup) != 0,
            };
            if readiness.readable || readiness.writable {
                wakes.push((entry.token, readiness));
            }
        }
        wakes
    }

    /// Installs (or replaces) `fd`'s registration: events in the
    /// direction(s) of `interest` post `token` into the owning poller
    /// until the socket is forgotten. Adding (or modifying) an entry makes
    /// the kernel poll the socket, so a socket that is already readable —
    /// bytes or a hang-up that came while it sat unwatched — reports it at
    /// once, as any later transition.
    fn register(&self, fd: RawFd, token: Token, interest: Interest) {
        let mut registrations = self.registrations.lock();
        let op = if registrations.contains_key(&fd) {
            sys::EPOLL_CTL_MOD
        } else {
            sys::EPOLL_CTL_ADD
        };
        let entry = registrations.entry(fd).or_insert_with(|| Registration {
            gen: self.next_gen.fetch_add(1, Ordering::Relaxed) as u32,
            token,
            interest,
            write_armed: false,
        });
        entry.token = token;
        entry.interest = interest;
        let mut event = sys::epoll_event {
            events: entry.epoll_bits(),
            u64: pack_userdata(entry.gen, fd),
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) };
        // A failed registration (max_user_watches exhausted, ENOMEM) must
        // be loud: recording it anyway would stall the connection forever
        // — a silent lost wakeup, the one failure mode this layer exists
        // to rule out.
        assert!(
            rc == 0,
            "epoll_ctl({op}) for fd {fd} failed: errno {}",
            sys::errno()
        );
    }

    /// Asks for `fd`'s next `EPOLLOUT`: a write to it returned `EAGAIN`.
    /// `EPOLL_CTL_MOD` makes the kernel re-check the socket's readiness,
    /// so space that freed up between the `EAGAIN` and this call is still
    /// reported. A no-op while armed, or when no writer watches `fd`.
    fn arm_writable(&self, fd: RawFd) {
        let mut registrations = self.registrations.lock();
        if let Some(entry) = registrations.get_mut(&fd) {
            if entry.interest.is_writable() && !entry.write_armed {
                entry.write_armed = true;
                entry.modify(self.epfd, fd);
            }
        }
    }

    /// Removes `fd`'s registration, if any: the socket was deregistered or
    /// tears down. The kernel drops the epoll entry itself when the
    /// descriptor closes; this keeps the table from retaining a dead
    /// socket's token, and removing the entry *before* the descriptor
    /// closes is what arms the generation guard: any in-flight batch now
    /// misses the map (or, after a re-add recycles the fd, mismatches the
    /// generation) instead of waking the wrong owner.
    fn forget(&self, fd: RawFd) {
        if self.registrations.lock().remove(&fd).is_some() {
            let mut event = sys::epoll_event { events: 0, u64: 0 };
            unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut event) };
        }
    }
}

impl Drop for OsReactor {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
            sys::close(self.wake_read);
            sys::close(self.wake_write);
        }
    }
}

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

/// The OS-socket counterpart of [`crate::SimNetwork`]: owns the stats
/// block shared by every socket it opens.
pub struct TcpStack {
    stats: Arc<NetStats>,
    next_conn_id: AtomicU64,
}

impl std::fmt::Debug for TcpStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStack").finish_non_exhaustive()
    }
}

impl TcpStack {
    /// Creates a stack with fresh stats counters.
    pub fn new() -> Arc<Self> {
        Arc::new(TcpStack {
            stats: NetStats::new_shared(),
            next_conn_id: AtomicU64::new(1),
        })
    }

    /// The stack-wide statistics counters (same vocabulary as
    /// [`crate::SimNetwork::stats`], so idle-scan assertions carry over).
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Binds a listening socket. `addr` is a standard socket address;
    /// `127.0.0.1:0` asks the OS for an ephemeral port (read it back with
    /// [`TcpListener::port`]).
    pub fn listen(self: &Arc<Self>, addr: &str) -> Result<TcpListener, NetError> {
        let listener = std::net::TcpListener::bind(addr).map_err(map_io)?;
        self.wrap_listener(listener)
    }

    /// Binds `count` listening sockets to the same address with
    /// `SO_REUSEPORT` — one accept queue per shard. The kernel hashes
    /// incoming connections across the group, so shards accept in
    /// parallel with no shared accept lock and no cross-shard handoff
    /// (DESIGN.md §13). A `:0` bind resolves the ephemeral port on the
    /// first socket and the rest join it.
    pub fn listen_group(
        self: &Arc<Self>,
        addr: &str,
        count: usize,
    ) -> Result<Vec<TcpListener>, NetError> {
        assert!(count > 0, "listen_group needs at least one listener");
        let mut target: SocketAddr = addr
            .to_socket_addrs()
            .map_err(map_io)?
            .find(|a| a.is_ipv4())
            .ok_or(NetError::Io(std::io::ErrorKind::Unsupported))?;
        let mut group = Vec::with_capacity(count);
        for _ in 0..count {
            let listener = self.wrap_listener(listen_reuseport(target)?)?;
            if target.port() == 0 {
                target.set_port(listener.port());
            }
            group.push(listener);
        }
        Ok(group)
    }

    fn wrap_listener(
        self: &Arc<Self>,
        listener: std::net::TcpListener,
    ) -> Result<TcpListener, NetError> {
        listener.set_nonblocking(true).map_err(map_io)?;
        let local_addr = listener.local_addr().map_err(map_io)?;
        Ok(TcpListener {
            inner: Arc::new(TcpListenerInner {
                socket: Mutex::new(Some(listener)),
                local_addr,
                closed: AtomicBool::new(false),
                stack: Arc::clone(self),
                reactor: Mutex::new(None),
            }),
        })
    }

    /// Establishes a connection to `addr` and returns the client endpoint.
    pub fn connect(self: &Arc<Self>, addr: &str) -> Result<crate::Endpoint, NetError> {
        let addr: SocketAddr = addr
            .to_socket_addrs()
            .map_err(map_io)?
            .next()
            .ok_or(NetError::ConnectionRefused)?;
        let stream = TcpStream::connect(addr).map_err(map_io)?;
        self.stats.record_open();
        Ok(crate::Endpoint::from_tcp(
            self.wrap(stream, crate::conn::Side::Client)?,
        ))
    }

    /// Wraps an accepted/connected stream into a [`TcpConn`].
    fn wrap(
        self: &Arc<Self>,
        stream: TcpStream,
        side: crate::conn::Side,
    ) -> Result<TcpConn, NetError> {
        stream.set_nonblocking(true).map_err(map_io)?;
        let _ = stream.set_nodelay(true);
        Ok(TcpConn {
            inner: Arc::new(TcpConnInner {
                stream,
                id: self.next_conn_id.fetch_add(1, Ordering::Relaxed),
                side,
                stats: Arc::clone(&self.stats),
                closed: AtomicBool::new(false),
                reactor: Mutex::new(None),
            }),
        })
    }
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

struct TcpListenerInner {
    /// `None` after [`TcpListener::close`]; dropping the socket releases
    /// the port and makes the kernel refuse new connections.
    socket: Mutex<Option<std::net::TcpListener>>,
    local_addr: SocketAddr,
    closed: AtomicBool,
    stack: Arc<TcpStack>,
    /// The reactor of the one poller watching this listener, if any.
    reactor: Mutex<Option<Arc<OsReactor>>>,
}

/// A listening OS socket, API-compatible with [`crate::SimListener`].
#[derive(Clone)]
pub struct TcpListener {
    inner: Arc<TcpListenerInner>,
}

impl std::fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpListener")
            .field("addr", &self.inner.local_addr)
            .finish()
    }
}

impl TcpListener {
    /// The port the listener is bound to (resolved, so a `:0` bind reports
    /// the ephemeral port the OS picked).
    pub fn port(&self) -> u16 {
        self.inner.local_addr.port()
    }

    /// The full local socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    fn raw_fd(&self) -> Option<RawFd> {
        self.inner.socket.lock().as_ref().map(|s| s.as_raw_fd())
    }

    /// Accepts a pending connection without blocking.
    pub fn try_accept(&self) -> Result<crate::Endpoint, NetError> {
        let socket = self.inner.socket.lock();
        let Some(listener) = socket.as_ref() else {
            return Err(NetError::ListenerClosed);
        };
        match listener.accept() {
            Ok((stream, _peer)) => {
                drop(socket);
                self.inner.stack.stats.record_open();
                let conn = self.inner.stack.wrap(stream, crate::conn::Side::Server)?;
                Ok(crate::Endpoint::from_tcp(conn))
            }
            Err(e) => {
                // fd/buffer exhaustion is retryable, not fatal: surface it
                // as the distinct `Resources` signal so accept loops back
                // off instead of dying (`map_io` would fold these errnos
                // into an opaque `Io(...)`).
                if matches!(
                    e.raw_os_error(),
                    Some(sys::EMFILE | sys::ENFILE | sys::ENOBUFS | sys::ENOMEM)
                ) {
                    return Err(NetError::Resources);
                }
                Err(map_io(e))
            }
        }
    }

    /// Accepts a pending connection, blocking up to `timeout` (client/test
    /// helper; dispatchers always use [`TcpListener::try_accept`]).
    pub fn accept_timeout(&self, timeout: Duration) -> Result<crate::Endpoint, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_accept() {
                Err(NetError::WouldBlock) => {
                    let Some(fd) = self.raw_fd() else {
                        return Err(NetError::ListenerClosed);
                    };
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::TimedOut);
                    }
                    sys::wait_ready(fd, sys::POLLIN, deadline - now);
                }
                other => return other,
            }
        }
    }

    /// Registers this listener with `poller`: every new pending connection
    /// enqueues `token` as a readable event. Level-triggered at the moment
    /// of the call via a synthetic post (spurious events are allowed).
    /// Registering again replaces the registration; a listener watched by
    /// another poller must be deregistered first.
    pub fn register(&self, poller: &Poller, token: Token) {
        if let Some(fd) = self.raw_fd() {
            let reactor = poller.os_reactor();
            let mut tracked = self.inner.reactor.lock();
            claim(&mut tracked, reactor);
            reactor.register(fd, token, Interest::READABLE);
            drop(tracked);
            poller.post(token, Readiness::readable());
        } else {
            poller.post(token, Readiness::readable().with_closed());
        }
    }

    /// Removes this listener's registration, if any.
    pub fn deregister(&self) {
        let mut tracked = self.inner.reactor.lock();
        if let (Some(fd), Some(reactor)) = (self.raw_fd(), tracked.take()) {
            reactor.forget(fd);
        }
    }

    /// Closes the listener: the port is released and pending/future
    /// accepts fail with [`NetError::ListenerClosed`].
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
        let socket = self.inner.socket.lock().take();
        if let Some(socket) = socket {
            if let Some(reactor) = self.inner.reactor.lock().take() {
                reactor.forget(socket.as_raw_fd());
            }
        }
    }

    /// Returns `true` after the listener was closed.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }
}

impl Drop for TcpListenerInner {
    fn drop(&mut self) {
        if let Some(socket) = self.socket.get_mut().take() {
            if let Some(reactor) = self.reactor.get_mut().take() {
                reactor.forget(socket.as_raw_fd());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TcpConn
// ---------------------------------------------------------------------------

struct TcpConnInner {
    stream: TcpStream,
    id: u64,
    side: crate::conn::Side,
    stats: Arc<NetStats>,
    closed: AtomicBool,
    /// The reactor of the one poller watching either direction, if any;
    /// cleared when the last direction is deregistered.
    reactor: Mutex<Option<Arc<OsReactor>>>,
}

impl Drop for TcpConnInner {
    fn drop(&mut self) {
        if let Some(reactor) = self.reactor.get_mut().take() {
            reactor.forget(self.stream.as_raw_fd());
        }
    }
}

/// Records `reactor` as the one watching a socket. The one-poller rule: a
/// socket still registered with another poller's reactor must be
/// deregistered before it registers here.
fn claim(tracked: &mut Option<Arc<OsReactor>>, reactor: &Arc<OsReactor>) {
    debug_assert!(
        tracked.as_ref().map_or(true, |r| Arc::ptr_eq(r, reactor)),
        "a socket is registered with at most one poller"
    );
    *tracked = Some(Arc::clone(reactor));
}

/// One end of an OS TCP connection, implementing the same non-blocking +
/// readiness contract as the simulated [`crate::Endpoint`] pipes. Cheap to
/// clone; clones share the socket, as duplicated fd handles would.
#[derive(Clone)]
pub struct TcpConn {
    inner: Arc<TcpConnInner>,
}

impl std::fmt::Debug for TcpConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpConn")
            .field("id", &self.inner.id)
            .field("side", &self.inner.side)
            .finish()
    }
}

impl TcpConn {
    fn fd(&self) -> RawFd {
        self.inner.stream.as_raw_fd()
    }

    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    pub(crate) fn side(&self) -> crate::conn::Side {
        self.inner.side
    }

    pub(crate) fn write(&self, data: &[u8]) -> Result<usize, NetError> {
        if data.is_empty() {
            return Ok(0);
        }
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        loop {
            match (&self.inner.stream).write(data) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => {
                    self.inner.stats.record_write(n);
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.blocked(map_io(e))),
            }
        }
    }

    /// A write failed with `err`: on `EAGAIN` the writer now waits for
    /// space, so its reactor is asked for the next `EPOLLOUT`.
    fn blocked(&self, err: NetError) -> NetError {
        if err == NetError::WouldBlock {
            if let Some(reactor) = self.inner.reactor.lock().as_ref() {
                reactor.arm_writable(self.fd());
            }
        }
        err
    }

    /// Writes the segments in `bufs` with one `writev(2)` call — a
    /// header+body response leaves in a single syscall without
    /// concatenating into a staging buffer, preserving the zero-copy laws
    /// (the body `Bytes` is handed to the kernel where it sits). Same
    /// contract as [`TcpConn::write`]: returns the bytes the kernel took,
    /// possibly a prefix.
    pub(crate) fn write_vectored(&self, bufs: &[&[u8]]) -> Result<usize, NetError> {
        let iov: Vec<sys::iovec> = bufs
            .iter()
            .filter(|buf| !buf.is_empty())
            .map(|buf| sys::iovec {
                iov_base: buf.as_ptr(),
                iov_len: buf.len(),
            })
            .collect();
        if iov.is_empty() {
            return Ok(0);
        }
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        loop {
            let rc = unsafe { sys::writev(self.fd(), iov.as_ptr(), iov.len() as sys::c_int) };
            if rc > 0 {
                let n = rc as usize;
                self.inner.stats.record_write(n);
                self.inner.stats.record_vectored(iov.len());
                return Ok(n);
            }
            if rc == 0 {
                return Err(NetError::Closed);
            }
            if sys::errno() != sys::EINTR {
                return Err(self.blocked(last_os_error()));
            }
        }
    }

    pub(crate) fn write_all(&self, mut data: &[u8]) -> Result<(), NetError> {
        while !data.is_empty() {
            match self.write(data) {
                Ok(n) => data = &data[n..],
                Err(NetError::WouldBlock) => {
                    sys::wait_ready(self.fd(), sys::POLLOUT, Duration::from_millis(100));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Splices up to `max` bytes from this socket into `pipe`. EOF is
    /// [`NetError::Closed`]; a full pipe and an empty socket are both
    /// [`NetError::WouldBlock`].
    pub(crate) fn fill_pipe(&self, pipe: &BodyPipe, max: usize) -> Result<usize, NetError> {
        match self.splice(self.fd(), pipe.write_fd(), max)? {
            0 => Err(NetError::Closed),
            n => Ok(n),
        }
    }

    /// Splices up to `max` bytes from `pipe` into this socket. An empty
    /// pipe and a full socket are both [`NetError::WouldBlock`].
    pub(crate) fn drain_pipe(&self, pipe: &BodyPipe, max: usize) -> Result<usize, NetError> {
        debug_assert!(pipe.spill().is_empty(), "a spliced pipe never spills");
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        match self.splice(pipe.read_fd(), self.fd(), max) {
            // Our pipe keeps its write end open, so 0 is an empty pipe.
            Ok(0) => Err(NetError::WouldBlock),
            Ok(n) => Ok(n),
            // `EAGAIN` is a full socket only while the pipe holds bytes; a
            // dry pipe waits for its producer, not for `EPOLLOUT`.
            Err(NetError::WouldBlock) if pipe.queued() > 0 => {
                Err(self.blocked(NetError::WouldBlock))
            }
            Err(err) => Err(err),
        }
    }

    fn splice(&self, from: RawFd, to: RawFd, max: usize) -> Result<usize, NetError> {
        if max == 0 {
            return Ok(0);
        }
        loop {
            // SAFETY: both descriptors are live for the call; null offsets
            // mean "the descriptors' own positions", as pipes and sockets
            // require.
            let rc = unsafe {
                sys::splice(
                    from,
                    std::ptr::null_mut(),
                    to,
                    std::ptr::null_mut(),
                    max,
                    sys::SPLICE_F_MOVE | sys::SPLICE_F_NONBLOCK,
                )
            };
            if rc >= 0 {
                self.inner.stats.record_splice(rc as usize);
                return Ok(rc as usize);
            }
            if sys::errno() != sys::EINTR {
                return Err(last_os_error());
            }
        }
    }

    pub(crate) fn read(&self, buf: &mut [u8]) -> Result<usize, NetError> {
        loop {
            match (&self.inner.stream).read(buf) {
                Ok(0) if !buf.is_empty() => return Err(NetError::Closed),
                Ok(n) => {
                    self.inner.stats.record_read(n);
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(map_io(e)),
            }
        }
    }

    pub(crate) fn read_timeout(
        &self,
        buf: &mut [u8],
        timeout: Duration,
    ) -> Result<usize, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.read(buf) {
                Err(NetError::WouldBlock) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::TimedOut);
                    }
                    sys::wait_ready(self.fd(), sys::POLLIN, deadline - now);
                }
                other => return other,
            }
        }
    }

    /// `true` if a write could make progress: kernel send-buffer space
    /// (`POLLOUT` with a zero timeout) or a fail-fast close, as on the
    /// simulated pipes.
    pub(crate) fn writable(&self) -> bool {
        self.inner.stats.record_writable_poll();
        if self.inner.closed.load(Ordering::Acquire) {
            return true;
        }
        sys::wait_ready(self.fd(), sys::POLLOUT, Duration::ZERO)
    }

    pub(crate) fn stats(&self) -> &Arc<NetStats> {
        &self.inner.stats
    }

    pub(crate) fn pending(&self) -> usize {
        let mut available: sys::c_int = 0;
        let rc = unsafe { sys::ioctl(self.fd(), sys::FIONREAD, &mut available) };
        if rc == 0 {
            available.max(0) as usize
        } else {
            0
        }
    }

    /// Probes the socket without consuming data (`recv(MSG_PEEK)`): EOF or
    /// a hard error (e.g. ECONNRESET) means the peer is gone — matching
    /// the sim transport, where a dead peer reports `peer_closed`. Only
    /// EAGAIN means "nothing yet".
    pub(crate) fn peer_closed(&self) -> bool {
        let mut probe = 0u8;
        // SAFETY: `probe` is a live one-byte buffer and the length passed is 1.
        let rc = unsafe { sys::recv(self.fd(), &mut probe, 1, sys::MSG_PEEK | sys::MSG_DONTWAIT) };
        rc == 0 || (rc < 0 && sys::errno() != sys::EAGAIN)
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// One peek: open, not peer-closed, nothing pending — only EAGAIN.
    pub(crate) fn is_idle(&self) -> bool {
        if self.is_closed() {
            return false;
        }
        let mut probe = 0u8;
        // SAFETY: `probe` is a live one-byte buffer and the length passed is 1.
        let rc = unsafe { sys::recv(self.fd(), &mut probe, 1, sys::MSG_PEEK | sys::MSG_DONTWAIT) };
        rc < 0 && sys::errno() == sys::EAGAIN
    }

    /// Watches the socket. No event is posted here: the kernel reports a
    /// socket that is already readable when it is added, and a fresh
    /// registration has written nothing, so no writer waits for room.
    pub(crate) fn register(&self, poller: &Poller, token: Token, interest: Interest) {
        let reactor = poller.os_reactor();
        let mut tracked = self.inner.reactor.lock();
        claim(&mut tracked, reactor);
        reactor.register(self.fd(), token, interest);
    }

    /// Forgets the registration; the socket is then free to register with
    /// any poller.
    pub(crate) fn deregister(&self) {
        if let Some(reactor) = self.inner.reactor.lock().take() {
            reactor.forget(self.fd());
        }
    }

    /// Shuts the socket down both ways. Its registration stays until it is
    /// deregistered or the socket drops, so the kernel's hang-up event
    /// reaches this end's own watchers, as a sim close does; the
    /// descriptor closes only when the last clone drops, which forgets the
    /// registration first (the stale-generation guard).
    pub(crate) fn close(&self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = self.inner.stream.shutdown(std::net::Shutdown::Both);
        self.inner.stats.record_close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Endpoint;

    fn stack() -> Arc<TcpStack> {
        TcpStack::new()
    }

    fn local(port: u16) -> String {
        format!("127.0.0.1:{port}")
    }

    fn pair(stack: &Arc<TcpStack>) -> (TcpListener, Endpoint, Endpoint) {
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let client = stack.connect(&local(listener.port())).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        (listener, client, server)
    }

    #[test]
    fn connect_accept_roundtrip() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        client.write_all(b"over the wire").unwrap();
        let mut buf = [0u8; 32];
        let n = server
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..n], b"over the wire");
        assert_eq!(stack.stats().snapshot().connections_opened, 2);
    }

    #[test]
    fn empty_read_would_block_and_close_gives_eof() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf), Err(NetError::WouldBlock));
        client.write(b"bye").unwrap();
        client.close();
        let mut seen = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match server.read(&mut buf) {
                Ok(n) => seen.extend_from_slice(&buf[..n]),
                Err(NetError::WouldBlock) => {
                    assert!(Instant::now() < deadline, "EOF never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(NetError::Closed) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(seen, b"bye");
    }

    /// The one-peek probe a parked connection must pass to be reused.
    #[test]
    fn idle_means_open_with_nothing_pending() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        assert!(client.is_idle());
        server.write_all(b"x").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.is_idle() {
            assert!(Instant::now() < deadline, "pending byte never seen");
            std::thread::sleep(Duration::from_millis(1));
        }
        client
            .read_timeout(&mut [0u8; 1], Duration::from_secs(5))
            .unwrap();
        assert!(client.is_idle());
        server.close();
        while client.is_idle() {
            assert!(Instant::now() < deadline, "peer close never seen");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn registered_conn_gets_readable_events() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        let poller = Poller::new();
        server.register(&poller, Token(1), Interest::READABLE);
        assert!(
            poller.wait(Duration::from_millis(50)).is_empty(),
            "an idle socket's registration posts nothing"
        );
        client.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let events = poller.wait(Duration::from_millis(100));
            if events
                .iter()
                .any(|e| e.token == Token(1) && e.readiness.readable)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "no readable event for real bytes"
            );
        }
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);
    }

    /// A connected kernel socket wrapped directly, so a test can read the
    /// module-private registration state; the peer end comes with it.
    fn raw_pair(stack: &Arc<TcpStack>) -> (TcpConn, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        (stack.wrap(stream, crate::conn::Side::Client).unwrap(), peer)
    }

    /// A socket leaves its reactor when it is deregistered, every
    /// direction at once, and may then move to another poller, which alone
    /// sees it after the move. Registering an idle socket posts nothing.
    #[test]
    fn a_socket_leaves_its_reactor_with_its_last_direction() {
        let stack = stack();
        let (conn, mut peer) = raw_pair(&stack);
        let (old, new) = (Poller::new(), Poller::new());
        conn.register(&old, Token(1), Interest::BOTH);
        assert!(old.wait(Duration::from_millis(20)).is_empty());
        conn.deregister();
        assert!(conn.inner.reactor.lock().is_none());
        conn.register(&new, Token(2), Interest::READABLE);
        peer.write_all(b"moved").unwrap();
        let events = new.wait(Duration::from_secs(5));
        assert!(events
            .iter()
            .any(|e| e.token == Token(2) && e.readiness.readable));
        assert!(old.wait(Duration::from_millis(20)).is_empty());
    }

    /// Bytes that arrived before the registration are reported by it,
    /// once, with both directions under the one token.
    #[test]
    fn registration_reports_bytes_that_came_first() {
        let stack = stack();
        let (conn, mut peer) = raw_pair(&stack);
        peer.write_all(b"early").unwrap();
        while conn.is_idle() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let poller = Poller::new();
        conn.register(&poller, Token(3), Interest::BOTH);
        let events = poller.wait(Duration::from_secs(5));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(3));
        assert!(events[0].readiness.readable && !events[0].readiness.writable);
        assert!(poller.wait(Duration::from_millis(20)).is_empty());
    }

    /// The one-poller rule is checked on sockets too.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "at most one poller")]
    fn registering_a_socket_with_a_second_poller_is_refused() {
        let stack = stack();
        let (conn, _peer) = raw_pair(&stack);
        let (first, second) = (Poller::new(), Poller::new());
        conn.register(&first, Token(1), Interest::BOTH);
        conn.register(&second, Token(2), Interest::READABLE);
    }

    #[test]
    fn listener_registration_posts_accept_events() {
        let stack = stack();
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let poller = Poller::new();
        listener.register(&poller, Token(9));
        let _ = poller.wait(Duration::from_millis(50)); // synthetic level-trigger
        let _client = stack.connect(&local(listener.port())).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let events = poller.wait(Duration::from_millis(100));
            if events.iter().any(|e| e.token == Token(9)) {
                break;
            }
            assert!(Instant::now() < deadline, "no accept event");
        }
        assert!(listener.try_accept().is_ok());
    }

    #[test]
    fn closed_listener_refuses_and_releases_the_port() {
        let stack = stack();
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let port = listener.port();
        listener.close();
        assert!(listener.is_closed());
        assert_eq!(
            listener.try_accept().map(|_| ()),
            Err(NetError::ListenerClosed)
        );
        // The port can be bound again.
        let _second = stack.listen(&local(port)).unwrap();
    }

    /// The stale-token guard, deterministically: an epoll event carrying a
    /// generation that no longer matches the live registration (the fd was
    /// recycled while the batch was in flight) must resolve to no wakes —
    /// a stale HUP would otherwise tear down the recycled fd's healthy new
    /// connection.
    #[test]
    fn stale_generation_events_resolve_to_no_wakes() {
        let stack = stack();
        let (_listener, _client, server_ep) = pair(&stack);
        // Reach the raw conn via a fresh wrap of a second socket so the
        // module-private fields are accessible.
        drop(server_ep);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = stack.wrap(stream, crate::conn::Side::Client).unwrap();
        let poller = Poller::new();
        conn.register(&poller, Token(7), Interest::READABLE);
        let reactor = poller.os_reactor();
        let gen = reactor.registrations.lock().get(&conn.fd()).unwrap().gen;
        let live = sys::epoll_event {
            events: sys::EPOLLIN,
            u64: pack_userdata(gen, conn.fd()),
        };
        let stale = sys::epoll_event {
            events: sys::EPOLLIN | sys::EPOLLHUP,
            u64: pack_userdata(gen.wrapping_add(1), conn.fd()),
        };
        assert!(
            reactor.resolve_batch(&[stale]).is_empty(),
            "stale-generation event must be dropped"
        );
        let wakes = reactor.resolve_batch(&[live]);
        assert_eq!(wakes.len(), 1);
        assert!(wakes[0].1.readable && !wakes[0].1.closed);
    }

    #[test]
    fn listen_group_shares_one_port_across_sockets() {
        let stack = stack();
        let group = stack.listen_group("127.0.0.1:0", 2).unwrap();
        assert_eq!(group[0].port(), group[1].port());
        let clients: Vec<_> = (0..8)
            .map(|_| stack.connect(&local(group[0].port())).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut served = Vec::new();
        while served.len() < clients.len() {
            assert!(Instant::now() < deadline, "accepts never arrived");
            for listener in &group {
                match listener.try_accept() {
                    Ok(conn) => served.push(conn),
                    Err(NetError::WouldBlock) => {}
                    Err(e) => panic!("unexpected accept error: {e}"),
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn vectored_write_lands_as_one_contiguous_stream() {
        let stack = stack();
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(("127.0.0.1", listener.port())).unwrap();
        let client = stack.wrap(stream, crate::conn::Side::Client).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        let n = client
            .write_vectored(&[b"HTTP/1.1 200 OK\r\n\r\n", b"hello body"])
            .unwrap();
        assert_eq!(n, 29);
        let mut buf = [0u8; 64];
        let mut seen = Vec::new();
        while seen.len() < n {
            let got = server
                .read_timeout(&mut buf, Duration::from_secs(5))
                .unwrap();
            seen.extend_from_slice(&buf[..got]);
        }
        assert_eq!(&seen, b"HTTP/1.1 200 OK\r\n\r\nhello body");
        let snap = stack.stats().snapshot();
        assert_eq!(snap.vectored_writes, 1);
        assert_eq!(snap.vectored_segments, 2);
    }

    /// The dispatcher-is-the-reactor wake protocol (DESIGN.md §13): each
    /// test has its waiter blocked in `epoll_wait` inside `Poller::wait`
    /// and ends that wait from another thread.
    mod epoll_waiter {
        use super::*;
        use std::sync::mpsc;

        const ROUNDS: u64 = 10_000;
        /// Loose on purpose: a lost wake shows as the full 10 s timeout.
        const PROMPT: Duration = Duration::from_millis(500);

        /// A connected kernel pair whose idle server end is registered
        /// under `Token(1)` on a fresh poller — which therefore owns a
        /// reactor.
        fn kernel_poller(stack: &Arc<TcpStack>) -> (Poller, TcpListener, Endpoint, Endpoint) {
            let (listener, client, server) = pair(stack);
            let poller = Poller::new();
            server.register(&poller, Token(1), Interest::READABLE);
            (poller, listener, client, server)
        }

        /// Returns once the waiter has raised `epoll_waiting`, so the wake
        /// that follows has to take the self-pipe path.
        fn until_in_epoll_wait(poller: &Poller) -> Instant {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !poller.in_epoll_wait() {
                assert!(Instant::now() < deadline, "waiter never reached epoll_wait");
                std::thread::yield_now();
            }
            Instant::now()
        }

        fn drain_one_byte(endpoint: &Endpoint) {
            let mut buf = [0u8; 8];
            assert_eq!(endpoint.read(&mut buf), Ok(1));
            assert_eq!(endpoint.read(&mut buf), Err(NetError::WouldBlock));
        }

        #[test]
        fn post_and_wake_end_an_epoll_wait_promptly() {
            let stack = stack();
            let (poller, _listener, _client, _server) = kernel_poller(&stack);
            for post in [true, false] {
                std::thread::scope(|scope| {
                    let waker = scope.spawn(|| {
                        let sent = until_in_epoll_wait(&poller);
                        if post {
                            poller.post(Token(42), Readiness::readable());
                        } else {
                            poller.wake();
                        }
                        sent
                    });
                    let events = poller.wait(Duration::from_secs(10));
                    let latency = waker.join().unwrap().elapsed();
                    let tokens: Vec<Token> = events.iter().map(|e| e.token).collect();
                    assert_eq!(tokens, if post { vec![Token(42)] } else { vec![] });
                    assert!(latency < PROMPT, "post={post} took {latency:?}");
                });
            }
        }

        /// Ping-pong, so every post races the waiter's way into
        /// `epoll_wait`: it lands before the queue check, or after the
        /// flag is up — a post that fell in between would time the round
        /// out.
        #[test]
        fn post_wait_stress_loses_no_round() {
            let stack = stack();
            let (poller, _listener, _client, _server) = kernel_poller(&stack);
            let (ack, acked) = mpsc::channel();
            std::thread::scope(|scope| {
                let poller = &poller;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        poller.post(Token(100 + round), Readiness::readable());
                        acked.recv().unwrap();
                    }
                });
                for round in 0..ROUNDS {
                    let events = poller.wait(Duration::from_secs(10));
                    let tokens: Vec<Token> = events.iter().map(|e| e.token).collect();
                    assert_eq!(tokens, [Token(100 + round)], "round {round}");
                    ack.send(()).unwrap();
                }
            });
        }

        /// The mixed-transport LB shape: sim pipes towards the clients,
        /// kernel sockets towards the back-ends, one poller. A sim waker
        /// runs on the writer's thread and must get the waiter out of the
        /// kernel.
        #[test]
        fn sim_pipe_wakers_reach_a_waiter_that_also_watches_a_kernel_socket() {
            let stack = stack();
            let (poller, _listener, tcp_client, tcp_server) = kernel_poller(&stack);
            let (sim_client, sim_server) =
                crate::conn::pair(9, crate::costs::StackCosts::free(), None, 4096);
            sim_server.register(&poller, Token(2), Interest::READABLE);

            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let sent = until_in_epoll_wait(&poller);
                    sim_client.write(b"s").unwrap();
                    sent
                });
                let events = poller.wait(Duration::from_secs(10));
                let latency = writer.join().unwrap().elapsed();
                assert_eq!(events.len(), 1);
                assert!(events[0].token == Token(2) && events[0].readiness.readable);
                assert!(latency < PROMPT, "sim wake took {latency:?}");
                drain_one_byte(&sim_server);
            });

            let (ack, acked) = mpsc::channel();
            std::thread::scope(|scope| {
                let (sim_client, tcp_client) = (&sim_client, &tcp_client);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let source = if round % 2 == 0 {
                            sim_client
                        } else {
                            tcp_client
                        };
                        source.write(b"x").unwrap();
                        acked.recv().unwrap();
                    }
                });
                for round in 0..ROUNDS {
                    let (token, source) = if round % 2 == 0 {
                        (Token(2), &sim_server)
                    } else {
                        (Token(1), &tcp_server)
                    };
                    let events = poller.wait(Duration::from_secs(10));
                    let tokens: Vec<Token> = events.iter().map(|e| e.token).collect();
                    assert_eq!(tokens, [token], "round {round}");
                    drain_one_byte(source);
                    ack.send(()).unwrap();
                }
            });
        }

        /// A thread parked on the condvar when the reactor is created must
        /// move into `epoll_wait`. The registration below goes straight to
        /// the reactor and posts nothing for the idle socket, so only the
        /// creation notify can move the waiter. (If the
        /// waiter is slow to park it finds the reactor on its first check
        /// and the test passes for the plainer reason.)
        #[test]
        fn a_waiter_parked_before_the_reactor_exists_moves_into_epoll_wait() {
            let stack = stack();
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut peer, _) = listener.accept().unwrap();
            let conn = stack.wrap(stream, crate::conn::Side::Client).unwrap();
            let poller = Poller::new();
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| poller.wait(Duration::from_secs(10)));
                std::thread::sleep(Duration::from_millis(50));
                let reactor = poller.os_reactor();
                reactor.register(conn.fd(), Token(5), Interest::READABLE);
                let sent = until_in_epoll_wait(&poller);
                peer.write_all(b"late").unwrap();
                let events = waiter.join().unwrap();
                assert!(sent.elapsed() < PROMPT, "took {:?}", sent.elapsed());
                assert_eq!(events.len(), 1);
                assert!(events[0].token == Token(5) && events[0].readiness.readable);
                reactor.forget(conn.fd());
            });
        }

        /// Timeouts round up to the millisecond: a sub-millisecond wait on
        /// a kernel poller sleeps at least its timeout in one `epoll_wait`
        /// instead of returning early or spinning on zero-timeout calls.
        #[test]
        fn short_timeouts_are_not_cut_short() {
            let stack = stack();
            let (poller, _listener, _client, _server) = kernel_poller(&stack);
            for micros in [300, 2_500] {
                let timeout = Duration::from_micros(micros);
                let start = Instant::now();
                assert!(poller.wait(timeout).is_empty());
                assert!(start.elapsed() >= timeout, "{timeout:?} cut short");
            }
        }
    }

    #[test]
    fn pending_reports_buffered_bytes() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        client.write_all(b"12345").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.pending() < 5 {
            assert!(Instant::now() < deadline, "bytes never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
