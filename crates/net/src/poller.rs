//! Readiness notification: the dispatcher's epoll.
//!
//! The paper's platform multiplexes thousands of connections through one
//! dispatcher thread blocked in epoll. A [`Poller`] is that thread's wait
//! point (DESIGN.md §3, readiness model): a queue of ready [`Token`]s fed
//! by *wakers* that the simulated event sources ([`crate::Endpoint`]
//! pipes, [`crate::SimListener`] accept queues) invoke on every state
//! transition — bytes arriving, buffer space freed, EOF, a new pending
//! accept — and, once an OS socket registers, by the kernel: the thread in
//! [`Poller::wait`] then blocks in `epoll_wait` on the poller's own epoll
//! set and resolves the batch into the queue itself (DESIGN.md §13).
//! Consumers block in [`Poller::wait`] instead of re-scanning idle
//! connections; one thread waits on a poller at a time.
//!
//! Invariants:
//!
//! * **No lost wakeups.** Every state transition that could unblock a
//!   registered consumer enqueues that registration's token, and
//!   registration itself enqueues the token if the source is *already*
//!   readable (level-triggered at registration, edge-triggered
//!   afterwards). Room to write is reported only as a transition: nothing
//!   has been written on a fresh registration, so no writer waits for it.
//!   A consumer that drains its source to `WouldBlock` after each event is
//!   therefore guaranteed to observe all data and the final EOF.
//! * **Spurious wakeups allowed.** An event only means "worth checking":
//!   the consumer must be prepared for the source to yield `WouldBlock`.
//! * **Coalescing.** A token is queued at most once until delivered; the
//!   readiness flags of coalesced events are OR-ed together.
//! * **One poller per source.** A source is registered with at most one
//!   poller at a time: each connection is watched by the one dispatcher
//!   whose shard owns its graph, and a connection that outlives its graph
//!   (a back-end connection parked for reuse) is deregistered before it is
//!   parked, so the next graph to check it out — on any shard — makes a
//!   fresh level-triggered registration. Registering with a second poller
//!   while the first still holds a registration is a bug, caught by a
//!   `debug_assert!` on both transports; re-registering with the same
//!   poller replaces the registration. Events already queued when a
//!   registration is dropped are not retracted; consumers tolerate them,
//!   per the second invariant.
//!
//! # Examples
//!
//! ```
//! use flick_net::{Interest, Poller, SimNetwork, StackModel, Token};
//! use std::time::Duration;
//!
//! let net = SimNetwork::new(StackModel::Free);
//! let listener = net.listen(7000).unwrap();
//! let client = net.connect(7000).unwrap();
//! let server = listener.accept().unwrap();
//!
//! let poller = Poller::new();
//! server.register(&poller, Token(1), Interest::READABLE);
//!
//! client.write(b"ping").unwrap();
//! let events = poller.wait(Duration::from_secs(1));
//! assert_eq!(events[0].token, Token(1));
//! assert!(events[0].readiness.readable);
//! ```

use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one registered event source within a [`Poller`].
///
/// Tokens are chosen by the consumer (the dispatcher registers a watch
/// under its task's id); the poller never interprets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Which transitions a registration wants to observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
}

impl Interest {
    /// Wake when data (or EOF) becomes available to read.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Wake when buffer space frees up (or the peer closes).
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Does this interest include readability?
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// Does this interest include writability?
    pub fn is_writable(&self) -> bool {
        self.writable
    }
}

/// The readiness flags carried by one [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Readiness {
    /// A read would make progress (data buffered or EOF observable).
    pub readable: bool,
    /// A write would make progress (space available or the write would
    /// fail fast because the peer closed).
    pub writable: bool,
    /// The transition involved a close (EOF, peer gone, listener closed).
    pub closed: bool,
}

impl Readiness {
    /// Readiness with only the `readable` flag set.
    pub fn readable() -> Self {
        Readiness {
            readable: true,
            ..Default::default()
        }
    }

    /// Readiness with only the `writable` flag set.
    pub fn writable() -> Self {
        Readiness {
            writable: true,
            ..Default::default()
        }
    }

    /// Marks the readiness as involving a close.
    pub fn with_closed(mut self) -> Self {
        self.closed = true;
        self
    }

    pub(crate) fn merge(&mut self, other: Readiness) {
        self.readable |= other.readable;
        self.writable |= other.writable;
        self.closed |= other.closed;
    }
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the source was registered with.
    pub token: Token,
    /// OR of the readiness flags of all coalesced transitions.
    pub readiness: Readiness,
}

struct PollState {
    /// Delivery order of ready tokens.
    queue: VecDeque<Token>,
    /// Coalesced readiness per queued token; a token appears in `queue`
    /// exactly when it has an entry here.
    pending: HashMap<Token, Readiness>,
    /// Manual [`Poller::wake`] calls not yet consumed by a `wait`.
    wakeups: u64,
    /// Set by the waiter, under the lock, for the time it is blocked in
    /// `epoll_wait`: a cross-thread post that finds it set clears it and
    /// pokes the reactor's self-pipe instead of the condvar. Written under
    /// the lock on both sides, so a post lands either before the waiter's
    /// queue check or after the flag is up — never in between.
    epoll_waiting: bool,
}

pub(crate) struct PollerInner {
    state: Mutex<PollState>,
    cond: Condvar,
    /// The kernel reactor owned by this poller, created lazily the first
    /// time an OS socket registers here. One reactor per poller means one
    /// epoll set per shard, harvested by the shard's own dispatcher —
    /// registrations never leave the owning shard (DESIGN.md §13).
    os_reactor: std::sync::OnceLock<Arc<crate::tcp::OsReactor>>,
}

impl PollerInner {
    pub(crate) fn post(&self, token: Token, readiness: Readiness) {
        let mut state = self.state.lock();
        Self::post_locked(&mut state, token, readiness);
        self.notify(&mut state);
    }

    fn post_locked(state: &mut PollState, token: Token, readiness: Readiness) {
        if let Some(existing) = state.pending.get_mut(&token) {
            existing.merge(readiness);
        } else {
            state.pending.insert(token, readiness);
            state.queue.push_back(token);
        }
    }

    /// Unblocks the waiter wherever it sleeps: a poller that owns a reactor
    /// has its waiter in `epoll_wait` (poked through the self-pipe, once —
    /// the poke lowers the flag) or awake; a sim-only one parks on the
    /// condvar.
    fn notify(&self, state: &mut PollState) {
        let Some(reactor) = self.os_reactor.get() else {
            self.cond.notify_all();
            return;
        };
        if std::mem::take(&mut state.epoll_waiting) {
            reactor.poke();
        }
    }
}

/// A waker handle an event source holds for one registration.
///
/// Invoking [`WakerSlot::wake`] enqueues the registration's token; it is
/// safe to call while holding the source's own lock (the poller uses its
/// own, and lock ordering is always source → poller).
#[derive(Clone)]
pub(crate) struct WakerSlot {
    inner: Arc<PollerInner>,
    token: Token,
}

impl WakerSlot {
    pub(crate) fn wake(&self, readiness: Readiness) {
        self.inner.post(self.token, readiness);
    }

    /// `true` if both slots post the same token into the same poller.
    pub(crate) fn same_as(&self, other: &WakerSlot) -> bool {
        self.token == other.token && Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// `true` if this slot posts into `poller` (the one-poller check).
    pub(crate) fn belongs_to(&self, poller: &Poller) -> bool {
        Arc::ptr_eq(&self.inner, &poller.inner)
    }
}

/// The readiness queue consumers block on.
///
/// Cheap to clone; clones share the same queue (the dispatcher thread
/// waits, service handles clone it to [`Poller::wake`] on shutdown).
#[derive(Clone)]
pub struct Poller {
    inner: Arc<PollerInner>,
}

impl Default for Poller {
    fn default() -> Self {
        Poller::new()
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("Poller")
            .field("queued", &state.queue.len())
            .finish()
    }
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> Self {
        Poller {
            inner: Arc::new(PollerInner {
                state: Mutex::new(PollState {
                    queue: VecDeque::new(),
                    pending: HashMap::new(),
                    wakeups: 0,
                    epoll_waiting: false,
                }),
                cond: Condvar::new(),
                os_reactor: std::sync::OnceLock::new(),
            }),
        }
    }

    /// The kernel reactor owned by this poller, created on first use. All
    /// OS-socket registrations made through this poller land in its epoll
    /// set, which the thread in [`Poller::wait`] harvests.
    pub(crate) fn os_reactor(&self) -> &Arc<crate::tcp::OsReactor> {
        let mut created = false;
        let reactor = self.inner.os_reactor.get_or_init(|| {
            created = true;
            Arc::new(crate::tcp::OsReactor::new())
        });
        if created {
            // A thread already parked on the condvar must move into
            // `epoll_wait`, or the new set would go unharvested until its
            // timeout. Under the lock, so it either parked before (and is
            // notified) or checks after (and sees the reactor).
            let _state = self.inner.state.lock();
            self.inner.cond.notify_all();
        }
        reactor
    }

    /// Blocks until at least one event (or a manual [`Poller::wake`])
    /// arrives, or `timeout` elapses. Returns every queued event, oldest
    /// first; an empty vector means the wait timed out or was woken.
    ///
    /// A poller that owns a kernel reactor blocks in `epoll_wait` on this
    /// thread; a sim-only poller parks on the condvar.
    pub fn wait(&self, timeout: Duration) -> Vec<Event> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.inner.state.lock();
        loop {
            let state = &mut *guard;
            if !state.queue.is_empty() || state.wakeups > 0 {
                state.wakeups = 0;
                let pending = &mut state.pending;
                return state
                    .queue
                    .drain(..)
                    .map(|token| Event {
                        token,
                        readiness: pending.remove(&token).unwrap_or_default(),
                    })
                    .collect();
            }
            let now = Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            let Some(reactor) = self.inner.os_reactor.get() else {
                self.inner.cond.wait_for(&mut guard, deadline - now);
                continue;
            };
            debug_assert!(!state.epoll_waiting, "one waiter per poller");
            state.epoll_waiting = true;
            drop(guard);
            let wakes = reactor.wait(deadline - now);
            guard = self.inner.state.lock();
            if !std::mem::take(&mut guard.epoll_waiting) {
                // A post lowered the flag, so its byte is in the pipe.
                reactor.drain_wake_pipe();
            }
            for (token, readiness) in wakes {
                PollerInner::post_locked(&mut guard, token, readiness);
            }
        }
    }

    /// Enqueues a user-generated event (the dispatcher uses this for
    /// graph-lifecycle notifications that do not originate in the
    /// substrate).
    pub fn post(&self, token: Token, readiness: Readiness) {
        self.inner.post(token, readiness);
    }

    /// Unblocks a concurrent (or the next) [`Poller::wait`] without
    /// delivering an event. Used to make shutdown prompt.
    pub fn wake(&self) {
        let mut state = self.inner.state.lock();
        state.wakeups += 1;
        self.inner.notify(&mut state);
    }

    pub(crate) fn slot(&self, token: Token) -> WakerSlot {
        WakerSlot {
            inner: Arc::clone(&self.inner),
            token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::pair;
    use crate::costs::StackCosts;
    use crate::error::NetError;

    impl Poller {
        /// `true` while the waiter is (about to be) blocked in `epoll_wait`.
        pub(crate) fn in_epoll_wait(&self) -> bool {
            self.inner.state.lock().epoll_waiting
        }
    }

    #[test]
    fn post_then_wait_delivers_in_order() {
        let poller = Poller::new();
        poller.post(Token(1), Readiness::readable());
        poller.post(Token(2), Readiness::writable());
        let events = poller.wait(Duration::from_millis(10));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].token, Token(1));
        assert!(events[0].readiness.readable && !events[0].readiness.writable);
        assert_eq!(events[1].token, Token(2));
        assert!(events[1].readiness.writable);
    }

    #[test]
    fn events_for_one_token_coalesce() {
        let poller = Poller::new();
        poller.post(Token(7), Readiness::readable());
        poller.post(Token(7), Readiness::writable().with_closed());
        let events = poller.wait(Duration::from_millis(10));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readiness.readable);
        assert!(events[0].readiness.writable);
        assert!(events[0].readiness.closed);
    }

    #[test]
    fn wait_times_out_empty() {
        let poller = Poller::new();
        let start = Instant::now();
        let events = poller.wait(Duration::from_millis(20));
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn wake_unblocks_wait_without_events() {
        let poller = Poller::new();
        let waker = poller.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            waker.wake();
        });
        let start = Instant::now();
        let events = poller.wait(Duration::from_secs(5));
        assert!(events.is_empty());
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn wake_before_wait_is_not_lost() {
        let poller = Poller::new();
        poller.wake();
        let start = Instant::now();
        assert!(poller.wait(Duration::from_secs(5)).is_empty());
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn cross_thread_post_wakes_waiter() {
        let poller = Poller::new();
        let producer = poller.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            producer.post(Token(3), Readiness::readable());
        });
        let events = poller.wait(Duration::from_secs(5));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(3));
        handle.join().unwrap();
    }

    /// The lost-wakeup stress test of the readiness layer: N writer threads
    /// (each racing a closer) against one `Poller::wait` consumer. Every
    /// byte and every EOF must eventually be observed; a lost wakeup shows
    /// up as the consumer timing out with connections still open.
    #[test]
    fn stress_no_lost_wakeups() {
        const WRITERS: usize = 8;
        const BYTES_PER_WRITER: usize = 64 * 1024;

        let poller = Poller::new();
        let mut readers = Vec::new();
        let mut handles = Vec::new();
        for i in 0..WRITERS {
            let (client, server) = pair(
                i as u64,
                StackCosts::free(),
                None,
                // Small pipes force many buffer-full / buffer-drained
                // transitions per connection.
                4 * 1024,
            );
            server.register(&poller, Token(i as u64), Interest::READABLE);
            readers.push(server);
            handles.push(std::thread::spawn(move || {
                let chunk = [0x5au8; 997];
                let mut sent = 0usize;
                while sent < BYTES_PER_WRITER {
                    let n = (BYTES_PER_WRITER - sent).min(chunk.len());
                    client.write_all(&chunk[..n]).expect("peer stays open");
                    sent += n;
                }
                // The closer races the consumer's final reads.
                client.close();
            }));
        }

        let mut received = vec![0usize; WRITERS];
        let mut eof = vec![false; WRITERS];
        let mut buf = [0u8; 2048];
        let deadline = Instant::now() + Duration::from_secs(30);
        while eof.iter().any(|done| !done) {
            assert!(
                Instant::now() < deadline,
                "lost wakeup: received {received:?}, eof {eof:?}"
            );
            for event in poller.wait(Duration::from_millis(100)) {
                let idx = event.token.0 as usize;
                loop {
                    match readers[idx].read(&mut buf) {
                        Ok(n) => received[idx] += n,
                        Err(NetError::WouldBlock) => break,
                        Err(NetError::Closed) => {
                            eof[idx] = true;
                            break;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }
        for (i, handle) in handles.into_iter().enumerate() {
            handle.join().unwrap();
            assert_eq!(received[i], BYTES_PER_WRITER, "writer {i}");
        }
    }
}
