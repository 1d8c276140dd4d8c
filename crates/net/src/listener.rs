//! The simulated network fabric: listeners, ports and connection setup.
//!
//! [`SimNetwork`] stands in for the data-centre switch fabric of the paper's
//! testbed. Services bind listeners to ports ([`SimNetwork::listen`], or
//! one per shard with [`SimNetwork::listen_group`]) and clients connect to
//! them ([`SimNetwork::connect`]); each established
//! connection is a pair of [`Endpoint`]s, with connection setup and accept
//! charged according to the configured [`StackModel`].

use crate::conn::{dispatch, pair, Endpoint, DEFAULT_PIPE_CAPACITY};
use crate::costs::{StackCosts, StackModel};
use crate::error::NetError;
use crate::poller::{Poller, Readiness, Token, WakerSlot};
use crate::ratelimit::TokenBucket;
use crate::stats::NetStats;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One member of a port's listen group: its own backlog, and the waker of
/// the dispatcher that drains it.
struct Member {
    pending: Mutex<VecDeque<Endpoint>>,
    cond: Condvar,
    /// Registered by the accepting dispatcher; woken on every new pending
    /// connection and on close.
    waker: Mutex<Option<WakerSlot>>,
}

impl Member {
    fn wake(&self, readiness: Readiness) {
        if let Some(waker) = self.waker.lock().as_ref() {
            waker.wake(readiness);
        }
    }
}

struct ListenerInner {
    /// One per listener of the group ([`SimNetwork::listen_group`]).
    members: Vec<Member>,
    /// The member the next connect lands on, modulo the group size.
    next: AtomicUsize,
    closed: AtomicBool,
    port: u16,
    /// Server-side endpoints of every connection routed to this port,
    /// including ones already accepted. This is the fault-injection hook:
    /// [`SimNetwork::sever_port`] closes them all at once, modelling the
    /// process behind the port crashing and the kernel resetting its
    /// connections. Closed entries are pruned on each new connect.
    established: Mutex<Vec<Endpoint>>,
    /// Remaining injected accept faults (see
    /// [`SimListener::inject_accept_faults`]): while positive, accepts
    /// fail with [`NetError::Resources`] without consuming the backlog,
    /// modelling an `EMFILE`-class burst deterministically.
    accept_faults: AtomicU64,
}

impl ListenerInner {
    /// Closes the whole group: every member's accepts fail from now on,
    /// and every member's registration is woken with closed readiness.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for member in &self.members {
            member.cond.notify_all();
            member.wake(Readiness::readable().with_closed());
        }
    }
}

/// A listening socket bound to a port of the simulated network: one
/// member of the port's listen group.
#[derive(Clone)]
pub struct SimListener {
    inner: Arc<ListenerInner>,
    member: usize,
    costs: StackCosts,
}

impl std::fmt::Debug for SimListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimListener")
            .field("port", &self.inner.port)
            .field("member", &self.member)
            .finish()
    }
}

impl SimListener {
    fn member(&self) -> &Member {
        &self.inner.members[self.member]
    }

    /// The port this listener is bound to.
    pub fn port(&self) -> u16 {
        self.inner.port
    }

    /// Accepts a pending connection without blocking.
    ///
    /// Returns [`NetError::WouldBlock`] when no connection is waiting and
    /// [`NetError::ListenerClosed`] after [`SimListener::close`].
    pub fn try_accept(&self) -> Result<Endpoint, NetError> {
        if self.consume_accept_fault() {
            return Err(NetError::Resources);
        }
        let mut queue = self.member().pending.lock();
        match queue.pop_front() {
            Some(endpoint) => {
                drop(queue);
                StackCosts::charge(self.costs.accept);
                Ok(endpoint)
            }
            None if self.inner.closed.load(Ordering::Acquire) => Err(NetError::ListenerClosed),
            None => Err(NetError::WouldBlock),
        }
    }

    /// Makes the next `n` accepts fail with [`NetError::Resources`]
    /// without consuming the backlog — the deterministic stand-in for an
    /// `EMFILE`/`ENFILE` burst on the OS transport, used to test that
    /// accept loops back off and survive instead of dying.
    pub fn inject_accept_faults(&self, n: u64) {
        self.inner.accept_faults.fetch_add(n, Ordering::AcqRel);
    }

    /// Consumes one injected fault, if any remain.
    fn consume_accept_fault(&self) -> bool {
        self.inner
            .accept_faults
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Accepts a pending connection, blocking until one arrives.
    pub fn accept(&self) -> Result<Endpoint, NetError> {
        self.accept_timeout(Duration::from_secs(30))
    }

    /// Accepts a pending connection, blocking up to `timeout`.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Endpoint, NetError> {
        let deadline = Instant::now() + timeout;
        let member = self.member();
        let mut queue = member.pending.lock();
        loop {
            if let Some(endpoint) = queue.pop_front() {
                drop(queue);
                StackCosts::charge(self.costs.accept);
                return Ok(endpoint);
            }
            if self.inner.closed.load(Ordering::Acquire) {
                return Err(NetError::ListenerClosed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::TimedOut);
            }
            member.cond.wait_for(&mut queue, deadline - now);
        }
    }

    /// Number of connections waiting to be accepted by this listener.
    pub fn backlog(&self) -> usize {
        self.member().pending.lock().len()
    }

    /// Registers this listener with `poller`: every new pending connection
    /// (and the close of the listener) enqueues `token` as a readable
    /// event. Level-triggered at the moment of the call — an already
    /// non-empty backlog queues an event immediately. Registering again
    /// replaces the previous registration; a listener watched by another
    /// poller must be deregistered first.
    pub fn register(&self, poller: &Poller, token: Token) {
        // Take the backlog lock around the slot install + level check so a
        // concurrent connect cannot slip between them unnoticed.
        let member = self.member();
        let pending = member.pending.lock();
        let mut waker = member.waker.lock();
        debug_assert!(
            waker.as_ref().map_or(true, |w| w.belongs_to(poller)),
            "a listener is registered with at most one poller"
        );
        *waker = Some(poller.slot(token));
        drop(waker);
        let closed = self.inner.closed.load(Ordering::Acquire);
        if !pending.is_empty() || closed {
            let mut readiness = Readiness::readable();
            readiness.closed = closed;
            poller.post(token, readiness);
        }
    }

    /// Removes this listener's registration, if any.
    pub fn deregister(&self) {
        *self.member().waker.lock() = None;
    }

    /// Closes the listener, with every other member of its group;
    /// pending and future accepts fail.
    pub fn close(&self) {
        self.inner.close();
    }

    /// Returns `true` after the listener was closed.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }
}

/// Options controlling one `connect` call.
#[derive(Debug, Clone, Default)]
pub struct ConnectOptions {
    /// A link rate (bits per second) applied to each direction of the new
    /// connection, or `None` for an uncapped link.
    pub link_bits_per_sec: Option<u64>,
    /// Per-direction buffer capacity; defaults to
    /// [`DEFAULT_PIPE_CAPACITY`].
    pub capacity: Option<usize>,
}

/// The simulated network fabric.
pub struct SimNetwork {
    listeners: Mutex<HashMap<u16, Arc<ListenerInner>>>,
    model: StackModel,
    costs: StackCosts,
    stats: Arc<NetStats>,
    next_conn_id: AtomicU64,
}

impl std::fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNetwork")
            .field("model", &self.model)
            .finish()
    }
}

impl SimNetwork {
    /// Creates a network whose connections are charged according to `model`.
    pub fn new(model: StackModel) -> Arc<Self> {
        Arc::new(SimNetwork {
            listeners: Mutex::new(HashMap::new()),
            model,
            costs: model.costs(),
            stats: NetStats::new_shared(),
            next_conn_id: AtomicU64::new(1),
        })
    }

    /// The stack model this network charges.
    pub fn model(&self) -> StackModel {
        self.model
    }

    /// The substrate-wide statistics counters.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Binds a listener to `port`: a listen group of one.
    pub fn listen(&self, port: u16) -> Result<SimListener, NetError> {
        self.listen_group(port, 1).map(|mut group| group.remove(0))
    }

    /// Binds `count` listeners to one `port`, the simulated twin of
    /// [`crate::TcpStack::listen_group`]: each listener has its own
    /// backlog, and connects rotate over them, so with one listener per
    /// shard every shard accepts its share of the port's connections.
    /// Closing any member closes the group.
    pub fn listen_group(&self, port: u16, count: usize) -> Result<Vec<SimListener>, NetError> {
        assert!(count > 0, "listen_group needs at least one listener");
        let mut listeners = self.listeners.lock();
        if listeners.contains_key(&port) {
            return Err(NetError::AddrInUse);
        }
        let inner = Arc::new(ListenerInner {
            members: (0..count)
                .map(|_| Member {
                    pending: Mutex::new(VecDeque::new()),
                    cond: Condvar::new(),
                    waker: Mutex::new(None),
                })
                .collect(),
            next: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            port,
            established: Mutex::new(Vec::new()),
            accept_faults: AtomicU64::new(0),
        });
        listeners.insert(port, Arc::clone(&inner));
        Ok((0..count)
            .map(|member| SimListener {
                inner: Arc::clone(&inner),
                member,
                costs: self.costs,
            })
            .collect())
    }

    /// Removes the listener group bound to `port`, closing it.
    pub fn unlisten(&self, port: u16) {
        if let Some(inner) = self.listeners.lock().remove(&port) {
            inner.close();
        }
    }

    /// Establishes a connection to the listener on `port`.
    pub fn connect(&self, port: u16) -> Result<Endpoint, NetError> {
        self.connect_with(port, &ConnectOptions::default())
    }

    /// Establishes a connection with explicit options (link rate, buffers).
    pub fn connect_with(&self, port: u16, options: &ConnectOptions) -> Result<Endpoint, NetError> {
        let listener = {
            let listeners = self.listeners.lock();
            listeners.get(&port).cloned()
        };
        let Some(listener) = listener else {
            return Err(NetError::ConnectionRefused);
        };
        if listener.closed.load(Ordering::Acquire) {
            return Err(NetError::ConnectionRefused);
        }
        StackCosts::charge(self.costs.connect);
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let capacity = options.capacity.unwrap_or(DEFAULT_PIPE_CAPACITY);
        let (mut client, mut server) =
            pair(id, self.costs, Some(Arc::clone(&self.stats)), capacity);
        if let Some(bits) = options.link_bits_per_sec {
            client.set_write_rate(Arc::new(TokenBucket::new_bits_per_sec(bits, 64 * 1024)));
            server.set_write_rate(Arc::new(TokenBucket::new_bits_per_sec(bits, 64 * 1024)));
        }
        self.stats.record_open();
        {
            let mut established = listener.established.lock();
            established.retain(|e| !e.is_closed());
            established.push(server.clone());
        }
        {
            let next = listener.next.fetch_add(1, Ordering::Relaxed);
            let member = &listener.members[next % listener.members.len()];
            let mut queue = member.pending.lock();
            queue.push_back(server);
            member.cond.notify_one();
            member.wake(Readiness::readable());
        }
        Ok(client)
    }

    /// Number of listeners currently bound.
    pub fn listener_count(&self) -> usize {
        self.listeners.lock().len()
    }

    /// Fault injection: arms the next `n` accepts on `port` to fail with
    /// [`NetError::Resources`] (see
    /// [`SimListener::inject_accept_faults`]). Keyed by port so tests can
    /// reach a listener deployed behind a platform without holding the
    /// [`SimListener`] handle. Returns `false` when nothing listens there.
    pub fn inject_accept_faults(&self, port: u16, n: u64) -> bool {
        match self.listeners.lock().get(&port) {
            Some(inner) => {
                inner.accept_faults.fetch_add(n, Ordering::AcqRel);
                true
            }
            None => false,
        }
    }

    /// Fault injection: closes every connection ever routed to `port` —
    /// accepted or still pending — as a crashing process would, and
    /// returns how many were still open. The listener itself stays bound;
    /// combine with [`SimNetwork::unlisten`] to also refuse new connects.
    ///
    /// Each close wakes both sides with closed readiness, so parked
    /// readers and writers observe the crash instead of hanging.
    pub fn sever_port(&self, port: u16) -> usize {
        let listener = {
            let listeners = self.listeners.lock();
            listeners.get(&port).cloned()
        };
        let Some(listener) = listener else {
            return 0;
        };
        let mut severed = 0;
        let mut established = listener.established.lock();
        for endpoint in established.drain(..) {
            if !endpoint.is_closed() {
                severed += 1;
                endpoint.close();
            }
        }
        severed
    }

    /// Number of connections to `port` still open (the server side has not
    /// been closed). Pending-but-unaccepted connections count.
    pub fn established_count(&self, port: u16) -> usize {
        let listener = {
            let listeners = self.listeners.lock();
            listeners.get(&port).cloned()
        };
        match listener {
            Some(listener) => listener
                .established
                .lock()
                .iter()
                .filter(|e| !e.is_closed())
                .count(),
            None => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// The transport-neutral listener
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum ListenerKind {
    Sim(SimListener),
    Tcp(crate::tcp::TcpListener),
}

/// A listening socket over either transport.
///
/// The application dispatcher holds one of these per service; whether the
/// backlog is fed by [`SimNetwork::connect`] or by the OS kernel is
/// invisible above the substrate. Registration posts readable events into
/// the same per-shard [`Poller`]s as every other source.
#[derive(Clone)]
pub struct Listener {
    kind: ListenerKind,
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ListenerKind::Sim(sim) => sim.fmt(f),
            ListenerKind::Tcp(tcp) => tcp.fmt(f),
        }
    }
}

impl From<SimListener> for Listener {
    fn from(sim: SimListener) -> Self {
        Listener {
            kind: ListenerKind::Sim(sim),
        }
    }
}

impl From<crate::tcp::TcpListener> for Listener {
    fn from(tcp: crate::tcp::TcpListener) -> Self {
        Listener {
            kind: ListenerKind::Tcp(tcp),
        }
    }
}

impl Listener {
    /// The port this listener is bound to (for the OS transport, the
    /// resolved port — meaningful after a `:0` bind).
    pub fn port(&self) -> u16 {
        dispatch!(ListenerKind, self, l => l.port())
    }

    /// Accepts a pending connection without blocking.
    pub fn try_accept(&self) -> Result<Endpoint, NetError> {
        dispatch!(ListenerKind, self, l => l.try_accept())
    }

    /// Accepts a pending connection, blocking up to `timeout`.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Endpoint, NetError> {
        dispatch!(ListenerKind, self, l => l.accept_timeout(timeout))
    }

    /// Registers this listener with `poller`: new pending connections (and
    /// the close of the listener) enqueue `token` as readable events,
    /// level-triggered at the moment of the call.
    pub fn register(&self, poller: &Poller, token: Token) {
        dispatch!(ListenerKind, self, l => l.register(poller, token))
    }

    /// Removes this listener's registration, if any.
    pub fn deregister(&self) {
        dispatch!(ListenerKind, self, l => l.deregister())
    }

    /// Closes the listener; pending and future accepts fail, and for the
    /// OS transport the port is released.
    pub fn close(&self) {
        dispatch!(ListenerKind, self, l => l.close())
    }

    /// Returns `true` after the listener was closed.
    pub fn is_closed(&self) -> bool {
        dispatch!(ListenerKind, self, l => l.is_closed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_accept_exchange() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(80).unwrap();
        let client = net.connect(80).unwrap();
        let server = listener.accept().unwrap();
        client.write(b"GET /").unwrap();
        let mut buf = [0u8; 16];
        let n = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"GET /");
        assert_eq!(net.stats().snapshot().connections_opened, 1);
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let net = SimNetwork::new(StackModel::Free);
        assert_eq!(net.connect(81).unwrap_err(), NetError::ConnectionRefused);
    }

    #[test]
    fn double_listen_is_addr_in_use() {
        let net = SimNetwork::new(StackModel::Free);
        let _first = net.listen(82).unwrap();
        assert_eq!(net.listen(82).unwrap_err(), NetError::AddrInUse);
    }

    #[test]
    fn try_accept_reports_would_block_then_accepts() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(83).unwrap();
        assert_eq!(listener.try_accept().unwrap_err(), NetError::WouldBlock);
        let _client = net.connect(83).unwrap();
        assert_eq!(listener.backlog(), 1);
        assert!(listener.try_accept().is_ok());
    }

    #[test]
    fn unlisten_refuses_new_connections() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(84).unwrap();
        net.unlisten(84);
        assert!(listener.is_closed());
        assert_eq!(net.connect(84).unwrap_err(), NetError::ConnectionRefused);
        assert_eq!(listener.try_accept().unwrap_err(), NetError::ListenerClosed);
    }

    #[test]
    fn accept_timeout_expires() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(85).unwrap();
        let err = listener
            .accept_timeout(Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, NetError::TimedOut);
    }

    #[test]
    fn accept_wakes_on_concurrent_connect() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(86).unwrap();
        let net2 = Arc::clone(&net);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            net2.connect(86).unwrap()
        });
        let server = listener.accept_timeout(Duration::from_secs(2)).unwrap();
        let client = handle.join().unwrap();
        client.write(b"x").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(
            server
                .read_timeout(&mut buf, Duration::from_secs(1))
                .unwrap(),
            1
        );
    }

    #[test]
    fn rated_connection_is_slower() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(87).unwrap();
        // 8 Mbit/s with small burst: pushing 256 kB should take > 100 ms.
        let options = ConnectOptions {
            link_bits_per_sec: Some(8_000_000),
            capacity: Some(1 << 20),
        };
        let client = net.connect_with(87, &options).unwrap();
        let _server = listener.accept().unwrap();
        let start = Instant::now();
        client.write_all(&vec![0u8; 256 * 1024]).unwrap();
        assert!(start.elapsed() > Duration::from_millis(100));
    }

    #[test]
    fn registered_listener_gets_accept_events() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(88).unwrap();
        let poller = Poller::new();
        listener.register(&poller, Token(1));
        assert!(poller.wait(Duration::from_millis(5)).is_empty());
        let _client = net.connect(88).unwrap();
        let events = poller.wait(Duration::from_secs(1));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(1));
        assert!(events[0].readiness.readable);
        assert!(listener.try_accept().is_ok());
    }

    #[test]
    fn register_with_existing_backlog_is_level_triggered() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(89).unwrap();
        let _client = net.connect(89).unwrap();
        let poller = Poller::new();
        listener.register(&poller, Token(2));
        assert_eq!(poller.wait(Duration::from_millis(50)).len(), 1);
    }

    #[test]
    fn close_and_unlisten_wake_the_registration() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(90).unwrap();
        let poller = Poller::new();
        listener.register(&poller, Token(3));
        net.unlisten(90);
        let events = poller.wait(Duration::from_secs(1));
        assert_eq!(events.len(), 1);
        assert!(events[0].readiness.closed);
    }

    #[test]
    fn deregistered_listener_stays_silent() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(91).unwrap();
        let poller = Poller::new();
        listener.register(&poller, Token(4));
        listener.deregister();
        let _client = net.connect(91).unwrap();
        assert!(poller.wait(Duration::from_millis(20)).is_empty());
    }

    #[test]
    fn sever_port_closes_accepted_and_pending_connections() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(92).unwrap();
        let accepted_client = net.connect(92).unwrap();
        let accepted_server = listener.accept().unwrap();
        let pending_client = net.connect(92).unwrap();
        assert_eq!(net.established_count(92), 2);

        let severed = net.sever_port(92);
        assert_eq!(severed, 2);
        assert_eq!(net.established_count(92), 0);
        // Both clients observe the crash as EOF, not a hang.
        let mut buf = [0u8; 8];
        assert_eq!(
            accepted_client
                .read_timeout(&mut buf, Duration::from_secs(1))
                .unwrap_err(),
            NetError::Closed
        );
        assert_eq!(
            pending_client
                .read_timeout(&mut buf, Duration::from_secs(1))
                .unwrap_err(),
            NetError::Closed
        );
        // The severed server side fails writes from now on.
        assert!(accepted_server.write(b"late").is_err());
        // The listener itself stays bound: new connects still succeed.
        assert!(net.connect(92).is_ok());
    }

    #[test]
    fn sever_port_wakes_the_peers_parked_registration() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(93).unwrap();
        let client = net.connect(93).unwrap();
        let _server = listener.accept().unwrap();
        // The surviving peer — the side a load balancer parks on while it
        // waits for a backend response — is registered and idle.
        let poller = Poller::new();
        client.register(&poller, Token(9), crate::poller::Interest::READABLE);
        assert!(poller.wait(Duration::from_millis(10)).is_empty());
        // Severing the server side must wake that parked registration with
        // closed readiness instead of leaving it parked forever.
        net.sever_port(93);
        let events = poller.wait(Duration::from_secs(1));
        assert_eq!(events.len(), 1);
        assert!(events[0].readiness.closed);
    }

    #[test]
    fn sever_port_on_unknown_port_is_a_noop() {
        let net = SimNetwork::new(StackModel::Free);
        assert_eq!(net.sever_port(9999), 0);
        assert_eq!(net.established_count(9999), 0);
    }

    #[test]
    fn established_count_prunes_closed_connections() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(94).unwrap();
        let client = net.connect(94).unwrap();
        let server = listener.accept().unwrap();
        assert_eq!(net.established_count(94), 1);
        server.close();
        drop(client);
        assert_eq!(net.established_count(94), 0);
        // The next connect prunes the dead entry from the registry.
        let _second = net.connect(94).unwrap();
        assert_eq!(net.established_count(94), 1);
    }

    #[test]
    fn a_listen_group_rotates_connects_over_its_members() {
        let net = SimNetwork::new(StackModel::Free);
        let group = net.listen_group(95, 2).unwrap();
        assert_eq!(net.listen(95).unwrap_err(), NetError::AddrInUse);
        let poller = Poller::new();
        group[1].register(&poller, Token(5));
        let _clients: Vec<_> = (0..5).map(|_| net.connect(95).unwrap()).collect();
        assert_eq!((group[0].backlog(), group[1].backlog()), (3, 2));
        let events = poller.wait(Duration::from_secs(1));
        assert!(events.iter().all(|e| e.token == Token(5)));
        // The port stays one unit for fault injection and teardown.
        assert_eq!(net.established_count(95), 5);
        net.inject_accept_faults(95, 1);
        assert_eq!(group[1].try_accept().unwrap_err(), NetError::Resources);
        assert!(group[0].try_accept().is_ok());
        group[0].close();
        assert!(group[1].is_closed());
        assert_eq!(net.connect(95).unwrap_err(), NetError::ConnectionRefused);
        assert_eq!(net.sever_port(95), 5);
    }

    #[test]
    fn listener_count_tracks_bind_and_unbind() {
        let net = SimNetwork::new(StackModel::Free);
        let _a = net.listen(1).unwrap();
        let _b = net.listen(2).unwrap();
        assert_eq!(net.listener_count(), 2);
        net.unlisten(1);
        assert_eq!(net.listener_count(), 1);
    }
}
