//! The per-shard application and graph dispatchers.
//!
//! §5 of the paper: the *application dispatcher* owns the listening socket
//! of a service, maps new connections to the service's program instance and
//! indicates connection closes; the *graph dispatcher* assigns connections
//! to task graphs, instantiating a new one when needed. Both run on **one
//! dispatcher thread per shard** (not per service): a shard's
//! `ShardReactor` multiplexes every listener it accepts on plus every
//! graph built on it, and blocks on the shard's [`Poller`].
//!
//! A graph runs on the shard that accepted it. A service whose graph
//! serves one connection has one listener per shard, and each shard builds
//! a graph for each connection it accepts; one whose graph groups several
//! connections (the Hadoop aggregator) has a single listener on its home
//! shard, so every group completes where it was accepted. No graph is
//! handed to another shard.
//!
//! The reactor is wakeup-driven throughout. Accepts, task wakeups, drain
//! and teardown are all event handlers keyed by [`Token`]; between events
//! the thread blocks in [`Poller::wait`] and touches no endpoint, so
//! thousands of idle connections cost nothing.

use crate::metrics::RuntimeMetrics;
use crate::platform::{GraphFactory, ServiceEnv, Watch};
use crate::scheduler::{GraphLife, Scheduler};
use crate::shard::{Shard, ShardSet, CONTROL_TOKEN};
use crate::task::TaskId;
use flick_net::{Endpoint, Listener, NetError, Poller, Token};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a non-quiescent draining graph may linger before it is torn
/// down forcibly.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// How long a dispatcher waits before re-draining a listener whose accept
/// failed on resource exhaustion (`EMFILE`-class errors). Long enough for
/// fds to be released by closing connections, short enough that a backlog
/// stuck behind the burst is picked up promptly.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The longest the reactor blocks with no drain or accept-retry deadline
/// armed. Every state change arrives as an event, so this is only the
/// beat at which an otherwise idle reactor re-checks the stop flag.
const IDLE_HEARTBEAT: Duration = Duration::from_millis(50);

/// Per-service state shared between the platform, the shard dispatchers
/// and the service handle.
pub struct ServiceShared {
    name: String,
    /// The service's accept sockets: a listen group with one listener per
    /// shard ([`flick_net::SimNetwork::listen_group`],
    /// [`flick_net::TcpStack::listen_group`]), where listener `i` is
    /// owned — registered, drained and closed — by shard `i`'s
    /// dispatcher, or a single listener homed on `home_shard`.
    listeners: Vec<Listener>,
    factory: Arc<dyn GraphFactory>,
    env: ServiceEnv,
    home_shard: usize,
    /// Set by [`DeployedService::stop`]; every shard tears down this
    /// service's graphs on its next control event.
    stopped: AtomicBool,
    /// Connections accepted so far.
    pub connections_accepted: AtomicU64,
    /// Graph instances currently alive (across all shards).
    pub live_graphs: AtomicU64,
    /// Accept attempts that failed on fd/buffer exhaustion
    /// ([`NetError::Resources`]). The dispatchers back off and retry;
    /// this counter is how tests (and operators) see that it happened.
    pub accept_resource_errors: AtomicU64,
}

impl ServiceShared {
    /// Creates the shared service state (platform-internal).
    pub(crate) fn new(
        name: String,
        listeners: Vec<Listener>,
        factory: Arc<dyn GraphFactory>,
        env: ServiceEnv,
        home_shard: usize,
    ) -> Self {
        assert!(
            !listeners.is_empty(),
            "a service needs at least one listener"
        );
        ServiceShared {
            name,
            listeners,
            factory,
            env,
            home_shard,
            stopped: AtomicBool::new(false),
            connections_accepted: AtomicU64::new(0),
            live_graphs: AtomicU64::new(0),
            accept_resource_errors: AtomicU64::new(0),
        }
    }

    /// The service name this dispatcher serves.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shard a single-listener service accepts on; a service with a
    /// listen group accepts on every shard.
    pub fn home_shard(&self) -> usize {
        self.home_shard
    }

    /// The accept socket `shard`'s dispatcher owns, if any: the single
    /// listener when `shard` is the home shard, or the shard's own member
    /// of a listen group (listener `i` ↔ shard `i`).
    pub(crate) fn listener_on(&self, shard: usize) -> Option<&Listener> {
        if self.listeners.len() == 1 {
            (shard == self.home_shard).then(|| &self.listeners[0])
        } else {
            self.listeners.get(shard)
        }
    }

    /// Closes every accept socket and every idle back-end connection; a
    /// connection parked later is closed too. Idempotent, so the stop path
    /// and each shard's teardown may all call it.
    fn close(&self) {
        for listener in &self.listeners {
            listener.close();
        }
        self.env.backends.close_idle();
    }

    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }
}

/// Accepts everything currently pending on one of the service's
/// listeners.
///
/// Draining to `WouldBlock` is load-bearing for the OS transport: the
/// listener is registered edge-triggered, so a connection left in the
/// kernel backlog here produces no further event until a *new* connection
/// arrives. A per-connection failure (e.g. the client reset before the
/// accept — `ECONNABORTED`, surfaced as `Closed`) consumes that backlog
/// entry and must not end the drain; only "nothing pending" and
/// "listener gone" end it quietly.
///
/// Resource exhaustion (`EMFILE`/`ENFILE`/`ENOBUFS`, surfaced as
/// [`NetError::Resources`]) is the dangerous case: it does *not* consume
/// a backlog entry, so retrying immediately would spin, while treating it
/// as fatal would kill the listener the first time a fd limit is
/// breached. Returns `true` in exactly this case — the caller must
/// re-drain after [`ACCEPT_BACKOFF`], not tear anything down.
fn accept_pending(
    service: &ServiceShared,
    listener: &Listener,
    pending_clients: &mut Vec<Endpoint>,
) -> bool {
    loop {
        match listener.try_accept() {
            Ok(client) => {
                service.connections_accepted.fetch_add(1, Ordering::Relaxed);
                pending_clients.push(client);
            }
            Err(NetError::Closed) => continue,
            Err(NetError::Resources) => {
                let n = service
                    .accept_resource_errors
                    .fetch_add(1, Ordering::Relaxed)
                    + 1;
                // Rate-limited (exponentially thinning) log: a sustained
                // burst produces a handful of lines, not one per accept.
                if n.is_power_of_two() {
                    eprintln!(
                        "flick: service {}: accept out of resources ({n} so far), backing off",
                        service.name
                    );
                }
                return true;
            }
            Err(_) => return false,
        }
    }
}

/// The keys of `deadlines` whose deadline has passed.
fn due<K: Copy>(deadlines: &HashMap<K, Instant>) -> Vec<K> {
    let now = Instant::now();
    deadlines
        .iter()
        .filter(|(_, deadline)| now >= **deadline)
        .map(|(key, _)| *key)
        .collect()
}

/// A service with an accept socket on this shard.
struct HomedService {
    shared: Arc<ServiceShared>,
    /// Connections accepted but not yet grouped into a graph instance.
    pending_clients: Vec<Endpoint>,
}

/// Set in every listener and graph token. A watch posts its task's id,
/// and task ids count up from 1 without reaching this bit, so one bit
/// tells a watch from the rest; [`CONTROL_TOKEN`] (0) is neither.
const TAGGED: u64 = 1 << 63;

/// One graph instance owned by this shard.
struct Graph {
    service: Arc<ServiceShared>,
    task_ids: Vec<TaskId>,
    /// How many of its tasks, and of its client inputs, are left.
    life: Arc<GraphLife>,
    /// Every readiness watch of the graph. One lives as long as its graph,
    /// even after its task exited: drain still has to release its
    /// endpoint, and teardown to deregister it.
    watches: Vec<Watch>,
}

/// The state of one shard's reactor. The thread blocks in
/// [`Poller::wait`]; every state transition anywhere on the shard — a new
/// pending accept, bytes arriving on a watched connection, EOF, a graph's
/// last client input ending or its last task exiting the scheduler, a
/// newly deployed service — arrives as an [`flick_net::Event`] and is handled by token.
///
/// A watch's token is its task's id, so its event schedules the task
/// with no lookup. Listener and graph tokens come from one allocator and
/// carry [`TAGGED`], so they collide neither with a task id nor with each
/// other.
pub(crate) struct ShardReactor {
    set: Arc<ShardSet>,
    shard: Arc<Shard>,
    poller: Poller,
    scheduler: Arc<Scheduler>,
    /// Services accepting on this shard, keyed by listener token.
    services: HashMap<Token, HomedService>,
    /// Graphs owned by this shard, keyed by the token value their
    /// lifecycle record posts under.
    graphs: HashMap<u64, Graph>,
    /// Graphs whose client inputs have all ended (id → forced-teardown
    /// deadline). Only these can expire, so the wait timeout never scans
    /// the full graph map.
    draining: HashMap<u64, Instant>,
    /// Listeners whose last drain hit resource exhaustion (token → retry
    /// deadline). The edge-triggered listener posts no new event for
    /// backlog entries stranded behind an `EMFILE` burst, so the drain is
    /// re-run on this timer.
    accept_retry: HashMap<Token, Instant>,
    next_token: u64,
}

impl ShardReactor {
    /// The dispatcher loop of one shard; runs on its own thread until the
    /// platform requests a stop.
    pub(crate) fn run(set: Arc<ShardSet>, shard: Arc<Shard>) {
        let mut reactor = ShardReactor::new(set, shard);
        while !reactor.set.stopping() {
            let now = Instant::now();
            let timeout = reactor
                .draining
                .values()
                .chain(reactor.accept_retry.values())
                .min()
                .map_or(IDLE_HEARTBEAT, |deadline| {
                    deadline.saturating_duration_since(now)
                });
            let events = reactor.poller.wait(timeout);
            if reactor.set.stopping() {
                break;
            }
            reactor.turn(events);
        }
        reactor.teardown_where(|_| true);
    }

    fn new(set: Arc<ShardSet>, shard: Arc<Shard>) -> Self {
        ShardReactor {
            poller: shard.poller().clone(),
            scheduler: Arc::clone(shard.scheduler()),
            set,
            shard,
            services: HashMap::new(),
            graphs: HashMap::new(),
            draining: HashMap::new(),
            accept_retry: HashMap::new(),
            next_token: 0,
        }
    }

    /// One turn of the loop: inbox, the event batch, then the two timers.
    fn turn(&mut self, events: Vec<flick_net::Event>) {
        for service in self.shard.drain_inbox() {
            self.add_service(service);
        }

        let mut sweep = false;
        let mut dirty_graphs: Vec<u64> = Vec::new();
        for event in events {
            let token = event.token;
            if token == CONTROL_TOKEN {
                // Inbox already drained above; a control event may also
                // announce a service stop.
                sweep = true;
            } else if token.0 & TAGGED == 0 {
                // A watch: schedule its task. A miss (the task already
                // exited) is a spurious event and is dropped; the graph's
                // teardown deregisters the watch.
                self.scheduler.schedule(TaskId(token.0));
            } else if let Some(entry) = self.services.get(&token) {
                sweep |= event.readiness.closed || entry.shared.stopped();
                self.drain_listener(token);
            } else if self.graphs.contains_key(&token.0) {
                // The graph's last client input ended, or its last task
                // exited.
                dirty_graphs.push(token.0);
            }
        }

        for token in due(&self.accept_retry) {
            self.drain_listener(token);
        }
        if sweep {
            self.teardown_where(ServiceShared::stopped);
        }
        dirty_graphs.extend(due(&self.draining));
        for graph_id in dirty_graphs {
            self.advance_graph(graph_id);
        }
    }

    fn alloc_token(&mut self) -> Token {
        let token = Token(TAGGED | self.next_token);
        self.next_token += 1;
        token
    }

    /// Homes a newly deployed service: registers this shard's own accept
    /// socket (the home listener, or this shard's member of the listen
    /// group). Level-triggered, so accepts that raced the deploy are
    /// caught by the registration itself.
    fn add_service(&mut self, shared: Arc<ServiceShared>) {
        if let Some(listener) = shared.listener_on(self.shard.id()) {
            let token = self.alloc_token();
            listener.register(&self.poller, token);
            self.services.insert(
                token,
                HomedService {
                    shared,
                    pending_clients: Vec::new(),
                },
            );
        }
    }

    /// Application dispatcher: accepts everything pending on one listener,
    /// arms (or clears) its backoff retry, and builds a graph on this shard
    /// for every complete connection group. Runs on a listener event and
    /// on the retry timer.
    fn drain_listener(&mut self, token: Token) {
        let Some(entry) = self.services.get_mut(&token) else {
            return;
        };
        let exhausted = entry
            .shared
            .listener_on(self.shard.id())
            .is_some_and(|listener| {
                accept_pending(&entry.shared, listener, &mut entry.pending_clients)
            });
        if exhausted {
            self.accept_retry
                .insert(token, Instant::now() + ACCEPT_BACKOFF);
        } else {
            self.accept_retry.remove(&token);
        }
        if entry.shared.stopped() {
            return;
        }
        let service = Arc::clone(&entry.shared);
        let per_graph = service.factory.connections_per_graph().max(1);
        let mut groups: Vec<Vec<Endpoint>> = Vec::new();
        while entry.pending_clients.len() >= per_graph {
            groups.push(entry.pending_clients.drain(..per_graph).collect());
        }
        for clients in groups {
            self.build_graph(&service, clients);
        }
    }

    /// Graph dispatcher: builds one graph instance over `clients` on this
    /// shard and wires it into the reactor. Its tasks are registered with
    /// the shard's scheduler under one lifecycle record posting the
    /// graph's token, and each connection with this shard's poller under
    /// its task's id — one watch, one registration per connection, for
    /// every direction the task uses it in. A registration is
    /// level-triggered: it posts the watch's token when the connection may
    /// already be ready (always, on the OS transport), and that post is
    /// the task's first run — queued after the registration itself, so no
    /// byte can arrive unobserved between the two (DESIGN.md §13). On
    /// factory failure the client connections are closed here: a factory
    /// that fails before it built a task has nothing whose `Drop` would,
    /// and a refused client must see the refusal rather than wait out its
    /// own patience.
    fn build_graph(&mut self, service: &Arc<ServiceShared>, clients: Vec<Endpoint>) {
        let refused = clients.clone();
        let Ok(built) = service.factory.build(clients, &service.env) else {
            refused.iter().for_each(Endpoint::close);
            return;
        };
        let token = self.alloc_token();
        let task_ids = built.tasks.iter().map(|(id, _)| *id).collect();
        let life = self.scheduler.register_graph(
            built.tasks,
            &built.client_tasks,
            self.poller.clone(),
            token,
        );
        service.live_graphs.fetch_add(1, Ordering::Relaxed);
        self.shard.note_graph_built();

        // The posts queue on this poller and are scheduled together on the
        // next turn, so the workers are woken once per graph, not once
        // per watch.
        for watch in &built.watchers {
            let token = Token(watch.task.0);
            watch.endpoint.register(&self.poller, token, watch.interest);
        }
        self.graphs.insert(
            token.0,
            Graph {
                service: Arc::clone(service),
                task_ids,
                life,
                watches: built.watchers,
            },
        );
    }

    /// Advances one graph's drain/teardown lifecycle, run when its last
    /// client input ended or its last task exited, or its drain deadline
    /// passed. Once the input of every client connection has ended the
    /// graph starts draining: its back-end members are released — an
    /// unopened one is never opened, and the task of an opened one stops
    /// reading, so it is scheduled once more — and [`DRAIN_GRACE`] bounds
    /// a non-quiescent graph. The other tasks are left to what they wait
    /// for: a released member's task finishes its read side, and the close
    /// that ends a connection's channel (the last read side's) wakes the
    /// task that writes it, which flushes and finishes. The graph is torn
    /// down when all tasks are gone, or by force when the grace expired.
    fn advance_graph(&mut self, graph_id: u64) {
        let Some(graph) = self.graphs.get(&graph_id) else {
            return;
        };
        if graph.life.clients_left() > 0 {
            return;
        }
        let deadline = *self.draining.entry(graph_id).or_insert_with(|| {
            for watch in &graph.watches {
                if watch.endpoint.release(watch.interest.is_readable()) {
                    self.scheduler.schedule(watch.task);
                }
            }
            Instant::now() + DRAIN_GRACE
        });
        if graph.life.tasks_left() == 0 {
            self.teardown_graph(graph_id, false);
        } else if Instant::now() >= deadline {
            self.teardown_graph(graph_id, true);
        }
    }

    /// Removes a graph from the reactor and the scheduler and settles its
    /// counters — the one teardown path, whether the graph drained, its
    /// grace expired, its service stopped or the platform is shutting down.
    /// Its back-end members are retired once their watches are gone: a
    /// cleanly framed one is parked in its pool, any other closed, and
    /// every one closed when the teardown is `forced` (any but a drained
    /// graph's).
    fn teardown_graph(&mut self, graph_id: u64, forced: bool) {
        let Some(graph) = self.graphs.remove(&graph_id) else {
            return;
        };
        self.draining.remove(&graph_id);
        // Deregistered before a member is parked: a parked connection is
        // registered with no poller, so a graph on any shard may check it
        // out and register it with its own.
        for watch in &graph.watches {
            watch.endpoint.deregister();
        }
        // A removal counts the task out, and may post the graph's token
        // once more: it finds no graph and is dropped.
        for task in &graph.task_ids {
            self.scheduler.remove(*task);
        }
        for watch in graph.watches {
            watch.endpoint.retire(forced);
        }
        // Wakes deferred by what the removed tasks held; their targets
        // were in this graph, so most are gone already.
        for task in crate::task::take_deferred_wakes() {
            self.scheduler.schedule(task);
        }
        RuntimeMetrics::add(&self.scheduler.metrics().graphs_destroyed, 1);
        graph.service.live_graphs.fetch_sub(1, Ordering::Relaxed);
    }

    /// Drops every service matching `doomed` that accepts on this shard
    /// (closing its listeners) and tears down its graphs owned here: the
    /// service-stop sweep, and with an always-true predicate the shutdown
    /// path.
    fn teardown_where(&mut self, doomed: impl Fn(&ServiceShared) -> bool) {
        let shard = self.shard.id();
        self.services.retain(|token, entry| {
            if !doomed(&entry.shared) {
                return true;
            }
            self.accept_retry.remove(token);
            if let Some(listener) = entry.shared.listener_on(shard) {
                listener.deregister();
            }
            entry.shared.close();
            false
        });
        let graph_ids: Vec<u64> = self
            .graphs
            .iter()
            .filter(|(_, graph)| doomed(&graph.service))
            .map(|(id, _)| *id)
            .collect();
        for graph_id in graph_ids {
            self.teardown_graph(graph_id, true);
        }
    }
}

/// Handle to a deployed service; stopping it tears the service down on
/// every shard.
pub struct DeployedService {
    port: u16,
    shared: Arc<ServiceShared>,
    set: Arc<ShardSet>,
}

impl std::fmt::Debug for DeployedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeployedService")
            .field("name", &self.shared.name)
            .field("port", &self.port)
            .field("home_shard", &self.shared.home_shard)
            .finish()
    }
}

impl DeployedService {
    /// Creates the handle (platform-internal).
    pub(crate) fn new(port: u16, shared: Arc<ServiceShared>, set: Arc<ShardSet>) -> Self {
        DeployedService { port, shared, set }
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The port the service listens on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The shard a single-listener service accepts on (one whose graph
    /// groups several connections); a service with one listener per shard
    /// accepts on every shard.
    pub fn home_shard(&self) -> usize {
        self.shared.home_shard
    }

    /// Number of client connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.connections_accepted.load(Ordering::Relaxed)
    }

    /// Number of task-graph instances currently alive (across all shards).
    pub fn live_graphs(&self) -> u64 {
        self.shared.live_graphs.load(Ordering::Relaxed)
    }

    /// Stops the service: closes its listener immediately (new connections
    /// are refused from this call on) and its idle back-end connections,
    /// and asks every shard to tear down the service's graphs — closing
    /// their back-end connections too — on its next control event.
    pub fn stop(&mut self) {
        self.shared.stopped.store(true, Ordering::Release);
        self.shared.close();
        self.set.post_control_all();
    }
}

impl Drop for DeployedService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RuntimeError;
    use crate::graph::{GraphBuilder, Peer, Reads};
    use crate::link::Link;
    use crate::platform::{BuiltGraph, Platform, PlatformConfig, ServiceSpec};
    use crate::tasks::{ComputeLogic, Outputs};
    use crate::value::Value;
    use flick_grammar::http::{self, HttpCodec};
    use std::sync::atomic::AtomicUsize;

    /// A tiny static web server: replies 200 with a fixed body to every
    /// request (the paper's "static web server" variant of the HTTP use
    /// case, used here to exercise the whole dispatch path).
    struct StaticServerFactory;

    struct RespondLogic;
    impl ComputeLogic for RespondLogic {
        fn on_value(
            &mut self,
            _input: usize,
            value: Value,
            out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            if value.as_msg().is_some() {
                out.emit(0, Value::Msg(http::response(200, b"hello from flick")));
            }
            Ok(())
        }
    }

    impl GraphFactory for StaticServerFactory {
        fn build(
            &self,
            mut clients: Vec<Endpoint>,
            env: &ServiceEnv,
        ) -> Result<BuiltGraph, RuntimeError> {
            let client = clients.pop().expect("one client connection");
            let codec = Arc::new(HttpCodec::new());
            let mut builder = GraphBuilder::new("static-web", &env.allocator);
            let node = builder.declare_node();
            let reads = Reads {
                projection: None,
                logic: Box::new(RespondLogic),
                input: 0,
            };
            builder.bind(
                node,
                "http",
                Peer::Client(&client),
                codec,
                Some(reads),
                true,
            );
            Ok(builder.build())
        }
    }

    #[test]
    fn end_to_end_static_web_server() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            ..Default::default()
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8080, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();

        // Issue three requests over one persistent connection.
        let client = net.connect(8080).unwrap();
        for i in 0..3 {
            client
                .write_all(format!("GET /{i} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = Vec::new();
            let mut buf = [0u8; 1024];
            loop {
                match client.read_timeout(&mut buf, Duration::from_secs(5)) {
                    Ok(n) => {
                        response.extend_from_slice(&buf[..n]);
                        if response.windows(16).any(|w| w == b"hello from flick") {
                            break;
                        }
                    }
                    Err(e) => panic!("request {i}: {e}"),
                }
            }
            let text = String::from_utf8_lossy(&response);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "got: {text}");
        }
        assert_eq!(service.connections_accepted(), 1);
        assert_eq!(service.live_graphs(), 1);

        // Closing the client tears the graph down.
        client.close();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            service.live_graphs(),
            0,
            "graph should be destroyed after the client closes"
        );
    }

    #[test]
    fn multiple_concurrent_connections_get_their_own_graphs() {
        let platform = Platform::new(PlatformConfig {
            workers: 4,
            ..Default::default()
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8081, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        let clients: Vec<_> = (0..8).map(|_| net.connect(8081).unwrap()).collect();
        for (i, c) in clients.iter().enumerate() {
            c.write_all(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
        }
        for c in &clients {
            let mut buf = [0u8; 1024];
            let n = c.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
            assert!(n > 0);
        }
        assert_eq!(service.connections_accepted(), 8);
        for c in &clients {
            c.close();
        }
        drop(clients);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.live_graphs(), 0);
    }

    /// The same connection fan as above, but over many shards: the accept
    /// rotation spreads the graphs, which are served correctly and torn
    /// down no matter which shard owns them.
    #[test]
    fn connections_are_served_across_shards() {
        let platform = Platform::new(PlatformConfig {
            workers: 4,
            shards: 4,
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8085, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        let clients: Vec<_> = (0..8).map(|_| net.connect(8085).unwrap()).collect();
        for (i, c) in clients.iter().enumerate() {
            c.write_all(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
        }
        for c in &clients {
            let mut buf = [0u8; 1024];
            let n = c.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
            assert!(n > 0);
        }
        // 8 connects rotate over 4 listeners: every shard built 2 graphs.
        let status = platform.shard_status();
        assert_eq!(status.len(), 4);
        assert!(
            status.iter().all(|s| s.graphs_built == 2),
            "the accept rotation must reach every shard evenly: {status:?}"
        );
        for c in &clients {
            c.close();
        }
        drop(clients);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.live_graphs(), 0);
    }

    /// Satellite regression for the accept-hardening contract: a burst of
    /// `EMFILE`-class accept failures must not kill the listener. The sim
    /// listener is armed to fail the next several accepts with
    /// `NetError::Resources` *without* consuming its backlog — exactly
    /// the shape of fd exhaustion on the OS transport — and the
    /// dispatcher has to back off, retry, and eventually serve both the
    /// connection stranded behind the burst and ones arriving after it.
    #[test]
    fn accept_resource_exhaustion_does_not_kill_the_listener() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            ..Default::default()
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8087, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        assert!(net.inject_accept_faults(8087, 6), "listener must be bound");

        // This connection lands in the backlog while every accept fails.
        let stranded = net.connect(8087).unwrap();
        stranded
            .write_all(b"GET /stranded HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 1024];
        let n = stranded
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert!(n > 0, "connection behind the fault burst must be served");
        assert!(
            service
                .shared
                .accept_resource_errors
                .load(Ordering::Relaxed)
                > 0,
            "the fault burst must have been observed as Resources errors"
        );

        // The listener survived: a fresh connection is also served.
        let later = net.connect(8087).unwrap();
        later
            .write_all(b"GET /later HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let n = later
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert!(n > 0, "listener must keep serving after the burst");
        assert_eq!(service.connections_accepted(), 2);
    }

    /// A factory that fails before it built a task: nothing it dropped
    /// closes the client, so the dispatcher must.
    struct RefusingFactory;

    impl GraphFactory for RefusingFactory {
        fn build(
            &self,
            _clients: Vec<Endpoint>,
            _env: &ServiceEnv,
        ) -> Result<BuiltGraph, RuntimeError> {
            Err(RuntimeError::Config("refused".into()))
        }
    }

    #[test]
    fn a_refused_client_is_closed_not_left_hanging() {
        let platform = Platform::new(PlatformConfig::default());
        let service = platform
            .deploy(ServiceSpec::new("refuse", 8091, Arc::new(RefusingFactory)))
            .unwrap();
        let client = platform.net().connect(8091).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(
            client.read_timeout(&mut buf, Duration::from_secs(5)),
            Err(NetError::Closed)
        );
        assert_eq!(service.live_graphs(), 0);
    }

    #[test]
    fn stop_terminates_the_dispatcher_and_unbinds_nothing_else() {
        let platform = Platform::new(PlatformConfig::default());
        let mut service = platform
            .deploy(ServiceSpec::new("web", 8082, Arc::new(StaticServerFactory)))
            .unwrap();
        service.stop();
        // After stop, new connections are refused because the listener closed.
        assert!(platform.net().connect(8082).is_err());
    }

    /// The headline property of the reactor: an idle deployed service
    /// touches no endpoint between events. The dispatcher blocks in
    /// `Poller::wait` while a connected-but-silent client sits for 100 ms,
    /// so no `Endpoint::read` fires.
    #[test]
    fn idle_service_performs_no_endpoint_scans() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            ..Default::default()
        });
        let _service = platform
            .deploy(ServiceSpec::new("web", 8083, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        let client = net.connect(8083).unwrap();
        // One request/response round-trip so the graph is fully
        // instantiated and its task has drained to WouldBlock.
        client
            .write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 1024];
        client
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        // Let in-flight wakeups settle before measuring.
        std::thread::sleep(Duration::from_millis(20));
        let before = net.stats().snapshot();
        std::thread::sleep(Duration::from_millis(100));
        let after = net.stats().snapshot();
        assert_eq!(
            after.read_calls, before.read_calls,
            "idle dispatcher must not issue reads"
        );
    }

    /// One shard's reactor, driven by the test thread instead of its own,
    /// with `factory` deployed on `listener` over `net`.
    fn hand_driven(
        listener: Listener,
        net: Arc<flick_net::SimNetwork>,
        factory: Arc<dyn GraphFactory>,
    ) -> (ShardReactor, Arc<ServiceShared>, Arc<RuntimeMetrics>) {
        use crate::scheduler::StealGroup;
        use crate::task::TIMESLICE;

        let metrics = RuntimeMetrics::new_shared();
        let scheduler = Arc::new(Scheduler::start_sharded(
            2,
            TIMESLICE,
            Arc::clone(&metrics),
            &StealGroup::new(),
            0,
        ));
        let shard = Arc::new(Shard::new(0, scheduler));
        let set = ShardSet::new(vec![Arc::clone(&shard)]);
        let env = ServiceEnv {
            net,
            backends: crate::BackendPool::new(Vec::new(), Arc::clone(&metrics)),
            allocator: Arc::new(crate::graph::TaskIdAllocator::new()),
            exec_mode: Default::default(),
        };
        let service = Arc::new(ServiceShared::new(
            "hand".into(),
            vec![listener],
            factory,
            env,
            0,
        ));
        (ShardReactor::new(set, shard), service, metrics)
    }

    /// A watch's first run is its connection's first readiness, delivered
    /// on the dispatcher's next turn: building a graph over an idle kernel
    /// connection runs nothing, not even on the turn after (a registration
    /// posts only what is ready), and the request's arrival runs the
    /// connection's one task once, for both directions, and there is no
    /// other task. The test drives one shard's reactor by hand, so which
    /// turn ran what is not a race.
    #[test]
    fn each_watched_task_gets_one_first_run() {
        use flick_net::{SimNetwork, StackModel, TcpStack};

        let stack = TcpStack::new();
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let client = stack
            .connect(&format!("127.0.0.1:{}", listener.port()))
            .unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        let (mut reactor, service, metrics) = hand_driven(
            Listener::from(listener),
            SimNetwork::new(StackModel::Free),
            Arc::new(StaticServerFactory),
        );
        let runs = || metrics.snapshot().task_runs;
        let settle = || std::thread::sleep(Duration::from_millis(50));

        reactor.build_graph(&service, vec![server]);
        settle();
        assert_eq!(runs(), 0, "the build itself schedules nothing");
        let events = reactor.poller.wait(Duration::from_millis(50));
        assert!(events.is_empty(), "an idle connection posts nothing");
        client
            .write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let events = reactor.poller.wait(Duration::from_secs(5));
        reactor.turn(events);
        let deadline = Instant::now() + Duration::from_secs(5);
        while runs() < 1 {
            assert!(Instant::now() < deadline, "the first run never happened");
            std::thread::sleep(Duration::from_millis(1));
        }
        settle();
        assert_eq!(runs(), 1, "one first run per watch");
        reactor.teardown_where(|_| true);
    }

    /// Two client inputs with nothing to answer on (no request ever
    /// arrives, so `RespondLogic` never emits).
    struct PairFactory;

    impl GraphFactory for PairFactory {
        fn connections_per_graph(&self) -> usize {
            2
        }

        fn build(
            &self,
            clients: Vec<Endpoint>,
            env: &ServiceEnv,
        ) -> Result<BuiltGraph, RuntimeError> {
            let codec = Arc::new(HttpCodec::new());
            let mut builder = GraphBuilder::new("pair", &env.allocator);
            for (input, client) in clients.iter().enumerate() {
                let node = builder.declare_node();
                let reads = Reads {
                    projection: None,
                    logic: Box::new(RespondLogic),
                    input,
                };
                let peer = Peer::Client(client);
                builder.bind(node, "pair", peer, codec.clone(), Some(reads), false);
            }
            Ok(builder.build())
        }
    }

    /// A watch's token is its task's id, so an event for a task that has
    /// exited is a scheduling miss: it runs nothing, and the graph still
    /// drains and tears down when its last client goes. A teardown's own
    /// removals post the gone graph's token, which the next turn drops.
    #[test]
    fn an_event_for_an_exited_task_runs_nothing() {
        use flick_net::{Readiness, SimNetwork, StackModel};

        let net = SimNetwork::new(StackModel::Free);
        let listener = Listener::from(net.listen(8092).unwrap());
        let (mut reactor, service, metrics) =
            hand_driven(listener, Arc::clone(&net), Arc::new(PairFactory));
        let front = net.listen(8093).unwrap();
        let pair = || {
            let client = net.connect(8093).unwrap();
            (client, front.accept().unwrap())
        };
        let runs = || metrics.snapshot().task_runs;
        let settle = || std::thread::sleep(Duration::from_millis(50));
        let drive_until =
            |reactor: &mut ShardReactor, what: &str, done: &dyn Fn(&ShardReactor) -> bool| {
                let deadline = Instant::now() + Duration::from_secs(5);
                while !done(reactor) {
                    assert!(Instant::now() < deadline, "{what}");
                    let events = reactor.poller.wait(Duration::from_millis(10));
                    reactor.turn(events);
                }
            };

        let (first, first_server) = pair();
        let (second, second_server) = pair();
        reactor.build_graph(&service, vec![first_server, second_server]);
        let graph_id = *reactor.graphs.keys().next().expect("the graph was built");
        let first_input = reactor.graphs[&graph_id].watches[0].task;
        let tasks_left = |reactor: &ShardReactor| reactor.graphs[&graph_id].life.tasks_left();

        // The first client leaves: its task exits, one client is left.
        first.close();
        drive_until(&mut reactor, "the first input never exited", &|r| {
            tasks_left(r) == 1
        });
        settle();
        let before = runs();
        reactor
            .poller
            .post(Token(first_input.0), Readiness::readable());
        let events = reactor.poller.wait(Duration::from_secs(1));
        assert!(events.iter().any(|e| e.token == Token(first_input.0)));
        reactor.turn(events);
        settle();
        assert_eq!(runs(), before, "an exited task's event runs nothing");
        assert!(!reactor.draining.contains_key(&graph_id));

        // The second client leaves: the graph drains and tears down.
        second.close();
        drive_until(&mut reactor, "the graph never tore down", &|r| {
            r.graphs.is_empty()
        });
        assert_eq!(service.live_graphs.load(Ordering::Relaxed), 0);
        assert_eq!(reactor.scheduler.task_count(), 0);

        // A forced teardown removes live tasks, and each removal counts
        // out of the record that is gone with its graph.
        let (_third, third_server) = pair();
        let (_fourth, fourth_server) = pair();
        reactor.build_graph(&service, vec![third_server, fourth_server]);
        reactor.teardown_where(|_| true);
        settle();
        let before = runs();
        let events = reactor.poller.wait(Duration::from_millis(10));
        reactor.turn(events);
        settle();
        assert_eq!(runs(), before);
        assert!(reactor.graphs.is_empty());
        assert_eq!(reactor.scheduler.task_count(), 0);
        let metrics = metrics.snapshot();
        assert_eq!((metrics.graphs_created, metrics.graphs_destroyed), (2, 2));
    }

    /// `stop` with live traffic: every shard's sweep tears down the
    /// graphs it owns, each graph settles its counters exactly once, and
    /// the clients see their connections close.
    #[test]
    fn stop_tears_down_live_graphs_on_every_shard() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            shards: 2,
        });
        let mut service = platform
            .deploy(ServiceSpec::new("web", 8088, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        let clients: Vec<_> = (0..4).map(|_| net.connect(8088).unwrap()).collect();
        let mut buf = [0u8; 1024];
        for c in &clients {
            c.write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut response = Vec::new();
            while !response.ends_with(b"hello from flick") {
                let n = c.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
                response.extend_from_slice(&buf[..n]);
            }
        }
        assert_eq!(service.live_graphs(), 4);
        let status = platform.shard_status();
        assert!(status.iter().all(|s| s.graphs_built == 2), "{status:?}");

        service.stop();
        let deadline = Instant::now() + Duration::from_secs(5);
        while (service.live_graphs() > 0 || platform.task_count() > 0) && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.live_graphs(), 0);
        assert_eq!(platform.task_count(), 0);
        let metrics = platform.metrics().snapshot();
        assert_eq!(metrics.graphs_created, 4);
        assert_eq!(metrics.graphs_destroyed, metrics.graphs_created);
        for c in &clients {
            assert_eq!(
                c.read_timeout(&mut buf, Duration::from_secs(5)),
                Err(NetError::Closed),
                "a stopped service must close its client connections"
            );
        }
    }

    const AGGREGATE_LEN: usize = 16 * 1024;

    /// A foldt-shaped service: two client inputs, the last of which to
    /// finish emits a single aggregate, written to a sink connection whose
    /// pipe is a quarter of the aggregate.
    struct FoldToSinkFactory {
        sink_port: u16,
    }

    /// One input's share of the fold: the inputs still open, shared.
    struct FoldLogic {
        open_inputs: Arc<AtomicUsize>,
    }

    impl ComputeLogic for FoldLogic {
        fn on_value(
            &mut self,
            _input: usize,
            _value: Value,
            _out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            Ok(())
        }

        fn on_input_finished(
            &mut self,
            _input: usize,
            out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            if self.open_inputs.fetch_sub(1, Ordering::AcqRel) == 1 {
                out.emit(0, Value::Bytes(vec![b'a'; AGGREGATE_LEN].into()));
            }
            Ok(())
        }
    }

    impl GraphFactory for FoldToSinkFactory {
        fn connections_per_graph(&self) -> usize {
            2
        }

        fn build(
            &self,
            clients: Vec<Endpoint>,
            env: &ServiceEnv,
        ) -> Result<BuiltGraph, RuntimeError> {
            let sink = env.net.connect_with(
                self.sink_port,
                &flick_net::listener::ConnectOptions {
                    capacity: Some(AGGREGATE_LEN / 4),
                    ..Default::default()
                },
            )?;
            let codec = Arc::new(HttpCodec::new());
            let mut builder = GraphBuilder::new("fold", &env.allocator);
            let sink_node = builder.declare_node();
            let sink = Link::checked_out(sink);
            let peer = Peer::Backend(&sink);
            builder.bind(sink_node, "sink", peer, codec.clone(), None, true);
            let open_inputs = Arc::new(AtomicUsize::new(clients.len()));
            for (input, client) in clients.iter().enumerate() {
                let node = builder.declare_node();
                let reads = Reads {
                    projection: None,
                    logic: Box::new(FoldLogic {
                        open_inputs: Arc::clone(&open_inputs),
                    }),
                    input,
                };
                let peer = Peer::Client(client);
                builder.bind(node, "mapper", peer, codec.clone(), Some(reads), false);
            }
            Ok(builder.build())
        }
    }

    /// The drain leaves a written connection to its task. The client
    /// inputs finish while the sink's peer is stalled against a full pipe,
    /// so the graph starts draining with its aggregate still unflushed;
    /// the sink connection has to survive that and deliver every byte once
    /// the peer reads.
    #[test]
    fn draining_graph_still_flushes_to_a_stalled_sink() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            ..Default::default()
        });
        let net = platform.net();
        let sink_listener = net.listen(8090).unwrap();
        let service = platform
            .deploy(ServiceSpec::new(
                "fold",
                8089,
                Arc::new(FoldToSinkFactory { sink_port: 8090 }),
            ))
            .unwrap();
        for _ in 0..2 {
            let client = net.connect(8089).unwrap();
            client
                .write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            client.close();
        }
        let sink = sink_listener
            .accept_timeout(Duration::from_secs(5))
            .unwrap();
        // Both inputs have finished and the sink's task has filled the
        // pipe; nobody reads the sink yet.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.pending() < AGGREGATE_LEN / 4 {
            assert!(
                Instant::now() < deadline,
                "aggregate never reached the sink"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(service.live_graphs(), 1, "the graph is draining, not gone");

        let mut received = 0;
        let mut buf = [0u8; 4096];
        loop {
            match sink.read_timeout(&mut buf, Duration::from_secs(5)) {
                Ok(n) => received += n,
                Err(NetError::Closed) => break,
                Err(e) => panic!("sink read failed after {received} bytes: {e}"),
            }
        }
        assert_eq!(received, AGGREGATE_LEN, "the whole aggregate must arrive");
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.live_graphs(), 0);
    }
}
