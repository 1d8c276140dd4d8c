//! What a graph's connection task is bound to: a client connection, or a
//! member of the service's back-end pool (DESIGN.md §14).
//!
//! A back-end link is a *member*: one index of the service's
//! [`BackendPool`], with one slot its connection task and its one
//! readiness watch share — `Unbound | Bound(Endpoint) | Closed`, plus the
//! `(poller, token, interest)` the dispatcher recorded for the watch at
//! build. A scalar back-end parameter is bound at build
//! ([`Link::checkout`]). An array member starts unbound, because a request
//! usually reaches one member: the first non-empty flush to it (another
//! task's inline write, or its own task's write side) opens it through
//! [`BackendPool::checkout`] — the one open-and-account point, so the
//! checkout and its health outcome are recorded then — and registers the
//! recorded watch, both under the slot's lock.
//!
//! A graph ends its members in two steps, under the same lock. Drain
//! *releases* a member ([`Link::release`]): an unopened one is closed and
//! never opened, an opened one stays open while its task finishes. The
//! task then records how its two sides ended, in one call
//! ([`Link::finish`]): how many messages its write side wrote in full, how
//! many its read side parsed, and whether the codec says the last of each
//! keeps the connection open — `Unclean` if it left bytes unflushed or
//! half-parsed. Teardown *retires* the member ([`Link::retire`]) once no
//! task is left: a released connection whose every request has its
//! response, on which the task ended clean, goes back to the pool for the
//! next checkout ([`BackendPool::park`]); any other is closed. A task that
//! fails — an I/O error, EOF, a malformed stream — closes the member
//! instead, and a forced teardown closes whatever was recorded. So a
//! member is never opened after its graph began draining, never
//! registered twice, and never parked unless it is cleanly framed.
//!
//! A failed open refuses the graph's clients: their connections are closed,
//! as when a graph fails to build, so a request routed to a dead member
//! ends promptly instead of waiting out the client's patience, while
//! requests routed to live members are served.

use crate::error::RuntimeError;
use crate::pool::BackendPool;
use flick_net::{Endpoint, Interest, NetError, Poller, Token};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The connection a connection task reads or writes, as handed to
/// [`crate::GraphBuilder`] and recorded in a [`crate::Watch`]. Cheap to
/// clone; clones share the connection (and a member's slot).
#[derive(Clone)]
pub struct Link(Kind);

#[derive(Clone)]
enum Kind {
    /// A client connection, left to its task until it ends.
    Client(Endpoint),
    /// A member of the service's back-end pool, with its connection once
    /// this clone adopted it.
    Member(Arc<Member>, Option<Endpoint>),
}

struct Member {
    pool: Arc<BackendPool>,
    index: usize,
    /// The graph's client connections, closed when the open fails.
    clients: Arc<[Endpoint]>,
    /// Raised by [`Link::release`] under the slot lock; a read side reads
    /// it on every run without taking the lock.
    released: AtomicBool,
    slot: Mutex<Slot>,
}

struct Slot {
    state: State,
    /// Watches recorded while unbound; the open registers them.
    watches: Vec<(Poller, Token, Interest)>,
    /// Recorded by a task that ended cleanly framed with every message it
    /// wrote answered: teardown may park the connection.
    parkable: bool,
}

enum State {
    Unbound,
    Bound(Endpoint),
    /// Closed, parked, or never opened before the graph drained.
    Closed,
}

/// Whether a task's link has a connection to use yet.
pub(crate) enum Settled {
    /// [`Link::open_endpoint`] now returns the connection.
    Open,
    /// A member nobody has sent to yet.
    Unbound,
    /// Closed (or failed) — the task finishes.
    Closed,
    /// Released by the graph's drain: the read side finishes without
    /// reading on.
    Released,
}

/// How a task's two sides of a member ended, recorded by [`Link::finish`].
#[derive(Clone, Copy)]
pub(crate) enum Ended {
    /// The task wrote `sent` messages in full and parsed `received`,
    /// holding no partial one; its codec says the last of each keeps the
    /// connection open.
    Framed { sent: u64, received: u64 },
    /// Anything else: the connection is closed.
    Unclean,
}

impl Link {
    /// A client connection ([`crate::Peer::Client`]).
    pub(crate) fn client(endpoint: &Endpoint) -> Self {
        Link(Kind::Client(endpoint.clone()))
    }

    /// Member `index` of `pool`, opened on the first send to it. A failed
    /// open closes `clients`, the connections of the graph it belongs to.
    pub fn member(pool: Arc<BackendPool>, index: usize, clients: Arc<[Endpoint]>) -> Self {
        Self::with_state(pool, index, clients, State::Unbound)
    }

    /// A routed, healthy member of `pool`, checked out now
    /// ([`BackendPool::checkout_healthy`] with `hint`).
    pub fn checkout(pool: Arc<BackendPool>, hint: Option<usize>) -> Result<Self, RuntimeError> {
        let (index, endpoint) = pool.checkout_healthy(hint)?;
        Ok(Self::with_state(
            pool,
            index,
            Arc::from([]),
            State::Bound(endpoint),
        ))
    }

    fn with_state(
        pool: Arc<BackendPool>,
        index: usize,
        clients: Arc<[Endpoint]>,
        state: State,
    ) -> Self {
        Link(Kind::Member(
            Arc::new(Member {
                pool,
                index,
                clients,
                released: AtomicBool::new(false),
                slot: Mutex::new(Slot {
                    state,
                    watches: Vec::new(),
                    parkable: false,
                }),
            }),
            None,
        ))
    }

    /// `true` for a member of a back-end pool, whose connection may outlive
    /// the graph.
    pub(crate) fn is_member(&self) -> bool {
        matches!(self.0, Kind::Member(..))
    }

    /// Watches the connection per [`Endpoint::register`]; an unopened
    /// member records the watch, and its open registers it.
    pub(crate) fn register(&self, poller: &Poller, token: Token, interest: Interest) {
        match &self.0 {
            Kind::Client(ep) => ep.register(poller, token, interest),
            Kind::Member(member, _) => {
                let mut slot = member.slot.lock();
                match &slot.state {
                    State::Bound(endpoint) => endpoint.register(poller, token, interest),
                    State::Unbound => slot.watches.push((poller.clone(), token, interest)),
                    State::Closed => {}
                }
            }
        }
    }

    /// Stops watching the connection ([`Endpoint::deregister`]); an
    /// unopened member forgets its recorded watch, so a later open cannot
    /// register it.
    pub(crate) fn deregister(&self) {
        match &self.0 {
            Kind::Client(endpoint) => endpoint.deregister(),
            Kind::Member(member, _) => {
                let mut slot = member.slot.lock();
                match &slot.state {
                    State::Bound(endpoint) => endpoint.deregister(),
                    State::Unbound | State::Closed => slot.watches.clear(),
                }
            }
        }
    }

    /// Closes the connection: a failure, or a graph that is done with it.
    /// An unopened member is never opened after this.
    pub(crate) fn close(&self) {
        match &self.0 {
            Kind::Client(endpoint) => endpoint.close(),
            Kind::Member(member, _) => member.slot.lock().retire(member, false),
        }
    }

    /// `true` for a member its graph's drain released: nothing written to
    /// it from now on could be answered.
    pub(crate) fn is_released(&self) -> bool {
        matches!(&self.0, Kind::Member(member, _) if member.released.load(Ordering::Acquire))
    }

    /// The graph's drain, on a connection whose task `reads` it: whether
    /// that task must look (`true`). A member is released — never opened
    /// if it was not yet, left open for its task to finish on if it was. A
    /// client connection is left to its task, which closes it when it ends.
    pub(crate) fn release(&self, reads: bool) -> bool {
        let Kind::Member(member, _) = &self.0 else {
            return false;
        };
        let mut slot = member.slot.lock();
        member.released.store(true, Ordering::Release);
        if matches!(slot.state, State::Unbound) {
            slot.retire(member, false);
        }
        reads
    }

    /// A task is done with the link. On a released member it records how
    /// the task's two sides ended, for the teardown to judge; anything else
    /// is closed.
    pub(crate) fn finish(&self, ended: Ended) {
        match (&self.0, ended) {
            (Kind::Member(member, _), Ended::Framed { sent, received }) if self.is_released() => {
                member.slot.lock().parkable = sent == received;
            }
            _ => self.close(),
        }
    }

    /// The graph's teardown, once no task is left: parks a released member
    /// whose every message written has its answer parsed, its task having
    /// ended clean — unless `force`d — and closes any other. A client
    /// connection is left to its task.
    pub(crate) fn retire(&self, force: bool) {
        if let Kind::Member(member, _) = &self.0 {
            let mut slot = member.slot.lock();
            let clean = !force && self.is_released() && slot.parkable;
            slot.retire(member, clean);
        }
    }

    /// The connection of a settled link: always for a client, for a member
    /// once [`Link::settle`] or [`Link::connect`] adopted it.
    pub(crate) fn open_endpoint(&self) -> Option<&Endpoint> {
        match &self.0 {
            Kind::Client(endpoint) => Some(endpoint),
            Kind::Member(_, adopted) => adopted.as_ref(),
        }
    }

    /// The read side: whether the task reads on, and a member's
    /// connection adopted once someone opened it, so later runs skip the
    /// slot. One atomic load per run once adopted.
    pub(crate) fn settle(&mut self) -> Settled {
        let Kind::Member(member, adopted) = &mut self.0 else {
            return Settled::Open;
        };
        if member.released.load(Ordering::Acquire) {
            return Settled::Released;
        }
        if adopted.is_some() {
            return Settled::Open;
        }
        match &member.slot.lock().state {
            State::Bound(endpoint) => *adopted = Some(endpoint.clone()),
            State::Unbound => return Settled::Unbound,
            State::Closed => return Settled::Closed,
        }
        Settled::Open
    }

    /// The write side: the connection to send on, opening an unbound
    /// member first.
    pub(crate) fn connect(&mut self) -> Result<&Endpoint, RuntimeError> {
        match &mut self.0 {
            Kind::Client(endpoint) => Ok(endpoint),
            Kind::Member(member, adopted) => match adopted {
                Some(endpoint) => Ok(endpoint),
                None => Ok(adopted.insert(member.open()?)),
            },
        }
    }
}

impl Member {
    fn open(&self) -> Result<Endpoint, RuntimeError> {
        let mut slot = self.slot.lock();
        match &slot.state {
            State::Bound(endpoint) => return Ok(endpoint.clone()),
            State::Closed => return Err(NetError::Closed.into()),
            // Drain releases an unbound member into `Closed` under this
            // lock, so an unbound member here is not draining.
            State::Unbound => {}
        }
        match self.pool.checkout(self.index) {
            Ok(endpoint) => {
                for (poller, token, interest) in slot.watches.drain(..) {
                    endpoint.register(&poller, token, interest);
                }
                slot.state = State::Bound(endpoint.clone());
                Ok(endpoint)
            }
            Err(err) => {
                slot.retire(self, false);
                drop(slot);
                self.clients.iter().for_each(Endpoint::close);
                Err(err)
            }
        }
    }
}

impl Slot {
    /// Ends the member's connection — parked in the pool when `park`,
    /// closed otherwise. Nothing opens the member after this.
    fn retire(&mut self, member: &Member, park: bool) {
        self.watches.clear();
        if let State::Bound(endpoint) = std::mem::replace(&mut self.state, State::Closed) {
            if park {
                member.pool.park(member.index, endpoint);
            } else {
                endpoint.close();
            }
        }
    }
}

/// How a test binds a back-end connection it opened itself, on a link of
/// its choosing: as member 0 of a pool of its own, bound to it as a
/// checkout binds a scalar back-end at build.
#[cfg(test)]
impl Link {
    pub(crate) fn checked_out(endpoint: Endpoint) -> Self {
        use crate::metrics::RuntimeMetrics;
        use crate::pool::BackendTarget;
        // Never dialled: the member is bound already.
        let target = BackendTarget::Sim {
            net: flick_net::SimNetwork::new(flick_net::StackModel::Free),
            port: 0,
        };
        let pool = BackendPool::new(vec![target], RuntimeMetrics::new_shared());
        Self::with_state(pool, 0, Arc::from([]), State::Bound(endpoint))
    }
}

impl Drop for Member {
    /// A member nothing refers to any more was never torn down — its
    /// graph failed to build after checking it out: it is closed.
    fn drop(&mut self) {
        let slot = self.slot.get_mut();
        if let State::Bound(endpoint) = std::mem::replace(&mut slot.state, State::Closed) {
            endpoint.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RuntimeMetrics;
    use crate::pool::{BackendTarget, EJECT_AFTER};
    use flick_net::{SimNetwork, StackModel};
    use std::time::Duration;

    fn pool(net: &Arc<SimNetwork>, ports: &[u16]) -> (Arc<BackendPool>, Arc<RuntimeMetrics>) {
        let metrics = RuntimeMetrics::new_shared();
        let targets = ports
            .iter()
            .map(|&port| BackendTarget::Sim {
                net: Arc::clone(net),
                port,
            })
            .collect();
        (BackendPool::new(targets, Arc::clone(&metrics)), metrics)
    }

    /// A recorded watch is registered by the open, so bytes the back-end
    /// sends afterwards wake it; nothing is opened or counted before.
    #[test]
    fn the_first_send_opens_the_member_and_registers_its_watches() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(9401).unwrap();
        let (pool, metrics) = pool(&net, &[9401]);
        let link = Link::member(pool, 0, Arc::from([]));
        let poller = Poller::new();
        link.register(&poller, Token(7), Interest::READABLE);
        assert_eq!(listener.backlog(), 0);
        assert_eq!(metrics.snapshot().backend_checkouts, 0);

        let mut sender = link.clone();
        sender.connect().unwrap().write(b"ping").unwrap();
        assert_eq!(metrics.snapshot().backend_checkouts, 1);
        let server = listener.accept().unwrap();
        server.write(b"pong").unwrap();
        let events = poller.wait(Duration::from_secs(1));
        assert!(events.iter().any(|e| e.token == Token(7)), "{events:?}");

        let mut reader = link.clone();
        assert!(matches!(reader.settle(), Settled::Open));
        let mut buf = [0u8; 4];
        assert_eq!(reader.open_endpoint().unwrap().read(&mut buf), Ok(4));
        // A second send reuses the connection.
        sender.connect().unwrap();
        assert_eq!(metrics.snapshot().backend_checkouts, 1);
    }

    /// Released before the first send (the graph began draining): the
    /// member is never opened, and its input side finishes.
    #[test]
    fn a_member_closed_before_its_first_send_is_never_opened() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(9402).unwrap();
        let (pool, metrics) = pool(&net, &[9402]);
        let mut link = Link::member(pool, 0, Arc::from([]));
        link.release(true);
        assert!(link.connect().is_err());
        assert!(matches!(link.settle(), Settled::Released));
        assert_eq!(listener.backlog(), 0);
        assert_eq!(metrics.snapshot().backend_checkouts, 0);
    }

    /// The drain leaves a client connection to its task: nothing to look
    /// at, and the connection stays open.
    #[test]
    fn the_drain_leaves_a_client_connection_to_its_task() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(9406).unwrap();
        let client = net.connect(9406).unwrap();
        let _peer = listener.accept().unwrap();
        assert!(!Link::client(&client).release(true));
        assert!(!client.is_closed());
    }

    /// A failed open is one counted checkout fed to passive health, and it
    /// closes the graph's clients.
    #[test]
    fn a_failed_open_refuses_the_clients_and_feeds_health() {
        let net = SimNetwork::new(StackModel::Free);
        let _front = net.listen(9403).unwrap();
        let client = net.connect(9403).unwrap();
        let (pool, metrics) = pool(&net, &[9404]); // nothing listens on 9404
        let mut link = Link::member(Arc::clone(&pool), 0, Arc::from([client.clone()]));
        assert!(link.connect().is_err());
        assert!(client.is_closed());
        let snap = metrics.snapshot();
        assert_eq!((snap.backend_checkouts, snap.backend_retries), (1, 0));
        // The slot stays closed: a second send does not connect again.
        assert!(link.clone().connect().is_err());
        assert_eq!(metrics.snapshot().backend_checkouts, 1);
        for _ in 1..EJECT_AFTER {
            let mut again = Link::member(Arc::clone(&pool), 0, Arc::from([]));
            assert!(again.connect().is_err());
        }
        assert!(pool.is_ejected(0), "EJECT_AFTER failures eject it");
    }

    /// A member opened and released, as a graph drains it: its task
    /// records how its two sides ended, and `finish` closes nothing.
    fn released_member(net: &Arc<SimNetwork>, port: u16) -> (Link, Endpoint, Arc<BackendPool>) {
        let listener = net.listen(port).unwrap();
        let (pool, _) = pool(net, &[port]);
        let mut link = Link::member(Arc::clone(&pool), 0, Arc::from([]));
        let endpoint = link.connect().unwrap().clone();
        listener.accept().unwrap();
        assert!(link.release(true), "a released member's reader must look");
        assert!(link.is_released(), "a task's drop leaves it open");
        assert!(!endpoint.is_closed());
        (link, endpoint, pool)
    }

    /// Teardown parks a released member whose every request has its
    /// response and closes any other: one left unanswered, an unclean
    /// end, a member whose task never finished, or a forced teardown.
    #[test]
    fn teardown_parks_only_a_cleanly_framed_member() {
        let net = SimNetwork::new(StackModel::Free);
        let framed = |sent, received| Some(Ended::Framed { sent, received });
        let cases: [(Option<Ended>, bool, bool); 5] = [
            (framed(2, 2), false, true),
            (framed(2, 1), false, false),
            (Some(Ended::Unclean), false, false),
            (None, false, false),
            (framed(1, 1), true, false),
        ];
        for (port, (ended, force, parked)) in (9405..).zip(cases) {
            let (link, endpoint, pool) = released_member(&net, port);
            if let Some(ended) = ended {
                link.finish(ended);
            }
            link.retire(force);
            assert_eq!(pool.idle(0) == 1, parked, "port {port}");
            assert_eq!(endpoint.is_closed(), !parked, "port {port}");
        }
    }
}
