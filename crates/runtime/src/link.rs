//! What a graph's edge task is bound to: a connection opened when the graph
//! was built, or a member of an array back-end parameter, opened on the
//! first send to it (DESIGN.md §14).
//!
//! An array back-end parameter binds every member of the service's
//! [`BackendPool`] by index, but a request usually reaches one. So a member
//! starts without a socket. Its input task, its output task and their two
//! readiness watches share one slot, `Unbound | Bound(Endpoint) | Closed`,
//! plus the `(poller, token, interest)` the dispatcher recorded for each
//! watch at build. The output task's first non-empty flush opens the member
//! through [`BackendPool::connect`] — the one open-and-account point, so the
//! checkout and its health outcome are recorded then — and registers the
//! recorded watches, both under the slot's lock. The dispatcher's drain and
//! teardown close and deregister under the same lock. A member is therefore
//! never opened after its graph began draining and never registered twice.
//!
//! A failed open refuses the graph's clients: their connections are closed,
//! as when a graph fails to build, so a request routed to a dead member
//! ends promptly instead of waiting out the client's patience, while
//! requests routed to live members are served.

use crate::error::RuntimeError;
use crate::pool::BackendPool;
use flick_net::{Endpoint, Interest, NetError, Poller, Token};
use parking_lot::Mutex;
use std::sync::Arc;

/// The connection an input or output task reads or writes, as handed to
/// [`crate::GraphBuilder`] and recorded in a [`crate::Watch`]. Cheap to
/// clone; clones share the connection (and a member's slot).
#[derive(Clone)]
pub struct Link(Kind);

#[derive(Clone)]
enum Kind {
    /// Opened at build: a client, or a scalar back-end.
    Open(Endpoint),
    /// An array back-end member, opened on the first send to it.
    Member(Arc<Member>),
}

struct Member {
    pool: Arc<BackendPool>,
    index: usize,
    /// The graph's client connections, closed when the open fails.
    clients: Arc<[Endpoint]>,
    slot: Mutex<Slot>,
}

struct Slot {
    state: State,
    /// Watches recorded while unbound; the open registers them.
    watches: Vec<(Poller, Token, Interest)>,
}

enum State {
    Unbound,
    Bound(Endpoint),
    /// Closed (drain, teardown) or failed before it was ever opened.
    Closed,
}

/// Whether a task's link has a connection to use yet.
pub(crate) enum Settled {
    /// [`Link::open_endpoint`] now returns the connection.
    Open,
    /// A member nobody has sent to yet.
    Unbound,
    /// A member closed (or failed) before it was opened.
    Closed,
}

impl From<Endpoint> for Link {
    fn from(endpoint: Endpoint) -> Self {
        Link(Kind::Open(endpoint))
    }
}

impl From<&Endpoint> for Link {
    fn from(endpoint: &Endpoint) -> Self {
        Link(Kind::Open(endpoint.clone()))
    }
}

impl Link {
    /// Member `index` of `pool`, opened on the first send to it. A failed
    /// open closes `clients`, the connections of the graph it belongs to.
    pub fn member(pool: Arc<BackendPool>, index: usize, clients: Arc<[Endpoint]>) -> Self {
        Link(Kind::Member(Arc::new(Member {
            pool,
            index,
            clients,
            slot: Mutex::new(Slot {
                state: State::Unbound,
                watches: Vec::new(),
            }),
        })))
    }

    /// Watches the connection per [`Endpoint::register`]; an unopened
    /// member records the watch, and its open registers it.
    pub(crate) fn register(&self, poller: &Poller, token: Token, interest: Interest) {
        match &self.0 {
            Kind::Open(endpoint) => endpoint.register(poller, token, interest),
            Kind::Member(member) => {
                let mut slot = member.slot.lock();
                match &slot.state {
                    State::Bound(endpoint) => endpoint.register(poller, token, interest),
                    State::Unbound => slot.watches.push((poller.clone(), token, interest)),
                    State::Closed => {}
                }
            }
        }
    }

    /// Stops watching the `interest` direction(s) per
    /// [`Endpoint::deregister_interest`]; an unopened member forgets the
    /// recorded watch, so a later open cannot register it. A member's
    /// watches all come from the one dispatcher that owns its graph.
    pub(crate) fn deregister_interest(&self, poller: &Poller, interest: Interest) {
        match &self.0 {
            Kind::Open(endpoint) => endpoint.deregister_interest(poller, interest),
            Kind::Member(member) => {
                let mut slot = member.slot.lock();
                match &slot.state {
                    State::Bound(endpoint) => endpoint.deregister_interest(poller, interest),
                    State::Unbound | State::Closed => {
                        slot.watches.retain(|(_, _, watched)| *watched != interest)
                    }
                }
            }
        }
    }

    /// Closes the connection. An unopened member is never opened after
    /// this.
    pub(crate) fn close(&self) {
        match &self.0 {
            Kind::Open(endpoint) => endpoint.close(),
            Kind::Member(member) => {
                let mut slot = member.slot.lock();
                match &slot.state {
                    State::Bound(endpoint) => endpoint.close(),
                    State::Unbound => {
                        slot.state = State::Closed;
                        slot.watches.clear();
                    }
                    State::Closed => {}
                }
            }
        }
    }

    /// The connection of a settled link: always for one opened at build,
    /// for a member once [`Link::settle`] or [`Link::connect`] adopted it.
    pub(crate) fn open_endpoint(&self) -> Option<&Endpoint> {
        match &self.0 {
            Kind::Open(endpoint) => Some(endpoint),
            Kind::Member(_) => None,
        }
    }

    /// The input side: adopts a member's connection once someone opened
    /// it, so later runs skip the slot.
    pub(crate) fn settle(&mut self) -> Settled {
        let Kind::Member(member) = &self.0 else {
            return Settled::Open;
        };
        let bound = match &member.slot.lock().state {
            State::Bound(endpoint) => endpoint.clone(),
            State::Unbound => return Settled::Unbound,
            State::Closed => return Settled::Closed,
        };
        self.0 = Kind::Open(bound);
        Settled::Open
    }

    /// The output side: the connection to send on, opening an unbound
    /// member first.
    pub(crate) fn connect(&mut self) -> Result<&Endpoint, RuntimeError> {
        if let Kind::Member(member) = &self.0 {
            self.0 = Kind::Open(member.open()?);
        }
        match &self.0 {
            Kind::Open(endpoint) => Ok(endpoint),
            Kind::Member(_) => unreachable!("a member is adopted once opened"),
        }
    }
}

impl Member {
    fn open(&self) -> Result<Endpoint, RuntimeError> {
        let mut slot = self.slot.lock();
        match &slot.state {
            State::Bound(endpoint) => return Ok(endpoint.clone()),
            State::Closed => return Err(NetError::Closed.into()),
            State::Unbound => {}
        }
        match self.pool.connect(self.index) {
            Ok(endpoint) => {
                for (poller, token, interest) in slot.watches.drain(..) {
                    endpoint.register(&poller, token, interest);
                }
                slot.state = State::Bound(endpoint.clone());
                Ok(endpoint)
            }
            Err(err) => {
                slot.state = State::Closed;
                slot.watches.clear();
                drop(slot);
                self.clients.iter().for_each(Endpoint::close);
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RuntimeMetrics;
    use crate::pool::{BackendPolicy, BackendTarget};
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
        let pool = BackendPool::configured(
            targets,
            BackendPolicy::default(),
            Some(Arc::clone(&metrics)),
        );
        (pool, metrics)
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

    /// Closed before the first send (the graph began draining): the
    /// member is never opened, and its input side finishes.
    #[test]
    fn a_member_closed_before_its_first_send_is_never_opened() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(9402).unwrap();
        let (pool, metrics) = pool(&net, &[9402]);
        let mut link = Link::member(pool, 0, Arc::from([]));
        link.close();
        assert!(link.connect().is_err());
        assert!(matches!(link.settle(), Settled::Closed));
        assert_eq!(listener.backlog(), 0);
        assert_eq!(metrics.snapshot().backend_checkouts, 0);
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
        let mut again = Link::member(Arc::clone(&pool), 0, Arc::from([]));
        assert!(again.connect().is_err());
        assert!(pool.is_ejected(0), "eject_after (2) failures eject it");
    }
}
