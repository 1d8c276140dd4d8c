//! A service's back-ends: targets on either transport, the idle
//! connections finished graphs handed back, passive health tracking and
//! the one candidate order routed checkouts follow (DESIGN.md §14).
//!
//! A graph asks for a back-end connection when it needs one: a scalar
//! back-end parameter at build ([`BackendPool::checkout_healthy`]), an
//! array member on the first send routed to it ([`BackendPool::checkout`]
//! through [`crate::Link`]). The graph owns the connection until its
//! teardown, which hands it back ([`BackendPool::park`]) when its last
//! exchange framed cleanly and closes it otherwise. A checkout takes an
//! idle connection of its back-end before it connects afresh, so a client
//! that opens a connection per request costs the back-end no connection
//! per request.

use crate::error::RuntimeError;
use crate::metrics::RuntimeMetrics;
use flick_net::{Endpoint, SimNetwork, TcpStack};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle connections one back-end keeps; a connection parked beyond this is
/// closed. Mechanism, not policy: room for every connection a closed-loop
/// client fleet has in flight to one back-end.
pub const IDLE_PER_BACKEND: usize = 32;

/// Consecutive connect failures after which a back-end is ejected from
/// routed checkouts.
pub const EJECT_AFTER: u32 = 2;

/// How long an ejected back-end sits out before a routed checkout may
/// probe it again.
pub const EJECT_FOR: Duration = Duration::from_millis(250);

/// Extra connection attempts, against further back-ends, one
/// [`BackendPool::checkout_healthy`] may spend after its first pick fails.
/// The sim battery checks `backend_retries ≤ backend_checkouts ×
/// RETRY_BUDGET` on every tick.
pub const RETRY_BUDGET: u32 = 2;

/// One back-end a [`BackendPool`] can connect to: a port on the simulated
/// fabric or a socket address reached through an OS TCP stack. The pool —
/// and everything above it — treats both identically; the returned
/// [`Endpoint`] is the same transport-neutral handle either way.
#[derive(Clone)]
pub enum BackendTarget {
    /// A listener on the simulated network.
    Sim {
        /// The fabric the backend lives on.
        net: Arc<SimNetwork>,
        /// The backend's port.
        port: u16,
    },
    /// A real TCP server reached through the kernel.
    Tcp {
        /// The stack connections are opened on.
        stack: Arc<TcpStack>,
        /// The backend's socket address (e.g. `127.0.0.1:8100`).
        addr: String,
    },
}

impl BackendTarget {
    /// A human-readable address label for diagnostics.
    pub fn label(&self) -> String {
        match self {
            BackendTarget::Sim { port, .. } => format!("sim:{port}"),
            BackendTarget::Tcp { addr, .. } => format!("tcp:{addr}"),
        }
    }

    fn connect(&self) -> Result<Endpoint, RuntimeError> {
        match self {
            BackendTarget::Sim { net, port } => Ok(net.connect(*port)?),
            BackendTarget::Tcp { stack, addr } => Ok(stack.connect(addr)?),
        }
    }
}

/// Per-backend state: passive health and idle connections.
#[derive(Debug, Default)]
struct TargetSlot {
    health: Mutex<HealthState>,
    /// Parked connections, the most recent last. Nothing watches them.
    idle: Mutex<Vec<Endpoint>>,
}

impl TargetSlot {
    /// The most recently parked connection that one peek finds idle.
    /// Stale ones — the back-end closed them, or sent something
    /// unasked — are closed on the way; that is no health failure. The
    /// peek is the only check: a back-end that closes the connection just
    /// after it fails the request written on it, with no resend (a known
    /// limit, DESIGN.md §14).
    fn take_idle(&self) -> Option<Endpoint> {
        loop {
            let endpoint = self.idle.lock().pop()?;
            if endpoint.is_idle() {
                return Some(endpoint);
            }
            endpoint.close();
        }
    }
}

#[derive(Debug, Default)]
struct HealthState {
    consecutive_failures: u32,
    /// `Some` while ejected: no regular traffic until the deadline, after
    /// which the backend becomes a probe candidate. Cleared (with a
    /// readmit) by the first success.
    ejected_until: Option<Instant>,
}

/// Access to a service's back-end servers, over either transport.
///
/// [`BackendPool::checkout`] is the one place a back-end connection is
/// handed out and accounted: it counts the checkout, and takes the
/// target's most recently parked connection that is still idle (one peek)
/// or else connects afresh (paying the stack's connect cost) and records
/// the outcome as passive health — connect failures are remembered per
/// backend, and a backend that fails [`EJECT_AFTER`] times in a row is
/// ejected for [`EJECT_FOR`]. A reused connection proves nothing new about
/// its back-end, so it feeds no health. Every connection handed out is
/// given back once: parked ([`BackendPool::park`]) or closed.
/// Targets may be simulated ports, real TCP addresses, or a mix — a
/// TCP-fronted service can reach kernel-socket back-ends and complete the
/// all-TCP `client → LB → backend` path.
///
/// [`BackendPool::checkout_healthy`] is routing on top of it: a rotation
/// over the targets, ejected backends skipped, and at most [`RETRY_BUDGET`]
/// extra attempts per checkout. Ejection gates these routed picks only; a
/// caller that names its backend by index still reaches it, and what it
/// finds there feeds the same health state.
pub struct BackendPool {
    targets: Vec<BackendTarget>,
    slots: Vec<TargetSlot>,
    cursor: AtomicUsize,
    metrics: Arc<RuntimeMetrics>,
    /// Set by [`BackendPool::close_idle`]: parking closes from then on.
    closed: AtomicBool,
}

impl std::fmt::Debug for BackendPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendPool")
            .field(
                "targets",
                &self.targets.iter().map(|t| t.label()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl BackendPool {
    /// Creates a backend pool that records checkouts, retries, ejections
    /// and readmits into `metrics`.
    pub fn new(targets: Vec<BackendTarget>, metrics: Arc<RuntimeMetrics>) -> Arc<Self> {
        let slots = targets.iter().map(|_| TargetSlot::default()).collect();
        Arc::new(BackendPool {
            targets,
            slots,
            cursor: AtomicUsize::new(0),
            metrics,
            closed: AtomicBool::new(false),
        })
    }

    /// Number of configured back-ends.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if no back-ends are configured.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// A connection to backend `idx` — an idle one if it has one, else a
    /// fresh connect — counted as one checkout.
    pub fn checkout(&self, idx: usize) -> Result<Endpoint, RuntimeError> {
        self.open(idx, false)
    }

    /// The single open-and-account point: counts the attempt (a checkout,
    /// or a `retry` within one), reuses or connects, and feeds a connect's
    /// outcome to passive health.
    fn open(&self, idx: usize, retry: bool) -> Result<Endpoint, RuntimeError> {
        let target = self
            .targets
            .get(idx)
            .ok_or_else(|| RuntimeError::Config(format!("backend index {idx} out of range")))?;
        let counter = if retry {
            &self.metrics.backend_retries
        } else {
            &self.metrics.backend_checkouts
        };
        RuntimeMetrics::add(counter, 1);
        if let Some(endpoint) = self.slots[idx].take_idle() {
            return Ok(endpoint);
        }
        let opened = target.connect();
        match &opened {
            Ok(_) => self.report_success(idx),
            Err(_) => self.report_failure(idx),
        }
        opened
    }

    /// Hands back a connection to backend `idx` whose graph finished with
    /// it cleanly framed: it waits, unwatched, for the next checkout of
    /// `idx`. Closed instead when the back-end already keeps
    /// [`IDLE_PER_BACKEND`] or the pool is closed.
    pub fn park(&self, idx: usize, endpoint: Endpoint) {
        if let Some(slot) = self.slots.get(idx) {
            let mut idle = slot.idle.lock();
            if !self.closed.load(Ordering::Acquire) && idle.len() < IDLE_PER_BACKEND {
                idle.push(endpoint);
                return;
            }
        }
        endpoint.close();
    }

    /// Closes every idle connection, and every one parked from now on: the
    /// service is stopping.
    pub fn close_idle(&self) {
        self.closed.store(true, Ordering::Release);
        for slot in &self.slots {
            let idle = std::mem::take(&mut *slot.idle.lock());
            idle.iter().for_each(Endpoint::close);
        }
    }

    /// Idle connections backend `idx` keeps.
    pub fn idle(&self, idx: usize) -> usize {
        self.slots.get(idx).map_or(0, |slot| slot.idle.lock().len())
    }

    // --- passive health -------------------------------------------------

    /// Obtains a connection to a *healthy* backend, retrying within
    /// [`RETRY_BUDGET`].
    ///
    /// Candidates rotate over the targets, starting at `hint % len` when a
    /// hint is given — the connection-hash distribution — or at an
    /// internal cursor otherwise; backends under an unexpired ejection
    /// are skipped, and a failed connect advances to the next candidate
    /// *within this same call*, so one dead backend never turns into a
    /// failed request while a sibling is up. Each extra
    /// attempt after the first consumes retry budget; when the budget (or
    /// the candidate list) is exhausted the last error is returned.
    ///
    /// A backend whose ejection period has expired is a probe candidate:
    /// it rejoins the candidate order, a success readmits it, a failure
    /// re-arms its ejection without a fresh ejection transition.
    ///
    /// When *every* backend is under an unexpired ejection there is
    /// nothing left to protect, so the ejection filter is dropped and the
    /// call routes over the full candidate order anyway — the checkout
    /// doubles as a probe, and a fleet that has come back is rediscovered
    /// on the first request instead of after the longest sit-out.
    ///
    /// Returns the backend index alongside the endpoint, so the caller can
    /// [`BackendPool::park`] it later.
    pub fn checkout_healthy(&self, hint: Option<usize>) -> Result<(usize, Endpoint), RuntimeError> {
        let len = self.targets.len();
        if len == 0 {
            return Err(RuntimeError::Config("no backends configured".into()));
        }
        let start = hint
            .map(|h| h % len)
            .unwrap_or_else(|| self.cursor.fetch_add(1, Ordering::Relaxed) % len);
        let order: Vec<usize> = (0..len).map(|i| (start + i) % len).collect();
        let now = Instant::now();
        let mut routable: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&idx| self.may_route_to(idx, now))
            .collect();
        if routable.is_empty() {
            // All ejected: last-resort probing over the full order.
            routable = order;
        }
        let max_attempts = len.min(RETRY_BUDGET as usize + 1);
        let mut last_err = None;
        for (attempt, &idx) in routable.iter().take(max_attempts).enumerate() {
            match self.open(idx, attempt > 0) {
                Ok(endpoint) => return Ok((idx, endpoint)),
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            RuntimeError::Config("all backends are ejected; none available".into())
        }))
    }

    /// Records a successful connect to backend `idx`, resetting its failure
    /// streak and readmitting it if it was ejected.
    fn report_success(&self, idx: usize) {
        let mut state = self.slots[idx].health.lock();
        state.consecutive_failures = 0;
        if state.ejected_until.take().is_some() {
            RuntimeMetrics::add(&self.metrics.backend_readmits, 1);
        }
    }

    /// Records a failed connect to backend `idx` — the passive detection
    /// input. Crossing [`EJECT_AFTER`] ejects the backend; a failure
    /// while ejected (a failed readmit probe) re-arms the ejection deadline.
    fn report_failure(&self, idx: usize) {
        let mut state = self.slots[idx].health.lock();
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        if state.consecutive_failures >= EJECT_AFTER {
            let newly_ejected = state.ejected_until.is_none();
            state.ejected_until = Some(Instant::now() + EJECT_FOR);
            if newly_ejected {
                RuntimeMetrics::add(&self.metrics.backend_ejections, 1);
            }
        }
    }

    /// Returns `true` if backend `idx` is currently ejected (its sit-out
    /// period has not expired).
    pub fn is_ejected(&self, idx: usize) -> bool {
        self.slots
            .get(idx)
            .map(|slot| {
                slot.health
                    .lock()
                    .ejected_until
                    .is_some_and(|until| until > Instant::now())
            })
            .unwrap_or(false)
    }

    /// Regular traffic goes to non-ejected backends; an expired ejection
    /// makes the backend a probe candidate again.
    fn may_route_to(&self, idx: usize, now: Instant) -> bool {
        self.slots
            .get(idx)
            .map(|slot| {
                slot.health
                    .lock()
                    .ejected_until
                    .map_or(true, |until| until <= now)
            })
            .unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_net::StackModel;

    /// A pool over simulated `ports` on `net`, with its metrics block.
    fn pool(net: &Arc<SimNetwork>, ports: &[u16]) -> (Arc<BackendPool>, Arc<RuntimeMetrics>) {
        let targets = ports
            .iter()
            .map(|&port| BackendTarget::Sim {
                net: Arc::clone(net),
                port,
            })
            .collect();
        let metrics = RuntimeMetrics::new_shared();
        (BackendPool::new(targets, Arc::clone(&metrics)), metrics)
    }

    /// Sleeps until an ejection armed now has expired.
    fn wait_out_ejection() {
        std::thread::sleep(EJECT_FOR + Duration::from_millis(10));
    }

    #[test]
    fn backend_pool_connects_to_each_port() {
        let net = SimNetwork::new(StackModel::Free);
        let l1 = net.listen(9001).unwrap();
        let l2 = net.listen(9002).unwrap();
        let (pool, _) = pool(&net, &[9001, 9002]);
        assert_eq!(pool.len(), 2);
        let _c1 = pool.checkout(0).unwrap();
        let _c2 = pool.checkout(1).unwrap();
        assert_eq!(l1.backlog(), 1);
        assert_eq!(l2.backlog(), 1);
        assert!(pool.checkout(5).is_err());
    }

    /// A parked connection is the next checkout's, before any connect: one
    /// more counted checkout, no new connection.
    #[test]
    fn a_parked_connection_is_checked_out_before_connecting() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(9031).unwrap();
        let (pool, metrics) = pool(&net, &[9031]);
        let first = pool.checkout(0).unwrap();
        let _server = listener.accept().unwrap();
        pool.park(0, first.clone());
        assert_eq!(pool.idle(0), 1);
        let again = pool.checkout(0).unwrap();
        assert_eq!(again.id(), first.id());
        assert_eq!(listener.backlog(), 0, "no second connect");
        assert_eq!(pool.idle(0), 0);
        assert_eq!(metrics.snapshot().backend_checkouts, 2);
    }

    /// A back-end that crashed while two of its connections were parked:
    /// the next checkout skips both dead connections and connects afresh,
    /// and neither is a health failure — [`EJECT_AFTER`] of them in a row
    /// would eject the back-end.
    #[test]
    fn a_stale_parked_connection_is_skipped_without_a_health_failure() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(9032).unwrap();
        let (pool, metrics) = pool(&net, &[9032]);
        let stale: Vec<Endpoint> = (0..EJECT_AFTER)
            .map(|_| pool.checkout(0).unwrap())
            .collect();
        for conn in &stale {
            listener.accept().unwrap().close();
            pool.park(0, conn.clone());
        }
        let fresh = pool.checkout(0).unwrap();
        assert!(stale.iter().all(|conn| conn.id() != fresh.id()));
        assert!(stale.iter().all(Endpoint::is_closed), "stale ones closed");
        assert_eq!(listener.backlog(), 1, "served over a fresh connect");
        let snap = metrics.snapshot();
        assert_eq!((snap.backend_checkouts, snap.backend_retries), (3, 0));
        assert_eq!(
            snap.backend_ejections, 0,
            "stale connections are no failure"
        );
    }

    /// A back-end keeps at most [`IDLE_PER_BACKEND`] idle connections, and
    /// closing the pool closes them and every one parked after.
    #[test]
    fn idle_connections_are_bounded_and_closed_with_the_pool() {
        let net = SimNetwork::new(StackModel::Free);
        let _listener = net.listen(9033).unwrap();
        let (pool, _) = pool(&net, &[9033]);
        let conns: Vec<Endpoint> = (0..=IDLE_PER_BACKEND)
            .map(|_| pool.checkout(0).unwrap())
            .collect();
        for conn in &conns {
            pool.park(0, conn.clone());
        }
        assert_eq!(pool.idle(0), IDLE_PER_BACKEND);
        assert!(conns[IDLE_PER_BACKEND].is_closed(), "one over the bound");
        pool.close_idle();
        assert_eq!(pool.idle(0), 0);
        assert!(conns.iter().all(Endpoint::is_closed));
        let late = net.connect(9033).unwrap();
        pool.park(0, late.clone());
        assert!(late.is_closed() && pool.idle(0) == 0);
    }

    /// The satellite fix: a failed connect advances past the dead target
    /// *within the same request* — the caller gets a sibling's connection,
    /// not an error.
    #[test]
    fn failed_connect_advances_past_dead_backend_in_the_same_call() {
        let net = SimNetwork::new(StackModel::Free);
        let _live = net.listen(9011).unwrap(); // 9010 has no listener
        let (pool, metrics) = pool(&net, &[9010, 9011]);
        let (idx, _conn) = pool.checkout_healthy(Some(0)).unwrap();
        assert_eq!(idx, 1, "checkout must advance past the dead target");
        let snap = metrics.snapshot();
        assert_eq!(snap.backend_checkouts, 1);
        assert_eq!(snap.backend_retries, 1);
        snap.check_retry_budget().unwrap();
    }

    #[test]
    fn repeated_failures_eject_then_probe_readmits() {
        let net = SimNetwork::new(StackModel::Free);
        let _live = net.listen(9013).unwrap();
        let (pool, metrics) = pool(&net, &[9012, 9013]);
        // EJECT_AFTER failed picks of backend 0 cross the threshold.
        for _ in 0..EJECT_AFTER {
            let (idx, _conn) = pool.checkout_healthy(Some(0)).unwrap();
            assert_eq!(idx, 1);
        }
        assert!(pool.is_ejected(0));
        assert_eq!(metrics.snapshot().backend_ejections, 1);
        // While ejected, backend 0 is skipped without spending retries.
        let before = metrics.snapshot().backend_retries;
        let (idx, _conn) = pool.checkout_healthy(Some(0)).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(metrics.snapshot().backend_retries, before);
        // After the sit-out the backend comes back up; the probe readmits.
        wait_out_ejection();
        let _revived = net.listen(9012).unwrap();
        let (idx, _conn) = pool.checkout_healthy(Some(0)).unwrap();
        assert_eq!(idx, 0);
        assert!(!pool.is_ejected(0));
        let snap = metrics.snapshot();
        assert_eq!(snap.backend_readmits, 1);
        snap.check_conservation().unwrap();
    }

    #[test]
    fn failed_probe_rearms_ejection_without_a_new_transition() {
        let net = SimNetwork::new(StackModel::Free);
        let _live = net.listen(9015).unwrap();
        let (pool, metrics) = pool(&net, &[9014, 9015]);
        for _ in 0..EJECT_AFTER {
            let _ = pool.checkout_healthy(Some(0)).unwrap();
        }
        assert!(pool.is_ejected(0));
        wait_out_ejection();
        // Probe fails (still no listener): the deadline re-arms but the
        // ejection count stays at one.
        let (idx, _conn) = pool.checkout_healthy(Some(0)).unwrap();
        assert_eq!(idx, 1);
        assert!(pool.is_ejected(0));
        assert_eq!(metrics.snapshot().backend_ejections, 1);
    }

    /// A routed checkout tries its first pick and [`RETRY_BUDGET`] more,
    /// never one more: with the first `RETRY_BUDGET + 1` of the back-ends
    /// dead a hinted checkout fails having spent exactly the budget, and
    /// with only the first `RETRY_BUDGET` dead it reaches the next one.
    #[test]
    fn a_checkout_spends_exactly_the_retry_budget() {
        let budget = RETRY_BUDGET as usize;
        let ports: Vec<u16> = (9040..).take(budget + 2).collect();
        for dead in [budget + 1, budget] {
            let net = SimNetwork::new(StackModel::Free);
            let _live: Vec<_> = ports[dead..]
                .iter()
                .map(|&port| net.listen(port).unwrap())
                .collect();
            let (pool, metrics) = pool(&net, &ports);
            let picked = pool.checkout_healthy(Some(0)).ok().map(|(idx, _)| idx);
            assert_eq!(picked, (dead == budget).then_some(budget), "{dead} dead");
            let snap = metrics.snapshot();
            assert_eq!(
                (snap.backend_checkouts, snap.backend_retries),
                (1, u64::from(RETRY_BUDGET)),
                "{dead} dead"
            );
        }
    }

    #[test]
    fn all_backends_ejected_falls_back_to_probing() {
        let net = SimNetwork::new(StackModel::Free);
        let (pool, _) = pool(&net, &[9018]);
        for _ in 0..EJECT_AFTER {
            assert!(pool.checkout_healthy(None).is_err());
        }
        assert!(pool.is_ejected(0));
        // With every target ejected the filter is dropped: the checkout
        // probes the dead backend (and still fails)...
        assert!(pool.checkout_healthy(None).is_err());
        // ...but the same last-resort probe rediscovers a revived fleet
        // immediately, without waiting out the ejection.
        let _revived = net.listen(9018).unwrap();
        let (idx, _conn) = pool.checkout_healthy(None).unwrap();
        assert_eq!(idx, 0);
        assert!(!pool.is_ejected(0));
    }

    #[test]
    fn round_robin_without_hint_rotates() {
        let net = SimNetwork::new(StackModel::Free);
        let _l1 = net.listen(9022).unwrap();
        let _l2 = net.listen(9023).unwrap();
        let (pool, _) = pool(&net, &[9022, 9023]);
        let (a, _ca) = pool.checkout_healthy(None).unwrap();
        let (b, _cb) = pool.checkout_healthy(None).unwrap();
        assert_ne!(a, b, "cursor must rotate across calls");
    }
}
