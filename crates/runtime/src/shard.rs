//! Per-core shards.
//!
//! The sharded platform splits the runtime into one [`Shard`] per core
//! (fig5 scales past a single reactor). Each shard owns
//!
//! * a scheduler pool ([`crate::scheduler::Scheduler`], joined to the
//!   platform-wide [`crate::scheduler::StealGroup`] so idle shards pull
//!   runnable tasks from loaded ones),
//! * a dispatcher thread (the per-shard reactor of
//!   [`crate::dispatcher`]), and
//! * a [`Poller`] — the reactor's event queue, and the *only* poller a
//!   graph built on this shard registers its endpoints with.
//!
//! A graph runs on the shard that accepted its connections: every shard
//! accepts on its own listener of a service's listen group, so the accept
//! rotation (simulated transport) or the kernel's `SO_REUSEPORT` hash (OS
//! transport) spreads graphs over the shards, and the steal path in
//! [`crate::scheduler::steal`] absorbs the skew left over, at task
//! granularity and without moving a graph's poller registrations.

use crate::dispatcher::ServiceShared;
use crate::scheduler::{Scheduler, ShardLoad};
use flick_net::{Poller, Readiness, Token};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The token a shard's control-plane events (inbox notifications, service
/// stop sweeps) post under. A watch posts its task's id (from `1`
/// upwards) and listener and graph tokens carry a tag bit, so the
/// namespaces never collide.
pub(crate) const CONTROL_TOKEN: Token = Token(0);

/// One shard of the platform: a scheduler pool, a dispatcher thread (owned
/// by [`crate::platform::Platform`]) and the shard's poller.
pub struct Shard {
    id: usize,
    scheduler: Arc<Scheduler>,
    poller: Poller,
    /// Services newly deployed on this shard, not yet registered with its
    /// poller.
    inbox: Mutex<Vec<Arc<ServiceShared>>>,
    graphs_built: AtomicU64,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("graphs_built", &self.graphs_built.load(Ordering::Relaxed))
            .finish()
    }
}

impl Shard {
    pub(crate) fn new(id: usize, scheduler: Arc<Scheduler>) -> Self {
        Shard {
            id,
            scheduler,
            poller: Poller::new(),
            inbox: Mutex::new(Vec::new()),
            graphs_built: AtomicU64::new(0),
        }
    }

    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// This shard's scheduler.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// The shard's reactor event queue.
    pub fn poller(&self) -> &Poller {
        &self.poller
    }

    /// Task graphs instantiated on this shard so far.
    pub fn graphs_built(&self) -> u64 {
        self.graphs_built.load(Ordering::Relaxed)
    }

    pub(crate) fn note_graph_built(&self) {
        self.graphs_built.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn drain_inbox(&self) -> Vec<Arc<ServiceShared>> {
        std::mem::take(&mut *self.inbox.lock())
    }
}

/// A point-in-time description of one shard, as reported by
/// [`crate::platform::Platform::shard_status`] and consumed by the fig5
/// per-shard utilization table.
#[derive(Debug, Clone, Copy)]
pub struct ShardStatus {
    /// The shard index.
    pub shard: usize,
    /// Task graphs instantiated on this shard.
    pub graphs_built: u64,
    /// The shard scheduler's load counters.
    pub load: ShardLoad,
}

/// All shards of one platform.
pub struct ShardSet {
    shards: Vec<Arc<Shard>>,
    stop: AtomicBool,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardSet {
    pub(crate) fn new(shards: Vec<Arc<Shard>>) -> Arc<Self> {
        assert!(!shards.is_empty(), "a platform needs at least one shard");
        Arc::new(ShardSet {
            shards,
            stop: AtomicBool::new(false),
        })
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `false` — a shard set always has at least one shard.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Hands a newly deployed service to `shard`'s dispatcher, which
    /// registers the shard's listener of it, and wakes the reactor.
    pub(crate) fn add_service(&self, shard: usize, service: Arc<ServiceShared>) {
        let shard = &self.shards[shard];
        shard.inbox.lock().push(service);
        shard.poller.post(CONTROL_TOKEN, Readiness::default());
    }

    /// Posts a control event to every shard (service stop, shutdown).
    pub(crate) fn post_control_all(&self) {
        for shard in &self.shards {
            shard.poller.post(CONTROL_TOKEN, Readiness::default());
        }
    }

    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.poller.wake();
        }
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}
