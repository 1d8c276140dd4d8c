//! Per-core shards and task-graph placement.
//!
//! The sharded platform (ISSUE: fig5 scaling past a single reactor) splits
//! the runtime into one [`Shard`] per core. Each shard owns
//!
//! * a scheduler pool ([`crate::scheduler::Scheduler`], joined to the
//!   platform-wide [`crate::scheduler::StealGroup`] so idle shards pull
//!   runnable tasks from loaded ones),
//! * a dispatcher thread (the per-shard reactor of
//!   [`crate::dispatcher`]), and
//! * a [`Poller`] — the reactor's event queue, and the *only* poller a
//!   graph placed on this shard ever registers endpoints with.
//!
//! Placement **policy** is deliberately separate from the stealing
//! **mechanism**: a [`PlacementPolicy`] decides which shard a new task
//! graph lands on (round-robin by default, least-loaded as the adaptive
//! alternative), while the steal path in [`crate::scheduler::steal`]
//! corrects residual imbalance at task granularity without ever moving a
//! graph's poller registrations off its owning shard.

use crate::dispatcher::ServiceShared;
use crate::scheduler::{Scheduler, ShardLoad};
use flick_net::{Endpoint, Poller, Readiness, Token};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The token a shard's control-plane events (inbox notifications, service
/// stop sweeps) post under. A watch posts its task's id (from `1`
/// upwards) and listener and graph tokens carry a tag bit, so the
/// namespaces never collide.
pub(crate) const CONTROL_TOKEN: Token = Token(0);

/// Chooses the shard each new task graph is placed on.
///
/// Implementations must be cheap: the dispatcher consults the policy once
/// per graph instantiation, on the accept path.
pub trait PlacementPolicy: Send + Sync {
    /// A short label for benchmark output ("round-robin", "least-loaded").
    fn label(&self) -> &'static str;

    /// Whether [`PlacementPolicy::place`] reads the load fields. When
    /// `false` (round-robin) the caller passes placeholder entries instead
    /// of paying for a queue-by-queue load snapshot on the accept path;
    /// the slice length — the shard count — is always accurate.
    fn needs_loads(&self) -> bool {
        true
    }

    /// Returns the index of the shard the next graph should be placed on.
    /// `loads` holds one entry per shard, in shard order (load fields are
    /// only populated when [`PlacementPolicy::needs_loads`] is `true`).
    fn place(&self, loads: &[ShardLoad]) -> usize;
}

/// Deterministic rotation over the shards: graph `i` lands on shard
/// `i mod n`. The default policy — placement is reproducible run to run,
/// and the steal path absorbs any skew the rotation cannot see.
#[derive(Debug, Default)]
pub struct RoundRobinPlacement {
    next: AtomicUsize,
}

impl PlacementPolicy for RoundRobinPlacement {
    fn label(&self) -> &'static str {
        "round-robin"
    }

    fn needs_loads(&self) -> bool {
        false
    }

    fn place(&self, loads: &[ShardLoad]) -> usize {
        if loads.is_empty() {
            return 0;
        }
        self.next.fetch_add(1, Ordering::Relaxed) % loads.len()
    }
}

/// Places each graph on the shard with the fewest runnable-or-registered
/// tasks at the moment of placement. Adaptive, but not deterministic.
#[derive(Debug, Default)]
pub struct LeastLoadedPlacement;

impl PlacementPolicy for LeastLoadedPlacement {
    fn label(&self) -> &'static str {
        "least-loaded"
    }

    fn place(&self, loads: &[ShardLoad]) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by_key(|(_, load)| load.registered + load.queued)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The placement configuration carried by
/// [`crate::platform::PlatformConfig`].
#[derive(Clone, Default)]
pub enum Placement {
    /// Deterministic rotation (the default).
    #[default]
    RoundRobin,
    /// Pick the least-loaded shard per graph.
    LeastLoaded,
    /// A user-supplied policy.
    Custom(Arc<dyn PlacementPolicy>),
}

impl std::fmt::Debug for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::RoundRobin => f.write_str("RoundRobin"),
            Placement::LeastLoaded => f.write_str("LeastLoaded"),
            Placement::Custom(policy) => write!(f, "Custom({})", policy.label()),
        }
    }
}

impl Placement {
    /// Instantiates the policy object this configuration describes.
    pub fn build(&self) -> Arc<dyn PlacementPolicy> {
        match self {
            Placement::RoundRobin => Arc::new(RoundRobinPlacement::default()),
            Placement::LeastLoaded => Arc::new(LeastLoadedPlacement),
            Placement::Custom(policy) => Arc::clone(policy),
        }
    }
}

/// Work sent to a shard's dispatcher from another thread (the platform's
/// `deploy`, a sibling shard's accept path, or a service handle).
pub(crate) enum ShardCommand {
    /// Home a newly deployed service on this shard: register its listener
    /// with the shard's poller and start accepting.
    AddService(Arc<ServiceShared>),
    /// Instantiate one task graph over `clients` for `service` on this
    /// shard (the cross-shard graph handoff: the clients were accepted on
    /// the service's home shard, and their endpoints are registered with
    /// *this* shard's poller only — level-triggered registration catches
    /// any bytes that arrived during the handoff).
    BuildGraph {
        /// The service the graph belongs to.
        service: Arc<ServiceShared>,
        /// The client connections of the new graph instance.
        clients: Vec<Endpoint>,
    },
}

/// One shard of the platform: a scheduler pool, a dispatcher thread (owned
/// by [`crate::platform::Platform`]) and the shard's poller.
pub struct Shard {
    id: usize,
    scheduler: Arc<Scheduler>,
    poller: Poller,
    inbox: Mutex<VecDeque<ShardCommand>>,
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
            inbox: Mutex::new(VecDeque::new()),
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

    pub(crate) fn drain_inbox(&self) -> Vec<ShardCommand> {
        let mut inbox = self.inbox.lock();
        inbox.drain(..).collect()
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

/// All shards of one platform, plus the placement policy that distributes
/// task graphs over them.
pub struct ShardSet {
    shards: Vec<Arc<Shard>>,
    policy: Arc<dyn PlacementPolicy>,
    stop: AtomicBool,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.shards.len())
            .field("policy", &self.policy.label())
            .finish()
    }
}

impl ShardSet {
    pub(crate) fn new(shards: Vec<Arc<Shard>>, policy: Arc<dyn PlacementPolicy>) -> Arc<Self> {
        assert!(!shards.is_empty(), "a platform needs at least one shard");
        Arc::new(ShardSet {
            shards,
            policy,
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

    /// The placement policy in force.
    pub fn policy(&self) -> &Arc<dyn PlacementPolicy> {
        &self.policy
    }

    /// Asks the placement policy for the shard the next graph lands on.
    /// The per-queue load snapshot is only taken for policies that read
    /// it; the default round-robin pays nothing on the accept path.
    pub(crate) fn place(&self) -> usize {
        let loads: Vec<ShardLoad> = if self.policy.needs_loads() {
            self.shards
                .iter()
                .map(|shard| shard.scheduler.load())
                .collect()
        } else {
            (0..self.shards.len())
                .map(|shard| ShardLoad {
                    shard,
                    ..Default::default()
                })
                .collect()
        };
        self.policy.place(&loads).min(self.shards.len() - 1)
    }

    /// Sends a command to `shard`'s dispatcher and wakes its reactor.
    pub(crate) fn send(&self, shard: usize, command: ShardCommand) {
        let shard = &self.shards[shard];
        shard.inbox.lock().push_back(command);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RuntimeMetrics;
    use crate::task::SchedulingPolicy;

    fn loads(n: usize) -> Vec<ShardLoad> {
        (0..n)
            .map(|shard| ShardLoad {
                shard,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn round_robin_rotates_deterministically() {
        let policy = RoundRobinPlacement::default();
        let loads = loads(3);
        let seq: Vec<usize> = (0..7).map(|_| policy.place(&loads)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_prefers_the_idle_shard() {
        let policy = LeastLoadedPlacement;
        let mut loads = loads(3);
        loads[0].registered = 10;
        loads[1].registered = 2;
        loads[1].queued = 1;
        loads[2].registered = 7;
        assert_eq!(policy.place(&loads), 1);
    }

    #[test]
    fn placement_config_builds_the_matching_policy() {
        assert_eq!(Placement::RoundRobin.build().label(), "round-robin");
        assert_eq!(Placement::LeastLoaded.build().label(), "least-loaded");
        let custom = Placement::Custom(Arc::new(LeastLoadedPlacement));
        assert_eq!(custom.build().label(), "least-loaded");
        assert_eq!(format!("{:?}", custom), "Custom(least-loaded)");
    }

    #[test]
    fn shard_set_place_clamps_bogus_policies() {
        struct OutOfRange;
        impl PlacementPolicy for OutOfRange {
            fn label(&self) -> &'static str {
                "out-of-range"
            }
            fn place(&self, _loads: &[ShardLoad]) -> usize {
                99
            }
        }
        let scheduler = Arc::new(Scheduler::start(
            1,
            SchedulingPolicy::default(),
            RuntimeMetrics::new_shared(),
        ));
        let set = ShardSet::new(
            vec![Arc::new(Shard::new(0, scheduler))],
            Arc::new(OutOfRange),
        );
        assert_eq!(set.place(), 0);
    }
}
