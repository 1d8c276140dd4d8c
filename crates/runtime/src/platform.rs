//! The FLICK platform: sharded schedulers + substrate + deployed services.
//!
//! A [`Platform`] owns one [`crate::shard::Shard`] per configured core —
//! each with its own scheduler pool, dispatcher thread and poller — the
//! simulated network, and the global task-id allocator. Services are
//! deployed from a [`ServiceSpec`]; the spec's [`GraphFactory`] is invoked
//! by a shard dispatcher whenever enough client connections have arrived
//! to instantiate a new task graph (one connection for the HTTP and
//! Memcached services, all the mapper connections for the Hadoop
//! aggregator). A graph runs on the shard that accepted its connections:
//! a service whose graph serves one connection listens on every shard, one
//! whose graph groups several listens on its home shard only. Idle shards
//! steal runnable tasks from loaded ones through the scheduler's
//! [`steal`](crate::scheduler::steal) path.

use crate::dispatcher::{DeployedService, ServiceShared, ShardReactor};
use crate::error::RuntimeError;
use crate::graph::TaskIdAllocator;
use crate::link::Link;
use crate::metrics::RuntimeMetrics;
use crate::pool::{BackendPool, BackendTarget};
use crate::scheduler::{Scheduler, StealGroup};
use crate::shard::{Shard, ShardSet, ShardStatus};
use crate::task::{Task, TaskId, TIMESLICE};
use crate::tasks::ExecMode;
use flick_net::{Endpoint, Interest, Listener, SimNetwork, StackModel, TcpStack};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// The default shard count: one per available core, as the paper sizes its
/// runtime ("the number of worker threads matches the number of cores").
pub fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Configuration of a [`Platform`]: two sizing fields (DESIGN.md "Policy
/// surface"). Everything else about the runtime is mechanism and is not
/// configurable — workers run the paper's cooperative discipline
/// ([`TIMESLICE`]), back-ends are routed, ejected and
/// retried by the constants in [`crate::pool`], and the transport cost
/// model belongs to the [`SimNetwork`] the platform is attached to.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Total worker threads, split across the shards (each shard keeps at
    /// least one; when the shard count divides into `workers` the split is
    /// exact, so the cores axis of the figure experiments stays honest).
    pub workers: usize,
    /// Number of shards (per-core scheduler + dispatcher + poller units).
    /// `0` (the default) means *auto*: one shard per available core, but
    /// never more shards than `workers` — a platform asked for 2 workers
    /// on a 16-core host runs 2 shards of 1 worker, not 16. See
    /// [`PlatformConfig::resolved_shards`].
    pub shards: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            workers: 4,
            shards: 0,
        }
    }
}

impl PlatformConfig {
    /// The shard count this configuration resolves to: the explicit value
    /// if non-zero, otherwise one shard per available core capped at the
    /// worker count (so the configured `workers` total is always honoured
    /// exactly under the auto default).
    pub fn resolved_shards(&self) -> usize {
        if self.shards == 0 {
            default_shard_count().min(self.workers.max(1))
        } else {
            self.shards
        }
    }

    /// Worker threads of shard `shard` under this configuration: `workers`
    /// split across the shards with the remainder going to the lowest
    /// shards, floor one per shard. The per-shard counts sum to `workers`
    /// whenever the resolved shard count does not exceed it.
    pub fn workers_for_shard(&self, shard: usize) -> usize {
        let shards = self.resolved_shards();
        let base = self.workers / shards;
        let extra = usize::from(shard < self.workers % shards);
        (base + extra).max(1)
    }
}

/// Everything a [`GraphFactory`] may need while assembling a graph.
pub struct ServiceEnv {
    /// The network substrate (for opening backend connections directly).
    pub net: Arc<SimNetwork>,
    /// The configured back-ends of the service.
    pub backends: Arc<BackendPool>,
    /// Allocator for task ids (pass to [`crate::graph::GraphBuilder`]).
    pub allocator: Arc<TaskIdAllocator>,
    /// Execution mode compiled-service factories should build their
    /// compute logic for ([`ServiceSpec::exec_mode`]).
    pub exec_mode: ExecMode,
}

/// One readiness watch a graph asks its dispatcher to maintain: when
/// `endpoint` transitions per `interest`, schedule `task`.
///
/// A graph has one watch per connection, for the directions its task uses
/// it in: readable transitions for a connection it reads, writable ones
/// for one it writes, which is what lets a blocked writer park instead of
/// busy-retrying — writable interest is a first-class dispatcher event on
/// both transports. The watch on an array back-end member takes effect
/// when the member is opened ([`Link`]).
#[derive(Clone)]
pub struct Watch {
    /// The task to schedule.
    pub task: TaskId,
    /// The connection whose transitions are watched.
    pub endpoint: Link,
    /// Which transitions matter.
    pub interest: Interest,
}

/// A graph produced by a factory ([`crate::GraphBuilder::build`]): its
/// tasks, ready to register with the scheduler, plus the bookkeeping the
/// dispatcher needs.
pub struct BuiltGraph {
    /// Every task of the graph with its global id.
    pub(crate) tasks: Vec<(TaskId, Box<dyn Task>)>,
    /// One per bound connection: the task to wake on the endpoint's
    /// readiness transitions, in binding order.
    pub(crate) watchers: Vec<Watch>,
    /// The tasks reading *client* connections; once the input of every
    /// one of them has ended the dispatcher drains the rest of the graph.
    pub(crate) client_tasks: Vec<TaskId>,
}

impl BuiltGraph {
    /// Every task's label, in no particular order: what a factory built.
    pub fn task_labels(&self) -> impl Iterator<Item = &str> {
        self.tasks.iter().map(|(_, task)| task.label())
    }
}

/// Builds task-graph instances for one service.
///
/// Implemented by the compiler crate for FLICK programs and by hand for the
/// baseline systems.
pub trait GraphFactory: Send + Sync {
    /// How many client connections one graph instance serves (1 for the
    /// HTTP load balancer and Memcached proxy; the number of mappers for the
    /// Hadoop aggregator).
    fn connections_per_graph(&self) -> usize {
        1
    }

    /// Assembles a graph for the given client connections.
    fn build(&self, clients: Vec<Endpoint>, env: &ServiceEnv) -> Result<BuiltGraph, RuntimeError>;
}

/// Description of a deployable service.
#[derive(Clone)]
pub struct ServiceSpec {
    /// Service name (diagnostics only).
    pub name: String,
    /// Port the application dispatcher listens on.
    pub port: u16,
    /// Ports of the service's back-end servers on the simulated fabric.
    pub backends: Vec<u16>,
    /// Socket addresses of real TCP back-end servers (reached through the
    /// platform's OS stack). May be combined with `backends`; the pool
    /// indexes simulated targets first, then TCP targets.
    pub tcp_backends: Vec<String>,
    /// The graph factory.
    pub factory: Arc<dyn GraphFactory>,
    /// How the service's compiled logic executes: the bytecode VM unless
    /// [`ServiceSpec::with_exec_mode`] selects the interpreter.
    pub exec_mode: ExecMode,
}

impl std::fmt::Debug for ServiceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceSpec")
            .field("name", &self.name)
            .field("port", &self.port)
            .field("backends", &self.backends)
            .field("tcp_backends", &self.tcp_backends)
            .finish()
    }
}

impl ServiceSpec {
    /// Creates a spec with no back-ends.
    pub fn new(name: impl Into<String>, port: u16, factory: Arc<dyn GraphFactory>) -> Self {
        ServiceSpec {
            name: name.into(),
            port,
            backends: Vec::new(),
            tcp_backends: Vec::new(),
            factory,
            exec_mode: ExecMode::default(),
        }
    }

    /// Sets the back-end ports on the simulated fabric.
    pub fn with_backends(mut self, backends: Vec<u16>) -> Self {
        self.backends = backends;
        self
    }

    /// Sets real TCP back-end addresses (e.g. `127.0.0.1:8100`). The
    /// service's [`BackendPool`] connects to them through the platform's
    /// kernel-socket stack — the all-TCP `client → LB → backend` path.
    pub fn with_tcp_backends(mut self, addrs: Vec<String>) -> Self {
        self.tcp_backends = addrs;
        self
    }

    /// Selects the execution mode of this service — the one way to run a
    /// deployment on the tree-walking interpreter, the differential oracle
    /// of the bytecode VM.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }
}

/// The running FLICK platform.
pub struct Platform {
    net: Arc<SimNetwork>,
    /// The OS-socket stack, created on the first [`Platform::deploy_tcp`]
    /// (or [`Platform::tcp_stack`]) call.
    tcp: OnceLock<Arc<TcpStack>>,
    allocator: Arc<TaskIdAllocator>,
    metrics: Arc<RuntimeMetrics>,
    set: Arc<ShardSet>,
    dispatchers: Vec<JoinHandle<()>>,
    next_service: AtomicU64,
    config: PlatformConfig,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("config", &self.config)
            .field("shards", &self.set.len())
            .finish()
    }
}

impl Platform {
    /// Starts a platform with its own simulated network on the free cost
    /// model. A figure's cost model is a property of the network: build
    /// `SimNetwork::new(model)` and use [`Platform::with_network`].
    pub fn new(config: PlatformConfig) -> Self {
        Self::with_network(config, SimNetwork::new(StackModel::Free))
    }

    /// Starts a platform over an existing network (so that workload
    /// generators and back-end servers share the same fabric).
    pub fn with_network(config: PlatformConfig, net: Arc<SimNetwork>) -> Self {
        let metrics = RuntimeMetrics::new_shared();
        let shard_count = config.resolved_shards();
        let group = StealGroup::new();
        let shards: Vec<Arc<Shard>> = (0..shard_count)
            .map(|id| {
                let scheduler = Arc::new(Scheduler::start_sharded(
                    config.workers_for_shard(id),
                    TIMESLICE,
                    Arc::clone(&metrics),
                    &group,
                    id,
                ));
                Arc::new(Shard::new(id, scheduler))
            })
            .collect();
        let set = ShardSet::new(shards);
        let dispatchers = set
            .shards()
            .iter()
            .map(|shard| {
                let set = Arc::clone(&set);
                let shard = Arc::clone(shard);
                std::thread::Builder::new()
                    .name(format!("flick-dispatch-{}", shard.id()))
                    .spawn(move || ShardReactor::run(set, shard))
                    .expect("spawning a shard dispatcher thread")
            })
            .collect();
        Platform {
            net,
            tcp: OnceLock::new(),
            allocator: Arc::new(TaskIdAllocator::new()),
            metrics,
            set,
            dispatchers,
            next_service: AtomicU64::new(0),
            config,
        }
    }

    /// The simulated network this platform is attached to.
    pub fn net(&self) -> Arc<SimNetwork> {
        Arc::clone(&self.net)
    }

    /// The scheduler of shard 0 (kept for single-shard callers and tests;
    /// multi-shard introspection goes through [`Platform::shard_status`]).
    pub fn scheduler(&self) -> Arc<Scheduler> {
        Arc::clone(self.set.shards()[0].scheduler())
    }

    /// The platform-wide runtime metrics (shared by every shard).
    pub fn metrics(&self) -> Arc<RuntimeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.set.len()
    }

    /// Per-shard status: graphs built, scheduler load and steal counters.
    /// One entry per shard, in shard order — the source of the fig5
    /// per-shard utilization table.
    pub fn shard_status(&self) -> Vec<ShardStatus> {
        self.set
            .shards()
            .iter()
            .map(|shard| ShardStatus {
                shard: shard.id(),
                graphs_built: shard.graphs_built(),
                load: shard.scheduler().load(),
            })
            .collect()
    }

    /// Total registered tasks across every shard.
    pub fn task_count(&self) -> usize {
        self.set
            .shards()
            .iter()
            .map(|shard| shard.scheduler().task_count())
            .sum()
    }

    /// The global task-id allocator.
    pub fn allocator(&self) -> Arc<TaskIdAllocator> {
        Arc::clone(&self.allocator)
    }

    /// The OS-socket stack of this platform, created on first use.
    ///
    /// Real sockets pay the real kernel's costs, so the stack charges no
    /// cost model whatever the simulated network's is. Its
    /// [`flick_net::NetStats`] counters account OS traffic with the same
    /// vocabulary as the simulated substrate.
    pub fn tcp_stack(&self) -> Arc<TcpStack> {
        Arc::clone(self.tcp.get_or_init(TcpStack::new))
    }

    /// Deploys a service on a real OS socket: binds `addr` (use
    /// `127.0.0.1:0` for an ephemeral port, then read it back from
    /// [`DeployedService::port`]) and starts accepting kernel connections:
    /// on every shard when each of the service's graphs serves one
    /// connection, on its home shard when a graph groups several.
    /// Everything past the listener — graph building, readiness, teardown
    /// — is shared with [`Platform::deploy`]; OS and simulated sources
    /// multiplex on the same shard pollers, so a single service may read
    /// from a TCP client while talking to simulated back-ends.
    pub fn deploy_tcp(
        &self,
        spec: ServiceSpec,
        addr: &str,
    ) -> Result<DeployedService, RuntimeError> {
        // Kernel accept sharding: one SO_REUSEPORT socket per accepting
        // shard, so every shard's dispatcher drains its own kernel accept
        // queue and the kernel's hash spreads the connections.
        let width = self.accept_width(&spec);
        let listeners = self.tcp_stack().listen_group(addr, width)?;
        let port = listeners[0].port();
        self.deploy_on_listeners(
            spec,
            listeners.into_iter().map(Listener::from).collect(),
            port,
        )
    }

    /// Deploys a service: binds its simulated port and starts accepting, on
    /// the same shards as [`Platform::deploy_tcp`]. Connects rotate over
    /// the port's listeners, so a service's graphs spread over the shards
    /// in connection order.
    pub fn deploy(&self, spec: ServiceSpec) -> Result<DeployedService, RuntimeError> {
        let width = self.accept_width(&spec);
        let listeners = self.net.listen_group(spec.port, width)?;
        let port = spec.port;
        self.deploy_on_listeners(
            spec,
            listeners.into_iter().map(Listener::from).collect(),
            port,
        )
    }

    /// How many listeners a service binds: one per shard when each of its
    /// graphs serves one connection, so every shard accepts and builds its
    /// own graphs; one, on the home shard, when a graph groups several
    /// connections, so every group is accepted — and completed — by one
    /// shard.
    fn accept_width(&self, spec: &ServiceSpec) -> usize {
        if spec.factory.connections_per_graph() <= 1 {
            self.set.len()
        } else {
            1
        }
    }

    /// The transport-independent tail of service deployment. One listener
    /// is homed on a single shard; a listen group assigns listener `i` to
    /// shard `i` and announces the service to every one of those shards.
    fn deploy_on_listeners(
        &self,
        spec: ServiceSpec,
        listeners: Vec<Listener>,
        port: u16,
    ) -> Result<DeployedService, RuntimeError> {
        // Simulated targets first, then TCP targets, so existing
        // port-indexed services are unaffected and mixed-transport pools
        // keep a stable order.
        let mut targets: Vec<BackendTarget> = spec
            .backends
            .iter()
            .map(|port| BackendTarget::Sim {
                net: Arc::clone(&self.net),
                port: *port,
            })
            .collect();
        if !spec.tcp_backends.is_empty() {
            let stack = self.tcp_stack();
            targets.extend(spec.tcp_backends.iter().map(|addr| BackendTarget::Tcp {
                stack: Arc::clone(&stack),
                addr: addr.clone(),
            }));
        }
        let backends = BackendPool::new(targets, Arc::clone(&self.metrics));
        let env = ServiceEnv {
            net: Arc::clone(&self.net),
            backends,
            allocator: Arc::clone(&self.allocator),
            exec_mode: spec.exec_mode,
        };
        let id = self.next_service.fetch_add(1, Ordering::Relaxed);
        // Single listeners rotate over the shards so multiple services do
        // not all funnel their accept paths through shard 0.
        let home_shard = (id as usize) % self.set.len();
        let accept_shards: Vec<usize> = if listeners.len() == 1 {
            vec![home_shard]
        } else {
            (0..listeners.len()).collect()
        };
        let shared = Arc::new(ServiceShared::new(
            spec.name.clone(),
            listeners,
            spec.factory,
            env,
            home_shard,
        ));
        for shard in accept_shards {
            self.set.add_service(shard, Arc::clone(&shared));
        }
        Ok(DeployedService::new(port, shared, Arc::clone(&self.set)))
    }
}

impl Drop for Platform {
    fn drop(&mut self) {
        self.set.request_stop();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_starts_and_exposes_components() {
        let platform = Platform::new(PlatformConfig::default());
        assert_eq!(platform.config().workers, 4);
        assert_eq!(platform.net().model(), StackModel::Free);
        assert_eq!(platform.scheduler().task_count(), 0);
        assert_eq!(platform.task_count(), 0);
        assert!(platform.shard_count() >= 1);
        assert_eq!(platform.shard_status().len(), platform.shard_count());
        let id_a = platform.allocator().allocate();
        let id_b = platform.allocator().allocate();
        assert_ne!(id_a, id_b);
    }

    #[test]
    fn deploy_binds_the_port() {
        let platform = Platform::new(PlatformConfig::default());

        struct NeverFactory;
        impl GraphFactory for NeverFactory {
            fn build(
                &self,
                _clients: Vec<Endpoint>,
                _env: &ServiceEnv,
            ) -> Result<BuiltGraph, RuntimeError> {
                Err(RuntimeError::Config("not used in this test".into()))
            }
        }

        let spec = ServiceSpec::new("noop", 4242, Arc::new(NeverFactory));
        let service = platform.deploy(spec).unwrap();
        assert_eq!(service.port(), 4242);
        // The port is now taken.
        assert!(platform.net().listen(4242).is_err());
    }

    /// The configuration is closed: two sizing fields. A third field
    /// fails to compile here.
    #[test]
    fn config_is_exactly_sizing() {
        let PlatformConfig { workers, shards } = PlatformConfig::default();
        assert_eq!((workers, shards), (4, 0));
    }

    /// The cost model is the network's: a platform attached to an mTCP
    /// fabric runs on it, with no field to say otherwise.
    #[test]
    fn the_cost_model_comes_from_the_network() {
        let platform =
            Platform::with_network(PlatformConfig::default(), SimNetwork::new(StackModel::Mtcp));
        assert_eq!(platform.net().model(), StackModel::Mtcp);
    }

    #[test]
    fn workers_split_across_shards_with_a_floor_of_one() {
        let cfg = PlatformConfig {
            workers: 8,
            shards: 4,
        };
        assert_eq!(cfg.resolved_shards(), 4);
        assert!((0..4).all(|i| cfg.workers_for_shard(i) == 2));
        // Remainders go to the lowest shards; the total stays exact.
        let cfg = PlatformConfig {
            workers: 5,
            shards: 4,
        };
        let split: Vec<usize> = (0..4).map(|i| cfg.workers_for_shard(i)).collect();
        assert_eq!(split, vec![2, 1, 1, 1]);
        // More shards than workers: floor of one worker per shard.
        let cfg = PlatformConfig {
            workers: 2,
            shards: 8,
        };
        assert!((0..8).all(|i| cfg.workers_for_shard(i) == 1));
    }

    #[test]
    fn auto_sharding_never_exceeds_the_worker_budget() {
        // The auto default (shards == 0) caps the shard count at the
        // worker count, so the configured total worker threads is always
        // honoured exactly — the cores axis of fig4/fig6 stays valid on
        // any host.
        for workers in 1..6 {
            let cfg = PlatformConfig {
                workers,
                ..Default::default()
            };
            let shards = cfg.resolved_shards();
            assert!(shards >= 1 && shards <= workers);
            let total: usize = (0..shards).map(|i| cfg.workers_for_shard(i)).sum();
            assert_eq!(total, workers, "auto split must preserve the budget");
        }
    }

    #[test]
    fn services_home_shards_rotate() {
        let platform = Platform::new(PlatformConfig {
            shards: 2,
            ..Default::default()
        });

        // A graph over two connections: a single-listener service.
        struct NeverFactory;
        impl GraphFactory for NeverFactory {
            fn connections_per_graph(&self) -> usize {
                2
            }

            fn build(
                &self,
                _clients: Vec<Endpoint>,
                _env: &ServiceEnv,
            ) -> Result<BuiltGraph, RuntimeError> {
                Err(RuntimeError::Config("not used in this test".into()))
            }
        }

        let a = platform
            .deploy(ServiceSpec::new("a", 4301, Arc::new(NeverFactory)))
            .unwrap();
        let b = platform
            .deploy(ServiceSpec::new("b", 4302, Arc::new(NeverFactory)))
            .unwrap();
        let c = platform
            .deploy(ServiceSpec::new("c", 4303, Arc::new(NeverFactory)))
            .unwrap();
        assert_eq!(a.home_shard(), 0);
        assert_eq!(b.home_shard(), 1);
        assert_eq!(c.home_shard(), 0);
    }
}
