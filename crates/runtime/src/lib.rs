//! The FLICK platform runtime.
//!
//! This crate reproduces §5 of the paper: the execution environment that
//! runs compiled FLICK programs as *task graphs* — directed acyclic graphs of
//! small, cooperatively scheduled tasks connected by bounded channels.
//!
//! The main pieces are:
//!
//! * [`value::Value`] — the dynamically typed values that flow between tasks
//!   (parsed application messages, integers, strings, lists);
//! * [`channel`] — bounded single-consumer task channels;
//! * [`task`] — the [`task::Task`] trait, the cooperative
//!   [`task::TaskContext`] and the timeslice that expresses the three
//!   scheduling policies of §6.4;
//! * [`tasks`] — the concrete task kinds: one per connection (deserialise
//!   and run the rules on each message it reads, serialise what is written
//!   to it), plus the synthetic task of the resource-sharing
//!   micro-benchmark;
//! * [`graph`] — task-graph assembly;
//! * [`link`] — what a connection task is bound to: a client connection, or a
//!   back-end pool member — checked out at build or on the first send to
//!   it, and parked back in the pool at teardown when cleanly framed;
//! * [`scheduler`] — the worker-thread pool with per-worker FIFO queues,
//!   work scavenging, the timeslice discipline, and the cross-shard
//!   [`scheduler::steal`] path;
//! * [`shard`] — per-core shards (scheduler pool + dispatcher + poller);
//!   a task graph runs on the shard that accepted its connections;
//! * [`dispatcher`] — the per-shard application dispatcher (connection →
//!   program instance) and graph dispatcher (connection → task graph);
//! * [`platform`] — the top-level [`platform::Platform`] that ties the
//!   shards, the network substrate and deployed services together;
//! * [`pool`] — a service's back-end targets, their idle connections,
//!   their passive health state and the rotation routed checkouts follow.
//!
//! Services are described by implementing [`platform::GraphFactory`] (done
//! automatically for FLICK programs by the compiler crate, or by hand as the
//! services crate does for its baselines).

pub mod channel;
pub mod dispatcher;
pub mod error;
pub mod graph;
pub mod link;
pub mod metrics;
pub mod platform;
pub mod pool;
pub mod scheduler;
pub mod shard;
mod stream;
pub mod task;
pub mod tasks;
pub mod value;

pub use channel::{ChannelConsumer, ChannelProducer, TaskChannel};
pub use dispatcher::DeployedService;
pub use error::RuntimeError;
pub use graph::{GraphBuilder, NodeId, Peer, Reads};
pub use link::Link;
pub use metrics::{MetricsSnapshot, RuntimeMetrics};
pub use platform::{
    default_shard_count, GraphFactory, Platform, PlatformConfig, ServiceEnv, ServiceSpec, Watch,
};
pub use pool::{BackendPool, BackendTarget};
pub use scheduler::{Scheduler, ShardLoad, StealGroup};
pub use shard::{Shard, ShardStatus};
pub use task::{Task, TaskContext, TaskId, TaskStatus, NO_DEADLINE, TIMESLICE};
pub use tasks::{ComputeLogic, ConnectionTask, ExecMode, LogicHarness, Outputs};
pub use value::{SharedDict, Value};
