//! Task-graph assembly.
//!
//! A [`GraphBuilder`] binds a graph's connections — one
//! [`ConnectionTask`] per connection the graph reads or writes — and
//! produces a [`BuiltGraph`]: the tasks with their global [`TaskId`]s,
//! ready to be registered with the scheduler, plus the readiness watches
//! and client tasks its dispatcher needs. Every graph has that one shape:
//! each task runs the rules on what it reads and writes to the graph's
//! connections, through a bounded channel into the connection's task when
//! it cannot write itself, so graphs are acyclic by construction.

use crate::channel::{ChannelConsumer, ChannelProducer, TaskChannel, DEFAULT_CHANNEL_CAPACITY};
use crate::link::Link;
use crate::platform::{BuiltGraph, Watch};
use crate::task::{Task, TaskId};
use crate::tasks::{ComputeLogic, ConnectionTask, Destination, InlineRules, ReadSide, WriteSide};
use flick_grammar::{Projection, WireCodec};
use flick_net::{Endpoint, Interest};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global task-id allocator shared by all graphs of a platform.
#[derive(Debug, Default)]
pub struct TaskIdAllocator {
    next: AtomicU64,
}

impl TaskIdAllocator {
    /// Creates an allocator starting at id 1.
    pub fn new() -> Self {
        TaskIdAllocator {
            next: AtomicU64::new(1),
        }
    }

    /// Allocates a fresh task id.
    pub fn allocate(&self) -> TaskId {
        TaskId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// Identifies a node within a graph being built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub TaskId);

impl NodeId {
    /// The global task id of this node.
    pub fn task_id(&self) -> TaskId {
        self.0
    }
}

/// A connection a graph binds, by the side of the service it faces.
#[derive(Clone, Copy)]
pub enum Peer<'a> {
    /// An accepted client connection. The graph starts draining once the
    /// input of every client connection it reads has ended.
    Client(&'a Endpoint),
    /// An outbound back-end connection, possibly an array member that is
    /// opened on the first send to it.
    Backend(&'a Link),
}

/// What a graph does with the messages it reads from a connection: the
/// process's rules, run on each message as logic input `input`.
pub struct Reads {
    /// The fields the codec parses; `None` for every field.
    pub projection: Option<Projection>,
    /// This connection's own logic instance.
    pub logic: Box<dyn ComputeLogic>,
    /// The logic's input number for the connection.
    pub input: usize,
}

/// A graph under construction: one [`ConnectionTask`] per connection the
/// graph reads or writes. A connection's task runs its own instance of the
/// process's logic on what it parses, and every task writes to the
/// graph's connections directly.
///
/// The builder separates *declaring* nodes (which allocates their task ids)
/// from *installing* the task objects. The typical sequence is:
///
/// 1. [`GraphBuilder::declare_node`] for every connection;
/// 2. [`GraphBuilder::bind`] for every connection the graph reads or
///    writes — it binds the connection's task *and* records the one
///    readiness watch on the same endpoint, so the two cannot disagree;
/// 3. [`GraphBuilder::build`], which builds the tasks once every output is
///    bound.
pub struct GraphBuilder<'a> {
    allocator: &'a TaskIdAllocator,
    name: String,
    declared: Vec<NodeId>,
    tasks: HashMap<TaskId, Box<dyn Task>>,
    /// One per bound connection, in binding order (the order the
    /// dispatcher registers them with its poller).
    watchers: Vec<Watch>,
    client_tasks: Vec<TaskId>,
    /// The outputs every read side writes to, in binding order.
    outputs: Vec<Destination>,
    /// The connections, built by [`GraphBuilder::build`] once every output
    /// is bound.
    pending: Vec<Pending>,
}

/// A connection bound but not yet built.
struct Pending {
    node: NodeId,
    label: String,
    link: Link,
    codec: Arc<dyn WireCodec>,
    reads: Option<Reads>,
    writes: Option<WriteSide>,
}

impl<'a> GraphBuilder<'a> {
    /// Starts building a graph named `name`.
    pub fn new(name: impl Into<String>, allocator: &'a TaskIdAllocator) -> Self {
        GraphBuilder {
            allocator,
            name: name.into(),
            declared: Vec::new(),
            tasks: HashMap::new(),
            watchers: Vec::new(),
            client_tasks: Vec::new(),
            outputs: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Declares a node, allocating its task id.
    pub fn declare_node(&mut self) -> NodeId {
        let id = NodeId(self.allocator.allocate());
        self.declared.push(id);
        id
    }

    /// Creates a channel whose consumer is `consumer`.
    fn channel(&self, consumer: NodeId) -> (ChannelProducer, ChannelConsumer) {
        TaskChannel::bounded(DEFAULT_CHANNEL_CAPACITY, consumer.task_id())
    }

    /// Binds a connection: a [`ConnectionTask`] at `node` that parses the
    /// peer's endpoint and runs the logic on every message if the graph
    /// `reads` it ([`InlineRules`]), and serialises onto it what the rules
    /// emit to it if it `writes` it, under one watch for the directions
    /// bound. A [`Peer::Client`] read counts among the inputs whose end
    /// starts the graph's drain. Returns the logic's output number for the
    /// connection when it `writes`. The task is built by
    /// [`GraphBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if the connection is neither read nor written.
    pub fn bind(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        peer: Peer<'_>,
        codec: Arc<dyn WireCodec>,
        reads: Option<Reads>,
        writes: bool,
    ) -> Option<usize> {
        let link = match peer {
            Peer::Client(endpoint) => {
                if reads.is_some() {
                    self.client_tasks.push(node.task_id());
                }
                Link::client(endpoint)
            }
            Peer::Backend(link) => link.clone(),
        };
        let interest = match (reads.is_some(), writes) {
            (true, true) => Interest::BOTH,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            (false, false) => panic!("node {node:?} neither reads nor writes its connection"),
        };
        self.watchers.push(Watch {
            task: node.task_id(),
            endpoint: link.clone(),
            interest,
        });
        let output = writes.then(|| {
            let (producer, queue) = self.channel(node);
            let side = WriteSide::new(link.clone(), Arc::clone(&codec), queue);
            self.outputs.push(Destination {
                producer,
                side: Arc::clone(side.side()),
            });
            side
        });
        self.pending.push(Pending {
            node,
            label: label.into(),
            link,
            codec,
            reads,
            writes: output,
        });
        writes.then(|| self.outputs.len() - 1)
    }

    /// Installs the task object for a declared node.
    ///
    /// # Panics
    ///
    /// Panics if the node was not declared by this builder or was already
    /// installed — both are programming errors in graph-factory code.
    pub fn install(&mut self, node: NodeId, task: Box<dyn Task>) {
        assert!(
            self.declared.contains(&node),
            "node {:?} was not declared by this builder",
            node
        );
        let previous = self.tasks.insert(node.task_id(), task);
        assert!(previous.is_none(), "node {:?} was installed twice", node);
    }

    /// Finishes the graph.
    ///
    /// # Panics
    ///
    /// Panics if any declared node was never installed.
    pub fn build(mut self) -> BuiltGraph {
        for pending in std::mem::take(&mut self.pending) {
            let input = pending.reads.map(|reads| {
                let rules = InlineRules::new(reads.logic, reads.input, &self.outputs);
                let link = pending.link.clone();
                ReadSide::new(link, pending.codec, reads.projection, rules)
            });
            let task = ConnectionTask::new(pending.label, pending.link, input, pending.writes);
            self.install(pending.node, Box::new(task));
        }
        // Each read side holds its own handle on every output: an output's
        // channel closes once all of them have finished.
        for output in &self.outputs {
            output.producer.close();
        }
        for node in &self.declared {
            assert!(
                self.tasks.contains_key(&node.task_id()),
                "node {:?} of graph `{}` was declared but never installed",
                node,
                self.name
            );
        }
        BuiltGraph {
            tasks: self.tasks.into_iter().collect(),
            watchers: self.watchers,
            client_tasks: self.client_tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskContext, TaskStatus};
    use flick_net::Interest;

    struct NopTask;
    impl Task for NopTask {
        fn label(&self) -> &str {
            "nop"
        }
        fn run(&mut self, _ctx: &mut TaskContext) -> TaskStatus {
            TaskStatus::Finished
        }
    }

    #[test]
    fn build_two_node_graph() {
        let alloc = TaskIdAllocator::new();
        let mut builder = GraphBuilder::new("g", &alloc);
        let a = builder.declare_node();
        let b = builder.declare_node();
        let (_tx, _rx) = builder.channel(b);
        builder.install(a, Box::new(NopTask));
        builder.install(b, Box::new(NopTask));
        let mut ids: Vec<TaskId> = builder.build().tasks.iter().map(|(id, _)| *id).collect();
        ids.sort();
        assert_eq!(ids, vec![a.task_id(), b.task_id()]);
    }

    #[test]
    fn allocator_produces_unique_ids_across_graphs() {
        let alloc = TaskIdAllocator::new();
        let mut b1 = GraphBuilder::new("g1", &alloc);
        let n1 = b1.declare_node();
        let mut b2 = GraphBuilder::new("g2", &alloc);
        let n2 = b2.declare_node();
        assert_ne!(n1.task_id(), n2.task_id());
    }

    #[test]
    #[should_panic(expected = "was not declared")]
    fn installing_undeclared_node_panics() {
        let alloc = TaskIdAllocator::new();
        let mut b1 = GraphBuilder::new("g1", &alloc);
        let mut b2 = GraphBuilder::new("g2", &alloc);
        let foreign = b2.declare_node();
        b1.install(foreign, Box::new(NopTask));
    }

    #[test]
    #[should_panic(expected = "never installed")]
    fn building_with_missing_task_panics() {
        let alloc = TaskIdAllocator::new();
        let mut b = GraphBuilder::new("g", &alloc);
        let _node = b.declare_node();
        let _ = b.build();
    }

    /// Logic that never emits.
    struct Quiet;
    impl ComputeLogic for Quiet {
        fn on_value(
            &mut self,
            _input: usize,
            _value: crate::value::Value,
            _out: &mut crate::tasks::Outputs<'_>,
        ) -> Result<(), crate::RuntimeError> {
            Ok(())
        }
    }

    /// Binding records the watch from the endpoint the connection's task
    /// uses: an endpoint bound both ways gets its readable and its
    /// writable watch as one, naming its one task, and only the client
    /// binding counts as a client task. Outputs are numbered in binding
    /// order.
    #[test]
    fn binding_an_endpoint_both_ways_records_both_watches() {
        use flick_grammar::http::HttpCodec;
        use flick_net::{SimNetwork, StackModel};

        let net = SimNetwork::new(StackModel::Free);
        let _client_listener = net.listen(7001).unwrap();
        let _backend_listener = net.listen(7002).unwrap();
        let client = net.connect(7001).unwrap();
        let backend = net.connect(7002).unwrap();
        let codec = Arc::new(HttpCodec::new());
        let reads = |input| Reads {
            projection: None,
            logic: Box::new(Quiet),
            input,
        };

        let alloc = TaskIdAllocator::new();
        let mut b = GraphBuilder::new("g", &alloc);
        let client_node = b.declare_node();
        let backend_node = b.declare_node();
        let peer = Peer::Client(&client);
        let bound = b.bind(client_node, "c", peer, codec.clone(), Some(reads(0)), true);
        assert_eq!(bound, Some(0));
        let member = Link::checked_out(backend.clone());
        let peer = Peer::Backend(&member);
        let bound = b.bind(backend_node, "b", peer, codec, Some(reads(1)), true);
        assert_eq!(bound, Some(1));
        let built = b.build();

        assert_eq!(built.tasks.len(), 2);
        assert_eq!(built.client_tasks, vec![client_node.task_id()]);
        let watches: Vec<_> = built
            .watchers
            .iter()
            .map(|w| {
                // A member's connection, as its task adopts it.
                let mut link = w.endpoint.clone();
                link.settle();
                (w.task, link.open_endpoint().unwrap().id(), w.interest)
            })
            .collect();
        assert_eq!(
            watches,
            vec![
                (client_node.task_id(), client.id(), Interest::BOTH),
                (backend_node.task_id(), backend.id(), Interest::BOTH),
            ]
        );
    }

    #[test]
    fn channel_consumer_matches_node() {
        let alloc = TaskIdAllocator::new();
        let mut b = GraphBuilder::new("g", &alloc);
        let n = b.declare_node();
        let (tx, rx) = b.channel(n);
        assert_eq!(tx.consumer(), n.task_id());
        assert_eq!(rx.consumer(), n.task_id());
        b.install(n, Box::new(NopTask));
        let _ = b.build();
    }
}
