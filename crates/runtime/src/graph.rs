//! Task-graph assembly.
//!
//! A [`GraphBuilder`] binds a graph's connections — an input task per
//! connection the graph reads, an output task per connection it writes —
//! and produces a [`BuiltGraph`]: the tasks with their global [`TaskId`]s,
//! ready to be registered with the scheduler, plus the readiness watches
//! and client tasks its dispatcher needs. Every graph has that one shape:
//! each input runs the rules on what it parses and writes to the outputs,
//! through a bounded channel into each output task when it cannot write
//! itself, so graphs are acyclic by construction.

use crate::channel::{ChannelConsumer, ChannelProducer, TaskChannel, DEFAULT_CHANNEL_CAPACITY};
use crate::link::Link;
use crate::platform::{BuiltGraph, Watch};
use crate::task::{Task, TaskId};
use crate::tasks::{ComputeLogic, Destination, InlineRules, InputTask, OutputTask};
use flick_grammar::{Projection, WireCodec};
use flick_net::Endpoint;
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

/// The connection an input is bound to, by the side of the service it
/// faces.
#[derive(Clone, Copy)]
pub enum Peer<'a> {
    /// An accepted client connection. The graph starts draining once
    /// every client input has finished.
    Client(&'a Endpoint),
    /// An outbound back-end connection, possibly an array member that is
    /// opened on the first send to it.
    Backend(&'a Link),
}

/// A graph under construction: an [`InputTask`] per connection the
/// graph reads, each running its own instance of the process's logic on
/// what it parses, and an [`OutputTask`] per connection it writes, which
/// every input writes to directly.
///
/// The builder separates *declaring* nodes (which allocates their task ids)
/// from *installing* the task objects. The typical sequence is:
///
/// 1. [`GraphBuilder::declare_node`] for every task;
/// 2. [`GraphBuilder::bind_input`] and [`GraphBuilder::bind_output`] for
///    every connection the graph reads or writes — each binds the edge
///    task *and* records the readiness watch on the same endpoint, so the
///    two cannot disagree;
/// 3. [`GraphBuilder::build`], which builds the input tasks once every
///    output is bound.
pub struct GraphBuilder<'a> {
    allocator: &'a TaskIdAllocator,
    name: String,
    declared: Vec<NodeId>,
    tasks: HashMap<TaskId, Box<dyn Task>>,
    /// One per bound direction, in binding order (the order the
    /// dispatcher registers them with its poller).
    watchers: Vec<Watch>,
    client_tasks: Vec<TaskId>,
    /// The outputs every input writes to, in binding order.
    outputs: Vec<Destination>,
    /// The inputs, built by [`GraphBuilder::build`] once every output is
    /// bound.
    inputs: Vec<PendingInput>,
}

/// An input bound but not yet built.
struct PendingInput {
    node: NodeId,
    label: String,
    link: Link,
    codec: Arc<dyn WireCodec>,
    projection: Option<Projection>,
    logic: Box<dyn ComputeLogic>,
    input: usize,
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
            inputs: Vec::new(),
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

    /// Binds a connection as an input: an [`InputTask`] at `node` that
    /// parses the peer's endpoint and runs `logic` itself on every message,
    /// as logic input `input`, emitting to the graph's outputs
    /// ([`InlineRules`]). The endpoint is watched for readability, and a
    /// [`Peer::Client`] input also counts among the tasks whose exit starts
    /// the graph's drain. The task is built by [`GraphBuilder::build`],
    /// once every output is bound.
    #[allow(clippy::too_many_arguments)]
    pub fn bind_input(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        peer: Peer<'_>,
        codec: Arc<dyn WireCodec>,
        projection: Option<Projection>,
        logic: Box<dyn ComputeLogic>,
        input: usize,
    ) {
        let link = match peer {
            Peer::Client(endpoint) => {
                self.client_tasks.push(node.task_id());
                Link::from(endpoint)
            }
            Peer::Backend(link) => link.clone(),
        };
        self.watchers
            .push(Watch::readable(node.task_id(), link.clone()));
        self.inputs.push(PendingInput {
            node,
            label: label.into(),
            link,
            codec,
            projection,
            logic,
            input,
        });
    }

    /// Binds a connection as an output: installs an [`OutputTask`] at
    /// `node` that serialises what the graph's inputs emit to it onto
    /// `link`, and watches the connection for writability. Every input
    /// writes to its side directly while it is idle. Returns the output's
    /// index, the logic's output number for it.
    pub fn bind_output(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        link: impl Into<Link>,
        codec: Arc<dyn WireCodec>,
    ) -> usize {
        let link = link.into();
        let (producer, rx) = self.channel(node);
        let task = OutputTask::new(label, link.clone(), codec, rx);
        let side = Arc::clone(task.side());
        self.install(node, Box::new(task));
        self.watchers.push(Watch::writable(node.task_id(), link));
        self.outputs.push(Destination { producer, side });
        self.outputs.len() - 1
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
        for pending in std::mem::take(&mut self.inputs) {
            let rules = InlineRules::new(pending.logic, pending.input, &self.outputs);
            let task = InputTask::new(
                pending.label,
                pending.link,
                pending.codec,
                pending.projection,
                rules,
            );
            self.install(pending.node, Box::new(task));
        }
        // Each input holds its own handle on every output: an output's
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

    /// Binding records the watch from the endpoint the edge task uses: one
    /// readable and one writable watch on it, each naming the task bound
    /// in that direction, and only the client binding counts as a client
    /// task. Outputs are numbered in binding order.
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

        let alloc = TaskIdAllocator::new();
        let mut b = GraphBuilder::new("g", &alloc);
        let client_in = b.declare_node();
        let backend_in = b.declare_node();
        let client_out = b.declare_node();
        let backend_out = b.declare_node();
        let peer = Peer::Client(&client);
        b.bind_input(
            client_in,
            "in",
            peer,
            codec.clone(),
            None,
            Box::new(Quiet),
            0,
        );
        let backend = Link::from(backend);
        let backend_peer = Peer::Backend(&backend);
        b.bind_input(
            backend_in,
            "bin",
            backend_peer,
            codec.clone(),
            None,
            Box::new(Quiet),
            1,
        );
        assert_eq!(b.bind_output(client_out, "out", &client, codec.clone()), 0);
        assert_eq!(
            b.bind_output(backend_out, "bout", backend.clone(), codec),
            1
        );
        let built = b.build();

        assert_eq!(built.tasks.len(), 4);
        assert_eq!(built.client_tasks, vec![client_in.task_id()]);
        let on_client: Vec<_> = built
            .watchers
            .iter()
            .filter(|w| w.endpoint.open_endpoint().unwrap().id() == client.id())
            .map(|w| (w.task, w.interest))
            .collect();
        assert_eq!(
            on_client,
            vec![
                (client_in.task_id(), Interest::READABLE),
                (client_out.task_id(), Interest::WRITABLE),
            ]
        );
        assert_eq!(built.watchers.len(), 4);
        assert_eq!(built.watchers[1].task, backend_in.task_id());
        assert_eq!(
            built.watchers[1].endpoint.open_endpoint().unwrap().id(),
            backend.open_endpoint().unwrap().id()
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
