//! Task-graph assembly.
//!
//! A [`GraphBuilder`] wires tasks together with bounded channels and produces
//! a [`BuiltGraph`]: the tasks with their global [`TaskId`]s, ready to be
//! registered with the scheduler, plus the readiness watches and client
//! tasks its dispatcher needs. Graphs are directed and acyclic by
//! construction — channels can only be created from an already-added
//! producer node to an already-added consumer node, and the builder
//! assigns identifiers in topological insertion order.

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

/// A graph under construction.
///
/// The builder separates *declaring* nodes (which allocates their task ids
/// and channels) from *installing* the task objects, because a task object
/// usually needs its input consumers and output producers at construction
/// time. The typical sequence is:
///
/// 1. [`GraphBuilder::declare_node`] for every task;
/// 2. [`GraphBuilder::bind_input`] and [`GraphBuilder::bind_output`] for
///    every connection the graph reads or writes — each installs the edge
///    task *and* records the readiness watch on the same endpoint, so the
///    two cannot disagree;
/// 3. [`GraphBuilder::channel`] for every remaining edge and
///    [`GraphBuilder::install`] for every remaining task;
/// 4. [`GraphBuilder::build`].
///
/// A graph whose input tasks run the rules (every graph but a fold's)
/// binds [`GraphBuilder::bind_destination`] and
/// [`GraphBuilder::bind_inline_input`] instead: every inline input runs
/// its own logic and writes to every destination of the graph.
pub struct GraphBuilder<'a> {
    allocator: &'a TaskIdAllocator,
    name: String,
    declared: Vec<NodeId>,
    tasks: HashMap<TaskId, Box<dyn Task>>,
    /// One per bound direction, in binding order (the order the
    /// dispatcher registers them with its poller).
    watchers: Vec<Watch>,
    client_tasks: Vec<TaskId>,
    /// The outputs inline inputs write to, in binding order.
    destinations: Vec<Destination>,
    /// Inline inputs, built by [`GraphBuilder::build`] once every
    /// destination is bound.
    inline_inputs: Vec<InlineInput>,
}

/// An inline input bound but not yet built.
struct InlineInput {
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
            destinations: Vec::new(),
            inline_inputs: Vec::new(),
        }
    }

    /// Declares a node, allocating its task id.
    pub fn declare_node(&mut self) -> NodeId {
        let id = NodeId(self.allocator.allocate());
        self.declared.push(id);
        id
    }

    /// Creates a channel whose consumer is `consumer`.
    pub fn channel(&self, consumer: NodeId) -> (ChannelProducer, ChannelConsumer) {
        TaskChannel::bounded(DEFAULT_CHANNEL_CAPACITY, consumer.task_id())
    }

    /// Binds a connection as an input: installs an [`InputTask`] at `node`
    /// that parses the peer's endpoint into a new channel consumed by
    /// `to`, and watches the endpoint for readability. A [`Peer::Client`]
    /// input also counts among the tasks whose exit starts the graph's
    /// drain. Returns the channel's consumer half for the task at `to`.
    pub fn bind_input(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        peer: Peer<'_>,
        codec: Arc<dyn WireCodec>,
        projection: Option<Projection>,
        to: NodeId,
    ) -> ChannelConsumer {
        let link = self.watch_input(node, peer);
        let (tx, rx) = self.channel(to);
        let task = InputTask::new(label, link, codec, projection, tx);
        self.install(node, Box::new(task));
        rx
    }

    /// Binds a connection as an input whose task runs `logic` itself on
    /// every message, as logic input `input`, emitting to the graph's
    /// destinations ([`InlineRules`]). Watched and counted like
    /// [`GraphBuilder::bind_input`]; the task is built by
    /// [`GraphBuilder::build`], once every destination is bound.
    #[allow(clippy::too_many_arguments)]
    pub fn bind_inline_input(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        peer: Peer<'_>,
        codec: Arc<dyn WireCodec>,
        projection: Option<Projection>,
        logic: Box<dyn ComputeLogic>,
        input: usize,
    ) {
        let link = self.watch_input(node, peer);
        self.inline_inputs.push(InlineInput {
            node,
            label: label.into(),
            link,
            codec,
            projection,
            logic,
            input,
        });
    }

    /// The link an input at `node` reads, watched for readability; a
    /// client input counts among the tasks whose exit starts the drain.
    fn watch_input(&mut self, node: NodeId, peer: Peer<'_>) -> Link {
        let link = match peer {
            Peer::Client(endpoint) => {
                self.client_tasks.push(node.task_id());
                Link::from(endpoint)
            }
            Peer::Backend(link) => link.clone(),
        };
        self.watchers
            .push(Watch::readable(node.task_id(), link.clone()));
        link
    }

    /// Binds a connection as an output: installs an [`OutputTask`] at
    /// `node` that serialises a new channel onto `link` and watches the
    /// connection for writability. Returns the channel's producer half.
    pub fn bind_output(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        link: impl Into<Link>,
        codec: Arc<dyn WireCodec>,
    ) -> ChannelProducer {
        self.output(node, label, link.into(), codec).producer
    }

    /// Binds a connection as an output of the graph's inline inputs: an
    /// [`OutputTask`] as [`GraphBuilder::bind_output`] installs, whose side
    /// every inline input writes to directly. Returns the destination's
    /// index, the logic's output number for it.
    pub fn bind_destination(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        link: impl Into<Link>,
        codec: Arc<dyn WireCodec>,
    ) -> usize {
        let destination = self.output(node, label, link.into(), codec);
        self.destinations.push(destination);
        self.destinations.len() - 1
    }

    fn output(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        link: Link,
        codec: Arc<dyn WireCodec>,
    ) -> Destination {
        let (producer, rx) = self.channel(node);
        let task = OutputTask::new(label, link.clone(), codec, rx);
        let side = Arc::clone(task.side());
        self.install(node, Box::new(task));
        self.watchers.push(Watch::writable(node.task_id(), link));
        Destination { producer, side }
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
        for pending in std::mem::take(&mut self.inline_inputs) {
            let rules = InlineRules::new(pending.logic, pending.input, &self.destinations);
            let task = InputTask::inline(
                pending.label,
                pending.link,
                pending.codec,
                pending.projection,
                rules,
            );
            self.install(pending.node, Box::new(task));
        }
        // Each inline input holds its own handle on every destination: a
        // destination's channel closes once all of them have finished.
        for destination in &self.destinations {
            destination.producer.close();
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

    /// Binding installs the edge task and records the watch from the same
    /// endpoint: one readable and one writable watch on it, each naming
    /// the task bound in that direction, and only the client binding
    /// counts as a client task.
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
        let compute = b.declare_node();
        let client_out = b.declare_node();
        let rx = b.bind_input(
            client_in,
            "in",
            Peer::Client(&client),
            codec.clone(),
            None,
            compute,
        );
        assert_eq!(rx.consumer(), compute.task_id());
        let backend = Link::from(backend);
        let backend_peer = Peer::Backend(&backend);
        let _ = b.bind_input(
            backend_in,
            "bin",
            backend_peer,
            codec.clone(),
            None,
            compute,
        );
        let tx = b.bind_output(client_out, "out", &client, codec);
        assert_eq!(tx.consumer(), client_out.task_id());
        b.install(compute, Box::new(NopTask));
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
        assert_eq!(built.watchers.len(), 3);
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
