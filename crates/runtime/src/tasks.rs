//! Concrete task kinds: the connection task, and a synthetic task.
//!
//! These are the building blocks the FLICK compiler (and hand-written
//! services) assemble into task graphs, every one of them the same shape:
//! one task per connection the graph reads or writes.
//!
//! * [`ConnectionTask`] — owns one network connection. Its read side
//!   performs incremental deserialisation using a [`WireCodec`] and a field
//!   [`Projection`], runs the rules ([`ComputeLogic`]) on each message it
//!   parses, and tells them when its input ends ([`InlineRules`]); a
//!   `foldt` folds its own stream there and merges it at that end. Its
//!   write side serialises values and writes them to the connection,
//!   through an [`OutputSide`] that other tasks' rules write to directly
//!   while it is idle;
//! * [`SyntheticWorkTask`] — the synthetic task of the resource-sharing
//!   micro-benchmark of §6.4.

use crate::channel::{ChannelConsumer, ChannelProducer};
use crate::error::RuntimeError;
use crate::link::{Ended, Link, Settled};
use crate::metrics::RuntimeMetrics;
use crate::stream::{BodyStream, Draining, Moved};
use crate::task::{wake_after_run, Task, TaskContext, TaskId, TaskStatus};
use crate::value::Value;
use bytes::Bytes;
use flick_grammar::{ParseOutcome, Projection, WireCodec};
use flick_net::{Endpoint, NetError, SharedBuf};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// How many bytes a read side reads per socket call.
pub const READ_CHUNK: usize = 16 * 1024;

/// Capacity a write side retains for its serialisation buffer across
/// responses; a one-off larger response shrinks back to this once flushed,
/// so a single 16 KB body does not pin its capacity forever.
pub const OUTBUF_RETAIN: usize = READ_CHUNK;

// ---------------------------------------------------------------------------
// Connection task
// ---------------------------------------------------------------------------

/// The one task of a connection: it reads what the graph reads from the
/// connection and writes what the graph's rules emit to it.
///
/// A run flushes the write side ([`WriteSide`]), then reads and parses
/// ([`ReadSide`]); it holds the side's lock only while it flushes, so other
/// tasks emitting to this connection meanwhile write inline. The task
/// finishes once both sides have, and then closes the connection or, on a
/// released member, records how both sides ended ([`Link::finish`]). Its
/// graph's drain waits for the end of a client's input
/// ([`TaskContext::end_input`]), not of its task, which writes on until
/// the back-end tasks the drain releases have finished.
pub struct ConnectionTask {
    label: String,
    link: Link,
    input: Option<ReadSide>,
    output: Option<WriteSide>,
    /// The read side finished (or the task has none).
    read_done: bool,
}

impl ConnectionTask {
    /// A task on `link` reading `input` and writing `output`.
    pub(crate) fn new(
        label: impl Into<String>,
        link: Link,
        input: Option<ReadSide>,
        output: Option<WriteSide>,
    ) -> Self {
        ConnectionTask {
            label: label.into(),
            link,
            read_done: input.is_none(),
            input,
            output,
        }
    }

    /// One round of the write side; `Finished` once it is done, or when
    /// the task does not write.
    fn write(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        (self.output.as_ref()).map_or(TaskStatus::Finished, |output| {
            output.side.writer.lock().run(&output.queue, ctx)
        })
    }

    /// Both sides are done: closes the connection, or records how a
    /// released member's two sides ended for its teardown.
    fn end(&mut self) -> TaskStatus {
        let received = self.input.as_ref().and_then(|input| input.framed);
        let sent = (self.output.as_ref()).and_then(|output| output.side.writer.lock().framed());
        self.link.finish(match (sent, received) {
            (Some(sent), Some(received)) => Ended::Framed { sent, received },
            _ => Ended::Unclean,
        });
        TaskStatus::Finished
    }
}

impl Drop for ConnectionTask {
    fn drop(&mut self) {
        // Dropping a task (graph teardown) must release the connection so
        // that the peer observes EOF instead of a hung socket — unless its
        // graph's teardown decides, on a released member.
        if !self.link.is_released() {
            self.link.close();
        }
        if let Some(input) = &mut self.input {
            input.rules.emitter.close(|_| {});
            if let Some(consumer) = input.streaming.take().and_then(|stream| stream.fail()) {
                wake_after_run(consumer);
            }
        }
    }
}

impl Task for ConnectionTask {
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        let mut wrote = self.write(ctx);
        if wrote == TaskStatus::Runnable {
            // The next run reads; the readiness it would miss is not lost.
            return wrote;
        }
        let read = match self.input.as_mut().filter(|_| !self.read_done) {
            Some(input) => input.run(ctx),
            None => TaskStatus::Finished,
        };
        let ended = read == TaskStatus::Finished && !std::mem::replace(&mut self.read_done, true);
        if ended && wrote == TaskStatus::Idle {
            // The read side's end may have closed this connection's queue.
            wrote = self.write(ctx);
        }
        match (read, wrote) {
            (TaskStatus::Finished, TaskStatus::Finished) => self.end(),
            (TaskStatus::Runnable, _) | (_, TaskStatus::Runnable) => TaskStatus::Runnable,
            _ => TaskStatus::Idle,
        }
    }
}

// ---------------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------------

/// What a connection task reads: bytes from its connection, deserialised
/// into application messages that the rules run on.
///
/// Ingest is zero-copy: the socket fills a refcounted [`SharedBuf`] in
/// place ([`Endpoint::read_into`]) and messages are parsed straight out of
/// it via [`WireCodec::parse_bytes`], so a complete message binds its raw
/// wire bytes (and byte fields) to the ingest allocation instead of being
/// copied into a private accumulator — and an incomplete message costs
/// nothing at all. [`flick_net::NetStats::ingest_copies`] stays at zero on
/// this path; the end-to-end suite asserts it.
///
/// A message whose body the codec left unread (a projection without
/// `body`) is pushed as soon as its head is parsed, with a body pipe
/// attached; the side then fills the pipe from its connection, and parses
/// on only once the whole body is in it (`crate::stream`).
///
/// On an array back-end member the side idles until the member is opened
/// ([`Link`]), and finishes if the member is closed first. On a member its
/// graph's drain released, it finishes without reading on and notes
/// whether it ended cleanly framed.
///
/// The side runs its process's rules on each message itself: the rules'
/// emissions go straight to their destinations' [`OutputSide`]s. When its
/// input ends (end of stream, hang-up or a malformed close) it tells the
/// rules so, and delivers what they emit then before it finishes.
pub(crate) struct ReadSide {
    endpoint: Link,
    codec: Arc<dyn WireCodec>,
    projection: Option<Projection>,
    buf: SharedBuf,
    rules: InlineRules,
    /// The rules were told the input ended, or failed: all that is left
    /// is to deliver what they emitted and finish.
    ended: bool,
    /// Messages parsed, once a released member's side ended cleanly framed
    /// (no partial message, and the codec says the last one keeps the
    /// connection open).
    framed: Option<u64>,
    /// Messages parsed so far.
    received: u64,
    /// Whether the codec says the last one keeps the connection open
    /// (asked on back-end members only).
    keeps_alive: bool,
    /// The body of the last message pushed, still being moved from this
    /// connection into its pipe.
    streaming: Option<Arc<BodyStream>>,
    /// The most one read takes: one [`READ_CHUNK`] when bodies may stream
    /// (the projection leaves `body` out), so little of a body is read
    /// with its head; the endpoint's coalescing bound otherwise.
    read_max: usize,
}

impl ReadSide {
    /// A read side on `endpoint`, running `rules` on every message it
    /// parses.
    pub(crate) fn new(
        endpoint: Link,
        codec: Arc<dyn WireCodec>,
        projection: Option<Projection>,
        rules: InlineRules,
    ) -> Self {
        ReadSide {
            endpoint,
            codec,
            buf: SharedBuf::new(READ_CHUNK),
            rules,
            ended: false,
            framed: None,
            received: 0,
            keeps_alive: false,
            streaming: None,
            read_max: match &projection {
                Some(projection) if !projection.requires("body") => READ_CHUNK,
                _ => usize::MAX,
            },
            projection,
        }
    }

    /// Runs the rules on a parsed message. `None` when it was delivered;
    /// `Idle` when the task parked on a full channel, with what it could
    /// not deliver kept for its next run; `Finished` when a rule failed.
    fn push_out(&mut self, value: Value, ctx: &mut TaskContext) -> Option<TaskStatus> {
        RuntimeMetrics::add(&ctx.metrics().messages_in, 1);
        if self.rules.run(value, ctx).is_ok() {
            return (!self.rules.emitter.flush(ctx)).then_some(TaskStatus::Idle);
        }
        // A failed rule ends the graph instance: every connection it
        // writes to is closed, and its own; the rules are not told their
        // input ended.
        self.rules.fail_all();
        self.ended = true;
        Some(self.close(ctx))
    }
    /// Parses as many complete messages as possible from the shared
    /// buffer. Each message is parsed zero-copy out of a [`SharedBuf::view`]
    /// — consuming it is an index bump, not a drain-and-shift.
    ///
    /// `Ok(None)`: the buffer holds no further complete message. `Ok(Some)`:
    /// stop with this status — `Idle` when parked on a full channel or
    /// when the timeslice ran out with nothing to read, `Runnable` when it
    /// ran out with work left.
    fn drain_buffer(&mut self, ctx: &mut TaskContext) -> Result<Option<TaskStatus>, RuntimeError> {
        loop {
            if self.buf.is_empty() {
                return Ok(None);
            }
            let view = self.buf.view();
            match self.codec.parse_bytes(&view, self.projection.as_ref())? {
                ParseOutcome::Complete {
                    mut message,
                    consumed,
                } => {
                    self.buf.consume(consumed);
                    self.received += 1;
                    if self.endpoint.is_member() {
                        self.keeps_alive = self.codec.keeps_alive(&message);
                    }
                    if message.unread_body() > 0 {
                        let source = self.endpoint.open_endpoint().expect("parsed from it");
                        let Ok((stream, carrier)) =
                            BodyStream::open(source, ctx.task(), message.unread_body())
                        else {
                            return Ok(Some(self.close(ctx)));
                        };
                        message.attach_rest(carrier);
                        self.streaming = Some(stream);
                    }
                    if let Some(status) = self.push_out(Value::Msg(message), ctx) {
                        return Ok(Some(status));
                    }
                    // The body follows its head before anything else is
                    // parsed; the buffer holds nothing past its prefix.
                    if let Some(status) = self.pump(ctx) {
                        return Ok(Some(status));
                    }
                    if ctx.spent() {
                        return Ok(Some(if self.buf.is_empty() {
                            self.idle_or_yield(ctx)
                        } else {
                            ctx.yield_now()
                        }));
                    }
                }
                ParseOutcome::Incomplete => return Ok(None),
            }
        }
    }

    /// Moves the streamed body, if any, from the connection into its pipe.
    /// `None` once it is all in (or there is none): parsing goes on.
    fn pump(&mut self, ctx: &mut TaskContext) -> Option<TaskStatus> {
        let stream = self.streaming.as_ref()?;
        if stream.is_abandoned() {
            // Nothing will take the rest of this body, so the stream
            // behind it can no longer be framed.
            return Some(self.close(ctx));
        }
        let source = self
            .endpoint
            .open_endpoint()
            .expect("streams start settled");
        match stream.fill(source, ctx) {
            Ok(Moved::Done) => {
                self.streaming = None;
                None
            }
            Ok(Moved::Blocked | Moved::Dry) => Some(TaskStatus::Idle),
            Ok(Moved::Yield) => Some(TaskStatus::Runnable),
            // The source ended mid-body; its consumer was told.
            Err(_) => Some(self.finish(ctx)),
        }
    }

    /// Once the timeslice is spent with nothing left to parse: idle if the
    /// connection is open with nothing to read, instead of being run again
    /// only to find it so, and yield otherwise. It never idles with bytes
    /// in the socket, whose readiness is edge-triggered. The socket is
    /// peeked, not read: bytes read now would be parsed cold by the next
    /// run.
    fn idle_or_yield(&self, ctx: &mut TaskContext) -> TaskStatus {
        let endpoint = self.endpoint.open_endpoint().expect("settled");
        if endpoint.is_idle() {
            TaskStatus::Idle
        } else {
            ctx.yield_now()
        }
    }

    /// Closes the connection and ends the stream: a member is retired,
    /// never parked.
    fn close(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        self.endpoint.close();
        self.finish(ctx)
    }

    /// A malformed stream terminates the connection, as the paper's
    /// default behaviour for unparseable input. The blast radius is this
    /// one connection: siblings on the same service keep running, and the
    /// close is tallied separately so the sim battery can bound it.
    /// The input it read still ends, as it does at end of stream: a fold
    /// merges what it folded from this connection up to the bad frame.
    fn malformed(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        if let Some(endpoint) = self.endpoint.open_endpoint() {
            endpoint.close_malformed();
        }
        self.finish(ctx)
    }

    /// Ends the stream. The consumer of a body left half filled is woken,
    /// and the rules are told their input ended (a fold merges its stream
    /// then). What they emit is delivered before the side finishes: a full
    /// channel parks the task, and its next run resumes here. Last, the
    /// side closes its end of every output channel, waking the consumers,
    /// so that they observe the end promptly, and its input has ended
    /// ([`TaskContext::end_input`]).
    fn finish(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        if let Some(consumer) = self.streaming.take().and_then(|stream| stream.fail()) {
            ctx.wake(consumer);
        }
        if !std::mem::replace(&mut self.ended, true) && self.rules.end(ctx).is_err() {
            self.rules.fail_all();
        }
        if !self.rules.emitter.flush(ctx) {
            return TaskStatus::Idle;
        }
        self.rules.emitter.close(|consumer| ctx.wake(consumer));
        ctx.end_input();
        TaskStatus::Finished
    }

    /// One round of the read side: reads and parses until the socket is
    /// empty, the timeslice is spent, or the input ends.
    fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        if self.ended {
            // Parked on what the rules emitted when the input ended.
            return self.finish(ctx);
        }
        match self.endpoint.settle() {
            Settled::Open => {}
            Settled::Unbound => return TaskStatus::Idle,
            Settled::Closed => return self.finish(ctx),
            Settled::Released => {
                let framed = self.buf.is_empty() && self.streaming.is_none();
                self.framed = (framed && self.keeps_alive).then_some(self.received);
                return self.finish(ctx);
            }
        }
        // First retry whatever did not fit a channel last time; still full
        // means parked again.
        if !self.rules.emitter.flush(ctx) {
            return TaskStatus::Idle;
        }
        // Then move the rest of a streamed body.
        if let Some(status) = self.pump(ctx) {
            return status;
        }
        // Parse whatever is already buffered, then read more bytes from
        // the connection, straight into the shared buffer — no
        // intermediate stack chunk, no append copy — and parse those,
        // until the socket is empty or the timeslice is spent.
        let mut read = false;
        loop {
            match self.drain_buffer(ctx) {
                Ok(None) if read && ctx.spent() => return self.idle_or_yield(ctx),
                Ok(None) => {}
                Ok(Some(status)) => return status,
                Err(_) => return self.malformed(ctx),
            }
            let endpoint = self.endpoint.open_endpoint().expect("settled above");
            match endpoint.read_into(&mut self.buf, self.read_max) {
                Ok(_) => read = true,
                Err(NetError::WouldBlock) => return TaskStatus::Idle,
                Err(_) => {
                    // Peer closed (or the connection failed): drain what we
                    // have and finish. A back-end that hung up takes no
                    // further request either, so its member is closed now,
                    // before anything more is written to it.
                    let _ = self.drain_buffer(ctx);
                    if self.endpoint.is_member() {
                        return self.close(ctx);
                    }
                    return self.finish(ctx);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Emission interface handed to [`ComputeLogic`].
pub struct Outputs<'a> {
    emitter: &'a mut Emitter,
    ctx: &'a mut TaskContext,
    /// Whether an emission may be written by the emitting task itself. Not
    /// at the end of an input: what is emitted there (a fold's aggregate)
    /// is queued to the destinations' tasks, which coalesce it into few
    /// writes.
    inline: bool,
}

impl Outputs<'_> {
    /// Emits `value` on output channel `output`.
    ///
    /// On the inline path the value is first offered to the output's side,
    /// which serialises and writes it on the spot when nothing is queued
    /// ahead of it ([`OutputSide`]). Otherwise it goes into the channel.
    /// If the channel is full — or earlier emissions are still waiting —
    /// the value is buffered and delivered, in emission order, once the
    /// task is woken by its consumers, so logic never loses or reorders
    /// data.
    pub fn emit(&mut self, output: usize, value: Value) {
        let Emitter {
            producers,
            sides,
            overflow,
        } = &mut *self.emitter;
        debug_assert!(output < producers.len(), "output index out of range");
        if !overflow.is_empty() {
            overflow.push_back((output, value));
            return;
        }
        let producer = &producers[output];
        let consumer = producer.consumer();
        let value = match sides.get(output).filter(|_| self.inline) {
            Some(side) => match side.write_inline(value, producer) {
                Inline::Written => {
                    RuntimeMetrics::add(&self.ctx.metrics().messages_out, 1);
                    return;
                }
                Inline::Unfinished => {
                    RuntimeMetrics::add(&self.ctx.metrics().messages_out, 1);
                    self.ctx.wake(consumer);
                    return;
                }
                Inline::Failed => {
                    self.ctx.wake(consumer);
                    return;
                }
                Inline::Dropped => return,
                Inline::Queue(value) => value,
            },
            None => value,
        };
        match producer.push(value) {
            Ok(()) => self.ctx.wake(consumer),
            Err(back) => overflow.push_back((output, back)),
        }
    }
}

/// User-supplied (or compiler-generated) processing logic, run by a
/// connection task's read side on each message it parses
/// ([`InlineRules`]).
pub trait ComputeLogic: Send {
    /// Called for every value arriving on input `input`.
    fn on_value(
        &mut self,
        input: usize,
        value: Value,
        out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError>;

    /// Called once when input `input` will deliver no further values.
    fn on_input_finished(
        &mut self,
        _input: usize,
        _out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError> {
        Ok(())
    }
}

/// What a task's logic emits to, and the emissions full channels refused:
/// the one emission path of a read side's inline rules.
struct Emitter {
    producers: Vec<ChannelProducer>,
    /// The output side behind each producer, which an emission writes to
    /// directly while it is idle; empty when the logic emits into bare
    /// channels ([`LogicHarness`]).
    sides: Vec<Arc<OutputSide>>,
    overflow: VecDeque<(usize, Value)>,
}

impl Emitter {
    fn new(producers: Vec<ChannelProducer>, sides: Vec<Arc<OutputSide>>) -> Self {
        Emitter {
            producers,
            sides,
            overflow: VecDeque::new(),
        }
    }

    /// Delivers emissions a full channel refused, in order. `false` when a
    /// channel is still full: the task is parked on it, and must go idle
    /// until that channel's consumer drains it.
    fn flush(&mut self, ctx: &mut TaskContext) -> bool {
        while let Some((output, value)) = self.overflow.pop_front() {
            let producer = &self.producers[output];
            match producer.push_or_park(value, ctx) {
                Ok(()) => ctx.wake(producer.consumer()),
                Err(back) => {
                    self.overflow.push_front((output, back));
                    return false;
                }
            }
        }
        true
    }

    /// Closes this task's end of every output channel, and hands `wake`
    /// each consumer whose channel that ended.
    fn close(&self, mut wake: impl FnMut(TaskId)) {
        for producer in &self.producers {
            if producer.close() {
                wake(producer.consumer());
            }
        }
    }
}

/// The rules of a process, run by a read side on each message it parses
/// ([`ReadSide`]).
///
/// The side holds its own `logic` instance and one [`Destination`] per
/// output the logic may emit to, in the logic's output order. A value
/// emitted to a destination is written by the emitting task itself when
/// the destination's side is idle, and queued to the destination's task
/// otherwise ([`OutputSide`]); a full queue parks the task like a full
/// channel parks any producer, with the values behind it kept in order.
/// Each destination's channel closes once every read side of the graph
/// has finished.
///
/// Logic that acts when an input ends ([`ComputeLogic::on_input_finished`])
/// runs in the read side whose stream ended: a `foldt` merges the stream
/// it folded into its graph's fold there, and the last input to end emits
/// the aggregate, queued to the destination's task.
pub(crate) struct InlineRules {
    logic: Box<dyn ComputeLogic>,
    /// The logic's input index of the task's messages.
    input: usize,
    emitter: Emitter,
}

/// One output of a graph: the channel into the write side of its
/// connection's task and the [`OutputSide`] that side shares
/// ([`crate::GraphBuilder::bind`]).
pub(crate) struct Destination {
    pub(crate) producer: ChannelProducer,
    pub(crate) side: Arc<OutputSide>,
}

impl InlineRules {
    /// Runs `logic` on the messages of its input `input`, emitting to
    /// `destinations` (each cloned: this task's own channel handles).
    pub(crate) fn new(
        logic: Box<dyn ComputeLogic>,
        input: usize,
        destinations: &[Destination],
    ) -> Self {
        InlineRules {
            logic,
            input,
            emitter: Emitter::new(
                destinations.iter().map(|d| d.producer.clone()).collect(),
                destinations.iter().map(|d| Arc::clone(&d.side)).collect(),
            ),
        }
    }

    /// Runs the rules on one message.
    fn run(&mut self, value: Value, ctx: &mut TaskContext) -> Result<(), RuntimeError> {
        RuntimeMetrics::add(&ctx.metrics().values_processed, 1);
        let emitter = &mut self.emitter;
        let out = &mut Outputs {
            emitter,
            ctx,
            inline: true,
        };
        self.logic.on_value(self.input, value, out)
    }

    /// Tells the rules their input ended.
    fn end(&mut self, ctx: &mut TaskContext) -> Result<(), RuntimeError> {
        let emitter = &mut self.emitter;
        let out = &mut Outputs {
            emitter,
            ctx,
            inline: false,
        };
        self.logic.on_input_finished(self.input, out)
    }

    /// Closes every connection the rules write to; their tasks are woken
    /// to finish.
    fn fail_all(&mut self) {
        self.emitter.overflow.clear();
        for side in &self.emitter.sides {
            side.writer.lock().fail();
            wake_after_run(side.task);
        }
    }
}

/// Runs a [`ComputeLogic`] outside any task, emitting into bare channel
/// producers: no value is written inline. For tests of logic, which size
/// the channels for everything the logic emits.
#[doc(hidden)]
pub struct LogicHarness(InlineRules);

impl LogicHarness {
    /// `logic`, emitting output `i` into `outputs[i]`.
    pub fn new(logic: Box<dyn ComputeLogic>, outputs: Vec<ChannelProducer>) -> Self {
        LogicHarness(InlineRules {
            logic,
            input: 0,
            emitter: Emitter::new(outputs, Vec::new()),
        })
    }

    /// Runs the logic on `value`, arriving on input `input`.
    pub fn on_value(
        &mut self,
        input: usize,
        value: Value,
        ctx: &mut TaskContext,
    ) -> Result<(), RuntimeError> {
        self.0.input = input;
        let result = self.0.run(value, ctx);
        assert!(self.0.emitter.overflow.is_empty(), "an output filled");
        result
    }

    /// Tells the logic input `input` ended.
    pub fn on_input_finished(
        &mut self,
        input: usize,
        ctx: &mut TaskContext,
    ) -> Result<(), RuntimeError> {
        self.0.input = input;
        let result = self.0.end(ctx);
        assert!(self.0.emitter.overflow.is_empty(), "an output filled");
        result
    }

    /// Closes the harness's end of every output, as a finished task does.
    pub fn close(&self) {
        self.0.emitter.close(|_| {});
    }
}

// ---------------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------------

/// How compiled service logic executes in read sides.
///
/// The runtime only carries the switch; the compiler crate interprets it
/// when it builds the logic for a graph. Both modes run the same
/// lowered program — the tree-walking interpreter stays available as the
/// ablation baseline for the bytecode VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Walk the IR tree per message — the original execution path, kept
    /// as the ablation baseline (`flick_bench`'s vm-dispatch ablation).
    Interp,
    /// Run the program lowered to direct-threaded bytecode. The default.
    #[default]
    Vm,
}

impl ExecMode {
    /// Short label used in benchmark output ("interp", "vm").
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Interp => "interp",
            ExecMode::Vm => "vm",
        }
    }

    /// Both modes, interp first (the ablation's baseline ordering).
    pub fn all() -> [ExecMode; 2] {
        [ExecMode::Interp, ExecMode::Vm]
    }
}

/// What a connection task writes: the values the graph's rules emit to its
/// connection, serialised.
///
/// Output is coalesced: every message queued when the side runs is
/// serialised into one buffer and leaves in one write. A batch ends early
/// at a message with a shared body segment (headers and body then leave
/// together through one vectored write), at [`OUTBUF_RETAIN`] bytes, or
/// when the timeslice ends.
///
/// A blocked write never spins: the task parks until the dispatcher
/// delivers writable readiness for its endpoint. The only immediate
/// retries are rate-limiter stalls — time-based, so no peer transition
/// will ever announce them — and those are counted in
/// [`RuntimeMetrics::output_busy_retries`].
///
/// A message with a streamed body leaves as its head and buffered prefix,
/// then as its body pipe drained onto the connection; nothing queued
/// behind it is written before it is all out (`crate::stream`). On an
/// array back-end member the first flush with bytes to send opens the
/// member ([`Link`]). The serialise-and-flush state is the side's
/// [`OutputSide`], which other tasks' rules write to while it is idle.
pub(crate) struct WriteSide {
    side: Arc<OutputSide>,
    /// The channel into this side: what the rules queued to it.
    queue: ChannelConsumer,
}

impl WriteSide {
    /// A write side serialising onto `endpoint` what arrives on `queue`.
    /// Its task is `queue`'s consumer: the task must run under that id.
    pub(crate) fn new(endpoint: Link, codec: Arc<dyn WireCodec>, queue: ChannelConsumer) -> Self {
        WriteSide {
            side: Arc::new(OutputSide {
                writer: Mutex::new(Writer {
                    endpoint,
                    codec,
                    outbuf: Vec::new(),
                    body: None,
                    rest: None,
                    sent: 0,
                    keeps_alive: false,
                    failed: false,
                }),
                task: queue.consumer(),
            }),
            queue,
        }
    }

    /// The side other tasks' rules write to.
    pub(crate) fn side(&self) -> &Arc<OutputSide> {
        &self.side
    }
}

/// The write side of one connection: what its task serialises and has
/// still to flush, behind one lock, so one writer at a time writes the
/// socket.
///
/// A read side running its rules ([`InlineRules`]) offers each value it
/// emits here first, and it is written on the spot when nothing is
/// unflushed and nothing queued, so values leave in emission order; what
/// the write leaves (a full socket) stays for the connection's task, which
/// the emitter wakes. A busy side, a message whose body streams through a
/// pipe and what an emitter queued behind a full channel go through the
/// channel instead (DESIGN.md §5).
pub(crate) struct OutputSide {
    writer: Mutex<Writer>,
    /// The connection's task: the task to wake, and the consumer of a
    /// streamed body.
    task: TaskId,
}

/// What an inline write did with a value.
enum Inline {
    /// Serialised and written in full.
    Written,
    /// Serialised, but not all written: the connection's task is to be
    /// woken to finish.
    Unfinished,
    /// The write failed and the connection is closed: the connection's
    /// task is to be woken to finish.
    Failed,
    /// The connection failed earlier, or its member was released: the
    /// value goes, as values queued to a finished side do.
    Dropped,
    /// The side is busy: the value goes into the channel, behind what is
    /// queued.
    Queue(Value),
}

struct Writer {
    endpoint: Link,
    codec: Arc<dyn WireCodec>,
    /// Reserved at [`OUTBUF_RETAIN`] by the first serialise that writes
    /// into it, so an output side that never sends, or only forwards raw
    /// messages as their own segments, costs no buffer.
    outbuf: Vec<u8>,
    /// A refcounted trailing segment (message body or raw pass-through
    /// bytes) plus the offset already written. Split off by
    /// [`WireCodec::serialize_parts`] so `outbuf` (headers) and the body
    /// leave through one vectored write instead of being concatenated —
    /// the shared allocation goes to the kernel where it sits.
    body: Option<(Bytes, usize)>,
    /// The streamed rest of the body, drained from its pipe once `outbuf`
    /// and `body` are out.
    rest: Option<Draining>,
    /// Messages serialised so far.
    sent: u64,
    /// Whether the codec says the last one keeps the connection open
    /// (asked on back-end members only).
    keeps_alive: bool,
    /// The connection failed under a write (or a failed rule closed it):
    /// the side drops what is queued until its channel closes.
    failed: bool,
}

impl OutputSide {
    /// Serialises and writes `value` now, if the side is idle and nothing
    /// is queued in `queue`, the channel into it.
    fn write_inline(&self, value: Value, queue: &ChannelProducer) -> Inline {
        if matches!(&value, Value::Msg(msg) if msg.unread_body() > 0) {
            return Inline::Queue(value);
        }
        let Some(mut writer) = self.writer.try_lock() else {
            return Inline::Queue(value);
        };
        // Nothing written to a released member could be answered.
        if writer.failed || writer.endpoint.is_released() {
            return Inline::Dropped;
        }
        if !writer.is_idle() || !queue.is_empty() {
            return Inline::Queue(value);
        }
        match writer
            .serialize(&value, self.task)
            .and_then(|()| writer.write_out())
        {
            Ok(Moved::Done) => Inline::Written,
            Ok(_) => Inline::Unfinished,
            Err(_) => {
                writer.fail();
                Inline::Failed
            }
        }
    }
}

impl Writer {
    /// Nothing serialised is left unflushed.
    fn is_idle(&self) -> bool {
        self.outbuf.is_empty() && self.body.is_none() && self.rest.is_none()
    }

    /// Writes `outbuf` and `body` until both are out or the connection
    /// is full.
    fn write_out(&mut self) -> Result<Moved, RuntimeError> {
        while !self.outbuf.is_empty() || self.body.is_some() {
            // An unopened array member is opened by its first bytes.
            let endpoint = self.endpoint.connect()?;
            // Headers and body segment leave together through the vectored
            // path when both are pending — one `writev` on the OS
            // transport, no staging concatenation.
            let wrote = match &self.body {
                Some((bytes, off)) if !self.outbuf.is_empty() => {
                    endpoint.write_vectored(&[&self.outbuf, &bytes[*off..]])
                }
                Some((bytes, off)) => endpoint.write(&bytes[*off..]),
                None => endpoint.write(&self.outbuf),
            };
            match wrote {
                Ok(mut n) => {
                    let head = n.min(self.outbuf.len());
                    self.outbuf.drain(..head);
                    n -= head;
                    if let Some((bytes, off)) = &mut self.body {
                        *off += n;
                        if *off >= bytes.len() {
                            self.body = None;
                        }
                    }
                }
                Err(NetError::WouldBlock) => return Ok(Moved::Blocked),
                Err(e) => return Err(e.into()),
            }
        }
        // Fully written: a one-off large response must not pin its
        // capacity forever.
        if self.outbuf.capacity() > OUTBUF_RETAIN {
            self.outbuf.shrink_to(OUTBUF_RETAIN);
        }
        Ok(Moved::Done)
    }

    fn flush(&mut self, ctx: &mut TaskContext) -> Result<Moved, RuntimeError> {
        match self.write_out()? {
            Moved::Done => {}
            unfinished => return Ok(unfinished),
        }
        if let Some(rest) = &self.rest {
            match rest.drain(self.endpoint.connect()?, ctx)? {
                Moved::Done => self.rest = None,
                unfinished => return Ok(unfinished),
            }
        }
        Ok(Moved::Done)
    }

    /// Flushes pending output. `None` when everything was written;
    /// otherwise the status to return: a full connection parks on writable
    /// readiness unless the block is a rate limiter (buffer space exists,
    /// so no peer transition will ever wake us — the clock has to); a dry
    /// body pipe parks until its producer fills it; a failed flush means
    /// the peer (or a streamed body's source) is gone, and the remaining
    /// output is dropped.
    fn flush_or_stop(
        &mut self,
        input: &ChannelConsumer,
        ctx: &mut TaskContext,
    ) -> Option<TaskStatus> {
        match self.flush(ctx) {
            Ok(Moved::Done) => None,
            Ok(Moved::Blocked)
                if self
                    .endpoint
                    .open_endpoint()
                    .is_some_and(Endpoint::writable) =>
            {
                RuntimeMetrics::add(&ctx.metrics().output_busy_retries, 1);
                Some(TaskStatus::Runnable)
            }
            Ok(Moved::Blocked | Moved::Dry) => Some(TaskStatus::Idle),
            Ok(Moved::Yield) => Some(TaskStatus::Runnable),
            Err(_) => {
                // A body still streaming towards us has nowhere to go:
                // its producer closes its side. Queued messages go too.
                if let Some(rest) = self.rest.take() {
                    rest.abandon(ctx);
                }
                self.failed = true;
                self.endpoint.close();
                Some(self.drop_queued(input, ctx))
            }
        }
    }

    /// Closes the connection after a failed inline write or a failed rule,
    /// dropping what is unflushed.
    fn fail(&mut self) {
        self.outbuf.clear();
        self.body = None;
        // A streamed body's producer learns from the dropped carrier.
        self.rest = None;
        self.failed = true;
        self.endpoint.close();
    }

    /// Appends one value's wire bytes to `outbuf`, splitting off a
    /// message's shared body segment into `body` and claiming its streamed
    /// rest into `rest` for the task `consumer`. Must not be called while
    /// a body segment is pending (it would be written ahead of these
    /// bytes).
    fn serialize(&mut self, value: &Value, consumer: TaskId) -> Result<(), RuntimeError> {
        debug_assert!(
            self.body.is_none() && self.rest.is_none(),
            "a pending body ends the batch"
        );
        // A raw message mostly leaves as its own shared segment, writing
        // little or nothing here: let those grow the buffer as they need.
        // Anything else reserves it in one allocation instead of
        // reallocating its way up.
        if self.outbuf.capacity() == 0 && !matches!(value, Value::Msg(msg) if msg.raw().is_some()) {
            self.outbuf.reserve(OUTBUF_RETAIN);
        }
        self.sent += 1;
        self.keeps_alive = false;
        match value {
            Value::Msg(msg) => {
                if self.endpoint.is_member() {
                    self.keeps_alive = self.codec.keeps_alive(msg);
                }
                if msg.unread_body() > 0 {
                    // Only the unmodified raw head and prefix can precede
                    // the rest of the body on the wire.
                    self.rest = msg
                        .rest()
                        .filter(|_| msg.raw().is_some())
                        .and_then(|rest| Draining::claim(rest.clone(), consumer));
                    if self.rest.is_none() {
                        return Err(RuntimeError::Logic(
                            "a message with an unread body lost its raw bytes or its pipe".into(),
                        ));
                    }
                }
                if let Some(tail) = self.codec.serialize_parts(msg, &mut self.outbuf)? {
                    if !tail.is_empty() {
                        self.body = Some((tail, 0));
                    }
                }
            }
            Value::Bytes(bytes) => self.outbuf.extend_from_slice(bytes),
            Value::Str(s) => self.outbuf.extend_from_slice(s.as_bytes()),
            other => {
                return Err(RuntimeError::Logic(format!(
                    "a write side cannot serialise value {other}"
                )))
            }
        }
        Ok(())
    }

    /// A failed side's round: drops what is queued — a streamed body's
    /// producer learns from the dropped carrier — until the channel closes,
    /// so nothing queued later waits for a writer that is gone.
    fn drop_queued(&mut self, input: &ChannelConsumer, ctx: &mut TaskContext) -> TaskStatus {
        while input.pop(ctx).is_some() {}
        self.end_or_idle(input)
    }

    /// `Finished` once nothing more will be written: the channel is closed
    /// (and drained), or the member released, after which nothing written
    /// could be answered.
    fn end_or_idle(&self, input: &ChannelConsumer) -> TaskStatus {
        if input.is_finished() || self.endpoint.is_released() {
            TaskStatus::Finished
        } else {
            TaskStatus::Idle
        }
    }

    /// How many messages the side wrote in full, if it ended cleanly
    /// framed: it did not fail, and the codec says the last one keeps the
    /// connection open.
    fn framed(&self) -> Option<u64> {
        (!self.failed && self.keeps_alive).then_some(self.sent)
    }

    /// One round of the write side: flush, then serialise and flush every
    /// queued message in batches, then finish once the channel has closed
    /// and everything is out.
    fn run(&mut self, input: &ChannelConsumer, ctx: &mut TaskContext) -> TaskStatus {
        if self.failed {
            return self.drop_queued(input, ctx);
        }
        // Whether the last pop found the channel empty.
        let mut drained = false;
        loop {
            if let Some(status) = self.flush_or_stop(input, ctx) {
                return status;
            }
            if drained {
                // Everything serialised was written: the flush above left
                // nothing behind.
                return self.end_or_idle(input);
            }
            // Serialise every queued message into one batch, flushed once.
            // The flush above drained everything, and a batch ends at the
            // first body segment, so the bytes ahead of a body always leave
            // before it — with it, in one vectored write.
            drained = true;
            while let Some(value) = input.pop(ctx) {
                if self.serialize(&value, ctx.task()).is_err() {
                    self.fail();
                    return self.drop_queued(input, ctx);
                }
                RuntimeMetrics::add(&ctx.metrics().messages_out, 1);
                if !ctx.can_continue() {
                    return self
                        .flush_or_stop(input, ctx)
                        .unwrap_or(TaskStatus::Runnable);
                }
                if self.body.is_some() || self.rest.is_some() || self.outbuf.len() >= OUTBUF_RETAIN
                {
                    drained = false;
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Synthetic task
// ---------------------------------------------------------------------------

/// A self-contained task owning a finite list of data items, used by the
/// §6.4 resource-sharing micro-benchmark.
///
/// Each item is `item_size` bytes and processing an item computes a simple
/// addition over every byte, exactly as described in the paper. When the last
/// item has been processed the `on_complete` callback fires (the benchmark
/// uses it to record the task's completion time).
pub struct SyntheticWorkTask {
    label: String,
    remaining: usize,
    item_size: usize,
    accumulator: u64,
    on_complete: Option<Box<dyn FnOnce() + Send>>,
}

impl SyntheticWorkTask {
    /// Creates a synthetic task with `items` items of `item_size` bytes.
    pub fn new(
        label: impl Into<String>,
        items: usize,
        item_size: usize,
        on_complete: Option<Box<dyn FnOnce() + Send>>,
    ) -> Self {
        SyntheticWorkTask {
            label: label.into(),
            remaining: items,
            item_size,
            accumulator: 0,
            on_complete,
        }
    }

    /// The running checksum (prevents the work from being optimised away).
    pub fn accumulator(&self) -> u64 {
        self.accumulator
    }

    fn process_one_item(&mut self) {
        // A simple addition for each input byte (§6.4).
        let mut sum = self.accumulator;
        for i in 0..self.item_size {
            sum = sum.wrapping_add((i as u64) ^ 0x5a);
        }
        self.accumulator = sum;
        self.remaining -= 1;
    }
}

impl Task for SyntheticWorkTask {
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        while self.remaining > 0 {
            self.process_one_item();
            RuntimeMetrics::add(&ctx.metrics().values_processed, 1);
            if self.remaining == 0 {
                break;
            }
            if !ctx.can_continue() {
                return TaskStatus::Runnable;
            }
        }
        if let Some(cb) = self.on_complete.take() {
            cb();
        }
        TaskStatus::Finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::TaskChannel;
    use crate::task::{TaskId, NO_DEADLINE};
    use flick_grammar::http::{self, HttpCodec};
    use flick_net::{SimNetwork, StackModel, TcpStack};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// A dispatch of task `id`, as the scheduler would create it.
    fn task_ctx(id: u64) -> TaskContext {
        TaskContext::new(TaskId(id), NO_DEADLINE, RuntimeMetrics::new_shared())
    }

    fn ctx() -> TaskContext {
        task_ctx(0)
    }

    fn codec() -> Arc<HttpCodec> {
        Arc::new(HttpCodec::new())
    }

    /// Logic that forwards every value to output 0, uppercasing strings.
    struct Passthrough;
    impl ComputeLogic for Passthrough {
        fn on_value(
            &mut self,
            _input: usize,
            value: Value,
            out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            out.emit(0, value);
            Ok(())
        }
    }

    /// A task reading `endpoint` and running `rules`, writing nothing.
    fn reader(
        endpoint: Endpoint,
        projection: Option<Projection>,
        rules: InlineRules,
    ) -> ConnectionTask {
        let link = Link::client(&endpoint);
        let input = ReadSide::new(Link::clone(&link), codec(), projection, rules);
        ConnectionTask::new("in", link, Some(input), None)
    }

    /// A task writing onto `endpoint` what arrives on `queue`, reading
    /// nothing.
    fn writer(
        endpoint: Endpoint,
        codec: Arc<dyn WireCodec>,
        queue: ChannelConsumer,
    ) -> ConnectionTask {
        let link = Link::client(&endpoint);
        let output = WriteSide::new(Link::clone(&link), codec, queue);
        ConnectionTask::new("out", link, None, Some(output))
    }

    /// The side other tasks write to of a task that writes.
    fn side(task: &ConnectionTask) -> &Arc<OutputSide> {
        task.output.as_ref().expect("the task writes").side()
    }

    /// [`Passthrough`] emitting into `output` alone, with no output side:
    /// every value goes into the channel.
    fn into_channel(output: ChannelProducer) -> InlineRules {
        InlineRules {
            logic: Box::new(Passthrough),
            input: 0,
            emitter: Emitter::new(vec![output], Vec::new()),
        }
    }

    #[test]
    fn input_task_parses_http_requests_from_connection() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(80).unwrap();
        let client = net.connect(80).unwrap();
        let server = listener.accept().unwrap();
        client
            .write(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();

        let (tx, rx) = TaskChannel::bounded(16, TaskId(1));
        let mut task = reader(server, None, into_channel(tx));
        let mut c = ctx();
        assert_eq!(task.run(&mut c), TaskStatus::Idle);
        assert_eq!(rx.len(), 2);
        let first = rx.pop(&mut ctx()).unwrap().into_msg().unwrap();
        assert_eq!(first.str_field("path"), Some("/a"));
        // The output task consuming channel 1 must have been woken.
        assert!(c.take_wakes().contains(&TaskId(1)));
    }

    #[test]
    fn input_task_parks_on_a_full_channel_until_the_consumer_drains_it() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(85).unwrap();
        let client = net.connect(85).unwrap();
        let server = listener.accept().unwrap();
        client
            .write(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n")
            .unwrap();

        let (tx, rx) = TaskChannel::bounded(2, TaskId(1));
        let mut task = reader(server, None, into_channel(tx));
        let mut producer = task_ctx(9);
        assert_eq!(
            task.run(&mut producer),
            TaskStatus::Idle,
            "a full channel parks the input task instead of spinning"
        );
        assert_eq!(rx.len(), 2);
        assert_eq!(RuntimeMetrics::get(&producer.metrics().producer_parks), 1);

        // The consumer's pop that drains the channel to half wakes it.
        let mut consumer = task_ctx(1);
        rx.pop(&mut consumer).unwrap();
        assert_eq!(consumer.take_wakes(), vec![TaskId(9)]);
        assert_eq!(task.run(&mut task_ctx(9)), TaskStatus::Idle);
        let paths: Vec<String> = std::iter::from_fn(|| rx.pop(&mut consumer))
            .map(|v| v.into_msg().unwrap().str_field("path").unwrap().to_string())
            .collect();
        assert_eq!(paths, ["/b", "/c"], "the stashed message follows in order");
    }

    #[test]
    fn input_task_finishes_on_peer_close() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(81).unwrap();
        let client = net.connect(81).unwrap();
        let server = listener.accept().unwrap();
        client.write(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        client.close();

        let (tx, rx) = TaskChannel::bounded(16, TaskId(1));
        let mut task = reader(server, None, into_channel(tx));
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
        assert_eq!(rx.len(), 1);
        assert!(rx.producers_closed());
    }

    /// The rules of an input task pass each message on to the output
    /// channel while the connection stays open, and the task finishes
    /// once it closes: its outputs close and their consumer is woken.
    #[test]
    fn input_task_passthrough_and_finish() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(90).unwrap();
        let client = net.connect(90).unwrap();
        let server = listener.accept().unwrap();
        client
            .write(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n")
            .unwrap();

        let (tx, rx) = TaskChannel::bounded(16, TaskId(1));
        let mut task = reader(server, None, into_channel(tx));
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        assert_eq!(rx.len(), 2, "the rules ran on both messages");
        assert!(!rx.producers_closed());
        client.close();
        let mut c = ctx();
        assert_eq!(task.run(&mut c), TaskStatus::Finished);
        assert_eq!(rx.len(), 2);
        assert!(rx.producers_closed(), "finishing closes the outputs");
        assert_eq!(c.take_wakes(), vec![TaskId(1)]);
    }

    #[test]
    fn input_task_handles_partial_then_complete_messages() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(82).unwrap();
        let client = net.connect(82).unwrap();
        let server = listener.accept().unwrap();

        let (tx, rx) = TaskChannel::bounded(16, TaskId(1));
        let mut task = reader(server, None, into_channel(tx));
        client.write(b"GET /part HTTP/1.1\r\nHo").unwrap();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        assert_eq!(rx.len(), 0);
        client.write(b"st: h\r\n\r\n").unwrap();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        assert_eq!(rx.len(), 1);
    }

    /// An input task whose timeslice runs out looks at its socket before
    /// it asks to run again: an empty one lets it go idle (a run that
    /// would only read `WouldBlock` is saved), and bytes waiting in it
    /// make it yield. Each request fills one read ([`READ_CHUNK`]:
    /// the projection lets bodies stream), so the second one is still in
    /// the socket after the first is parsed.
    #[test]
    fn an_input_task_whose_slice_ran_out_idles_only_on_an_empty_socket() {
        let request = |path: &str| {
            let head = format!("GET {path} HTTP/1.1\r\nX-Pad: ");
            let pad = "p".repeat(READ_CHUNK - head.len() - 4);
            format!("{head}{pad}\r\n\r\n")
        };
        for waiting in [1, 2] {
            let net = SimNetwork::new(StackModel::Free);
            let listener = net.listen(88).unwrap();
            let client = net.connect(88).unwrap();
            let server = listener.accept().unwrap();
            for n in 0..waiting {
                client
                    .write_all(request(&format!("/{n}")).as_bytes())
                    .unwrap();
            }
            let (tx, rx) = TaskChannel::bounded(16, TaskId(1));
            let projection = Some(http::load_balancer_projection());
            let rules = into_channel(tx);
            let mut task = reader(server, projection, rules);
            let mut round_robin =
                TaskContext::new(TaskId(0), Duration::ZERO, RuntimeMetrics::new_shared());
            let (status, yields) = match waiting {
                1 => (TaskStatus::Idle, 0),
                _ => (TaskStatus::Runnable, 1),
            };
            assert_eq!(task.run(&mut round_robin), status, "{waiting} waiting");
            assert_eq!(rx.len(), 1, "one message per round-robin run");
            let metrics = round_robin.metrics();
            assert_eq!(RuntimeMetrics::get(&metrics.cooperative_yields), yields);
        }
    }

    /// Logic that emits `count` numbered strings when its input ends.
    struct EmitAtEnd {
        count: usize,
    }
    impl ComputeLogic for EmitAtEnd {
        fn on_value(
            &mut self,
            _input: usize,
            _value: Value,
            _out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            Ok(())
        }

        fn on_input_finished(
            &mut self,
            _input: usize,
            out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            for n in 0..self.count {
                out.emit(0, Value::Str(format!("{n:05},")));
            }
            Ok(())
        }
    }

    /// What an input emits when it ends is queued to the output task, not
    /// written inline, even to an idle side. More than a channel's worth
    /// parks the ending task on the full channel; the output task's
    /// draining pop wakes it, and it finishes once the last value is
    /// delivered, with every value in order on the wire.
    #[test]
    fn an_ending_input_whose_emission_overflows_its_channel_parks_until_drained() {
        use crate::channel::DEFAULT_CHANNEL_CAPACITY;

        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(89).unwrap();
        let mapper = net.connect(89).unwrap();
        let input_end = listener.accept().unwrap();
        let reducer = net.connect(89).unwrap();
        let output_end = listener.accept().unwrap();
        mapper.close();

        let count = DEFAULT_CHANNEL_CAPACITY + 10;
        let (tx, rx) = TaskChannel::bounded(DEFAULT_CHANNEL_CAPACITY, TaskId(4));
        let mut output = writer(output_end, codec(), rx);
        let destination = Destination {
            producer: tx,
            side: Arc::clone(side(&output)),
        };
        let logic = Box::new(EmitAtEnd { count });
        let rules = InlineRules::new(logic, 0, std::slice::from_ref(&destination));
        // The builder's own handle, closed once the inputs hold theirs.
        destination.producer.close();
        let mut input = reader(input_end, None, rules);

        let mut ending = task_ctx(9);
        assert_eq!(input.run(&mut ending), TaskStatus::Idle, "parked");
        assert_eq!(RuntimeMetrics::get(&ending.metrics().producer_parks), 1);
        assert_eq!(ending.take_wakes(), vec![TaskId(4)]);
        assert_eq!(reducer.pending(), 0, "nothing written inline");

        let mut writer = task_ctx(4);
        assert_eq!(output.run(&mut writer), TaskStatus::Idle);
        assert_eq!(writer.take_wakes(), vec![TaskId(9)], "the draining pop");
        assert_eq!(input.run(&mut task_ctx(9)), TaskStatus::Finished);
        assert_eq!(output.run(&mut task_ctx(4)), TaskStatus::Finished);

        let mut wire = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n) = reducer.read(&mut buf) {
            wire.extend_from_slice(&buf[..n]);
        }
        let expected: String = (0..count).map(|n| format!("{n:05},")).collect();
        assert_eq!(String::from_utf8(wire).unwrap(), expected);
    }

    #[test]
    fn output_task_serialises_and_writes() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(83).unwrap();
        let client = net.connect(83).unwrap();
        let server = listener.accept().unwrap();

        let (tx, rx) = TaskChannel::bounded(16, TaskId(4));
        let mut task = writer(server, Arc::new(HttpCodec::new()), rx);
        tx.push(Value::Msg(http::response(200, b"hello"))).unwrap();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        let mut buf = [0u8; 256];
        let n = client.read(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf[..n]);
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.ends_with("hello"));
        // Closing the channel finishes the task and closes the connection.
        tx.close();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
        assert!(client.peer_closed());
    }

    /// An output task holds no buffer until it writes into one: forwarding
    /// a raw message as its own segment allocates none, and the first
    /// serialise that writes reserves the retained capacity.
    #[test]
    fn output_buffer_is_reserved_by_the_first_serialise_that_writes() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(86).unwrap();
        let _client = net.connect(86).unwrap();
        let server = listener.accept().unwrap();
        let codec = HttpCodec::new();
        let (tx, rx) = TaskChannel::bounded(16, TaskId(4));
        let mut task = writer(server, Arc::new(codec.clone()), rx);
        assert_eq!(side(&task).writer.lock().outbuf.capacity(), 0);
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let Ok(ParseOutcome::Complete { message, .. }) = codec.parse(wire, None) else {
            panic!("a complete response");
        };
        tx.push(Value::Msg(message)).unwrap();
        task.run(&mut ctx());
        assert_eq!(
            side(&task).writer.lock().outbuf.capacity(),
            0,
            "a raw message leaves as is"
        );
        tx.push(Value::Str("text".into())).unwrap();
        task.run(&mut ctx());
        assert!(side(&task).writer.lock().outbuf.capacity() >= OUTBUF_RETAIN);
    }

    /// The inline path's protocol, hand-driven: an idle side is written by
    /// the emitter with no output task run; a locked side (its output task
    /// running) sends the value into the channel and wakes the task, and
    /// a later value queues behind it even once the side is free, so the
    /// bytes leave in emission order.
    #[test]
    fn an_inline_write_goes_out_at_once_on_an_idle_side_and_queues_behind_a_busy_one() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(87).unwrap();
        let client = net.connect(87).unwrap();
        let server = listener.accept().unwrap();
        let (tx, rx) = TaskChannel::bounded(16, TaskId(4));
        let mut output = writer(server, Arc::new(HttpCodec::new()), rx);
        let destination = Destination {
            producer: tx,
            side: Arc::clone(side(&output)),
        };
        let mut rules = InlineRules::new(Box::new(Passthrough), 0, &[destination]);
        let read = || {
            let mut buf = [0u8; 16];
            match client.read(&mut buf) {
                Ok(n) => buf[..n].to_vec(),
                Err(_) => Vec::new(),
            }
        };

        let mut input = task_ctx(1);
        rules.run(Value::Str("a".into()), &mut input).unwrap();
        assert_eq!(read(), b"a", "written by the emitter");
        assert!(input.take_wakes().is_empty(), "no output task run");

        let busy = side(&output).writer.lock();
        rules.run(Value::Str("b".into()), &mut input).unwrap();
        drop(busy);
        rules.run(Value::Str("c".into()), &mut input).unwrap();
        assert_eq!(read(), b"", "both queued for the output task");
        assert_eq!(input.take_wakes(), vec![TaskId(4)]);
        assert_eq!(output.run(&mut task_ctx(4)), TaskStatus::Idle);
        assert_eq!(read(), b"bc");
        let metrics = input.metrics();
        assert_eq!(RuntimeMetrics::get(&metrics.values_processed), 3);
        assert_eq!(RuntimeMetrics::get(&metrics.messages_out), 1);
    }

    #[test]
    fn output_task_writes_raw_bytes_and_strings() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(84).unwrap();
        let client = net.connect(84).unwrap();
        let server = listener.accept().unwrap();
        let (tx, rx) = TaskChannel::bounded(16, TaskId(4));
        let mut task = writer(server, Arc::new(HttpCodec::new()), rx);
        tx.push(Value::Bytes(Bytes::from_static(b"raw-"))).unwrap();
        tx.push(Value::Str("text".into())).unwrap();
        task.run(&mut ctx());
        let mut buf = [0u8; 64];
        let n = client.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"raw-text");
    }

    /// Queued output is coalesced: everything up to and including a
    /// message with a shared body segment leaves in one vectored write,
    /// and what is queued behind the body in one more — two write calls
    /// for five messages, the bytes unchanged and in order.
    #[test]
    fn output_task_coalesces_queued_messages_into_one_write() {
        let stack = TcpStack::new();
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let client = stack
            .connect(&format!("127.0.0.1:{}", listener.port()))
            .unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();

        let codec = HttpCodec::new();
        let with_body = http::response(200, b"shared body");
        let mut expected = b"ab".to_vec();
        codec.serialize(&with_body, &mut expected).unwrap();
        expected.extend_from_slice(b"cd");

        let (tx, rx) = TaskChannel::bounded(16, TaskId(4));
        let mut task = writer(server, Arc::new(codec), rx);
        for value in [
            Value::Str("a".into()),
            Value::Str("b".into()),
            Value::Msg(with_body),
            Value::Str("c".into()),
            Value::Str("d".into()),
        ] {
            tx.push(value).unwrap();
        }
        let before = stack.stats().snapshot();
        assert_eq!(task.run(&mut task_ctx(4)), TaskStatus::Idle);
        let after = stack.stats().snapshot();
        assert_eq!(after.write_calls - before.write_calls, 2);
        assert_eq!(after.vectored_writes - before.vectored_writes, 1);

        let mut got = Vec::new();
        let mut buf = [0u8; 256];
        while got.len() < expected.len() {
            let n = client
                .read_timeout(&mut buf, Duration::from_secs(5))
                .unwrap();
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, expected);
    }

    /// Protocol 10, the output side, hand-driven on one connection task
    /// that reads its connection and writes it (it echoes what it reads).
    /// Another task's inline write fills the socket; what it leaves
    /// unflushed, that task's next emission (queued behind the busy side)
    /// and the echo of a request a readable event brings all wait; a
    /// writable event (the peer drained the socket) flushes them in
    /// emission order; once the side is idle, another inline write goes
    /// out at once, one that meets the side locked by a flush queues, and
    /// the next one queues behind it although the side is free by then.
    /// No value is written twice, and the task ends idle with nothing
    /// unflushed and nothing queued.
    #[test]
    fn output_side_protocol_hand_driven() {
        use flick_net::listener::ConnectOptions;

        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(91).unwrap();
        let options = ConnectOptions {
            capacity: Some(32),
            ..Default::default()
        };
        let peer = net.connect_with(91, &options).unwrap();
        let end = listener.accept().unwrap();
        let (tx, rx) = TaskChannel::bounded(16, TaskId(4));
        let link = Link::client(&end);
        let output = WriteSide::new(link.clone(), codec(), rx);
        let destination = Destination {
            producer: tx,
            side: Arc::clone(output.side()),
        };
        let echo = InlineRules::new(Box::new(Passthrough), 0, std::slice::from_ref(&destination));
        let mut other =
            InlineRules::new(Box::new(Passthrough), 0, std::slice::from_ref(&destination));
        // The builder's own handle, closed once the read sides hold theirs.
        destination.producer.close();
        let input = ReadSide::new(link.clone(), codec(), None, echo);
        let mut task = ConnectionTask::new("conn", link, Some(input), Some(output));
        let side = Arc::clone(side(&task));
        let mut wire = Vec::new();
        let drain = |wire: &mut Vec<u8>| {
            let mut buf = [0u8; 64];
            while let Ok(n) = peer.read(&mut buf) {
                wire.extend_from_slice(&buf[..n]);
            }
        };
        let a = "a".repeat(40);
        let request = "GET /c HTTP/1.1\r\n\r\n";

        // Another task writes inline and fills the socket: 32 of 40 bytes.
        let mut writer = task_ctx(7);
        other.run(Value::Str(a.clone()), &mut writer).unwrap();
        assert_eq!(writer.take_wakes(), vec![TaskId(4)], "the rest is left");
        other.run(Value::Str("bb".into()), &mut writer).unwrap();
        assert_eq!(writer.take_wakes(), vec![TaskId(4)], "queued: busy side");

        // Readable: the task flushes first (the socket is still full),
        // then reads and echoes the request behind what is queued.
        peer.write_all(request.as_bytes()).unwrap();
        assert_eq!(task.run(&mut task_ctx(4)), TaskStatus::Idle);
        assert_eq!(peer.pending(), 32, "nothing more fits");
        assert_eq!(rx_len(&task), 2, "\"bb\" and the echo wait in order");

        // Writable: the peer drains, and one run flushes all of it.
        drain(&mut wire);
        assert_eq!(task.run(&mut task_ctx(4)), TaskStatus::Idle);
        drain(&mut wire);
        assert_eq!(wire, format!("{a}bb{request}").as_bytes());

        // Idle again: an inline write goes out at once; one that meets the
        // side locked by a flush queues and wakes the task.
        other.run(Value::Str("dd".into()), &mut writer).unwrap();
        assert!(writer.take_wakes().is_empty(), "written by the emitter");
        let flushing = side.writer.lock();
        other.run(Value::Str("ee".into()), &mut writer).unwrap();
        drop(flushing);
        assert_eq!(writer.take_wakes(), vec![TaskId(4)]);
        // The side is free again, but "ee" waits in the channel: the next
        // value queues behind it instead of overtaking it.
        other.run(Value::Str("ff".into()), &mut writer).unwrap();
        assert_eq!(rx_len(&task), 2);
        assert_eq!(task.run(&mut task_ctx(4)), TaskStatus::Idle);
        drain(&mut wire);
        assert_eq!(wire, format!("{a}bb{request}ddeeff").as_bytes());
        assert!(side.writer.lock().is_idle(), "nothing unflushed");
        assert_eq!(rx_len(&task), 0, "nothing queued");
    }

    /// Values queued to a task's write side.
    fn rx_len(task: &ConnectionTask) -> usize {
        task.output.as_ref().expect("the task writes").queue.len()
    }

    /// Logic that forwards what one connection reads to the other:
    /// input 0 (the client) to output 1 (the back-end) and back.
    struct Crossover;
    impl ComputeLogic for Crossover {
        fn on_value(
            &mut self,
            input: usize,
            value: Value,
            out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            out.emit(1 - input, value);
            Ok(())
        }
    }

    /// Everything up to the end of the next HTTP message on `conn`, read
    /// into `carry` (its head only, with `head_only`); the message's wire
    /// bytes are drained from `carry` when it is whole.
    fn read_http(conn: &Endpoint, carry: &mut Vec<u8>, head_only: bool) -> Vec<u8> {
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            if head_only && carry.windows(4).any(|w| w == b"\r\n\r\n") {
                return Vec::new();
            }
            if let Ok(ParseOutcome::Complete { consumed, .. }) = HttpCodec::new().parse(carry, None)
            {
                return carry.drain(..consumed).collect();
            }
            let n = conn
                .read_timeout(&mut buf, Duration::from_secs(10))
                .unwrap();
            carry.extend_from_slice(&buf[..n]);
        }
    }

    /// Protocol 9 on one task: a client's connection task streams an
    /// upload's body into one pipe (its producer) while it drains a
    /// download's body from another into its connection (its consumer),
    /// and the back-end's task does the reverse. Two exchanges on the same
    /// connections: a 4 MiB upload beside a 64 KiB download, then a
    /// 64 KiB upload beside a 4 MiB download. The client writes both
    /// requests at once into a socket with room for them, so its socket
    /// stays quiet after; the back-end's socket holds 64 KiB, so the
    /// upload's consumer blocks on it and its pipe fills until the
    /// producer parks, and only the consumer's drain can wake it again.
    /// The tasks are run on their sockets' events and on each other's
    /// wakes only, one at a time, so a pipe wake that moved the wrong
    /// direction (or none) leaves a side parked: every body must arrive
    /// whole, in order.
    #[test]
    fn one_task_produces_one_body_pipe_and_consumes_another() {
        use crate::graph::{GraphBuilder, Peer, Reads, TaskIdAllocator};
        use crate::task::TIMESLICE;
        use flick_net::{Poller, Token};
        use std::collections::BTreeSet;
        use std::time::Instant;

        const LONG: usize = 4 << 20;
        const SHORT: usize = 64 * 1024 + 1;
        let body = |len: usize, seed: usize| -> Vec<u8> {
            (0..len).map(|i| ((i + seed) % 251) as u8).collect()
        };
        let message = |head: &str, body: &[u8]| {
            let mut wire = format!("{head}\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
            wire.extend_from_slice(body);
            wire
        };
        let uploads = [body(LONG, 1), body(SHORT, 2)];
        let downloads = [body(SHORT, 3), body(LONG, 4)];
        let requests: Vec<Vec<u8>> = uploads
            .iter()
            .map(|b| message("POST /up HTTP/1.1", b))
            .collect();
        let responses: Vec<Vec<u8>> = downloads
            .iter()
            .map(|b| message("HTTP/1.1 200 OK", b))
            .collect();

        let net = SimNetwork::new(StackModel::Free);
        let front = net.listen(92).unwrap();
        let back = net.listen(93).unwrap();
        let sized = |capacity| flick_net::listener::ConnectOptions {
            capacity: Some(capacity),
            ..Default::default()
        };
        let client = net.connect_with(92, &sized(4 * LONG)).unwrap();
        let client_end = front.accept().unwrap();
        let backend_end = net.connect_with(93, &sized(64 * 1024)).unwrap();
        let backend = back.accept().unwrap();

        let allocator = TaskIdAllocator::new();
        let mut builder = GraphBuilder::new("bulk", &allocator);
        let reads = |input| Reads {
            projection: Some(http::load_balancer_projection()),
            logic: Box::new(Crossover),
            input,
        };
        let (c, b) = (builder.declare_node(), builder.declare_node());
        builder.bind(
            c,
            "client",
            Peer::Client(&client_end),
            codec(),
            Some(reads(0)),
            true,
        );
        let backend_link = Link::checked_out(backend_end);
        let peer = Peer::Backend(&backend_link);
        builder.bind(b, "backend", peer, codec(), Some(reads(1)), true);
        let built = builder.build();
        let poller = Poller::new();
        for watch in &built.watchers {
            watch
                .endpoint
                .register(&poller, Token(watch.task.0), watch.interest);
        }
        let mut tasks: HashMap<TaskId, Box<dyn Task>> = built.tasks.into_iter().collect();

        // The peers: the client writes both requests at once; the back-end
        // answers each as soon as its head is in, so each exchange's two
        // bodies cross the tasks at once.
        client.write_all(&requests.concat()).unwrap();
        let server = {
            let (backend, responses) = (backend.clone(), responses.clone());
            std::thread::spawn(move || {
                let mut carry = Vec::new();
                responses
                    .iter()
                    .map(|response| {
                        read_http(&backend, &mut carry, true);
                        backend.write_all(response).unwrap();
                        read_http(&backend, &mut carry, false)
                    })
                    .collect::<Vec<_>>()
            })
        };
        let reader = std::thread::spawn(move || {
            let mut carry = Vec::new();
            [(); 2].map(|()| read_http(&client, &mut carry, false))
        });

        // The scheduler: every event and every wake runs its task once.
        let metrics = RuntimeMetrics::new_shared();
        let mut runnable: BTreeSet<TaskId> = tasks.keys().copied().collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !reader.is_finished() {
            assert!(Instant::now() < deadline, "a pipe wake was lost");
            for event in poller.wait(Duration::from_millis(1)) {
                runnable.insert(TaskId(event.token.0));
            }
            while let Some(id) = runnable.pop_first() {
                let mut ctx = TaskContext::new(id, TIMESLICE, Arc::clone(&metrics));
                let status = tasks.get_mut(&id).expect("both live").run(&mut ctx);
                assert_ne!(status, TaskStatus::Finished, "{id}: nothing ended");
                runnable.extend(ctx.take_wakes());
                if status == TaskStatus::Runnable {
                    runnable.insert(id);
                }
            }
        }
        assert!(server.join().unwrap() == requests, "the uploads, whole");
        assert!(
            reader.join().unwrap().to_vec() == responses,
            "the downloads, whole"
        );
    }

    #[test]
    fn synthetic_work_task_completes_and_calls_back() {
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let mut task = SyntheticWorkTask::new(
            "work",
            100,
            1024,
            Some(Box::new(move || done2.store(true, Ordering::SeqCst))),
        );
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
        assert!(done.load(Ordering::SeqCst));
        assert!(task.accumulator() > 0);
    }

    #[test]
    fn synthetic_work_task_round_robin_yields_per_item() {
        let mut task = SyntheticWorkTask::new("work", 3, 16, None);
        let metrics = RuntimeMetrics::new_shared();
        let round_robin = |metrics| TaskContext::new(TaskId(0), Duration::ZERO, metrics);
        let mut c1 = round_robin(Arc::clone(&metrics));
        assert_eq!(task.run(&mut c1), TaskStatus::Runnable);
        let mut c2 = round_robin(Arc::clone(&metrics));
        assert_eq!(task.run(&mut c2), TaskStatus::Runnable);
        let mut c3 = round_robin(metrics);
        assert_eq!(task.run(&mut c3), TaskStatus::Finished);
    }
}
