//! Pass-through bodies: the part of a message body that is not yet
//! buffered when its head is parsed crosses the middlebox through a
//! per-message kernel pipe, cut-through (DESIGN.md §11).
//!
//! A codec parsing under a projection without `body` reports a message as
//! soon as its head is complete, with `n` body bytes still in the
//! connection ([`flick_grammar::Message::unread_body`]). The read side
//! that parsed it opens a [`BodyStream`], attaches the consumer's handle
//! ([`BodyTail`]) to the message and fills the pipe from its connection;
//! the task whose write side writes the message drains the pipe into its
//! own connection after the head and buffered prefix. One task may be the
//! producer of one stream and the consumer of another at once (an upload
//! and a download on one client connection). The compiler streams
//! only inputs whose messages are forwarded exactly once and unmodified,
//! so one message, one pipe, one producer and one consumer.
//!
//! The wake protocol is plain [`TaskContext::wake`]: every fill that moved
//! bytes wakes the consumer (once it has claimed the stream), every drain
//! that moved bytes wakes the producer. Either side that finds the pipe
//! empty or full parks (`Idle`) and is woken by the other side's progress
//! or by its own connection's readiness, whichever comes first; neither
//! needs to tell "pipe full" from "connection empty".
//!
//! A stream ends one of three ways. **Drained**: the consumer moved all
//! `n` bytes. **Failed**: the source hit EOF or an error first; the
//! consumer writes what the pipe holds and then closes its connection,
//! which is half-framed (a back-end member is retired, never parked).
//! **Abandoned**: the destination failed, or the last consumer handle was
//! dropped undrained; the source connection is closed — the message it
//! carried is lost, and the rest of its body could be framed nowhere — and
//! the producer is woken. A handle dropped outside any task run wakes the
//! producer through [`wake_after_run`].

use crate::error::RuntimeError;
use crate::task::{wake_after_run, TaskContext, TaskId};
use flick_grammar::Rest;
use flick_net::{BodyPipe, Endpoint, NetError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// No consumer has claimed the stream yet.
const UNCLAIMED: u64 = u64::MAX;

/// One streamed body: its pipe, the bytes it must carry, and how far each
/// side got. Shared by the producer (a [`crate::ConnectionTask`]'s read
/// side) and the
/// consumer handle riding on the message.
pub(crate) struct BodyStream {
    pipe: BodyPipe,
    /// The connection the body comes from.
    source: Endpoint,
    len: u64,
    /// Bytes the producer moved into the pipe.
    filled: AtomicU64,
    /// Bytes the consumer moved out of it onto its connection.
    drained: AtomicU64,
    producer: TaskId,
    /// The task draining the stream, or [`UNCLAIMED`].
    consumer: AtomicU64,
    /// The source ended before `len` bytes.
    failed: AtomicBool,
    /// The destination is gone, or the message was dropped undrained.
    abandoned: AtomicBool,
}

/// How far a round of moving bytes got: a fill or drain here, or a write
/// side's whole flush.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Moved {
    /// Everything this side had to move is through.
    Done,
    /// This side cannot move a byte now (a full pipe or an empty source
    /// for a fill; a full destination for a drain); park until woken.
    Blocked,
    /// The timeslice ended with bytes left.
    Yield,
    /// A drain found the pipe empty while its producer still fills it.
    Dry,
}

impl BodyStream {
    /// Opens a stream of `len` bytes produced by `producer`, and the
    /// carrier to attach to its message.
    pub(crate) fn open(
        source: &Endpoint,
        producer: TaskId,
        len: u64,
    ) -> Result<(Arc<Self>, Rest), RuntimeError> {
        let stream = Arc::new(Self::with_pipe(BodyPipe::new()?, source, producer, len));
        let tail = Rest(Arc::new(BodyTail(Arc::clone(&stream))));
        Ok((stream, tail))
    }

    fn with_pipe(pipe: BodyPipe, source: &Endpoint, producer: TaskId, len: u64) -> Self {
        BodyStream {
            pipe,
            source: source.clone(),
            len,
            filled: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            producer,
            consumer: AtomicU64::new(UNCLAIMED),
            failed: AtomicBool::new(false),
            abandoned: AtomicBool::new(false),
        }
    }

    fn consumer(&self) -> Option<TaskId> {
        match self.consumer.load(Ordering::SeqCst) {
            UNCLAIMED => None,
            id => Some(TaskId(id)),
        }
    }

    pub(crate) fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }

    /// Gives up on delivering the body: the source connection is closed,
    /// even if every byte already left it, since the message it carried
    /// is lost. `true` the first time, when the producer must be woken.
    fn abandon(&self) -> bool {
        if self.drained.load(Ordering::Acquire) == self.len
            || self.abandoned.swap(true, Ordering::AcqRel)
        {
            return false;
        }
        self.source.close();
        true
    }

    /// The producer's round: moves bytes from `source` into the pipe until
    /// all are in, the pipe or the source blocks, or the timeslice ends.
    /// Each move wakes the consumer. An EOF or error of the source is the
    /// `Err`: the stream is then failed and its consumer woken.
    pub(crate) fn fill(&self, source: &Endpoint, ctx: &mut TaskContext) -> Result<Moved, NetError> {
        loop {
            let filled = self.filled.load(Ordering::Acquire);
            if filled == self.len {
                return Ok(Moved::Done);
            }
            match source.fill_pipe(&self.pipe, (self.len - filled) as usize) {
                Ok(n) => {
                    // Published before the consumer is read: a consumer
                    // claiming meanwhile drains after its claim, so it
                    // either is woken here or finds these bytes itself.
                    self.filled.fetch_add(n as u64, Ordering::SeqCst);
                    if let Some(consumer) = self.consumer() {
                        ctx.wake(consumer);
                    }
                    if !ctx.can_continue() {
                        return Ok(Moved::Yield);
                    }
                }
                Err(NetError::WouldBlock) => return Ok(Moved::Blocked),
                Err(err) => {
                    if let Some(consumer) = self.fail() {
                        ctx.wake(consumer);
                    }
                    return Err(err);
                }
            }
        }
    }

    /// Marks the source as ended early, unless it filled everything, and
    /// returns the consumer to wake so it notices.
    pub(crate) fn fail(&self) -> Option<TaskId> {
        if self.filled.load(Ordering::Acquire) == self.len {
            return None;
        }
        self.failed.store(true, Ordering::Release);
        self.consumer()
    }
}

/// The consumer's handle on a stream, carried on its message as a
/// [`Rest`]. The last clone dropped before the body was drained abandons
/// the stream and wakes its producer.
pub(crate) struct BodyTail(Arc<BodyStream>);

impl BodyTail {
    /// The stream behind a message's carrier, if the runtime attached it.
    pub(crate) fn of(rest: &Rest) -> Option<&Arc<BodyStream>> {
        rest.0.downcast_ref::<BodyTail>().map(|tail| &tail.0)
    }
}

impl Drop for BodyTail {
    fn drop(&mut self) {
        if self.0.abandon() {
            wake_after_run(self.0.producer);
        }
    }
}

/// The consumer's side: a claimed stream being drained onto one
/// connection, held by a [`crate::ConnectionTask`]'s write side with the
/// message's
/// carrier (which keeps the stream claimed while it is alive).
pub(crate) struct Draining {
    stream: Arc<BodyStream>,
    _carrier: Rest,
}

impl Draining {
    /// Claims the stream behind `carrier` for the task `consumer`. `None`
    /// if the carrier is not a body stream.
    pub(crate) fn claim(carrier: Rest, consumer: TaskId) -> Option<Self> {
        let stream = Arc::clone(BodyTail::of(&carrier)?);
        stream.consumer.store(consumer.0, Ordering::SeqCst);
        Some(Draining {
            stream,
            _carrier: carrier,
        })
    }

    /// Moves bytes from the pipe onto `destination` until all are out, the
    /// pipe runs dry or the destination is full, or the timeslice ends.
    /// Each move wakes the producer. `Err` when the destination failed,
    /// or when the pipe ran dry after its source failed: either way this
    /// message can no longer be completed.
    pub(crate) fn drain(
        &self,
        destination: &Endpoint,
        ctx: &mut TaskContext,
    ) -> Result<Moved, RuntimeError> {
        let stream = &self.stream;
        loop {
            let drained = stream.drained.load(Ordering::Acquire);
            if drained == stream.len {
                return Ok(Moved::Done);
            }
            match destination.drain_pipe(&stream.pipe, (stream.len - drained) as usize) {
                Ok(n) => {
                    stream.drained.fetch_add(n as u64, Ordering::AcqRel);
                    ctx.wake(stream.producer);
                    if !ctx.can_continue() {
                        return Ok(Moved::Yield);
                    }
                }
                Err(NetError::WouldBlock) => {
                    // Everything filled so far is out: the pipe is dry,
                    // and only the producer can change that.
                    if stream.filled.load(Ordering::SeqCst) > drained {
                        return Ok(Moved::Blocked);
                    }
                    if stream.failed.load(Ordering::Acquire) {
                        return Err(RuntimeError::Logic(
                            "the source of a streamed body ended before it".into(),
                        ));
                    }
                    return Ok(Moved::Dry);
                }
                Err(err) => return Err(err.into()),
            }
        }
    }

    /// The destination failed: the source is closed and the producer told.
    pub(crate) fn abandon(&self, ctx: &mut TaskContext) {
        if self.stream.abandon() {
            ctx.wake(self.stream.producer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RuntimeMetrics;
    use crate::task::{NO_DEADLINE, TIMESLICE};
    use flick_net::{SimNetwork, StackModel};

    fn ctx(id: u64) -> TaskContext {
        TaskContext::new(TaskId(id), NO_DEADLINE, RuntimeMetrics::new_shared())
    }

    /// A connected sim pair: (writer, reader).
    fn sim_pair(net: &Arc<SimNetwork>, port: u16) -> (Endpoint, Endpoint) {
        let listener = net.listen(port).unwrap();
        let client = net.connect(port).unwrap();
        (client, listener.accept().unwrap())
    }

    /// Hand-driven: the producer sees a full pipe exactly until the
    /// consumer drains it, and each side's progress wakes the other.
    #[test]
    fn pipe_wake_protocol_hand_driven() {
        let net = SimNetwork::new(StackModel::Free);
        let (client, source) = sim_pair(&net, 9501);
        let (destination, sink) = sim_pair(&net, 9502);
        let len = 64 * 1024 + 1;
        let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        client.write_all(&body).unwrap();
        let stream = Arc::new(BodyStream::with_pipe(
            BodyPipe::with_default_size().unwrap(),
            &source,
            TaskId(1),
            len as u64,
        ));
        let carrier = Rest(Arc::new(BodyTail(Arc::clone(&stream))));

        // Unclaimed: the fill wakes nobody, and stops on a full pipe.
        let mut producer = ctx(1);
        assert_eq!(stream.fill(&source, &mut producer), Ok(Moved::Blocked));
        assert!(producer.take_wakes().is_empty());
        let parked_at = stream.filled.load(Ordering::SeqCst);
        assert!(parked_at > 0 && parked_at < len as u64);
        assert_eq!(stream.fill(&source, &mut producer), Ok(Moved::Blocked));

        // The claim and drain wake the producer; its fill then moves more
        // and wakes the consumer.
        let draining = Draining::claim(carrier, TaskId(2)).unwrap();
        let mut consumer = ctx(2);
        assert_eq!(
            draining.drain(&destination, &mut consumer).unwrap(),
            Moved::Dry
        );
        assert_eq!(consumer.take_wakes(), vec![TaskId(1)]);
        assert_eq!(stream.fill(&source, &mut producer), Ok(Moved::Blocked));
        assert_eq!(producer.take_wakes(), vec![TaskId(2)]);
        let mut got = Vec::new();
        let mut buf = vec![0u8; 128 * 1024];
        loop {
            let drained = draining.drain(&destination, &mut consumer).unwrap();
            while let Ok(n) = sink.read(&mut buf) {
                got.extend_from_slice(&buf[..n]);
            }
            if drained == Moved::Done {
                break;
            }
            let _ = stream.fill(&source, &mut producer);
        }
        assert_eq!(got, body, "byte for byte, in order");
        assert_eq!(stream.fill(&source, &mut producer), Ok(Moved::Done));
        drop(draining);
        assert!(!stream.is_abandoned(), "a drained handle abandons nothing");
    }

    /// Two tasks on their own threads, woken only by each other's
    /// [`TaskContext`] wakes and by their connections' readiness (a poller
    /// thread stands in for the dispatcher), run one stream after another:
    /// a sim connection filled by a writer thread copies into the pipe,
    /// and the pipe splices into a kernel socket drained by a reader
    /// thread. Pipes stay at the kernel default, and a copy fills at most
    /// half of one, so the producer of every 64 KiB + 1 body finds its
    /// pipe full and only the consumer's drain can wake it. A side parked
    /// for seconds lost its wakeup.
    #[test]
    fn pipe_wake_protocol_stress() {
        use flick_net::{Interest, Poller, TcpStack, Token};
        use parking_lot::{Condvar, Mutex};
        use std::sync::mpsc;
        use std::time::Duration;

        const ROUNDS: usize = 10_000;
        const LEN: usize = 64 * 1024 + 1;
        let tcp = TcpStack::new();
        let pair = || {
            let listener = tcp.listen("127.0.0.1:0").unwrap();
            let near = tcp
                .connect(&format!("127.0.0.1:{}", listener.port()))
                .unwrap();
            (
                near,
                listener.accept_timeout(Duration::from_secs(5)).unwrap(),
            )
        };
        let net = SimNetwork::new(StackModel::Free);
        let (writer, source) = sim_pair(&net, 9510);
        let (destination, reader) = pair();
        let poller = Poller::new();
        source.register(&poller, Token(1), Interest::READABLE);
        destination.register(&poller, Token(2), Interest::WRITABLE);

        // `woken[i]` is task i + 1's pending wake.
        let woken = Arc::new((Mutex::new([true, true]), Condvar::new()));
        let wake = {
            let woken = Arc::clone(&woken);
            move |task: TaskId| {
                woken.0.lock()[task.0 as usize - 1] = true;
                woken.1.notify_all();
            }
        };
        let park = {
            let woken = Arc::clone(&woken);
            move |task: TaskId| {
                let mut flags = woken.0.lock();
                while !flags[task.0 as usize - 1] {
                    let timeout = woken.1.wait_for(&mut flags, Duration::from_secs(10));
                    assert!(!timeout.timed_out(), "{task} lost its wakeup");
                }
                flags[task.0 as usize - 1] = false;
            }
        };
        let done = Arc::new(AtomicBool::new(false));
        let dispatcher = {
            let (wake, done) = (wake.clone(), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    for event in poller.wait(Duration::from_millis(20)) {
                        wake(TaskId(event.token.0));
                    }
                }
            })
        };
        // A body is written only once the previous one is out, so while
        // its pipe is full the source socket stays quiet: only the
        // consumer's drain can wake the producer then.
        let (delivered, next_body) = mpsc::channel::<()>();
        let feeder = std::thread::spawn(move || {
            let body: Vec<u8> = (0..LEN).map(|i| (i % 253) as u8).collect();
            for round in 0..ROUNDS {
                if round > 0 {
                    next_body.recv().unwrap();
                }
                writer.write_all(&body).unwrap();
            }
        });
        let drainer = std::thread::spawn(move || {
            let mut buf = vec![0u8; 256 * 1024];
            let mut total = 0;
            while total < ROUNDS * LEN {
                let n = reader
                    .read_timeout(&mut buf, Duration::from_secs(10))
                    .unwrap();
                // A sample of the bytes keeps debug builds quick; the
                // oracle suite compares every byte.
                for i in (0..n).step_by(251) {
                    assert_eq!(
                        buf[i],
                        ((total + i) % LEN % 253) as u8,
                        "byte {}",
                        total + i
                    );
                }
                for _ in total / LEN..(total + n) / LEN {
                    let _ = delivered.send(());
                }
                total += n;
            }
        });
        // One task's life: step until `ROUNDS` streams are through it.
        type Step = Box<dyn FnMut(&mut TaskContext) -> Option<Moved> + Send>;
        let run = |id: u64, mut step: Step| {
            let (wake, park) = (wake.clone(), park.clone());
            std::thread::spawn(move || {
                let mut finished = 0;
                while finished < ROUNDS {
                    park(TaskId(id));
                    loop {
                        let mut ctx =
                            TaskContext::new(TaskId(id), TIMESLICE, RuntimeMetrics::new_shared());
                        let moved = step(&mut ctx);
                        ctx.take_wakes().into_iter().for_each(&wake);
                        match moved {
                            Some(Moved::Done) => finished += 1,
                            Some(Moved::Yield) => {}
                            Some(Moved::Blocked | Moved::Dry) | None => break,
                        }
                        if finished == ROUNDS {
                            break;
                        }
                    }
                }
            })
        };
        let (streams, claims) = mpsc::channel::<Arc<BodyStream>>();
        let mut filling: Option<Arc<BodyStream>> = None;
        let producer = run(
            1,
            Box::new(move |ctx| {
                let stream = filling.get_or_insert_with(|| {
                    let pipe = BodyPipe::with_default_size().unwrap();
                    let stream =
                        Arc::new(BodyStream::with_pipe(pipe, &source, TaskId(1), LEN as u64));
                    streams.send(Arc::clone(&stream)).unwrap();
                    ctx.wake(TaskId(2));
                    stream
                });
                let moved = stream.fill(&source, ctx).expect("the source stays open");
                if moved == Moved::Done {
                    filling = None;
                }
                Some(moved)
            }),
        );
        let mut draining: Option<Draining> = None;
        let consumer = run(
            2,
            Box::new(move |ctx| {
                if draining.is_none() {
                    let stream = claims.try_recv().ok()?;
                    let carrier = Rest(Arc::new(BodyTail(stream)));
                    draining = Draining::claim(carrier, TaskId(2));
                }
                let rest = draining.as_ref().expect("claimed above");
                let moved = rest.drain(&destination, ctx).expect("the sink stays open");
                if moved == Moved::Done {
                    draining = None;
                }
                Some(moved)
            }),
        );
        producer.join().unwrap();
        consumer.join().unwrap();
        feeder.join().unwrap();
        drainer.join().unwrap();
        done.store(true, Ordering::Release);
        dispatcher.join().unwrap();
    }

    /// A handle dropped undrained abandons the stream, closes its source
    /// and wakes the producer through the run's wake list; a failed source
    /// makes the drain fail once the pipe is dry.
    #[test]
    fn dropped_handles_and_failed_sources_end_the_stream() {
        let net = SimNetwork::new(StackModel::Free);
        let (abandoned_client, abandoned) = sim_pair(&net, 9505);
        let (stream, carrier) = BodyStream::open(&abandoned, TaskId(7), 10).unwrap();
        let mut run = ctx(3);
        drop(carrier);
        assert!(stream.is_abandoned());
        assert!(abandoned.is_closed() && abandoned_client.peer_closed());
        assert_eq!(run.take_wakes(), vec![TaskId(7)]);

        let (client, source) = sim_pair(&net, 9503);
        let (destination, _sink) = sim_pair(&net, 9504);
        let (stream, carrier) = BodyStream::open(&source, TaskId(7), 10).unwrap();
        let draining = Draining::claim(carrier, TaskId(8)).unwrap();
        client.write(b"abc").unwrap();
        client.close();
        let mut producer = ctx(7);
        assert!(stream.fill(&source, &mut producer).is_err(), "EOF mid-body");
        assert!(producer.take_wakes().contains(&TaskId(8)));
        let mut consumer = ctx(8);
        assert!(
            draining.drain(&destination, &mut consumer).is_err(),
            "the three bytes leave, then the drain fails"
        );
        assert_eq!(stream.drained.load(Ordering::SeqCst), 3);
    }
}
