//! Bounded task channels.
//!
//! Task channels move [`Value`]s between the tasks of a graph. They are
//! bounded (FLICK guarantees bounded resource usage per §3.2/§4.3), multiple
//! producer / single consumer, and record which task consumes them so that a
//! producer can ask the scheduler to wake that task after pushing.
//!
//! Back-pressure runs the other way through the same lock: a producer that
//! finds the channel full *parks* ([`ChannelProducer::push_or_park`]) — its
//! task id is recorded under the queue mutex that saw the queue full — and
//! the consumer's [`ChannelConsumer::pop`] that drains the queue to half
//! capacity wakes every parked producer (DESIGN.md §5).

use crate::metrics::RuntimeMetrics;
use crate::task::{TaskContext, TaskId};
use crate::value::Value;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default per-channel capacity, in values.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// What the queue mutex guards: the values, and the producers waiting for
/// them to drain. One lock, so "saw it full" and "parked" are one step.
struct Queue {
    values: VecDeque<Value>,
    /// Producers refused by a full queue, woken (all of them) by the pop
    /// that leaves the queue at or below half capacity. Every clone of the
    /// producer half may park, so this is a set, not a slot.
    parked: Vec<TaskId>,
}

struct Inner {
    queue: Mutex<Queue>,
    capacity: usize,
    /// Number of producer handles still alive (or explicitly not closed).
    producers: AtomicUsize,
    closed: AtomicBool,
    consumer: TaskId,
}

/// A task channel: create with [`TaskChannel::bounded`], then hand the
/// producer and consumer halves to the producing and consuming tasks.
#[derive(Debug)]
pub struct TaskChannel;

impl TaskChannel {
    /// Creates a bounded channel whose consumer is the task `consumer`.
    ///
    /// Returns the producer and consumer halves.
    pub fn bounded(capacity: usize, consumer: TaskId) -> (ChannelProducer, ChannelConsumer) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                values: VecDeque::with_capacity(capacity.min(64)),
                parked: Vec::new(),
            }),
            capacity,
            producers: AtomicUsize::new(1),
            closed: AtomicBool::new(false),
            consumer,
        });
        (
            ChannelProducer {
                inner: Arc::clone(&inner),
                handle_closed: AtomicBool::new(false),
            },
            ChannelConsumer { inner },
        )
    }

    /// Creates a channel with the default capacity.
    pub fn with_default_capacity(consumer: TaskId) -> (ChannelProducer, ChannelConsumer) {
        Self::bounded(DEFAULT_CHANNEL_CAPACITY, consumer)
    }
}

/// The producing half of a task channel.
pub struct ChannelProducer {
    inner: Arc<Inner>,
    /// Whether this particular handle has already called [`Self::close`].
    handle_closed: AtomicBool,
}

impl std::fmt::Debug for ChannelProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelProducer")
            .field("consumer", &self.inner.consumer)
            .finish()
    }
}

impl Clone for ChannelProducer {
    fn clone(&self) -> Self {
        self.inner.producers.fetch_add(1, Ordering::AcqRel);
        ChannelProducer {
            inner: Arc::clone(&self.inner),
            handle_closed: AtomicBool::new(false),
        }
    }
}

impl ChannelProducer {
    /// The task that consumes from this channel (to be woken after a push).
    pub fn consumer(&self) -> TaskId {
        self.inner.consumer
    }

    /// Pushes a value.
    ///
    /// Returns `Err(value)` (giving the value back) if the channel is full or
    /// already fully closed, so the producer can retry without losing data.
    /// A task should use [`Self::push_or_park`] instead, which arranges the
    /// wakeup that retry needs.
    pub fn push(&self, value: Value) -> Result<(), Value> {
        self.push_inner(value, None)
    }

    /// Pushes a value; if the channel is full, parks the running task
    /// (`ctx.task()`) until the consumer drains the queue to half capacity,
    /// and gives the value back. The full check and the park are one
    /// critical section under the queue mutex, so the draining pop — which
    /// takes the same mutex — cannot miss the parked id: the task may
    /// return [`TaskStatus::Idle`](crate::TaskStatus::Idle) and rely on
    /// being woken.
    ///
    /// A push refused because the channel is closed never parks (nothing
    /// will drain it on the producer's behalf).
    pub fn push_or_park(&self, value: Value, ctx: &mut TaskContext) -> Result<(), Value> {
        self.push_inner(value, Some(ctx))
    }

    fn push_inner(&self, value: Value, park: Option<&mut TaskContext>) -> Result<(), Value> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(value);
        }
        let mut queue = self.inner.queue.lock();
        if queue.values.len() >= self.inner.capacity {
            if let Some(ctx) = park {
                let task = ctx.task();
                if !queue.parked.contains(&task) {
                    queue.parked.push(task);
                }
                RuntimeMetrics::add(&ctx.metrics().producer_parks, 1);
            }
            return Err(value);
        }
        queue.values.push_back(value);
        Ok(())
    }

    /// Returns `true` if a push would currently succeed.
    pub fn has_space(&self) -> bool {
        !self.inner.closed.load(Ordering::Acquire)
            && self.inner.queue.lock().values.len() < self.inner.capacity
    }

    /// Returns `true` if no value is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.inner.queue.lock().values.is_empty()
    }

    /// Marks this producer as finished. When the last producer closes, the
    /// consumer observes end-of-stream after draining. Closing the same
    /// handle more than once is a no-op. Returns `true` for the close that
    /// ended the stream.
    pub fn close(&self) -> bool {
        if self.handle_closed.swap(true, Ordering::AcqRel) {
            return false;
        }
        if self.inner.producers.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.inner.closed.store(true, Ordering::Release);
            return true;
        }
        false
    }
}

/// The consuming half of a task channel.
pub struct ChannelConsumer {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ChannelConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelConsumer")
            .field("consumer", &self.inner.consumer)
            .field("len", &self.len())
            .finish()
    }
}

impl ChannelConsumer {
    /// Pops the next value, or `None` if the channel is currently empty.
    ///
    /// The pop that leaves the queue at or below half capacity hands every
    /// parked producer to `ctx` to wake. Waking at half, not on every pop,
    /// lets a woken producer refill half a channel per run instead of
    /// ping-ponging one value at a time with its consumer.
    pub fn pop(&self, ctx: &mut TaskContext) -> Option<Value> {
        let mut queue = self.inner.queue.lock();
        let value = queue.values.pop_front();
        if !queue.parked.is_empty() && queue.values.len() <= self.inner.capacity / 2 {
            for task in queue.parked.drain(..) {
                ctx.wake(task);
            }
        }
        value
    }

    /// Number of values currently buffered.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().values.len()
    }

    /// Returns `true` if no values are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.queue.lock().values.is_empty()
    }

    /// Returns `true` once every producer has closed *and* the buffer has
    /// been drained: no more values will ever arrive.
    pub fn is_finished(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire) && self.is_empty()
    }

    /// Returns `true` if all producers have closed (there may still be
    /// buffered values to drain).
    pub fn producers_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// The id of the consuming task.
    pub fn consumer(&self) -> TaskId {
        self.inner.consumer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::NO_DEADLINE;

    fn ctx(task: u64) -> TaskContext {
        TaskContext::new(TaskId(task), NO_DEADLINE, RuntimeMetrics::new_shared())
    }

    #[test]
    fn push_pop_in_order() {
        let (tx, rx) = TaskChannel::bounded(4, TaskId(1));
        tx.push(Value::Int(1)).unwrap();
        tx.push(Value::Int(2)).unwrap();
        let mut c = ctx(1);
        assert_eq!(rx.pop(&mut c), Some(Value::Int(1)));
        assert_eq!(rx.pop(&mut c), Some(Value::Int(2)));
        assert_eq!(rx.pop(&mut c), None);
    }

    #[test]
    fn bounded_capacity_rejects_push() {
        let (tx, rx) = TaskChannel::bounded(2, TaskId(1));
        tx.push(Value::Int(1)).unwrap();
        tx.push(Value::Int(2)).unwrap();
        let rejected = tx.push(Value::Int(3)).unwrap_err();
        assert_eq!(rejected, Value::Int(3));
        assert!(!tx.has_space());
        rx.pop(&mut ctx(1));
        assert!(tx.has_space());
    }

    #[test]
    fn close_signals_end_of_stream_after_drain() {
        let (tx, rx) = TaskChannel::bounded(4, TaskId(2));
        tx.push(Value::Int(1)).unwrap();
        tx.close();
        assert!(rx.producers_closed());
        assert!(!rx.is_finished(), "still has a buffered value");
        assert_eq!(rx.pop(&mut ctx(2)), Some(Value::Int(1)));
        assert!(rx.is_finished());
    }

    #[test]
    fn multiple_producers_must_all_close() {
        let (tx1, rx) = TaskChannel::bounded(4, TaskId(3));
        let tx2 = tx1.clone();
        tx1.close();
        assert!(!rx.producers_closed());
        tx2.close();
        assert!(rx.is_finished());
    }

    #[test]
    fn push_after_full_close_returns_value() {
        let (tx, rx) = TaskChannel::bounded(4, TaskId(4));
        tx.close();
        let back = tx.push(Value::Int(9)).unwrap_err();
        assert_eq!(back, Value::Int(9));
        assert!(rx.is_finished());
    }

    #[test]
    fn consumer_id_is_recorded() {
        let (tx, rx) = TaskChannel::with_default_capacity(TaskId(42));
        assert_eq!(tx.consumer(), TaskId(42));
        assert_eq!(rx.consumer(), TaskId(42));
    }

    #[test]
    fn a_full_channel_parks_its_producer_until_drained_to_half() {
        let (tx, rx) = TaskChannel::bounded(4, TaskId(1));
        let mut producer = ctx(7);
        for i in 0..4 {
            tx.push_or_park(Value::Int(i), &mut producer).unwrap();
        }
        assert_eq!(
            tx.push_or_park(Value::Int(4), &mut producer),
            Err(Value::Int(4))
        );
        assert_eq!(
            RuntimeMetrics::get(&producer.metrics().producer_parks),
            1,
            "the refusal is counted as a park"
        );
        let mut consumer = ctx(1);
        rx.pop(&mut consumer);
        assert!(consumer.take_wakes().is_empty(), "3 of 4 left: above half");
        rx.pop(&mut consumer);
        assert_eq!(consumer.take_wakes(), vec![TaskId(7)], "2 of 4: at half");
        rx.pop(&mut consumer);
        assert!(consumer.take_wakes().is_empty(), "woken once, not per pop");
    }

    #[test]
    fn every_parked_producer_is_woken() {
        let (tx1, rx) = TaskChannel::bounded(2, TaskId(1));
        let tx2 = tx1.clone();
        tx1.push(Value::Int(1)).unwrap();
        tx2.push(Value::Int(2)).unwrap();
        let (mut a, mut b) = (ctx(10), ctx(11));
        assert!(tx1.push_or_park(Value::Int(3), &mut a).is_err());
        assert!(tx2.push_or_park(Value::Int(4), &mut b).is_err());
        // Parking twice records the task once.
        assert!(tx2.push_or_park(Value::Int(4), &mut b).is_err());
        let mut consumer = ctx(1);
        rx.pop(&mut consumer);
        assert_eq!(consumer.take_wakes(), vec![TaskId(10), TaskId(11)]);
    }

    #[test]
    fn a_closed_channel_refuses_without_parking() {
        let (tx, rx) = TaskChannel::bounded(1, TaskId(1));
        tx.push(Value::Int(1)).unwrap();
        tx.close();
        let mut producer = ctx(7);
        assert_eq!(
            tx.push_or_park(Value::Int(2), &mut producer),
            Err(Value::Int(2))
        );
        assert_eq!(RuntimeMetrics::get(&producer.metrics().producer_parks), 0);
        let mut consumer = ctx(1);
        assert_eq!(rx.pop(&mut consumer), Some(Value::Int(1)));
        assert!(consumer.take_wakes().is_empty(), "nobody parked");
    }

    /// The lost-wakeup stress: a producer that parks (returns idle) on a
    /// full channel must always be woken by the consumer's draining pop,
    /// however the two threads interleave. The producer here only ever
    /// retries after a wake addressed to it, so a single lost wakeup
    /// stalls the run and fails the deadline instead of hanging.
    #[test]
    fn park_against_pop_loses_no_wakeup() {
        use std::sync::mpsc;
        use std::time::{Duration, Instant};

        const ROUNDS: i64 = 200_000;
        let (tx, rx) = TaskChannel::bounded(4, TaskId(1));
        let metrics = RuntimeMetrics::new_shared();
        let (wake_tx, wake_rx) = mpsc::channel::<()>();
        let producer_metrics = Arc::clone(&metrics);
        let producer = std::thread::spawn(move || {
            let mut next = 0;
            while next < ROUNDS {
                let mut c = TaskContext::new(TaskId(7), NO_DEADLINE, Arc::clone(&producer_metrics));
                while next < ROUNDS {
                    match tx.push_or_park(Value::Int(next), &mut c) {
                        Ok(()) => next += 1,
                        Err(_) => break,
                    }
                }
                if next < ROUNDS {
                    // Parked: sleep until the consumer's pop wakes us.
                    wake_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("a parked producer was never woken");
                }
            }
            tx.close();
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut expected = 0;
        let mut consumer = TaskContext::new(TaskId(1), NO_DEADLINE, Arc::clone(&metrics));
        while !rx.is_finished() {
            assert!(Instant::now() < deadline, "stalled at {expected}");
            match rx.pop(&mut consumer) {
                Some(value) => {
                    assert_eq!(value, Value::Int(expected), "values stay in order");
                    expected += 1;
                }
                None => std::thread::yield_now(),
            }
            for task in consumer.take_wakes() {
                assert_eq!(task, TaskId(7));
                wake_tx.send(()).unwrap();
            }
        }
        producer.join().unwrap();
        assert_eq!(expected, ROUNDS);
        let parks = RuntimeMetrics::get(&metrics.producer_parks);
        assert!(parks > 0, "a 4-slot channel must have pushed back");
    }
}
