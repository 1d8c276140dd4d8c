//! The task abstraction and the timeslice that schedules it.
//!
//! A task is the schedulable unit of computation (§3.2 of the paper): it
//! consumes a stream of input values, produces a stream of output values, and
//! runs until it either exhausts its available input or exceeds the
//! system-defined timeslice threshold. The code generated by the FLICK
//! compiler guarantees that a task re-enters the scheduler when its timeslice
//! expires; here that guarantee is provided by [`TaskContext::can_continue`],
//! which every task implementation consults between items.

use crate::metrics::RuntimeMetrics;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A globally unique task identifier.
///
/// The scheduler hashes the identifier to pick the worker queue a task is
/// always queued on (reducing cache misses, as in §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// FLICK's timeslice threshold (§3.2; the paper uses 10–100 µs): a task
/// runs for at most this long per dispatch, then yields and re-queues
/// itself if it still has work. The platform always runs it.
///
/// The timeslice is the one scheduling parameter (§6.4, Figure 7): with
/// [`NO_DEADLINE`] a scheduled task runs until it has no work left (the OS
/// may still preempt the worker thread), and with [`Duration::ZERO`] it
/// processes one item per dispatch (round-robin) — its deadline has passed
/// once that item is done, which counts as a cooperative yield.
pub const TIMESLICE: Duration = Duration::from_micros(50);

/// A timeslice that never expires (no deadline can be that far away).
pub const NO_DEADLINE: Duration = Duration::MAX;

/// What a task reports back to the scheduler after running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// The task still has work it could do right now; re-queue it.
    Runnable,
    /// The task is waiting for input; it will be woken when data arrives.
    Idle,
    /// The task has finished for good and can be dropped.
    Finished,
}

/// Per-dispatch execution context handed to [`Task::run`].
pub struct TaskContext {
    task: TaskId,
    /// `None` for a timeslice too long to end.
    deadline: Option<Instant>,
    items_this_run: usize,
    /// Tasks that must be woken because this run pushed data to them (or
    /// drained a channel they are parked on).
    wake_list: Vec<TaskId>,
    metrics: Arc<RuntimeMetrics>,
    yielded: bool,
    /// The task's input ended in this run ([`Self::end_input`]).
    pub(crate) input_ended: bool,
}

impl TaskContext {
    /// Creates a context for one dispatch of `task` that may run for
    /// `timeslice` ([`TIMESLICE`]).
    pub fn new(task: TaskId, timeslice: Duration, metrics: Arc<RuntimeMetrics>) -> Self {
        TaskContext {
            task,
            deadline: Instant::now().checked_add(timeslice),
            items_this_run: 0,
            wake_list: Vec::new(),
            metrics,
            yielded: false,
            input_ended: false,
        }
    }

    /// The task this dispatch runs — the id a producer parks under when
    /// its channel is full.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Records that one item was processed and reports whether the task may
    /// continue with another item in this dispatch: until the timeslice
    /// deadline passes, which a zero timeslice's has after the first item.
    pub fn can_continue(&mut self) -> bool {
        if self.spent() {
            self.yield_now();
            return false;
        }
        true
    }

    /// Records that one item was processed and reports whether the
    /// timeslice has run out, leaving the yield to the task: one that then
    /// finds no more work goes idle instead, and has not yielded.
    pub fn spent(&mut self) -> bool {
        self.items_this_run += 1;
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Yields the rest of this dispatch, counted as a cooperative yield:
    /// the status that re-queues the task.
    pub fn yield_now(&mut self) -> TaskStatus {
        self.yielded = true;
        RuntimeMetrics::add(&self.metrics.cooperative_yields, 1);
        TaskStatus::Runnable
    }

    /// Number of items processed so far in this dispatch.
    pub fn items_this_run(&self) -> usize {
        self.items_this_run
    }

    /// Returns `true` if the task hit its timeslice during this dispatch.
    pub fn yielded(&self) -> bool {
        self.yielded
    }

    /// Asks the scheduler to wake `task` after this dispatch returns
    /// (typically because data was pushed into one of its input channels).
    pub fn wake(&mut self, task: TaskId) {
        if !self.wake_list.contains(&task) {
            self.wake_list.push(task);
        }
    }

    /// Drains the accumulated wake list (scheduler-internal), with the
    /// wakes [`wake_after_run`] deferred on this thread.
    pub fn take_wakes(&mut self) -> Vec<TaskId> {
        for task in take_deferred_wakes() {
            self.wake(task);
        }
        std::mem::take(&mut self.wake_list)
    }

    /// Records that the task's input ended in this run. On a client
    /// connection that is what its graph's drain waits for: the drain
    /// starts once every client connection's input has ended.
    pub fn end_input(&mut self) {
        self.input_ended = true;
    }

    /// The runtime metrics block, for task implementations to update.
    pub fn metrics(&self) -> &Arc<RuntimeMetrics> {
        &self.metrics
    }
}

thread_local! {
    static DEFERRED_WAKES: RefCell<Vec<TaskId>> = const { RefCell::new(Vec::new()) };
}

/// Wakes `task` from code that holds no [`TaskContext`]: a `Drop` impl
/// running inside some task's run (a message dropped there) or after it.
/// The wake joins the wake list of the run on this thread
/// ([`TaskContext::take_wakes`]); the scheduler also collects it after a
/// finished task is dropped, and the dispatcher after a teardown.
pub(crate) fn wake_after_run(task: TaskId) {
    DEFERRED_WAKES.with(|wakes| wakes.borrow_mut().push(task));
}

/// The wakes deferred on this thread so far.
pub(crate) fn take_deferred_wakes() -> Vec<TaskId> {
    DEFERRED_WAKES.with(|wakes| std::mem::take(&mut *wakes.borrow_mut()))
}

/// A schedulable unit of computation.
pub trait Task: Send {
    /// A short human-readable label (used in diagnostics).
    fn label(&self) -> &str;

    /// Runs the task until it exhausts its input, finishes, or the context
    /// tells it to yield. Must be non-blocking.
    fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(timeslice: Duration) -> TaskContext {
        TaskContext::new(TaskId(0), timeslice, RuntimeMetrics::new_shared())
    }

    /// Round-robin is a zero timeslice: one item per dispatch, after which
    /// the deadline has passed and the task yields.
    #[test]
    fn round_robin_allows_exactly_one_item() {
        let mut c = ctx(Duration::ZERO);
        assert!(!c.can_continue());
        assert_eq!(c.items_this_run(), 1);
        assert!(c.yielded());
        assert_eq!(RuntimeMetrics::get(&c.metrics().cooperative_yields), 1);
    }

    #[test]
    fn non_cooperative_never_stops() {
        let mut c = ctx(NO_DEADLINE);
        for _ in 0..10_000 {
            assert!(c.can_continue());
        }
        assert!(!c.yielded());
    }

    #[test]
    fn cooperative_yields_after_timeslice() {
        let mut c = ctx(Duration::from_micros(100));
        // Burn through the timeslice.
        let start = Instant::now();
        let mut continued = true;
        while continued && start.elapsed() < Duration::from_millis(50) {
            continued = c.can_continue();
        }
        assert!(!continued, "task should have been told to yield");
        assert!(c.yielded());
        assert_eq!(RuntimeMetrics::get(&c.metrics().cooperative_yields), 1);
    }

    #[test]
    fn wake_list_deduplicates() {
        let mut c = ctx(NO_DEADLINE);
        c.wake(TaskId(5));
        c.wake(TaskId(5));
        c.wake(TaskId(6));
        let wakes = c.take_wakes();
        assert_eq!(wakes, vec![TaskId(5), TaskId(6)]);
        assert!(c.take_wakes().is_empty());
    }
}
