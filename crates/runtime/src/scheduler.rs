//! The cooperative task scheduler.
//!
//! §5 of the paper: tasks are cooperatively scheduled onto a fixed pool of
//! worker threads. Each worker owns a FIFO task queue; a queued task is
//! always hashed to the same worker's queue (to reduce cache misses),
//! workers scavenge work from other queues when their own is empty, and a
//! running task yields control when it exceeds the timeslice threshold
//! (enforced by [`crate::task::TaskContext`] inside every task
//! implementation).
//!
//! Every wake goes to the woken task's hashed queue, including the wakes
//! of a run: each task of a graph runs on its own connection's events, so
//! there is no producer-to-consumer hop for a worker to keep to itself.
//!
//! In a sharded platform every shard runs its own scheduler; idle shards
//! additionally pull runnable tasks from their siblings through the
//! [`steal`] path (see [`steal::StealGroup`]). A stolen task is executed
//! *through the owning shard's scheduler state* — its task slot, its
//! follow-on wakes, its graph's exit count — so waker registrations in the
//! owning shard's poller stay valid no matter which shard's worker ran it.

use crate::metrics::RuntimeMetrics;
use crate::task::{Task, TaskContext, TaskId, TaskStatus};
use flick_net::{Poller, Readiness, Token};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use steal::StealGroup;

struct WorkerQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

struct TaskSlot {
    task: Mutex<Option<Box<dyn Task>>>,
    queued: AtomicBool,
    /// The graph the task belongs to; `None` for a task registered on its
    /// own.
    graph: Option<Arc<GraphLife>>,
    /// The task reads a client connection whose input has not ended yet:
    /// its graph's drain waits for it.
    reading: AtomicBool,
}

impl TaskSlot {
    fn new(task: Box<dyn Task>, graph: Option<Arc<GraphLife>>, reading: bool) -> Arc<Self> {
        Arc::new(TaskSlot {
            task: Mutex::new(Some(task)),
            queued: AtomicBool::new(false),
            graph,
            reading: AtomicBool::new(reading),
        })
    }

    /// Counts the task's client input out of its graph, once; the graph's
    /// last posts its token (start the drain).
    fn end_input(&self) {
        let Some(graph) = &self.graph else {
            return;
        };
        if self.reading.swap(false, Ordering::AcqRel)
            && graph
                .clients
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                == Ok(1)
        {
            graph.post();
        }
    }
}

/// One graph's lifecycle record, shared by the slots of its tasks. A task
/// counts itself out once it has left the task map — it finished, or was
/// removed — so a count read as zero means every such task is gone. The
/// record posts `token` to `poller` twice: when the last client input ends
/// (start the drain) and when the last task exits (tear down).
pub(crate) struct GraphLife {
    /// Tasks still registered.
    tasks: AtomicUsize,
    /// Client inputs that have not ended. A task's input ends when its run
    /// says so ([`TaskContext::end_input`]) or when it exits, whichever
    /// comes first. It never goes below zero: a graph with no client input
    /// counts every task here against one, so its first input end or exit
    /// starts the drain.
    clients: AtomicUsize,
    poller: Poller,
    token: Token,
}

impl GraphLife {
    /// Client inputs that have not ended.
    pub(crate) fn clients_left(&self) -> usize {
        self.clients.load(Ordering::Acquire)
    }

    /// Tasks still registered.
    pub(crate) fn tasks_left(&self) -> usize {
        self.tasks.load(Ordering::Acquire)
    }

    fn post(&self) {
        self.poller.post(self.token, Readiness::default());
    }

    /// Counts a task out; the last posts the token (tear down).
    fn count_out(&self) {
        if self.tasks.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.post();
        }
    }
}

struct SchedulerInner {
    queues: Vec<WorkerQueue>,
    tasks: RwLock<HashMap<TaskId, Arc<TaskSlot>>>,
    /// How long one dispatch of a task may run ([`crate::task::TIMESLICE`]).
    timeslice: Duration,
    metrics: Arc<RuntimeMetrics>,
    shutdown: AtomicBool,
    /// Which shard this scheduler belongs to (0 outside sharded platforms).
    shard: usize,
    /// The cross-shard steal set, if this scheduler is part of one.
    group: Option<Arc<StealGroup>>,
    /// Bumped on every `schedule`; idle workers re-check work availability
    /// against it before parking so a wakeup posted between their last scan
    /// and the park cannot be lost.
    work_seq: AtomicU64,
    /// Workers with no local or stealable work park here; `schedule`
    /// notifies it so any idle worker (not just the hashed one) picks new
    /// work up immediately instead of after the scavenge heartbeat.
    idle_lock: Mutex<()>,
    idle_cond: Condvar,
    /// Number of workers currently parked (or committed to parking) on
    /// `idle_cond`. Lets the schedule hot path skip the lock + notify
    /// entirely while every worker is busy — the common case under load.
    /// SeqCst against `work_seq`: a worker bumps this *before* its final
    /// sequence re-check, and `schedule` bumps the sequence *before*
    /// reading this, so one side always observes the other.
    parked: AtomicUsize,
    /// Tasks of this scheduler executed by any worker (own or thief).
    runs: AtomicU64,
    /// Tasks of this scheduler that a sibling shard's worker executed.
    stolen_out: AtomicU64,
    /// Tasks of sibling shards that this scheduler's workers executed.
    stolen_in: AtomicU64,
}

/// Point-in-time run and steal counters of one shard's scheduler, consumed
/// by the fig5 per-shard utilization report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard id this scheduler serves.
    pub shard: usize,
    /// Task executions attributed to this shard (its own tasks, wherever
    /// they ran).
    pub runs: u64,
    /// This shard's tasks that were executed by a sibling shard's worker.
    pub stolen_out: u64,
    /// Sibling shards' tasks that this shard's workers executed.
    pub stolen_in: u64,
}

impl SchedulerInner {
    fn queue_for(&self, id: TaskId) -> usize {
        // The hash over the task identifier that §5 describes; identifiers
        // are dense integers so a multiplicative hash spreads them well.
        (id.0.wrapping_mul(0x9e3779b97f4a7c15) >> 32) as usize % self.queues.len()
    }

    /// Returns `false` if `id` is not (or no longer) registered.
    fn schedule(&self, id: TaskId) -> bool {
        let Some(slot) = self.tasks.read().get(&id).map(Arc::clone) else {
            return false;
        };
        if slot.queued.swap(true, Ordering::AcqRel) {
            return true;
        }
        let worker = self.queue_for(id);
        self.queues[worker].queue.lock().push_back(id);
        // Publish the new work, then wake one idle worker — but only if
        // one is (or is about to be) parked; under load every worker is
        // busy and the hot path stays lock-free. The SeqCst pair with the
        // worker's park protocol (bump `parked`, then re-check `work_seq`
        // under `idle_lock`) guarantees that either the parking worker
        // sees this bumped sequence and aborts the park, or this reader
        // sees `parked > 0` and takes the lock to notify.
        self.work_seq.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.idle_lock.lock();
            self.idle_cond.notify_one();
        }
        true
    }

    fn pop_own(&self, worker: usize) -> Option<TaskId> {
        self.queues[worker].queue.lock().pop_front()
    }

    fn scavenge(&self, worker: usize) -> Option<TaskId> {
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(id) = self.queues[victim].queue.lock().pop_front() {
                RuntimeMetrics::add(&self.metrics.tasks_scavenged, 1);
                return Some(id);
            }
        }
        None
    }

    /// Runs `id` once, with a fresh timeslice, and schedules every task
    /// the run woke.
    fn run_one(&self, id: TaskId) {
        let Some(slot) = self.tasks.read().get(&id).map(Arc::clone) else {
            return;
        };
        slot.queued.store(false, Ordering::Release);
        let mut guard = slot.task.lock();
        let Some(task) = guard.as_mut() else {
            return;
        };
        RuntimeMetrics::add(&self.metrics.task_runs, 1);
        self.runs.fetch_add(1, Ordering::Relaxed);
        let mut ctx = TaskContext::new(id, self.timeslice, Arc::clone(&self.metrics));
        let status = task.run(&mut ctx);
        if status == TaskStatus::Finished {
            // Dropped here, so a worker that took the slot before the exit
            // below removes it finds no task to run a second time.
            guard.take();
        }
        drop(guard);
        if ctx.input_ended {
            slot.end_input();
        }
        for wake in ctx.take_wakes() {
            self.schedule(wake);
        }
        match status {
            TaskStatus::Runnable => {
                self.schedule(id);
            }
            TaskStatus::Idle => {}
            TaskStatus::Finished => {
                self.exit(id);
                // Dropping the task may have dropped what it held (a
                // message whose body still streams): wake whom that told.
                for wake in crate::task::take_deferred_wakes() {
                    self.schedule(wake);
                }
            }
        }
    }

    /// Takes `id` out of the task map and counts it out of its graph. Only
    /// the caller that removed the slot counts, so a task that finishes
    /// while its graph's teardown removes it is counted once.
    fn exit(&self, id: TaskId) {
        if let Some(slot) = self.tasks.write().remove(&id) {
            slot.end_input();
            if let Some(graph) = &slot.graph {
                graph.count_out();
            }
        }
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Snapshot the work sequence *before* scanning so a schedule
            // that races the scan is caught by the re-check below.
            let seq = self.work_seq.load(Ordering::Acquire);
            if let Some(id) = self.pop_own(worker).or_else(|| self.scavenge(worker)) {
                self.run_one(id);
                continue;
            }
            if let Some(group) = &self.group {
                if group.steal_one(self) {
                    continue;
                }
            }
            // Nothing local, nothing stealable: park. The short timeout is
            // only the cross-shard steal heartbeat — local work arrival
            // always wakes an idle worker through `schedule`. The park
            // commitment (`parked` increment) must precede the final
            // sequence re-check; see the SeqCst pairing note on `parked`.
            let mut guard = self.idle_lock.lock();
            self.parked.fetch_add(1, Ordering::SeqCst);
            if self.work_seq.load(Ordering::SeqCst) == seq && !self.shutdown.load(Ordering::Acquire)
            {
                self.idle_cond
                    .wait_for(&mut guard, Duration::from_millis(1));
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The cross-shard work-stealing path.
///
/// A [`StealGroup`] is a set of sibling schedulers (one per shard) whose
/// idle workers pull runnable tasks from each other's queues. It is the
/// only thing that moves work between shards: a task graph runs on the
/// shard that accepted its connections, and stealing absorbs the skew
/// that the accept spread leaves.
///
/// The safety guard: a stolen task is executed via the **owning** shard's
/// [`SchedulerInner`] (`run_one` on the victim), so the task slot, the
/// follow-on wakes of its [`TaskContext`], and its exit's count in its
/// graph's record all stay in the owning shard. Waker registrations that
/// the owning shard's dispatcher installed in its poller therefore remain
/// valid — the thief only donates CPU, it never migrates state.
pub mod steal {
    use super::*;
    use std::sync::Weak;

    /// A set of sibling schedulers that steal runnable tasks from each
    /// other when idle.
    pub struct StealGroup {
        members: RwLock<Vec<Weak<SchedulerInner>>>,
    }

    impl Default for StealGroup {
        fn default() -> Self {
            StealGroup {
                members: RwLock::new(Vec::new()),
            }
        }
    }

    impl std::fmt::Debug for StealGroup {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("StealGroup")
                .field("members", &self.members.read().len())
                .finish()
        }
    }

    impl StealGroup {
        /// Creates an empty group; pass it to
        /// [`Scheduler::start_sharded`][super::Scheduler::start_sharded]
        /// for every shard that should share work.
        pub fn new() -> Arc<Self> {
            Arc::new(StealGroup::default())
        }

        pub(super) fn join(&self, inner: &Arc<SchedulerInner>) {
            self.members.write().push(Arc::downgrade(inner));
        }

        /// Number of live member schedulers.
        pub fn len(&self) -> usize {
            self.members
                .read()
                .iter()
                .filter(|w| w.strong_count() > 0)
                .count()
        }

        /// `true` if no scheduler has joined (or all have been dropped).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Steals and executes one runnable task from a sibling of
        /// `thief`. Returns `true` if a task was run.
        ///
        /// Victim selection rotates with the thief's shard id so shard 0
        /// is not systematically farmed first.
        pub(super) fn steal_one(&self, thief: &SchedulerInner) -> bool {
            let victims: Vec<Arc<SchedulerInner>> = {
                let members = self.members.read();
                members.iter().filter_map(Weak::upgrade).collect()
            };
            let n = victims.len();
            if n < 2 {
                return false;
            }
            for offset in 0..n {
                let victim = &victims[(thief.shard + 1 + offset) % n];
                if std::ptr::eq(Arc::as_ptr(victim), thief as *const SchedulerInner) {
                    continue;
                }
                if victim.shutdown.load(Ordering::Acquire) {
                    continue;
                }
                for q in &victim.queues {
                    let popped = q.queue.lock().pop_front();
                    if let Some(id) = popped {
                        victim.stolen_out.fetch_add(1, Ordering::Relaxed);
                        thief.stolen_in.fetch_add(1, Ordering::Relaxed);
                        RuntimeMetrics::add(&thief.metrics.tasks_stolen, 1);
                        // Run through the *owning* scheduler: wakes and
                        // the exit count stay in the owning shard.
                        victim.run_one(id);
                        return true;
                    }
                }
            }
            false
        }
    }
}

/// The worker-thread pool executing task graphs.
pub struct Scheduler {
    inner: Arc<SchedulerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers.len())
            .field("tasks", &self.task_count())
            .finish()
    }
}

impl Scheduler {
    /// Starts a scheduler with `workers` worker threads whose task
    /// dispatches may each run for `timeslice`.
    ///
    /// The paper sets the number of workers to the number of CPU cores; the
    /// benchmark harness passes the core count being evaluated.
    pub fn start(workers: usize, timeslice: Duration, metrics: Arc<RuntimeMetrics>) -> Self {
        Self::start_inner(workers, timeslice, metrics, None, 0)
    }

    /// Starts the scheduler of shard `shard` and joins it to `group`:
    /// whenever this scheduler's workers find no local work they steal
    /// runnable tasks from the group's other members (and vice versa).
    ///
    /// Stolen tasks are executed through the owning scheduler's state, so
    /// their queues, exit counts and poller registrations stay with the
    /// owning shard; see [`steal`].
    pub fn start_sharded(
        workers: usize,
        timeslice: Duration,
        metrics: Arc<RuntimeMetrics>,
        group: &Arc<StealGroup>,
        shard: usize,
    ) -> Self {
        Self::start_inner(workers, timeslice, metrics, Some(Arc::clone(group)), shard)
    }

    fn start_inner(
        workers: usize,
        timeslice: Duration,
        metrics: Arc<RuntimeMetrics>,
        group: Option<Arc<StealGroup>>,
        shard: usize,
    ) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(SchedulerInner {
            queues: (0..workers)
                .map(|_| WorkerQueue {
                    queue: Mutex::new(VecDeque::new()),
                })
                .collect(),
            tasks: RwLock::new(HashMap::new()),
            timeslice,
            metrics,
            shutdown: AtomicBool::new(false),
            shard,
            group,
            work_seq: AtomicU64::new(0),
            idle_lock: Mutex::new(()),
            idle_cond: Condvar::new(),
            parked: AtomicUsize::new(0),
            runs: AtomicU64::new(0),
            stolen_out: AtomicU64::new(0),
            stolen_in: AtomicU64::new(0),
        });
        if let Some(group) = &inner.group {
            group.join(&inner);
        }
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("flick-worker-{shard}-{i}"))
                    .spawn(move || inner.worker_loop(i))
                    .expect("spawning a worker thread")
            })
            .collect();
        Scheduler {
            inner,
            workers: handles,
        }
    }

    /// The shard this scheduler serves (0 outside sharded platforms).
    pub fn shard(&self) -> usize {
        self.inner.shard
    }

    /// A point-in-time snapshot of the run and steal counters, as
    /// consumed by the fig5 per-shard utilization report. Reads atomics
    /// only; no queue is locked.
    pub fn load(&self) -> ShardLoad {
        ShardLoad {
            shard: self.inner.shard,
            runs: self.inner.runs.load(Ordering::Relaxed),
            stolen_out: self.inner.stolen_out.load(Ordering::Relaxed),
            stolen_in: self.inner.stolen_in.load(Ordering::Relaxed),
        }
    }

    /// The shared runtime metrics.
    pub fn metrics(&self) -> Arc<RuntimeMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Registers a task without scheduling it.
    pub fn register(&self, id: TaskId, task: Box<dyn Task>) {
        self.inner
            .tasks
            .write()
            .insert(id, TaskSlot::new(task, None, false));
    }

    /// Registers every task of a graph without scheduling any, under one
    /// lifecycle record that posts `token` to `poller` when the input of
    /// the last of `clients` ends and when the last task exits. The record
    /// exists before any of the tasks can run, so no exit goes uncounted.
    pub(crate) fn register_graph(
        &self,
        tasks: Vec<(TaskId, Box<dyn Task>)>,
        clients: &[TaskId],
        poller: Poller,
        token: Token,
    ) -> Arc<GraphLife> {
        RuntimeMetrics::add(&self.inner.metrics.graphs_created, 1);
        let graph = Arc::new(GraphLife {
            tasks: AtomicUsize::new(tasks.len()),
            clients: AtomicUsize::new(clients.len().max(1)),
            poller,
            token,
        });
        let mut map = self.inner.tasks.write();
        for (id, task) in tasks {
            let reading = clients.is_empty() || clients.contains(&id);
            map.insert(id, TaskSlot::new(task, Some(Arc::clone(&graph)), reading));
        }
        drop(map);
        graph
    }

    /// Makes a task runnable (it will be dispatched by its worker).
    /// Returns `false` if the task is not registered (already finished).
    pub fn schedule(&self, id: TaskId) -> bool {
        self.inner.schedule(id)
    }

    /// Number of currently registered tasks.
    pub fn task_count(&self) -> usize {
        self.inner.tasks.read().len()
    }

    /// Removes a task outright (used when tearing down a graph whose
    /// connection vanished); it counts as the task's exit.
    pub fn remove(&self, id: TaskId) {
        self.inner.exit(id);
    }

    /// Blocks until every registered task has finished or the timeout
    /// elapses. Returns `true` if the scheduler drained completely.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.task_count() == 0 {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        self.task_count() == 0
    }

    /// Stops the worker threads. Registered tasks are dropped.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.inner.idle_lock.lock();
            self.inner.idle_cond.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelConsumer, ChannelProducer, TaskChannel};
    use crate::graph::{GraphBuilder, TaskIdAllocator};
    use crate::task::{NO_DEADLINE, TIMESLICE};
    use crate::tasks::SyntheticWorkTask;
    use crate::value::Value;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_a_single_task_to_completion() {
        let metrics = RuntimeMetrics::new_shared();
        let scheduler = Scheduler::start(2, TIMESLICE, Arc::clone(&metrics));
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let id = TaskId(1);
        scheduler.register(
            id,
            Box::new(SyntheticWorkTask::new(
                "t",
                50,
                256,
                Some(Box::new(move || done2.store(true, Ordering::SeqCst))),
            )),
        );
        scheduler.schedule(id);
        assert!(scheduler.wait_idle(Duration::from_secs(5)));
        assert!(done.load(Ordering::SeqCst));
        assert!(RuntimeMetrics::get(&metrics.task_runs) >= 1);
    }

    /// Pushes `remaining` values into `output`, parking while it is full,
    /// then closes it.
    struct Source {
        remaining: usize,
        output: ChannelProducer,
    }
    impl Task for Source {
        fn label(&self) -> &str {
            "source"
        }
        fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
            while self.remaining > 0 {
                if self.output.push_or_park(Value::Int(1), ctx).is_err() {
                    return TaskStatus::Idle;
                }
                ctx.wake(self.output.consumer());
                self.remaining -= 1;
                if !ctx.can_continue() {
                    return TaskStatus::Runnable;
                }
            }
            self.output.close();
            ctx.wake(self.output.consumer());
            TaskStatus::Finished
        }
    }

    /// Counts the values that flow into it until its source closes.
    struct Counter {
        input: ChannelConsumer,
        seen: Arc<AtomicUsize>,
    }
    impl Task for Counter {
        fn label(&self) -> &str {
            "count"
        }
        fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
            while self.input.pop(ctx).is_some() {
                self.seen.fetch_add(1, Ordering::Relaxed);
                if !ctx.can_continue() {
                    return TaskStatus::Runnable;
                }
            }
            if self.input.is_finished() {
                TaskStatus::Finished
            } else {
                TaskStatus::Idle
            }
        }
    }

    /// A producer and its consumer across workers, through a channel small
    /// enough that the producer parks on it and the consumer's pops wake it.
    #[test]
    fn source_feeds_compute_across_workers() {
        let metrics = RuntimeMetrics::new_shared();
        let scheduler = Scheduler::start(4, TIMESLICE, Arc::clone(&metrics));
        let alloc = TaskIdAllocator::new();
        let mut builder = GraphBuilder::new("pipeline", &alloc);
        let source_node = builder.declare_node();
        let compute_node = builder.declare_node();
        let (tx, rx) = TaskChannel::bounded(16, compute_node.task_id());
        let seen = Arc::new(AtomicUsize::new(0));
        let source = Source {
            remaining: 500,
            output: tx,
        };
        builder.install(source_node, Box::new(source));
        let counter = Counter {
            input: rx,
            seen: Arc::clone(&seen),
        };
        builder.install(compute_node, Box::new(counter));
        let built = builder.build();
        scheduler.register_graph(built.tasks, &built.client_tasks, Poller::new(), Token(0));
        scheduler.schedule(source_node.task_id());
        assert!(
            scheduler.wait_idle(Duration::from_secs(10)),
            "graph should drain"
        );
        assert_eq!(seen.load(Ordering::Relaxed), 500);
        assert_eq!(RuntimeMetrics::get(&metrics.graphs_created), 1);
    }

    #[test]
    fn many_tasks_complete_under_all_policies() {
        for timeslice in [TIMESLICE, NO_DEADLINE, Duration::ZERO] {
            let metrics = RuntimeMetrics::new_shared();
            let scheduler = Scheduler::start(4, timeslice, metrics);
            let completed = Arc::new(AtomicUsize::new(0));
            for i in 0..40 {
                let completed = Arc::clone(&completed);
                let id = TaskId(100 + i);
                scheduler.register(
                    id,
                    Box::new(SyntheticWorkTask::new(
                        format!("t{i}"),
                        20,
                        512,
                        Some(Box::new(move || {
                            completed.fetch_add(1, Ordering::SeqCst);
                        })),
                    )),
                );
                scheduler.schedule(id);
            }
            assert!(
                scheduler.wait_idle(Duration::from_secs(10)),
                "timeslice {timeslice:?} stalled"
            );
            assert_eq!(
                completed.load(Ordering::SeqCst),
                40,
                "timeslice {timeslice:?}"
            );
        }
    }

    #[test]
    fn scheduling_unknown_task_is_harmless() {
        let scheduler = Scheduler::start(1, TIMESLICE, RuntimeMetrics::new_shared());
        assert!(!scheduler.schedule(TaskId(999)), "reports the miss");
        assert_eq!(scheduler.task_count(), 0);
    }

    #[test]
    fn remove_discards_a_registered_task() {
        let scheduler = Scheduler::start(1, TIMESLICE, RuntimeMetrics::new_shared());
        scheduler.register(TaskId(7), Box::new(SyntheticWorkTask::new("t", 1, 1, None)));
        assert_eq!(scheduler.task_count(), 1);
        scheduler.remove(TaskId(7));
        assert_eq!(scheduler.task_count(), 0);
        assert!(!scheduler.schedule(TaskId(7)), "a removed task is a miss");
    }

    const GRAPH_TOKEN: Token = Token(1 << 63);

    fn quick_task() -> Box<dyn Task> {
        Box::new(SyntheticWorkTask::new("t", 1, 1, None))
    }

    /// The tokens `poller` delivers within `timeout`.
    fn posted(poller: &Poller, timeout: Duration) -> Vec<Token> {
        poller
            .wait(timeout)
            .iter()
            .map(|event| event.token)
            .collect()
    }

    /// Polls `done` until it holds, failing after ten seconds.
    fn await_true(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    /// A two-client graph posts its token exactly twice: once its second
    /// client task has exited (not its first), and once its last task has.
    #[test]
    fn a_graph_posts_after_its_last_client_and_its_last_task() {
        let scheduler = Scheduler::start(2, TIMESLICE, RuntimeMetrics::new_shared());
        let poller = Poller::new();
        let (a, b, c) = (TaskId(1), TaskId(2), TaskId(3));
        let graph = scheduler.register_graph(
            vec![(a, quick_task()), (b, quick_task()), (c, quick_task())],
            &[a, b],
            poller.clone(),
            GRAPH_TOKEN,
        );
        assert_eq!((graph.clients_left(), graph.tasks_left()), (2, 3));

        scheduler.schedule(a);
        await_true("the first client never exited", || graph.tasks_left() == 2);
        assert_eq!(graph.clients_left(), 1);
        let quiet = Duration::from_millis(20);
        assert!(posted(&poller, quiet).is_empty(), "one client is left");

        scheduler.schedule(b);
        assert_eq!(posted(&poller, Duration::from_secs(5)), [GRAPH_TOKEN]);
        assert_eq!((graph.clients_left(), graph.tasks_left()), (0, 1));

        scheduler.schedule(c);
        assert_eq!(posted(&poller, Duration::from_secs(5)), [GRAPH_TOKEN]);
        assert_eq!(graph.tasks_left(), 0);
        assert!(posted(&poller, quiet).is_empty(), "at most two posts");
    }

    /// Teardown's removals count each task out once: removing a task
    /// twice, or scheduling it after, counts nothing more, and the posts
    /// stop once every task is gone.
    #[test]
    fn removal_counts_each_task_out_once() {
        let scheduler = Scheduler::start(1, TIMESLICE, RuntimeMetrics::new_shared());
        let poller = Poller::new();
        let (a, b, c) = (TaskId(1), TaskId(2), TaskId(3));
        let graph = scheduler.register_graph(
            vec![(a, quick_task()), (b, quick_task()), (c, quick_task())],
            &[a, b],
            poller.clone(),
            GRAPH_TOKEN,
        );
        scheduler.remove(a);
        scheduler.remove(a);
        assert!(!scheduler.schedule(a));
        assert_eq!((graph.clients_left(), graph.tasks_left()), (1, 2));
        let quiet = Duration::from_millis(20);
        assert!(posted(&poller, quiet).is_empty());

        for id in [b, c, b, c] {
            scheduler.remove(id);
        }
        assert_eq!((graph.clients_left(), graph.tasks_left()), (0, 0));
        assert_eq!(
            posted(&poller, quiet),
            [GRAPH_TOKEN],
            "the two posts coalesce"
        );
        assert!(posted(&poller, quiet).is_empty());
    }

    /// A graph with no client task starts its drain on its first exit.
    #[test]
    fn a_graph_without_clients_drains_on_its_first_exit() {
        let scheduler = Scheduler::start(1, TIMESLICE, RuntimeMetrics::new_shared());
        let poller = Poller::new();
        let (a, b) = (TaskId(1), TaskId(2));
        let graph = scheduler.register_graph(
            vec![(a, quick_task()), (b, quick_task())],
            &[],
            poller.clone(),
            GRAPH_TOKEN,
        );
        scheduler.remove(a);
        assert_eq!((graph.clients_left(), graph.tasks_left()), (0, 1));
        assert_eq!(posted(&poller, Duration::from_millis(20)), [GRAPH_TOKEN]);
        scheduler.remove(b);
        assert_eq!((graph.clients_left(), graph.tasks_left()), (0, 0));
        assert_eq!(posted(&poller, Duration::from_millis(20)), [GRAPH_TOKEN]);
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_workers() {
        let mut scheduler = Scheduler::start(3, TIMESLICE, RuntimeMetrics::new_shared());
        scheduler.shutdown();
        scheduler.shutdown();
        assert_eq!(scheduler.task_count(), 0);
    }

    /// A task whose `run` blocks until `release` is signalled: used to pin
    /// one worker deterministically while other workers must scavenge or
    /// steal the remaining queued work. Because the gate task itself may be
    /// scavenged or stolen, `entered` reports the `(shard, worker)` that
    /// actually entered it (parsed from the worker thread's name), so the
    /// test can aim its burst at the pinned worker's queue.
    type EnteredGate = Arc<(Mutex<Option<(usize, usize)>>, Condvar)>;
    type ReleaseGate = Arc<(Mutex<bool>, Condvar)>;

    struct GateTask {
        entered: EnteredGate,
        release: ReleaseGate,
    }

    impl GateTask {
        fn new() -> (Self, EnteredGate, ReleaseGate) {
            let entered = Arc::new((Mutex::new(None), Condvar::new()));
            let release = Arc::new((Mutex::new(false), Condvar::new()));
            (
                GateTask {
                    entered: Arc::clone(&entered),
                    release: Arc::clone(&release),
                },
                entered,
                release,
            )
        }

        fn release(gate: &ReleaseGate) {
            let mut flag = gate.0.lock();
            *flag = true;
            gate.1.notify_all();
        }

        /// Blocks until the gate task is running; returns the
        /// `(shard, worker)` whose thread entered it.
        fn await_entered(gate: &EnteredGate) -> (usize, usize) {
            let mut slot = gate.0.lock();
            while slot.is_none() {
                gate.1.wait_for(&mut slot, Duration::from_secs(10));
            }
            slot.expect("checked above")
        }
    }

    impl crate::task::Task for GateTask {
        fn label(&self) -> &str {
            "gate"
        }

        fn run(&mut self, _ctx: &mut TaskContext) -> TaskStatus {
            // Worker threads are named `flick-worker-{shard}-{worker}`.
            let position = std::thread::current().name().and_then(|name| {
                let mut parts = name.rsplitn(3, '-');
                let worker = parts.next()?.parse().ok()?;
                let shard = parts.next()?.parse().ok()?;
                Some((shard, worker))
            });
            {
                let mut slot = self.entered.0.lock();
                *slot = Some(position.expect("worker thread name parses"));
                self.entered.1.notify_all();
            }
            let mut flag = self.release.0.lock();
            while !*flag {
                self.release.1.wait_for(&mut flag, Duration::from_secs(10));
            }
            TaskStatus::Finished
        }
    }

    /// Task ids whose queue hash lands on worker queue `target` of an
    /// `n`-queue scheduler (the same multiplicative hash `queue_for` uses).
    fn ids_hashed_to(target: usize, n: usize, count: usize, mut from: u64) -> Vec<TaskId> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let id = TaskId(from);
            from += 1;
            if (id.0.wrapping_mul(0x9e3779b97f4a7c15) >> 32) as usize % n == target {
                out.push(id);
            }
        }
        out
    }

    #[test]
    fn work_is_scavenged_when_one_queue_is_idle() {
        // Deterministic version of the old timing-dependent assertion: one
        // worker is pinned inside a gate task, and the burst is hashed to
        // *that* worker's queue. The only way the burst can complete while
        // the gate is held is for the free worker to scavenge the pinned
        // queue, so the metric must observe every burst task.
        let metrics = RuntimeMetrics::new_shared();
        let scheduler = Scheduler::start(2, Duration::ZERO, Arc::clone(&metrics));
        let (gate, entered, release) = GateTask::new();
        scheduler.register(TaskId(1), Box::new(gate));
        scheduler.schedule(TaskId(1));
        let (_, pinned_worker) = GateTask::await_entered(&entered);

        const BURST: usize = 16;
        let scavenged_before = RuntimeMetrics::get(&metrics.tasks_scavenged);
        let completed = Arc::new(AtomicUsize::new(0));
        let burst_ids = ids_hashed_to(pinned_worker, 2, BURST, 20_000);
        for (i, id) in burst_ids.iter().enumerate() {
            let completed = Arc::clone(&completed);
            scheduler.register(
                *id,
                Box::new(SyntheticWorkTask::new(
                    format!("t{i}"),
                    10,
                    256,
                    Some(Box::new(move || {
                        completed.fetch_add(1, Ordering::SeqCst);
                    })),
                )),
            );
            scheduler.schedule(*id);
        }
        // The burst drains while the pinned worker is still gated.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while completed.load(Ordering::SeqCst) < BURST {
            assert!(
                std::time::Instant::now() < deadline,
                "burst stalled with worker {pinned_worker} gated: {} of {BURST} done",
                completed.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        let scavenged = RuntimeMetrics::get(&metrics.tasks_scavenged) - scavenged_before;
        assert!(
            scavenged >= BURST as u64,
            "all {BURST} burst tasks must have been scavenged from queue \
             {pinned_worker}, saw {scavenged}"
        );
        GateTask::release(&release);
        assert!(scheduler.wait_idle(Duration::from_secs(10)));
    }

    /// Stealing, deterministically: shard 0 starts alone, so its only
    /// worker is the one that enters the gate, and the burst queued behind
    /// it can only run on the sibling started afterwards — every task of
    /// it, through the steal path, before the gate opens.
    #[test]
    fn idle_sibling_shard_steals_queued_tasks() {
        let metrics = RuntimeMetrics::new_shared();
        let group = StealGroup::new();
        let start = |shard| {
            Scheduler::start_sharded(1, Duration::ZERO, Arc::clone(&metrics), &group, shard)
        };
        let owner = start(0);
        let (gate, entered, release) = GateTask::new();
        owner.register(TaskId(1), Box::new(gate));
        owner.schedule(TaskId(1));
        assert_eq!(GateTask::await_entered(&entered), (0, 0));
        let thief = start(1);
        assert_eq!(group.len(), 2);

        // One item each: a task runs once, so it is stolen once.
        const BURST: usize = 12;
        let completed = Arc::new(AtomicUsize::new(0));
        for i in 0..BURST {
            let completed = Arc::clone(&completed);
            let id = TaskId(100 + i as u64);
            owner.register(
                id,
                Box::new(SyntheticWorkTask::new(
                    format!("t{i}"),
                    1,
                    256,
                    Some(Box::new(move || {
                        completed.fetch_add(1, Ordering::SeqCst);
                    })),
                )),
            );
            owner.schedule(id);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while completed.load(Ordering::SeqCst) < BURST {
            assert!(
                std::time::Instant::now() < deadline,
                "steal path stalled: {} of {BURST} done",
                completed.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        let (owner_load, thief_load) = (owner.load(), thief.load());
        let stolen = RuntimeMetrics::get(&metrics.tasks_stolen);
        // Open the gate before asserting: a failed assertion must not
        // leave the owner's worker parked in it while the test unwinds.
        GateTask::release(&release);
        assert!(owner.wait_idle(Duration::from_secs(10)));
        assert_eq!(thief_load.stolen_in, BURST as u64, "{thief_load:?}");
        assert_eq!(owner_load.stolen_out, BURST as u64, "{owner_load:?}");
        assert_eq!(stolen, BURST as u64);
        // Runs are attributed to the owning shard even when a thief ran
        // them: the burst, and the gate its own worker entered.
        assert_eq!(owner_load.runs, BURST as u64 + 1, "{owner_load:?}");
        assert_eq!(thief_load.runs, 0, "{thief_load:?}");
    }

    #[test]
    fn a_stolen_task_is_counted_out_in_its_owners_record() {
        let metrics = RuntimeMetrics::new_shared();
        let group = StealGroup::new();
        let shards = [
            Scheduler::start_sharded(1, Duration::ZERO, Arc::clone(&metrics), &group, 0),
            Scheduler::start_sharded(1, Duration::ZERO, Arc::clone(&metrics), &group, 1),
        ];
        let (gate, entered, release) = GateTask::new();
        shards[0].register(TaskId(1), Box::new(gate));
        shards[0].schedule(TaskId(1));
        let (pinned_shard, _) = GateTask::await_entered(&entered);
        let owner = &shards[pinned_shard];

        // The graph is registered in the pinned shard, so only the
        // sibling's steal path can run its task — and the exit must still
        // be counted in the record the owning shard's slot holds.
        let poller = Poller::new();
        let id = TaskId(42);
        let graph = owner.register_graph(
            vec![(id, Box::new(SyntheticWorkTask::new("t", 5, 64, None)))],
            &[id],
            poller.clone(),
            GRAPH_TOKEN,
        );
        owner.schedule(id);
        assert_eq!(posted(&poller, Duration::from_secs(10)), [GRAPH_TOKEN]);
        assert_eq!((graph.clients_left(), graph.tasks_left()), (0, 0));
        assert!(RuntimeMetrics::get(&metrics.tasks_stolen) >= 1);
        assert!(owner.load().stolen_out >= 1);
        GateTask::release(&release);
        assert!(owner.wait_idle(Duration::from_secs(10)));
    }
}
