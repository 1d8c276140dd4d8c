//! Criterion bench for Figure 7 (scheduling policies, each a timeslice)
//! plus the cooperative timeslice ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flick_bench::{run_sharing_experiment, SharingExperiment};
use flick_runtime::{NO_DEADLINE, TIMESLICE};
use std::time::Duration;

fn bench_scheduling(c: &mut Criterion) {
    let params = SharingExperiment {
        tasks_per_class: 10,
        items_per_task: 50,
        workers: 2,
    };
    let mut group = c.benchmark_group("scheduling_policies");
    for (label, timeslice) in [
        ("cooperative", TIMESLICE),
        ("non-cooperative", NO_DEADLINE),
        ("round-robin", Duration::ZERO),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &timeslice,
            |b, slice| b.iter(|| run_sharing_experiment(*slice, &params)),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("timeslice_ablation");
    for micros in [10u64, 100, 1000] {
        let timeslice = Duration::from_micros(micros);
        group.bench_with_input(
            BenchmarkId::from_parameter(micros),
            &timeslice,
            |b, slice| b.iter(|| run_sharing_experiment(*slice, &params)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_scheduling
}
criterion_main!(benches);
