//! Criterion bench for Figure 4 (HTTP load balancer), persistent and
//! non-persistent connections at a fixed concurrency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flick_bench::{run_http_experiment, HttpPoint, HttpSystem};
use std::time::Duration;

fn bench_http_lb(c: &mut Criterion) {
    for persistent in [true, false] {
        let name = if persistent {
            "http_lb_persistent"
        } else {
            "http_lb_non_persistent"
        };
        let mut group = c.benchmark_group(name);
        for system in HttpSystem::all() {
            let params = HttpPoint {
                concurrency: 8,
                persistent,
                duration: Duration::from_millis(200),
                workers: 2,
                backends: 2,
                ..Default::default()
            };
            group.bench_with_input(
                BenchmarkId::from_parameter(system.label()),
                &system,
                |b, system| b.iter(|| run_http_experiment(*system, &params)),
            );
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_http_lb
}
criterion_main!(benches);
