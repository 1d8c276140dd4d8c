//! Criterion bench for the §6.3 static web-server experiment (one point per
//! system at a fixed concurrency).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flick_bench::{run_http_experiment, HttpPoint, HttpSystem};
use std::time::Duration;

fn bench_webserver(c: &mut Criterion) {
    let mut group = c.benchmark_group("webserver_throughput");
    group.sample_size(10);
    for system in HttpSystem::all() {
        let params = HttpPoint {
            concurrency: 8,
            duration: Duration::from_millis(200),
            workers: 2,
            backends: 0,
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_webserver
}
criterion_main!(benches);
