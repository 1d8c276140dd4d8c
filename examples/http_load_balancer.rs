//! The HTTP load balancer use case: ten backend web servers behind the FLICK
//! middlebox, driven by a closed-loop client fleet.
//!
//! The platform runs sharded: one scheduler pool + dispatcher + poller per
//! shard, each shard accepting on its own listener and building the graphs
//! of the connections it accepted, idle shards stealing runnable tasks
//! across shard boundaries. The run report prints the
//! per-shard utilization and steal counters next to the throughput.
//!
//! Run with: `cargo run --example http_load_balancer`
//!
//! With `--tcp [addr]` (default `127.0.0.1:0`) the balancer runs the
//! **all-TCP path**: the front door is a real OS socket
//! (`Platform::deploy_tcp`), the ten back-ends and the client fleet are
//! the same programs on kernel sockets, and the balancer's backend pool
//! connects to them through the kernel — every hop of
//! `client → LB → backend` crosses real sockets, multiplexed by the same
//! per-shard pollers as the simulated substrate. The run prints a
//! curl-style smoke response before the load results.
//!
//! With `--hostile [ratio]` (default `0.1`) that fraction of the fleet's
//! requests is replaced by malformed frames (oversized, duplicate and
//! garbled `Content-Length` declarations). The strict bounded parser must
//! close each poisoned connection without answering, and the run report
//! shows the goodput the clean requests kept next to the malformed-close
//! count the platform recorded.

use flick::services::http::http_balancer;
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_workload::backends::start_http_backend;
use flick_workload::fabric::loopback;
use flick_workload::http::{fetch_http, run_http_load, HttpLoadConfig};
use flick_workload::Fabric;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tcp_addr = args
        .iter()
        .position(|a| a == "--tcp")
        .map(|i| args.get(i + 1).cloned().unwrap_or("127.0.0.1:0".into()));
    let hostile_ratio = args
        .iter()
        .position(|a| a == "--hostile")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.1)
        })
        .unwrap_or(0.0);

    let platform = Platform::new(PlatformConfig {
        workers: 4,
        shards: 2,
    });
    let net = platform.net();
    // Kernel clients and back-ends get a stack of their own, so the
    // platform's counters count only the platform.
    let fabric = match tcp_addr {
        Some(_) => Fabric::kernel(),
        None => Fabric::from(&net),
    };
    let backends: Vec<_> = (0..10)
        .map(|i| {
            let port = if fabric.is_kernel() { 0 } else { 8100 + i };
            start_http_backend(&fabric, port, &[b'x'; 137])
        })
        .collect();
    let ports = backends.iter().map(|b| b.port()).collect();
    let spec = ServiceSpec::new("http-lb", 8080, http_balancer());
    let service = match &tcp_addr {
        Some(addr) => {
            let addrs = backends.iter().map(|b| loopback(b.port()));
            let spec = spec.with_tcp_backends(addrs.collect());
            platform.deploy_tcp(spec, addr).expect("deploy over TCP")
        }
        None => platform.deploy(spec.with_backends(ports)).expect("deploy"),
    };
    if fabric.is_kernel() {
        println!(
            "all-TCP path: kernel clients -> http://127.0.0.1:{}/ -> 10 kernel back-ends",
            service.port()
        );
        // The curl-style smoke: one GET over the kernel's loopback.
        let response = fetch_http(&fabric, service.port(), "/smoke", Duration::from_secs(5))
            .expect("smoke request");
        let head = String::from_utf8_lossy(&response);
        println!("smoke: {}", head.lines().next().unwrap_or("<empty>"));
    }
    if hostile_ratio > 0.0 {
        println!(
            "hostile mode: {:.0}% of requests are malformed frames",
            hostile_ratio * 100.0
        );
    }
    let stats = run_http_load(
        &fabric,
        &HttpLoadConfig {
            port: service.port(),
            concurrency: 32,
            duration: Duration::from_secs(1),
            persistent: true,
            timeout: Duration::from_secs(5),
            hostile_ratio,
            ..Default::default()
        },
    );
    let served: Vec<u64> = backends.iter().map(|b| b.requests_served()).collect();
    println!(
        "completed {} requests in {:.2}s  ->  {:.0} req/s, mean latency {:.2} ms",
        stats.completed,
        stats.elapsed.as_secs_f64(),
        stats.requests_per_sec(),
        stats.latency.mean.as_secs_f64() * 1000.0
    );
    if stats.malformed_sent > 0 {
        let snap = match &fabric {
            Fabric::Sim(net) => net.stats().snapshot(),
            Fabric::Kernel(_) => platform.tcp_stack().stats().snapshot(),
        };
        println!(
            "hostile: {} malformed frames sent, {} malformed closes recorded",
            stats.malformed_sent, snap.malformed_closes
        );
    }
    println!("per-backend request counts (hash distribution): {served:?}");
    for status in platform.shard_status() {
        println!(
            "shard {}: {} graphs, {} task runs, stolen in/out {}/{}",
            status.shard,
            status.graphs_built,
            status.load.runs,
            status.load.stolen_in,
            status.load.stolen_out
        );
    }
}
