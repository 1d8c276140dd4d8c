//! The system under test, deployed the way the repository's README tells a
//! user to: FLICK source → `compile_source` → `Platform::deploy_tcp` with
//! `with_tcp_backends`, every hop a kernel loopback socket.
//!
//! This file and `probes.rs` are the only places that name `flick_*` items;
//! `README.md` lists them under "frozen surface".

use crate::procfs::SutCpu;
use flick_compiler::{compile_source, CompileOptions};
use flick_net::StatsSnapshot;
use flick_runtime::{
    DeployedService, GraphFactory, MetricsSnapshot, Platform, PlatformConfig, ServiceSpec,
};
use flick_services::hadoop::hadoop_aggregator;
use flick_services::http::HTTP_LB_FLICK_SOURCE;
use flick_services::StaticWebServerFactory;
use std::sync::Arc;

/// One shard, so the kernel's `SO_REUSEPORT` hash cannot make runs bimodal;
/// two workers, so scavenging between them is live. Only `workers` and
/// `shards` are named: the other fields are slated for deletion.
pub fn platform() -> Platform {
    Platform::new(PlatformConfig {
        workers: 2,
        shards: 1,
        ..Default::default()
    })
}

pub struct Sut {
    // Field order is drop order: the service stops before its platform.
    _service: DeployedService,
    platform: Platform,
    addr: String,
}

impl Sut {
    fn deploy(name: &str, factory: Arc<dyn GraphFactory>, backends: Vec<String>) -> Sut {
        let platform = platform();
        let service = platform
            .deploy_tcp(
                ServiceSpec::new(name, 0, factory).with_tcp_backends(backends),
                "127.0.0.1:0",
            )
            .expect("deploy the service on a loopback socket");
        let addr = format!("127.0.0.1:{}", service.port());
        Sut {
            _service: service,
            platform,
            addr,
        }
    }

    /// The compiled `HttpBalancer` (bytecode VM) in front of `backends`.
    pub fn http_balancer(backends: Vec<String>) -> Sut {
        let service = compile_source(
            HTTP_LB_FLICK_SOURCE,
            "HttpBalancer",
            &CompileOptions::default(),
        )
        .expect("the bundled balancer compiles");
        Sut::deploy("lb", service, backends)
    }

    /// The compiled Hadoop aggregator for `mappers` inbound connections per
    /// job, forwarding to the reducer at `reducer`.
    pub fn hadoop(mappers: usize, reducer: String) -> Sut {
        Sut::deploy("hadoop", hadoop_aggregator(mappers), vec![reducer])
    }

    /// The hand-built static web server: one hop, no back-end.
    pub fn static_web(body: &[u8]) -> Sut {
        Sut::deploy("web", StaticWebServerFactory::new(body), Vec::new())
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Public snapshot counters and thread CPU, read from outside.
    pub fn observe(&self) -> Observation {
        Observation {
            net: self.platform.tcp_stack().stats().snapshot(),
            runtime: self.platform.metrics().snapshot(),
            cpu: SutCpu::read(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Observation {
    pub net: StatsSnapshot,
    pub runtime: MetricsSnapshot,
    pub cpu: SutCpu,
}

/// Per-op layer ledger between two observations.
pub fn layer_metrics(
    before: &Observation,
    after: &Observation,
    ops: u64,
) -> Vec<(&'static str, f64)> {
    let per_op = |delta: u64| delta as f64 / ops.max(1) as f64;
    let us_per_op = |ns: u64| ns as f64 / 1e3 / ops.max(1) as f64;
    let (n0, n1) = (&before.net, &after.net);
    let (r0, r1) = (&before.runtime, &after.runtime);
    let cpu = after.cpu.since(&before.cpu);
    vec![
        (
            "net.read_calls_per_op",
            per_op(n1.read_calls - n0.read_calls),
        ),
        (
            "net.write_calls_per_op",
            per_op(n1.write_calls - n0.write_calls),
        ),
        (
            "net.vectored_writes_per_op",
            per_op(n1.vectored_writes - n0.vectored_writes),
        ),
        (
            "net.ingest_copied_bytes_per_op",
            per_op(n1.ingest_copied_bytes - n0.ingest_copied_bytes),
        ),
        (
            "net.conns_per_op",
            per_op(n1.connections_opened - n0.connections_opened),
        ),
        ("net.reactor_cpu_us_per_op", us_per_op(cpu.reactor_ns)),
        (
            "runtime.task_runs_per_op",
            per_op(r1.task_runs - r0.task_runs),
        ),
        (
            "runtime.values_per_op",
            per_op(r1.values_processed - r0.values_processed),
        ),
        (
            "runtime.scavenged_per_op",
            per_op(r1.tasks_scavenged - r0.tasks_scavenged),
        ),
        (
            "runtime.yields_per_op",
            per_op(r1.cooperative_yields - r0.cooperative_yields),
        ),
        (
            "runtime.graphs_per_op",
            per_op(r1.graphs_created - r0.graphs_created),
        ),
        (
            "runtime.backend_checkouts_per_op",
            per_op(r1.backend_checkouts - r0.backend_checkouts),
        ),
        (
            "runtime.backend_retries_per_op",
            per_op(r1.backend_retries - r0.backend_retries),
        ),
        ("runtime.worker_cpu_us_per_op", us_per_op(cpu.worker_ns)),
        ("runtime.dispatch_cpu_us_per_op", us_per_op(cpu.dispatch_ns)),
        (
            "grammar.msgs_in_per_op",
            per_op(r1.messages_in - r0.messages_in),
        ),
        ("sut_cpu_us_per_op", us_per_op(cpu.total_ns())),
    ]
}
