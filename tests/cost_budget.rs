//! Structural budgets per proxied request: how many task runs, socket
//! reads and writes, back-end checkouts and connections one request costs
//! the path-hashed HTTP balancer (`http_path_balancer`, two back-ends), on
//! kernel sockets and on the simulated network, for one keep-alive client
//! and for one client that opens a connection per request.
//!
//! These counts move only when code changes a path, not when the host is
//! busy, so each is pinned as a two-sided band (the budget ± 2 %): a change
//! that saves a run has to update its line here, as one that costs a run
//! does. A loaded host expires timeslices, and each expiry is one more
//! run, unless the re-run merges with the task's next wake: so task runs
//! must not fall below the band, and task runs net of `cooperative_yields`
//! must not rise above it.
//!
//! A measurement is 100 ms of warm-up (the keep-alive client opens both
//! back-end members there), then 400 ms of closed-loop requests; the
//! counters are read before and after the 400 ms and divided by the
//! requests completed in it. The platform is the repo benchmark's: two
//! workers on one shard. On kernel sockets the counters are the
//! service's own stack (the client connects through a stack of its own);
//! the simulated network counts every endpoint on it, so its reads and
//! writes include the client's and the back-ends'.

use flick::net_substrate::{Endpoint, NetError, SimNetwork, StackModel, StatsSnapshot, TcpStack};
use flick::runtime_crate::MetricsSnapshot;
use flick::services::http::http_path_balancer;
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_grammar::http::HttpCodec;
use flick_grammar::{ParseOutcome, WireCodec};
use flick_workload::backends::{start_http_backend, start_tcp_http_backend};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const WARM_UP: Duration = Duration::from_millis(100);
const WINDOW: Duration = Duration::from_millis(400);
const BODY: &[u8] = b"a budgeted response";
/// How far a measured count may stray from its budget, as a share of it.
const BAND: f64 = 0.02;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Transport {
    Kernel,
    Sim,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Client {
    KeepAlive,
    Closing,
}

/// Counts per completed request over the measured window.
#[derive(Clone, Copy, Debug)]
struct PerOp {
    ops: u64,
    task_runs: f64,
    yields: f64,
    reads: f64,
    writes: f64,
    checkouts: f64,
    connections: f64,
}

/// A deployed balancer and the way its clients connect to it.
struct Rig {
    platform: Platform,
    connect: Box<dyn Fn() -> Endpoint>,
    stats: Box<dyn Fn() -> StatsSnapshot>,
    // Dropped last: the service stops before its back-ends.
    _keep: Vec<Box<dyn std::any::Any>>,
}

fn rig(transport: Transport) -> Rig {
    let config = PlatformConfig {
        workers: 2,
        shards: 1,
    };
    let factory = http_path_balancer();
    match transport {
        Transport::Kernel => {
            let backends = [start_tcp_http_backend(BODY), start_tcp_http_backend(BODY)];
            let platform = Platform::new(config);
            let spec = ServiceSpec::new("lb", 0, factory)
                .with_tcp_backends(backends.iter().map(|b| b.addr().to_string()).collect());
            let service = platform
                .deploy_tcp(spec, "127.0.0.1:0")
                .expect("deploy on a loopback socket");
            let addr = format!("127.0.0.1:{}", service.port());
            let clients = TcpStack::new();
            let stack = platform.tcp_stack();
            Rig {
                platform,
                connect: Box::new(move || clients.connect(&addr).expect("connect")),
                stats: Box::new(move || stack.stats().snapshot()),
                _keep: vec![Box::new(service), Box::new(backends)],
            }
        }
        Transport::Sim => {
            let net = SimNetwork::new(StackModel::Free);
            let backends = [
                start_http_backend(&net, 8101, BODY),
                start_http_backend(&net, 8102, BODY),
            ];
            let platform = Platform::with_network(config, Arc::clone(&net));
            let service = platform
                .deploy(ServiceSpec::new("lb", 8100, factory).with_backends(vec![8101, 8102]))
                .expect("deploy on the simulated network");
            let clients = Arc::clone(&net);
            Rig {
                platform,
                connect: Box::new(move || clients.connect(8100).expect("connect")),
                stats: Box::new(move || net.stats().snapshot()),
                _keep: vec![Box::new(service), Box::new(backends)],
            }
        }
    }
}

/// Sends request `n` on `conn` and reads its whole response.
fn request(conn: &Endpoint, n: u64, closing: bool) {
    let connection = if closing { "close" } else { "keep-alive" };
    let request = format!("GET /r{n} HTTP/1.1\r\nHost: budget\r\nConnection: {connection}\r\n\r\n");
    conn.write_all(request.as_bytes()).expect("send a request");
    let codec = HttpCodec::new();
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.read_timeout(&mut chunk, Duration::from_secs(5)) {
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(NetError::WouldBlock) => continue,
            Err(err) => panic!("request {n}: no response ({err:?})"),
        }
        if let Ok(ParseOutcome::Complete { .. }) = codec.parse(&response, None) {
            return;
        }
    }
}

fn snapshot(rig: &Rig) -> (MetricsSnapshot, StatsSnapshot) {
    (rig.platform.metrics().snapshot(), (rig.stats)())
}

fn measure(transport: Transport, client: Client) -> PerOp {
    // One measurement at a time: the tests of this file run in parallel,
    // and a platform beside another one on a two-core host sees its
    // readiness events batch differently from one run to the next.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _alone = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let rig = rig(transport);
    let closing = client == Client::Closing;
    let mut kept: Option<Endpoint> = None;
    let mut next = 0u64;
    let mut one = |next: &mut u64| {
        *next += 1;
        if closing {
            let conn = (rig.connect)();
            request(&conn, *next, true);
            conn.close();
        } else {
            let conn = kept.get_or_insert_with(|| (rig.connect)());
            request(conn, *next, false);
        }
    };
    let warm = Instant::now() + WARM_UP;
    while Instant::now() < warm {
        one(&mut next);
    }
    let (r0, n0) = snapshot(&rig);
    let end = Instant::now() + WINDOW;
    let mut ops = 0u64;
    while Instant::now() < end {
        one(&mut next);
        ops += 1;
    }
    let (r1, n1) = snapshot(&rig);
    let per_op = |delta: u64| delta as f64 / ops as f64;
    PerOp {
        ops,
        task_runs: per_op(r1.task_runs - r0.task_runs),
        yields: per_op(r1.cooperative_yields - r0.cooperative_yields),
        reads: per_op(n1.read_calls - n0.read_calls),
        writes: per_op(n1.write_calls - n0.write_calls),
        checkouts: per_op(r1.backend_checkouts - r0.backend_checkouts),
        connections: per_op(n1.connections_opened - n0.connections_opened),
    }
}

/// The keep-alive measurements, shared with the transport law.
fn keep_alive(transport: Transport) -> PerOp {
    static KERNEL: OnceLock<PerOp> = OnceLock::new();
    static SIM: OnceLock<PerOp> = OnceLock::new();
    let cell = match transport {
        Transport::Kernel => &KERNEL,
        Transport::Sim => &SIM,
    };
    *cell.get_or_init(|| measure(transport, Client::KeepAlive))
}

/// What one request may cost.
struct Budget {
    task_runs: f64,
    /// The band of `task_runs`; every other count keeps [`BAND`].
    runs_band: f64,
    reads: f64,
    writes: f64,
    checkouts: f64,
    connections: f64,
}

fn assert_within(measured: PerOp, budget: Budget) {
    assert!(
        measured.ops >= 50,
        "too few requests to count: {measured:?}"
    );
    // Each count as (its least, its most): task runs with and without the
    // runs their yields added; every other count is exact.
    let exact = |count: f64| (count, count);
    let runs = (measured.task_runs - measured.yields, measured.task_runs);
    for (what, (least, most), want, band) in [
        ("task runs", runs, budget.task_runs, budget.runs_band),
        ("reads", exact(measured.reads), budget.reads, BAND),
        ("writes", exact(measured.writes), budget.writes, BAND),
        (
            "back-end checkouts",
            exact(measured.checkouts),
            budget.checkouts,
            BAND,
        ),
        (
            "connections opened",
            exact(measured.connections),
            budget.connections,
            BAND,
        ),
    ] {
        let (low, high) = (want * (1.0 - band), want * (1.0 + band));
        assert!(
            most >= low && least <= high,
            "{what} per request: {least:.3}..={most:.3}, budget {want} \
             (band {low:.3}..={high:.3}); {measured:?}"
        );
    }
}

#[test]
fn a_keep_alive_request_on_kernel_sockets() {
    assert_within(
        keep_alive(Transport::Kernel),
        Budget {
            task_runs: 2.0,
            runs_band: BAND,
            reads: 2.0,
            writes: 2.0,
            checkouts: 0.0,
            connections: 0.0,
        },
    );
}

#[test]
fn a_keep_alive_request_on_the_sim() {
    assert_within(
        keep_alive(Transport::Sim),
        Budget {
            task_runs: 2.0,
            runs_band: BAND,
            reads: 4.0,
            writes: 4.0,
            checkouts: 0.0,
            connections: 0.0,
        },
    );
}

#[test]
fn a_closing_request_on_kernel_sockets() {
    assert_within(
        measure(Transport::Kernel, Client::Closing),
        Budget {
            task_runs: 11.0,
            // Timing decides a few runs of a closing request on kernel
            // sockets: 10.7-11.0 per request in release, 11.2-11.3 in a
            // debug build, on two cores.
            runs_band: 0.04,
            reads: 2.0,
            writes: 2.0,
            checkouts: 1.0,
            connections: 1.0,
        },
    );
}

#[test]
fn a_closing_request_on_the_sim() {
    assert_within(
        measure(Transport::Sim, Client::Closing),
        Budget {
            task_runs: 11.9,
            runs_band: BAND,
            reads: 4.0,
            writes: 4.0,
            checkouts: 1.0,
            connections: 1.0,
        },
    );
}

/// Kernel minus sim task runs per keep-alive request: none. Each request
/// runs the client's input task and the back-end's, which write to the
/// other side themselves; a writer is woken only after a write met a full
/// socket, on the kernel (`EPOLLOUT` is armed on demand) as on the sim.
#[test]
fn kernel_and_sim_run_the_same_tasks_per_keep_alive_request() {
    let net = |transport| {
        let measured = keep_alive(transport);
        measured.task_runs - measured.yields
    };
    let difference = net(Transport::Kernel) - net(Transport::Sim);
    assert!(
        difference.abs() <= 0.1,
        "kernel minus sim task runs per request: {difference:.3}"
    );
}
