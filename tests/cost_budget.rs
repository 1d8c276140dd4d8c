//! Structural budgets per proxied request: how many task runs, socket
//! reads and writes, back-end checkouts and connections one request costs
//! the path-hashed HTTP balancer (`http_path_balancer`, two back-ends), on
//! kernel sockets and on the simulated network, for one keep-alive client
//! and for one client that opens a connection per request. And the task
//! runs of one job through the Hadoop aggregator (`hadoop_aggregator(2)`),
//! whose two mapper connections fold and the last to end emits the
//! aggregate.
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
use flick::services::hadoop::hadoop_aggregator;
use flick::services::http::http_path_balancer;
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_grammar::http::HttpCodec;
use flick_grammar::{ParseOutcome, WireCodec};
use flick_workload::backends::{start_http_backend, start_sink_backend, start_tcp_http_backend};
use flick_workload::hadoop::{mapper_streams, run_tcp_hadoop_job, HadoopLoadConfig};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
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

/// One measurement at a time: the tests of this file run in parallel,
/// and a platform beside another one on a two-core host sees its
/// readiness events batch differently from one run to the next.
fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn measure(transport: Transport, client: Client) -> PerOp {
    let _alone = alone();
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
    for (what, (least, most), want) in [
        ("task runs", runs, budget.task_runs),
        ("reads", exact(measured.reads), budget.reads),
        ("writes", exact(measured.writes), budget.writes),
        (
            "back-end checkouts",
            exact(measured.checkouts),
            budget.checkouts,
        ),
        (
            "connections opened",
            exact(measured.connections),
            budget.connections,
        ),
    ] {
        let (low, high) = (want * (1.0 - BAND), want * (1.0 + BAND));
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
            reads: 4.0,
            writes: 4.0,
            checkouts: 0.0,
            connections: 0.0,
        },
    );
}

/// A closing request is three tasks, one per connection, and six runs:
/// the client's task runs for the request, for the client's hang-up, and
/// once its queue is closed; the opened back-end member's for the
/// response and at the drain, which its task finishes in; the unopened
/// member's once, at the drain. A registration posts only what is
/// already readable, and a hang-up is one event on both transports, so
/// no run depends on timing.
#[test]
fn a_closing_request_on_kernel_sockets() {
    assert_within(
        measure(Transport::Kernel, Client::Closing),
        Budget {
            task_runs: 6.0,
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
            task_runs: 6.0,
            reads: 4.0,
            writes: 4.0,
            checkouts: 1.0,
            connections: 1.0,
        },
    );
}

/// Kernel minus sim task runs per keep-alive request: none. Each request
/// runs the client's task and the back-end's, each reading its own
/// connection and writing to the other side itself; a writer is woken only
/// after a write met a full socket, on the kernel (`EPOLLOUT` is armed on
/// demand) as on the sim.
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

/// Jobs through the aggregator per measurement, after [`WARM_UP_JOBS`].
const JOBS: u64 = 40;
const WARM_UP_JOBS: u64 = 4;

/// Task runs per aggregator job, and the job's size.
#[derive(Clone, Copy, Debug)]
struct PerJob {
    records: u64,
    task_runs: f64,
    yields: f64,
}

/// The records of one mapper's stream (`key_len`, `value_len`, key, value).
fn records(mut stream: &[u8]) -> u64 {
    let mut count = 0;
    while stream.len() >= 8 {
        let len = |at: usize| u32::from_be_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
        stream = &stream[8 + len(0) + len(4)..];
        count += 1;
    }
    count
}

/// Runs [`JOBS`] jobs through `hadoop_aggregator(2)`, each two mappers
/// sending a fixed stream of `bytes_per_mapper` of wordcount records and
/// hanging up, and counts the task runs the service spent on them: a job
/// has ended when its graph is torn down, after the aggregate reached the
/// reducer.
fn fold_jobs(transport: Transport, bytes_per_mapper: usize) -> PerJob {
    let _alone = alone();
    let config = HadoopLoadConfig {
        mappers: 2,
        bytes_per_mapper,
        link_bits_per_sec: None,
        ..Default::default()
    };
    let streams = mapper_streams(&config);
    let platform_config = PlatformConfig {
        workers: 2,
        shards: 1,
    };
    let (platform, job, _keep): (Platform, Box<dyn Fn()>, Box<dyn std::any::Any>) = match transport
    {
        Transport::Kernel => {
            let reducer = std::net::TcpListener::bind("127.0.0.1:0").expect("a reducer port");
            let reducer_addr = reducer.local_addr().unwrap().to_string();
            std::thread::spawn(move || {
                for mut conn in reducer.incoming().flatten() {
                    std::thread::spawn(move || std::io::copy(&mut conn, &mut std::io::sink()));
                }
            });
            let platform = Platform::new(platform_config);
            let spec = ServiceSpec::new("hadoop", 0, hadoop_aggregator(2))
                .with_tcp_backends(vec![reducer_addr]);
            let service = platform
                .deploy_tcp(spec, "127.0.0.1:0")
                .expect("deploy on a loopback socket");
            let addr = format!("127.0.0.1:{}", service.port());
            let job = move || {
                let sent = run_tcp_hadoop_job(&addr, &streams);
                assert_eq!(sent.failed, 0, "every mapper sends its stream");
            };
            (platform, Box::new(job), Box::new(service))
        }
        Transport::Sim => {
            let net = SimNetwork::new(StackModel::Free);
            let reducer = start_sink_backend(&net, 8201);
            let platform = Platform::with_network(platform_config, Arc::clone(&net));
            let service = platform
                .deploy(
                    ServiceSpec::new("hadoop", 8200, hadoop_aggregator(2))
                        .with_backends(vec![8201]),
                )
                .expect("deploy on the simulated network");
            let job = move || {
                std::thread::scope(|scope| {
                    for stream in &streams {
                        let net = &net;
                        scope.spawn(move || {
                            let conn = net.connect(8200).expect("connect");
                            conn.write_all(stream).expect("send the stream");
                            conn.close();
                        });
                    }
                });
            };
            (platform, Box::new(job), Box::new((service, reducer)))
        }
    };
    let ended = |jobs: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while platform.metrics().snapshot().graphs_destroyed < jobs {
            assert!(Instant::now() < deadline, "job {jobs} never ended");
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    for done in 1..=WARM_UP_JOBS {
        job();
        ended(done);
    }
    let before = platform.metrics().snapshot();
    for done in WARM_UP_JOBS + 1..=WARM_UP_JOBS + JOBS {
        job();
        ended(done);
    }
    let after = platform.metrics().snapshot();
    let per_job = |delta: u64| delta as f64 / JOBS as f64;
    PerJob {
        records: mapper_streams(&config).iter().map(|s| records(s)).sum(),
        task_runs: per_job(after.task_runs - before.task_runs),
        yields: per_job(after.cooperative_yields - before.cooperative_yields),
    }
}

/// A small job: each mapper sends 512 bytes (29 records), which one run
/// of its connection's task parses.
const SMALL_JOB: usize = 512;
/// A large job: each mapper sends 16 KiB (915 records), which takes its
/// connection's task many timeslices (50 µs each) to parse and fold.
const LARGE_JOB: usize = 16 * 1024;

/// The aggregator's budgets, as upper bounds: no count here holds a ±5 %
/// band, because each mapper's task parses and folds until its timeslice
/// expires, so the host's speed decides how many runs a job takes. A job
/// is three tasks, one per connection: the two mappers' (read only) and
/// the reducer's (write only). Over 20
/// measurements of 40 jobs each (two cores), task runs net of yields per
/// small job spread 3.18-4.88 on the sim and 3.55-4.43 on kernel sockets
/// in release, 4.05-5.00 in a debug build (5.05-7.63 and 8.8-10.1 when a
/// compute task folded): two more runs per job break the bound. Per
/// record of a large job, raw task runs spread 0.025-0.044 on either
/// transport in release (45-81 runs per job, 41-77 of them yields) and
/// 0.12-0.19 in debug (0.047-0.078 and 0.16-0.23 before): a run per
/// record, or per channel batch, breaks it.
fn assert_fold_within(small: PerJob, large: PerJob) {
    let (per_job, per_record) = if cfg!(debug_assertions) {
        (6.0, 0.28)
    } else {
        (6.0, 0.065)
    };
    let net = small.task_runs - small.yields;
    assert!(
        net <= per_job,
        "task runs net of yields per small job: {net:.3}, at most {per_job}; {small:?}"
    );
    let runs = large.task_runs / large.records as f64;
    assert!(
        runs <= per_record,
        "task runs per record of a large job: {runs:.4}, at most {per_record}; {large:?}"
    );
}

#[test]
fn an_aggregator_job_on_kernel_sockets() {
    assert_fold_within(
        fold_jobs(Transport::Kernel, SMALL_JOB),
        fold_jobs(Transport::Kernel, LARGE_JOB),
    );
}

#[test]
fn an_aggregator_job_on_the_sim() {
    assert_fold_within(
        fold_jobs(Transport::Sim, SMALL_JOB),
        fold_jobs(Transport::Sim, LARGE_JOB),
    );
}
