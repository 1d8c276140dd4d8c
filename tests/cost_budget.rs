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
//! service's own stack (its clients and back-ends share one of their own);
//! the simulated network counts every endpoint on it, so its reads and
//! writes include the client's and the back-ends'.

use flick::net_substrate::{Endpoint, NetError, NetStats, StackModel, StatsSnapshot};
use flick::runtime_crate::MetricsSnapshot;
use flick::services::hadoop::hadoop_aggregator;
use flick::services::http::http_path_balancer;
use flick::ServiceSpec;
use flick_bench::{Target, Testbed};
use flick_grammar::http::HttpCodec;
use flick_grammar::{ParseOutcome, WireCodec};
use flick_workload::backends::{start_http_backend, start_sink_backend};
use flick_workload::hadoop::{mapper_streams, run_hadoop_job, HadoopLoadConfig};
use flick_workload::Fabric;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

const WARM_UP: Duration = Duration::from_millis(100);
const WINDOW: Duration = Duration::from_millis(400);
const BODY: &[u8] = b"a budgeted response";
/// How far a measured count may stray from its budget, as a share of it.
const BAND: f64 = 0.02;

/// Which of a testbed's fabrics a measurement runs on: [`Testbed::sim`]
/// or [`Testbed::kernel`].
type On = fn(&Testbed) -> Fabric;

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

/// The repo benchmark's platform (two workers on one shard), with `on`
/// its fabric.
fn testbed(on: On) -> (Testbed, Fabric) {
    let bed = Testbed::new(StackModel::Free, 2, 1);
    let fabric = on(&bed);
    (bed, fabric)
}

/// A deployed balancer, its clients' way in, and the counters of the
/// platform's sockets.
struct Rig {
    lb: Target,
    stats: Arc<NetStats>,
    bed: Testbed,
}

fn rig(on: On) -> Rig {
    let (mut bed, fabric) = testbed(on);
    let backends = bed.backends(&fabric, 2, 8101, |fabric, port| {
        start_http_backend(fabric, port, BODY)
    });
    let lb = bed.deploy(
        &fabric,
        ServiceSpec::new("lb", 8100, http_path_balancer()),
        backends,
    );
    Rig {
        lb,
        stats: bed.platform_stats(&fabric),
        bed,
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
    (
        rig.bed.platform().metrics().snapshot(),
        rig.stats.snapshot(),
    )
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

fn measure(on: On, client: Client) -> PerOp {
    let _alone = alone();
    let rig = rig(on);
    let connect = || rig.lb.fabric.connect(rig.lb.port).expect("connect");
    let closing = client == Client::Closing;
    let mut kept: Option<Endpoint> = None;
    let mut next = 0u64;
    let mut one = |next: &mut u64| {
        *next += 1;
        if closing {
            let conn = connect();
            request(&conn, *next, true);
            conn.close();
        } else {
            let conn = kept.get_or_insert_with(connect);
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

/// The keep-alive measurements on both fabrics, shared with the
/// transport law.
struct KeepAlive {
    kernel: PerOp,
    sim: PerOp,
}

fn keep_alive() -> &'static KeepAlive {
    static BOTH: OnceLock<KeepAlive> = OnceLock::new();
    BOTH.get_or_init(|| KeepAlive {
        kernel: measure(Testbed::kernel, Client::KeepAlive),
        sim: measure(Testbed::sim, Client::KeepAlive),
    })
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
        keep_alive().kernel,
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
        keep_alive().sim,
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
        measure(Testbed::kernel, Client::Closing),
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
        measure(Testbed::sim, Client::Closing),
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
    let net = |measured: PerOp| measured.task_runs - measured.yields;
    let difference = net(keep_alive().kernel) - net(keep_alive().sim);
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

/// Runs [`JOBS`] jobs through `hadoop_aggregator(2)`, each two mappers
/// sending a fixed stream of `bytes_per_mapper` of wordcount records and
/// hanging up, and counts the task runs the service spent on them: a job
/// has ended when its graph is torn down, after the aggregate reached the
/// reducer.
fn fold_jobs(on: On, bytes_per_mapper: usize) -> PerJob {
    let _alone = alone();
    let (mut bed, fabric) = testbed(on);
    let reducer = bed.backends(&fabric, 1, 8201, |fabric, port| {
        start_sink_backend(fabric, port).0
    });
    let aggregator = bed.deploy(
        &fabric,
        ServiceSpec::new("hadoop", 8200, hadoop_aggregator(2)),
        reducer,
    );
    let config = HadoopLoadConfig {
        port: aggregator.port,
        mappers: 2,
        bytes_per_mapper,
        link_bits_per_sec: None,
        ..Default::default()
    };
    let streams = mapper_streams(&config);
    let platform = bed.platform();
    let job = || {
        let sent = run_hadoop_job(&fabric, &config, &streams);
        assert_eq!(sent.failed, 0, "every mapper sends its stream");
        sent.completed
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
    let mut records = 0;
    for done in WARM_UP_JOBS + 1..=WARM_UP_JOBS + JOBS {
        records = job();
        ended(done);
    }
    let after = platform.metrics().snapshot();
    let per_job = |delta: u64| delta as f64 / JOBS as f64;
    PerJob {
        records,
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
        fold_jobs(Testbed::kernel, SMALL_JOB),
        fold_jobs(Testbed::kernel, LARGE_JOB),
    );
}

#[test]
fn an_aggregator_job_on_the_sim() {
    assert_fold_within(
        fold_jobs(Testbed::sim, SMALL_JOB),
        fold_jobs(Testbed::sim, LARGE_JOB),
    );
}
