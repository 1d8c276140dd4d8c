//! Experiment runners, one per figure, each a shape stood up on the
//! [`Testbed`].

use crate::testbed::{HttpPoint, Testbed, BODY, HTTP_PORT};
use flick_net::listener::ConnectOptions;
use flick_net::StackModel;
use flick_runtime::scheduler::Scheduler;
use flick_runtime::task::TaskId;
use flick_runtime::tasks::SyntheticWorkTask;
use flick_runtime::RuntimeMetrics;
use flick_runtime::{GraphFactory, ServiceSpec, ShardStatus};
use flick_services::baselines::{ApacheLikeProxy, MoxiLikeProxy, NginxLikeProxy};
use flick_services::hadoop::hadoop_aggregator;
use flick_services::http::{http_balancer, StaticWebServerFactory, HTTP_LB_FLICK_SOURCE};
use flick_services::memcached::memcached_proxy;
use flick_workload::backends::{start_memcached_backend, start_sink_backend};
use flick_workload::hadoop::{
    mapper_streams, run_hadoop_job, run_hadoop_mappers, wait_for_quiescence, HadoopLoadConfig,
};
use flick_workload::http::{run_http_load, run_idle_active_load, HttpLoadConfig, IdleActiveConfig};
use flick_workload::memcached::{run_memcached_load, MemcachedLoadConfig};
use flick_workload::RunStats;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The systems compared in the HTTP experiments (Figure 4 and the web-server
/// results of §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpSystem {
    /// FLICK on the kernel-stack cost model.
    FlickKernel,
    /// FLICK on the mTCP/DPDK cost model.
    FlickMtcp,
    /// The Apache-like baseline.
    Apache,
    /// The Nginx-like baseline.
    Nginx,
}

impl HttpSystem {
    /// The label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            HttpSystem::FlickKernel => "FLICK",
            HttpSystem::FlickMtcp => "FLICK mTCP",
            HttpSystem::Apache => "Apache",
            HttpSystem::Nginx => "Nginx",
        }
    }

    /// All four systems.
    pub fn all() -> [HttpSystem; 4] {
        [
            HttpSystem::FlickKernel,
            HttpSystem::FlickMtcp,
            HttpSystem::Apache,
            HttpSystem::Nginx,
        ]
    }
}

/// The static web server of §6.3, answering every request with [`BODY`].
fn static_web() -> Arc<dyn GraphFactory> {
    StaticWebServerFactory::new(&BODY[..])
}

/// Runs one HTTP experiment point (Figure 4 when `backends > 0`, the static
/// web-server experiment when `backends == 0`).
pub fn run_http_experiment(system: HttpSystem, point: &HttpPoint) -> RunStats {
    let model = match system {
        HttpSystem::FlickMtcp => StackModel::Mtcp,
        _ => StackModel::Kernel,
    };
    let mut bed;
    let service = match system {
        HttpSystem::FlickKernel | HttpSystem::FlickMtcp => {
            bed = Testbed::new(model, point.workers, point.shards);
            let factory = if point.backends == 0 {
                static_web()
            } else {
                http_balancer()
            };
            bed.deploy_http(&bed.sim(), "http", factory, point.backends)
        }
        HttpSystem::Apache | HttpSystem::Nginx => {
            bed = Testbed::baseline(model);
            // In the static web-server experiment the baselines serve the
            // content themselves; here that is modelled by fronting one
            // local content server with the baseline's processing model.
            let ports = bed.http_backends(&bed.sim(), point.backends.max(1));
            let start = if system == HttpSystem::Apache {
                ApacheLikeProxy::start
            } else {
                NginxLikeProxy::start
            };
            bed.front_with(HTTP_PORT, |net, port| start(net, port, ports))
        }
    };
    bed.http_load(&service, point)
}

/// Result of the hostile-goodput experiment: the same FLICK kernel-stack
/// load balancer measured clean and then under a malformed-frame storm.
#[derive(Debug)]
pub struct HostileGoodputResult {
    /// The clean-traffic run.
    pub clean: RunStats,
    /// The run with `hostile_ratio` of the fleet's requests replaced by
    /// poison frames (goodput = its `completed` rate).
    pub hostile: RunStats,
    /// Malformed closes the platform recorded during the clean run (must
    /// be zero: clean traffic is never flagged).
    pub clean_malformed_closes: u64,
    /// Malformed closes the platform recorded over both runs.
    pub malformed_closes: u64,
}

/// Measures what a malformed-frame storm costs the FLICK load balancer:
/// the same platform and fleet shape runs once clean and once with
/// `hostile_ratio` of requests poisoned (oversized/duplicate/garbled
/// `Content-Length`). The bounded parser must shed each poison frame by
/// closing its connection, so goodput should track the clean rate minus
/// roughly the hostile share — a collapse means rejection has become
/// expensive (or, worse, poison is being answered).
pub fn run_hostile_goodput_experiment(
    point: &HttpPoint,
    hostile_ratio: f64,
) -> HostileGoodputResult {
    let mut bed = Testbed::new(StackModel::Kernel, point.workers, point.shards);
    let lb = bed.deploy_http(&bed.sim(), "lb", http_balancer(), point.backends.max(1));
    let malformed_closes = || bed.net().stats().snapshot().malformed_closes;
    let clean = bed.http_load(&lb, point);
    let clean_malformed_closes = malformed_closes();
    let hostile = run_http_load(
        &lb.fabric,
        &HttpLoadConfig {
            hostile_ratio,
            ..point.load(lb.port)
        },
    );
    HostileGoodputResult {
        clean,
        hostile,
        clean_malformed_closes,
        malformed_closes: malformed_closes(),
    }
}

/// The systems compared in the Memcached experiment (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemcachedSystem {
    /// FLICK on the kernel-stack cost model.
    FlickKernel,
    /// FLICK on the mTCP/DPDK cost model.
    FlickMtcp,
    /// The Moxi-like baseline.
    Moxi,
}

impl MemcachedSystem {
    /// The label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            MemcachedSystem::FlickKernel => "FLICK",
            MemcachedSystem::FlickMtcp => "FLICK mTCP",
            MemcachedSystem::Moxi => "Moxi",
        }
    }

    /// All three systems.
    pub fn all() -> [MemcachedSystem; 3] {
        [
            MemcachedSystem::FlickKernel,
            MemcachedSystem::FlickMtcp,
            MemcachedSystem::Moxi,
        ]
    }
}

/// Parameters of one Memcached experiment point (Figure 5).
#[derive(Debug, Clone)]
pub struct MemcachedExperiment {
    /// CPU cores (worker threads) given to the proxy.
    pub cores: usize,
    /// Shards of the FLICK platform (1 = the pre-sharding single-reactor
    /// runtime; ignored by the Moxi baseline).
    pub shards: usize,
    /// Concurrent clients (128 in the paper).
    pub clients: usize,
    /// Number of Memcached back-ends (10 in the paper).
    pub backends: usize,
    /// Measurement duration.
    pub duration: Duration,
}

impl Default for MemcachedExperiment {
    fn default() -> Self {
        MemcachedExperiment {
            cores: 4,
            shards: 1,
            clients: 32,
            backends: 4,
            duration: Duration::from_millis(800),
        }
    }
}

/// Runs one Memcached proxy experiment point.
pub fn run_memcached_experiment(system: MemcachedSystem, params: &MemcachedExperiment) -> RunStats {
    run_memcached_experiment_sharded(system, params).0
}

/// Runs one Memcached proxy experiment point and also returns the
/// platform's per-shard status after the run (empty for the Moxi
/// baseline, which has no shards). The status feeds the fig5 per-shard
/// utilization table.
pub fn run_memcached_experiment_sharded(
    system: MemcachedSystem,
    params: &MemcachedExperiment,
) -> (RunStats, Vec<ShardStatus>) {
    const SERVICE_PORT: u16 = 11211;
    let model = match system {
        MemcachedSystem::FlickMtcp => StackModel::Mtcp,
        _ => StackModel::Kernel,
    };
    let flick = system != MemcachedSystem::Moxi;
    let mut bed = if flick {
        Testbed::new(model, params.cores, params.shards.max(1))
    } else {
        Testbed::baseline(model)
    };
    let ports = bed.backends(&bed.sim(), params.backends, 11300, |fabric, port| {
        start_memcached_backend(fabric, port)
    });
    if flick {
        let spec = ServiceSpec::new("memcached", SERVICE_PORT, memcached_proxy());
        bed.deploy(&bed.sim(), spec, ports);
    } else {
        bed.front_with(SERVICE_PORT, |net, port| {
            MoxiLikeProxy::start(net, port, ports)
        });
    }

    let config = MemcachedLoadConfig {
        port: SERVICE_PORT,
        clients: params.clients,
        duration: params.duration,
        key_space: 1024,
        getk_fraction: 1.0,
        timeout: Duration::from_secs(5),
        seed: None,
    };
    let stats = run_memcached_load(bed.net(), &config);
    let status = if flick {
        bed.platform().shard_status()
    } else {
        Vec::new()
    };
    (stats, status)
}

/// Runs the sharding-on/off ablation: the same Memcached workload against
/// a single-shard platform and against each of `shard_counts`, reporting
/// aggregate throughput plus **per-shard** utilization (each shard's share
/// of task executions) and cross-shard steal counts — the per-shard rows
/// make accept imbalance visible instead of hiding it in an aggregate.
pub fn run_sharding_ablation(
    shard_counts: &[usize],
    duration: Duration,
) -> Vec<crate::report::Row> {
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let params = MemcachedExperiment {
            shards,
            clients: 48,
            duration,
            ..Default::default()
        };
        let (stats, status) =
            run_memcached_experiment_sharded(MemcachedSystem::FlickKernel, &params);
        rows.push(crate::report::Row::new(
            shards,
            "sharded",
            stats.requests_per_sec(),
            "req/s",
        ));
        let total_runs: u64 = status.iter().map(|s| s.load.runs).sum();
        for shard in &status {
            rows.push(crate::report::Row::new(
                shards,
                format!("shard{} util", shard.shard),
                100.0 * shard.load.runs as f64 / (total_runs.max(1)) as f64,
                "%",
            ));
        }
        let stolen: u64 = status.iter().map(|s| s.load.stolen_in).sum();
        rows.push(crate::report::Row::new(
            shards,
            "steals",
            stolen as f64,
            "tasks",
        ));
    }
    rows
}

/// Parameters of one Hadoop aggregation experiment point (Figure 6).
#[derive(Debug, Clone)]
pub struct HadoopExperiment {
    /// CPU cores (worker threads) for the aggregator.
    pub cores: usize,
    /// Word length (8, 12 or 16 characters in the paper).
    pub word_len: usize,
    /// Number of mapper connections (8 in the paper).
    pub mappers: usize,
    /// Bytes each mapper sends.
    pub bytes_per_mapper: usize,
    /// Per-mapper link rate (1 Gbps in the paper); `None` disables the cap.
    pub link_bits_per_sec: Option<u64>,
}

impl Default for HadoopExperiment {
    fn default() -> Self {
        HadoopExperiment {
            cores: 4,
            word_len: 8,
            mappers: 4,
            bytes_per_mapper: 512 * 1024,
            link_bits_per_sec: None,
        }
    }
}

/// Runs one Hadoop aggregation point and returns the end-to-end throughput
/// in megabits per second (mapper bytes over wall-clock time to drain).
pub fn run_hadoop_experiment(params: &HadoopExperiment) -> f64 {
    let reducer_port = 9801u16;
    let service_port = 9800u16;
    let mut bed = Testbed::new(StackModel::Kernel, params.cores, 0);
    let (_reducer, reducer_bytes) = start_sink_backend(bed.net(), reducer_port);
    let spec = ServiceSpec::new("hadoop", service_port, hadoop_aggregator(params.mappers));
    bed.deploy(&bed.sim(), spec, vec![reducer_port]);

    let config = HadoopLoadConfig {
        port: service_port,
        mappers: params.mappers,
        word_len: params.word_len,
        distinct_words: 128,
        bytes_per_mapper: params.bytes_per_mapper,
        link_bits_per_sec: params.link_bits_per_sec,
        seed: None,
    };
    let start = Instant::now();
    let stats = run_hadoop_mappers(bed.net(), &config);
    let _ = wait_for_quiescence(&reducer_bytes, Duration::from_secs(30));
    let elapsed = start.elapsed().as_secs_f64();
    stats.bytes as f64 * 8.0 / 1_000_000.0 / elapsed.max(1e-9)
}

/// The outcome of one e2e loopback experiment.
#[derive(Debug, Clone)]
pub struct TcpLoopbackResult {
    /// Stats of the real-socket run.
    pub tcp: RunStats,
    /// Stats of the simulated-substrate run (kernel cost model).
    pub sim: RunStats,
}

/// Runs the e2e loopback TCP point: the same static web service deployed
/// twice on one platform — once on a real OS socket (request → kernel
/// socket → event dispatcher → parse → task graph → reply) and once on the
/// simulated substrate with the calibrated kernel cost model — and driven
/// by the same closed-loop fleet on each. The pair yields a
/// machine-independent tcp-vs-sim ratio, gated by `bench_guard`: real
/// kernel sockets against the modelled kernel stack, same clients, same
/// dispatcher, same graphs, same worker budget. `point.shards` runs the
/// kernel path sharded (per-shard reactors + `SO_REUSEPORT` accept
/// sockets).
pub fn run_tcp_loopback_experiment(point: &HttpPoint) -> TcpLoopbackResult {
    let mut bed = Testbed::new(StackModel::Kernel, point.workers, point.shards);
    let tcp = bed.deploy_http(&bed.kernel(), "tcp-web", static_web(), 0);
    let sim = bed.deploy_http(&bed.sim(), "sim-web", static_web(), 0);
    TcpLoopbackResult {
        tcp: bed.http_load(&tcp, point),
        sim: bed.http_load(&sim, point),
    }
}

/// Reads this process's open-file limit (soft) from `/proc/self/limits`,
/// falling back to a conservative 1024 when the file is unreadable (e.g.
/// non-Linux hosts).
pub fn max_open_files() -> u64 {
    let Ok(limits) = std::fs::read_to_string("/proc/self/limits") else {
        return 1024;
    };
    limits
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .and_then(|line| line.split_whitespace().nth(3)?.parse().ok())
        .unwrap_or(1024)
}

/// The outcome of the c10k point.
#[derive(Debug, Clone)]
pub struct TcpC10kResult {
    /// Idle connections actually requested after fd clamping.
    pub idle_requested: usize,
    /// Idle connections established.
    pub idle_connected: usize,
    /// Idle connections still alive after the active run.
    pub idle_survivors: usize,
    /// The active closed loop's stats.
    pub active: RunStats,
    /// Zero-copy law: ingest copies charged on the kernel path.
    pub ingest_copies: u64,
    /// Writable-interest law: busy retries charged by output tasks.
    pub output_busy_retries: u64,
}

/// Runs the c10k idle+active point over real kernel sockets:
/// `idle_connections` idle connections pinned open against the event
/// dispatcher while the closed loop of `point` measures throughput. Each
/// idle connection costs two fds (client + accepted side) in this process,
/// so the requested count is clamped to `(fd_limit - 500) / 2` — the slack
/// covers the active loop, the reactor's own fds and everything else the
/// process holds open.
pub fn run_tcp_c10k_experiment(point: &HttpPoint, idle_connections: usize) -> TcpC10kResult {
    let fd_budget = (max_open_files().saturating_sub(500) / 2) as usize;
    let idle_requested = idle_connections.min(fd_budget.max(1));
    let mut bed = Testbed::new(StackModel::Kernel, point.workers, point.shards);
    let web = bed.deploy_http(&bed.kernel(), "c10k-web", static_web(), 0);
    let stats = run_idle_active_load(
        &web.fabric,
        &IdleActiveConfig {
            idle_connections: idle_requested,
            active: HttpLoadConfig {
                timeout: Duration::from_secs(10),
                ..point.load(web.port)
            },
        },
    );
    let tcp_stats = bed.platform().tcp_stack().stats().snapshot();
    let runtime = bed.platform().metrics().snapshot();
    TcpC10kResult {
        idle_requested,
        idle_connected: stats.idle_connected,
        idle_survivors: stats.idle_survivors,
        active: stats.active,
        ingest_copies: tcp_stats.ingest_copies,
        output_busy_retries: runtime.output_busy_retries,
    }
}

/// The outcome of one all-TCP load-balancer experiment.
#[derive(Debug, Clone)]
pub struct TcpLbResult {
    /// Stats of the all-TCP run (kernel client → LB → kernel backend).
    pub tcp: RunStats,
    /// Stats of the simulated twin.
    pub sim: RunStats,
    /// Requests each TCP back-end served (hash distribution sanity).
    pub backend_requests: Vec<u64>,
}

/// Runs the all-TCP load-balancer point for `balancer` (the
/// connection-sticky [`http_balancer`] or the path-hashed
/// [`flick_services::http::http_path_balancer`]): every hop of
/// `client → LB → backend` crosses a real kernel socket — the LB's front
/// door is `Platform::deploy_tcp`, its [`flick_runtime::BackendPool`]
/// holds TCP targets, and no byte of a request or response ever rides the
/// simulated fabric — plus the simulated twin (same LB graph, simulated
/// clients and back-ends on the kernel cost model, same platform) for the
/// within-run ratio gate in `bench_guard`.
pub fn run_tcp_lb_experiment(balancer: Arc<dyn GraphFactory>, point: &HttpPoint) -> TcpLbResult {
    let mut bed = Testbed::new(StackModel::Kernel, point.workers, point.shards);
    let lb = bed.deploy_http(&bed.kernel(), "tcp-lb", balancer.clone(), point.backends);
    let tcp = bed.http_load(&lb, point);
    let backend_requests = bed.backend_requests();
    let twin = bed.deploy_http(&bed.sim(), "sim-lb", balancer, point.backends);
    let sim = bed.http_load(&twin, point);
    TcpLbResult {
        tcp,
        sim,
        backend_requests,
    }
}

/// The outcome of one stalled-peer point.
#[derive(Debug, Clone)]
pub struct StalledPeersResult {
    /// Request statistics of the active clients.
    pub stats: RunStats,
    /// Busy retries output tasks performed during the run (must be 0:
    /// stalled peers park their writers instead of spinning).
    pub busy_retries: u64,
}

/// Runs one stalled-peer point: a static web service with large
/// responses, `stalled` clients that send pipelined requests over tiny
/// pipes and never read a byte back, and the active closed-loop clients of
/// `point` whose throughput is measured. The stalled connections' output
/// tasks park on writable readiness and cost the active clients nothing.
pub fn run_stalled_peers_experiment(point: &HttpPoint, stalled: usize) -> StalledPeersResult {
    let mut bed = Testbed::new(StackModel::Kernel, point.workers, point.shards);
    // 16 KB responses against 4 KB pipes: a stalled client's output task
    // hits WouldBlock with most of the response still buffered.
    let body = vec![b'x'; 16 * 1024];
    let web = bed.deploy_http(
        &bed.sim(),
        "stall-web",
        StaticWebServerFactory::new(body),
        0,
    );

    let stalled: Vec<_> = (0..stalled)
        .map(|_| {
            let conn = bed
                .net()
                .connect_with(
                    web.port,
                    &ConnectOptions {
                        capacity: Some(4 * 1024),
                        ..Default::default()
                    },
                )
                .expect("stalled client connects");
            for _ in 0..4 {
                conn.write_all(b"GET /stall HTTP/1.1\r\nHost: s\r\n\r\n")
                    .expect("stalled request");
            }
            conn
        })
        .collect();
    // Let every stalled graph instantiate and its output task hit the wall
    // before measuring.
    std::thread::sleep(Duration::from_millis(50));
    let busy_retries = || bed.platform().metrics().snapshot().output_busy_retries;
    let retries_before = busy_retries();

    let stats = bed.http_load(&web, point);
    let busy_retries = busy_retries().saturating_sub(retries_before);
    for conn in &stalled {
        conn.close();
    }
    StalledPeersResult {
        stats,
        busy_retries,
    }
}

/// The result of the §6.4 resource-sharing micro-benchmark (Figure 7).
#[derive(Debug, Clone, Copy)]
pub struct SharingResult {
    /// Wall-clock time until the last *light* task completed.
    pub light_completion: Duration,
    /// Wall-clock time until the last *heavy* task completed.
    pub heavy_completion: Duration,
}

/// Parameters of the resource-sharing micro-benchmark.
#[derive(Debug, Clone)]
pub struct SharingExperiment {
    /// Tasks per class (100 + 100 in the paper).
    pub tasks_per_class: usize,
    /// Data items per task.
    pub items_per_task: usize,
    /// Worker threads.
    pub workers: usize,
}

impl Default for SharingExperiment {
    fn default() -> Self {
        SharingExperiment {
            tasks_per_class: 100,
            items_per_task: 400,
            workers: 2,
        }
    }
}

/// Runs the scheduling-policy micro-benchmark: 50% light tasks (1 KB items)
/// and 50% heavy tasks (16 KB items) under one `timeslice`, returning
/// per-class completion times.
pub fn run_sharing_experiment(timeslice: Duration, params: &SharingExperiment) -> SharingResult {
    let metrics = RuntimeMetrics::new_shared();
    let scheduler = Scheduler::start(params.workers, timeslice, metrics);
    let start = Instant::now();
    let light_done: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let heavy_done: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let mut next_id = 1u64;
    // The heavy class is registered (and therefore queued) first: under the
    // non-cooperative policy completion order then follows scheduling order,
    // which is the effect Figure 7 illustrates.
    for class in 0..2 {
        let (item_size, sink) = if class == 1 {
            (1024, &light_done)
        } else {
            (16 * 1024, &heavy_done)
        };
        for i in 0..params.tasks_per_class {
            let sink = Arc::clone(sink);
            let id = TaskId(next_id);
            next_id += 1;
            scheduler.register(
                id,
                Box::new(SyntheticWorkTask::new(
                    format!("{}-{i}", if class == 1 { "light" } else { "heavy" }),
                    params.items_per_task,
                    item_size,
                    Some(Box::new(move || {
                        sink.lock().push(start.elapsed());
                    })),
                )),
            );
            scheduler.schedule(id);
        }
    }
    assert!(
        scheduler.wait_idle(Duration::from_secs(120)),
        "micro-benchmark stalled"
    );
    let max_of = |v: &Arc<Mutex<Vec<Duration>>>| v.lock().iter().copied().max().unwrap_or_default();
    SharingResult {
        light_completion: max_of(&light_done),
        heavy_completion: max_of(&heavy_done),
    }
}

/// Mapper connections per aggregation job of the fairness point.
const FAIRNESS_MAPPERS: usize = 2;

/// Aggregation jobs the fairness point keeps in flight beside the light
/// service.
const FAIRNESS_STREAMS: usize = 2;

/// Parameters of the platform fairness point: a light HTTP balancer next
/// to a heavy Hadoop aggregator on one platform's workers.
#[derive(Debug, Clone)]
pub struct FairnessExperiment {
    /// The light service's closed-loop keep-alive clients.
    pub light_clients: usize,
    /// How long the light fleet runs in each phase.
    pub duration: Duration,
    /// Bytes each mapper streams per job.
    pub bytes_per_mapper: usize,
}

impl Default for FairnessExperiment {
    fn default() -> Self {
        FairnessExperiment {
            light_clients: 4,
            duration: Duration::from_millis(400),
            bytes_per_mapper: 256 * 1024,
        }
    }
}

/// The outcome of one fairness point.
#[derive(Debug, Clone)]
pub struct FairnessResult {
    /// The light service's fleet with the platform to itself.
    pub alone: RunStats,
    /// The same fleet while the aggregator streams jobs beside it.
    pub shared: RunStats,
    /// Aggregation jobs that finished during the shared phase.
    pub jobs: u64,
}

/// Runs the fairness point of §5 on the platform rather than beside it:
/// one kernel-socket platform (2 workers, 1 shard, every worker
/// cooperative) serves the compiled `lb_small` balancer and the Hadoop
/// aggregator, whose reducers are sinks on the fabric. The light fleet
/// runs once alone and once while mappers stream aggregation jobs, two
/// in flight and each stream's back to back, every job's `foldt` runs cut
/// by the cooperative timeslice. Two jobs, not one: a single job's
/// pipeline can hold only one worker at a time when the producer it wakes
/// is still running on the other, so tasks that ignore the timeslice
/// would leave the light service a free worker and go unseen. The light
/// p90 of the two phases is the within-run law `bench_guard` gates.
pub fn run_fairness_experiment(params: &FairnessExperiment) -> FairnessResult {
    const REDUCER_PORT: u16 = 9801;
    let mut bed = Testbed::new(StackModel::Kernel, 2, 1);
    let balancer = flick_compiler::compile_source(
        HTTP_LB_FLICK_SOURCE,
        "HttpBalancer",
        &flick_compiler::CompileOptions::default(),
    )
    .expect("the bundled balancer compiles");
    let light = bed.deploy_http(&bed.kernel(), "light-lb", balancer, 2);
    // One aggregator deployment, reducer and job stream per job in flight,
    // so each stream can tell its own job's end.
    let reducers: Vec<_> = (0..FAIRNESS_STREAMS)
        .map(|i| start_sink_backend(bed.net(), REDUCER_PORT + i as u16))
        .collect();
    let heavies: Vec<_> = (0..FAIRNESS_STREAMS)
        .map(|i| {
            let spec = ServiceSpec::new("heavy-agg", 0, hadoop_aggregator(FAIRNESS_MAPPERS))
                .with_backends(vec![REDUCER_PORT + i as u16]);
            bed.platform()
                .deploy_tcp(spec, "127.0.0.1:0")
                .expect("deploy the aggregator over a loopback socket")
        })
        .collect();
    let point = HttpPoint {
        concurrency: params.light_clients,
        duration: params.duration,
        ..Default::default()
    };
    let job = HadoopLoadConfig {
        mappers: FAIRNESS_MAPPERS,
        bytes_per_mapper: params.bytes_per_mapper,
        link_bits_per_sec: None,
        ..Default::default()
    };
    let streams = mapper_streams(&job);
    let kernel = bed.kernel();

    let alone = bed.http_load(&light, &point);
    let stop = AtomicBool::new(false);
    let (shared, jobs) = std::thread::scope(|scope| {
        let streamers: Vec<_> = heavies
            .iter()
            .zip(&reducers)
            .map(|(heavy, (_, reducer_bytes))| {
                let (stop, streams, kernel) = (&stop, &streams, &kernel);
                let job = HadoopLoadConfig {
                    port: heavy.port(),
                    ..job.clone()
                };
                scope.spawn(move || {
                    // Jobs run back to back: the next starts once this
                    // one's output reached the reducer and its graph is
                    // gone, so no job queues behind another.
                    let mut jobs = 0;
                    while !stop.load(Ordering::Acquire) {
                        let before = reducer_bytes.load(Ordering::Relaxed);
                        if run_hadoop_job(kernel, &job, streams).failed > 0 {
                            break;
                        }
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while reducer_bytes.load(Ordering::Relaxed) == before
                            || heavy.live_graphs() > 0
                        {
                            if Instant::now() >= deadline {
                                return jobs;
                            }
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        jobs += 1;
                    }
                    jobs
                })
            })
            .collect();
        // Let the first jobs reach their stride before the light fleet
        // starts.
        std::thread::sleep(Duration::from_millis(20));
        let shared = bed.http_load(&light, &point);
        stop.store(true, Ordering::Release);
        let jobs = streamers
            .into_iter()
            .map(|streamer| streamer.join().expect("a job streamer panicked"))
            .sum();
        (shared, jobs)
    });
    FairnessResult {
        alone,
        shared,
        jobs,
    }
}

/// The FLICK program measured by the execution-mode dispatch ablation: a
/// weighted router whose per-message work — a field read, a hash, a
/// 16-step accumulation loop, a modulo route and a send — is typical of
/// compiled service logic and large enough for the engines' dispatch
/// costs to dominate over the call harness.
const DISPATCH_BENCH_SOURCE: &str = "\
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]

fun dispatch: ([-/cmd] outs, req: cmd, weights: [integer]) -> ()
  let h = hash(req.key)
  let acc = 0
  for w in weights:
    acc := ((acc * 31) + w + h) mod 65521
  req => outs[acc mod len(outs)]
";

/// Parameters of the interp-vs-VM dispatch ablation.
#[derive(Debug, Clone)]
pub struct ExecModeDispatchExperiment {
    /// Messages dispatched per engine per pass.
    pub messages: usize,
    /// Entries in the per-message accumulation loop.
    pub weights: usize,
    /// Output channels routed over.
    pub channels: usize,
}

impl Default for ExecModeDispatchExperiment {
    fn default() -> Self {
        ExecModeDispatchExperiment {
            messages: 20_000,
            weights: 48,
            channels: 8,
        }
    }
}

/// Result of [`run_exec_mode_dispatch_experiment`]: per-message dispatch
/// throughput of the tree-walking interpreter and of the bytecode VM over
/// the same lowered program.
#[derive(Debug, Clone)]
pub struct ExecModeDispatchResult {
    /// Messages per second through the interpreter.
    pub interp_msgs_per_sec: f64,
    /// Messages per second through the VM.
    pub vm_msgs_per_sec: f64,
}

/// Measures per-message dispatch cost of the two execution engines on the
/// same lowered FLICK program (`DISPATCH_BENCH_SOURCE`'s `dispatch`
/// function). Both engines see identical arguments per message and their
/// routed sends are checked against each other, so the comparison cannot
/// silently drift semantically. The unit is msg/s: the within-run
/// interp/VM ratio is the guarded quantity (`bench_guard` gates it above
/// 1.0); absolute rates are for context only.
pub fn run_exec_mode_dispatch_experiment(
    params: &ExecModeDispatchExperiment,
) -> ExecModeDispatchResult {
    use flick_compiler::interp::{CollectSink, Interpreter, RtVal};
    use flick_compiler::vm::Vm;
    use flick_runtime::Value;

    let service = flick_compiler::compile_source(
        DISPATCH_BENCH_SOURCE,
        "P",
        &flick_compiler::CompileOptions::default(),
    )
    .expect("bench source compiles");
    let program = Arc::clone(service.program());
    let compiled = Arc::clone(service.compiled());
    let index = program
        .functions
        .iter()
        .position(|f| f.name == "dispatch")
        .expect("dispatch function present");

    let weights: Vec<Value> = (0..params.weights as i64).map(Value::Int).collect();
    let keys: Vec<String> = (0..64).map(|i| format!("key-{i:04}")).collect();
    let args_for = |message: usize| {
        let mut msg = flick_grammar::Message::new("cmd");
        msg.set(
            "key",
            flick_grammar::MsgValue::Str(keys[message % keys.len()].clone()),
        );
        vec![
            RtVal::ChannelArray((0..params.channels).collect()),
            RtVal::Val(Value::Msg(msg)),
            RtVal::Val(Value::List(weights.clone())),
        ]
    };

    // Interpreter pass.
    let interp = Interpreter::new(&program);
    let mut interp_sink = CollectSink::default();
    let interp_start = Instant::now();
    for message in 0..params.messages {
        interp
            .call_function(index, args_for(message), &mut interp_sink)
            .expect("interp dispatch");
    }
    let interp_elapsed = interp_start.elapsed();

    // VM pass over the same message stream.
    let mut cache = compiled.field_offsets.clone();
    let mut vm = Vm::new(&compiled, &mut cache);
    let mut vm_sink = CollectSink::default();
    let vm_start = Instant::now();
    for message in 0..params.messages {
        vm.call_function(index, args_for(message), &mut vm_sink)
            .expect("vm dispatch");
    }
    let vm_elapsed = vm_start.elapsed();

    // Semantic tripwire: both engines must have routed every message to
    // the same channel sequence.
    assert_eq!(
        interp_sink.sent.len(),
        vm_sink.sent.len(),
        "engines dispatched different send counts"
    );
    for (a, b) in interp_sink.sent.iter().zip(&vm_sink.sent) {
        assert_eq!(a.0, b.0, "engines routed a message differently");
    }

    ExecModeDispatchResult {
        interp_msgs_per_sec: params.messages as f64 / interp_elapsed.as_secs_f64().max(1e-9),
        vm_msgs_per_sec: params.messages as f64 / vm_elapsed.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_services::http::http_path_balancer;

    #[test]
    fn sharing_experiment_runs_all_policies() {
        let params = SharingExperiment {
            tasks_per_class: 8,
            items_per_task: 50,
            workers: 2,
        };
        for timeslice in [
            flick_runtime::TIMESLICE,
            flick_runtime::NO_DEADLINE,
            Duration::ZERO,
        ] {
            let result = run_sharing_experiment(timeslice, &params);
            assert!(result.light_completion > Duration::ZERO);
            assert!(result.heavy_completion >= result.light_completion / 50);
        }
    }

    #[test]
    fn exec_mode_dispatch_experiment_smoke() {
        let result = run_exec_mode_dispatch_experiment(&ExecModeDispatchExperiment {
            messages: 500,
            weights: 8,
            channels: 4,
        });
        assert!(result.interp_msgs_per_sec > 0.0, "{result:?}");
        assert!(result.vm_msgs_per_sec > 0.0, "{result:?}");
    }

    #[test]
    fn fd_limit_parses_on_linux() {
        let limit = max_open_files();
        assert!(limit >= 256, "implausible fd limit {limit}");
    }

    /// Back-ends that served at least one request.
    fn backends_hit(requests: &[u64]) -> usize {
        requests.iter().filter(|served| **served > 0).count()
    }

    /// Every shape the [`Testbed`] stands up, one row each, at smoke
    /// scale: two closed-loop clients for 150 ms against two workers and
    /// two back-ends. A row is its own `#[test]` so the shapes run in
    /// parallel and fail by name.
    macro_rules! testbed_smoke_table {
        ($($name:ident: |$point:ident| $body:block)*) => {$(
            #[test]
            fn $name() {
                let $point = HttpPoint {
                    concurrency: 2,
                    duration: Duration::from_millis(150),
                    workers: 2,
                    backends: 2,
                    ..Default::default()
                };
                $body
            }
        )*};
    }

    testbed_smoke_table! {
        http_experiment_smoke: |point| {
            let point = HttpPoint { concurrency: 4, ..point };
            let stats = run_http_experiment(HttpSystem::FlickKernel, &point);
            assert!(stats.completed > 0, "{stats:?}");
        }
        memcached_experiment_smoke: |point| {
            let params = MemcachedExperiment {
                cores: point.workers,
                clients: 4,
                backends: point.backends,
                duration: point.duration,
                ..Default::default()
            };
            let stats = run_memcached_experiment(MemcachedSystem::FlickKernel, &params);
            assert!(stats.completed > 0, "{stats:?}");
        }
        tcp_loopback_experiment_smoke: |point| {
            let result = run_tcp_loopback_experiment(&HttpPoint { shards: 1, ..point });
            assert!(result.tcp.completed > 0, "tcp: {:?}", result.tcp);
            assert!(result.sim.completed > 0, "sim: {:?}", result.sim);
        }
        // Kernel accept sharding end to end: two shards, two REUSEPORT
        // accept sockets, requests served through both reactors.
        tcp_loopback_sharded_smoke: |point| {
            let result = run_tcp_loopback_experiment(&HttpPoint {
                concurrency: 4,
                shards: 2,
                ..point
            });
            assert!(result.tcp.completed > 0, "tcp: {:?}", result.tcp);
        }
        // The light balancer is served alone and beside the aggregator,
        // and the aggregator finished a job beside it.
        fairness_experiment_smoke: |point| {
            let result = run_fairness_experiment(&FairnessExperiment {
                light_clients: point.concurrency,
                duration: point.duration,
                bytes_per_mapper: 16 * 1024,
            });
            assert!(result.alone.completed > 0, "alone: {:?}", result.alone);
            assert!(result.shared.completed > 0, "shared: {:?}", result.shared);
            assert!(result.jobs > 0, "{result:?}");
        }
        // The idle mass must connect, survive, and leave the zero-copy
        // laws intact.
        tcp_c10k_experiment_smoke: |point| {
            let result = run_tcp_c10k_experiment(&HttpPoint { shards: 1, ..point }, 64);
            assert_eq!(result.idle_connected, 64, "{result:?}");
            assert_eq!(result.idle_survivors, 64, "{result:?}");
            assert!(result.active.completed > 0, "{result:?}");
            assert_eq!(result.ingest_copies, 0, "{result:?}");
            assert_eq!(result.output_busy_retries, 0, "{result:?}");
        }
        // The sticky balancer picks a back-end by the client connection's
        // id, and accepts and back-end connects draw ids from one counter,
        // so two clients often share a parity and a back-end; eight
        // spread over both.
        tcp_lb_experiment_smoke: |point| {
            let point = HttpPoint { concurrency: 8, ..point };
            let result = run_tcp_lb_experiment(http_balancer(), &point);
            assert!(result.tcp.completed > 0, "tcp: {:?}", result.tcp);
            assert!(result.sim.completed > 0, "sim: {:?}", result.sim);
            assert!(
                backends_hit(&result.backend_requests) >= 2,
                "the LB reached fewer than two TCP back-ends: {:?}",
                result.backend_requests
            );
        }
        stalled_peers_experiment_smoke: |point| {
            let result = run_stalled_peers_experiment(&point, 2);
            assert!(result.stats.completed > 0, "{:?}", result.stats);
            assert_eq!(
                result.busy_retries, 0,
                "output tasks must not busy-retry against stalled peers"
            );
        }
        // The same runner over the path-hashed balancer, which binds an
        // array: a client graph opens each back-end it routes to.
        flick_vm_lb_experiment_smoke: |point| {
            let result = run_tcp_lb_experiment(http_path_balancer(), &point);
            assert!(result.tcp.completed > 0, "tcp: {:?}", result.tcp);
            assert!(
                backends_hit(&result.backend_requests) >= 2,
                "compiled LB reached fewer than two TCP back-ends: {:?}",
                result.backend_requests
            );
        }
        hadoop_experiment_smoke: |point| {
            let mbps = run_hadoop_experiment(&HadoopExperiment {
                cores: point.workers,
                mappers: 2,
                bytes_per_mapper: 64 * 1024,
                ..Default::default()
            });
            assert!(mbps > 0.0);
        }
    }
}
