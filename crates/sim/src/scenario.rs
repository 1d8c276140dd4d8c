//! The deterministic scenario driver.
//!
//! A scenario boots a whole [`Platform`] graph over the simulated
//! transport, drives it with scripted clients for a fixed number of
//! ticks, injects the scheduled faults, and runs the invariant battery
//! after every tick. Every random choice — churn, byte-at-a-time
//! delivery, mid-message aborts — derives from the single scenario seed
//! through order-stable [`SimRng`] forks, so a failing run replays
//! bit-identically from its seed alone.
//!
//! ## Determinism contract
//!
//! The driver's *decisions* (fault applications, per-client plans) are a
//! pure function of the seed and are always recorded in the [`Trace`].
//! Request *outcomes* are additionally recorded when
//! [`ScenarioConfig::trace_outcomes`] is set; that flag must stay off for
//! partial-outage schedules, where the load balancer's backend choice
//! hangs off globally allocated connection ids and two runs may route a
//! given client to different backends. Full-outage schedules (every
//! backend down, or none) have deterministic outcome classes and keep the
//! flag on.

use crate::fault::{FaultOp, ScheduledFault};
use crate::invariant::{check_tick, TickChecks, Violation};
use crate::message_mutator::{Delivery, MessageMutator};
use crate::trace::Trace;
use flick_compiler::CompiledService;
use flick_grammar::http::HttpCodec;
use flick_grammar::{ParseOutcome, WireCodec};
use flick_net::ratelimit::TokenBucket;
use flick_net::stats::StatsSnapshot;
use flick_net::{Endpoint, NetError, SimNetwork, SimRng};
use flick_runtime::metrics::MetricsSnapshot;
use flick_runtime::{ExecMode, Platform, PlatformConfig, ServiceSpec};
use flick_services::http::http_balancer;
use flick_services::StaticWebServerFactory;
use flick_workload::backends::{start_http_backend, BackendHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Patience for a response while any backend is down: connections routed
/// to a dead backend never complete, and ones routed to a live backend
/// answer in microseconds, so a short window classifies reliably.
const DEGRADED_PATIENCE: Duration = Duration::from_millis(300);

/// Deadline for a response while everything is healthy. A healthy
/// platform answers in microseconds; hitting this means a wakeup was
/// lost somewhere, which is exactly what the harness exists to catch.
const HEALTHY_DEADLINE: Duration = Duration::from_secs(8);

/// One scripted chaos run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Name used in traces and reports.
    pub name: &'static str,
    /// The seed every random choice derives from.
    pub seed: u64,
    /// Number of driver ticks (one request per client per tick).
    pub ticks: u64,
    /// Concurrent scripted clients.
    pub clients: usize,
    /// HTTP backends behind the load balancer; `0` deploys the static
    /// web server instead.
    pub backends: usize,
    /// Platform worker threads.
    pub workers: usize,
    /// Platform shards (`0` = auto).
    pub shards: usize,
    /// The fault schedule.
    pub faults: Vec<ScheduledFault>,
    /// Per-request probability of delivering the request one byte per
    /// write (exercises incremental parsing and per-byte wakeups).
    pub byte_at_a_time: f64,
    /// Per-tick probability a client closes and reconnects before
    /// sending (connection churn).
    pub churn: f64,
    /// Per-request probability of writing half the request and
    /// disconnecting (mid-message abort).
    pub abort_mid_message: f64,
    /// Per-request probability of replacing the clean request with a
    /// grammar-aware mutated frame (see [`crate::MessageMutator`]).
    /// [`FaultOp::HostileTraffic`] can change the rate mid-run. The
    /// mutation decision draws from its own per-client RNG fork, so
    /// turning the knob never shifts the churn/byte-wise/abort streams.
    pub hostile: f64,
    /// Write-rate limit applied to every client connection as
    /// `(bits_per_sec, burst_bytes)` — the rate-storm knob. Service
    /// outputs stay unrated so the busy-retry gate remains meaningful.
    pub client_rate: Option<(u64, usize)>,
    /// Record request outcomes in the trace (keep off for partial-outage
    /// schedules; see the module docs).
    pub trace_outcomes: bool,
    /// Tick-level gates layered over the conservation laws.
    pub checks: TickChecks,
    /// Compiles the FLICK balancer deployed in front of the back-ends
    /// when `backends > 0` (the connection-sticky
    /// [`flick_services::http::http_balancer`] unless a scenario names
    /// another program).
    pub balancer: fn() -> Arc<CompiledService>,
    /// The engine the balancer's logic runs on.
    pub exec_mode: ExecMode,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            name: "scenario",
            seed: 0xF11C,
            ticks: 12,
            clients: 4,
            backends: 2,
            workers: 2,
            shards: 2,
            faults: Vec::new(),
            byte_at_a_time: 0.0,
            churn: 0.0,
            abort_mid_message: 0.0,
            hostile: 0.0,
            client_rate: None,
            trace_outcomes: true,
            checks: TickChecks::default(),
            balancer: http_balancer,
            exec_mode: ExecMode::default(),
        }
    }
}

/// What a scenario run produced.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// The seed the run derived from.
    pub seed: u64,
    /// The full decision trace.
    pub trace: Trace,
    /// FNV-1a hash of the trace — the replay witness.
    pub trace_hash: u64,
    /// Every invariant violation, in the order it surfaced.
    pub violations: Vec<Violation>,
    /// Requests that completed with a full parsed response.
    pub requests_ok: u64,
    /// Requests that did not (severed, refused, degraded-timeout…).
    pub requests_failed: u64,
    /// Requests the backend fleet served, accumulated across restarts.
    pub backend_requests_served: u64,
    /// Mutated frames sent (hostile traffic is accounted separately from
    /// clean requests — a rejected poison frame is a success story).
    pub hostile_sent: u64,
    /// Mutated frames the service answered by closing the connection in a
    /// tick with every backend healthy — the observed malformed
    /// rejections. (In a degraded tick a close may be the balancer
    /// refusing the connection, so it is not counted.)
    pub hostile_rejected: u64,
    /// Runtime counters at teardown (backend ejections/readmits, retry
    /// totals — what the acceptance assertions read).
    pub final_metrics: MetricsSnapshot,
    /// Substrate counters at teardown (`malformed_closes` and friends).
    pub final_net: StatsSnapshot,
}

impl ScenarioReport {
    /// Panics with every violation (each carries the replay seed) unless
    /// the run was clean.
    pub fn assert_clean(&self) {
        if self.violations.is_empty() {
            return;
        }
        let rendered: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
        panic!(
            "scenario '{}' violated {} invariant(s):\n  {}",
            self.name,
            self.violations.len(),
            rendered.join("\n  ")
        );
    }
}

struct BackendSlot {
    port: u16,
    handle: Option<BackendHandle>,
    /// Requests served by previous incarnations (accumulated at crash).
    served_before: u64,
}

impl BackendSlot {
    fn served_total(&self) -> u64 {
        self.served_before
            + self
                .handle
                .as_ref()
                .map(|h| h.requests_served())
                .unwrap_or(0)
    }
}

struct ClientSlot {
    conn: Option<Endpoint>,
}

/// Response body size served by the backends (or the web server).
const BODY_LEN: usize = 512;
const SERVICE_PORT: u16 = 8300;
const BACKEND_BASE: u16 = 9301;

/// Runs one scenario to completion and reports trace, counters and
/// violations. Never panics on an invariant failure — callers decide via
/// [`ScenarioReport::assert_clean`].
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioReport {
    let seed = config.seed;
    let mut trace = Trace::new();
    let mut violations: Vec<Violation> = Vec::new();
    trace.push(format!(
        "scenario {} seed {:#018x} ticks {} clients {} backends {}",
        config.name, seed, config.ticks, config.clients, config.backends
    ));

    let platform = Platform::new(PlatformConfig {
        workers: config.workers,
        shards: config.shards,
    });
    let net = platform.net();
    let body = vec![b'x'; BODY_LEN];

    let mut backends: Vec<BackendSlot> = (0..config.backends)
        .map(|i| {
            let port = BACKEND_BASE + i as u16;
            BackendSlot {
                port,
                handle: Some(start_http_backend(&net, port, &body)),
                served_before: 0,
            }
        })
        .collect();

    let spec = if config.backends > 0 {
        let ports: Vec<u16> = backends.iter().map(|b| b.port).collect();
        ServiceSpec::new(config.name, SERVICE_PORT, (config.balancer)())
            .with_backends(ports)
            .with_exec_mode(config.exec_mode)
    } else {
        ServiceSpec::new(
            config.name,
            SERVICE_PORT,
            StaticWebServerFactory::new(body.clone()),
        )
    };
    let mut service = platform.deploy(spec).expect("service deploys");

    let root = SimRng::new(seed);
    let mut client_rngs: Vec<SimRng> = (0..config.clients)
        .map(|i| root.fork("client").fork_indexed(i as u64))
        .collect();
    // The mutators fork from their own label so hostile decisions never
    // perturb the established client decision streams.
    let mut mutators: Vec<MessageMutator> = (0..config.clients)
        .map(|i| MessageMutator::new(root.fork("mutator").fork_indexed(i as u64)))
        .collect();
    let mut clients: Vec<ClientSlot> = (0..config.clients)
        .map(|_| ClientSlot { conn: None })
        .collect();
    let mut buckets: Vec<Arc<TokenBucket>> = Vec::new();
    let codec = HttpCodec::new();
    let metrics = platform.metrics();

    let mut requests_ok = 0u64;
    let mut requests_failed = 0u64;
    let mut hostile_rate = config.hostile;
    let mut hostile_sent = 0u64;
    let mut hostile_rejected = 0u64;

    let connect = |net: &Arc<SimNetwork>, buckets: &mut Vec<Arc<TokenBucket>>| {
        let mut conn = net.connect(SERVICE_PORT).ok()?;
        if let Some((bits, burst)) = config.client_rate {
            let bucket = Arc::new(TokenBucket::new_bits_per_sec(bits, burst));
            conn.set_write_rate(Arc::clone(&bucket));
            buckets.push(bucket);
        }
        Some(conn)
    };

    for tick in 0..config.ticks {
        // --- Faults first: no request spans a fault boundary. ---
        let mut faulted = false;
        for fault in config.faults.iter().filter(|f| f.tick == tick) {
            match &fault.op {
                FaultOp::CrashBackend(i) => {
                    let slot = &mut backends[*i];
                    if let Some(mut handle) = slot.handle.take() {
                        // Sever while the port is still mapped, then
                        // unbind and join: once this returns, no response
                        // from the dead incarnation can ever arrive. The
                        // severed-connection count is timing-dependent
                        // (async graph teardown), so it stays out of the
                        // replay-hashed trace.
                        net.sever_port(slot.port);
                        net.unlisten(slot.port);
                        slot.served_before += handle.requests_served();
                        handle.stop();
                        trace.push(format!("t{tick} crash backend {i}"));
                        faulted = true;
                    }
                }
                FaultOp::RestartBackend(i) => {
                    let slot = &mut backends[*i];
                    if slot.handle.is_none() {
                        slot.handle = Some(start_http_backend(&net, slot.port, &body));
                        trace.push(format!("t{tick} restart backend {i}"));
                        faulted = true;
                    }
                }
                FaultOp::SeverClients => {
                    net.sever_port(SERVICE_PORT);
                    trace.push(format!("t{tick} sever clients"));
                    faulted = true;
                }
                FaultOp::QuietCheck {
                    ms,
                    max_extra_task_runs,
                } => {
                    let before = metrics.snapshot().task_runs;
                    std::thread::sleep(Duration::from_millis(*ms));
                    let after = metrics.snapshot().task_runs;
                    trace.push(format!("t{tick} quiet check {ms}ms"));
                    if after - before > *max_extra_task_runs {
                        violations.push(Violation::new(
                            seed,
                            tick,
                            format!(
                                "{} task runs during a {ms}ms quiet window (max {})",
                                after - before,
                                max_extra_task_runs
                            ),
                        ));
                    }
                }
                FaultOp::SabotageZeroCopy => {
                    net.stats().record_ingest_copy(1);
                    trace.push(format!("t{tick} sabotage zero-copy"));
                }
                FaultOp::HostileTraffic { permille } => {
                    hostile_rate = *permille as f64 / 1000.0;
                    trace.push(format!("t{tick} hostile rate {permille} per-mille"));
                }
            }
        }
        if faulted {
            // Reset every client to a fresh connection so post-fault
            // client state is a function of the schedule, not of how far
            // asynchronous teardown had progressed when the tick started.
            for client in clients.iter_mut() {
                if let Some(conn) = client.conn.take() {
                    conn.close();
                }
            }
        }
        let degraded = backends.iter().any(|b| b.handle.is_none());

        // --- Client actions, in index order. ---
        let mut pending: Vec<bool> = vec![false; config.clients];
        // A refusal is one outcome whichever side of the client's write
        // the service's close lands on: a failed write is drained below
        // as the `closed` it already is, in index order like every other
        // outcome.
        let mut refused: Vec<bool> = vec![false; config.clients];
        let mut pending_hostile: Vec<bool> = vec![false; config.clients];
        for (i, client) in clients.iter_mut().enumerate() {
            let rng = &mut client_rngs[i];
            // Fixed draw order per tick keeps every client's stream
            // aligned across runs regardless of outcomes. The hostile
            // draw comes off the mutator's own stream, every tick, for
            // the same reason.
            let churn = rng.chance(config.churn);
            let byte_wise = rng.chance(config.byte_at_a_time);
            let abort = rng.chance(config.abort_mid_message);
            let hostile = mutators[i].roll(hostile_rate);
            if churn {
                if let Some(conn) = client.conn.take() {
                    conn.close();
                }
                trace.push(format!("t{tick} c{i} churn"));
            }
            if client.conn.is_none() {
                match connect(&net, &mut buckets) {
                    Some(conn) => client.conn = Some(conn),
                    None => {
                        requests_failed += 1;
                        if config.trace_outcomes {
                            trace.push(format!("t{tick} c{i} refused"));
                        }
                        continue;
                    }
                }
            }
            let conn = client.conn.as_ref().expect("connected above");
            let request = format!("GET /c{i}/t{tick} HTTP/1.1\r\nHost: sim\r\n\r\n");
            let bytes = request.as_bytes();
            if hostile {
                let mutation = mutators[i].mutate(bytes);
                trace.push(format!("t{tick} c{i} hostile {}", mutation.kind.name()));
                hostile_sent += 1;
                if mutation.kind.expects_malformed_close() {
                    // Deliver the poison. The server may slam the door
                    // mid-write (the head flood is *designed* to be cut
                    // off), so write errors are part of the plan.
                    match mutation.delivery {
                        Delivery::Chunked(step) => {
                            for chunk in mutation.bytes.chunks(step) {
                                if conn.write_all(chunk).is_err() {
                                    break;
                                }
                            }
                        }
                        _ => {
                            let _ = conn.write_all(&mutation.bytes);
                        }
                    }
                    pending_hostile[i] = true;
                } else {
                    // Incomplete frames (truncation, slowloris): deliver
                    // and hang up; the server owes only a clean teardown.
                    match mutation.delivery {
                        Delivery::ByteWiseThenStall => {
                            for b in &mutation.bytes {
                                if conn.write_all(&[*b]).is_err() {
                                    break;
                                }
                            }
                        }
                        _ => {
                            let _ = conn.write_all(&mutation.bytes);
                        }
                    }
                    conn.close();
                    client.conn = None;
                }
                continue;
            }
            if abort {
                let half = &bytes[..bytes.len() / 2];
                let _ = conn.write_all(half);
                conn.close();
                client.conn = None;
                requests_failed += 1;
                trace.push(format!("t{tick} c{i} abort mid-message"));
                continue;
            }
            let wrote = if byte_wise {
                trace.push(format!("t{tick} c{i} byte-wise"));
                bytes.iter().all(|b| conn.write_all(&[*b]).is_ok())
            } else {
                conn.write_all(bytes).is_ok()
            };
            pending[i] = true;
            refused[i] = !wrote;
        }

        // --- Drain responses, in index order. ---
        let patience = if degraded {
            DEGRADED_PATIENCE
        } else {
            HEALTHY_DEADLINE
        };
        for (i, client) in clients.iter_mut().enumerate() {
            if pending_hostile[i] {
                // A malformed-expecting frame: the only acceptable answer
                // is a closed connection. A parsed response means the
                // bounded parser waved poison through; a healthy-mode
                // timeout means the connection (and its buffer) leaked.
                // In a degraded tick a close is not evidence of a parser's
                // rejection: the balancer may have refused the graph for
                // want of a healthy back-end before any parser saw the
                // frame. Such a close is `hostile-refused` and is not
                // counted as a rejection.
                let conn = client.conn.as_ref().expect("pending implies connected");
                let deadline = Instant::now() + patience;
                let mut buf = Vec::with_capacity(256);
                let mut chunk = [0u8; 8192];
                let outcome = loop {
                    if Instant::now() >= deadline {
                        break "hostile-timeout";
                    }
                    match conn.read_timeout(&mut chunk, Duration::from_millis(50)) {
                        Ok(n) => {
                            buf.extend_from_slice(&chunk[..n]);
                            match codec.parse(&buf, None) {
                                Ok(ParseOutcome::Complete { .. }) => break "hostile-answered",
                                _ => continue,
                            }
                        }
                        Err(NetError::TimedOut) => continue,
                        Err(_) if degraded => break "hostile-refused",
                        Err(_) => break "hostile-rejected",
                    }
                };
                match outcome {
                    "hostile-rejected" => hostile_rejected += 1,
                    "hostile-answered" => violations.push(Violation::new(
                        seed,
                        tick,
                        format!("client {i}: service answered a malformed frame with a response"),
                    )),
                    _ if !degraded => violations.push(Violation::new(
                        seed,
                        tick,
                        format!(
                            "client {i}: service neither closed nor rejected a malformed \
                             frame within {patience:?}"
                        ),
                    )),
                    _ => {}
                }
                if let Some(conn) = client.conn.take() {
                    conn.close();
                }
                if config.trace_outcomes {
                    trace.push(format!("t{tick} c{i} {outcome}"));
                }
                continue;
            }
            if !pending[i] {
                continue;
            }
            let conn = client.conn.as_ref().expect("pending implies connected");
            let deadline = Instant::now() + patience;
            let mut buf = Vec::with_capacity(BODY_LEN + 128);
            let mut chunk = [0u8; 8192];
            let outcome = loop {
                if refused[i] {
                    break "closed";
                }
                if Instant::now() >= deadline {
                    break "timeout";
                }
                match conn.read_timeout(&mut chunk, Duration::from_millis(50)) {
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        match codec.parse(&buf, None) {
                            Ok(ParseOutcome::Complete { .. }) => break "ok",
                            Ok(ParseOutcome::Incomplete) => continue,
                            Err(_) => break "garbled",
                        }
                    }
                    Err(NetError::TimedOut) => continue,
                    Err(_) => break "closed",
                }
            };
            match outcome {
                "ok" => requests_ok += 1,
                "timeout" if !degraded => {
                    requests_failed += 1;
                    violations.push(Violation::new(
                        seed,
                        tick,
                        format!(
                            "client {i} got no response in {:?} with every backend \
                             healthy (lost wakeup?)",
                            HEALTHY_DEADLINE
                        ),
                    ));
                }
                _ => requests_failed += 1,
            }
            if outcome != "ok" {
                // Unwedge: a degraded connection may hang off a back-end
                // that died under it; reconnect fresh next tick.
                if let Some(conn) = client.conn.take() {
                    conn.close();
                }
            }
            if config.trace_outcomes {
                trace.push(format!("t{tick} c{i} {outcome}"));
            }
        }

        // --- Invariants, every tick. ---
        violations.extend(check_tick(
            seed,
            tick,
            &net.stats().snapshot(),
            &metrics.snapshot(),
            config.checks,
        ));
        for bucket in &buckets {
            if let Err(what) = bucket.check_conservation() {
                violations.push(Violation::new(seed, tick, what));
            }
        }
        trace.push(format!("t{tick} end"));
    }

    // --- Teardown: everything must come back down. ---
    for client in clients.iter_mut() {
        if let Some(conn) = client.conn.take() {
            conn.close();
        }
    }
    if !wait_until(Duration::from_secs(10), || service.live_graphs() == 0) {
        violations.push(Violation::new(
            seed,
            u64::MAX,
            format!(
                "{} graph(s) leaked after every client left",
                service.live_graphs()
            ),
        ));
    }
    service.stop();
    if !wait_until(Duration::from_secs(10), || platform.task_count() == 0) {
        violations.push(Violation::new(
            seed,
            u64::MAX,
            format!(
                "{} task(s) leaked after service stop",
                platform.task_count()
            ),
        ));
    }

    // Request conservation: every parsed response implies a backend
    // actually served it — across crashes and restarts.
    let backend_requests_served: u64 = backends.iter().map(|b| b.served_total()).sum();
    if config.backends > 0 && requests_ok > backend_requests_served {
        violations.push(Violation::new(
            seed,
            u64::MAX,
            format!(
                "request conservation violated: {requests_ok} responses parsed \
                 but only {backend_requests_served} requests served"
            ),
        ));
    }
    // Malformed accounting. The substrate records a malformed close
    // *after* the socket is torn down, so the client-side rejection can
    // race ahead of the counter — give it a moment to catch up, then
    // bound it from both sides: every observed rejection must have been
    // counted, and clean traffic must never be flagged.
    if hostile_rejected > 0 {
        wait_until(Duration::from_secs(2), || {
            net.stats().snapshot().malformed_closes >= hostile_rejected
        });
    }
    let final_net = net.stats().snapshot();
    if let Err(what) = final_net.check_conservation() {
        violations.push(Violation::new(seed, u64::MAX, what));
    }
    if final_net.malformed_closes < hostile_rejected {
        violations.push(Violation::new(
            seed,
            u64::MAX,
            format!(
                "{} hostile rejections observed but only {} malformed closes recorded",
                hostile_rejected, final_net.malformed_closes
            ),
        ));
    }
    if final_net.malformed_closes > hostile_sent {
        violations.push(Violation::new(
            seed,
            u64::MAX,
            format!(
                "{} malformed closes recorded for only {} hostile frames sent \
                 (clean traffic misflagged)",
                final_net.malformed_closes, hostile_sent
            ),
        ));
    }
    let final_metrics = metrics.snapshot();

    for slot in backends.iter_mut() {
        if let Some(mut handle) = slot.handle.take() {
            handle.stop();
        }
    }

    if config.trace_outcomes {
        trace.push(format!(
            "done ok {requests_ok} failed {requests_failed} served {backend_requests_served}"
        ));
        if hostile_sent > 0 {
            trace.push(format!(
                "hostile {hostile_sent} rejected {hostile_rejected}"
            ));
        }
    }
    let trace_hash = trace.hash();
    ScenarioReport {
        name: config.name,
        seed,
        trace,
        trace_hash,
        violations,
        requests_ok,
        requests_failed,
        backend_requests_served,
        hostile_sent,
        hostile_rejected,
        final_metrics,
        final_net,
    }
}

/// Polls `predicate` every 5 ms until it holds or `timeout` expires.
pub fn wait_until(timeout: Duration, mut predicate: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if predicate() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
