//! Targeted stress scenarios ported from the end-to-end and substrate
//! test suites into the seeded harness, so their regression seeds are
//! pinned and a failure replays from the seed alone.

use crate::invariant::Violation;
use crate::scenario::{wait_until, ScenarioReport};
use crate::trace::Trace;
use flick_grammar::http::HttpCodec;
use flick_grammar::{ParseOutcome, WireCodec};
use flick_net::listener::ConnectOptions;
use flick_net::{NetError, SimRng};
use flick_runtime::{Platform, PlatformConfig, ServiceSpec};
use flick_services::StaticWebServerFactory;
use std::time::{Duration, Instant};

/// The stall-park stress as a harness scenario: a 16 KB response against
/// a 4 KB client pipe forces the output task into `WouldBlock` with most
/// of the response buffered; while the client stalls, the task must park
/// on writable readiness (zero busy retries, zero task runs), and when
/// the client drains, the writable wakeup must deliver the rest.
pub fn run_stall_park_scenario(seed: u64) -> ScenarioReport {
    let mut trace = Trace::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut rng = SimRng::new(seed).fork("stall-park");
    trace.push(format!("stall-park seed {seed:#018x}"));

    let body_len = 16 * 1024;
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        ..Default::default()
    });
    let net = platform.net();
    let mut service = platform
        .deploy(ServiceSpec::new(
            "stall-park",
            8310,
            StaticWebServerFactory::new(vec![b'y'; body_len]),
        ))
        .expect("service deploys");

    let client = net
        .connect_with(
            8310,
            &ConnectOptions {
                capacity: Some(4 * 1024),
                ..Default::default()
            },
        )
        .expect("connect");
    // The request path is seeded so the trace proves the run derives
    // from the seed (the platform ignores the path).
    let path = format!("/stall/{}", rng.pick(1_000_000));
    trace.push(format!("request {path}"));
    client
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: s\r\n\r\n").as_bytes())
        .expect("request writes");

    // Let the graph build and the output task slam into the full pipe,
    // then hold still: a parked task costs nothing while the peer stalls.
    std::thread::sleep(Duration::from_millis(100));
    let before = platform.metrics().snapshot();
    std::thread::sleep(Duration::from_millis(150));
    let after = platform.metrics().snapshot();
    if after.output_busy_retries != 0 {
        violations.push(Violation::new(
            seed,
            0,
            format!(
                "stalled peer caused {} busy retries instead of parking",
                after.output_busy_retries
            ),
        ));
    }
    if after.task_runs != before.task_runs {
        violations.push(Violation::new(
            seed,
            0,
            format!(
                "{} task runs while the peer stalled (parked tasks cost zero)",
                after.task_runs - before.task_runs
            ),
        ));
    }
    trace.push("quiet window passed".to_string());

    // Drain: the writable wakeup path must deliver the whole response.
    let codec = HttpCodec::new();
    let mut response = Vec::with_capacity(body_len + 128);
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut requests_ok = 0u64;
    loop {
        if Instant::now() >= deadline {
            violations.push(Violation::new(
                seed,
                1,
                format!(
                    "response stalled at {} bytes after the drain began \
                     (lost writable wakeup?)",
                    response.len()
                ),
            ));
            break;
        }
        match client.read_timeout(&mut chunk, Duration::from_millis(200)) {
            Ok(n) => {
                response.extend_from_slice(&chunk[..n]);
                match codec.parse(&response, None) {
                    Ok(ParseOutcome::Complete { consumed, .. }) => {
                        trace.push(format!("drained {consumed} bytes"));
                        requests_ok = 1;
                        break;
                    }
                    Ok(ParseOutcome::Incomplete) => continue,
                    Err(e) => {
                        violations.push(Violation::new(seed, 1, format!("garbled response: {e}")));
                        break;
                    }
                }
            }
            Err(NetError::TimedOut) => continue,
            Err(e) => {
                violations.push(Violation::new(
                    seed,
                    1,
                    format!("drain failed after {} bytes: {e}", response.len()),
                ));
                break;
            }
        }
    }
    client.close();

    if !wait_until(Duration::from_secs(10), || service.live_graphs() == 0) {
        violations.push(Violation::new(seed, u64::MAX, "graph leaked after drain"));
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

    let trace_hash = trace.hash();
    ScenarioReport {
        name: "stall-park",
        seed,
        trace,
        trace_hash,
        violations,
        requests_ok,
        requests_failed: 1 - requests_ok,
        backend_requests_served: 0,
        hostile_sent: 0,
        hostile_rejected: 0,
        final_metrics: Default::default(),
        final_net: Default::default(),
    }
}
