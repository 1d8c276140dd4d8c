//! Closed-loop HTTP client fleet (the ApacheBench stand-in), its one-shot
//! `curl`, and the c10k run that holds an idle mass open beside it.

use crate::fabric::Fabric;
use crate::metrics::{LatencyRecorder, RunStats};
use flick_grammar::http::HttpCodec;
use flick_grammar::{ParseOutcome, WireCodec};
use flick_net::{Endpoint, NetError, SimRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one HTTP load-generation run.
#[derive(Debug, Clone)]
pub struct HttpLoadConfig {
    /// Port of the system under test.
    pub port: u16,
    /// Number of concurrent client connections.
    pub concurrency: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// `true` for HTTP keep-alive (persistent connections); `false` opens a
    /// new connection per request.
    pub persistent: bool,
    /// Per-request timeout before the request counts as failed.
    pub timeout: Duration,
    /// Fraction of requests replaced by a malformed frame from the canned
    /// hostile corpus (oversized, duplicate and garbled `Content-Length`
    /// declarations). The server closing the poisoned connection is the
    /// expected outcome; such frames count in
    /// [`RunStats::malformed_sent`], never in completed/failed.
    pub hostile_ratio: f64,
    /// Seed for the deterministic per-client hostile draw.
    pub hostile_seed: u64,
}

impl Default for HttpLoadConfig {
    fn default() -> Self {
        HttpLoadConfig {
            port: 80,
            concurrency: 16,
            duration: Duration::from_millis(500),
            persistent: true,
            timeout: Duration::from_secs(5),
            hostile_ratio: 0.0,
            hostile_seed: 0x4057,
        }
    }
}

/// The canned poison corpus for hostile load runs: one frame per strict
/// `Content-Length` rejection class, mirroring the grammar-aware mutator
/// in `flick_sim` (which the workload crate cannot depend on — the sim
/// depends on us).
const HOSTILE_FRAMES: [&[u8]; 3] = [
    // Oversized declaration: 16 GiB against the 16 MiB default body cap.
    b"POST /hostile HTTP/1.1\r\nHost: bench\r\nContent-Length: 17179869184\r\n\r\n",
    // Two declarations that disagree.
    b"GET /hostile HTTP/1.1\r\nHost: bench\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\n",
    // A sign prefix is not a plain digit string.
    b"GET /hostile HTTP/1.1\r\nHost: bench\r\nContent-Length: +1\r\n\r\n",
];

/// Runs a closed-loop HTTP workload on `fabric`: each client keeps exactly
/// one request outstanding, as ApacheBench does.
pub fn run_http_load(fabric: impl Into<Fabric>, config: &HttpLoadConfig) -> RunStats {
    let fabric = fabric.into();
    let recorder = LatencyRecorder::new();
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    let malformed = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let deadline = start + config.duration;
    let mut handles = Vec::new();
    for client_id in 0..config.concurrency {
        let fabric = fabric.clone();
        let config = config.clone();
        let recorder = recorder.clone();
        let completed = Arc::clone(&completed);
        let failed = Arc::clone(&failed);
        let bytes = Arc::clone(&bytes);
        let malformed = Arc::clone(&malformed);
        handles.push(std::thread::spawn(move || {
            let codec = HttpCodec::new();
            let mut rng = SimRng::new(config.hostile_seed).fork_indexed(client_id as u64);
            let mut connection = None;
            let mut request_id = 0usize;
            while Instant::now() < deadline {
                // (Re-)establish the connection as needed.
                if connection.is_none() {
                    match fabric.connect(config.port) {
                        Ok(conn) => connection = Some(conn),
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                    }
                }
                let conn = connection.as_ref().expect("connection established");
                request_id += 1;
                if rng.chance(config.hostile_ratio) {
                    // Poison this turn: send a malformed frame and wait
                    // for the slammed door. The connection is spent
                    // either way — a server that answered would be the
                    // real problem, and the bench gate catches that as
                    // collapsed goodput.
                    let frame = HOSTILE_FRAMES[rng.pick(HOSTILE_FRAMES.len())];
                    malformed.fetch_add(1, Ordering::Relaxed);
                    if conn.write_all(frame).is_ok() {
                        let started = Instant::now();
                        let mut chunk = [0u8; 4096];
                        while started.elapsed() < config.timeout {
                            match conn.read_timeout(&mut chunk, config.timeout) {
                                Ok(_) => continue,
                                Err(_) => break,
                            }
                        }
                    }
                    if let Some(conn) = connection.take() {
                        conn.close();
                    }
                    continue;
                }
                let request = format!(
                    "GET /c{client_id}/r{request_id} HTTP/1.1\r\nHost: bench\r\n{}\r\n",
                    if config.persistent {
                        "Connection: keep-alive\r\n"
                    } else {
                        "Connection: close\r\n"
                    }
                );
                let started = Instant::now();
                if conn.write_all(request.as_bytes()).is_err() {
                    failed.fetch_add(1, Ordering::Relaxed);
                    connection = None;
                    continue;
                }
                // Read one full response.
                let mut buf = Vec::with_capacity(512);
                let mut chunk = [0u8; 4096];
                let mut ok = false;
                while started.elapsed() < config.timeout {
                    match conn.read_timeout(&mut chunk, config.timeout) {
                        Ok(n) => {
                            buf.extend_from_slice(&chunk[..n]);
                            match codec.parse(&buf, None) {
                                Ok(ParseOutcome::Complete { consumed, .. }) => {
                                    bytes.fetch_add(consumed as u64, Ordering::Relaxed);
                                    ok = true;
                                    break;
                                }
                                Ok(ParseOutcome::Incomplete) => continue,
                                Err(_) => break,
                            }
                        }
                        Err(NetError::TimedOut) | Err(_) => break,
                    }
                }
                if ok {
                    completed.fetch_add(1, Ordering::Relaxed);
                    recorder.record(started.elapsed());
                } else {
                    failed.fetch_add(1, Ordering::Relaxed);
                    connection = None;
                    continue;
                }
                if !config.persistent {
                    if let Some(conn) = connection.take() {
                        conn.close();
                    }
                }
            }
            if let Some(conn) = connection.take() {
                conn.close();
            }
        }));
    }
    for handle in handles {
        let _ = handle.join();
    }
    RunStats {
        completed: completed.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        latency: recorder.stats(),
        bytes: bytes.load(Ordering::Relaxed),
        malformed_sent: malformed.load(Ordering::Relaxed),
    }
}

/// Issues one GET to `port` and returns the raw response bytes (headers +
/// body) — the in-process equivalent of a `curl` smoke test.
pub fn fetch_http(
    fabric: impl Into<Fabric>,
    port: u16,
    path: &str,
    timeout: Duration,
) -> Result<Vec<u8>, NetError> {
    let codec = HttpCodec::new();
    let conn = fabric.into().connect(port)?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n");
    let mut response = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + timeout;
    let outcome = conn.write_all(request.as_bytes()).and_then(|()| {
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            match conn.read_timeout(&mut chunk, left) {
                Ok(n) => response.extend_from_slice(&chunk[..n]),
                Err(NetError::Closed | NetError::TimedOut) => break,
                Err(err) => return Err(err),
            }
            if matches!(
                codec.parse(&response, None),
                Ok(ParseOutcome::Complete { .. })
            ) {
                break;
            }
        }
        Ok(())
    });
    conn.close();
    outcome.map(|()| response)
}

/// Configuration of a c10k-style idle+active run: a large pool of
/// connected-but-silent clients is held open for the whole run while a
/// small closed-loop subset drives requests through the same listener.
#[derive(Debug, Clone)]
pub struct IdleActiveConfig {
    /// Connections opened before the run and held idle (no bytes sent)
    /// until it finishes.
    pub idle_connections: usize,
    /// The active closed-loop subset; its port is the idle mass's too.
    pub active: HttpLoadConfig,
}

/// Result of [`run_idle_active_load`].
#[derive(Debug)]
pub struct IdleActiveStats {
    /// Idle connections successfully established (may fall short of the
    /// request under fd pressure).
    pub idle_connected: usize,
    /// Idle connections still alive once the active run finished — a
    /// server that sheds or resets idle connections under load shows up
    /// as `idle_survivors < idle_connected`.
    pub idle_survivors: usize,
    /// The active subset's closed-loop stats.
    pub active: RunStats,
}

/// Floor on the warm-up request's patience: accepting and building
/// graphs for ten thousand idle connections takes a while on small
/// hosts, and a timed-out warm-up would put the drain back inside the
/// measured window.
const WARMUP_TIMEOUT: Duration = Duration::from_secs(30);

/// Size of the connect pool used to establish the idle mass. Serial
/// connects pay one loopback round-trip each — tens of seconds at c10k
/// scale — while a handful of workers overlap the handshakes without
/// stampeding the server's accept queue.
const IDLE_CONNECT_WORKERS: usize = 8;

/// Opens up to `count` idle connections to `port` from `count.min(8)`
/// worker threads. Each worker stops at its first connect failure (fd
/// exhaustion, locally or remotely, hits every worker the same way), so
/// the pool as a whole degrades to "measure with what we got".
fn connect_idle_pool(fabric: &Fabric, port: u16, count: usize) -> Vec<Endpoint> {
    let workers = IDLE_CONNECT_WORKERS.min(count.max(1));
    let mut handles = Vec::with_capacity(workers);
    for worker in 0..workers {
        // Spread the remainder over the first `count % workers` workers.
        let quota = count / workers + usize::from(worker < count % workers);
        let fabric = fabric.clone();
        handles.push(std::thread::spawn(move || {
            let mut opened = Vec::with_capacity(quota);
            for _ in 0..quota {
                match fabric.connect(port) {
                    Ok(conn) => opened.push(conn),
                    Err(_) => break,
                }
            }
            opened
        }));
    }
    let mut idle = Vec::with_capacity(count);
    for handle in handles {
        idle.extend(handle.join().unwrap_or_default());
    }
    idle
}

/// Runs the c10k shape: `idle_connections` silent connections pinned open
/// while the active closed loop measures throughput/latency. The server
/// pays whatever its event machinery charges for the idle mass — a
/// scanning dispatcher degrades with the idle count, a wakeup-based one
/// must not.
pub fn run_idle_active_load(
    fabric: impl Into<Fabric>,
    config: &IdleActiveConfig,
) -> IdleActiveStats {
    let fabric = fabric.into();
    let port = config.active.port;
    let idle = connect_idle_pool(&fabric, port, config.idle_connections);
    let idle_connected = idle.len();
    // A connect completes as soon as the kernel handshake does — the
    // server may still be draining a huge accept backlog. One warm-up
    // request (accepted behind the whole idle pool) settles the race:
    // once it answers, the server has caught up, and the active loop below
    // measures steady state rather than the drain.
    let _ = fetch_http(
        &fabric,
        port,
        "/warmup",
        config.active.timeout.max(WARMUP_TIMEOUT),
    );
    let active = run_http_load(&fabric, &config.active);
    // An idle connection survived if it still reads as "no data yet"
    // rather than EOF/reset.
    let mut probe = [0u8; 1];
    let idle_survivors = idle
        .iter()
        .filter(|conn| matches!(conn.read(&mut probe), Ok(_) | Err(NetError::WouldBlock)))
        .count();
    idle.iter().for_each(Endpoint::close);
    IdleActiveStats {
        idle_connected,
        idle_survivors,
        active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::start_http_backend;
    use flick_net::{SimNetwork, StackModel};

    /// A fresh sim network and a fresh kernel stack. Port 0 is an
    /// ephemeral port on the kernel and a free one on the fresh sim.
    fn fabrics() -> [Fabric; 2] {
        [
            Fabric::from(&SimNetwork::new(StackModel::Free)),
            Fabric::kernel(),
        ]
    }

    /// Runs the persistent-connection generator against a fresh back-end.
    fn measure_a_direct_backend(fabric: &Fabric) {
        let backend = start_http_backend(fabric, 0, b"ok");
        let config = HttpLoadConfig {
            port: backend.port(),
            concurrency: 4,
            duration: Duration::from_millis(200),
            persistent: true,
            timeout: Duration::from_secs(2),
            ..Default::default()
        };
        let stats = run_http_load(fabric, &config);
        assert!(
            stats.completed > 10,
            "{fabric:?}: expected some completed requests, got {stats:?}"
        );
        assert!(stats.requests_per_sec() > 0.0);
        assert!(stats.latency.mean > Duration::ZERO);
    }

    #[test]
    fn load_generator_measures_a_direct_backend() {
        measure_a_direct_backend(&Fabric::from(&SimNetwork::new(StackModel::Free)));
    }

    #[test]
    fn load_generator_measures_a_tiny_kernel_server() {
        measure_a_direct_backend(&Fabric::kernel());
    }

    #[test]
    fn hostile_ratio_sends_poison_without_sinking_the_run() {
        for fabric in fabrics() {
            let backend = start_http_backend(&fabric, 0, b"ok");
            let config = HttpLoadConfig {
                port: backend.port(),
                concurrency: 4,
                duration: Duration::from_millis(200),
                persistent: true,
                timeout: Duration::from_secs(2),
                hostile_ratio: 0.25,
                ..Default::default()
            };
            let stats = run_http_load(&fabric, &config);
            assert!(
                stats.malformed_sent > 0,
                "{fabric:?}: poison never drawn: {stats:?}"
            );
            assert!(
                stats.completed > 10,
                "{fabric:?}: clean traffic must keep flowing: {stats:?}"
            );
        }
    }

    #[test]
    fn non_persistent_mode_reconnects_per_request() {
        for fabric in fabrics() {
            let backend = start_http_backend(&fabric, 0, b"ok");
            let config = HttpLoadConfig {
                port: backend.port(),
                concurrency: 2,
                duration: Duration::from_millis(150),
                persistent: false,
                timeout: Duration::from_secs(2),
                ..Default::default()
            };
            let stats = run_http_load(&fabric, &config);
            assert!(stats.completed > 5, "{fabric:?}: {stats:?}");
            let opened = fabric.stats().snapshot().connections_opened;
            // Roughly one connection per completed request.
            assert!(
                opened >= stats.completed,
                "{fabric:?}: opened {opened}, completed {}",
                stats.completed
            );
        }
    }

    #[test]
    fn idle_active_driver_counts_survivors() {
        let fabric = Fabric::kernel();
        let backend = start_http_backend(&fabric, 0, b"tiny");
        let stats = run_idle_active_load(
            &fabric,
            &IdleActiveConfig {
                idle_connections: 3,
                active: HttpLoadConfig {
                    port: backend.port(),
                    concurrency: 2,
                    duration: Duration::from_millis(200),
                    timeout: Duration::from_secs(2),
                    ..Default::default()
                },
            },
        );
        assert_eq!(stats.idle_connected, 3);
        assert_eq!(
            stats.idle_survivors, 3,
            "idle connections must outlive the run"
        );
        assert!(stats.active.completed > 0, "{stats:?}");
    }

    #[test]
    fn idle_pool_connects_in_parallel_with_remainder_quotas() {
        // More connections than workers, not divisible by the pool size:
        // the per-worker quotas must still sum to the request.
        let fabric = Fabric::kernel();
        let listener = fabric.listen(0).unwrap();
        let port = listener.port();
        let accepter = std::thread::spawn(move || {
            (0..19)
                .map_while(|_| listener.accept_timeout(Duration::from_secs(5)).ok())
                .collect::<Vec<_>>()
        });
        let idle = connect_idle_pool(&fabric, port, 19);
        assert_eq!(idle.len(), 19);
        assert_eq!(accepter.join().unwrap().len(), 19);
    }

    #[test]
    fn fetch_smoke_returns_a_parsed_response() {
        for fabric in fabrics() {
            let backend = start_http_backend(&fabric, 0, b"tiny");
            let response =
                fetch_http(&fabric, backend.port(), "/x", Duration::from_secs(2)).unwrap();
            let text = String::from_utf8_lossy(&response);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{fabric:?}: {text}");
            assert!(text.ends_with("tiny"), "{fabric:?}: {text}");
        }
    }
}
