//! Real-socket workload driver: a closed-loop HTTP client pool over
//! loopback TCP.
//!
//! The OS-transport counterpart of [`crate::http::run_http_load`]: the same
//! ApacheBench-style closed loop (each client keeps exactly one request
//! outstanding) but over blocking `std::net::TcpStream`s against a real
//! listening socket, with the same [`RunStats`] latency/throughput report.
//! Used by `fig_webserver --tcp`, the e2e loopback bench point in
//! `bench_guard`, and the `tcp_transport` integration suite.

use crate::metrics::{LatencyRecorder, RunStats};
use flick_grammar::http::HttpCodec;
use flick_grammar::{ParseOutcome, WireCodec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one loopback HTTP load-generation run.
#[derive(Debug, Clone)]
pub struct TcpHttpLoadConfig {
    /// Number of concurrent client connections (threads).
    pub concurrency: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// `true` for HTTP keep-alive; `false` opens a new connection per
    /// request.
    pub persistent: bool,
    /// Per-request timeout before the request counts as failed.
    pub timeout: Duration,
}

impl Default for TcpHttpLoadConfig {
    fn default() -> Self {
        TcpHttpLoadConfig {
            concurrency: 16,
            duration: Duration::from_millis(500),
            persistent: true,
            timeout: Duration::from_secs(5),
        }
    }
}

fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Issues one GET and returns the raw response bytes (headers + body) —
/// the in-process equivalent of a `curl` smoke test.
pub fn fetch_http(addr: &str, path: &str, timeout: Duration) -> std::io::Result<Vec<u8>> {
    let codec = HttpCodec::new();
    let mut stream = connect(addr, timeout)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let started = Instant::now();
    while started.elapsed() < timeout {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                response.extend_from_slice(&chunk[..n]);
                if matches!(
                    codec.parse(&response, None),
                    Ok(ParseOutcome::Complete { .. })
                ) {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(response)
}

/// Runs a closed-loop HTTP workload over real loopback sockets.
pub fn run_tcp_http_load(addr: &str, config: &TcpHttpLoadConfig) -> RunStats {
    let recorder = LatencyRecorder::new();
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let deadline = start + config.duration;
    let mut handles = Vec::new();
    for client_id in 0..config.concurrency {
        let addr = addr.to_string();
        let config = config.clone();
        let recorder = recorder.clone();
        let completed = Arc::clone(&completed);
        let failed = Arc::clone(&failed);
        let bytes = Arc::clone(&bytes);
        handles.push(std::thread::spawn(move || {
            let codec = HttpCodec::new();
            let mut connection: Option<TcpStream> = None;
            let mut request_id = 0usize;
            while Instant::now() < deadline {
                if connection.is_none() {
                    match connect(&addr, config.timeout) {
                        Ok(stream) => connection = Some(stream),
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                    }
                }
                let conn = connection.as_mut().expect("connection established");
                request_id += 1;
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
                    match conn.read(&mut chunk) {
                        Ok(0) => break,
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
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
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
                    connection = None; // Drop closes the socket.
                }
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
        malformed_sent: 0,
    }
}

/// Configuration of a c10k-style idle+active run: a large pool of
/// connected-but-silent clients is held open for the whole run while a
/// small closed-loop subset drives requests through the same listener.
#[derive(Debug, Clone)]
pub struct TcpIdleActiveConfig {
    /// Connections opened before the run and held idle (no bytes sent)
    /// until it finishes.
    pub idle_connections: usize,
    /// The active closed-loop subset.
    pub active: TcpHttpLoadConfig,
}

/// Result of [`run_tcp_idle_active_load`].
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

/// Opens up to `count` idle connections from `count.min(8)` worker
/// threads. Each worker stops at its first connect failure (fd
/// exhaustion, locally or remotely, hits every worker the same way), so
/// the pool as a whole degrades to "measure with what we got" exactly
/// like the old serial loop did.
fn connect_idle_pool(addr: &str, count: usize, timeout: Duration) -> Vec<TcpStream> {
    let workers = IDLE_CONNECT_WORKERS.min(count.max(1));
    let mut handles = Vec::with_capacity(workers);
    for worker in 0..workers {
        // Spread the remainder over the first `count % workers` workers.
        let quota = count / workers + usize::from(worker < count % workers);
        let addr = addr.to_string();
        handles.push(std::thread::spawn(move || {
            let mut opened = Vec::with_capacity(quota);
            for _ in 0..quota {
                match connect(&addr, timeout) {
                    Ok(stream) => opened.push(stream),
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
pub fn run_tcp_idle_active_load(addr: &str, config: &TcpIdleActiveConfig) -> IdleActiveStats {
    let idle = connect_idle_pool(addr, config.idle_connections, config.active.timeout);
    let idle_connected = idle.len();
    // The client-side connects above complete as soon as the kernel
    // handshake does — the server may still be draining a huge accept
    // backlog. One warm-up request (accepted behind the whole idle pool)
    // settles the race: once it answers, the server has caught up, and
    // the active loop below measures steady state rather than the drain.
    let _ = fetch_http(addr, "/warmup", config.active.timeout.max(WARMUP_TIMEOUT));
    let active = run_tcp_http_load(addr, &config.active);
    // An idle connection survived if it still reads as "no data yet"
    // rather than EOF/reset.
    let idle_survivors = idle
        .iter()
        .filter(|stream| {
            if stream.set_nonblocking(true).is_err() {
                return false;
            }
            let mut probe = [0u8; 1];
            match (&**stream).read(&mut probe) {
                Ok(0) => false,
                Ok(_) => true,
                Err(e) => e.kind() == std::io::ErrorKind::WouldBlock,
            }
        })
        .count();
    IdleActiveStats {
        idle_connected,
        idle_survivors,
        active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A minimal blocking HTTP server thread: enough to validate the
    /// driver without the FLICK platform (which has its own suite).
    fn start_tiny_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
        let handle = std::thread::spawn(move || {
            // Serve a bounded number of connections, then exit.
            for stream in listener.incoming().take(8) {
                let Ok(mut stream) = stream else { continue };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    let body = b"tiny";
                    while let Ok(n) = stream.read(&mut buf) {
                        if n == 0 {
                            break;
                        }
                        let response =
                            format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
                        if stream.write_all(response.as_bytes()).is_err()
                            || stream.write_all(body).is_err()
                        {
                            break;
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn driver_measures_a_tiny_server() {
        let (addr, _handle) = start_tiny_server();
        let stats = run_tcp_http_load(
            &addr,
            &TcpHttpLoadConfig {
                concurrency: 2,
                duration: Duration::from_millis(200),
                persistent: true,
                timeout: Duration::from_secs(2),
            },
        );
        assert!(stats.completed > 5, "{stats:?}");
        assert!(stats.requests_per_sec() > 0.0);
    }

    #[test]
    fn idle_active_driver_counts_survivors() {
        let (addr, _handle) = start_tiny_server();
        let stats = run_tcp_idle_active_load(
            &addr,
            &TcpIdleActiveConfig {
                idle_connections: 3,
                active: TcpHttpLoadConfig {
                    concurrency: 2,
                    duration: Duration::from_millis(200),
                    persistent: true,
                    timeout: Duration::from_secs(2),
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
        let accepter = std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming().take(19).flatten() {
                held.push(stream);
            }
            held
        });
        let idle = connect_idle_pool(&addr, 19, Duration::from_secs(5));
        assert_eq!(idle.len(), 19);
        drop(idle);
        let _ = accepter.join();
    }

    #[test]
    fn fetch_smoke_returns_a_parsed_response() {
        let (addr, _handle) = start_tiny_server();
        let response = fetch_http(&addr, "/x", Duration::from_secs(2)).unwrap();
        assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200 OK"));
    }
}
