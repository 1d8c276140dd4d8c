//! Closed-loop HTTP client fleet (the ApacheBench stand-in).

use crate::metrics::{LatencyRecorder, RunStats};
use flick_grammar::http::HttpCodec;
use flick_grammar::{ParseOutcome, WireCodec};
use flick_net::{NetError, SimNetwork, SimRng};
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

/// Runs a closed-loop HTTP workload: each client keeps exactly one request
/// outstanding, as ApacheBench does.
pub fn run_http_load(net: &Arc<SimNetwork>, config: &HttpLoadConfig) -> RunStats {
    let recorder = LatencyRecorder::new();
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    let malformed = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let deadline = start + config.duration;
    let mut handles = Vec::new();
    for client_id in 0..config.concurrency {
        let net = Arc::clone(net);
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
                    match net.connect(config.port) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::start_http_backend;
    use flick_net::StackModel;

    #[test]
    fn load_generator_measures_a_direct_backend() {
        let net = SimNetwork::new(StackModel::Free);
        let _backend = start_http_backend(&net, 9401, b"ok");
        let config = HttpLoadConfig {
            port: 9401,
            concurrency: 4,
            duration: Duration::from_millis(200),
            persistent: true,
            timeout: Duration::from_secs(2),
            ..Default::default()
        };
        let stats = run_http_load(&net, &config);
        assert!(
            stats.completed > 10,
            "expected some completed requests, got {stats:?}"
        );
        assert!(stats.requests_per_sec() > 0.0);
        assert!(stats.latency.mean > Duration::ZERO);
    }

    #[test]
    fn hostile_ratio_sends_poison_without_sinking_the_run() {
        let net = SimNetwork::new(StackModel::Free);
        let _backend = start_http_backend(&net, 9403, b"ok");
        let config = HttpLoadConfig {
            port: 9403,
            concurrency: 4,
            duration: Duration::from_millis(200),
            persistent: true,
            timeout: Duration::from_secs(2),
            hostile_ratio: 0.25,
            ..Default::default()
        };
        let stats = run_http_load(&net, &config);
        assert!(stats.malformed_sent > 0, "poison never drawn: {stats:?}");
        assert!(
            stats.completed > 10,
            "clean traffic must keep flowing: {stats:?}"
        );
    }

    #[test]
    fn non_persistent_mode_reconnects_per_request() {
        let net = SimNetwork::new(StackModel::Free);
        let _backend = start_http_backend(&net, 9402, b"ok");
        let config = HttpLoadConfig {
            port: 9402,
            concurrency: 2,
            duration: Duration::from_millis(150),
            persistent: false,
            timeout: Duration::from_secs(2),
            ..Default::default()
        };
        let stats = run_http_load(&net, &config);
        assert!(stats.completed > 5);
        let opened = net.stats().snapshot().connections_opened;
        // Roughly one connection per completed request (plus the warm-up).
        assert!(
            opened >= stats.completed,
            "opened {opened}, completed {}",
            stats.completed
        );
    }
}
