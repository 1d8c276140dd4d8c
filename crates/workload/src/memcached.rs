//! Closed-loop Memcached binary-protocol client fleet (the libmemcached
//! stand-in of §6.2: every client sends a single request and waits for the
//! response before sending the next).

use crate::fabric::Fabric;
use crate::metrics::{LatencyRecorder, RunStats};
use flick_grammar::{memcached, ParseOutcome, WireCodec};
use flick_net::{NetError, SimRng};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one Memcached load-generation run.
#[derive(Debug, Clone)]
pub struct MemcachedLoadConfig {
    /// Port of the proxy under test.
    pub port: u16,
    /// Number of concurrent clients (the paper uses 128).
    pub clients: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Size of the key space the clients draw from.
    pub key_space: usize,
    /// Fraction of `GETK` requests (the remainder are `GET`s); the FLICK
    /// cache router only caches `GETK` responses.
    pub getk_fraction: f64,
    /// Per-request timeout.
    pub timeout: Duration,
    /// Seed for the clients' key/opcode choices. `None` keeps the historic
    /// per-client streams (benchmarks stay comparable across runs); the
    /// simulation harness sets it so one scenario seed derives every random
    /// choice in the run.
    pub seed: Option<u64>,
}

impl Default for MemcachedLoadConfig {
    fn default() -> Self {
        MemcachedLoadConfig {
            port: 11211,
            clients: 32,
            duration: Duration::from_millis(500),
            key_space: 1000,
            getk_fraction: 1.0,
            timeout: Duration::from_secs(5),
            seed: None,
        }
    }
}

/// Runs the closed-loop Memcached workload on `fabric` and reports
/// throughput/latency. A `GETK` response must carry its request's key: one
/// that carries another counts as failed, so a proxy that crosses
/// responses between clients or requests cannot pass.
pub fn run_memcached_load(fabric: impl Into<Fabric>, config: &MemcachedLoadConfig) -> RunStats {
    let fabric = fabric.into();
    let recorder = LatencyRecorder::new();
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let deadline = start + config.duration;
    let mut handles = Vec::new();
    for client_id in 0..config.clients {
        let fabric = fabric.clone();
        let config = config.clone();
        let recorder = recorder.clone();
        let completed = Arc::clone(&completed);
        let failed = Arc::clone(&failed);
        let bytes = Arc::clone(&bytes);
        handles.push(std::thread::spawn(move || {
            let codec = memcached::MemcachedCodec::new();
            let mut rng = match config.seed {
                Some(seed) => SimRng::new(seed).fork_indexed(client_id as u64),
                None => SimRng::new(client_id as u64 + 1),
            };
            let Ok(conn) = fabric.connect(config.port) else {
                failed.fetch_add(1, Ordering::Relaxed);
                return;
            };
            while Instant::now() < deadline {
                let key = format!("key:{}", rng.gen_range(0..config.key_space.max(1)));
                let opcode = if rng.gen_bool(config.getk_fraction.clamp(0.0, 1.0)) {
                    memcached::opcode::GETK
                } else {
                    memcached::opcode::GET
                };
                let request = memcached::request(opcode, key.as_bytes(), b"", b"");
                let mut wire = Vec::new();
                codec
                    .serialize(&request, &mut wire)
                    .expect("request serialises");
                let started = Instant::now();
                if conn.write_all(&wire).is_err() {
                    failed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                let mut buf = Vec::with_capacity(256);
                let mut chunk = [0u8; 4096];
                let mut ok = false;
                while started.elapsed() < config.timeout {
                    match conn.read_timeout(&mut chunk, config.timeout) {
                        Ok(n) => {
                            buf.extend_from_slice(&chunk[..n]);
                            match codec.parse(&buf, None) {
                                Ok(ParseOutcome::Complete { message, consumed }) => {
                                    bytes.fetch_add(consumed as u64, Ordering::Relaxed);
                                    ok = opcode != memcached::opcode::GETK
                                        || message.str_field("key") == Some(key.as_str());
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
                    break;
                }
            }
            conn.close();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::start_memcached_backend;
    use flick_net::{SimNetwork, StackModel};

    #[test]
    fn memcached_load_against_a_direct_backend() {
        let net = SimNetwork::new(StackModel::Free);
        let _backend = start_memcached_backend(&net, 9501);
        let config = MemcachedLoadConfig {
            port: 9501,
            clients: 4,
            duration: Duration::from_millis(200),
            key_space: 16,
            getk_fraction: 1.0,
            timeout: Duration::from_secs(2),
            seed: None,
        };
        let stats = run_memcached_load(&net, &config);
        assert!(stats.completed > 10, "{stats:?}");
        assert_eq!(stats.failed, 0);
        assert!(stats.latency.p99 >= stats.latency.p50);
    }

    /// A `GETK` answered with another key is a failure: a server that
    /// answers every request with the same response fails every request.
    #[test]
    fn a_getk_answered_with_another_key_fails() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(9502).unwrap();
        let server = std::thread::spawn(move || {
            let conn = listener.accept_timeout(Duration::from_secs(5)).unwrap();
            let mut wire = Vec::new();
            let response = memcached::response(memcached::opcode::GETK, 0, b"not-yours", b"v");
            memcached::MemcachedCodec::new()
                .serialize(&response, &mut wire)
                .unwrap();
            let mut buf = [0u8; 512];
            while conn.read_timeout(&mut buf, Duration::from_secs(5)).is_ok() {
                let _ = conn.write_all(&wire);
            }
        });
        let config = MemcachedLoadConfig {
            port: 9502,
            clients: 1,
            duration: Duration::from_millis(50),
            ..Default::default()
        };
        let stats = run_memcached_load(&net, &config);
        assert_eq!((stats.completed, stats.failed), (0, 1), "{stats:?}");
        server.join().unwrap();
    }
}
