//! Behavioural models of the baseline systems the paper compares against.
//!
//! The paper benchmarks FLICK against Apache (`mod_proxy_balancer`), Nginx
//! and Moxi. Those exact systems cannot be rebuilt here; what the figures
//! depend on is their *processing model* and relative per-request overheads
//! (see `DESIGN.md` §3, substitution 3). Each baseline below is a real
//! concurrent server running on the same simulated substrate:
//!
//! * [`ApacheLikeProxy`] and [`NginxLikeProxy`] — the same HTTP proxy: one
//!   thread per client connection (the prefork/worker MPM shape), which
//!   polls its client and back-end in turn and sleeps 20 µs whenever the
//!   back-end has nothing to read, and one back-end connection per client,
//!   opened at accept and closed with the client. They differ only in the per-request
//!   processing cost, [`APACHE_REQUEST_COST`] against the lighter
//!   [`NGINX_REQUEST_COST`]; neither models Nginx's event loop;
//! * [`MoxiLikeProxy`] — a multi-threaded Memcached proxy whose workers
//!   share one lock-protected table of backend connections, which is what
//!   limits its scaling beyond a few cores (Figure 5).
//!
//! The per-request CPU costs are charged with the same busy-wait mechanism
//! as the stack models and are calibrated from the paper's single-machine
//! results (Apache ≈ 159 krps, Nginx ≈ 217 krps, FLICK ≈ 306 krps peak for
//! the static-web workload).

use flick_grammar::http::HttpCodec;
use flick_grammar::{memcached, ParseOutcome, WireCodec};
use flick_net::{Endpoint, NetError, SharedBuf, SimNetwork, StackCosts};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-request processing cost of the Apache-like proxy.
pub const APACHE_REQUEST_COST: Duration = Duration::from_micros(6);
/// Per-request processing cost of the Nginx-like proxy.
pub const NGINX_REQUEST_COST: Duration = Duration::from_micros(4);
/// Per-request processing cost of the Moxi-like proxy (outside its lock).
pub const MOXI_REQUEST_COST: Duration = Duration::from_micros(5);
/// Time the Moxi-like proxy holds its shared backend-table lock per request.
pub const MOXI_LOCK_HOLD: Duration = Duration::from_micros(4);

/// How many bytes a baseline reads per socket call.
const READ_SIZE: usize = 8192;

/// Handle to a running baseline; dropping it stops the server.
pub struct BaselineHandle {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    requests: Arc<AtomicU64>,
    name: &'static str,
}

impl std::fmt::Debug for BaselineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineHandle")
            .field("name", &self.name)
            .finish()
    }
}

impl BaselineHandle {
    /// Requests proxied so far.
    pub fn requests_proxied(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Stops the baseline and joins its threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for BaselineHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Proxies one HTTP client connection over one backend connection until
/// either side closes. Returns the number of requests proxied.
fn proxy_http_connection(
    client: &Endpoint,
    backend: &Endpoint,
    per_request_cost: Duration,
    stop: &AtomicBool,
    requests: &AtomicU64,
) {
    let codec = HttpCodec::new();
    // Requests are parsed out of a zero-copy view of what has arrived, so
    // a request that arrives in several reads is not copied per read.
    let mut inbuf = SharedBuf::new(READ_SIZE);
    let mut outbuf = Vec::new();
    let mut chunk = [0u8; READ_SIZE];
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        // Client -> backend (whole requests).
        match client.read(inbuf.tail_mut(READ_SIZE).0) {
            Ok(n) => {
                inbuf.commit(n);
                while let Ok(ParseOutcome::Complete { consumed, .. }) =
                    codec.parse_bytes(&inbuf.view(), None)
                {
                    StackCosts::charge(per_request_cost);
                    if backend.write_all(&inbuf.view()[..consumed]).is_err() {
                        client.close();
                        return;
                    }
                    inbuf.consume(consumed);
                    requests.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(NetError::WouldBlock) => {}
            Err(_) => break,
        }
        // Backend -> client (responses are forwarded as raw bytes).
        match backend.read(&mut chunk) {
            Ok(n) => {
                outbuf.extend_from_slice(&chunk[..n]);
                if client.write_all(&outbuf).is_err() {
                    break;
                }
                outbuf.clear();
            }
            Err(NetError::WouldBlock) => {
                std::thread::sleep(Duration::from_micros(20));
            }
            Err(_) => break,
        }
    }
    client.close();
    backend.close();
}

/// The Apache-like baseline: a thread per client connection.
pub struct ApacheLikeProxy;

impl ApacheLikeProxy {
    /// Starts the proxy on `port`, balancing over `backend_ports`.
    pub fn start(net: &Arc<SimNetwork>, port: u16, backend_ports: Vec<u16>) -> BaselineHandle {
        start_threaded_http_proxy(net, port, backend_ports, APACHE_REQUEST_COST, "apache")
    }
}

/// The Nginx-like baseline: the Apache-like proxy's thread per client
/// connection, charged the lighter [`NGINX_REQUEST_COST`] per request.
pub struct NginxLikeProxy;

impl NginxLikeProxy {
    /// Starts the proxy on `port`, balancing over `backend_ports`.
    pub fn start(net: &Arc<SimNetwork>, port: u16, backend_ports: Vec<u16>) -> BaselineHandle {
        start_threaded_http_proxy(net, port, backend_ports, NGINX_REQUEST_COST, "nginx")
    }
}

fn start_threaded_http_proxy(
    net: &Arc<SimNetwork>,
    port: u16,
    backend_ports: Vec<u16>,
    per_request_cost: Duration,
    name: &'static str,
) -> BaselineHandle {
    let listener = net.listen(port).expect("baseline port free");
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    let net = Arc::clone(net);
    let accept_stop = Arc::clone(&stop);
    let accept_requests = Arc::clone(&requests);
    let next_backend = Arc::new(AtomicU64::new(0));
    let acceptor = std::thread::spawn(move || {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        while !accept_stop.load(Ordering::Acquire) {
            match listener.accept_timeout(Duration::from_millis(10)) {
                Ok(client) => {
                    let idx = next_backend.fetch_add(1, Ordering::Relaxed) as usize
                        % backend_ports.len().max(1);
                    let backend_port = backend_ports[idx];
                    let Ok(backend) = net.connect(backend_port) else {
                        client.close();
                        continue;
                    };
                    let stop = Arc::clone(&accept_stop);
                    let requests = Arc::clone(&accept_requests);
                    workers.push(std::thread::spawn(move || {
                        proxy_http_connection(&client, &backend, per_request_cost, &stop, &requests)
                    }));
                }
                Err(NetError::TimedOut) => continue,
                Err(_) => break,
            }
        }
        listener.close();
        for w in workers {
            let _ = w.join();
        }
    });
    BaselineHandle {
        stop,
        threads: vec![acceptor],
        requests,
        name,
    }
}

/// The Moxi-like baseline Memcached proxy.
///
/// Worker threads (one per client connection, as Moxi's libconn model
/// effectively provides) share a single lock-protected table of persistent
/// backend connections; the lock is held for the whole request/response
/// exchange with the backend, which is the contention that makes Moxi's
/// throughput peak at a small number of cores in Figure 5.
pub struct MoxiLikeProxy;

impl MoxiLikeProxy {
    /// Starts the proxy on `port` over `backend_ports`.
    pub fn start(net: &Arc<SimNetwork>, port: u16, backend_ports: Vec<u16>) -> BaselineHandle {
        let listener = net.listen(port).expect("baseline port free");
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let net_arc = Arc::clone(net);
        // The shared backend-connection table.
        let backends: Arc<Vec<Mutex<Option<Endpoint>>>> =
            Arc::new(backend_ports.iter().map(|_| Mutex::new(None)).collect());
        let accept_stop = Arc::clone(&stop);
        let accept_requests = Arc::clone(&requests);
        let acceptor = std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::Acquire) {
                match listener.accept_timeout(Duration::from_millis(10)) {
                    Ok(client) => {
                        let stop = Arc::clone(&accept_stop);
                        let requests = Arc::clone(&accept_requests);
                        let backends = Arc::clone(&backends);
                        let backend_ports = backend_ports.clone();
                        let net = Arc::clone(&net_arc);
                        workers.push(std::thread::spawn(move || {
                            moxi_worker(&net, &client, &backend_ports, &backends, &stop, &requests)
                        }));
                    }
                    Err(NetError::TimedOut) => continue,
                    Err(_) => break,
                }
            }
            listener.close();
            for w in workers {
                let _ = w.join();
            }
        });
        BaselineHandle {
            stop,
            threads: vec![acceptor],
            requests,
            name: "moxi",
        }
    }
}

fn moxi_worker(
    net: &Arc<SimNetwork>,
    client: &Endpoint,
    backend_ports: &[u16],
    backends: &Arc<Vec<Mutex<Option<Endpoint>>>>,
    stop: &AtomicBool,
    requests: &AtomicU64,
) {
    let codec = memcached::MemcachedCodec::new();
    let mut inbuf = SharedBuf::new(READ_SIZE);
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        match client.read_timeout(inbuf.tail_mut(READ_SIZE).0, Duration::from_millis(20)) {
            Ok(n) => inbuf.commit(n),
            Err(NetError::TimedOut) => continue,
            Err(_) => break,
        }
        while let Ok(ParseOutcome::Complete { message, consumed }) =
            codec.parse_bytes(&inbuf.view(), None)
        {
            StackCosts::charge(MOXI_REQUEST_COST);
            let key = message.str_field("key").unwrap_or("");
            let idx = (fxhash(key.as_bytes()) as usize) % backend_ports.len().max(1);
            let request_bytes = inbuf.view().slice(..consumed);
            inbuf.consume(consumed);
            // The shared-table lock is held across the whole backend exchange.
            let mut slot = backends[idx].lock();
            StackCosts::charge(MOXI_LOCK_HOLD);
            if slot.is_none() || slot.as_ref().map(|c| c.peer_closed()).unwrap_or(true) {
                *slot = net.connect(backend_ports[idx]).ok();
            }
            let Some(backend) = slot.as_ref() else {
                continue;
            };
            if backend.write_all(&request_bytes).is_err() {
                *slot = None;
                continue;
            }
            // Read one response from the backend and relay it.
            let mut resp = SharedBuf::new(READ_SIZE);
            let ok = loop {
                match backend.read_timeout(resp.tail_mut(READ_SIZE).0, Duration::from_secs(2)) {
                    Ok(n) => {
                        resp.commit(n);
                        match codec.parse_bytes(&resp.view(), None) {
                            Ok(ParseOutcome::Complete { consumed, .. }) => break consumed > 0,
                            Ok(ParseOutcome::Incomplete) => continue,
                            Err(_) => break false,
                        }
                    }
                    Err(_) => break false,
                }
            };
            drop(slot);
            if ok {
                requests.fetch_add(1, Ordering::Relaxed);
                if client.write_all(&resp.view()).is_err() {
                    client.close();
                    return;
                }
            }
        }
    }
    client.close();
}

fn fxhash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_net::StackModel;
    use flick_workload::backends::{start_http_backend, start_memcached_backend};
    use flick_workload::http::{run_http_load, HttpLoadConfig};
    use flick_workload::memcached::{run_memcached_load, MemcachedLoadConfig};

    #[test]
    fn apache_like_proxy_forwards_http() {
        let net = SimNetwork::new(StackModel::Free);
        let _b1 = start_http_backend(&net, 12001, b"apache-backend");
        let _b2 = start_http_backend(&net, 12002, b"apache-backend");
        let proxy = ApacheLikeProxy::start(&net, 12000, vec![12001, 12002]);
        let stats = run_http_load(
            &net,
            &HttpLoadConfig {
                port: 12000,
                concurrency: 4,
                duration: Duration::from_millis(200),
                ..Default::default()
            },
        );
        assert!(stats.completed > 5, "{stats:?}");
        assert!(proxy.requests_proxied() > 0);
    }

    #[test]
    fn nginx_like_proxy_forwards_http() {
        let net = SimNetwork::new(StackModel::Free);
        let _b = start_http_backend(&net, 12101, b"nginx-backend");
        let _proxy = NginxLikeProxy::start(&net, 12100, vec![12101]);
        let stats = run_http_load(
            &net,
            &HttpLoadConfig {
                port: 12100,
                concurrency: 4,
                duration: Duration::from_millis(200),
                ..Default::default()
            },
        );
        assert!(stats.completed > 5, "{stats:?}");
    }

    #[test]
    fn moxi_like_proxy_forwards_memcached() {
        let net = SimNetwork::new(StackModel::Free);
        let _b1 = start_memcached_backend(&net, 12201);
        let _b2 = start_memcached_backend(&net, 12202);
        let proxy = MoxiLikeProxy::start(&net, 12200, vec![12201, 12202]);
        let stats = run_memcached_load(
            &net,
            &MemcachedLoadConfig {
                port: 12200,
                clients: 8,
                duration: Duration::from_millis(250),
                key_space: 64,
                ..Default::default()
            },
        );
        assert!(stats.completed > 10, "{stats:?}");
        assert!(proxy.requests_proxied() > 10);
    }
}
