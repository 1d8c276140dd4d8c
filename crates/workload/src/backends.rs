//! Back-end servers used behind the middleboxes under test.
//!
//! The paper's testbed runs Apache web servers behind the HTTP load balancer
//! and Memcached servers behind the proxy. These are in-process equivalents:
//! each back-end accepts connections on the simulated network and serves
//! requests from a small thread pool (back-ends are never the bottleneck in
//! the experiments, mirroring §6.2's "small payloads so the network and the
//! backends are never the bottleneck").

use flick_grammar::http::HttpCodec;
use flick_grammar::{memcached, ParseOutcome, WireCodec};
use flick_net::{NetError, SimListener, SimNetwork};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to a running back-end server; dropping it stops the server.
pub struct BackendHandle {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    requests: Arc<AtomicU64>,
    port: u16,
}

impl std::fmt::Debug for BackendHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendHandle")
            .field("port", &self.port)
            .finish()
    }
}

impl BackendHandle {
    /// The port the back-end listens on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Number of requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Stops the server and joins its threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for BackendHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn acceptor_loop<F>(listener: SimListener, stop: Arc<AtomicBool>, handler: F) -> Vec<JoinHandle<()>>
where
    F: Fn(flick_net::Endpoint) + Send + Sync + 'static,
{
    let handler = Arc::new(handler);
    let accept_stop = Arc::clone(&stop);
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let conn_threads_accept = Arc::clone(&conn_threads);
    let acceptor = std::thread::spawn(move || {
        while !accept_stop.load(Ordering::Acquire) {
            match listener.accept_timeout(Duration::from_millis(10)) {
                Ok(conn) => {
                    let handler = Arc::clone(&handler);
                    let t = std::thread::spawn(move || handler(conn));
                    conn_threads_accept.lock().push(t);
                }
                Err(NetError::TimedOut) => continue,
                Err(_) => break,
            }
        }
        listener.close();
    });
    vec![acceptor]
}

/// Starts a static HTTP back-end serving `body` for every request.
pub fn start_http_backend(net: &Arc<SimNetwork>, port: u16, body: &[u8]) -> BackendHandle {
    let listener = net.listen(port).expect("backend port free");
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    let body = body.to_vec();
    let codec = HttpCodec::new();
    let requests_handler = Arc::clone(&requests);
    let stop_handler = Arc::clone(&stop);
    let threads = acceptor_loop(listener, Arc::clone(&stop), move |conn| {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 8192];
        loop {
            if stop_handler.load(Ordering::Acquire) {
                conn.close();
                return;
            }
            match conn.read_timeout(&mut chunk, Duration::from_millis(50)) {
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(NetError::TimedOut) => continue,
                Err(_) => {
                    conn.close();
                    return;
                }
            }
            loop {
                match codec.parse(&buf, None) {
                    Ok(ParseOutcome::Complete { message, consumed }) => {
                        buf.drain(..consumed);
                        requests_handler.fetch_add(1, Ordering::Relaxed);
                        let mut out = Vec::new();
                        codec
                            .serialize(&flick_grammar::http::response(200, &body), &mut out)
                            .expect("static response serialises");
                        if conn.write_all(&out).is_err() {
                            conn.close();
                            return;
                        }
                        if flick_grammar::http::wants_close(&message) {
                            conn.close();
                            return;
                        }
                    }
                    Ok(ParseOutcome::Incomplete) => break,
                    Err(_) => {
                        conn.close();
                        return;
                    }
                }
            }
        }
    });
    BackendHandle {
        stop,
        threads,
        requests,
        port,
    }
}

/// Starts an in-memory Memcached back-end speaking the binary protocol.
///
/// `GETK`/`GET` requests are answered with the stored value (or a fixed
/// filler value when the key is unknown), `SET` stores the value.
pub fn start_memcached_backend(net: &Arc<SimNetwork>, port: u16) -> BackendHandle {
    let listener = net.listen(port).expect("backend port free");
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    let store: Arc<Mutex<HashMap<String, Vec<u8>>>> = Arc::new(Mutex::new(HashMap::new()));
    let codec = memcached::MemcachedCodec::new();
    let requests_handler = Arc::clone(&requests);
    let stop_handler = Arc::clone(&stop);
    let threads = acceptor_loop(listener, Arc::clone(&stop), move |conn| {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 8192];
        loop {
            if stop_handler.load(Ordering::Acquire) {
                conn.close();
                return;
            }
            match conn.read_timeout(&mut chunk, Duration::from_millis(50)) {
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(NetError::TimedOut) => continue,
                Err(_) => {
                    conn.close();
                    return;
                }
            }
            loop {
                match codec.parse(&buf, None) {
                    Ok(ParseOutcome::Complete { message, consumed }) => {
                        buf.drain(..consumed);
                        requests_handler.fetch_add(1, Ordering::Relaxed);
                        let key = message.str_field("key").unwrap_or("").to_string();
                        let opcode = message.uint_field("opcode").unwrap_or(0);
                        let response = if opcode == memcached::opcode::SET {
                            let value = message.bytes_field("value").unwrap_or(&[]).to_vec();
                            store.lock().insert(key.clone(), value);
                            memcached::response(opcode, 0, b"", b"")
                        } else {
                            let value = store
                                .lock()
                                .get(&key)
                                .cloned()
                                .unwrap_or_else(|| b"default-value-from-backend".to_vec());
                            memcached::response(opcode, 0, key.as_bytes(), &value)
                        };
                        let mut out = Vec::new();
                        codec
                            .serialize(&response, &mut out)
                            .expect("response serialises");
                        if conn.write_all(&out).is_err() {
                            conn.close();
                            return;
                        }
                    }
                    Ok(ParseOutcome::Incomplete) => break,
                    Err(_) => {
                        conn.close();
                        return;
                    }
                }
            }
        }
    });
    BackendHandle {
        stop,
        threads,
        requests,
        port,
    }
}

/// Starts a byte-sink back-end (the Hadoop reducer): it drains everything it
/// receives and counts records and bytes.
pub fn start_sink_backend(net: &Arc<SimNetwork>, port: u16) -> (BackendHandle, Arc<AtomicU64>) {
    let listener = net.listen(port).expect("backend port free");
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    let bytes_handler = Arc::clone(&bytes);
    let requests_handler = Arc::clone(&requests);
    let stop_handler = Arc::clone(&stop);
    let threads = acceptor_loop(listener, Arc::clone(&stop), move |conn| {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if stop_handler.load(Ordering::Acquire) {
                conn.close();
                return;
            }
            match conn.read_timeout(&mut chunk, Duration::from_millis(50)) {
                Ok(n) => {
                    bytes_handler.fetch_add(n as u64, Ordering::Relaxed);
                    requests_handler.fetch_add(1, Ordering::Relaxed);
                }
                Err(NetError::TimedOut) => continue,
                Err(_) => {
                    conn.close();
                    return;
                }
            }
        }
    });
    (
        BackendHandle {
            stop,
            threads,
            requests,
            port,
        },
        bytes,
    )
}

// ---------------------------------------------------------------------------
// Real-socket back-ends
// ---------------------------------------------------------------------------

/// Handle to a running loopback TCP back-end; dropping it stops the server.
///
/// The kernel-socket counterpart of [`start_http_backend`]: a blocking
/// `std::net` HTTP server used behind a TCP-fronted load balancer so the
/// whole `client → LB → backend` path traverses real sockets.
pub struct TcpBackendHandle {
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    requests: Arc<AtomicU64>,
    connections: Arc<AtomicU64>,
    addr: String,
}

impl std::fmt::Debug for TcpBackendHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpBackendHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl TcpBackendHandle {
    /// The socket address the back-end listens on (`127.0.0.1:<port>`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Number of requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Stops the server and joins the acceptor thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Poke the blocking accept loop so it observes the flag.
        let _ = std::net::TcpStream::connect(&self.addr);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpBackendHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a static HTTP back-end on a real loopback socket, serving `body`
/// for every request. Binds an ephemeral port; read it back with
/// [`TcpBackendHandle::addr`].
pub fn start_tcp_http_backend(body: &[u8]) -> TcpBackendHandle {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback backend");
    let addr = format!(
        "127.0.0.1:{}",
        listener.local_addr().expect("local addr").port()
    );
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    let body = body.to_vec();
    let connections = Arc::new(AtomicU64::new(0));
    let accept_stop = Arc::clone(&stop);
    let accept_requests = Arc::clone(&requests);
    let accepted = Arc::clone(&connections);
    let acceptor = std::thread::spawn(move || {
        let codec = HttpCodec::new();
        let mut response = Vec::new();
        codec
            .serialize(&flick_grammar::http::response(200, &body), &mut response)
            .expect("static response serialises");
        let response = Arc::new(response);
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            accepted.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
            let requests = Arc::clone(&accept_requests);
            let stop = Arc::clone(&accept_stop);
            let response = Arc::clone(&response);
            std::thread::spawn(move || {
                use std::io::{Read, Write};
                let codec = HttpCodec::new();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 8 * 1024];
                while !stop.load(Ordering::Acquire) {
                    match stream.read(&mut chunk) {
                        Ok(0) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock
                                    | std::io::ErrorKind::TimedOut
                                    | std::io::ErrorKind::Interrupted
                            ) =>
                        {
                            continue
                        }
                        Err(_) => return,
                    }
                    loop {
                        match codec.parse(&buf, None) {
                            Ok(ParseOutcome::Complete { message, consumed }) => {
                                buf.drain(..consumed);
                                requests.fetch_add(1, Ordering::Relaxed);
                                if stream.write_all(&response).is_err()
                                    || flick_grammar::http::wants_close(&message)
                                {
                                    return;
                                }
                            }
                            Ok(ParseOutcome::Incomplete) => break,
                            Err(_) => return,
                        }
                    }
                }
            });
        }
    });
    TcpBackendHandle {
        stop,
        acceptor: Some(acceptor),
        requests,
        connections,
        addr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_net::StackModel;

    #[test]
    fn tcp_http_backend_serves_requests_over_the_kernel() {
        let backend = start_tcp_http_backend(b"tcp-body");
        let response =
            crate::tcp::fetch_http(backend.addr(), "/x", Duration::from_secs(5)).unwrap();
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("tcp-body"));
        assert!(backend.requests_served() >= 1);
    }

    #[test]
    fn http_backend_serves_requests() {
        let net = SimNetwork::new(StackModel::Free);
        let backend = start_http_backend(&net, 9301, b"payload-137-bytes");
        let conn = net.connect(9301).unwrap();
        conn.write_all(b"GET /x HTTP/1.1\r\nHost: b\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 512];
        let n = conn.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
        let text = String::from_utf8_lossy(&buf[..n]);
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("payload-137-bytes"));
        assert!(backend.requests_served() >= 1);
    }

    #[test]
    fn memcached_backend_set_then_get() {
        let net = SimNetwork::new(StackModel::Free);
        let _backend = start_memcached_backend(&net, 9302);
        let codec = memcached::MemcachedCodec::new();
        let conn = net.connect(9302).unwrap();

        let mut wire = Vec::new();
        codec
            .serialize(
                &memcached::request(memcached::opcode::SET, b"k1", b"", b"v1"),
                &mut wire,
            )
            .unwrap();
        conn.write_all(&wire).unwrap();
        let mut buf = vec![0u8; 1024];
        let _ = conn.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();

        let mut wire = Vec::new();
        codec
            .serialize(
                &memcached::request(memcached::opcode::GETK, b"k1", b"", b""),
                &mut wire,
            )
            .unwrap();
        conn.write_all(&wire).unwrap();
        let mut collected = Vec::new();
        let response = loop {
            let n = conn.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
            collected.extend_from_slice(&buf[..n]);
            if let Ok(ParseOutcome::Complete { message, .. }) = codec.parse(&collected, None) {
                break message;
            }
        };
        assert_eq!(response.bytes_field("value"), Some(&b"v1"[..]));
    }

    #[test]
    fn sink_backend_counts_bytes() {
        let net = SimNetwork::new(StackModel::Free);
        let (_backend, bytes) = start_sink_backend(&net, 9303);
        let conn = net.connect(9303).unwrap();
        conn.write_all(&[0u8; 4096]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while bytes.load(Ordering::Relaxed) < 4096 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(bytes.load(Ordering::Relaxed), 4096);
    }
}
