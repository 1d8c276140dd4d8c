//! Back-end servers used behind the middleboxes under test.
//!
//! The paper's testbed runs Apache web servers behind the HTTP load balancer
//! and Memcached servers behind the proxy. These are in-process equivalents:
//! each back-end listens on a [`Fabric`] and serves every connection it
//! accepts from a thread of its own (back-ends are never the bottleneck in
//! the experiments, mirroring §6.2's "small payloads so the network and the
//! backends are never the bottleneck").

use crate::fabric::Fabric;
use flick_grammar::http::HttpCodec;
use flick_grammar::{memcached, Message, ParseOutcome, WireCodec};
use flick_net::{Endpoint, NetError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the acceptor waits for a connection before it looks at the
/// stop flag again.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How long a connection thread waits for bytes before it looks at the
/// stop flag again.
const READ_POLL: Duration = Duration::from_millis(50);

/// Handle to a running back-end server; dropping it stops the server.
pub struct BackendHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    port: u16,
}

/// What a back-end's threads share.
struct Shared {
    stop: AtomicBool,
    requests: AtomicU64,
    accepted: AtomicU64,
    /// Each accepted connection still served, with its thread; the
    /// acceptor drops those whose thread has ended.
    live: Mutex<Vec<(Endpoint, JoinHandle<()>)>>,
}

impl std::fmt::Debug for BackendHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendHandle")
            .field("port", &self.port)
            .finish()
    }
}

impl BackendHandle {
    /// The port the back-end listens on (on the kernel, the one a port-0
    /// bind picked).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Number of requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Number of connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Stops the server: the listener closes, and every accepted
    /// connection is closed and its thread joined, so once this returns
    /// nothing more is served or sent.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let live = std::mem::take(&mut *self.shared.live.lock());
        for (conn, _) in &live {
            conn.close();
        }
        for (_, thread) in live {
            let _ = thread.join();
        }
    }
}

impl Drop for BackendHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Shared {
    /// Reads what `conn` has into `chunk`; `None` once it ended or the
    /// back-end stopped.
    fn read(&self, conn: &Endpoint, chunk: &mut [u8]) -> Option<usize> {
        while !self.stop.load(Ordering::Acquire) {
            match conn.read_timeout(chunk, READ_POLL) {
                Ok(n) => return Some(n),
                Err(NetError::TimedOut) => continue,
                Err(_) => return None,
            }
        }
        None
    }

    /// Serves `conn` until it ends or the back-end stops: each request
    /// `codec` parses is counted and answered with what `respond` appends,
    /// and the connection ends after a request `respond` returns `false`
    /// for, or a malformed one.
    fn answer(
        &self,
        conn: &Endpoint,
        codec: &dyn WireCodec,
        respond: impl Fn(&Message, &mut Vec<u8>) -> bool,
    ) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 8192];
        let mut out = Vec::new();
        while let Some(n) = self.read(conn, &mut chunk) {
            buf.extend_from_slice(&chunk[..n]);
            loop {
                match codec.parse(&buf, None) {
                    Ok(ParseOutcome::Complete { message, consumed }) => {
                        buf.drain(..consumed);
                        self.requests.fetch_add(1, Ordering::Relaxed);
                        out.clear();
                        let open = respond(&message, &mut out);
                        if conn.write_all(&out).is_err() || !open {
                            return;
                        }
                    }
                    Ok(ParseOutcome::Incomplete) => break,
                    Err(_) => return,
                }
            }
        }
    }
}

/// Listens on `port` of `fabric` and runs `serve` on a thread of its own
/// for every connection accepted, closing the connection when it returns.
fn start_backend(
    fabric: impl Into<Fabric>,
    port: u16,
    serve: impl Fn(&Endpoint, &Shared) + Send + Sync + 'static,
) -> BackendHandle {
    let listener = fabric.into().listen(port).expect("backend port free");
    let port = listener.port();
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        accepted: AtomicU64::new(0),
        live: Mutex::new(Vec::new()),
    });
    let serve = Arc::new(serve);
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            while !shared.stop.load(Ordering::Acquire) {
                shared
                    .live
                    .lock()
                    .retain(|(_, thread)| !thread.is_finished());
                match listener.accept_timeout(ACCEPT_POLL) {
                    Ok(conn) => {
                        shared.accepted.fetch_add(1, Ordering::Relaxed);
                        let (serve, served) = (Arc::clone(&serve), Arc::clone(&shared));
                        let endpoint = conn.clone();
                        let thread = std::thread::spawn(move || {
                            serve(&conn, &served);
                            conn.close();
                        });
                        shared.live.lock().push((endpoint, thread));
                    }
                    Err(NetError::ListenerClosed) => break,
                    Err(_) => continue,
                }
            }
            listener.close();
        })
    };
    BackendHandle {
        shared,
        acceptor: Some(acceptor),
        port,
    }
}

/// Starts a static HTTP back-end serving `body` for every request.
pub fn start_http_backend(fabric: impl Into<Fabric>, port: u16, body: &[u8]) -> BackendHandle {
    let codec = HttpCodec::new();
    let mut response = Vec::new();
    codec
        .serialize(&flick_grammar::http::response(200, body), &mut response)
        .expect("static response serialises");
    start_backend(fabric, port, move |conn, shared| {
        shared.answer(conn, &codec, |request, out| {
            out.extend_from_slice(&response);
            !flick_grammar::http::wants_close(request)
        })
    })
}

/// Starts an in-memory Memcached back-end speaking the binary protocol.
///
/// `GETK`/`GET` requests are answered with the stored value (or a fixed
/// filler value when the key is unknown), `SET` stores the value.
pub fn start_memcached_backend(fabric: impl Into<Fabric>, port: u16) -> BackendHandle {
    let store: Mutex<HashMap<String, Vec<u8>>> = Mutex::new(HashMap::new());
    let codec = memcached::MemcachedCodec::new();
    start_backend(fabric, port, move |conn, shared| {
        shared.answer(conn, &codec, |request, out| {
            let key = request.str_field("key").unwrap_or("").to_string();
            let opcode = request.uint_field("opcode").unwrap_or(0);
            let response = if opcode == memcached::opcode::SET {
                let value = request.bytes_field("value").unwrap_or(&[]).to_vec();
                store.lock().insert(key, value);
                memcached::response(opcode, 0, b"", b"")
            } else {
                let value = store
                    .lock()
                    .get(&key)
                    .cloned()
                    .unwrap_or_else(|| b"default-value-from-backend".to_vec());
                memcached::response(opcode, 0, key.as_bytes(), &value)
            };
            codec
                .serialize(&response, out)
                .expect("response serialises");
            true
        })
    })
}

/// Starts a byte-sink back-end (the Hadoop reducer): it drains everything it
/// receives and counts records and bytes.
pub fn start_sink_backend(fabric: impl Into<Fabric>, port: u16) -> (BackendHandle, Arc<AtomicU64>) {
    let bytes = Arc::new(AtomicU64::new(0));
    let received = Arc::clone(&bytes);
    let handle = start_backend(fabric, port, move |conn, shared| {
        let mut chunk = [0u8; 16 * 1024];
        while let Some(n) = shared.read(conn, &mut chunk) {
            received.fetch_add(n as u64, Ordering::Relaxed);
            shared.requests.fetch_add(1, Ordering::Relaxed);
        }
    });
    (handle, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_net::{SimNetwork, StackModel};

    /// A request to `conn`'s back-end and its whole response.
    fn get(conn: &Endpoint) -> String {
        conn.write_all(b"GET /x HTTP/1.1\r\nHost: b\r\n\r\n")
            .unwrap();
        let codec = HttpCodec::new();
        let mut response = Vec::new();
        let mut buf = [0u8; 512];
        while !matches!(
            codec.parse(&response, None),
            Ok(ParseOutcome::Complete { .. })
        ) {
            let n = conn.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
            response.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&response).into_owned()
    }

    #[test]
    fn tcp_http_backend_serves_requests_over_the_kernel() {
        let fabric = Fabric::kernel();
        let backend = start_http_backend(&fabric, 0, b"tcp-body");
        let text = get(&fabric.connect(backend.port()).unwrap());
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("tcp-body"));
        assert!(backend.requests_served() >= 1);
    }

    #[test]
    fn http_backend_serves_requests() {
        let net = SimNetwork::new(StackModel::Free);
        let backend = start_http_backend(&net, 9301, b"payload-137-bytes");
        let text = get(&net.connect(9301).unwrap());
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("payload-137-bytes"));
        assert!(backend.requests_served() >= 1);
    }

    /// `stop` is synchronous on both fabrics: a client connected before it
    /// reads EOF as soon as it returns, and nothing is served after.
    #[test]
    fn a_stopped_backend_has_closed_every_connection() {
        for fabric in [
            Fabric::from(&SimNetwork::new(StackModel::Free)),
            Fabric::kernel(),
        ] {
            // Port 0: an ephemeral port on the kernel, and a free one on
            // a fresh sim network.
            let mut backend = start_http_backend(&fabric, 0, b"ok");
            let conn = fabric.connect(backend.port()).unwrap();
            assert!(get(&conn).ends_with("ok"), "{fabric:?}");
            backend.stop();
            let mut buf = [0u8; 64];
            assert_eq!(conn.read(&mut buf), Err(NetError::Closed), "{fabric:?}");
            let served = backend.requests_served();
            let _ = conn.write_all(b"GET /late HTTP/1.1\r\nHost: b\r\n\r\n");
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(backend.requests_served(), served, "{fabric:?}");
        }
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
