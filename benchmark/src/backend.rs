//! The far side of the middlebox: the HTTP back-end emulator and the Hadoop
//! reducer sink. Both are blocking `std::net` servers on `bench-*` threads,
//! owned by the benchmark so the instrument is frozen with it.

use crate::inputs::{Inputs, Kind};
use crate::util::now_ns;
use crate::wire::{bad, is_timeout, write_all_two, MsgBuf};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long a blocked apparatus read waits before re-checking the stop flag.
const STOP_POLL: Duration = Duration::from_millis(100);
/// How long a started message may stall before the connection is given up.
const MID_MESSAGE_PATIENCE: Duration = Duration::from_secs(10);

/// What the back-end saw of one request, on the shared clock.
#[derive(Debug, Clone, Copy)]
pub struct BackendEvent {
    pub req_id: (u32, u32),
    /// The full request (head and body) is in the back-end's hands.
    pub full_ns: u64,
    /// The back-end's last write of the response returned.
    pub written_ns: u64,
}

/// In-memory span store for the back-end side; `None` when tracing is off.
pub type BackendTrace = Option<Arc<Mutex<Vec<BackendEvent>>>>;

/// Accepted connections waiting for a handler thread. Handlers are reused
/// and a new one is spawned only when none is idle, so `lb_churn`'s
/// thousands of short connections per second do not pay a thread spawn each.
struct HandlerPool {
    queue: Mutex<(VecDeque<TcpStream>, usize)>, // (waiting streams, handlers asleep)
    ready: Condvar,
    stop: AtomicBool,
}

pub struct Backend {
    addr: String,
    pool: Arc<HandlerPool>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Backend {
    /// Starts back-end `id` on an ephemeral loopback port.
    pub fn start(id: u8, inputs: Arc<Inputs>, max_body: usize, trace: BackendTrace) -> Backend {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a back-end port");
        let addr = listener.local_addr().expect("back-end address").to_string();
        let pool = Arc::new(HandlerPool {
            queue: Mutex::new((VecDeque::new(), 0)),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let acceptor = {
            let pool = Arc::clone(&pool);
            spawn_named(format!("bench-be{id}-acc"), move || {
                let mut handlers = Vec::new();
                for stream in listener.incoming() {
                    if pool.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let mut queue = pool.queue.lock().expect("handler queue");
                    queue.0.push_back(stream);
                    // More connections waiting than handlers asleep: a
                    // notified handler that has not woken yet still counts
                    // as asleep, so compare against the whole backlog.
                    if queue.0.len() > queue.1 {
                        let (pool, inputs, trace) =
                            (Arc::clone(&pool), Arc::clone(&inputs), trace.clone());
                        handlers.push(spawn_named(
                            format!("bench-be{id}-h{}", handlers.len()),
                            move || handler_loop(id, &pool, &inputs, max_body, &trace),
                        ));
                    }
                    drop(queue);
                    pool.ready.notify_one();
                }
                handlers
            })
        };
        Backend {
            addr,
            pool,
            acceptor: Some(acceptor),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        self.pool.stop.store(true, Ordering::Release);
        self.pool.ready.notify_all();
        // Unblock `accept` so the acceptor sees the flag.
        let _ = TcpStream::connect(&self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            for handler in acceptor.join().unwrap_or_default() {
                let _ = handler.join();
            }
        }
    }
}

fn handler_loop(
    id: u8,
    pool: &HandlerPool,
    inputs: &Inputs,
    max_body: usize,
    trace: &BackendTrace,
) {
    let mut buf = MsgBuf::new(max_body);
    loop {
        let mut stream = {
            let mut queue = pool.queue.lock().expect("handler queue");
            loop {
                if pool.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(stream) = queue.0.pop_front() {
                    break stream;
                }
                queue.1 += 1;
                queue = pool.ready.wait(queue).expect("handler queue");
                queue.1 -= 1;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(STOP_POLL));
        // An error here is the peer going away mid-message (the platform
        // tearing a graph down); the client side of that op counts it.
        let _ = serve_connection(id, &mut stream, &mut buf, pool, inputs, trace);
    }
}

fn serve_connection(
    id: u8,
    stream: &mut TcpStream,
    buf: &mut MsgBuf,
    pool: &HandlerPool,
    inputs: &Inputs,
    trace: &BackendTrace,
) -> io::Result<()> {
    let mut head_out = Vec::with_capacity(128);
    loop {
        let head = match buf.read(stream, MID_MESSAGE_PATIENCE) {
            Ok(Some(head)) => head,
            Ok(None) => return Ok(()),
            Err(e) if is_timeout(&e) && !pool.stop.load(Ordering::Acquire) => continue,
            Err(e) => return Err(e),
        };
        let full_ns = now_ns();
        let kind = Kind::from_path(&head.path).ok_or_else(|| bad("unknown path kind"))?;
        head_out.clear();
        let body: &[u8] = match (head.method.as_str(), kind) {
            ("GET", Kind::Small | Kind::BulkGet) => {
                let len = kind.response_len();
                write!(
                    head_out,
                    "HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\nbe={id};"
                )?;
                inputs.body(&head.path, len - 5)
            }
            ("POST", Kind::BulkPost) => {
                let intact = head.content_length == crate::inputs::BULK_BODY
                    && inputs.body_matches(&head.path, buf.body(&head));
                let verdict = if intact {
                    format!("b{id}")
                } else {
                    "!!".into()
                };
                write!(
                    head_out,
                    "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{verdict}"
                )?;
                &[]
            }
            _ => return Err(bad("method does not fit the path kind")),
        };
        write_all_two(stream, &head_out, body)?;
        if let (Some(trace), Some(req_id)) = (trace, head.req_id) {
            trace.lock().expect("trace store").push(BackendEvent {
                req_id,
                full_ns,
                written_ns: now_ns(),
            });
        }
    }
}

/// What the reducer received for one job.
#[derive(Debug, Clone, Copy)]
pub struct SinkResult {
    pub records: u64,
    pub sum: u64,
    /// The stream parsed as whole, well-formed `kv` records.
    pub well_formed: bool,
    pub eof_ns: u64,
}

/// The Hadoop reducer: accepts the aggregator's connection, reads the
/// combined stream to EOF and reports what it added up to. One job at a
/// time, so one thread.
pub struct ReducerSink {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    results: Receiver<SinkResult>,
}

impl ReducerSink {
    pub fn start() -> ReducerSink {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the reducer port");
        let addr = listener.local_addr().expect("reducer address").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, results) = channel();
        let thread = {
            let stop = Arc::clone(&stop);
            spawn_named("bench-sink".into(), move || {
                sink_loop(&listener, &stop, &tx)
            })
        };
        ReducerSink {
            addr,
            stop,
            thread: Some(thread),
            results,
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The next finished job, or `None` if the aggregator never closed its
    /// reducer connection in time.
    pub fn next_result(&self, timeout: Duration) -> Option<SinkResult> {
        self.results.recv_timeout(timeout).ok()
    }
}

impl Drop for ReducerSink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(&self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn sink_loop(listener: &TcpListener, stop: &AtomicBool, results: &Sender<SinkResult>) {
    let mut chunk = vec![0u8; 64 * 1024];
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(STOP_POLL));
        let mut result = SinkResult {
            records: 0,
            sum: 0,
            well_formed: true,
            eof_ns: 0,
        };
        // Bytes of a record that straddles two reads.
        let mut carry: Vec<u8> = Vec::new();
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    carry.extend_from_slice(&chunk[..n]);
                    let used = consume_records(&carry, &mut result);
                    carry.drain(..used);
                }
                Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                }
                Err(_) => {
                    result.well_formed = false;
                    break;
                }
            }
        }
        result.eof_ns = now_ns();
        result.well_formed &= carry.is_empty();
        if results.send(result).is_err() {
            return;
        }
    }
}

/// Adds up every whole `kv` record at the front of `buf` (u32 key length,
/// u32 value length, key, decimal value); returns the bytes consumed.
fn consume_records(buf: &[u8], result: &mut SinkResult) -> usize {
    let mut at = 0;
    while buf.len() - at >= 8 {
        let key_len = u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        let value_len =
            u32::from_be_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
        if key_len > 4096 || value_len > 4096 {
            result.well_formed = false;
            return buf.len();
        }
        let end = at + 8 + key_len + value_len;
        if buf.len() < end {
            break;
        }
        match std::str::from_utf8(&buf[at + 8 + key_len..end])
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            Some(count) => result.sum += count,
            None => result.well_formed = false,
        }
        result.records += 1;
        at = end;
    }
    at
}

pub fn spawn_named<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("spawn a benchmark thread")
}
