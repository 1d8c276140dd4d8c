//! One round of one workload: bring the system up, warm it, measure it for
//! T seconds with `nproc` closed-loop generator threads, check every output,
//! and report the round's numbers as `(name, value)` pairs. The generators
//! spend the tail of every 100 ms on the host-speed probe (`hostprobe.rs`),
//! and the round's time-based end-to-end numbers are corrected by it.

use crate::backend::{Backend, BackendEvent, BackendTrace, ReducerSink};
use crate::hostprobe::{self, Chase};
use crate::inputs::{self, HadoopInputs, Inputs, Kind, MapperStream, PATH_POOL};
use crate::procfs::peak_rss_mb;
use crate::sut::{layer_metrics, Sut};
use crate::util::{median, now_ns, percentile, sorted, Rng};
use crate::wire::{bad, write_all_two, MsgBuf};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, SystemTime};

/// An op that takes longer than this has failed.
const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// Bytes each mapper streams per Hadoop job (~12 k records). Small enough
/// that a 5-s round holds some thirty jobs, so a median and a p90 of job
/// time exist; large enough that per-record parse and combine work, not job
/// set-up, is over nine tenths of what is timed.
const HADOOP_JOB_BYTES: usize = 256 * 1024;
/// Warm-up jobs per nominal second of warm-up (a job takes ~0.14 s).
const HADOOP_WARMUP_JOBS_PER_S: f64 = 7.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LbSmall,
    LbBulk,
    LbChurn,
    HadoopAgg,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LbSmall,
        Workload::LbBulk,
        Workload::LbChurn,
        Workload::HadoopAgg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LbSmall => "lb_small",
            Workload::LbBulk => "lb_bulk",
            Workload::LbChurn => "lb_churn",
            Workload::HadoopAgg => "hadoop_agg",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct RoundCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub warmup: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    /// When the parent started this round's process (or, run by hand, when
    /// `main` was entered); set-up times count from here.
    pub process_start: SystemTime,
}

impl RoundCfg {
    fn since_process_start(&self) -> f64 {
        self.process_start
            .elapsed()
            .map_or(0.0, |elapsed| elapsed.as_secs_f64())
    }
}

/// A round's numbers; every name is one the registry or the parent knows.
pub type RoundOut = Vec<(&'static str, f64)>;

/// Generator threads and client connections: one per core, never more.
pub fn generators() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn run_round(cfg: &RoundCfg) -> Result<RoundOut, String> {
    let (mut out, probe) = match cfg.workload {
        Workload::HadoopAgg => hadoop_round(cfg)?,
        _ => lb_round(cfg)?,
    };
    correct_for_host_speed(&mut out, hostprobe::slowdown(&probe));
    // The probe's cycle is the apparatus's, fully resident and of known size.
    out.push(("rss_mb", peak_rss_mb() - Chase::BYTES as f64 / 1e6));
    Ok(out)
}

/// Restates the round's time-based end-to-end numbers for a host of nominal
/// speed and keeps the raw readings beside them. Per-layer numbers (spans,
/// per-family CPU, p99) stay as measured.
fn correct_for_host_speed(out: &mut RoundOut, slowdown: f64) {
    let raw = |name: &str| {
        out.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let kept = [
        ("load.host_slowdown", slowdown),
        ("load.raw_ops_per_s", raw("ops_per_s")),
        ("load.raw_p50_us", raw("p50_us")),
    ];
    for (name, value) in out.iter_mut() {
        match *name {
            "ops_per_s" | "mbytes_per_s" => *value *= slowdown,
            "p50_us" | "p90_us" | "sut_cpu_us_per_op" => *value /= slowdown,
            _ => {}
        }
    }
    out.extend(kept);
}

// ---------------------------------------------------------------- HTTP side

/// One closed-loop client connection (or, for `lb_churn`, a series of them).
struct Client<'a> {
    inputs: &'a Inputs,
    addr: &'a str,
    conn: u32,
    seq: u32,
    stream: Option<TcpStream>,
    buf: MsgBuf,
    head: Vec<u8>,
}

/// A verified op, stamped on the shared clock.
#[derive(Debug, Clone, Copy)]
struct OpRec {
    /// Where latency is counted from: just before the send, or before the
    /// connect when this op had to open its connection.
    start_ns: u64,
    /// The connection is up (nanoseconds after `start_ns` when reused).
    connected_ns: u64,
    done_ns: u64,
    /// What the op cost its generator: since its previous op ended (or the
    /// probe slice did), so closing the connection counts too.
    busy_ns: u64,
    payload: u32,
    conn: u32,
    seq: u32,
    kind: Kind,
    path_idx: u16,
    backend: u8,
}

impl<'a> Client<'a> {
    fn new(inputs: &'a Inputs, addr: &'a str, conn: u32, max_body: usize) -> Self {
        Client {
            inputs,
            addr,
            conn,
            seq: 0,
            stream: None,
            buf: MsgBuf::new(max_body),
            head: Vec::with_capacity(256),
        }
    }

    /// The id of the back-end that produced `body`, if the body is what that
    /// back-end must have sent for `path`: `be=N;` + the path's filler window
    /// for a GET, `bN` (upload verified intact there) for a POST.
    fn backend_of(&self, kind: Kind, path: &str, body: &[u8]) -> Option<u8> {
        let id = match kind {
            Kind::BulkPost => body.strip_prefix(b"b")?,
            _ => {
                let (tag, filler) = body.split_at(5);
                if !self.inputs.body_matches(path, filler) {
                    return None;
                }
                tag.strip_prefix(b"be=")?.strip_suffix(b";")?
            }
        };
        match id {
            [digit] if digit.is_ascii_digit() => Some(digit - b'0'),
            _ => None,
        }
    }

    /// Sends one request and verifies the response: status 200, declared
    /// length = expected = received, body bytes match, back-end id legible.
    fn op(&mut self, kind: Kind, path_idx: usize, close: bool) -> io::Result<OpRec> {
        let start_ns = now_ns();
        let stream = match &mut self.stream {
            Some(stream) => stream,
            slot => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(OP_TIMEOUT))?;
                stream.set_write_timeout(Some(OP_TIMEOUT))?;
                slot.insert(stream)
            }
        };
        let connected_ns = now_ns();
        self.seq += 1;
        let path = self.inputs.path(kind, path_idx);
        self.head.clear();
        let (method, upload): (&str, &[u8]) = match kind {
            Kind::BulkPost => ("POST", self.inputs.body(&path, inputs::BULK_BODY)),
            _ => ("GET", &[]),
        };
        write!(
            self.head,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nX-Req: c{}-{}\r\n",
            self.conn, self.seq
        )?;
        if close {
            self.head.extend_from_slice(b"Connection: close\r\n");
        }
        if !upload.is_empty() {
            write!(self.head, "Content-Length: {}\r\n", upload.len())?;
        }
        self.head.extend_from_slice(b"\r\n");
        write_all_two(stream, &self.head, upload)?;

        let head = self
            .buf
            .read(stream, OP_TIMEOUT)?
            .ok_or_else(|| bad("connection closed before the response"))?;
        let body = self.buf.body(&head);
        if head.status != 200 || body.len() != kind.response_len() {
            return Err(bad("wrong status or length"));
        }
        let backend = self
            .backend_of(kind, &path, body)
            .ok_or_else(|| bad("body does not match"))?;
        let done_ns = now_ns();
        if close {
            self.stream = None;
        }
        Ok(OpRec {
            start_ns,
            connected_ns,
            done_ns,
            busy_ns: done_ns - start_ns,
            payload: (upload.len() + body.len()) as u32,
            conn: self.conn,
            seq: self.seq,
            kind,
            path_idx: path_idx as u16,
            backend,
        })
    }
}

/// The load balancer's contract, checked across all generators: a path
/// always lands on the same back-end, and both back-ends get real traffic.
struct Sticky {
    seen: Vec<AtomicU8>,
    served: [AtomicU64; 2],
}

const UNSEEN: u8 = u8::MAX;

impl Sticky {
    fn new() -> Sticky {
        Sticky {
            seen: (0..3 * PATH_POOL).map(|_| AtomicU8::new(UNSEEN)).collect(),
            served: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Records that `rec`'s path was served by `rec.backend`; `false` if it
    /// was served by another one before.
    fn consistent(&self, rec: &OpRec) -> bool {
        let Some(served) = self.served.get(rec.backend as usize) else {
            return false;
        };
        served.fetch_add(1, Ordering::Relaxed);
        let slot = &self.seen[rec.kind.index() * PATH_POOL + rec.path_idx as usize];
        match slot.compare_exchange(UNSEEN, rec.backend, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => true,
            Err(previous) => previous == rec.backend,
        }
    }

    /// Each back-end served more than a tenth of the ops.
    fn balanced(&self) -> bool {
        let served: Vec<u64> = self
            .served
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        let total: u64 = served.iter().sum();
        served.iter().all(|s| s * 10 > total)
    }
}

struct GenShared<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    addr: &'a str,
    chase: &'a Chase,
    seed: u64,
    sticky: Sticky,
    /// Three rendezvous with the coordinator: warm-up drained, measurement
    /// released, measurement drained. Generators hold no op in flight at
    /// any of them, so counters read there belong to whole ops only.
    barrier: Barrier,
    stop_warmup: AtomicBool,
    stop_measure: AtomicBool,
}

#[derive(Default)]
struct GenOut {
    recs: Vec<OpRec>,
    attempted: u64,
    failed: u64,
    /// Host-speed probe samples (ns per step) of the measured interval.
    probe: Vec<f32>,
}

fn max_body(workload: Workload) -> usize {
    match workload {
        Workload::LbBulk => inputs::BULK_BODY,
        _ => inputs::SMALL_BODY,
    }
}

fn generator(index: usize, shared: &GenShared<'_>) -> GenOut {
    let mut client = Client::new(
        shared.inputs,
        shared.addr,
        index as u32,
        max_body(shared.workload),
    );
    let mut rng = Rng::new(shared.seed ^ (0x9e00 + index as u64));
    // Generators start on opposite directions so uploads and downloads
    // overlap from the first op on.
    let mut turn = index;
    let mut one_op = |client: &mut Client<'_>| {
        let path_idx = rng.below(PATH_POOL);
        turn += 1;
        let (kind, close) = match shared.workload {
            Workload::LbSmall => (Kind::Small, false),
            Workload::LbChurn => (Kind::Small, true),
            Workload::LbBulk if turn & 1 == 0 => (Kind::BulkGet, false),
            _ => (Kind::BulkPost, false),
        };
        let result = client
            .op(kind, path_idx, close)
            .ok()
            .filter(|rec| shared.sticky.consistent(rec));
        if result.is_none() {
            client.stream = None;
            // Do not spin on a dead listener.
            thread::sleep(Duration::from_millis(1));
        }
        result
    };
    // Warm-up follows the measured schedule, probe slices and all.
    let mut at = Chase::start(index, generators());
    let mut unrecorded = Vec::new();
    while !shared.stop_warmup.load(Ordering::Acquire) {
        match hostprobe::probe_until(now_ns()) {
            Some(until_ns) => {
                unrecorded.clear();
                shared.chase.run(&mut at, until_ns, &mut unrecorded);
            }
            None => drop(one_op(&mut client)),
        }
    }
    shared.barrier.wait();
    shared.barrier.wait();
    let mut out = GenOut::default();
    let mut since = now_ns();
    while !shared.stop_measure.load(Ordering::Acquire) {
        if let Some(until_ns) = hostprobe::probe_until(now_ns()) {
            shared.chase.run(&mut at, until_ns, &mut out.probe);
            since = now_ns();
            continue;
        }
        out.attempted += 1;
        match one_op(&mut client) {
            Some(mut rec) => {
                // A failed op's time is charged to the next good one.
                let now = now_ns();
                rec.busy_ns = now - since;
                since = now;
                out.recs.push(rec);
            }
            None => out.failed += 1,
        }
    }
    shared.barrier.wait();
    out
}

fn lb_round(cfg: &RoundCfg) -> Result<(RoundOut, Vec<f32>), String> {
    let inputs = Arc::new(Inputs::new(cfg.seed));
    let trace: BackendTrace = cfg.trace.then(|| Arc::new(Mutex::new(Vec::new())));
    let body_cap = max_body(cfg.workload);

    // Declared before the system under test, so dropped after it: the
    // platform closes its back-end connections before the back-ends stop.
    let backends: Vec<Backend> = (0..2)
        .map(|id| Backend::start(id, Arc::clone(&inputs), body_cap, trace.clone()))
        .collect();
    let sut = Sut::http_balancer(backends.iter().map(|b| b.addr().to_string()).collect());
    {
        let mut first = Client::new(&inputs, sut.addr(), u32::MAX, body_cap);
        first
            .op(Kind::Small, 0, true)
            .map_err(|e| format!("first op through the balancer failed: {e}"))?;
    }
    let mut out: RoundOut = vec![("load.bringup_ms", cfg.since_process_start() * 1e3)];

    let n = generators();
    let chase = Chase::new();
    let shared = GenShared {
        workload: cfg.workload,
        inputs: &inputs,
        addr: sut.addr(),
        chase: &chase,
        seed: cfg.seed,
        sticky: Sticky::new(),
        barrier: Barrier::new(n + 1),
        stop_warmup: AtomicBool::new(false),
        stop_measure: AtomicBool::new(false),
    };
    let (gen_outs, before, after, t_start, setup_s) = thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let shared = &shared;
                thread::Builder::new()
                    .name(format!("bench-gen{i}"))
                    .spawn_scoped(scope, move || generator(i, shared))
                    .expect("spawn a generator")
            })
            .collect();
        thread::sleep(Duration::from_secs_f64(cfg.warmup));
        shared.stop_warmup.store(true, Ordering::Release);
        shared.barrier.wait();
        let before = sut.observe();
        let setup_s = cfg.since_process_start();
        let t_start = now_ns();
        shared.barrier.wait();
        thread::sleep(Duration::from_secs_f64(cfg.seconds));
        shared.stop_measure.store(true, Ordering::Release);
        shared.barrier.wait();
        let after = sut.observe();
        let outs: Vec<GenOut> = handles
            .into_iter()
            .map(|h| h.join().expect("generator panicked"))
            .collect();
        (outs, before, after, t_start, setup_s)
    });
    out.push(("setup_s", setup_s));

    let attempted: u64 = gen_outs.iter().map(|g| g.attempted).sum();
    let mut failed: u64 = gen_outs.iter().map(|g| g.failed).sum();
    let (mut recs, mut probe) = (Vec::new(), Vec::new());
    for gen_out in gen_outs {
        recs.extend(gen_out.recs);
        probe.extend(gen_out.probe);
    }
    if recs.is_empty() {
        return Err(format!("{}: no op completed", cfg.workload.name()));
    }
    if !shared.sticky.balanced() {
        // A lopsided balancer is wrong on every op, not on some.
        failed = attempted;
    }
    out.push(("attempted", attempted as f64));
    out.push(("failed", failed as f64));

    let (ops_per_s, mbytes_per_s) = windowed_rates(&recs, n, t_start, cfg.seconds);
    out.push(("ops_per_s", ops_per_s));
    out.push(("mbytes_per_s", mbytes_per_s));
    let latencies = sorted(
        recs.iter()
            .map(|r| (r.done_ns - r.start_ns) as f64 / 1e3)
            .collect(),
    );
    push_latencies(&mut out, &latencies);
    out.extend(layer_metrics(&before, &after, recs.len() as u64));

    if let Some(trace) = trace {
        let events = std::mem::take(&mut *trace.lock().expect("trace store"));
        lb_trace(cfg, &inputs, &recs, &events, &mut out)?;
    }
    Ok((out, probe))
}

/// Median over the whole one-second windows of the measured interval of
/// (completions, payload bytes) per second of sending. Each generator's ops
/// of a window are divided by the time it spent on them, and the generators
/// are added up: the time they spent on the host-speed probe does not count,
/// and with no probe this is the plain count per second. A run shorter than
/// two seconds is one window.
fn windowed_rates(recs: &[OpRec], generators: usize, t_start: u64, seconds: f64) -> (f64, f64) {
    let width = if seconds >= 2.0 { 1.0 } else { seconds };
    let windows = (seconds / width).floor().max(1.0) as usize;
    // Per window and generator: ops, payload bytes, nanoseconds sending.
    let mut cells = vec![[0.0f64; 3]; windows * generators];
    for rec in recs {
        let at = (rec.done_ns.saturating_sub(t_start) as f64 / 1e9 / width) as usize;
        if at < windows && (rec.conn as usize) < generators {
            let cell = &mut cells[at * generators + rec.conn as usize];
            cell[0] += 1.0;
            cell[1] += f64::from(rec.payload);
            cell[2] += rec.busy_ns as f64;
        }
    }
    let per_second = |what: usize| {
        let windows: Vec<f64> = cells
            .chunks(generators)
            .map(|window| {
                window
                    .iter()
                    .filter(|cell| cell[2] > 0.0)
                    .map(|cell| cell[what] / cell[2] * 1e9)
                    .sum()
            })
            .collect();
        median(&windows)
    };
    (per_second(0), per_second(1) / 1e6)
}

fn push_latencies(out: &mut RoundOut, sorted_us: &[f64]) {
    out.push(("p50_us", percentile(sorted_us, 0.50)));
    out.push(("p90_us", percentile(sorted_us, 0.90)));
    out.push(("load.p99_us", percentile(sorted_us, 0.99)));
    out.push(("load.p999_us", percentile(sorted_us, 0.999)));
    out.push(("load.samples", sorted_us.len() as f64));
}

/// Joins client ops with what the back-ends saw of them and reports where
/// each request's time went. The benchmark owns both ends of the middlebox,
/// so the legs are measured without touching the program.
fn lb_trace(
    cfg: &RoundCfg,
    inputs: &Inputs,
    recs: &[OpRec],
    events: &[BackendEvent],
    out: &mut RoundOut,
) -> Result<(), String> {
    let by_id: HashMap<(u32, u32), &BackendEvent> = events.iter().map(|e| (e.req_id, e)).collect();
    let (mut connect, mut request_leg, mut backend, mut response_leg) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut spans = String::new();
    for rec in recs {
        let Some(event) = by_id.get(&(rec.conn, rec.seq)) else {
            continue;
        };
        let us = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e3;
        if cfg.workload == Workload::LbChurn {
            connect.push(us(rec.start_ns, rec.connected_ns));
        }
        request_leg.push(us(rec.connected_ns, event.full_ns));
        backend.push(us(event.full_ns, event.written_ns));
        response_leg.push(us(event.written_ns, rec.done_ns));
        if cfg.trace_out.is_some() {
            let id = format!("c{}-{}", rec.conn, rec.seq);
            let path = inputs.path(rec.kind, rec.path_idx as usize);
            let mut span = |name: &str, parent: &str, from: u64, to: u64| {
                let _ = writeln!(
                    spans,
                    r#"{{"name":"{name}","id":"{id}","path":"{path}","parent":{parent},"start_ns":{from},"end_ns":{to}}}"#
                );
            };
            span("request", "null", rec.start_ns, rec.done_ns);
            if cfg.workload == Workload::LbChurn {
                span("connect", r#""request""#, rec.start_ns, rec.connected_ns);
            }
            span(
                "request_leg",
                r#""request""#,
                rec.connected_ns,
                event.full_ns,
            );
            span("backend", r#""request""#, event.full_ns, event.written_ns);
            span(
                "response_leg",
                r#""request""#,
                event.written_ns,
                rec.done_ns,
            );
        }
    }
    out.push(("trace.connect_us", median(&connect)));
    out.push(("trace.request_leg_us", median(&request_leg)));
    out.push(("trace.backend_us", median(&backend)));
    out.push(("trace.response_leg_us", median(&response_leg)));
    write_spans(cfg, &spans)
}

fn write_spans(cfg: &RoundCfg, spans: &str) -> Result<(), String> {
    match &cfg.trace_out {
        Some(path) => std::fs::write(path, spans).map_err(|e| format!("writing {path}: {e}")),
        None => Ok(()),
    }
}

// -------------------------------------------------------------- Hadoop side

struct Job {
    start_ns: u64,
    sent_ns: u64,
    eof_ns: u64,
    correct: bool,
}

/// Streams every mapper's records through the aggregator and waits for the
/// reducer to see EOF. Correct means: Σ counts out = Σ counts in, and one
/// output record per distinct key sent.
fn run_job(addr: &str, sink: &ReducerSink, streams: &[MapperStream]) -> Result<Job, String> {
    let start = Barrier::new(streams.len());
    let stamps: Vec<io::Result<(u64, u64)>> = thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, stream)| {
                let start = &start;
                thread::Builder::new()
                    .name(format!("bench-gen{i}"))
                    .spawn_scoped(scope, move || {
                        let conn = TcpStream::connect(addr).and_then(|c| {
                            c.set_nodelay(true)?;
                            c.set_write_timeout(Some(OP_TIMEOUT))?;
                            Ok(c)
                        });
                        // Rendezvous even on a failed connect, or the other
                        // mappers would wait forever.
                        start.wait();
                        let mut conn = conn?;
                        let first_write = now_ns();
                        for chunk in stream.bytes.chunks(inputs::HADOOP_WRITE) {
                            conn.write_all(chunk)?;
                        }
                        Ok((first_write, now_ns()))
                    })
                    .expect("spawn a mapper")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mapper panicked"))
            .collect()
    });
    // Wait for the reducer even if a mapper failed: its connections are
    // closed by now, so the aggregator ends the job either way, and the
    // next job must not be handed this one's result.
    let result = sink
        .next_result(Duration::from_secs(30))
        .ok_or("the reducer never saw EOF")?;
    let mut start_ns = u64::MAX;
    let mut sent_ns = 0;
    for stamp in stamps {
        let (first, last) = stamp.map_err(|e| format!("mapper failed: {e}"))?;
        start_ns = start_ns.min(first);
        sent_ns = sent_ns.max(last);
    }
    let (_, sum, distinct) = inputs::expected(streams);
    Ok(Job {
        start_ns,
        sent_ns,
        eof_ns: result.eof_ns,
        correct: result.well_formed && result.sum == sum && result.records == distinct,
    })
}

fn hadoop_round(cfg: &RoundCfg) -> Result<(RoundOut, Vec<f32>), String> {
    let mappers = generators();
    let inputs = HadoopInputs::new(cfg.seed, mappers, HADOOP_JOB_BYTES);
    let (records, _, _) = inputs::expected(&inputs.full);
    let job_bytes: usize = inputs.full.iter().map(|s| s.bytes.len()).sum();

    let sink = ReducerSink::start();
    let sut = Sut::hadoop(mappers, sink.addr().to_string());
    let first = run_job(sut.addr(), &sink, &inputs.tiny)?;
    if !first.correct {
        return Err("first job through the aggregator came out wrong".into());
    }
    let mut out: RoundOut = vec![("load.bringup_ms", cfg.since_process_start() * 1e3)];

    let chase = Chase::new();
    // A job, then a slice of the host-speed probe on as many threads.
    let full_job = |probe: &mut Vec<f32>| {
        let job = run_job(sut.addr(), &sink, &inputs.full);
        chase.slice(mappers, probe);
        job
    };
    // Warm-up is a fixed number of jobs, not a time box: a time box ends at
    // a job boundary, which would make `setup_s` jump by a whole job (14 %)
    // whenever the job count flips.
    for _ in 0..((cfg.warmup * HADOOP_WARMUP_JOBS_PER_S).round() as usize).max(1) {
        full_job(&mut Vec::new())?;
    }
    let before = sut.observe();
    out.push(("setup_s", cfg.since_process_start()));
    let until = now_ns() + (cfg.seconds * 1e9) as u64;
    let (mut jobs, mut probe) = (Vec::new(), Vec::new());
    while jobs.is_empty() || now_ns() < until {
        jobs.push(full_job(&mut probe));
    }
    let after = sut.observe();

    let attempted = jobs.len() as u64 * records;
    let good: Vec<&Job> = jobs
        .iter()
        .filter_map(|j| j.as_ref().ok())
        .filter(|j| j.correct)
        .collect();
    if good.is_empty() {
        return Err(format!(
            "hadoop_agg: no job completed correctly ({:?})",
            jobs.iter().find_map(|j| j.as_ref().err())
        ));
    }
    let completed = good.len() as u64 * records;
    out.push(("attempted", attempted as f64));
    out.push(("failed", (attempted - completed) as f64));

    let seconds: Vec<f64> = good
        .iter()
        .map(|j| (j.eof_ns - j.start_ns) as f64 / 1e9)
        .collect();
    let rate = |amount: f64| median(&seconds.iter().map(|s| amount / s).collect::<Vec<_>>());
    out.push(("ops_per_s", rate(records as f64)));
    out.push(("mbytes_per_s", rate(job_bytes as f64 / 1e6)));
    push_latencies(&mut out, &sorted(seconds.iter().map(|s| s * 1e6).collect()));
    out.extend(layer_metrics(&before, &after, completed));

    if cfg.trace {
        let span_s = |from: fn(&Job) -> u64, to: fn(&Job) -> u64| {
            median(
                &good
                    .iter()
                    .map(|j| (to(j) - from(j)) as f64 / 1e9)
                    .collect::<Vec<_>>(),
            )
        };
        out.push(("trace.send_s", span_s(|j| j.start_ns, |j| j.sent_ns)));
        out.push(("trace.drain_s", span_s(|j| j.sent_ns, |j| j.eof_ns)));
        let mut spans = String::new();
        for (id, job) in good.iter().enumerate() {
            for (name, parent, from, to) in [
                ("job", "null", job.start_ns, job.eof_ns),
                ("send", r#""job""#, job.start_ns, job.sent_ns),
                ("drain", r#""job""#, job.sent_ns, job.eof_ns),
            ] {
                let _ = writeln!(
                    spans,
                    r#"{{"name":"{name}","id":"job{id}","parent":{parent},"start_ns":{from},"end_ns":{to}}}"#
                );
            }
        }
        write_spans(cfg, &spans)?;
    }
    Ok((out, probe))
}

// -------------------------------------------------- probes that move bytes

/// p50 of `ops` closed-loop round trips on one connection, in µs, after a
/// tenth as many unrecorded ones. Used for the two floors: the generator
/// against a back-end emulator with no middlebox (`load.direct_rtt_us`) and
/// against the platform's static web server (`services.web_rtt_us`).
fn closed_loop_p50_us(ops: usize, mut one: impl FnMut() -> io::Result<u64>) -> Result<f64, String> {
    let mut latencies = Vec::with_capacity(ops);
    for i in 0..ops + ops / 10 {
        let ns = one().map_err(|e| format!("probe op failed: {e}"))?;
        if i >= ops / 10 {
            latencies.push(ns as f64 / 1e3);
        }
    }
    Ok(median(&latencies))
}

pub fn direct_rtt_us(seed: u64, ops: usize) -> Result<f64, String> {
    let inputs = Arc::new(Inputs::new(seed));
    let backend = Backend::start(0, Arc::clone(&inputs), inputs::SMALL_BODY, None);
    let mut client = Client::new(&inputs, backend.addr(), 0, inputs::SMALL_BODY);
    let mut rng = Rng::new(seed);
    closed_loop_p50_us(ops, || {
        let rec = client.op(Kind::Small, rng.below(PATH_POOL), false)?;
        Ok(rec.done_ns - rec.start_ns)
    })
}

pub fn web_rtt_us(ops: usize) -> Result<f64, String> {
    let body = [b'x'; inputs::SMALL_BODY];
    let sut = Sut::static_web(&body);
    let mut stream = TcpStream::connect(sut.addr()).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(OP_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut buf = MsgBuf::new(inputs::SMALL_BODY);
    closed_loop_p50_us(ops, || {
        let start = now_ns();
        stream.write_all(b"GET /s/probe HTTP/1.1\r\nHost: bench\r\n\r\n")?;
        let head = buf
            .read(&mut stream, OP_TIMEOUT)?
            .ok_or_else(|| bad("web server closed the connection"))?;
        if head.status != 200 || buf.body(&head) != body {
            return Err(bad("web server answered wrongly"));
        }
        Ok(now_ns() - start)
    })
}
