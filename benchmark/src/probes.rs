//! Timed calls into single layers through their public functions, on the
//! workloads' own bytes. Each probe is the cost of one call with nothing
//! else running; multiplied by the per-op counts of a round they say how
//! much of an op's latency a layer can account for.

use crate::inputs::{HadoopInputs, Inputs, Kind, BULK_BODY, SMALL_BODY};
use crate::load::{direct_rtt_us, web_rtt_us, RoundOut};
use crate::sut;
use crate::util::{median, now_ns};
use bytes::Bytes;
use flick_compiler::interp::{CollectSink, RtVal};
use flick_compiler::vm::Vm;
use flick_compiler::{compile_source, CompileOptions, CompiledService};
use flick_grammar::hadoop::{count_kv, HadoopKvCodec};
use flick_grammar::http::HttpCodec;
use flick_grammar::{Message, ParseOutcome, Projection, WireCodec};
use flick_runtime::{Task, TaskContext, TaskStatus, Value};
use flick_services::hadoop::hadoop_aggregator;
use flick_services::http::HTTP_LB_FLICK_SOURCE;
use std::hint::black_box;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::{Duration, Instant};

/// Nanoseconds per call of `f`: the batch size is grown until a batch takes
/// 5 ms, then the median of seven batches is reported.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let batch = |iters: u32, f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64
    };
    let mut iters = 1;
    while batch(iters, &mut f) < 5e6 && iters < 1 << 24 {
        iters *= 2;
    }
    median(
        &(0..7)
            .map(|_| batch(iters, &mut f) / f64::from(iters))
            .collect::<Vec<_>>(),
    )
}

/// Median wall time of `f`, in µs, over `runs` runs (set-up-path costs that
/// are too slow to batch).
fn median_us(runs: usize, mut f: impl FnMut()) -> f64 {
    median(
        &(0..runs)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_nanos() as f64 / 1e3
            })
            .collect::<Vec<_>>(),
    )
}

fn parse_one(codec: &dyn WireCodec, wire: &Bytes, projection: &Projection) -> Message {
    match codec.parse_bytes(wire, Some(projection)) {
        Ok(ParseOutcome::Complete { message, consumed }) if consumed == wire.len() => message,
        other => panic!("probe bytes did not parse as one message: {other:?}"),
    }
}

fn http_response(body: &[u8]) -> Bytes {
    let mut wire =
        format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
    wire.extend_from_slice(body);
    Bytes::from(wire)
}

fn function_index(service: &CompiledService, name: &str) -> usize {
    service
        .compiled()
        .functions
        .iter()
        .position(|f| f.name == name)
        .unwrap_or_else(|| panic!("function `{name}` is in the compiled program"))
}

fn compile_balancer() -> std::sync::Arc<CompiledService> {
    compile_source(
        HTTP_LB_FLICK_SOURCE,
        "HttpBalancer",
        &CompileOptions::default(),
    )
    .expect("the bundled balancer compiles")
}

/// A task that reports the instant it was entered and goes back to sleep.
struct WakeProbe(SyncSender<u64>);

impl Task for WakeProbe {
    fn label(&self) -> &str {
        "bench-wake-probe"
    }

    fn run(&mut self, _ctx: &mut TaskContext) -> TaskStatus {
        let _ = self.0.send(now_ns());
        TaskStatus::Idle
    }
}

/// p50 of external `Scheduler::schedule(id)` → task `run` entry, in µs, over
/// `wakes` wakes. The workers are given 20 µs to go back to sleep between
/// wakes, as they do between the hops of a small request.
fn sched_wake_us(wakes: usize) -> f64 {
    let platform = sut::platform();
    let scheduler = platform.scheduler();
    let id = platform.allocator().allocate();
    let (tx, rx) = sync_channel(1);
    scheduler.register(id, Box::new(WakeProbe(tx)));
    let mut latencies = Vec::with_capacity(wakes);
    for _ in 0..wakes {
        let pause = Instant::now();
        while pause.elapsed() < Duration::from_micros(20) {
            std::hint::spin_loop();
        }
        let scheduled = now_ns();
        scheduler.schedule(id);
        let entered = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the scheduler runs a scheduled task");
        latencies.push(entered.saturating_sub(scheduled) as f64 / 1e3);
    }
    scheduler.remove(id);
    median(&latencies)
}

pub fn run_probes(seed: u64) -> Result<RoundOut, String> {
    let inputs = Inputs::new(seed);
    let mut out: RoundOut = Vec::new();
    let mut put = |name: &'static str, value: f64| out.push((name, value));

    // grammar: the bytes the generator and the back-end put on the wire.
    let http = HttpCodec::new();
    let only_path = Projection::of(["path"]);
    let path = inputs.path(Kind::Small, 0);
    let request = Bytes::from(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nX-Req: c0-1\r\n\r\n").into_bytes(),
    );
    let small = http_response(inputs.body(&path, SMALL_BODY));
    let bulk = http_response(inputs.body(&path, BULK_BODY));
    put(
        "grammar.http_parse_req_ns",
        ns_per_call(|| drop(black_box(parse_one(&http, black_box(&request), &only_path)))),
    );
    put(
        "grammar.http_parse_resp_ns",
        ns_per_call(|| drop(black_box(parse_one(&http, black_box(&small), &only_path)))),
    );
    put(
        "grammar.http_parse_bulk_ns",
        ns_per_call(|| drop(black_box(parse_one(&http, black_box(&bulk), &only_path)))),
    );
    let parsed_request = parse_one(&http, &request, &only_path);
    let mut wire = Vec::with_capacity(4096);
    put(
        "grammar.http_serialize_ns",
        ns_per_call(|| {
            wire.clear();
            http.serialize(black_box(&parsed_request), &mut wire)
                .expect("a parsed request serializes");
            black_box(&wire);
        }),
    );

    let kv = HadoopKvCodec::new();
    let kv_fields = Projection::of(["key", "value"]);
    let records = Bytes::from(HadoopInputs::new(seed, 1, 64 * 1024).full.remove(0).bytes);
    let mut at = 0;
    put(
        "grammar.hadoop_parse_ns",
        ns_per_call(|| {
            if at == records.len() {
                at = 0;
            }
            match kv.parse_bytes(&records.slice(at..), Some(&kv_fields)) {
                Ok(ParseOutcome::Complete { message, consumed }) => {
                    at += consumed;
                    black_box(message);
                }
                other => panic!("generated records did not parse: {other:?}"),
            }
        }),
    );
    // What the aggregator emits is a record it built, not one it parsed, so
    // serialization cannot pass raw bytes through.
    let record = count_kv("w000abcdefgh", 4321);
    put(
        "grammar.hadoop_serialize_ns",
        ns_per_call(|| {
            wire.clear();
            kv.serialize(black_box(&record), &mut wire)
                .expect("a built record serializes");
            black_box(&wire);
        }),
    );

    // compiler: the two FLICK functions the workloads execute per message.
    let balancer = compile_balancer();
    let route = function_index(&balancer, "pick_backend");
    let mut cache = balancer.compiled().field_offsets.clone();
    let mut vm = Vm::new(balancer.compiled(), &mut cache);
    let mut sink = CollectSink::default();
    put(
        "compiler.vm_route_ns",
        ns_per_call(|| {
            sink.sent.clear();
            let args = vec![
                RtVal::ChannelArray(vec![0, 1]),
                RtVal::Val(Value::Msg(parsed_request.clone())),
            ];
            vm.call_function(route, args, &mut sink)
                .expect("pick_backend routes a parsed request");
            assert_eq!(sink.sent.len(), 1, "pick_backend sends to one back-end");
        }),
    );
    let aggregator = hadoop_aggregator(2);
    let combine = function_index(&aggregator, "combine");
    let mut cache = aggregator.compiled().field_offsets.clone();
    let mut vm = Vm::new(aggregator.compiled(), &mut cache);
    put(
        "compiler.vm_combine_ns",
        ns_per_call(|| {
            let args = vec![
                RtVal::Val(Value::Str("1234".into())),
                RtVal::Val(Value::Str("56".into())),
            ];
            let sum = vm
                .call_function(combine, args, &mut sink)
                .expect("combine adds two counters");
            black_box(sum);
        }),
    );
    put(
        "compiler.compile_us",
        median_us(21, || drop(black_box(compile_balancer()))),
    );
    put(
        "lang.frontend_us",
        median_us(21, || {
            black_box(flick_lang::compile_to_ast(HTTP_LB_FLICK_SOURCE).expect("front end accepts"));
        }),
    );

    // runtime, services, and the apparatus's own floor.
    put("runtime.sched_wake_us", sched_wake_us(10_000));
    put("services.web_rtt_us", web_rtt_us(5_000)?);
    put("load.direct_rtt_us", direct_rtt_us(seed, 5_000)?);
    Ok(out)
}
