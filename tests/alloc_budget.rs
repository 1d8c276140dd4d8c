//! Heap allocations per record: the budget of the paths a record takes
//! through the Hadoop aggregator (parse, the VM's `foldt` merge, then
//! serialisation of the merged record) and of an HTTP parse, counted by
//! this binary's global allocator. A record used to pay for its own names
//! (the unit and every field name copied into each message) and for a
//! fresh frame per VM call; the budgets below hold the numbers reached
//! once names are interned, frames live on the operand stack, last uses
//! move instead of copying, serialisation evaluates lengths over stack
//! slots and HTTP header lines are counted instead of collected. Before
//! those changes, on the same inputs: 7 allocations per `kv` parse, 14 per
//! merge of a parsed record into a stored one, 9 per serialisation of a
//! built `kv` record, 10 per HTTP request parse and 10 per HTTP response
//! parse (a `path` projection, as both balancers use).
//!
//! Each test counts only what its own thread allocates, so the tests may
//! run in parallel. Run in debug and in release: an optimiser may elide an
//! allocation that a debug build keeps, and the budget holds in both.

use bytes::Bytes;
use flick::compiler::logic::{Fold, FoldtLogic};
use flick::grammar::hadoop::{count_kv, HadoopKvCodec};
use flick::grammar::http::HttpCodec;
use flick::grammar::{interned_names, Message, ParseOutcome, Projection, WireCodec};
use flick::runtime_crate::{
    LogicHarness, RuntimeMetrics, TaskChannel, TaskContext, TaskId, Value, NO_DEADLINE,
};
use flick::services::hadoop::hadoop_aggregator;
use flick::services::http::http_path_balancer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation and reallocation the
/// calling thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also serves threads whose locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (every allocation
        // of this allocator is `System`'s).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, and the caller's guarantees for
        // `new_size` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

const RECORDS: usize = 1000;
const WORDS: usize = 100;

/// `RECORDS` wordcount records over `WORDS` distinct 12-byte words, as
/// one mapper stream.
fn kv_stream() -> Bytes {
    let codec = HadoopKvCodec::new();
    let mut wire = Vec::new();
    for i in 0..RECORDS {
        let word = format!("w{:011}", i % WORDS);
        codec
            .serialize(&count_kv(&word, 1 + i as u64 % 97), &mut wire)
            .expect("a built record serializes");
    }
    Bytes::from(wire)
}

/// Parses every record of `wire` as the aggregator's input task does:
/// zero-copy, projected on the fields the program reads. Returns the
/// most allocations one parse made.
fn parse_all(codec: &HadoopKvCodec, wire: &Bytes, out: &mut Vec<Message>) -> u64 {
    let projection = Projection::of(["key", "value"]);
    let mut at = 0;
    let mut most = 0;
    while at < wire.len() {
        let rest = wire.slice(at..);
        match counted(|| codec.parse_bytes(&rest, Some(&projection))) {
            (Ok(ParseOutcome::Complete { message, consumed }), allocations) => {
                at += consumed;
                most = most.max(allocations);
                out.push(message);
            }
            (other, _) => panic!("a generated record did not parse: {other:?}"),
        }
    }
    most
}

/// A parsed `kv` record owns its field vector, its key and its value,
/// nothing else: no name, no span list (was 7).
#[test]
fn a_kv_parse_allocates_its_fields_and_its_two_strings() {
    let codec = HadoopKvCodec::new();
    let wire = kv_stream();
    let mut records = Vec::with_capacity(RECORDS);
    let most = parse_all(&codec, &wire, &mut records);
    assert_eq!(records.len(), RECORDS);
    assert_eq!(records[0].str_field("key"), Some("w00000000000"));
    assert_eq!(most, 3, "allocations in one kv parse");
}

/// Merging a parsed record into a stored one on the VM: the merge key,
/// the two projected counters, the sum's decimal text and the new
/// record's field vector (was 14: the names, a frame per call, and a copy
/// of every local the body read for the last time). And the end of the
/// first of two inputs allocates nothing: its map moves into the graph's
/// fold whole.
#[test]
fn a_vm_foldt_merge_allocates_five_times() {
    let service = hadoop_aggregator(2);
    let fold = Fold::new(2);
    let (program, compiled) = (service.program().clone(), service.compiled().clone());
    let logic = FoldtLogic::new(program, Some(compiled), fold, 0);
    let (output, output_rx) = TaskChannel::bounded(RECORDS, TaskId(2));
    let mut logic = LogicHarness::new(Box::new(logic), vec![output]);
    let mut ctx = TaskContext::new(TaskId(0), NO_DEADLINE, RuntimeMetrics::new_shared());
    let mut records = Vec::with_capacity(RECORDS);
    parse_all(&HadoopKvCodec::new(), &kv_stream(), &mut records);
    // The first occurrence of each word is stored, not merged; the first
    // merges grow the VM's operand stack to its depth.
    let mut records = records.into_iter();
    for record in records.by_ref().take(2 * WORDS) {
        logic.on_value(0, Value::Msg(record), &mut ctx).unwrap();
    }
    let merges = records.len() as u64;
    let (merged, allocations) =
        counted(|| records.try_for_each(|record| logic.on_value(0, Value::Msg(record), &mut ctx)));
    merged.unwrap();
    assert_eq!(
        allocations,
        5 * merges,
        "allocations per VM foldt merge: {}",
        allocations as f64 / merges as f64
    );
    let (ended, allocations) = counted(|| logic.on_input_finished(0, &mut ctx));
    ended.unwrap();
    assert_eq!(allocations, 0, "allocations when the first input ends");
    assert!(output_rx.is_empty(), "the other input has not ended");
}

fn parse_http(wire: &'static [u8]) -> u64 {
    let codec = HttpCodec::new();
    let projection = Projection::of(["path"]);
    let wire = Bytes::from_static(wire);
    let (outcome, allocations) = counted(|| codec.parse_bytes(&wire, Some(&projection)));
    assert!(matches!(outcome, Ok(ParseOutcome::Complete { .. })));
    allocations
}

/// An HTTP request parsed for a balancer owns its field vector and its
/// method, path and version strings (was 10, then 5 while the header
/// lines were collected into a list only to be counted).
#[test]
fn an_http_request_parse_allocates_no_name() {
    let request = b"GET /p/123 HTTP/1.1\r\nHost: bench\r\nX-Req: c0-1\r\n\r\n";
    assert_eq!(parse_http(request), 4);
}

/// An HTTP response likewise: field vector, version, reason and the
/// reason's word list (was 10, then 5 with the header-line list).
#[test]
fn an_http_response_parse_allocates_no_name() {
    let response = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
    assert_eq!(parse_http(response), 4);
}

/// A built `kv` record — what the aggregator emits per distinct key —
/// serialises into an `out` with room for it without allocating: the
/// length expressions read `(name, value)` slots on the stack (was 9: two
/// maps keyed by owned names, built per message).
#[test]
fn a_built_kv_serialize_allocates_nothing() {
    let codec = HadoopKvCodec::new();
    let record = count_kv("w00000000000", 4242);
    let mut out = Vec::with_capacity(64);
    let (result, allocations) = counted(|| codec.serialize(&record, &mut out));
    result.expect("a built record serializes");
    assert_eq!(out.len(), 8 + 12 + 4);
    assert_eq!(&out[..8], &[0, 0, 0, 12, 0, 0, 0, 4]);
    assert_eq!(allocations, 0, "allocations in one kv serialize");
}

/// Names are interned when a codec is built or a program is lowered,
/// never per message: parsing does not grow the set, and neither does
/// compiling a program whose names it already holds.
#[test]
fn the_interner_grows_with_programs_not_with_messages() {
    let codec = HadoopKvCodec::new();
    let wire = kv_stream();
    let mut records = Vec::with_capacity(RECORDS);
    let aggregator = hadoop_aggregator(2);
    let balancer = http_path_balancer();
    let names = interned_names();
    for _ in 0..10_000 / RECORDS {
        records.clear();
        parse_all(&codec, &wire, &mut records);
    }
    assert_eq!(interned_names(), names, "parsing interned a name");
    let again = (hadoop_aggregator(2), http_path_balancer());
    assert_eq!(interned_names(), names, "a second compile interned a name");
    drop((aggregator, balancer, again));
}
