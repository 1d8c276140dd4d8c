//! Criterion benches for the grammar engine: full-message parsing versus
//! projection-specialised parsing (the DESIGN.md ablation), and
//! serialisation pass-through.
//!
//! The `projection_multikb` group is the large-skipped-field ablation: a
//! router-style projection over messages whose body grows to multi-KB
//! sizes. With the span-scan engine a projected parse touches only the
//! header — the body is neither UTF-8 validated nor copied (shared-buffer
//! parsing copies nothing at all) — so the projected/full gap widens with
//! body size, which is the paper's argument for projection.

use criterion::{criterion_group, criterion_main, Criterion};
use flick_grammar::model::{FieldKind, GrammarItem, LenExpr, UnitGrammar};
use flick_grammar::{http, memcached, GrammarCodec, Projection, WireCodec};

fn bench_grammar(c: &mut Criterion) {
    let codec = memcached::MemcachedCodec::new();
    let mut wire = Vec::new();
    codec
        .serialize(
            &memcached::request(memcached::opcode::GETK, b"user:12345", b"", &[7u8; 64]),
            &mut wire,
        )
        .unwrap();
    let projection = memcached::router_projection();
    let mut group = c.benchmark_group("grammar");
    group.bench_function("memcached_parse_full", |b| {
        b.iter(|| codec.parse(&wire, None).unwrap())
    });
    group.bench_function("memcached_parse_projected", |b| {
        b.iter(|| codec.parse(&wire, Some(&projection)).unwrap())
    });
    let http_codec = http::HttpCodec::new();
    let request = b"GET /index.html HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n";
    group.bench_function("http_parse_request", |b| {
        b.iter(|| http_codec.parse(request, None).unwrap())
    });
    group.finish();
}

/// A post-like unit: small routed header, textual body of variable size —
/// the shape where the paper's projection argument has the most to gain.
fn post_grammar() -> GrammarCodec {
    let grammar = UnitGrammar::new("post")
        .item(GrammarItem::field("tag", FieldKind::UInt { width: 2 }))
        .item(GrammarItem::field("body_len", FieldKind::UInt { width: 4 }))
        .item(GrammarItem::field(
            "body",
            FieldKind::Str {
                length: LenExpr::field("body_len"),
            },
        ))
        .ser_rule("body_len", LenExpr::LenOf("body".into()));
    GrammarCodec::new(grammar).unwrap()
}

fn bench_projection_multikb(c: &mut Criterion) {
    let codec = post_grammar();
    // The router projection: the program reads the tag, never the body.
    let projection = Projection::of(["tag"]);
    let mut group = c.benchmark_group("projection_multikb");
    for body_kb in [1usize, 4, 16] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&[0, 7]); // tag
        let body = vec![b'x'; body_kb * 1024];
        wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
        wire.extend_from_slice(&body);
        let shared = bytes::Bytes::from(wire.clone());
        group.bench_function(format!("full_{body_kb}kb"), |b| {
            b.iter(|| codec.parse(&wire, None).unwrap())
        });
        group.bench_function(format!("projected_{body_kb}kb"), |b| {
            b.iter(|| codec.parse(&wire, Some(&projection)).unwrap())
        });
        group.bench_function(format!("full_shared_{body_kb}kb"), |b| {
            b.iter(|| codec.parse_bytes(&shared, None).unwrap())
        });
        group.bench_function(format!("projected_shared_{body_kb}kb"), |b| {
            b.iter(|| codec.parse_bytes(&shared, Some(&projection)).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_grammar, bench_projection_multikb
}
criterion_main!(benches);
