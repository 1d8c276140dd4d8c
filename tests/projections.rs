//! The projection each input of a compiled service parses its messages
//! with (DESIGN.md §11, "When `body` is projected"): the fields its record
//! declares, every field the program reads, and `body` unless the input
//! forwards every message whole. The bundled services' projections are
//! pinned: a change here changes what their parsers materialise and which
//! bodies cross them through a kernel pipe.

use flick::compiler::{compile_source, CompileOptions, CompiledService};
use flick::grammar::Projection;
use flick::services::hadoop::hadoop_aggregator;
use flick::services::http::{http_balancer, http_path_balancer};
use flick::services::memcached::{memcached_proxy, memcached_router};

const ECHO: &str = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;

fn projections(service: &CompiledService) -> Vec<Projection> {
    service.projections().cloned().collect()
}

#[test]
fn bundled_services_project_what_they_read() {
    let path = Projection::of(["path"]);
    let key = Projection::of(["key"]);
    let router = Projection::of(["body", "key", "opcode"]);
    let aggregator = Projection::of(["body", "key", "value"]);
    let echo = compile_source(ECHO, "Echo", &CompileOptions::default()).unwrap();
    for (name, service, want) in [
        (
            "HTTP_LB",
            http_path_balancer(),
            vec![path.clone(), path.clone()],
        ),
        ("HTTP_STICKY_LB", http_balancer(), vec![path.clone(), path]),
        ("MEMCACHED_PROXY", memcached_proxy(), vec![key.clone(), key]),
        (
            "MEMCACHED_ROUTER",
            memcached_router(),
            vec![router.clone(), router],
        ),
        (
            "HADOOP_AGGREGATOR",
            hadoop_aggregator(2),
            vec![aggregator.clone(), aggregator],
        ),
        ("Echo", echo, vec![Projection::of(["key", "keylen", "tag"])]),
    ] {
        assert_eq!(projections(&service), want, "{name}");
    }
}

/// A `let` that rebinds the message parameter's name stores into that
/// parameter's slot: the message sent is the rebuilt one, and the one
/// received is dropped, so its body must be read, not left in a pipe.
#[test]
fn a_message_parameter_shadowed_by_a_let_keeps_its_body() {
    let src = r#"
type request: record
  path : string

proc P: (request/request client, [request/request] backends)
  client => route(backends)
  backends => client

fun route: ([-/request] backends, req: request) -> ()
  let req = request("/x")
  req => backends[0]
"#;
    let service = compile_source(src, "P", &CompileOptions::default()).unwrap();
    assert_eq!(
        projections(&service),
        vec![Projection::of(["body", "path"]), Projection::of(["path"])]
    );
}
