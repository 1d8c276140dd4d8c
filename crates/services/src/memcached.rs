//! The Memcached use case: proxy (Listing 1) and cache router.
//!
//! Both services are compiled from their FLICK sources; the proxy is the
//! exact program of Listing 1 and the cache router is the annotated variant
//! that caches `GETK` responses in a `global` dictionary shared by every
//! task-graph instance.

use flick_compiler::{compile_source, CompileOptions, CompiledService};
use std::sync::Arc;

/// Listing 1: the Memcached proxy program.
pub const MEMCACHED_PROXY_FLICK_SOURCE: &str = r#"
type cmd: record
  key : string

proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
  backends => client
  client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]
"#;

/// The Memcached cache-router program (the annotated Listing 1 variant):
/// `GETK` responses are cached in a shared dictionary and later requests for
/// the same key are answered by the router itself.
pub const MEMCACHED_ROUTER_FLICK_SOURCE: &str = r#"
type cmd: record
  opcode : integer
  key : string

proc MemcachedRouter: (cmd/cmd client, [cmd/cmd] backends)
  global cache := empty_dict
  backends => update_cache(cache) => client
  client => test_cache(client, backends, cache)

fun update_cache: (cache: ref dict<string*cmd>, resp: cmd) -> (cmd)
  if resp.opcode = 12:
    cache[resp.key] := resp
  resp

fun test_cache: (-/cmd client, [-/cmd] backends, cache: ref dict<string*cmd>, req: cmd) -> ()
  if cache[req.key] = None or req.opcode <> 12:
    let target = hash(req.key) mod len(backends)
    req => backends[target]
  else:
    cache[req.key] => client
"#;

/// Compiles the Memcached proxy service (Listing 1).
pub fn memcached_proxy() -> Arc<CompiledService> {
    compile_source(
        MEMCACHED_PROXY_FLICK_SOURCE,
        "Memcached",
        &CompileOptions::default(),
    )
    .expect("the embedded Listing 1 program compiles")
}

/// Compiles the Memcached cache-router service.
pub fn memcached_router() -> Arc<CompiledService> {
    compile_source(
        MEMCACHED_ROUTER_FLICK_SOURCE,
        "MemcachedRouter",
        &CompileOptions::default(),
    )
    .expect("the embedded cache-router program compiles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_grammar::{memcached as wire, ParseOutcome, WireCodec};
    use flick_net::SimNetwork;
    use flick_net::StackModel;
    use flick_runtime::tasks::ExecMode;
    use flick_runtime::{Platform, PlatformConfig, ServiceSpec};
    use flick_workload::backends::start_memcached_backend;
    use flick_workload::memcached::{run_memcached_load, MemcachedLoadConfig};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn both_programs_compile() {
        assert_eq!(memcached_proxy().process_name(), "Memcached");
        assert_eq!(memcached_router().process_name(), "MemcachedRouter");
    }

    #[allow(clippy::type_complexity)]
    fn deploy_proxy(
        service: Arc<CompiledService>,
        port: u16,
        backend_ports: &[u16],
        mode: ExecMode,
    ) -> (
        Arc<SimNetwork>,
        Platform,
        Vec<flick_workload::backends::BackendHandle>,
        flick_runtime::dispatcher::DeployedService,
    ) {
        let net = SimNetwork::new(StackModel::Free);
        let backends: Vec<_> = backend_ports
            .iter()
            .map(|p| start_memcached_backend(&net, *p))
            .collect();
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                ..Default::default()
            },
            Arc::clone(&net),
        );
        let svc = platform
            .deploy(
                ServiceSpec::new("memcached", port, service)
                    .with_backends(backend_ports.to_vec())
                    .with_exec_mode(mode),
            )
            .unwrap();
        (net, platform, backends, svc)
    }

    #[test]
    fn proxy_round_trips_requests_through_backends() {
        let (net, _platform, backends, _svc) =
            deploy_proxy(memcached_proxy(), 11300, &[11301, 11302], ExecMode::Vm);
        let stats = run_memcached_load(
            &net,
            &MemcachedLoadConfig {
                port: 11300,
                clients: 8,
                duration: Duration::from_millis(300),
                key_space: 64,
                ..Default::default()
            },
        );
        assert!(stats.completed > 20, "{stats:?}");
        let served: u64 = backends.iter().map(|b| b.requests_served()).sum();
        assert!(served > 0, "backends must have been consulted");
        // Keys are hash-partitioned, so with 64 keys both backends see traffic.
        assert!(backends.iter().all(|b| b.requests_served() > 0));
    }

    #[test]
    fn router_caches_getk_responses() {
        // Both engines, each running the rules in the reading tasks beside
        // the service's one shared cache.
        for (mode, port) in ExecMode::all().into_iter().zip([11400, 11410]) {
            router_caches_getk_responses_in(mode, port);
        }
    }

    fn router_caches_getk_responses_in(mode: ExecMode, port: u16) {
        let (net, _platform, backends, _svc) =
            deploy_proxy(memcached_router(), port, &[port + 1], mode);
        let codec = wire::MemcachedCodec::new();
        let client = net.connect(port).unwrap();
        let ask = |key: &str| {
            let mut out = Vec::new();
            codec
                .serialize(
                    &wire::request(wire::opcode::GETK, key.as_bytes(), b"", b""),
                    &mut out,
                )
                .unwrap();
            client.write_all(&out).unwrap();
            let mut collected = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                let n = client
                    .read_timeout(&mut buf, Duration::from_secs(5))
                    .unwrap();
                collected.extend_from_slice(&buf[..n]);
                if let Ok(ParseOutcome::Complete { message, .. }) = codec.parse(&collected, None) {
                    return message;
                }
            }
        };
        let first = ask("popular");
        assert_eq!(first.str_field("key"), Some("popular"));
        let after_first = backends[0].requests_served();
        assert!(after_first >= 1);
        // The second request for the same key is served from the router's
        // cache: the backend sees no additional request.
        let second = ask("popular");
        assert_eq!(second.str_field("key"), Some("popular"));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            backends[0].requests_served(),
            after_first,
            "cache hit must not reach the backend"
        );
    }
}
