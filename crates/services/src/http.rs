//! The HTTP use case: load balancer and static web server (Figure 3a).
//!
//! The load balancer is a FLICK program, compiled like the Memcached and
//! Hadoop services. [`http_balancer`] forwards each incoming HTTP request to
//! one of a number of backend web servers, chosen with a naive hash of the
//! connection identity; subsequent requests on the same connection go to the
//! same backend (§6.1). [`http_path_balancer`] is the variant that binds
//! every backend per client and routes each request by a hash of its path,
//! opening a backend when the first request is routed to it.
//! The static-web-server variant answers every request itself with a fixed
//! payload and is used to exercise the platform without backends.

use flick_compiler::{compile_source, CompileOptions, CompiledService};
use flick_grammar::http::{self, HttpCodec};
use flick_net::Endpoint;
use flick_runtime::platform::BuiltGraph;
use flick_runtime::{
    ComputeLogic, GraphBuilder, GraphFactory, Outputs, Peer, Reads, RuntimeError, ServiceEnv, Value,
};
use std::sync::Arc;

/// The connection-sticky HTTP load balancer (Figure 3a): two forwarding
/// rules. The scalar `backend` parameter binds to one routed, healthy
/// member of the service's back-end pool, picked per client connection —
/// which back-end serves a connection is the pool's policy, not the
/// program's.
pub const HTTP_STICKY_LB_FLICK_SOURCE: &str = r#"
type request: record
  path : string

proc HttpStickyBalancer: (request/request client, request/request backend)
  client => backend
  backend => client
"#;

/// The path-hashed HTTP load balancer: every client graph binds each
/// back-end and the program routes request by request; a back-end is
/// connected when the first request is routed to it.
pub const HTTP_LB_FLICK_SOURCE: &str = r#"
type request: record
  path : string

proc HttpBalancer: (request/request client, [request/request] backends)
  client => pick_backend(backends)
  backends => client

fun pick_backend: ([-/request] backends, req: request) -> ()
  let target = hash(req.path) mod len(backends)
  req => backends[target]
"#;

/// A static web server: replies to every request with a fixed body.
pub struct StaticWebServerFactory {
    body: Vec<u8>,
}

impl StaticWebServerFactory {
    /// Creates the factory with the given response body (the paper uses a
    /// 137-byte payload).
    pub fn new(body: impl Into<Vec<u8>>) -> Arc<Self> {
        Arc::new(StaticWebServerFactory { body: body.into() })
    }
}

struct RespondLogic {
    body: Vec<u8>,
}

impl ComputeLogic for RespondLogic {
    fn on_value(
        &mut self,
        _input: usize,
        value: Value,
        out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError> {
        if value.as_msg().is_some() {
            out.emit(0, Value::Msg(http::response(200, &self.body)));
        }
        Ok(())
    }
}

impl GraphFactory for StaticWebServerFactory {
    fn build(
        &self,
        mut clients: Vec<Endpoint>,
        env: &ServiceEnv,
    ) -> Result<BuiltGraph, RuntimeError> {
        let client = clients
            .pop()
            .ok_or_else(|| RuntimeError::Config("no client connection".into()))?;
        let codec: Arc<HttpCodec> = Arc::new(HttpCodec::new());
        let mut builder = GraphBuilder::new("static-web", &env.allocator);
        let node = builder.declare_node();
        // It answers each request on its own connection, output 0.
        let reads = Reads {
            // It answers requests instead of forwarding them, so a body
            // is read and dropped here, never streamed.
            projection: Some(http::load_balancer_projection().with("body")),
            logic: Box::new(RespondLogic {
                body: self.body.clone(),
            }),
            input: 0,
        };
        builder.bind(
            node,
            "http",
            Peer::Client(&client),
            codec,
            Some(reads),
            true,
        );
        Ok(builder.build())
    }
}

/// Compiles the connection-sticky HTTP load balancer.
pub fn http_balancer() -> Arc<CompiledService> {
    compile_source(
        HTTP_STICKY_LB_FLICK_SOURCE,
        "HttpStickyBalancer",
        &CompileOptions::default(),
    )
    .expect("the embedded sticky balancer program compiles")
}

/// Compiles the path-hashed HTTP load balancer.
pub fn http_path_balancer() -> Arc<CompiledService> {
    compile_source(
        HTTP_LB_FLICK_SOURCE,
        "HttpBalancer",
        &CompileOptions::default(),
    )
    .expect("the embedded path-hashed balancer program compiles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_net::{SimListener, SimNetwork, StackModel};
    use flick_runtime::{ExecMode, Platform, PlatformConfig, ServiceSpec};
    use flick_workload::backends::start_http_backend;
    use flick_workload::http::{run_http_load, HttpLoadConfig};
    use std::time::Duration;

    #[test]
    fn static_web_server_answers_requests() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            ..Default::default()
        });
        let _svc = platform
            .deploy(ServiceSpec::new(
                "web",
                8090,
                StaticWebServerFactory::new(&b"hello"[..]),
            ))
            .unwrap();
        let stats = run_http_load(
            &platform.net(),
            &HttpLoadConfig {
                port: 8090,
                concurrency: 4,
                duration: Duration::from_millis(200),
                ..Default::default()
            },
        );
        assert!(stats.completed > 10, "{stats:?}");
        assert_eq!(stats.failed, 0);
    }

    /// Both balancers forward every message whole, so no input projects
    /// `body`: a body the buffer does not hold yet streams through a pipe.
    /// Their buffered twins project it everywhere.
    #[test]
    fn both_balancers_stream_their_bodies() {
        for balancer in [http_balancer(), http_path_balancer()] {
            assert!(balancer.projections().all(|p| !p.requires("body")));
            let buffered = balancer.with_bodies_buffered();
            assert!(buffered.projections().all(|p| p.requires("body")));
        }
    }

    /// One request through the balancer and back, on the bytecode VM and
    /// on its oracle, the interpreter.
    #[test]
    fn load_balancer_forwards_to_backends_and_back() {
        for mode in [ExecMode::Vm, ExecMode::Interp] {
            let net = SimNetwork::new(StackModel::Free);
            let backend_ports = [8191u16, 8192, 8193];
            let _backends: Vec<_> = backend_ports
                .iter()
                .map(|p| start_http_backend(&net, *p, b"from-backend"))
                .collect();
            let platform = Platform::with_network(
                PlatformConfig {
                    workers: 2,
                    ..Default::default()
                },
                Arc::clone(&net),
            );
            let _svc = platform
                .deploy(
                    ServiceSpec::new("lb", 8190, http_balancer())
                        .with_backends(backend_ports.to_vec())
                        .with_exec_mode(mode),
                )
                .unwrap();
            let client = net.connect(8190).unwrap();
            client
                .write_all(b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let mut buf = [0u8; 1024];
            let mut collected = Vec::new();
            loop {
                let n = client
                    .read_timeout(&mut buf, Duration::from_secs(5))
                    .unwrap();
                collected.extend_from_slice(&buf[..n]);
                if collected.windows(12).any(|w| w == b"from-backend") {
                    break;
                }
            }
            let text = String::from_utf8_lossy(&collected);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{mode:?}: {text}");
        }
    }

    #[test]
    fn load_balancer_spreads_connections_over_backends() {
        let net = SimNetwork::new(StackModel::Free);
        let backend_ports = [8291u16, 8292];
        let backends: Vec<_> = backend_ports
            .iter()
            .map(|p| start_http_backend(&net, *p, b"ok"))
            .collect();
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                ..Default::default()
            },
            Arc::clone(&net),
        );
        let _svc = platform
            .deploy(
                ServiceSpec::new("lb", 8290, http_balancer()).with_backends(backend_ports.to_vec()),
            )
            .unwrap();
        let stats = run_http_load(
            &net,
            &HttpLoadConfig {
                port: 8290,
                concurrency: 8,
                duration: Duration::from_millis(250),
                ..Default::default()
            },
        );
        assert!(stats.completed > 10, "{stats:?}");
        let served: Vec<u64> = backends.iter().map(|b| b.requests_served()).collect();
        assert!(
            served.iter().filter(|s| **s > 0).count() >= 2,
            "requests should hit both backends: {served:?}"
        );
    }

    /// One dead backend must not refuse connections: the health-aware
    /// checkout fails over to the live sibling within the same request.
    #[test]
    fn load_balancer_fails_over_past_a_dead_backend() {
        let net = SimNetwork::new(StackModel::Free);
        // Only 8392 is listening; hashed picks of 8391 must fail over.
        let _live = start_http_backend(&net, 8392, b"alive");
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                ..Default::default()
            },
            Arc::clone(&net),
        );
        let _svc = platform
            .deploy(ServiceSpec::new("lb", 8394, http_balancer()).with_backends(vec![8391, 8392]))
            .unwrap();
        let stats = run_http_load(
            &net,
            &HttpLoadConfig {
                port: 8394,
                concurrency: 4,
                duration: Duration::from_millis(200),
                ..Default::default()
            },
        );
        assert!(
            stats.completed > 10,
            "every connection should reach the live backend: {stats:?}"
        );
        let snap = platform.metrics().snapshot();
        assert!(snap.backend_checkouts > 0);
        snap.check_conservation().unwrap();
        snap.check_retry_budget().unwrap();
    }

    /// One dead member of the path-hashed balancer's array fails only the
    /// requests routed to it. A graph opens a member on the first request
    /// routed there, so a path that hashes to the live member is served
    /// and one that hashes to the dead member sees its connection closed
    /// promptly. Every failed open is one counted checkout fed to passive
    /// health, so the dead member is ejected. Over both transports.
    #[test]
    fn a_dead_array_member_fails_only_the_requests_routed_to_it() {
        use flick_compiler::interp::hash_value;
        use flick_runtime::Value;
        use flick_workload::http::fetch_http;
        use flick_workload::Fabric;
        use std::time::Instant;

        let patience = Duration::from_secs(1);
        let (live, dead): (Vec<String>, Vec<String>) = (0..12)
            .map(|i| format!("/p{i}"))
            .partition(|path| hash_value(&Value::Str(path.clone())) % 2 == 0);
        assert!(!live.is_empty() && !dead.is_empty(), "{live:?} {dead:?}");
        // Each path on a fresh connection: the response, or `None` for a
        // connection closed unanswered.
        let check = |platform: &Platform, fabric: &Fabric, port: u16| {
            for path in live.iter().chain(&dead) {
                let started = Instant::now();
                let response = match fetch_http(fabric, port, path, patience) {
                    Ok(response) if response.is_empty() => None,
                    Ok(response) => Some(response),
                    Err(flick_net::NetError::Closed) => None,
                    Err(e) => panic!("{path}: neither served nor refused: {e}"),
                };
                if live.contains(path) {
                    let text = String::from_utf8_lossy(response.as_deref().unwrap_or_default());
                    assert!(text.ends_with("alive"), "{path} on the live member: {text}");
                } else {
                    assert!(response.is_none(), "{path} on the dead member was answered");
                    assert!(
                        started.elapsed() < patience,
                        "{path} was not refused promptly"
                    );
                }
            }
            let snap = platform.metrics().snapshot();
            let requests = (live.len() + dead.len()) as u64;
            assert_eq!(snap.backend_checkouts, requests, "one open per request");
            assert!(snap.backend_ejections >= 1, "the dead member is ejected");
            snap.check_conservation().unwrap();
            snap.check_retry_budget().unwrap();
        };
        let config = PlatformConfig {
            workers: 2,
            ..Default::default()
        };

        // The simulated fabric: member 0 listens on 8491, nothing on 8492.
        let net = SimNetwork::new(StackModel::Free);
        let _live = start_http_backend(&net, 8491, b"alive");
        let platform = Platform::with_network(config.clone(), Arc::clone(&net));
        let _svc = platform
            .deploy(
                ServiceSpec::new("lb", 8490, http_path_balancer()).with_backends(vec![8491, 8492]),
            )
            .unwrap();
        check(&platform, &Fabric::from(&net), 8490);

        // Kernel sockets: a live back-end, and a port nothing listens on.
        let kernel = Fabric::kernel();
        let live_backend = start_http_backend(&kernel, 0, b"alive");
        let dead_port = kernel.listen(0).unwrap().port();
        let platform = Platform::new(config);
        let svc = platform
            .deploy_tcp(
                ServiceSpec::new("lb", 0, http_path_balancer()).with_tcp_backends(
                    [live_backend.port(), dead_port]
                        .map(flick_workload::fabric::loopback)
                        .to_vec(),
                ),
                "127.0.0.1:0",
            )
            .unwrap();
        check(&platform, &kernel, svc.port());
    }

    /// The path-hashed balancer on `port` in front of one back-end on
    /// `port + 1` whose connections the test accepts and answers itself.
    fn scripted_backend(port: u16) -> (Platform, flick_runtime::DeployedService, SimListener) {
        let net = SimNetwork::new(StackModel::Free);
        let backend = net.listen(port + 1).unwrap();
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                ..Default::default()
            },
            net,
        );
        let service = platform
            .deploy(
                ServiceSpec::new("lb", port, http_path_balancer()).with_backends(vec![port + 1]),
            )
            .unwrap();
        (platform, service, backend)
    }

    /// Reads from `conn` until `done` holds of everything read so far.
    fn read_until(conn: &Endpoint, done: impl Fn(&[u8]) -> bool) -> String {
        let mut seen = Vec::new();
        let mut buf = [0u8; 1024];
        while !done(&seen) {
            let n = conn.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
            seen.extend_from_slice(&buf[..n]);
        }
        String::from_utf8(seen).unwrap()
    }

    fn read_head(conn: &Endpoint) -> String {
        read_until(conn, |seen| seen.ends_with(b"\r\n\r\n"))
    }

    /// One client through the balancer: a request per entry of
    /// `responses`, each answered by the back-end with it, then — when
    /// `hang_up_early` — one more request that the client does not wait
    /// for. The client closes, and the back-end's end (`server`, or the
    /// connection the balancer opens) is returned once the graph is torn
    /// down.
    fn one_client(
        platform: &Platform,
        service: &flick_runtime::DeployedService,
        backend: &SimListener,
        mut server: Option<Endpoint>,
        responses: &[&[u8]],
        hang_up_early: bool,
    ) -> Endpoint {
        let client = platform.net().connect(service.port()).unwrap();
        for i in 0..responses.len() + usize::from(hang_up_early) {
            client
                .write_all(b"GET /a HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .unwrap();
            let server = server
                .get_or_insert_with(|| backend.accept_timeout(Duration::from_secs(5)).unwrap());
            let head = read_head(server);
            assert!(
                !head.contains("onnection"),
                "hop-by-hop header forwarded: {head}"
            );
            if let Some(response) = responses.get(i) {
                server.write_all(response).unwrap();
                read_until(&client, |seen| seen.ends_with(b"ok"));
            }
        }
        client.close();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "graph never torn down"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server.expect("the balancer connected")
    }

    const KEEP_ALIVE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    /// A closing client leaves its cleanly framed back-end connection to
    /// the next client: the second request arrives on the same connection.
    #[test]
    fn a_closing_client_leaves_its_back_end_connection_to_the_next() {
        let (platform, service, backend) = scripted_backend(8590);
        let server = one_client(&platform, &service, &backend, None, &[KEEP_ALIVE], false);
        let again = one_client(
            &platform,
            &service,
            &backend,
            Some(server.clone()),
            &[KEEP_ALIVE],
            false,
        );
        assert_eq!(again.id(), server.id());
        assert_eq!(backend.backlog(), 0, "no second back-end connection");
        let snap = platform.metrics().snapshot();
        assert_eq!((snap.backend_checkouts, snap.backend_retries), (2, 0));
    }

    /// A response that asks to close is never reused: the back-end sees
    /// EOF once the graph is gone.
    #[test]
    fn a_connection_close_response_closes_the_back_end_connection() {
        let (platform, service, backend) = scripted_backend(8592);
        let response = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok";
        let server = one_client(&platform, &service, &backend, None, &[response], false);
        let mut buf = [0u8; 16];
        assert_eq!(
            server.read_timeout(&mut buf, Duration::from_secs(5)),
            Err(flick_net::NetError::Closed)
        );
    }

    /// A client that hangs up before its second response arrived leaves
    /// two requests and one response on the back-end connection, each of
    /// them cleanly framed: it is closed, so the late response can never
    /// reach the next client.
    #[test]
    fn a_client_gone_before_its_response_closes_the_back_end_connection() {
        let (platform, service, backend) = scripted_backend(8594);
        let server = one_client(&platform, &service, &backend, None, &[KEEP_ALIVE], true);
        let mut buf = [0u8; 16];
        assert_eq!(
            server.read_timeout(&mut buf, Duration::from_secs(5)),
            Err(flick_net::NetError::Closed)
        );
    }

    /// A back-end that crashed while two of its connections were parked:
    /// the next request skips both dead connections and is served over a
    /// fresh connect, and neither stale connection feeds a health failure
    /// — [`EJECT_AFTER`](flick_runtime::pool::EJECT_AFTER) of them in a
    /// row would eject the back-end.
    #[test]
    fn a_back_end_crashed_while_parked_is_reconnected_without_a_health_failure() {
        let net = SimNetwork::new(StackModel::Free);
        let mut first = start_http_backend(&net, 8597, b"ok");
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                ..Default::default()
            },
            Arc::clone(&net),
        );
        let service = platform
            .deploy(ServiceSpec::new("lb", 8596, http_path_balancer()).with_backends(vec![8597]))
            .unwrap();
        // Keep-alive clients served one after another each hold their own
        // back-end connection until they hang up together; then all of
        // those connections are parked.
        let serve = |clients: u32| {
            let clients: Vec<Endpoint> = (0..clients).map(|_| net.connect(8596).unwrap()).collect();
            for client in &clients {
                client
                    .write_all(b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n")
                    .unwrap();
                read_until(client, |seen| seen.ends_with(b"ok"));
            }
            clients.iter().for_each(Endpoint::close);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while service.live_graphs() > 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "graph never torn down"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let stale = flick_runtime::pool::EJECT_AFTER;
        serve(stale);
        net.sever_port(8597);
        net.unlisten(8597);
        first.stop();
        let second = start_http_backend(&net, 8597, b"ok");
        serve(1);
        assert_eq!(second.requests_served(), 1);
        let snap = platform.metrics().snapshot();
        assert_eq!(
            (snap.backend_checkouts, snap.backend_retries),
            (u64::from(stale) + 1, 0)
        );
        assert_eq!(
            snap.backend_ejections, 0,
            "the stale connections are no failure"
        );
    }

    /// A request whose `Connection` header names `Content-Length` is
    /// refused: stripping the header it names would leave its body to be
    /// read downstream as a second request. The back-end sees exactly one
    /// request, the next client's.
    #[test]
    fn a_connection_header_naming_a_framing_header_never_reaches_the_back_end() {
        let net = SimNetwork::new(StackModel::Free);
        let backend = start_http_backend(&net, 8599, b"ok");
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                ..Default::default()
            },
            Arc::clone(&net),
        );
        let _service = platform
            .deploy(ServiceSpec::new("lb", 8598, http_path_balancer()).with_backends(vec![8599]))
            .unwrap();
        let hostile = net.connect(8598).unwrap();
        hostile
            .write_all(
                b"POST /a HTTP/1.1\r\nHost: t\r\nConnection: content-length\r\n\
                  Content-Length: 26\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(
            hostile.read_timeout(&mut buf, Duration::from_secs(5)),
            Err(flick_net::NetError::Closed)
        );
        let client = net.connect(8598).unwrap();
        client
            .write_all(b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        read_until(&client, |seen| seen.ends_with(b"ok"));
        assert_eq!(backend.requests_served(), 1);
    }

    #[test]
    fn lb_requires_backends() {
        let platform = Platform::new(PlatformConfig::default());
        let svc = platform
            .deploy(ServiceSpec::new("lb", 8390, http_balancer()))
            .unwrap();
        // A connection arrives but graph construction fails (no backends):
        // the client is refused by a prompt close, not left to time out.
        let client = platform.net().connect(8390).unwrap();
        let _ = client.write_all(b"GET / HTTP/1.1\r\n\r\n");
        let mut buf = [0u8; 16];
        assert_eq!(
            client.read_timeout(&mut buf, Duration::from_millis(500)),
            Err(flick_net::NetError::Closed)
        );
        assert_eq!(svc.live_graphs(), 0);
    }

    #[test]
    fn flick_source_for_the_lb_compiles() {
        let typed = flick_lang::compile_to_ast(HTTP_LB_FLICK_SOURCE).unwrap();
        assert!(typed.process("HttpBalancer").is_some());
        assert_eq!(http_path_balancer().process_name(), "HttpBalancer");
        assert_eq!(http_balancer().process_name(), "HttpStickyBalancer");
    }
}
