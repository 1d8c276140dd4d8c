//! The HTTP use case: load balancer and static web server (Figure 3a).
//!
//! The load balancer forwards each incoming HTTP request to one of a number
//! of backend web servers, choosing the backend with a naive hash of the
//! connection identity; subsequent requests on the same connection go to the
//! same backend, and the return path forwards data without parsing (§6.1).
//! The static-web-server variant answers every request itself with a fixed
//! payload and is used to exercise the platform without backends.

use flick_grammar::http::{self, HttpCodec};
use flick_net::Endpoint;
use flick_runtime::platform::BuiltGraph;
use flick_runtime::{
    ComputeLogic, ComputeTask, GraphBuilder, GraphFactory, Outputs, Peer, RuntimeError, ServiceEnv,
    Value,
};
use std::sync::Arc;

/// The FLICK program for the HTTP load balancer, as a developer would write
/// it. The hand-assembled task graph below is exactly the graph the compiler
/// produces for it, specialised to connect lazily to the single chosen
/// backend (Figure 3a).
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
        let input_node = builder.declare_node();
        let compute_node = builder.declare_node();
        let output_node = builder.declare_node();
        let req_rx = builder.bind_input(
            input_node,
            "http-in",
            Peer::Client(&client),
            codec.clone(),
            Some(http::load_balancer_projection()),
            compute_node,
        );
        let resp_tx = builder.bind_output(output_node, "http-out", &client, codec);
        builder.install(
            compute_node,
            Box::new(ComputeTask::new(
                "respond",
                vec![req_rx],
                vec![resp_tx],
                Box::new(RespondLogic {
                    body: self.body.clone(),
                }),
            )),
        );
        Ok(builder.build())
    }
}

/// The HTTP load balancer of Figure 3a.
///
/// Each client connection gets its own task graph. The first request selects
/// a backend with a hash of the connection identity; the graph then consists
/// of: client input task → compute task → backend output task on the forward
/// path, and backend input task → compute task → client output task on the
/// return path (the return path forwards responses without modification).
pub struct HttpLoadBalancerFactory;

impl HttpLoadBalancerFactory {
    /// Creates the factory.
    pub fn new() -> Arc<Self> {
        Arc::new(HttpLoadBalancerFactory)
    }
}

/// Forward path: client requests go to the single backend output; return
/// path: backend responses go back to the client output.
struct ForwardLogic;

impl ComputeLogic for ForwardLogic {
    fn on_value(
        &mut self,
        input: usize,
        value: Value,
        out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError> {
        match input {
            // Input 0: requests from the client → output 0 (backend).
            0 => out.emit(0, value),
            // Input 1: responses from the backend → output 1 (client).
            _ => out.emit(1, value),
        }
        Ok(())
    }
}

impl GraphFactory for HttpLoadBalancerFactory {
    fn build(
        &self,
        mut clients: Vec<Endpoint>,
        env: &ServiceEnv,
    ) -> Result<BuiltGraph, RuntimeError> {
        let client = clients
            .pop()
            .ok_or_else(|| RuntimeError::Config("no client connection".into()))?;
        if env.backends.is_empty() {
            return Err(RuntimeError::Config(
                "the HTTP load balancer needs at least one backend".into(),
            ));
        }
        // Naive hash of the connection identity seeds the backend pick for
        // this connection; all requests on the connection stick to it. The
        // health-aware checkout skips ejected backends and fails over past
        // a dead target within this same call, so one crashed backend does
        // not refuse the connection while siblings are up.
        let (_backend_idx, backend) = env.backends.checkout_healthy(Some(client.id() as usize))?;

        let codec: Arc<HttpCodec> = Arc::new(HttpCodec::new());
        let mut builder = GraphBuilder::new("http-lb", &env.allocator);
        let client_in = builder.declare_node();
        let backend_in = builder.declare_node();
        let compute_node = builder.declare_node();
        let backend_out = builder.declare_node();
        let client_out = builder.declare_node();

        let req_rx = builder.bind_input(
            client_in,
            "client-in",
            Peer::Client(&client),
            codec.clone(),
            Some(http::load_balancer_projection()),
            compute_node,
        );
        // The return path needs no parsing beyond message framing; the raw
        // bytes are forwarded unchanged (projection keeps only framing
        // fields).
        let resp_rx = builder.bind_input(
            backend_in,
            "backend-in",
            Peer::Backend(&backend),
            codec.clone(),
            Some(http::load_balancer_projection()),
            compute_node,
        );
        let fwd_tx = builder.bind_output(backend_out, "backend-out", &backend, codec.clone());
        let ret_tx = builder.bind_output(client_out, "client-out", &client, codec);
        builder.install(
            compute_node,
            Box::new(ComputeTask::new(
                "balance",
                vec![req_rx, resp_rx],
                vec![fwd_tx, ret_tx],
                Box::new(ForwardLogic),
            )),
        );
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_net::SimNetwork;
    use flick_net::StackModel;
    use flick_runtime::{Platform, PlatformConfig, ServiceSpec};
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

    #[test]
    fn load_balancer_forwards_to_backends_and_back() {
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
                ServiceSpec::new("lb", 8190, HttpLoadBalancerFactory::new())
                    .with_backends(backend_ports.to_vec()),
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
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
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
                ServiceSpec::new("lb", 8290, HttpLoadBalancerFactory::new())
                    .with_backends(backend_ports.to_vec()),
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
            .deploy(
                ServiceSpec::new("lb", 8394, HttpLoadBalancerFactory::new())
                    .with_backends(vec![8391, 8392]),
            )
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
        snap.check_retry_budget(flick_runtime::BackendPolicy::default().retry_budget as u64)
            .unwrap();
    }

    #[test]
    fn lb_requires_backends() {
        let platform = Platform::new(PlatformConfig::default());
        let svc = platform
            .deploy(ServiceSpec::new("lb", 8390, HttpLoadBalancerFactory::new()))
            .unwrap();
        // A connection arrives but graph construction fails (no backends);
        // the client connection is simply dropped.
        let client = platform.net().connect(8390).unwrap();
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(svc.live_graphs(), 0);
    }

    #[test]
    fn flick_source_for_the_lb_compiles() {
        let typed = flick_lang::compile_to_ast(HTTP_LB_FLICK_SOURCE).unwrap();
        assert!(typed.process("HttpBalancer").is_some());
        let service = flick_compiler::compile(
            &typed,
            "HttpBalancer",
            &flick_compiler::CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(service.process_name(), "HttpBalancer");
    }
}
