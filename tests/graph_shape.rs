//! The shape of the graph a service builds (DESIGN.md §5): one task per
//! connection, which reads it, writes it, or both. Every rule runs in the
//! task of the connection that parsed its message, whichever engine runs
//! it, and so does a `foldt`, in the tasks of the array it folds.

use flick::net_substrate::{Endpoint, SimNetwork, StackModel};
use flick::runtime_crate::graph::TaskIdAllocator;
use flick::runtime_crate::tasks::ExecMode;
use flick::runtime_crate::{BackendPool, BackendTarget, GraphFactory, RuntimeMetrics, ServiceEnv};
use flick::services::hadoop::hadoop_aggregator;
use flick::services::http::{http_balancer, http_path_balancer, StaticWebServerFactory};
use flick::services::memcached::{memcached_proxy, memcached_router};
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_grammar::hadoop::{count_kv, HadoopKvCodec};
use flick_grammar::WireCodec;
use flick_workload::backends::{start_http_backend, start_sink_backend};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The labels of the tasks `service` builds for one graph on the sim,
/// sorted.
fn labels(service: &dyn GraphFactory, mode: ExecMode) -> Vec<String> {
    let net = SimNetwork::new(StackModel::Free);
    let _backends = [net.listen(9001).unwrap(), net.listen(9002).unwrap()];
    let targets = [9001, 9002]
        .map(|port| BackendTarget::Sim {
            net: Arc::clone(&net),
            port,
        })
        .into();
    let env = ServiceEnv {
        net: Arc::clone(&net),
        backends: BackendPool::new(targets, RuntimeMetrics::new_shared()),
        allocator: Arc::new(TaskIdAllocator::new()),
        exec_mode: mode,
    };
    let _front = net.listen(9000).unwrap();
    let clients: Vec<Endpoint> = (0..service.connections_per_graph())
        .map(|_| net.connect(9000).unwrap())
        .collect();
    let graph = service.build(clients, &env).expect("the graph builds");
    let mut labels: Vec<String> = graph.task_labels().map(str::to_string).collect();
    labels.sort();
    labels
}

/// Each service builds exactly one task per connection of its graph, in
/// both engines: the client's, and one per back-end it binds (two array
/// members, or the sticky balancer's one routed back-end). The aggregator
/// folds in the tasks of its two mapper connections, which it only reads,
/// and writes through the reducer's, which it only writes: three tasks.
#[test]
fn every_graph_is_one_task_per_connection() {
    let members = ["backends-0", "backends-1", "client-0"];
    let services: [(&str, Arc<dyn GraphFactory>, &[&str]); 6] = [
        ("HTTP_LB", http_path_balancer(), &members),
        (
            "HTTP_STICKY_LB",
            http_balancer(),
            &["backend-0", "client-0"],
        ),
        ("MEMCACHED_PROXY", memcached_proxy(), &members),
        ("MEMCACHED_ROUTER", memcached_router(), &members),
        (
            "STATIC_WEB",
            StaticWebServerFactory::new(b"static".to_vec()),
            &["http"],
        ),
        (
            "HADOOP_AGGREGATOR",
            hadoop_aggregator(2),
            &["mappers-0", "mappers-1", "reducer-0"],
        ),
    ];
    for (name, service, connections) in services {
        for mode in ExecMode::all() {
            assert_eq!(
                labels(service.as_ref(), mode),
                connections,
                "{name}, {mode:?}: one task per connection"
            );
        }
    }
}

/// Both engines serve a keep-alive request from the client's task and
/// the back-end's alone: two task runs, two messages parsed and two rule
/// runs per request.
#[test]
fn both_exec_modes_run_the_rules_in_the_input_task() {
    for mode in ExecMode::all() {
        let net = SimNetwork::new(StackModel::Free);
        let _backends = [
            start_http_backend(&net, 9101, b"shaped"),
            start_http_backend(&net, 9102, b"shaped"),
        ];
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                shards: 1,
            },
            Arc::clone(&net),
        );
        let spec = ServiceSpec::new("lb", 9100, http_path_balancer())
            .with_backends(vec![9101, 9102])
            .with_exec_mode(mode);
        let _service = platform.deploy(spec).expect("deploy");
        let client = net.connect(9100).unwrap();
        let exchange = |n: usize| {
            let request = format!("GET /r{n} HTTP/1.1\r\nHost: shape\r\n\r\n");
            client.write_all(request.as_bytes()).unwrap();
            let mut response = Vec::new();
            let mut chunk = [0u8; 1024];
            while !response.ends_with(b"shaped") {
                let n = client
                    .read_timeout(&mut chunk, Duration::from_secs(5))
                    .expect("a response");
                response.extend_from_slice(&chunk[..n]);
            }
        };
        // Open both back-ends first.
        (0..20).for_each(exchange);
        let before = platform.metrics().snapshot();
        (20..120).for_each(exchange);
        let after = platform.metrics().snapshot();
        let counts = (
            after.messages_in - before.messages_in,
            after.values_processed - before.values_processed,
        );
        assert_eq!(counts, (200, 200), "{mode:?}: parsed, rule runs");
        // Two runs per request, within `tests/cost_budget.rs`'s band: one
        // per socket event. An expired timeslice adds a run, or merges
        // with the task's next wake.
        let runs = after.task_runs - before.task_runs;
        let yields = after.cooperative_yields - before.cooperative_yields;
        assert!(
            runs >= 196 && runs - yields <= 204,
            "{mode:?}: {runs} task runs, {yields} of them yields, for 100 requests"
        );
    }
}

/// A rule that fails ends its graph instance, whether it routes or folds:
/// a routing function that divides by zero, and a fold's combine that
/// does, both in the task of the connection that parsed the message. The
/// client is closed unanswered, or the reducer gets no aggregate, and the
/// graph is torn down well inside the drain grace (2 s), with every task
/// that writes woken by the failure's close.
#[test]
fn a_failing_rule_ends_its_graph_on_either_shape() {
    const BALANCER: &str = r#"
type request: record
  path : string

proc P: (request/request client, [request/request] backends)
  client => pick(backends)
  backends => client

fun pick: ([-/request] backends, req: request) -> ()
  let target = 1 mod (len(req.path) - len(req.path))
  req => backends[target]
"#;
    const AGGREGATOR: &str = r#"
type kv: record
  key : string
  value : string

proc P: ([kv/-] mappers, -/kv reducer):
  if all_ready(mappers):
    let result = foldt on mappers ordering elem e1, e2 by elem.key as e_key:
      kv(e_key, str(1 mod (len(e1.value) - len(e2.value))))
    result => reducer
"#;
    for fold in [false, true] {
        let source = if fold { AGGREGATOR } else { BALANCER };
        let service = flick::compiler::compile_source(source, "P", &Default::default()).unwrap();
        let net = SimNetwork::new(StackModel::Free);
        let (_backend, reduced) = start_sink_backend(&net, 9201);
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                shards: 1,
            },
            Arc::clone(&net),
        );
        let spec = ServiceSpec::new("failing", 9200, service).with_backends(vec![9201]);
        let _service = platform.deploy(spec).expect("deploy");
        let client = net.connect(9200).unwrap();
        if fold {
            // Two records of one key: their combine fails. The second
            // comes once every task has had its first run, so only the
            // failure's close can wake the reducer's task.
            let codec = HadoopKvCodec::new();
            for count in [1, 2] {
                let mut wire = Vec::new();
                codec.serialize(&count_kv("k", count), &mut wire).unwrap();
                client.write_all(&wire).unwrap();
                std::thread::sleep(Duration::from_millis(100));
            }
        } else {
            client
                .write_all(b"GET /x HTTP/1.1\r\nHost: f\r\n\r\n")
                .unwrap();
            let mut chunk = [0u8; 64];
            assert!(
                client
                    .read_timeout(&mut chunk, Duration::from_secs(1))
                    .is_err(),
                "closed unanswered"
            );
        }
        client.close();
        let started = std::time::Instant::now();
        while platform.metrics().snapshot().live_graphs() > 0 {
            assert!(
                started.elapsed() < Duration::from_millis(1500),
                "fold {fold}: the graph outlived its rule"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reduced.load(Ordering::Relaxed), 0, "fold {fold}");
    }
}
