//! The shape of the graph a compiled service builds (DESIGN.md §5): a
//! process that keeps no state between messages runs its rules in each
//! input task and builds no compute task, whichever engine runs them; one
//! with a `global` or a `foldt` keeps its compute task behind channels.

use flick::compiler::CompiledService;
use flick::net_substrate::{Endpoint, SimNetwork, StackModel};
use flick::runtime_crate::graph::TaskIdAllocator;
use flick::runtime_crate::tasks::ExecMode;
use flick::runtime_crate::{BackendPool, BackendTarget, GraphFactory, RuntimeMetrics, ServiceEnv};
use flick::services::hadoop::hadoop_aggregator;
use flick::services::http::{http_balancer, http_path_balancer};
use flick::services::memcached::{memcached_proxy, memcached_router};
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_workload::backends::start_http_backend;
use std::sync::Arc;
use std::time::Duration;

/// The labels of the tasks `service` builds for one graph on the sim.
fn labels(service: &CompiledService, mode: ExecMode) -> Vec<String> {
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
    graph.task_labels().map(str::to_string).collect()
}

#[test]
fn only_a_process_with_state_builds_a_compute_task() {
    for (name, service, stateless) in [
        ("HTTP_LB", http_path_balancer(), true),
        ("HTTP_STICKY_LB", http_balancer(), true),
        ("MEMCACHED_PROXY", memcached_proxy(), true),
        ("MEMCACHED_ROUTER", memcached_router(), false),
        ("HADOOP_AGGREGATOR", hadoop_aggregator(2), false),
    ] {
        assert_eq!(service.is_stateless(), stateless, "{name}");
        for mode in ExecMode::all() {
            let labels = labels(&service, mode);
            let computes = labels.iter().filter(|l| l.ends_with("-compute")).count();
            assert_eq!(
                computes,
                usize::from(!stateless),
                "{name}, {mode:?}: {labels:?}"
            );
        }
    }
}

/// Both engines serve a keep-alive request from the two input tasks alone:
/// two task runs, two messages parsed and two rule runs per request.
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
        // Two runs per request, within `tests/cost_budget.rs`'s band: a
        // compute task behind channels would make it six. An expired
        // timeslice adds a run, or merges with the task's next wake.
        let runs = after.task_runs - before.task_runs;
        let yields = after.cooperative_yields - before.cooperative_yields;
        assert!(
            runs >= 196 && runs - yields <= 204,
            "{mode:?}: {runs} task runs, {yields} of them yields, for 100 requests"
        );
    }
}

/// A rule that fails ends its graph instance on either shape: the client
/// is closed unanswered and the graph torn down well inside the drain
/// grace (2 s), with every output task woken by the close that ended its
/// channel.
#[test]
fn a_failing_rule_ends_its_graph_on_either_shape() {
    let program = |stateful: bool| {
        let (global, arg, param) = if stateful {
            (
                "  global seen := empty_dict\n",
                ", seen",
                ", seen: ref dict<string*request>",
            )
        } else {
            ("", "", "")
        };
        format!(
            r#"
type request: record
  path : string

proc P: (request/request client, [request/request] backends)
{global}  client => pick(backends{arg})
  backends => client

fun pick: ([-/request] backends{param}, req: request) -> ()
  let target = 1 mod (len(req.path) - len(req.path))
  req => backends[target]
"#
        )
    };
    for stateful in [false, true] {
        let service =
            flick::compiler::compile_source(&program(stateful), "P", &Default::default()).unwrap();
        assert_eq!(service.is_stateless(), !stateful);
        let net = SimNetwork::new(StackModel::Free);
        let _backend = start_http_backend(&net, 9201, b"never");
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
        client
            .write_all(b"GET /x HTTP/1.1\r\nHost: f\r\n\r\n")
            .unwrap();
        let mut chunk = [0u8; 64];
        assert!(
            client
                .read_timeout(&mut chunk, Duration::from_secs(1))
                .is_err(),
            "stateful {stateful}: closed unanswered"
        );
        client.close();
        let started = std::time::Instant::now();
        while platform.metrics().snapshot().live_graphs() > 0 {
            assert!(
                started.elapsed() < Duration::from_millis(1500),
                "stateful {stateful}: the graph outlived its rule"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
