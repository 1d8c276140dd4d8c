//! Integration suite for the sharded runtime: every shard accepts and
//! builds the graphs of the connections it accepted — deterministically
//! spread on the simulated transport, multi-connection graphs complete on
//! one shard, and no wakeup is lost across shards (the sharding
//! acceptance gates; run with `cargo test -q sharding -- --test-threads=1`
//! in a loop for stress evidence). An idle shard steals from a skewed
//! one; exact steal counts are tested at scheduler level.

use flick::runtime_crate::{RuntimeMetrics, ShardStatus};
use flick::services::hadoop::hadoop_aggregator;
use flick::services::http::StaticWebServerFactory;
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_workload::backends::start_sink_backend;
use flick_workload::hadoop::{run_hadoop_mappers, wait_for_quiescence, HadoopLoadConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn web_platform(shards: usize) -> Platform {
    Platform::new(PlatformConfig {
        workers: shards, // one worker per shard
        shards,
    })
}

/// Opens a connection and waits until the service has built a graph for it.
fn connect_and_wait_for_graph(
    platform: &Platform,
    service: &flick::runtime_crate::DeployedService,
    port: u16,
    expected_graphs: u64,
) -> flick::net_substrate::Endpoint {
    let client = platform.net().connect(port).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.live_graphs() < expected_graphs {
        assert!(
            Instant::now() < deadline,
            "graph {expected_graphs} was never instantiated"
        );
        std::thread::yield_now();
    }
    client
}

/// The simulated accept rotation places connections round-robin over the
/// shards' listeners, and each graph is built where it was accepted: with
/// 4 shards and 8 graphs instantiated one at a time, every shard builds
/// exactly 2.
#[test]
fn sharding_round_robin_placement_is_deterministic() {
    let platform = web_platform(4);
    let service = platform
        .deploy(ServiceSpec::new(
            "web",
            8800,
            StaticWebServerFactory::new(&b"ok"[..]),
        ))
        .unwrap();
    // Connect sequentially, waiting for each graph: the rotation then
    // follows connection order, so it is reproducible.
    let _clients: Vec<_> = (0..8)
        .map(|i| connect_and_wait_for_graph(&platform, &service, 8800, i + 1))
        .collect();
    let status: Vec<ShardStatus> = platform.shard_status();
    let built: Vec<u64> = status.iter().map(|s| s.graphs_built).collect();
    assert_eq!(
        built,
        vec![2, 2, 2, 2],
        "8 graphs over 4 accepting shards must land 2-2-2-2: {status:?}"
    );
}

/// Steal under skew: the accept rotation alternates between the two
/// shards, and every connection shard 1 accepted is closed before the load
/// starts, so every live graph is on shard 0 and shard 1's worker can
/// contribute only through the cross-shard steal path — under sustained
/// load it must.
#[test]
fn sharding_steal_under_skew() {
    const LOADED: usize = 8;
    let platform = web_platform(2);
    let service = platform
        .deploy(ServiceSpec::new(
            "web",
            8802,
            StaticWebServerFactory::new(&b"skew-body"[..]),
        ))
        .unwrap();
    let net = platform.net();
    // Connects rotate over the listeners from member 0: even-numbered
    // connects land on shard 0, odd-numbered ones on shard 1.
    let mut clients = Vec::new();
    for i in 0..2 * LOADED {
        let client = net.connect(8802).unwrap();
        if i % 2 == 0 {
            clients.push(client);
        } else {
            client.close();
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while platform
        .shard_status()
        .iter()
        .map(|s| s.graphs_built)
        .sum::<u64>()
        < 2 * LOADED as u64
        || service.live_graphs() > LOADED as u64
    {
        assert!(
            Instant::now() < deadline,
            "shard 1's closed graphs never tore down: {} alive ({:?})",
            service.live_graphs(),
            platform.shard_status()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let built: Vec<u64> = platform
        .shard_status()
        .iter()
        .map(|s| s.graphs_built)
        .collect();
    assert_eq!(built, vec![LOADED as u64; 2]);
    // Shard 1 owns no task from here on, so its attributed runs are frozen.
    let idle_runs = platform.shard_status()[1].load.runs;

    // Sustained closed-loop load on shard 0's single worker, until shard 1
    // has stolen from the queue it leaves.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut round = 0;
    while platform.shard_status()[1].load.stolen_in == 0 {
        assert!(
            Instant::now() < deadline,
            "shard 1 never stole from the skewed shard 0 in {round} rounds \
             ({:?})",
            platform.shard_status()
        );
        for c in &clients {
            c.write_all(format!("GET /{round} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
        }
        for c in &clients {
            let mut response = Vec::new();
            let mut buf = [0u8; 1024];
            while !response.windows(9).any(|w| w == b"skew-body") {
                let n = c
                    .read_timeout(&mut buf, Duration::from_secs(10))
                    .expect("response arrives");
                response.extend_from_slice(&buf[..n]);
            }
        }
        round += 1;
    }

    // Tear the loaded graphs down so no task is left to steal and the
    // counters below are final.
    clients.iter().for_each(|c| c.close());
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.live_graphs() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} graphs never tore down",
            service.live_graphs()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let status = platform.shard_status();
    assert_eq!(
        status[1].load.runs, idle_runs,
        "shard 1 owned no live graph, so none of the load may be counted \
         as its own: {status:?}"
    );
    assert!(status[1].load.stolen_in > 0, "{status:?}");
    assert_eq!(status[0].load.stolen_out, status[1].load.stolen_in);
    assert_eq!(
        RuntimeMetrics::get(&platform.metrics().tasks_stolen),
        status[0].load.stolen_in + status[1].load.stolen_in
    );
}

/// The cross-shard extension of `stress_no_lost_wakeups`: client threads
/// hammer a sharded service with request/response cycles while 4 shards
/// accept, build and serve graphs side by side, and steal each other's
/// tasks. A wakeup lost anywhere in the accept → build → register →
/// schedule chain shows up as a response timeout; a teardown event lost
/// across shards shows up as a graph that never dies.
#[test]
fn sharding_stress_no_lost_wakeups_across_shards() {
    const CLIENTS: usize = 12;
    const ROUNDS: usize = 25;

    let platform = web_platform(4);
    let service = platform
        .deploy(ServiceSpec::new(
            "web",
            8803,
            StaticWebServerFactory::new(&b"stress-body"[..]),
        ))
        .unwrap();
    let net = platform.net();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let net = Arc::clone(&net);
            std::thread::spawn(move || {
                let client = net.connect(8803).expect("connect");
                for round in 0..ROUNDS {
                    client
                        .write_all(
                            format!("GET /{id}/{round} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
                        )
                        .expect("request");
                    // Read until the response body shows up; a lost wakeup
                    // anywhere in the chain turns into a timeout here.
                    let mut response = Vec::new();
                    let mut buf = [0u8; 1024];
                    while !response.windows(11).any(|w| w == b"stress-body") {
                        let n = client
                            .read_timeout(&mut buf, Duration::from_secs(10))
                            .unwrap_or_else(|e| {
                                panic!("client {id} round {round}: lost response: {e}")
                            });
                        response.extend_from_slice(&buf[..n]);
                    }
                }
                // Close races the dispatcher's teardown path.
                client.close();
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    assert_eq!(service.connections_accepted(), CLIENTS as u64);
    // Every shard participated (12 connects rotate over 4 listeners).
    let status = platform.shard_status();
    assert!(
        status.iter().all(|s| s.graphs_built == 3),
        "the accept rotation must have reached every shard: {status:?}"
    );
    // All closes observed: every graph dies, on whichever shard it lived.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.live_graphs() > 0 {
        assert!(
            Instant::now() < deadline,
            "teardown event lost across shards: {} graphs still alive",
            service.live_graphs()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Multi-connection services (the Hadoop aggregator groups all mapper
/// connections into one graph) keep working when the platform is sharded:
/// the service listens on its home shard only, which accumulates the
/// connection group and runs the whole graph.
#[test]
fn sharding_multi_connection_graphs_survive_placement() {
    let platform = Platform::new(PlatformConfig {
        workers: 4,
        shards: 2,
    });
    let net = platform.net();
    let (_reducer, reducer_bytes) = start_sink_backend(&net, 9951);
    let _svc = platform
        .deploy(ServiceSpec::new("hadoop", 9950, hadoop_aggregator(3)).with_backends(vec![9951]))
        .unwrap();
    let stats = run_hadoop_mappers(
        &net,
        &HadoopLoadConfig {
            port: 9950,
            mappers: 3,
            word_len: 12,
            distinct_words: 50,
            bytes_per_mapper: 64 * 1024,
            link_bits_per_sec: None,
            seed: None,
        },
    );
    assert_eq!(stats.failed, 0);
    let forwarded = wait_for_quiescence(&reducer_bytes, Duration::from_secs(10));
    assert!(
        forwarded > 0,
        "the aggregated stream must reach the reducer"
    );
    assert!(
        forwarded < stats.bytes,
        "aggregation must reduce traffic: {} -> {forwarded}",
        stats.bytes
    );
}

/// The simulated twin of `tcp_transport`'s stranding test: a service
/// whose graph groups two connections listens on its home shard only, so
/// on a 2-shard platform ten sequential pairs each build one graph, all
/// of them there.
#[test]
fn sharding_connection_groups_complete_on_one_shard() {
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        shards: 2,
    });
    let net = platform.net();
    let (_reducer, _) = start_sink_backend(&net, 9953);
    let service = platform
        .deploy(ServiceSpec::new("hadoop", 9952, hadoop_aggregator(2)).with_backends(vec![9953]))
        .unwrap();
    let built = || -> u64 { platform.shard_status().iter().map(|s| s.graphs_built).sum() };
    for trial in 1..=10 {
        let mappers: Vec<_> = (0..2).map(|_| net.connect(9952).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(1);
        while built() < trial {
            assert!(
                Instant::now() < deadline,
                "trial {trial}: no graph built for the pair within 1 s ({:?})",
                platform.shard_status()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        mappers.iter().for_each(|m| m.close());
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 {
            assert!(
                Instant::now() < deadline,
                "trial {trial}: graph never tore down"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert_eq!(service.connections_accepted(), 20);
    assert_eq!(
        platform.shard_status()[service.home_shard()].graphs_built,
        10
    );
}
