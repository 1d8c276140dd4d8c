//! Loopback integration suite for the OS socket transport.
//!
//! Everything here runs over real kernel TCP on `127.0.0.1` with port-0
//! binds (the OS picks a free ephemeral port, so the suite is safe to run
//! repeatedly and in parallel with other processes). CI runs it as a
//! dedicated single-threaded step.
//!
//! Covered:
//!
//! * accept → parse → task graph → backend → reply, end to end on the
//!   event backend, with **zero** endpoint scans while idle (the
//!   acceptance bar of the OS transport);
//! * partial reads/writes: bodies far larger than a socket buffer;
//! * EOF teardown driven by the graph's counted exits (its lifecycle
//!   record posts when the last client task and the last task exit);
//! * accept sharding: every shard accepts on its own `SO_REUSEPORT`
//!   socket, and a multi-connection service's groups never strand;
//! * back-end reuse across shards: a socket is registered with one poller
//!   at a time, so a parked back-end connection leaves its shard's reactor
//!   at teardown and the next graph, on the other shard, registers it
//!   afresh (with a sim-back-end twin of the same test);
//! * a real-socket port of the `stress_no_lost_wakeups` poller stress.

use flick::net_substrate::{Interest, NetError, Poller, TcpStack, Token};
use flick::services::hadoop::hadoop_aggregator;
use flick::services::http::{http_balancer, http_path_balancer, StaticWebServerFactory};
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_workload::backends::{start_http_backend, start_sink_backend};
use flick_workload::fabric::loopback;
use flick_workload::http::{fetch_http, run_http_load, HttpLoadConfig};
use flick_workload::Fabric;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn tcp_platform(workers: usize, shards: usize) -> Platform {
    // CI runs the whole suite a second time with FLICK_TEST_SHARDS=2 so
    // every test also exercises the sharded kernel path (one reactor and
    // one SO_REUSEPORT accept socket per shard) without a second copy of
    // the test file. Tests must therefore derive shard-dependent
    // assertions from `Platform::shard_count`, not their requested value.
    let shards = std::env::var("FLICK_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(shards);
    Platform::new(PlatformConfig { workers, shards })
}

fn deploy_web(platform: &Platform, body: &'static [u8]) -> flick::runtime_crate::DeployedService {
    platform
        .deploy_tcp(
            ServiceSpec::new("tcp-web", 0, StaticWebServerFactory::new(body)),
            "127.0.0.1:0",
        )
        .expect("deploy over a loopback socket")
}

/// A raw `std::net` client issues an HTTP request against the deployed
/// service; the response must round-trip through parse → task graph →
/// reply, and the idle service must perform zero endpoint scans.
#[test]
fn http_request_round_trips_over_a_real_socket() {
    let platform = tcp_platform(2, 1);
    let service = deploy_web(&platform, b"hello over real tcp");
    let addr = format!("127.0.0.1:{}", service.port());

    let mut stream = TcpStream::connect(&addr).expect("kernel connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for i in 0..3 {
        stream
            .write_all(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = Vec::new();
        let mut buf = [0u8; 1024];
        while !response.windows(19).any(|w| w == b"hello over real tcp") {
            let n = stream.read(&mut buf).expect("read response");
            assert!(n > 0, "server closed mid-response");
            response.extend_from_slice(&buf[..n]);
        }
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "got: {text}");
    }
    assert_eq!(service.connections_accepted(), 1);
    assert_eq!(service.live_graphs(), 1);

    // The idle-scan property extends to OS traffic: while the connected
    // client stays silent, the event dispatcher touches nothing.
    std::thread::sleep(Duration::from_millis(20));
    let stack = platform.tcp_stack();
    let stats = stack.stats();
    let before = stats.snapshot();
    std::thread::sleep(Duration::from_millis(100));
    let after = stats.snapshot();
    assert_eq!(
        after.read_calls, before.read_calls,
        "idle event dispatcher must not issue reads on OS endpoints"
    );
}

/// Bodies larger than any socket buffer force partial reads and writes on
/// both sides of the middlebox.
#[test]
fn large_bodies_survive_partial_reads_and_writes() {
    const BODY: usize = 1 << 20; // 1 MiB response body.
    static BIG: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    let body = BIG.get_or_init(|| vec![b'z'; BODY]);

    let platform = tcp_platform(2, 1);
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("tcp-big", 0, StaticWebServerFactory::new(&body[..])),
            "127.0.0.1:0",
        )
        .unwrap();
    let addr = format!("127.0.0.1:{}", service.port());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(30);
    while response.len() < BODY {
        assert!(Instant::now() < deadline, "response stalled");
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "early EOF after {} bytes", response.len());
        response.extend_from_slice(&buf[..n]);
    }
    // Everything after the header must be the body, unbroken.
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator")
        + 4;
    let deadline = Instant::now() + Duration::from_secs(30);
    while response.len() < header_end + BODY {
        assert!(Instant::now() < deadline, "body stalled");
        let n = stream.read(&mut buf).expect("read body tail");
        assert!(n > 0);
        response.extend_from_slice(&buf[..n]);
    }
    assert!(response[header_end..header_end + BODY]
        .iter()
        .all(|&b| b == b'z'));
}

/// Closing the client socket drives EOF through the input task; the
/// graph's counted exits must tear it down without any polling.
#[test]
fn client_eof_tears_the_graph_down() {
    let platform = tcp_platform(2, 1);
    let service = deploy_web(&platform, b"short");
    let addr = format!("127.0.0.1:{}", service.port());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap();
    assert!(n > 0);
    assert_eq!(service.live_graphs(), 1);

    drop(stream); // FIN: the input task reads EOF and exits.
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.live_graphs() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        service.live_graphs(),
        0,
        "graph must be destroyed after the kernel delivers EOF"
    );
}

/// Connections land on every shard: each shard accepts on its own
/// `SO_REUSEPORT` socket and builds the graphs of what it accepted, so the
/// kernel's hash decides the spread. With 64 connections over 4 shards an
/// empty shard has odds of about 4·(3/4)^64 ≈ 4·10⁻⁸.
#[test]
fn connections_are_served_across_shards_over_tcp() {
    const CONNECTIONS: usize = 64;
    let platform = tcp_platform(4, 4);
    let service = deploy_web(&platform, b"sharded tcp");
    let addr = format!("127.0.0.1:{}", service.port());

    let mut streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s
        })
        .collect();
    for (i, s) in streams.iter_mut().enumerate() {
        s.write_all(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
    }
    for s in &mut streams {
        let mut buf = [0u8; 1024];
        let n = s.read(&mut buf).expect("every shard answers");
        assert!(n > 0);
    }
    let status = platform.shard_status();
    assert_eq!(status.len(), platform.shard_count());
    assert!(
        status.iter().all(|s| s.graphs_built >= 1),
        "the kernel's accept spread must reach every shard: {status:?}"
    );
    let built: u64 = status.iter().map(|s| s.graphs_built).sum();
    assert_eq!(service.connections_accepted(), CONNECTIONS as u64);
    assert_eq!(built, service.connections_accepted(), "{status:?}");
}

/// A service whose graph groups two connections listens on its home shard
/// only, so both connections of a group are accepted — and the group
/// completes — on one shard. Were it to listen on both shards, the
/// kernel's hash would split a pair about half the time, and each shard
/// would hold one connection of a group that never builds. Ten sequential
/// pairs on an explicit 2-shard platform must each build one graph within
/// a second.
#[test]
fn connection_groups_are_never_stranded_across_shards() {
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        shards: 2,
    });
    let net = platform.net();
    let (_reducer, _) = start_sink_backend(&net, 9961);
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("hadoop", 0, hadoop_aggregator(2)).with_backends(vec![9961]),
            "127.0.0.1:0",
        )
        .expect("deploy the aggregator over a loopback socket");
    let addr = format!("127.0.0.1:{}", service.port());
    let built = || -> u64 { platform.shard_status().iter().map(|s| s.graphs_built).sum() };
    for trial in 1..=10 {
        let mappers: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(&addr).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(1);
        while built() < trial {
            assert!(
                Instant::now() < deadline,
                "trial {trial}: no graph built for the pair within 1 s ({:?})",
                platform.shard_status()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(mappers);
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

const REUSE_CLIENTS: u64 = 20;

/// Back-end reuse across shards, the one way a connection moves from one
/// shard's poller to another's. On a 2-shard platform on the simulated
/// fabric, whose accept rotation alternates the shards, the path-hashed
/// balancer fronts one back-end, and sequential clients each close after
/// one response. Each graph's teardown deregisters the back-end connection
/// and parks it, so the next graph — on the other shard — checks it out and
/// registers it with its own poller: every response is served, yet the
/// back-end sees one connection. `backend_connections` reads how many it
/// accepted.
fn reuse_back_end_connection_across_shards(
    platform: &Platform,
    service: &flick::runtime_crate::DeployedService,
    backend_connections: impl Fn() -> u64,
) {
    let built = || -> Vec<u64> {
        platform
            .shard_status()
            .iter()
            .map(|s| s.graphs_built)
            .collect()
    };
    for i in 0..REUSE_CLIENTS {
        let mut expected = built();
        expected[i as usize % 2] += 1;
        let client = platform.net().connect(service.port()).unwrap();
        client
            .write_all(format!("GET /r{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = Vec::new();
        let mut buf = [0u8; 1024];
        while !response.ends_with(b"served") {
            let n = client
                .read_timeout(&mut buf, Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("client {i}: no response: {e}"));
            response.extend_from_slice(&buf[..n]);
        }
        assert!(
            response.starts_with(b"HTTP/1.1 200 OK"),
            "client {i}: {}",
            String::from_utf8_lossy(&response)
        );
        client.close();
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 {
            assert!(
                Instant::now() < deadline,
                "client {i}: graph never tore down"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(built(), expected, "client {i} lands on shard {}", i % 2);
    }
    let snap = platform.metrics().snapshot();
    assert_eq!(
        snap.backend_checkouts, REUSE_CLIENTS,
        "a reuse is a checkout"
    );
    assert_eq!(
        backend_connections(),
        1,
        "every graph reused the connection parked on the other shard"
    );
}

fn two_shards() -> Platform {
    Platform::new(PlatformConfig {
        workers: 2,
        shards: 2,
    })
}

#[test]
fn a_parked_kernel_back_end_connection_is_reused_across_shards() {
    let backend = start_http_backend(Fabric::kernel(), 0, b"served");
    let platform = two_shards();
    let service = platform
        .deploy(
            ServiceSpec::new("lb", 8500, http_path_balancer())
                .with_tcp_backends(vec![loopback(backend.port())]),
        )
        .unwrap();
    reuse_back_end_connection_across_shards(&platform, &service, || backend.connections_accepted());
}

#[test]
fn a_parked_sim_back_end_connection_is_reused_across_shards() {
    let platform = two_shards();
    let net = platform.net();
    let _backend = start_http_backend(&net, 8501, b"served");
    let service = platform
        .deploy(ServiceSpec::new("lb", 8500, http_path_balancer()).with_backends(vec![8501]))
        .unwrap();
    // The fabric counts every connection opened on it: the clients', and
    // the balancer's to the back-end.
    reuse_back_end_connection_across_shards(&platform, &service, || {
        net.stats().snapshot().connections_opened - REUSE_CLIENTS
    });
}

/// The closed-loop workload driver measures real throughput and latency
/// against the platform over kernel sockets.
#[test]
fn tcp_workload_driver_measures_the_service() {
    let platform = tcp_platform(2, 1);
    let service = deploy_web(&platform, b"bench me");
    let clients = Fabric::kernel();

    let stats = run_http_load(
        &clients,
        &HttpLoadConfig {
            port: service.port(),
            concurrency: 4,
            duration: Duration::from_millis(300),
            timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    assert!(stats.completed > 10, "expected real throughput: {stats:?}");
    assert!(stats.latency.mean > Duration::ZERO);
    assert!(service.connections_accepted() >= 4);

    // The one-shot helper (the curl-style smoke of the README).
    let response =
        fetch_http(&clients, service.port(), "/smoke", Duration::from_secs(5)).expect("fetch");
    assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200 OK"));
}

/// The all-TCP data path: kernel clients → TCP-fronted load balancer →
/// kernel-socket back-ends, with the LB's `BackendPool` holding TCP
/// targets. Every hop crosses real sockets, the hash spreads connections
/// over the back-ends, and the shared-buffer ingest path performs zero
/// copies on kernel traffic too.
#[test]
fn all_tcp_lb_path_serves_with_zero_ingest_copies() {
    let kernel = Fabric::kernel();
    let backends: Vec<_> = (0..3)
        .map(|_| start_http_backend(&kernel, 0, b"lb-over-tcp"))
        .collect();
    let platform = tcp_platform(2, 1);
    let addrs = backends.iter().map(|b| loopback(b.port()));
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("tcp-lb", 0, http_balancer()).with_tcp_backends(addrs.collect()),
            "127.0.0.1:0",
        )
        .expect("deploy the all-TCP load balancer");
    let port = service.port();

    // The curl-style smoke first: one request end to end through the
    // kernel, forwarded to a kernel back-end and back.
    let response = fetch_http(&kernel, port, "/smoke", Duration::from_secs(5)).expect("smoke");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.contains("lb-over-tcp"), "{text}");

    let stats = run_http_load(
        &kernel,
        &HttpLoadConfig {
            port,
            concurrency: 4,
            duration: Duration::from_millis(300),
            timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    assert!(stats.completed > 10, "{stats:?}");
    let served: Vec<u64> = backends.iter().map(|b| b.requests_served()).collect();
    assert!(
        served.iter().filter(|s| **s > 0).count() >= 2,
        "the TCP backend pool must spread connections: {served:?}"
    );
    let snap = platform.tcp_stack().stats().snapshot();
    assert_eq!(
        snap.ingest_copies, 0,
        "the shared-buffer ingest path must not copy on kernel sockets \
         ({} events, {} bytes)",
        snap.ingest_copies, snap.ingest_copied_bytes
    );
}

/// Writable parking over real sockets: a kernel client that stops reading
/// fills the socket buffers, the service's output task parks on
/// `EPOLLOUT` interest — zero busy retries and a quiet platform while the
/// peer stalls — and the response completes once the client drains.
#[test]
fn stalled_tcp_peer_parks_the_output_task() {
    const BODY: usize = 4 << 20; // Far beyond loopback socket buffering.
    static BIG: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    let body = BIG.get_or_init(|| vec![b'w'; BODY]);

    let platform = tcp_platform(2, 1);
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("tcp-stall", 0, StaticWebServerFactory::new(&body[..])),
            "127.0.0.1:0",
        )
        .unwrap();
    let addr = format!("127.0.0.1:{}", service.port());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /stall HTTP/1.1\r\nHost: s\r\n\r\n")
        .unwrap();
    // Let the output task fill the kernel buffers and hit EAGAIN.
    std::thread::sleep(Duration::from_millis(200));
    let before = platform.metrics().snapshot();
    std::thread::sleep(Duration::from_millis(150));
    let after = platform.metrics().snapshot();
    assert_eq!(
        after.output_busy_retries, 0,
        "a stalled kernel peer must park the output task, not spin it"
    );
    assert_eq!(
        after.task_runs, before.task_runs,
        "a parked output task costs zero task runs while the peer stalls"
    );

    // Drain: the EPOLLOUT wakeups resume the flush until the full body
    // has crossed the socket.
    let mut got = 0usize;
    let mut buf = [0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(30);
    while got < BODY {
        assert!(Instant::now() < deadline, "drain stalled at {got} bytes");
        let n = stream.read(&mut buf).expect("drain");
        assert!(n > 0, "early EOF at {got} bytes");
        got += n;
    }
}

/// Malformed frames over real kernel sockets (the fuzz corpus's greatest
/// hits, replayed byte-for-byte through the OS transport): an oversized
/// `Content-Length` declaration, a spliced frame fusing two heads, and a
/// truncated head followed by FIN. Each poison must cost exactly its own
/// connection — the server closes the offender without answering and
/// records the malformed close — and a clean sibling request on a fresh
/// connection must succeed immediately after every one.
#[test]
fn malformed_frames_cost_only_their_own_connection() {
    let platform = tcp_platform(2, 1);
    let service = deploy_web(&platform, b"still alive");
    let addr = format!("127.0.0.1:{}", service.port());
    let stack = platform.tcp_stack();
    let stats = stack.stats();

    let read_until_close = |stream: &mut TcpStream| -> Vec<u8> {
        let mut all = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => all.extend_from_slice(&buf[..n]),
                Err(_) => break, // an RST after the server's close is a close too
            }
        }
        all
    };
    let wait_for_malformed = |at_least: u64| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.snapshot().malformed_closes < at_least {
            assert!(
                Instant::now() < deadline,
                "malformed close never recorded: {} < {at_least}",
                stats.snapshot().malformed_closes
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let sibling_still_served = || {
        let response = fetch_http(
            Fabric::kernel(),
            service.port(),
            "/ok",
            Duration::from_secs(5),
        )
        .expect("sibling");
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("still alive"), "{text}");
    };

    // 1. Oversized declaration: 16 GiB against the 16 MiB body cap. The
    //    limit check fires on the declared size, long before any body
    //    byte arrives, so nothing gets buffered.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"POST /huge HTTP/1.1\r\nHost: t\r\nContent-Length: 17179869184\r\n\r\n")
        .unwrap();
    let leaked = read_until_close(&mut stream);
    assert!(
        leaked.is_empty(),
        "server answered an oversized declaration: {:?}",
        String::from_utf8_lossy(&leaked)
    );
    wait_for_malformed(1);
    sibling_still_served();

    // 2. Spliced frame: a partial head with a second complete request
    //    fused onto it ("GEGET /…" is no method). The splice is only
    //    detectable once the head terminator lands — incremental
    //    reassembly must carry the poison across the two writes.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"GE").unwrap();
    stream
        .write_all(b"GET /spliced HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let leaked = read_until_close(&mut stream);
    assert!(
        leaked.is_empty(),
        "server answered a spliced frame: {:?}",
        String::from_utf8_lossy(&leaked)
    );
    wait_for_malformed(2);
    sibling_still_served();

    // 3. Truncated head, then FIN. No verdict is possible — the bytes so
    //    far are a legal prefix — so this is not a malformed close; the
    //    server just owes a leak-free teardown of the half-parsed graph.
    let before_graphs = service.live_graphs();
    let stream = {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"GET /cut HTTP/1.1\r\nHo").unwrap();
        s
    };
    drop(stream); // FIN mid-head.
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.live_graphs() > before_graphs && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        service.live_graphs() <= before_graphs,
        "truncated-head graph leaked"
    );
    sibling_still_served();

    assert_eq!(
        stats.snapshot().malformed_closes,
        2,
        "exactly the two poisoned connections may be flagged"
    );
}

/// Real-socket port of the poller `stress_no_lost_wakeups` test: writer
/// threads race closers over kernel TCP while one consumer drains via
/// readiness events. A lost kernel edge shows up as a timeout.
#[test]
fn stress_no_lost_wakeups_over_tcp() {
    const WRITERS: usize = 4;
    const BYTES_PER_WRITER: usize = 256 * 1024;

    let stack = TcpStack::new();
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.port());
    let poller = Poller::new();
    let mut readers = Vec::new();
    let mut handles = Vec::new();
    for i in 0..WRITERS {
        let client = stack.connect(&addr).unwrap();
        let server = listener
            .accept_timeout(Duration::from_secs(5))
            .expect("accept");
        server.register(&poller, Token(i as u64), Interest::READABLE);
        readers.push(server);
        handles.push(std::thread::spawn(move || {
            let chunk = [0x5au8; 997];
            let mut sent = 0usize;
            while sent < BYTES_PER_WRITER {
                let n = (BYTES_PER_WRITER - sent).min(chunk.len());
                client.write_all(&chunk[..n]).expect("peer stays open");
                sent += n;
            }
            client.close();
        }));
    }

    let mut received = vec![0usize; WRITERS];
    let mut eof = vec![false; WRITERS];
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(60);
    while eof.iter().any(|done| !done) {
        assert!(
            Instant::now() < deadline,
            "lost wakeup: received {received:?}, eof {eof:?}"
        );
        for event in poller.wait(Duration::from_millis(100)) {
            let idx = event.token.0 as usize;
            loop {
                match readers[idx].read(&mut buf) {
                    Ok(n) => received[idx] += n,
                    Err(NetError::WouldBlock) => break,
                    Err(NetError::Closed) => {
                        eof[idx] = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    }
    for (i, handle) in handles.into_iter().enumerate() {
        handle.join().unwrap();
        assert_eq!(received[i], BYTES_PER_WRITER, "writer {i}");
    }
}

/// Regression for the close-path ordering in the reactor: rapid
/// connect → register → close churn recycles fds (and epoll userdata)
/// while readable events for the dead registrations may still be in
/// flight inside the reactor's batch. The generation guard must drop
/// those stale events instead of attributing them to whoever owns the
/// recycled fd now, and a healthy long-lived connection sharing the
/// poller must come through the churn with exact byte delivery and no
/// spurious teardown.
#[test]
fn close_churn_does_not_poison_recycled_fd_tokens() {
    const CHURN_ROUNDS: u64 = 200;

    let stack = TcpStack::new();
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.port());
    let poller = Poller::new();

    // The long-lived victim connection, registered before the churn.
    let victim_client = stack.connect(&addr).unwrap();
    let victim = listener.accept_timeout(Duration::from_secs(5)).unwrap();
    victim.register(&poller, Token(1), Interest::READABLE);

    for round in 0..CHURN_ROUNDS {
        let client = stack.connect(&addr).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        server.register(&poller, Token(1000 + round), Interest::READABLE);
        // Make the registration hot: bytes in flight mean the reactor
        // very likely has (or is about to batch) an event for this fd at
        // the moment it closes.
        client.write_all(b"burst").unwrap();
        server.close();
        client.close();
    }

    // The victim still works end to end: its bytes arrive under its own
    // token and it never observes a close it did not cause.
    let payload = b"alive after churn";
    victim_client.write_all(payload).unwrap();
    let mut got = 0usize;
    let mut buf = [0u8; 1024];
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < payload.len() {
        assert!(
            Instant::now() < deadline,
            "victim starved after fd churn: {got} of {} bytes",
            payload.len()
        );
        for event in poller.wait(Duration::from_millis(100)) {
            if event.token != Token(1) {
                // Stragglers from churned registrations are legal
                // (posted before their close); reading them is not
                // possible — their endpoints are gone — but they must
                // not carry the victim's token.
                continue;
            }
            assert!(
                !event.readiness.closed,
                "victim saw a spurious close after fd churn"
            );
            loop {
                match victim.read(&mut buf) {
                    Ok(n) => got += n,
                    Err(NetError::WouldBlock) => break,
                    Err(e) => panic!("victim broken after churn: {e}"),
                }
            }
        }
    }
    assert_eq!(got, payload.len());
}

/// Event-batch draining stress: more concurrently readable sockets than
/// one `epoll_wait` batch can carry (`MAX_EVENTS` = 256 in the reactor).
/// Several write rounds land on every connection at once, then an EOF
/// round; exact per-token byte counts prove no event was lost and no
/// bytes were double-delivered across the multi-batch drain.
#[test]
fn event_batches_beyond_max_events_lose_nothing() {
    const CONNS: usize = 300; // > the reactor's 256-event batch.
    const ROUNDS: usize = 3;
    const CHUNK: usize = 512;

    let stack = TcpStack::new();
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.port());
    let poller = Poller::new();

    let mut clients = Vec::with_capacity(CONNS);
    let mut servers = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let client = stack.connect(&addr).unwrap();
        let server = listener
            .accept_timeout(Duration::from_secs(5))
            .expect("accept");
        server.register(&poller, Token(i as u64), Interest::READABLE);
        clients.push(client);
        servers.push(server);
    }

    let mut received = vec![0usize; CONNS];
    let mut eof = vec![false; CONNS];
    let mut buf = [0u8; 8192];
    let mut drain = |received: &mut [usize], eof: &mut [bool], target: usize, label: &str| {
        let deadline = Instant::now() + Duration::from_secs(60);
        while received.iter().any(|n| *n < target) {
            assert!(
                Instant::now() < deadline,
                "{label}: starved with counts {:?}",
                received
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| **n < target)
                    .collect::<Vec<_>>()
            );
            for event in poller.wait(Duration::from_millis(100)) {
                let idx = event.token.0 as usize;
                loop {
                    match servers[idx].read(&mut buf) {
                        Ok(n) => received[idx] += n,
                        Err(NetError::WouldBlock) => break,
                        Err(NetError::Closed) => {
                            eof[idx] = true;
                            break;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }
    };

    for round in 0..ROUNDS {
        // Every socket becomes readable at once: the reactor must spread
        // the burst over multiple epoll batches without dropping any.
        let fill = [round as u8; CHUNK];
        for client in &clients {
            client.write_all(&fill).unwrap();
        }
        drain(&mut received, &mut eof, (round + 1) * CHUNK, "write round");
    }
    for (i, n) in received.iter().enumerate() {
        assert_eq!(*n, ROUNDS * CHUNK, "conn {i}: double or lost delivery");
    }

    // The EOF burst: every close must surface exactly once.
    for client in &clients {
        client.close();
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while eof.iter().any(|done| !done) {
        assert!(
            Instant::now() < deadline,
            "lost EOF: {} of {CONNS} observed",
            eof.iter().filter(|done| **done).count()
        );
        for event in poller.wait(Duration::from_millis(100)) {
            let idx = event.token.0 as usize;
            loop {
                match servers[idx].read(&mut buf) {
                    Ok(n) => received[idx] += n,
                    Err(NetError::WouldBlock) => break,
                    Err(NetError::Closed) => {
                        eof[idx] = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    }
    for (i, n) in received.iter().enumerate() {
        assert_eq!(*n, ROUNDS * CHUNK, "conn {i}: bytes appeared after EOF");
    }
}
