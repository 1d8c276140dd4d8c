//! Lifecycle of the dispatcher-owned epoll set (DESIGN.md §13) and of the
//! sockets a graph opens, including the back-end connections its teardown
//! parks for reuse (DESIGN.md §14).
//!
//! Its own process, because the tests count this process's descriptors and
//! threads, which tests running beside them would disturb; the tests here
//! take turns through [`CENSUS`].

use flick::net_substrate::{Interest, Poller, TcpStack, Token};
use flick::services::http::{http_path_balancer, StaticWebServerFactory};
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_runtime::pool::IDLE_PER_BACKEND;
use flick_runtime::DeployedService;
use flick_workload::backends::{start_http_backend, BackendHandle};
use flick_workload::fabric::loopback;
use flick_workload::http::fetch_http;
use flick_workload::Fabric;
use std::io::{Read, Write};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Held by each test for its whole run: the census is process-wide.
static CENSUS: Mutex<()> = Mutex::new(());

fn census() -> MutexGuard<'static, ()> {
    CENSUS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Open descriptors of this process (plus the one the listing itself
/// holds — a constant offset).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// The `flick-*` thread names of this process. `comm` is cut to 15 bytes.
fn flick_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("flick-"))
        .collect();
    names.sort();
    names
}

fn assert_no_reactor_thread() {
    let threads = flick_threads();
    assert!(
        !threads
            .iter()
            .any(|name| name.starts_with("flick-os-react")),
        "a kernel reactor thread is running: {threads:?}"
    );
}

#[test]
fn the_epoll_set_dies_with_its_users_and_no_reactor_thread_ever_runs() {
    let _census = census();
    let stack = TcpStack::new();
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.port());
    let connect = || {
        let client = stack.connect(&addr).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        (client, server)
    };
    let (client, server) = connect();
    let (_short_lived_client, short_lived) = connect();
    let baseline = open_fds();

    let poller = Poller::new();
    server.register(&poller, Token(1), Interest::READABLE);
    short_lived.register(&poller, Token(2), Interest::BOTH);
    assert_eq!(
        open_fds(),
        baseline + 3,
        "one epoll descriptor and the two ends of the self-pipe"
    );
    // The waiting thread harvests the set itself.
    assert!(
        poller.wait(Duration::from_millis(50)).is_empty(),
        "nothing is ready yet"
    );
    client.write_all(b"ping").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let events = poller.wait(Duration::from_millis(100));
        if events
            .iter()
            .any(|e| e.token == Token(1) && e.readiness.readable)
        {
            break;
        }
        assert!(Instant::now() < deadline, "no event for real bytes");
    }
    assert_no_reactor_thread();

    // A socket that is still registered keeps the set alive past its
    // poller (closing must be able to forget the registration); a
    // deregistered one does not.
    server.deregister();
    drop(poller);
    assert_eq!(open_fds(), baseline + 3);
    drop(short_lived);
    assert_eq!(
        open_fds(),
        baseline - 1,
        "the last user took the set's three descriptors (and its own socket)"
    );
    assert_no_reactor_thread();

    // The surviving socket never needed the set for plain reads.
    let mut buf = [0u8; 16];
    assert_eq!(server.read(&mut buf), Ok(4));
    client.write_all(b"still here").unwrap();
    let n = server
        .read_timeout(&mut buf, Duration::from_secs(5))
        .unwrap();
    assert_eq!(&buf[..n], b"still here");

    // The platform as the benchmark runs it: the dispatcher is the kernel
    // reactor, so one shard with two workers is three threads.
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        shards: 1,
    });
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("web", 0, StaticWebServerFactory::new(b"served")),
            "127.0.0.1:0",
        )
        .unwrap();
    let response = fetch_http(
        Fabric::kernel(),
        service.port(),
        "/",
        Duration::from_secs(5),
    )
    .unwrap();
    assert!(response.ends_with(b"served"));
    // A worker names itself, so a census taken before it ran that far
    // reads the unnamed thread: poll until all three have their names.
    // dispatch-0, worker-0-0 and worker-0-1, as `comm` cuts them.
    let expected = ["flick-dispatch-", "flick-worker-0-", "flick-worker-0-"];
    eventually(
        "the census never read exactly one dispatcher and two workers",
        || flick_threads() == expected,
    );
}

/// Polls `done` every millisecond for up to five seconds.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The path-hashed balancer over two kernel-socket back-ends, as the
/// benchmark deploys it.
fn path_balancer(backends: &[BackendHandle]) -> (Platform, DeployedService, u16) {
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        shards: 1,
    });
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("lb", 0, http_path_balancer()).with_tcp_backends(
                backends
                    .iter()
                    .map(|backend| loopback(backend.port()))
                    .collect(),
            ),
            "127.0.0.1:0",
        )
        .unwrap();
    let port = service.port();
    (platform, service, port)
}

/// The descriptor count once it stops moving: the back-ends' connection
/// threads close their ends on the EOF they are sent.
fn settled_fds() -> usize {
    let mut fds = open_fds();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = open_fds();
        if now == fds {
            return fds;
        }
        fds = now;
    }
}

/// Clients of the path-hashed balancer hang up at every point of a graph's
/// life: right after sending a request, without sending one, and a few
/// microseconds after the request went out — while the input task routes
/// it and the array member it picked is being opened, as the graph starts
/// to drain. Whichever way the race goes, no member may be opened after
/// its graph drained or left registered past teardown: every graph is torn
/// down, and the only sockets left open are back-end connections parked
/// for reuse, at most the idle bound per member. Stopping the service
/// closes those too, and once the platform is gone the process holds
/// exactly the descriptors it held before.
#[test]
fn members_opened_as_clients_hang_up_leak_no_socket() {
    const ROUNDS: usize = 2_000;
    let _census = census();
    let kernel = Fabric::kernel();
    let backends = [
        start_http_backend(&kernel, 0, b"served"),
        start_http_backend(&kernel, 0, b"served"),
    ];
    let baseline = settled_fds();
    let (platform, mut service, port) = path_balancer(&backends);
    let stats = platform.tcp_stack().stats().clone();
    let open_sockets = || {
        let snap = stats.snapshot();
        snap.connections_opened - snap.connections_closed
    };

    for round in 0..ROUNDS {
        let mut client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        let request = format!("GET /r{round} HTTP/1.1\r\nHost: churn\r\n\r\n");
        match round % 4 {
            0 => client.write_all(request.as_bytes()).unwrap(),
            1 => {}
            2 => {
                client.write_all(request.as_bytes()).unwrap();
                let spin = Instant::now();
                while spin.elapsed() < Duration::from_micros((round % 97) as u64) {
                    std::hint::spin_loop();
                }
            }
            _ => {
                // A request served in full, so the hang-ups race live
                // members too.
                client.write_all(request.as_bytes()).unwrap();
                client
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let mut response = Vec::new();
                let mut buf = [0u8; 1024];
                while !response.ends_with(b"served") {
                    let n = client.read(&mut buf).unwrap();
                    assert!(n > 0, "round {round}: closed before the response");
                    response.extend_from_slice(&buf[..n]);
                }
            }
        }
        drop(client);
    }
    eventually("graphs never torn down", || service.live_graphs() == 0);
    let parked = open_sockets();
    assert!(
        parked <= (backends.len() * IDLE_PER_BACKEND) as u64,
        "{parked} sockets open with no graph left"
    );
    let response = fetch_http(&kernel, port, "/after", Duration::from_secs(5)).unwrap();
    assert!(response.ends_with(b"served"));
    service.stop();
    eventually("service sockets left open after stop", || {
        open_sockets() == 0
    });
    drop((service, platform));
    eventually("descriptors leaked", || open_fds() == baseline);
}

/// One connection per request, as HTTP/1.0-era clients and `lb_churn`
/// open them: 500 sequential `Connection: close` clients, every response
/// verified, cost the back-ends one connection per member — a closing
/// client leaves its back-end connection to the next one. Each client
/// arrives once the previous one's graph is gone, so the count does not
/// hang on how fast a loaded host tears graphs down (overlapping graphs
/// each hold a connection of their own).
#[test]
fn sequential_closing_clients_reuse_back_end_connections() {
    const CLIENTS: usize = 500;
    let _census = census();
    let kernel = Fabric::kernel();
    let backends = [
        start_http_backend(&kernel, 0, b"served"),
        start_http_backend(&kernel, 0, b"served"),
    ];
    let (platform, service, port) = path_balancer(&backends);
    for i in 0..CLIENTS {
        let response =
            fetch_http(&kernel, port, &format!("/p{i}"), Duration::from_secs(5)).unwrap();
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.starts_with("HTTP/1.1 200 OK") && text.ends_with("served"),
            "client {i}: {text}"
        );
        eventually("graph never torn down", || service.live_graphs() == 0);
    }
    let accepted: u64 = backends.iter().map(|b| b.connections_accepted()).sum();
    assert!(
        accepted <= backends.len() as u64,
        "{accepted} back-end connections for {CLIENTS} clients"
    );
    let served: u64 = backends.iter().map(|b| b.requests_served()).sum();
    assert_eq!(served, CLIENTS as u64);
    assert_eq!(
        platform.metrics().snapshot().backend_checkouts,
        CLIENTS as u64,
        "a reuse is a checkout"
    );
    drop(service);
}
