//! Lifecycle of the dispatcher-owned epoll set (DESIGN.md §13).
//!
//! One test, hence its own process: it counts this process's descriptors
//! and threads, which tests running beside it would disturb.

use flick::net_substrate::{Interest, Poller, TcpStack, Token};
use flick::services::http::StaticWebServerFactory;
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_workload::tcp::fetch_http;
use std::time::{Duration, Instant};

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
    let _ = poller.wait(Duration::from_millis(50)); // synthetic level-trigger
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
    server.deregister(&poller);
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
        ..Default::default()
    });
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("web", 0, StaticWebServerFactory::new(b"served")),
            "127.0.0.1:0",
        )
        .unwrap();
    let addr = format!("127.0.0.1:{}", service.port());
    let response = fetch_http(&addr, "/", Duration::from_secs(5)).unwrap();
    assert!(response.ends_with(b"served"));
    assert_eq!(
        flick_threads(),
        ["flick-dispatch-", "flick-worker-0-", "flick-worker-0-"],
        "dispatch-0, worker-0-0 and worker-0-1, as `comm` cuts them"
    );
}
