//! Request latency through a FLICK static web service while 255 other
//! connections sit idle: the dispatcher blocks in `Poller::wait` and
//! reacts to the one active connection immediately, so the idle mass must
//! cost nothing. The throughput twin of this point (`event` @ 256) is
//! held to its baseline in CI by the `bench_guard` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use flick_bench::testbed::BODY;
use flick_bench::{Testbed, Transport};
use flick_net::{Endpoint, StackModel};
use flick_services::http::StaticWebServerFactory;
use std::time::Duration;

const CONNECTIONS: usize = 256;

struct Setup {
    // Holds the platform, service and idle connections alive for the
    // duration of the measurement.
    _bed: Testbed,
    _idle: Vec<Endpoint>,
    active: Endpoint,
}

fn setup() -> Setup {
    let mut bed = Testbed::new(StackModel::Kernel, 4, 0);
    let web = StaticWebServerFactory::new(&BODY[..]);
    let web = bed.deploy_http(Transport::Sim, "idle-web", web, 0);
    let connect = || bed.net().connect(web.port).expect("client connects");
    let idle: Vec<Endpoint> = (1..CONNECTIONS).map(|_| connect()).collect();
    let active = connect();
    // Let the dispatcher instantiate every graph before measuring.
    std::thread::sleep(Duration::from_millis(100));
    Setup {
        _bed: bed,
        _idle: idle,
        active,
    }
}

fn one_request(conn: &Endpoint) {
    conn.write_all(b"GET /bench HTTP/1.1\r\nHost: b\r\n\r\n")
        .expect("request written");
    let mut response = Vec::with_capacity(256);
    let mut chunk = [0u8; 1024];
    loop {
        let n = conn
            .read_timeout(&mut chunk, Duration::from_secs(5))
            .expect("response arrives");
        response.extend_from_slice(&chunk[..n]);
        // The static body is the terminator: one full response received.
        if response.windows(4).any(|w| w == b"xxxx") {
            break;
        }
    }
}

fn bench_idle_connections(c: &mut Criterion) {
    let setup = setup();
    c.bench_function("idle256/event", |b| b.iter(|| one_request(&setup.active)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_idle_connections
}
criterion_main!(benches);
