//! Pass-through bodies end to end, on the simulated fabric and on kernel
//! sockets (DESIGN.md §11): a body no rule of the path-hashed balancer
//! reads crosses it through a per-message pipe — spliced on kernel
//! sockets, copied on the sim — and must arrive byte for byte as the
//! buffered path delivers it, survive either end dying mid-body, and
//! leave no descriptor behind.
//!
//! The back-end is played by hand, so a test can stop, close or answer it
//! mid-body. Every test takes one lock: the descriptor census must not
//! count another test's sockets. CI runs the file single-threaded beside
//! the TCP transport suite, once per shard count (`FLICK_TEST_SHARDS`).

use flick::compiler::CompiledService;
use flick::grammar::http::HttpCodec;
use flick::grammar::{Message, ParseOutcome, WireCodec};
use flick::net_substrate::{Endpoint, Listener, NetError, NetStats, StackModel, StatsSnapshot};
use flick::runtime_crate::ExecMode;
use flick::services::http::http_path_balancer;
use flick::ServiceSpec;
use flick_bench::{Target, Testbed};
use flick_workload::Fabric;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MIB: usize = 1 << 20;
const PATIENCE: Duration = Duration::from_secs(10);

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Which of a testbed's fabrics a rig runs on.
type On = fn(&Testbed) -> Fabric;

const FABRICS: [On; 2] = [Testbed::sim, Testbed::kernel];

/// The balancer in front of one hand-played back-end, on one fabric.
struct Rig {
    lb: Target,
    backend: Listener,
    /// The counters of the platform's sockets on the rig's fabric.
    stats: Arc<NetStats>,
    bed: Testbed,
}

impl Rig {
    fn new(on: On, balancer: Arc<CompiledService>, mode: ExecMode) -> Rig {
        let shards = std::env::var("FLICK_TEST_SHARDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        let mut bed = Testbed::new(StackModel::Free, 2, shards);
        let fabric = on(&bed);
        // Port 0: an ephemeral port on the kernel, a free one on the sim.
        let backend = fabric.listen(0).unwrap();
        let spec = ServiceSpec::new("lb", 7100, balancer).with_exec_mode(mode);
        let lb = bed.deploy(&fabric, spec, vec![backend.port()]);
        Rig {
            lb,
            backend,
            stats: bed.platform_stats(&fabric),
            bed,
        }
    }

    fn fabric(&self) -> &Fabric {
        &self.lb.fabric
    }

    fn client(&self) -> Endpoint {
        self.fabric().connect(self.lb.port).unwrap()
    }

    /// The next connection the balancer opens to the back-end.
    fn accept(&self) -> Endpoint {
        self.backend
            .accept_timeout(PATIENCE)
            .expect("the balancer connects to its back-end")
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Connections closed by the balancer and by the test's own ends. The
    /// sim counts every endpoint in one place; on the kernel the test's
    /// ends have a stack of their own.
    fn closed(&self) -> u64 {
        let own = self.fabric().stats();
        let mut closed = self.stats().connections_closed;
        if !Arc::ptr_eq(own, &self.stats) {
            closed += own.snapshot().connections_closed;
        }
        closed
    }

    fn checkouts(&self) -> u64 {
        self.bed.platform().metrics().snapshot().backend_checkouts
    }

    fn await_teardown(&self) {
        let deadline = Instant::now() + PATIENCE;
        let live = || {
            let metrics = self.bed.platform().metrics().snapshot();
            metrics.graphs_created - metrics.graphs_destroyed
        };
        while live() > 0 {
            assert!(
                Instant::now() < deadline,
                "{:?}: a graph never tore down",
                self.fabric()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// `len` bytes that differ per position and per `seed`.
fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

fn head(first_line: &str, len: usize) -> Vec<u8> {
    format!("{first_line}\r\nHost: t\r\nContent-Length: {len}\r\n\r\n").into_bytes()
}

fn request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = head(&format!("{method} {path} HTTP/1.1"), body.len());
    wire.extend_from_slice(body);
    wire
}

fn response(body: &[u8]) -> Vec<u8> {
    let mut wire = head("HTTP/1.1 200 OK", body.len());
    wire.extend_from_slice(body);
    wire
}

/// Reads one whole HTTP message from `conn`; bytes past it stay in
/// `carry`. Returns the message and its wire bytes.
fn read_message(conn: &Endpoint, carry: &mut Vec<u8>) -> Result<(Message, Vec<u8>), NetError> {
    let mut buf = vec![0u8; 256 * 1024];
    loop {
        if let Ok(ParseOutcome::Complete { message, consumed }) =
            HttpCodec::new().parse(carry, None)
        {
            return Ok((message, carry.drain(..consumed).collect()));
        }
        let n = conn.read_timeout(&mut buf, PATIENCE)?;
        carry.extend_from_slice(&buf[..n]);
    }
}

/// Everything `conn` delivers until EOF; a peer left hanging fails.
fn read_to_eof(conn: &Endpoint) -> Vec<u8> {
    let mut got = Vec::new();
    let mut buf = vec![0u8; 256 * 1024];
    loop {
        match conn.read_timeout(&mut buf, PATIENCE) {
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(NetError::Closed) => return got,
            Err(e) => panic!("no EOF after {} bytes: {e}", got.len()),
        }
    }
}

/// Plays a back-end on `conn`: answers each request with `answer`, and
/// returns every byte of the requests once the connection ends.
fn serve(
    conn: Endpoint,
    answer: impl Fn(usize, &Message) -> Vec<u8> + Send + 'static,
) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut carry = Vec::new();
        let mut received = Vec::new();
        let mut served = 0;
        while let Ok((message, wire)) = read_message(&conn, &mut carry) {
            received.extend_from_slice(&wire);
            if conn.write_all(&answer(served, &message)).is_err() {
                break;
            }
            served += 1;
        }
        received
    })
}

/// What both ends saw of one run of the body mix.
#[derive(Debug, PartialEq)]
struct Seen {
    backend: Vec<u8>,
    client: Vec<u8>,
}

/// Sends every body of `sizes` as a request and answers each with a body
/// of the size `sizes` holds one place on, one exchange at a time on one
/// connection. Returns what the back-end and the client received, the
/// bytes the balancer spliced, and the fabric.
fn route_mix(
    on: On,
    balancer: Arc<CompiledService>,
    mode: ExecMode,
    sizes: &[usize],
) -> (Seen, u64, Fabric) {
    let rig = Rig::new(on, balancer, mode);
    let client = rig.client();
    let answers: Vec<usize> = sizes
        .iter()
        .cycle()
        .skip(1)
        .take(sizes.len())
        .copied()
        .collect();
    let mut client_seen = Vec::new();
    let mut carry = Vec::new();
    client
        .write_all(&request("POST", "/mix/0", &pattern(sizes[0], 0)))
        .unwrap();
    let backend = serve(rig.accept(), move |i, _| {
        response(&pattern(answers[i], 100 + i as u8))
    });
    for (i, size) in sizes.iter().enumerate() {
        if i > 0 {
            let body = pattern(*size, i as u8);
            client
                .write_all(&request("POST", &format!("/mix/{i}"), &body))
                .unwrap();
        }
        let (_, wire) = read_message(&client, &mut carry).expect("every request is answered");
        client_seen.extend_from_slice(&wire);
    }
    let spliced = rig.stats().spliced_bytes;
    let fabric = rig.fabric().clone();
    client.close();
    rig.await_teardown();
    // Stopping the service closes the parked back-end connection.
    drop(rig);
    let backend = backend.join().unwrap();
    (
        Seen {
            backend,
            client: client_seen,
        },
        spliced,
        fabric,
    )
}

/// The oracle: a seeded mix of bodies (0 B, 137 B, 64 KiB ± 1, 1 MiB,
/// 4 MiB) through the balancer with its derived projection and through
/// its twin with `body` projected. Back-end and client see the same bytes
/// either way, on both engines and both fabrics; only the streamed run
/// splices, and only on kernel sockets.
#[test]
fn streamed_bodies_are_byte_for_byte_the_buffered_ones() {
    let _serial = serial();
    let mut sizes = vec![
        0,
        137,
        64 * 1024 - 1,
        64 * 1024,
        64 * 1024 + 1,
        MIB,
        4 * MIB,
    ];
    let mut seed = 0x2545_f491_u64;
    for i in (1..sizes.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        sizes.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    for on in FABRICS {
        for mode in ExecMode::all() {
            let (streamed, spliced, fabric) = route_mix(on, http_path_balancer(), mode, &sizes);
            let buffered = http_path_balancer().with_bodies_buffered();
            let (oracle, oracle_spliced, _) = route_mix(on, buffered, mode, &sizes);
            assert_eq!(
                streamed.backend.len(),
                oracle.backend.len(),
                "{fabric:?} {mode:?}"
            );
            assert!(streamed == oracle, "{fabric:?} {mode:?}: the bytes differ");
            assert_eq!(oracle_spliced, 0, "{fabric:?} {mode:?}: the oracle buffers");
            if fabric.is_kernel() {
                assert!(
                    spliced >= 2 * MIB as u64,
                    "{mode:?}: spliced only {spliced} B"
                );
            }
        }
    }
}

/// A client that closes mid-upload on an open member: the back-end sees
/// the head, part of the body and EOF — the member is retired, not
/// parked — and the next client's request opens a fresh back-end
/// connection, counted.
#[test]
fn a_client_closing_mid_upload_retires_the_member() {
    let _serial = serial();
    for on in FABRICS {
        let rig = Rig::new(on, http_path_balancer(), ExecMode::Vm);
        let fabric = rig.fabric();
        let client = rig.client();
        client.write_all(&request("GET", "/same", b"")).unwrap();
        let member = rig.accept();
        read_message(&member, &mut Vec::new()).unwrap();
        member.write_all(&response(b"first")).unwrap();
        read_message(&client, &mut Vec::new()).unwrap();

        let mut upload = head("POST /same HTTP/1.1", MIB);
        let head_len = upload.len();
        upload.extend_from_slice(&pattern(256 * 1024, 1));
        client.write_all(&upload).unwrap();
        client.close();
        let got = read_to_eof(&member);
        assert_eq!(&got[..head_len], &upload[..head_len], "{fabric:?}");
        assert!(got.len() <= upload.len(), "{fabric:?}");
        rig.await_teardown();
        assert_eq!(rig.checkouts(), 1, "{fabric:?}");

        let next = rig.client();
        next.write_all(&request("GET", "/next", b"")).unwrap();
        let backend = serve(rig.accept(), |_, _| response(b"fresh"));
        let (_, wire) = read_message(&next, &mut Vec::new()).unwrap();
        assert!(wire.ends_with(b"fresh"), "{fabric:?}");
        assert_eq!(
            rig.checkouts(),
            2,
            "{fabric:?}: a fresh connection is a checkout"
        );
        next.close();
        rig.await_teardown();
        drop(rig);
        backend.join().unwrap();
    }
}

/// A back-end that closes mid-download: the client gets the head, part
/// of the body and EOF — closed, not left hanging.
#[test]
fn a_back_end_closing_mid_download_closes_the_client() {
    let _serial = serial();
    for on in FABRICS {
        let rig = Rig::new(on, http_path_balancer(), ExecMode::Vm);
        let fabric = rig.fabric();
        let client = rig.client();
        client.write_all(&request("GET", "/down", b"")).unwrap();
        let member = rig.accept();
        read_message(&member, &mut Vec::new()).unwrap();
        let mut partial = head("HTTP/1.1 200 OK", MIB);
        partial.extend_from_slice(&pattern(256 * 1024, 2));
        member.write_all(&partial).unwrap();
        member.close();
        let got = read_to_eof(&client);
        assert_eq!(
            got, partial,
            "{fabric:?}: what arrived leaves, then the close"
        );
        rig.await_teardown();
    }
}

/// The member is closed before a request's head leaves (its back-end hung
/// up after the previous exchange): the request cannot be delivered, so
/// its client is closed and the graph tears down — nothing waits on the
/// pipe its 1 MiB body was filling.
#[test]
fn a_member_closed_before_the_head_leaves_tears_the_graph_down() {
    let _serial = serial();
    for on in FABRICS {
        let rig = Rig::new(on, http_path_balancer(), ExecMode::Vm);
        let fabric = rig.fabric();
        let client = rig.client();
        client.write_all(&request("GET", "/same", b"")).unwrap();
        let member = rig.accept();
        read_message(&member, &mut Vec::new()).unwrap();
        member.write_all(&response(b"first")).unwrap();
        read_message(&client, &mut Vec::new()).unwrap();
        let closed = rig.closed();
        member.close();
        // The balancer's member input sees the hang-up and closes it.
        let deadline = Instant::now() + PATIENCE;
        while rig.closed() < closed + 2 {
            assert!(
                Instant::now() < deadline,
                "{fabric:?}: the member stayed open"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let uploader = {
            let client = client.clone();
            std::thread::spawn(move || {
                let _ = client.write_all(&request("POST", "/same", &pattern(MIB, 3)));
            })
        };
        let got = read_to_eof(&client);
        assert!(got.is_empty(), "{fabric:?}: no answer, just the close");
        uploader.join().unwrap();
        rig.await_teardown();
    }
}

/// A 1 MiB upload and a GET in one client write: the GET waits in the
/// socket while the body streams, then both are answered, in order.
#[test]
fn a_post_and_a_get_in_one_write_are_answered_in_order() {
    let _serial = serial();
    for on in FABRICS {
        let rig = Rig::new(on, http_path_balancer(), ExecMode::Vm);
        let fabric = rig.fabric();
        let client = rig.client();
        let mut both = request("POST", "/same", &pattern(MIB, 4));
        both.extend_from_slice(&request("GET", "/same", b""));
        let writer = {
            let client = client.clone();
            std::thread::spawn(move || client.write_all(&both).unwrap())
        };
        let backend = serve(rig.accept(), |_, message| {
            let len = message.uint_field("content_length").unwrap_or(0);
            response(format!("{} {len}", message.str_field("method").unwrap()).as_bytes())
        });
        let mut carry = Vec::new();
        let (_, first) = read_message(&client, &mut carry).unwrap();
        let (_, second) = read_message(&client, &mut carry).unwrap();
        assert!(first.ends_with(b"POST 1048576"), "{fabric:?}");
        assert!(second.ends_with(b"GET 0"), "{fabric:?}");
        writer.join().unwrap();
        client.close();
        rig.await_teardown();
        drop(rig);
        let received = backend.join().unwrap();
        assert_eq!(
            received.len(),
            request("POST", "/same", &pattern(MIB, 4)).len() + request("GET", "/same", b"").len()
        );
    }
}

/// A `Content-Length` above `MAX_BODY_BYTES` is refused at its head,
/// streamed or not, and costs only its own connection.
#[test]
fn a_content_length_over_the_limit_closes_only_its_own_connection() {
    let _serial = serial();
    for on in FABRICS {
        let rig = Rig::new(on, http_path_balancer(), ExecMode::Vm);
        let fabric = rig.fabric();
        let bystander = rig.client();
        bystander.write_all(&request("GET", "/ok", b"")).unwrap();
        let backend = serve(rig.accept(), |_, _| response(b"ok"));
        read_message(&bystander, &mut Vec::new()).unwrap();

        let hostile = rig.client();
        let mut wire = head("POST /huge HTTP/1.1", 17_000_000);
        wire.extend_from_slice(&pattern(64 * 1024, 5));
        let _ = hostile.write_all(&wire);
        assert!(read_to_eof(&hostile).is_empty(), "{fabric:?}");
        // The close is counted as malformed just after the socket closes.
        let deadline = Instant::now() + PATIENCE;
        while rig.stats().malformed_closes == 0 {
            assert!(
                Instant::now() < deadline,
                "{fabric:?}: not a malformed close"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(rig.stats().malformed_closes, 1, "{fabric:?}");

        bystander.write_all(&request("GET", "/ok", b"")).unwrap();
        let (_, wire) = read_message(&bystander, &mut Vec::new()).unwrap();
        assert!(
            wire.ends_with(b"ok"),
            "{fabric:?}: the bystander is still served"
        );
        bystander.close();
        rig.await_teardown();
        drop(rig);
        backend.join().unwrap();
    }
}

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |dir| dir.count())
}

/// 200 bulk requests — 1 MiB up, 1 MiB down, alternating — then teardown:
/// every body pipe is closed with its message, so the process holds no
/// more descriptors than before the platform existed.
#[test]
fn bulk_bodies_leave_no_descriptor_behind() {
    let _serial = serial();
    for on in FABRICS {
        let baseline = open_descriptors();
        let rig = Rig::new(on, http_path_balancer(), ExecMode::Vm);
        let fabric = rig.fabric().clone();
        let client = rig.client();
        let download = Arc::new(response(&pattern(MIB, 6)));
        let upload = request("POST", "/up", &pattern(MIB, 7));
        let answer = Arc::clone(&download);
        client.write_all(&request("GET", "/down", b"")).unwrap();
        let backend = serve(rig.accept(), move |i, _| {
            if i % 2 == 0 {
                answer.to_vec()
            } else {
                response(b"stored")
            }
        });
        let mut carry = Vec::new();
        for i in 0..200 {
            if i > 0 {
                let next = if i % 2 == 0 {
                    request("GET", "/down", b"")
                } else {
                    upload.clone()
                };
                client.write_all(&next).unwrap();
            }
            let (_, wire) = read_message(&client, &mut carry).unwrap();
            if i % 2 == 0 {
                assert!(wire == *download, "{fabric:?}: download {i}");
            }
        }
        client.close();
        rig.await_teardown();
        drop(client);
        drop(rig);
        backend.join().unwrap();
        let deadline = Instant::now() + PATIENCE;
        while open_descriptors() > baseline {
            assert!(
                Instant::now() < deadline,
                "{fabric:?}: {} descriptors open, {baseline} before",
                open_descriptors()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
