//! CI bench-regression guard.
//!
//! Runs reduced versions of the headline experiments and compares them
//! against the checked-in baseline `crates/bench/benches/baseline.json`:
//!
//! * the idle-connection point (256 mostly-idle connections) and the
//!   stalled-peer point (8 peers that never read) — the readiness layer's
//!   two "waiting costs nothing" claims;
//! * the sharding ablation (fig5 with `--shards 1` vs `--shards 2`) — the
//!   sharded-runtime acceptance gate;
//! * the fig4 runner (FLICK HTTP load balancer, kernel stack) and the
//!   fig6 runner (Hadoop aggregation throughput), at reduced scale;
//! * the e2e loopback TCP point (static web service on a real OS socket,
//!   driven by the blocking loopback client pool) — the OS-transport
//!   acceptance gate.
//!
//! Two kinds of checks:
//!
//! * **Machine-independent gates**, computed within this run: the ratio
//!   table in `main` (the sharded runtime must not lose to the
//!   single-shard runtime — small tolerance for single-core hosts, where
//!   sharding has no parallel headroom to exploit and the expected ratio
//!   is ~1.0 rather than >1 — the real-socket service must stay within a
//!   bounded overhead of its simulated twin, and so on), plus structural
//!   claims: balanced per-shard utilization, live steal traffic, zero
//!   busy retries against stalled peers, the zero-copy laws under c10k.
//! * **Absolute baselines** with a generous 30% floor (CI machines are
//!   noisy): any `req/s` or `Mbps` series dropping below 70% of its
//!   recorded baseline fails.
//!
//! Usage:
//!
//! * `cargo run --release -p flick_bench --bin bench_guard` — compare;
//!   exits non-zero on any failed check.
//! * `... --bin bench_guard -- --record` — overwrite the baseline with
//!   this machine's numbers (how the file was seeded, and how to re-seed
//!   after an intentional perf change).

use flick_bench::report::{print_table, rows_from_json, rows_to_json, Row};
use flick_bench::{
    max_open_files, run_exec_mode_dispatch_experiment, run_hadoop_experiment,
    run_hostile_goodput_experiment, run_http_experiment, run_idle_connections_experiment,
    run_sharding_ablation, run_stalled_peers_experiment, run_tcp_c10k_experiment,
    run_tcp_lb_experiment, run_tcp_lb_leg, run_tcp_loopback_experiment, run_tcp_sharding_curve,
    ExecModeDispatchExperiment, HadoopExperiment, HttpPoint, HttpSystem,
};
use flick_services::http::{http_balancer, http_path_balancer};
use std::time::Duration;

/// Fraction of the baseline a guarded series may drop to before the
/// guard fails (1.0 - 0.30).
const REGRESSION_FLOOR: f64 = 0.70;

/// The sharded-vs-single ratio floor. On a multi-core host sharding is
/// expected to win outright (>1); on a single-core host there is no
/// parallel headroom and the requirement degrades to "sharding must not
/// cost throughput" with a small noise allowance.
const SHARDING_RATIO_FLOOR: f64 = 0.95;

/// The tcp-vs-sim ratio floor: the service on a real kernel socket must
/// not fall below this fraction of its simulated twin (kernel cost model)
/// within the same run. Loopback measurements put the ratio around
/// 0.8–0.9; the floor leaves generous headroom for loaded CI hosts while
/// still catching a broken OS transport (a lost-wakeup stall collapses
/// the ratio to near zero).
const TCP_SIM_RATIO_FLOOR: f64 = 0.25;

/// The all-TCP LB ratio floor: the `client → LB → backend` path crossing
/// real kernel sockets on every hop must stay within this fraction of its
/// simulated twin. Two socket hops per request make this noisier than the
/// single-hop loopback point, so the floor is lower; a stalled backend
/// pool or a lost writable wakeup still collapses it to near zero.
const TCP_LB_RATIO_FLOOR: f64 = 0.15;

/// Share of the fleet's requests replaced by malformed frames in the
/// hostile-goodput point.
const HOSTILE_SHARE: f64 = 0.10;

/// The hostile-goodput ratio floor: with `HOSTILE_SHARE` of requests
/// poisoned, the clean requests' completed rate must stay within this
/// fraction of the clean-run rate, within this run. Shedding a poison
/// frame costs one connection close and a reconnect, so the expected
/// ratio sits well above this; a collapse means malformed rejection has
/// become expensive, and a parser that started *answering* poison shows
/// up through the malformed-close structural check beside it. Observed
/// ratios sit around 0.55–0.7 (every poisoned turn burns a keep-alive
/// connection, so the cost is reconnect churn, not the poison itself);
/// the floor leaves room for single-core CI noise while still catching
/// a rejection path that turned quadratic or started timing out.
const HOSTILE_GOODPUT_RATIO_FLOOR: f64 = 0.40;

/// The VM-vs-interpreter dispatch ratio floor: compiled bytecode with a
/// direct-threaded dispatch loop must beat the tree-walking interpreter
/// on per-message dispatch of the same lowered program, within the same
/// run. Observed ratios sit around 1.2–1.3 (pre-decoded ops, interned
/// constants and grammar-seeded field-offset sites versus recursive
/// enum-tree walking); the gate only requires the VM to win at all,
/// best-of-three so a noisy pass cannot fail CI.
const EXEC_MODE_RATIO_FLOOR: f64 = 1.0;

fn baseline_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/benches/baseline.json")
}

/// The pass with the highest `score`. Every gate and every guarded row
/// takes the best of its passes, so a single noisy interval on a loaded
/// CI host cannot fail the comparison.
fn best_of<T>(passes: impl IntoIterator<Item = T>, score: impl Fn(&T) -> f64) -> T {
    passes
        .into_iter()
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("at least one pass")
}

/// The highest of `values` ([`best_of`] over plain numbers).
fn best(values: impl IntoIterator<Item = f64>) -> f64 {
    best_of(values, |value| *value)
}

fn ratio((numerator, denominator): (f64, f64)) -> f64 {
    numerator / denominator.max(1e-9)
}

/// One machine-independent gate: within this run, the numerator of `name`
/// over its denominator must reach `floor`. Host speed cancels out, which
/// the absolute baseline comparison cannot offer.
struct Gate {
    /// `"numerator/denominator"`, as printed.
    name: &'static str,
    /// The headline of the failure message.
    lost: &'static str,
    floor: f64,
    /// The ratio must exceed the floor, not merely reach it.
    strict: bool,
    /// `(numerator, denominator)` of each pass; the best ratio counts.
    passes: Vec<(f64, f64)>,
}

impl Gate {
    fn check(&self) -> Result<String, String> {
        let best = best_of(self.passes.iter().copied(), |pass| ratio(*pass));
        let (got, bound) = (ratio(best), self.floor);
        let (num, den) = self.name.split_once('/').expect("gate names are num/den");
        let detail = format!(
            "ratio {got:.2} ({} {bound}; {num} {:.0} vs {den} {:.0})",
            if self.strict { "must be >" } else { "floor" },
            best.0,
            best.1
        );
        if got > bound || (!self.strict && got == bound) {
            Ok(format!("{} {detail}", self.name))
        } else {
            Err(format!("{}: {detail}", self.lost))
        }
    }
}

/// The outcome of every gate and baseline comparison of this run.
#[derive(Default)]
struct Checks {
    passed: usize,
    failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, outcome: Result<String, String>) {
        match outcome {
            Ok(line) => {
                println!("ok: {line}");
                self.passed += 1;
            }
            Err(failure) => self.failures.push(failure),
        }
    }
}

/// The fig4 shape at the guard's scale: 32 persistent clients for 400 ms
/// against 4 workers and 4 back-ends. Shared by the fig4 point and the
/// hostile-goodput point.
fn fig4_point() -> HttpPoint {
    HttpPoint {
        concurrency: 32,
        ..Default::default()
    }
}

/// The reduced fig4 point the guard tracks.
fn run_fig4_point() -> Row {
    let params = fig4_point();
    let stats = run_http_experiment(HttpSystem::FlickKernel, &params);
    Row::new(
        params.concurrency,
        "fig4 FLICK",
        stats.requests_per_sec(),
        "req/s",
    )
}

/// The reduced fig6 point the guard tracks.
fn run_fig6_point() -> Row {
    let params = HadoopExperiment {
        cores: 2,
        word_len: 8,
        mappers: 4,
        bytes_per_mapper: 256 * 1024,
        link_bits_per_sec: None,
    };
    let mbps = run_hadoop_experiment(&params);
    Row::new(params.mappers, "fig6 hadoop", mbps, "Mbps")
}

/// The idle-connection point: 8 active clients among 256 connections.
fn run_idle_point() -> Row {
    const CONNECTIONS: usize = 256;
    let params = HttpPoint {
        concurrency: 8,
        ..Default::default()
    };
    let stats = run_idle_connections_experiment(&params, CONNECTIONS);
    Row::new(CONNECTIONS, "event", stats.requests_per_sec(), "req/s")
}

/// Back-ends that served at least one request.
fn backends_hit(requests: &[u64]) -> usize {
    requests.iter().filter(|served| **served > 0).count()
}

/// Whether a row is held to the absolute 70% floor.
fn guarded(row: &Row) -> bool {
    row.unit == "req/s" || row.unit == "Mbps"
}

fn main() {
    let record = std::env::args().any(|a| a == "--record");
    let mut rows = vec![run_idle_point()];
    // The stalled-peer point: active throughput of 4 clients with 8 peers
    // pinned against full pipes, two passes.
    const STALLED: usize = 8;
    let stalled_params = HttpPoint {
        concurrency: 4,
        ..Default::default()
    };
    let stalled = [
        run_stalled_peers_experiment(&stalled_params, STALLED),
        run_stalled_peers_experiment(&stalled_params, STALLED),
    ];
    let stalled_retries = stalled
        .iter()
        .map(|pass| pass.busy_retries)
        .min()
        .expect("two passes");
    rows.push(Row::new(
        STALLED,
        "output wakeup",
        best(stalled.iter().map(|pass| pass.stats.requests_per_sec())),
        "req/s",
    ));
    rows.push(Row::new(
        STALLED,
        "output wakeup retries",
        stalled_retries as f64,
        "retries",
    ));
    // Three passes over the sharding ablation. On a single-core box the
    // ratio gate has no parallel headroom at all — it measures pure
    // sharding overhead against a 5% allowance — so it needs the extra
    // pass more than any other gate here. Baseline rows come from the
    // first pass.
    let sharding: [Vec<Row>; 3] =
        std::array::from_fn(|_| run_sharding_ablation(&[1, 2], Duration::from_millis(600)));
    rows.extend(sharding[0].iter().cloned());
    rows.push(run_fig4_point());
    rows.push(run_fig6_point());
    // The hostile-goodput point: the same LB shape as fig4, measured
    // clean and then under a 10% malformed-frame storm (two passes —
    // door-slam shedding on a loaded host is noisy).
    let hostile_params = fig4_point();
    let hostile = [
        run_hostile_goodput_experiment(&hostile_params, HOSTILE_SHARE),
        run_hostile_goodput_experiment(&hostile_params, HOSTILE_SHARE),
    ];
    rows.push(Row::new(
        hostile_params.concurrency,
        "hostile clean",
        best(hostile.iter().map(|pass| pass.clean.requests_per_sec())),
        "req/s",
    ));
    rows.push(Row::new(
        hostile_params.concurrency,
        "hostile goodput",
        best(hostile.iter().map(|pass| pass.hostile.requests_per_sec())),
        "req/s",
    ));
    // The e2e loopback TCP point, two passes (real sockets on a loaded CI
    // host are noisier than the simulated substrate).
    let tcp_params = HttpPoint {
        shards: 1,
        ..Default::default()
    };
    let tcp = [
        run_tcp_loopback_experiment(&tcp_params),
        run_tcp_loopback_experiment(&tcp_params),
    ];
    rows.push(Row::new(
        tcp_params.concurrency,
        "tcp loopback",
        best(tcp.iter().map(|pass| pass.tcp.requests_per_sec())),
        "req/s",
    ));
    rows.push(Row::new(
        tcp_params.concurrency,
        "tcp sim twin",
        best(tcp.iter().map(|pass| pass.sim.requests_per_sec())),
        "req/s",
    ));
    // The all-TCP LB point (kernel client → LB → kernel backend): 16
    // clients for 400 ms against 4 workers and 4 back-ends, two passes
    // like the loopback point.
    let lb_params = HttpPoint::default();
    let lb = [
        run_tcp_lb_experiment(http_balancer(), &lb_params),
        run_tcp_lb_experiment(http_balancer(), &lb_params),
    ];
    rows.push(Row::new(
        lb_params.concurrency,
        "tcp lb e2e",
        best(lb.iter().map(|pass| pass.tcp.requests_per_sec())),
        "req/s",
    ));
    rows.push(Row::new(
        lb_params.concurrency,
        "tcp lb sim twin",
        best(lb.iter().map(|pass| pass.sim.requests_per_sec())),
        "req/s",
    ));
    // The execution-engine dispatch ablation: the tree-walking
    // interpreter vs the bytecode VM on per-message dispatch of the same
    // lowered program, three passes. The msg/s unit keeps these rows out
    // of the 70% absolute floor — the within-run ratio is the
    // machine-independent quantity, the absolute rates are recorded for
    // context.
    let dispatch_params = ExecModeDispatchExperiment::default();
    let dispatch: [_; 3] =
        std::array::from_fn(|_| run_exec_mode_dispatch_experiment(&dispatch_params));
    let dispatch_best = best_of(&dispatch, |pass| {
        ratio((pass.vm_msgs_per_sec, pass.interp_msgs_per_sec))
    });
    rows.push(Row::new(
        "dispatch",
        "interp dispatch",
        dispatch_best.interp_msgs_per_sec,
        "msg/s",
    ));
    rows.push(Row::new(
        "dispatch",
        "vm dispatch",
        dispatch_best.vm_msgs_per_sec,
        "msg/s",
    ));
    // The path-hashed balancer at the all-TCP LB point's scale: it binds
    // a back-end array, so every client graph opens every back-end and
    // the VM routes request by request. Two passes like the other TCP
    // points.
    let path_lb = [
        run_tcp_lb_leg(http_path_balancer(), &lb_params),
        run_tcp_lb_leg(http_path_balancer(), &lb_params),
    ];
    let (path_lb_tcp, path_lb_backend_requests) =
        best_of(path_lb, |(tcp, _)| tcp.requests_per_sec());
    rows.push(Row::new(
        lb_params.concurrency,
        "flick vm lb e2e",
        path_lb_tcp.requests_per_sec(),
        "req/s",
    ));
    // The kernel-path sharding curve: the same loopback service at 1 and
    // 2 shards, each shard with its own epoll set and SO_REUSEPORT
    // accept socket. Three passes: like the runtime sharding gate above,
    // on a single-core host the ratio measures pure sharding overhead
    // against a 5% allowance.
    const TCP_SHARD_MAX: usize = 2;
    let curve: Vec<_> = (0..3)
        .flat_map(|_| run_tcp_sharding_curve(&tcp_params, TCP_SHARD_MAX))
        .collect();
    let curve_best_at = |shards: usize| {
        best(
            curve
                .iter()
                .filter(|point| point.shards == shards)
                .map(|point| point.tcp.requests_per_sec()),
        )
    };
    for shards in [1, TCP_SHARD_MAX] {
        rows.push(Row::new(
            shards,
            "tcp sharded",
            curve_best_at(shards),
            "req/s",
        ));
    }
    // The c10k idle+active point: thousands of idle kernel connections
    // pinned against the reactor while a small closed loop measures
    // throughput. One pass — the gates on it are structural (zero-copy
    // laws, connection survival), not throughput-absolute beyond the 30%
    // floor.
    let c10k_params = HttpPoint {
        concurrency: 8,
        workers: 2,
        shards: 1,
        ..Default::default()
    };
    let c10k = run_tcp_c10k_experiment(&c10k_params, 10_000);
    rows.push(Row::new(
        "10k",
        "tcp c10k active",
        c10k.active.requests_per_sec(),
        "req/s",
    ));
    rows.push(Row::new(
        "10k",
        "tcp c10k idle",
        c10k.idle_connected as f64,
        "conns",
    ));
    // Host metadata, recorded for context (units outside req/s|Mbps are
    // never gated on absolute values): how many cores and fds shaped the
    // numbers above, and the sharding config the curve ran at.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rows.push(Row::new("host", "host cores", cores as f64, "cores"));
    rows.push(Row::new(
        "host",
        "host fd limit",
        max_open_files() as f64,
        "fds",
    ));
    rows.push(Row::new(
        "host",
        "tcp shard config",
        TCP_SHARD_MAX as f64,
        "shards",
    ));
    print_table("Bench guard (current run)", &rows);

    if record {
        // Only throughput series are guarded; utilization and steal rows
        // are recorded for context but never gate on absolute values
        // (they are asserted structurally within the run instead).
        std::fs::write(baseline_path(), rows_to_json(&rows) + "\n").expect("write baseline.json");
        println!("recorded baseline to {}", baseline_path());
        return;
    }

    let baseline_json = std::fs::read_to_string(baseline_path())
        .unwrap_or_else(|e| panic!("read {}: {e} (seed it with --record)", baseline_path()));
    let baseline = rows_from_json(&baseline_json).expect("parse baseline.json");

    let mut checks = Checks::default();

    // The sharding gates take the best run *per configuration* across
    // their three passes, so each is one pair here.
    let sharded_best_at = |shards: usize| {
        best(
            sharding
                .iter()
                .flatten()
                .filter(|row| row.series == "sharded" && row.x == shards.to_string())
                .map(|row| row.value),
        )
    };
    let gates = [
        Gate {
            name: "sharded/single",
            lost: "sharded runtime lost to single-shard",
            floor: SHARDING_RATIO_FLOOR,
            strict: false,
            passes: vec![(sharded_best_at(2), sharded_best_at(1))],
        },
        Gate {
            name: "tcp/sim",
            lost: "real-socket service lost to its simulated twin",
            floor: TCP_SIM_RATIO_FLOOR,
            strict: false,
            passes: tcp
                .iter()
                .map(|pass| (pass.tcp.requests_per_sec(), pass.sim.requests_per_sec()))
                .collect(),
        },
        Gate {
            name: "tcp sharded/single",
            lost: "kernel-path sharding lost to a single reactor",
            floor: SHARDING_RATIO_FLOOR,
            strict: false,
            passes: vec![(curve_best_at(TCP_SHARD_MAX), curve_best_at(1))],
        },
        Gate {
            name: "all-TCP lb/sim",
            lost: "all-TCP LB lost to its simulated twin",
            floor: TCP_LB_RATIO_FLOOR,
            strict: false,
            passes: lb
                .iter()
                .map(|pass| (pass.tcp.requests_per_sec(), pass.sim.requests_per_sec()))
                .collect(),
        },
        Gate {
            name: "hostile/clean",
            lost: "goodput collapsed under 10% malformed traffic",
            floor: HOSTILE_GOODPUT_RATIO_FLOOR,
            strict: false,
            passes: hostile
                .iter()
                .map(|pass| {
                    (
                        pass.hostile.requests_per_sec(),
                        pass.clean.requests_per_sec(),
                    )
                })
                .collect(),
        },
        Gate {
            name: "vm/interp",
            lost: "bytecode VM lost to the tree-walking interpreter",
            floor: EXEC_MODE_RATIO_FLOOR,
            strict: true,
            passes: dispatch
                .iter()
                .map(|pass| (pass.vm_msgs_per_sec, pass.interp_msgs_per_sec))
                .collect(),
        },
    ];
    for gate in &gates {
        checks.record(gate.check());
    }

    // Structural: a stalled peer parks its writer (either pass being
    // clean is accepted).
    checks.record(if stalled_retries == 0 {
        Ok("wakeup-driven output performed 0 busy retries under stalled peers".to_string())
    } else {
        Err(format!(
            "wakeup-driven output busy-retried {stalled_retries} times under stalled peers \
             (writable parking is broken)"
        ))
    });

    // Structural claims of the sharded run: both shards did comparable
    // work (placement balance) and the steal path was exercised; the
    // first clean pass is accepted.
    let structural = |pass: &Vec<Row>| -> Result<String, String> {
        let utils: Vec<f64> = pass
            .iter()
            .filter(|row| row.x == "2" && row.unit == "%")
            .map(|row| row.value)
            .collect();
        if utils.len() != 2 {
            return Err(format!(
                "expected 2 per-shard utilization rows for the 2-shard run, got {}",
                utils.len()
            ));
        }
        if utils.iter().any(|share| !(20.0..=80.0).contains(share)) {
            return Err(format!(
                "per-shard utilization is imbalanced: {utils:?} (each share must be 20–80%)"
            ));
        }
        let steals = pass
            .iter()
            .find(|row| row.x == "2" && row.series == "steals")
            .map(|row| row.value)
            .ok_or_else(|| "sharding ablation missing steals row".to_string())?;
        if steals <= 0.0 {
            return Err("no cross-shard steals in the 2-shard run".to_string());
        }
        Ok(format!(
            "per-shard utilization balanced ({utils:?}), cross-shard steal path exercised \
             ({steals:.0} tasks)"
        ))
    };
    let outcomes: Vec<_> = sharding.iter().map(structural).collect();
    let clean = outcomes.iter().position(Result::is_ok).unwrap_or(0);
    checks.record(outcomes[clean].clone());

    // The c10k structural claims. The idle mass must actually connect and
    // survive the active run, and the kernel path must hold both
    // zero-copy laws under it.
    checks.record(if c10k.idle_connected * 100 < c10k.idle_requested * 99 {
        Err(format!(
            "c10k: only {}/{} idle connections established",
            c10k.idle_connected, c10k.idle_requested
        ))
    } else if c10k.idle_survivors < c10k.idle_connected {
        Err(format!(
            "c10k: {} of {} idle connections died during the active run",
            c10k.idle_connected - c10k.idle_survivors,
            c10k.idle_connected
        ))
    } else {
        Ok(format!(
            "c10k held {} idle connections through the active run ({:.0} req/s active)",
            c10k.idle_survivors,
            c10k.active.requests_per_sec()
        ))
    });
    checks.record(if c10k.ingest_copies != 0 {
        Err(format!(
            "c10k: kernel path charged {} ingest copies (zero-copy law broken)",
            c10k.ingest_copies
        ))
    } else {
        Ok("c10k kernel path charged 0 ingest copies".to_string())
    });
    checks.record(if c10k.output_busy_retries != 0 {
        Err(format!(
            "c10k: output tasks busy-retried {} times (writable parking broken)",
            c10k.output_busy_retries
        ))
    } else {
        Ok("c10k output tasks performed 0 busy retries".to_string())
    });

    // Structural, beside the lb/sim gate: the TCP backend pool actually
    // spread requests over the kernel-socket back-ends.
    let lb_best = best_of(&lb, |pass| {
        ratio((pass.tcp.requests_per_sec(), pass.sim.requests_per_sec()))
    });
    let lb_backends_hit = backends_hit(&lb_best.backend_requests);
    checks.record(if lb_backends_hit < 2 {
        Err(format!(
            "all-TCP LB reached only {lb_backends_hit} TCP back-end(s): {:?}",
            lb_best.backend_requests
        ))
    } else {
        Ok(format!(
            "all-TCP LB spread requests over {lb_backends_hit} kernel-socket back-ends ({:?})",
            lb_best.backend_requests
        ))
    });

    // Structural, beside the hostile/clean gate: poison actually flowed
    // and was shed as malformed closes rather than answered.
    let hostile_best = best_of(&hostile, |pass| {
        ratio((
            pass.hostile.requests_per_sec(),
            pass.clean.requests_per_sec(),
        ))
    });
    checks.record(if hostile_best.hostile.malformed_sent == 0 {
        Err("hostile run sent no malformed frames (storm misconfigured)".to_string())
    } else if hostile_best.malformed_closes == 0 {
        Err(format!(
            "{} malformed frames sent but zero malformed closes recorded \
             (the parser stopped rejecting poison)",
            hostile_best.hostile.malformed_sent
        ))
    } else {
        Ok(format!(
            "hostile run shed poison as malformed closes ({} sent, {} closed)",
            hostile_best.hostile.malformed_sent, hostile_best.malformed_closes
        ))
    });
    // And clean traffic is never flagged, in any pass.
    let clean_closes: u64 = hostile.iter().map(|pass| pass.clean_malformed_closes).sum();
    checks.record(if clean_closes == 0 {
        Ok("clean run drew 0 malformed closes".to_string())
    } else {
        Err(format!("clean run drew {clean_closes} malformed closes"))
    });

    // Structural, beside the vm/interp gate: the path-hashed balancer in
    // VM mode actually served traffic end to end and spread it over the
    // kernel back-ends (its absolute rate is additionally under the 30%
    // floor through the `flick vm lb e2e` baseline row).
    let path_lb_backends_hit = backends_hit(&path_lb_backend_requests);
    checks.record(if path_lb_tcp.completed == 0 {
        Err("compiled VM-mode LB completed zero requests".to_string())
    } else if path_lb_backends_hit < 2 {
        Err(format!(
            "compiled VM-mode LB reached only {path_lb_backends_hit} TCP back-end(s): {:?}",
            path_lb_backend_requests
        ))
    } else {
        Ok(format!(
            "compiled VM-mode LB spread {} requests over {path_lb_backends_hit} \
             kernel-socket back-ends ({:?})",
            path_lb_tcp.completed, path_lb_backend_requests
        ))
    });
    let gates_passed = checks.passed;

    // Absolute baselines, 30% floor, for every throughput series.
    for expected in baseline.iter().filter(|row| guarded(row)) {
        let current = rows
            .iter()
            .find(|row| row.x == expected.x && row.series == expected.series);
        checks.record(match current {
            None => Err(format!(
                "series {:?} at x={} missing from current run",
                expected.series, expected.x
            )),
            Some(current) => {
                let floor = expected.value * REGRESSION_FLOOR;
                if current.value < floor {
                    Err(format!(
                        "{} @ x={} regressed: {:.0} {} < 70% of baseline {:.0} {}",
                        expected.series,
                        expected.x,
                        current.value,
                        current.unit,
                        expected.value,
                        expected.unit
                    ))
                } else {
                    Ok(format!(
                        "{} @ x={}: {:.0} {} (baseline {:.0}, floor {:.0})",
                        expected.series,
                        expected.x,
                        current.value,
                        current.unit,
                        expected.value,
                        floor
                    ))
                }
            }
        });
    }
    if !checks.failures.is_empty() {
        for failure in &checks.failures {
            eprintln!("REGRESSION: {failure}");
        }
        std::process::exit(1);
    }
    println!(
        "bench guard passed ({} absolute series + {gates_passed} ratio/structural gates checked)",
        checks.passed - gates_passed
    );
}
