//! CI bench guard: reduced headline experiments, judged only within the
//! run.
//!
//! Every check states a law of the platform and compares numbers measured
//! in the same run, so host speed cancels out and nothing is read from
//! disk. Throughput trends across changes are the repo benchmark's job
//! (`BENCHMARK.json`), not this binary's.
//!
//! * **Ratio gates**, each the best of its passes: the static web service
//!   on a real kernel socket against its simulated twin (`tcp/sim`), the
//!   all-TCP load balancer against its twin (`all-TCP lb/sim`) — each pair
//!   driven by one client fleet, the same program on both transports —
//!   goodput
//!   under a 10% malformed-frame storm against the clean run
//!   (`hostile/clean`), the bytecode VM against the tree-walking
//!   interpreter on per-message dispatch (`vm/interp`), and the light
//!   balancer's p90 alone against its p90 beside two streaming Hadoop
//!   aggregator jobs on the same two workers (`light p90 alone/beside
//!   aggregator`, the platform fairness law).
//! * **Structural checks** riding on those runs: the LB spreads requests
//!   over at least two kernel-socket back-ends, poison is shed as
//!   malformed closes, clean traffic draws none, and the aggregator
//!   finished at least one job beside the light service in every
//!   fairness pass.
//! * **The c10k point**: ten thousand idle kernel connections (clamped to
//!   the fd limit) connect and survive an active run, with zero ingest
//!   copies and zero output busy retries.
//!
//! Usage: `cargo run --release -p flick_bench --bin bench_guard`; exits
//! non-zero on any failed check.

use flick_bench::{
    run_exec_mode_dispatch_experiment, run_fairness_experiment, run_hostile_goodput_experiment,
    run_tcp_c10k_experiment, run_tcp_lb_experiment, run_tcp_loopback_experiment,
    ExecModeDispatchExperiment, FairnessExperiment, HttpPoint,
};
use flick_services::http::http_balancer;
use flick_workload::RunStats;

/// The tcp-vs-sim ratio floor: the service on a real kernel socket must
/// not fall below this fraction of its simulated twin (kernel cost model)
/// within the same run, both driven by the same client fleet. Loopback
/// measurements put the ratio around 0.9–1.0 (DESIGN.md §10); the floor
/// leaves generous headroom for loaded CI hosts while
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

/// The platform fairness floor (§5, Figure 7's claim on the platform):
/// the light balancer's p90 alone over its p90 beside two aggregator
/// jobs, within the run, must reach this — the neighbour may slow the
/// light service's p90 by at most 1/0.15 ≈ 6.7×. Set from 20 runs of
/// this binary on 2 vCPUs with a scheduler that queues every wake, as
/// this one does, whose gated (best-of-three) ratios were 0.26 0.34 0.27
/// 0.27 0.31 0.28 0.28 0.31 0.28 0.29 0.33 0.29 0.32 0.28 0.43 0.32 0.26
/// 0.25 0.29 0.29 (min 0.25, median 0.29); a build that ran the last task
/// a run woke next on the same worker (a LIFO slot), interleaved with
/// them, read 0.26–0.36. Tasks that ignore the timeslice
/// (`TaskContext::can_continue` always `true`) read 0.008–0.010 per pass
/// with either scheduler: the light p90 beside the jobs climbs to
/// 25–56 ms. The floor sits at 0.6 of the healthy minimum and 15× above
/// that.
const FAIRNESS_P90_RATIO_FLOOR: f64 = 0.15;

/// The pass with the highest `score`. Every gate takes the best of its
/// passes, so a single noisy interval on a loaded CI host cannot fail it.
fn best_of<T>(passes: impl IntoIterator<Item = T>, score: impl Fn(&T) -> f64) -> T {
    passes
        .into_iter()
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("at least one pass")
}

fn ratio((numerator, denominator): (f64, f64)) -> f64 {
    numerator / denominator.max(1e-9)
}

/// One ratio gate: within this run, the numerator of `name` over its
/// denominator must reach `floor`.
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

/// The outcome of every check of this run.
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

fn main() {
    // The hostile-goodput point: the fig4 LB shape (32 persistent clients
    // for 400 ms against 4 workers and 4 back-ends), measured clean and
    // then under a 10% malformed-frame storm (two passes — door-slam
    // shedding on a loaded host is noisy).
    let hostile_params = HttpPoint {
        concurrency: 32,
        ..Default::default()
    };
    let hostile = [
        run_hostile_goodput_experiment(&hostile_params, HOSTILE_SHARE),
        run_hostile_goodput_experiment(&hostile_params, HOSTILE_SHARE),
    ];
    // The e2e loopback TCP point: one closed-loop fleet against the web
    // service on a kernel socket, then against its simulated twin; two
    // passes (real sockets on a loaded CI host are noisier than the
    // simulated substrate).
    let tcp_params = HttpPoint {
        shards: 1,
        ..Default::default()
    };
    let tcp = [
        run_tcp_loopback_experiment(&tcp_params),
        run_tcp_loopback_experiment(&tcp_params),
    ];
    // The all-TCP LB point (kernel client → LB → kernel backend): 16
    // clients for 400 ms against 4 workers and 4 back-ends, two passes
    // like the loopback point.
    let lb_params = HttpPoint::default();
    let lb = [
        run_tcp_lb_experiment(http_balancer(), &lb_params),
        run_tcp_lb_experiment(http_balancer(), &lb_params),
    ];
    // The execution-engine dispatch ablation: the tree-walking
    // interpreter vs the bytecode VM on per-message dispatch of the same
    // lowered program, three passes.
    let dispatch_params = ExecModeDispatchExperiment::default();
    let dispatch: [_; 3] =
        std::array::from_fn(|_| run_exec_mode_dispatch_experiment(&dispatch_params));
    // The c10k idle+active point: thousands of idle kernel connections
    // pinned against the reactor while a small closed loop runs. One pass:
    // its checks are structural.
    let c10k_params = HttpPoint {
        concurrency: 8,
        workers: 2,
        shards: 1,
        ..Default::default()
    };
    let c10k = run_tcp_c10k_experiment(&c10k_params, 10_000);
    // The platform fairness point: the light balancer alone, then beside
    // two aggregator jobs streaming on the same two workers; three passes
    // (its p90 on a loaded host is the noisiest number here).
    let fairness_params = FairnessExperiment::default();
    let fairness: [_; 3] = std::array::from_fn(|_| run_fairness_experiment(&fairness_params));

    let mut checks = Checks::default();
    let gates = [
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
        Gate {
            name: "light p90 alone/beside aggregator",
            lost: "the aggregator starved the light service",
            floor: FAIRNESS_P90_RATIO_FLOOR,
            strict: false,
            passes: fairness
                .iter()
                .map(|pass| {
                    let p90_us = |stats: &RunStats| stats.latency.p90.as_secs_f64() * 1e6;
                    (p90_us(&pass.alone), p90_us(&pass.shared))
                })
                .collect(),
        },
    ];
    for gate in &gates {
        checks.record(gate.check());
    }

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
    let lb_backends_hit = lb_best
        .backend_requests
        .iter()
        .filter(|served| **served > 0)
        .count();
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

    // Structural, beside the fairness gate: the neighbour really streamed
    // in every pass, or the gate would compare the light service with
    // itself.
    let jobs: Vec<u64> = fairness.iter().map(|pass| pass.jobs).collect();
    checks.record(if jobs.contains(&0) {
        Err(format!(
            "fairness point: the aggregator finished no job beside the light service ({jobs:?} per pass)"
        ))
    } else {
        Ok(format!(
            "the aggregator finished {jobs:?} jobs beside the light service"
        ))
    });

    if !checks.failures.is_empty() {
        for failure in &checks.failures {
            eprintln!("FAILED: {failure}");
        }
        std::process::exit(1);
    }
    println!("bench guard passed ({} checks)", checks.passed);
}
