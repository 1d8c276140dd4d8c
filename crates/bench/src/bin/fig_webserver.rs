//! Regenerates the static web-server results of §6.3 (throughput for an
//! increasing number of concurrent connections, persistent and
//! non-persistent), comparing FLICK (kernel and mTCP cost models) against
//! the Apache-like and Nginx-like baselines.
//!
//! Paper reference points (16-core testbed): peak ~306 krps (FLICK kernel),
//! ~380 krps (FLICK mTCP), ~159 krps (Apache), ~217 krps (Nginx) with
//! persistent connections; ~45/193/35/44 krps non-persistent.
//!
//! `--tcp` switches to the OS transport: the same static web service is
//! deployed on a real loopback socket (`Platform::deploy_tcp`) next to its
//! simulated twin, both driven by the same closed-loop client fleet, and
//! the table reports both series plus the tcp/sim ratio per concurrency.

use flick_bench::{print_table, Row};
use flick_bench::{run_http_experiment, run_tcp_loopback_experiment, HttpPoint, HttpSystem};
use std::time::Duration;

/// The `--tcp` mode: real kernel sockets versus the simulated kernel cost
/// model, same platform, increasing client fleets. `--shards N` runs the
/// kernel path sharded: one epoll set and one `SO_REUSEPORT` accept
/// socket per shard.
fn run_tcp_mode(shards: usize) {
    let mut rows = Vec::new();
    for concurrency in [4usize, 16, 32] {
        let result = run_tcp_loopback_experiment(&HttpPoint {
            concurrency,
            duration: Duration::from_millis(500),
            workers: 4,
            shards,
            ..Default::default()
        });
        rows.push(Row::new(
            concurrency,
            "FLICK tcp",
            result.tcp.requests_per_sec(),
            "req/s",
        ));
        rows.push(Row::new(
            concurrency,
            "FLICK tcp latency",
            result.tcp.latency.mean.as_secs_f64() * 1000.0,
            "ms",
        ));
        rows.push(Row::new(
            concurrency,
            "FLICK sim",
            result.sim.requests_per_sec(),
            "req/s",
        ));
        rows.push(Row::new(
            concurrency,
            "tcp/sim ratio",
            result.tcp.requests_per_sec() / result.sim.requests_per_sec().max(1e-9),
            "x",
        ));
    }
    print_table(
        "Static web server over real loopback TCP vs the simulated substrate",
        &rows,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--tcp") {
        let shards = args
            .iter()
            .position(|a| a == "--shards")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        run_tcp_mode(shards);
        return;
    }
    let concurrencies = [16usize, 32, 64, 128];
    for persistent in [true, false] {
        let mut rows = Vec::new();
        for &concurrency in &concurrencies {
            for system in HttpSystem::all() {
                let params = HttpPoint {
                    concurrency,
                    persistent,
                    duration: Duration::from_millis(700),
                    workers: 4,
                    backends: 0,
                    ..Default::default()
                };
                let stats = run_http_experiment(system, &params);
                rows.push(Row::new(
                    concurrency,
                    system.label(),
                    stats.requests_per_sec(),
                    "req/s",
                ));
                rows.push(Row::new(
                    concurrency,
                    format!("{} latency", system.label()),
                    stats.latency.mean.as_secs_f64() * 1000.0,
                    "ms",
                ));
            }
        }
        let mode = if persistent {
            "persistent"
        } else {
            "non-persistent"
        };
        print_table(
            &format!("Static web server, {mode} connections (paper §6.3)"),
            &rows,
        );
    }
}
