//! Regenerates Figure 4: HTTP load balancer throughput and mean latency for
//! an increasing number of concurrent clients, with persistent (4a/4b) and
//! non-persistent (4c/4d) connections.
//!
//! Paper shape: with persistent connections FLICK beats Nginx (~1.4x) and
//! Apache (~2.2x), and FLICK mTCP more still; with non-persistent
//! connections FLICK (kernel) drops below Apache/Nginx while FLICK mTCP is
//! the fastest of all.

use flick_bench::{print_table, run_http_experiment, HttpPoint, HttpSystem, Row};
use std::time::Duration;

fn main() {
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
                    backends: 4,
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
        let fig = if persistent {
            "Figure 4a/4b (persistent)"
        } else {
            "Figure 4c/4d (non-persistent)"
        };
        print_table(&format!("HTTP load balancer — {fig}"), &rows);
    }
}
