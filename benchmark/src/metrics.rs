//! The metric registry: every name the benchmark prints, its unit, which way
//! is better and, for end-to-end metrics, the regression bound.
//! `BENCHMARK.json` at the repository root mirrors these tables; a unit test
//! keeps the two from drifting apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the middlebox sees. `ok_share` is 1 − (failed or wrong
/// ops ÷ attempted): the failure share turned around so that it is never 0.
/// The five time-based ones are corrected for the host's speed
/// (`hostprobe.rs`). The bounds are sized to the box the benchmark was
/// written on (README, "Results"): corrected, ten runs spread 2–9 % and
/// session medians differ by up to 12 %; each bound sits at about twice the
/// widest difference seen, capped at the 0.25 the driver allows.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mbytes_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sut_cpu_us_per_op",
        unit: "us/op",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "ok_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Single-layer metrics: `(name, unit, better)`. They carry no bound.
pub const PER_LAYER: [(&str, &str, Better); 44] = [
    ("net.read_calls_per_op", "1/op", Better::Lower),
    ("net.write_calls_per_op", "1/op", Better::Lower),
    ("net.vectored_writes_per_op", "1/op", Better::Higher),
    ("net.ingest_copied_bytes_per_op", "B/op", Better::Lower),
    ("net.conns_per_op", "1/op", Better::Lower),
    ("net.reactor_cpu_us_per_op", "us/op", Better::Lower),
    ("runtime.task_runs_per_op", "1/op", Better::Lower),
    ("runtime.values_per_op", "1/op", Better::Lower),
    ("runtime.scavenged_per_op", "1/op", Better::Lower),
    ("runtime.yields_per_op", "1/op", Better::Lower),
    ("runtime.graphs_per_op", "1/op", Better::Lower),
    ("runtime.backend_checkouts_per_op", "1/op", Better::Lower),
    ("runtime.backend_retries_per_op", "1/op", Better::Lower),
    ("runtime.worker_cpu_us_per_op", "us/op", Better::Lower),
    ("runtime.dispatch_cpu_us_per_op", "us/op", Better::Lower),
    ("runtime.sched_wake_us", "us", Better::Lower),
    ("grammar.msgs_in_per_op", "1/op", Better::Lower),
    ("grammar.http_parse_req_ns", "ns", Better::Lower),
    ("grammar.http_parse_resp_ns", "ns", Better::Lower),
    ("grammar.http_parse_bulk_ns", "ns", Better::Lower),
    ("grammar.http_serialize_ns", "ns", Better::Lower),
    ("grammar.hadoop_parse_ns", "ns", Better::Lower),
    ("grammar.hadoop_serialize_ns", "ns", Better::Lower),
    ("compiler.vm_route_ns", "ns", Better::Lower),
    ("compiler.vm_combine_ns", "ns", Better::Lower),
    ("compiler.compile_us", "us", Better::Lower),
    ("lang.frontend_us", "us", Better::Lower),
    ("services.web_rtt_us", "us", Better::Lower),
    ("load.bringup_ms", "ms", Better::Lower),
    ("load.direct_rtt_us", "us", Better::Lower),
    ("load.p99_us", "us", Better::Lower),
    ("load.p999_us", "us", Better::Lower),
    ("load.samples", "count", Better::Higher),
    ("load.host_slowdown", "ratio", Better::Lower),
    ("load.raw_ops_per_s", "1/s", Better::Higher),
    ("load.raw_p50_us", "us", Better::Lower),
    ("ledger.unexplained_us", "us", Better::Lower),
    ("trace.request_leg_us", "us", Better::Lower),
    ("trace.backend_us", "us", Better::Lower),
    ("trace.response_leg_us", "us", Better::Lower),
    ("trace.connect_us", "us", Better::Lower),
    ("trace.send_s", "s", Better::Lower),
    ("trace.drain_s", "s", Better::Lower),
    ("trace.overhead_share", "share", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name every metric with the unit, direction and
    /// bound this registry has, and nothing else.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let json: String = include_str!("../../BENCHMARK.json")
            .split_whitespace()
            .collect();
        let better = |b: Better| {
            if b == Better::Higher {
                "higher"
            } else {
                "lower"
            }
        };
        for m in &END_TO_END {
            let entry = format!(
                r#"{{"name":"{}","unit":"{}","better":"{}","bound":{}}}"#,
                m.name,
                m.unit,
                better(m.better),
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, b) in &PER_LAYER {
            let entry = format!(
                r#"{{"name":"{name}","unit":"{unit}","better":"{}"}}"#,
                better(*b)
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches(r#"{"name":"#).count();
        assert_eq!(listed, 4 + END_TO_END.len() + PER_LAYER.len());
    }
}
