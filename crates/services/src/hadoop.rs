//! The Hadoop in-network data aggregator (Listing 3 / Figure 3c).
//!
//! The aggregator implements the combiner function of a wordcount job: it
//! receives the intermediate key/value streams of the mappers, merges them
//! (summing the per-word counters) and forwards the aggregated stream to the
//! reducer, reducing the traffic that crosses the network.

use flick_compiler::{compile_source, CompileOptions, CompiledService};
use std::sync::Arc;

/// Listing 3: the Hadoop data aggregator program. The combine function sums
/// the two counters, which is the wordcount combiner.
pub const HADOOP_AGGREGATOR_FLICK_SOURCE: &str = r#"
type kv: record
  key : string
  value : string

proc hadoop: ([kv/-] mappers, -/kv reducer):
  if all_ready(mappers):
    let result = foldt on mappers ordering elem e1, e2 by elem.key as e_key:
      let v = combine(e1.value, e2.value)
      kv(e_key, v)
    result => reducer

fun combine: (v1: string, v2: string) -> (string)
  str(int(v1) + int(v2))
"#;

/// Compiles the Hadoop aggregator for the given number of mapper
/// connections (the paper deploys 8 mappers and one task graph per reducer).
pub fn hadoop_aggregator(mappers: usize) -> Arc<CompiledService> {
    let options = CompileOptions::default().with_client_connections(mappers);
    compile_source(HADOOP_AGGREGATOR_FLICK_SOURCE, "hadoop", &options)
        .expect("the embedded Listing 3 program compiles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_grammar::hadoop as wire;
    use flick_net::{SimNetwork, StackModel};
    use flick_runtime::{GraphFactory, Platform, PlatformConfig, ServiceSpec};
    use flick_workload::backends::start_sink_backend;
    use flick_workload::hadoop::{run_hadoop_mappers, wait_for_quiescence, HadoopLoadConfig};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn aggregator_compiles_and_uses_foldt() {
        let svc = hadoop_aggregator(8);
        assert!(svc.program().process.foldt.is_some());
        assert_eq!(svc.connections_per_graph(), 8);
    }

    #[test]
    fn aggregator_combines_wordcounts_before_the_reducer() {
        let net = SimNetwork::new(StackModel::Free);
        let (_reducer, reducer_bytes) = start_sink_backend(&net, 9701);
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 4,
                ..Default::default()
            },
            Arc::clone(&net),
        );
        let _svc = platform
            .deploy(
                ServiceSpec::new("hadoop", 9700, hadoop_aggregator(2)).with_backends(vec![9701]),
            )
            .unwrap();

        let config = HadoopLoadConfig {
            port: 9700,
            mappers: 2,
            word_len: 8,
            distinct_words: 32,
            bytes_per_mapper: 64 * 1024,
            link_bits_per_sec: None,
            seed: None,
        };
        let stats = run_hadoop_mappers(&net, &config);
        assert_eq!(stats.failed, 0);
        let forwarded = wait_for_quiescence(&reducer_bytes, Duration::from_secs(10));
        assert!(
            forwarded > 0,
            "the reducer must receive the aggregated stream"
        );
        // The workload has a high reduction ratio (32 distinct words), so the
        // aggregated stream must be much smaller than the mapper volume.
        assert!(
            forwarded < stats.bytes / 4,
            "expected in-network reduction: sent {} bytes, reducer got {forwarded}",
            stats.bytes
        );
        // An upper bound on the aggregated size: one record per distinct word
        // with a generous counter width.
        assert!(forwarded <= (32 * wire::record_wire_len("12345678", "99999999")) as u64);
    }

    /// The reducer connection is never handed back for reuse — the kv
    /// codec does not say keep-alive — so every job ends with EOF at the
    /// reducer, and the next job gets a connection of its own.
    #[test]
    fn every_job_ends_with_eof_at_the_reducer() {
        let net = SimNetwork::new(StackModel::Free);
        let reducer = net.listen(9711).unwrap();
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                ..Default::default()
            },
            Arc::clone(&net),
        );
        let _svc = platform
            .deploy(
                ServiceSpec::new("hadoop", 9710, hadoop_aggregator(2)).with_backends(vec![9711]),
            )
            .unwrap();
        let config = HadoopLoadConfig {
            port: 9710,
            mappers: 2,
            word_len: 8,
            distinct_words: 8,
            bytes_per_mapper: 4 * 1024,
            link_bits_per_sec: None,
            seed: None,
        };
        let mut connections = Vec::new();
        for job in 0..2 {
            assert_eq!(run_hadoop_mappers(&net, &config).failed, 0);
            let conn = reducer.accept_timeout(Duration::from_secs(5)).unwrap();
            let mut received = 0;
            let mut buf = [0u8; 4096];
            loop {
                match conn.read_timeout(&mut buf, Duration::from_secs(5)) {
                    Ok(n) => received += n,
                    Err(flick_net::NetError::Closed) => break,
                    Err(e) => panic!("job {job}: no EOF after {received} bytes: {e}"),
                }
            }
            assert!(received > 0, "job {job}: an empty aggregate");
            connections.push(conn.id());
        }
        assert_ne!(connections[0], connections[1]);
    }
}
