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
    use flick_grammar::WireCodec;
    use flick_net::{SimNetwork, StackModel};
    use flick_runtime::{GraphFactory, Platform, PlatformConfig, ServiceSpec};
    use flick_workload::backends::start_sink_backend;
    use flick_workload::hadoop::{
        mapper_streams, run_hadoop_mappers, wait_for_quiescence, HadoopLoadConfig,
    };
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn aggregator_compiles_and_uses_foldt() {
        let svc = hadoop_aggregator(8);
        assert!(svc.program().process.foldt.is_some());
        assert_eq!(svc.connections_per_graph(), 8);
    }

    /// The reducer's bytes for `config`'s streams: one record per distinct
    /// word, carrying the word's total.
    fn aggregate_len(config: &HadoopLoadConfig) -> u64 {
        let codec = wire::HadoopKvCodec::new();
        let mut totals = std::collections::BTreeMap::<String, u64>::new();
        for stream in mapper_streams(config) {
            for record in wire::parse_batch(&codec, &stream).unwrap() {
                let word = record.str_field("key").unwrap().to_string();
                *totals.entry(word).or_default() += wire::count_of(&record).unwrap();
            }
        }
        let lens = totals
            .iter()
            .map(|(word, total)| wire::record_wire_len(word, &total.to_string()));
        lens.sum::<usize>() as u64
    }

    /// 32 distinct words, and then more distinct words than the reducer's
    /// channel holds (1024): the last mapper to end emits the aggregate
    /// through that channel, parked on it while it is full, and every
    /// record of it reaches the reducer.
    #[test]
    fn aggregator_combines_wordcounts_before_the_reducer() {
        for (port, distinct_words, bytes_per_mapper) in
            [(9700, 32, 64 * 1024), (9702, 2048, 256 * 1024)]
        {
            let net = SimNetwork::new(StackModel::Free);
            let (_reducer, reducer_bytes) = start_sink_backend(&net, port + 1);
            let platform = Platform::with_network(
                PlatformConfig {
                    workers: 4,
                    ..Default::default()
                },
                Arc::clone(&net),
            );
            let _svc = platform
                .deploy(
                    ServiceSpec::new("hadoop", port, hadoop_aggregator(2))
                        .with_backends(vec![port + 1]),
                )
                .unwrap();

            let config = HadoopLoadConfig {
                port,
                mappers: 2,
                word_len: 8,
                distinct_words,
                bytes_per_mapper,
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
            // The workload has a high reduction ratio, so the aggregated
            // stream must be much smaller than the mapper volume.
            assert!(
                forwarded < stats.bytes / 4,
                "expected in-network reduction: sent {} bytes, reducer got {forwarded}",
                stats.bytes
            );
            // An upper bound on the aggregated size: one record per
            // distinct word with a generous counter width.
            let widest = wire::record_wire_len("12345678", "99999999");
            assert!(forwarded <= (distinct_words * widest) as u64);
            assert_eq!(forwarded, aggregate_len(&config), "{distinct_words} words");
        }
    }

    /// A mapper whose stream turns malformed still ends its input in the
    /// fold: the connection is closed as malformed, what it sent before the
    /// bad frame is merged with the other mapper's records, the reducer
    /// gets the aggregate and the graph ends.
    #[test]
    fn a_malformed_mapper_still_ends_its_input_in_the_fold() {
        let net = SimNetwork::new(StackModel::Free);
        let reducer = net.listen(9721).unwrap();
        let platform = Platform::with_network(
            PlatformConfig {
                workers: 2,
                ..Default::default()
            },
            Arc::clone(&net),
        );
        let _svc = platform
            .deploy(
                ServiceSpec::new("hadoop", 9720, hadoop_aggregator(2)).with_backends(vec![9721]),
            )
            .unwrap();
        let codec = wire::HadoopKvCodec::new();
        let records = |counts: &[(&str, u64)]| {
            let mut stream = Vec::new();
            for (word, count) in counts {
                codec
                    .serialize(&wire::count_kv(word, *count), &mut stream)
                    .unwrap();
            }
            stream
        };
        let malformed = net.connect(9720).unwrap();
        let mut stream = records(&[("apple", 2), ("pear", 1)]);
        // A key length of 4 GiB: malformed, not a record to wait for.
        let mut bad = records(&[("fig", 1)]);
        bad[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        stream.extend_from_slice(&bad);
        malformed.write_all(&stream).unwrap();
        let clean = net.connect(9720).unwrap();
        clean
            .write_all(&records(&[("apple", 3), ("fig", 4)]))
            .unwrap();
        clean.close();

        let conn = reducer.accept_timeout(Duration::from_secs(5)).unwrap();
        let mut received = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match conn.read_timeout(&mut buf, Duration::from_secs(5)) {
                Ok(n) => received.extend_from_slice(&buf[..n]),
                Err(flick_net::NetError::Closed) => break,
                Err(e) => panic!("no EOF after {} bytes: {e}", received.len()),
            }
        }
        let aggregate: Vec<(String, u64)> = wire::parse_batch(&codec, &received)
            .unwrap()
            .iter()
            .map(|r| {
                (
                    r.str_field("key").unwrap().into(),
                    wire::count_of(r).unwrap(),
                )
            })
            .collect();
        let expected = [("apple", 5), ("fig", 4), ("pear", 1)].map(|(w, n)| (w.to_string(), n));
        assert_eq!(aggregate, expected);
        assert!(net.stats().snapshot().malformed_closes >= 1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while platform.metrics().snapshot().live_graphs() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the graph outlived its inputs"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
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
