//! Hadoop mapper workload: wordcount intermediate key/value streams.
//!
//! §6.2 of the paper: the workload is a wordcount job with a high data
//! reduction ratio; the datasets consist of words of 8, 12 and 16
//! characters; each of the 8 mappers is connected over a 1 Gbps link. The
//! mapper fleet below generates that traffic shape: each mapper thread
//! streams length-prefixed `kv` records (word → count) over its own
//! rate-limited connection until the configured volume has been sent.

use crate::fabric::Fabric;
use crate::metrics::RunStats;
use flick_grammar::hadoop;
use flick_grammar::WireCodec;
use flick_net::listener::ConnectOptions;
use flick_net::SimRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one Hadoop mapper run.
#[derive(Debug, Clone)]
pub struct HadoopLoadConfig {
    /// Port of the in-network aggregator.
    pub port: u16,
    /// Number of mapper connections (the paper uses 8).
    pub mappers: usize,
    /// Word length in characters (8, 12 or 16 in the paper).
    pub word_len: usize,
    /// Number of distinct words (controls the reduction ratio).
    pub distinct_words: usize,
    /// Bytes each mapper sends.
    pub bytes_per_mapper: usize,
    /// Link rate per mapper in bits per second (1 Gbps in the paper); `None`
    /// disables rate limiting.
    pub link_bits_per_sec: Option<u64>,
    /// Seed for the dictionary and the mappers' word/count draws. `None`
    /// keeps the historic streams (dictionary seed 42, mapper seeds
    /// `1000 + index`); the simulation harness sets it so one scenario seed
    /// derives every random choice in the run.
    pub seed: Option<u64>,
}

impl Default for HadoopLoadConfig {
    fn default() -> Self {
        HadoopLoadConfig {
            port: 9600,
            mappers: 8,
            word_len: 8,
            distinct_words: 64,
            bytes_per_mapper: 256 * 1024,
            link_bits_per_sec: Some(1_000_000_000),
            seed: None,
        }
    }
}

/// Generates the dictionary of words used by the mappers with the historic
/// fixed seed, so existing callers (and benchmark baselines) see the exact
/// same words as before.
pub fn word_dictionary(word_len: usize, distinct_words: usize) -> Vec<String> {
    word_dictionary_seeded(42, word_len, distinct_words)
}

/// Generates a word dictionary from an explicit seed.
pub fn word_dictionary_seeded(seed: u64, word_len: usize, distinct_words: usize) -> Vec<String> {
    let mut rng = SimRng::new(seed);
    (0..distinct_words.max(1))
        .map(|i| {
            let mut word = format!("w{i}-");
            while word.len() < word_len {
                word.push((b'a' + rng.gen_range(0..26)) as char);
            }
            word.truncate(word_len.max(1));
            word
        })
        .collect()
}

/// Runs the mapper fleet on `fabric` and reports the aggregate sending
/// statistics: one job of [`mapper_streams`] through [`run_hadoop_job`].
///
/// The run finishes when every mapper has pushed its configured volume and
/// closed its connection, so the caller can then wait for the aggregator to
/// drain and forward the combined stream.
pub fn run_hadoop_mappers(fabric: impl Into<Fabric>, config: &HadoopLoadConfig) -> RunStats {
    run_hadoop_job(fabric, config, &mapper_streams(config))
}

/// The mappers' dictionary: the historic one, or one drawn from the
/// configured seed.
fn dictionary(config: &HadoopLoadConfig) -> Vec<String> {
    match config.seed {
        Some(seed) => word_dictionary_seeded(
            SimRng::new(seed).fork("hadoop-dict").seed(),
            config.word_len,
            config.distinct_words,
        ),
        None => word_dictionary(config.word_len, config.distinct_words),
    }
}

/// Mapper `mapper`'s word/count draws.
fn mapper_rng(config: &HadoopLoadConfig, mapper: usize) -> SimRng {
    match config.seed {
        Some(seed) => SimRng::new(seed).fork_indexed(mapper as u64),
        None => SimRng::new(1000 + mapper as u64),
    }
}

/// Each mapper's whole record stream for one job, built up front, so a
/// job spends its mapper threads on writes alone.
pub fn mapper_streams(config: &HadoopLoadConfig) -> Vec<Vec<u8>> {
    let codec = hadoop::HadoopKvCodec::new();
    let words = dictionary(config);
    (0..config.mappers)
        .map(|mapper| {
            let mut rng = mapper_rng(config, mapper);
            let mut stream = Vec::with_capacity(config.bytes_per_mapper + 64);
            while stream.len() < config.bytes_per_mapper {
                let word = &words[rng.gen_range(0..words.len())];
                let record = hadoop::count_kv(word, rng.gen_range(1..100));
                if codec.serialize(&record, &mut stream).is_err() {
                    break;
                }
            }
            stream
        })
        .collect()
}

/// Runs one job on `fabric`: one mapper thread per stream connects to
/// `config.port` over a link of `config.link_bits_per_sec`, writes its
/// stream and closes. Returns once every mapper has closed: `completed`
/// counts the records of the streams sent whole, `failed` the mappers
/// that could not connect or write.
pub fn run_hadoop_job(
    fabric: impl Into<Fabric>,
    config: &HadoopLoadConfig,
    streams: &[Vec<u8>],
) -> RunStats {
    let fabric = fabric.into();
    let options = ConnectOptions {
        link_bits_per_sec: config.link_bits_per_sec,
        capacity: Some(512 * 1024),
    };
    let start = Instant::now();
    let sent: Vec<Option<&Vec<u8>>> = std::thread::scope(|scope| {
        let mappers: Vec<_> = streams
            .iter()
            .map(|stream| {
                let (fabric, options) = (&fabric, &options);
                scope.spawn(move || {
                    let conn = fabric.connect_with(config.port, options).ok()?;
                    let sent = conn.write_all(stream);
                    conn.close();
                    sent.ok().map(|()| stream)
                })
            })
            .collect();
        mappers
            .into_iter()
            .map(|mapper| mapper.join().expect("mapper thread panicked"))
            .collect()
    });
    let whole = sent.iter().flatten();
    RunStats {
        completed: whole.clone().map(|stream| records(stream)).sum(),
        failed: sent.iter().filter(|stream| stream.is_none()).count() as u64,
        elapsed: start.elapsed(),
        latency: Default::default(),
        bytes: whole.map(|stream| stream.len() as u64).sum(),
        malformed_sent: 0,
    }
}

/// The records of one mapper's stream: each is `key_len` and `value_len`
/// (32-bit big-endian), then the key and the value.
fn records(mut stream: &[u8]) -> u64 {
    let mut count = 0;
    while stream.len() >= 8 {
        let len = |at: usize| u32::from_be_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
        stream = &stream[8 + len(0) + len(4)..];
        count += 1;
    }
    count
}

/// Waits until the observed byte counter stops growing (the aggregated
/// stream has fully arrived at the reducer) or the timeout expires. Returns
/// the final value.
pub fn wait_for_quiescence(counter: &Arc<AtomicU64>, timeout: Duration) -> u64 {
    let deadline = Instant::now() + timeout;
    let mut last = counter.load(Ordering::Relaxed);
    let mut stable_since = Instant::now();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        let now = counter.load(Ordering::Relaxed);
        if now != last {
            last = now;
            stable_since = Instant::now();
        } else if stable_since.elapsed() > Duration::from_millis(100) && now > 0 {
            break;
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::start_sink_backend;
    use flick_net::{SimNetwork, StackModel};

    #[test]
    fn word_dictionary_has_requested_shape() {
        let words = word_dictionary(12, 10);
        assert_eq!(words.len(), 10);
        assert!(words.iter().all(|w| w.len() == 12));
        assert_eq!(
            words,
            word_dictionary(12, 10),
            "dictionary must be deterministic"
        );
    }

    #[test]
    fn mappers_stream_records_to_a_sink() {
        let net = SimNetwork::new(StackModel::Free);
        let (_sink, bytes) = start_sink_backend(&net, 9601);
        let config = HadoopLoadConfig {
            port: 9601,
            mappers: 2,
            word_len: 8,
            distinct_words: 16,
            bytes_per_mapper: 64 * 1024,
            link_bits_per_sec: None,
            seed: None,
        };
        let stats = run_hadoop_mappers(&net, &config);
        assert_eq!(stats.failed, 0);
        assert!(stats.bytes >= 2 * 64 * 1024 - 1024, "sent {}", stats.bytes);
        let received = wait_for_quiescence(&bytes, Duration::from_secs(5));
        assert!(
            received >= stats.bytes,
            "sink received {received} of {}",
            stats.bytes
        );
    }

    #[test]
    fn rate_limited_mappers_are_slower() {
        let net = SimNetwork::new(StackModel::Free);
        let (_sink, _bytes) = start_sink_backend(&net, 9602);
        let config = HadoopLoadConfig {
            port: 9602,
            mappers: 1,
            word_len: 8,
            distinct_words: 16,
            bytes_per_mapper: 192 * 1024,
            // 8 Mbit/s with a 64 KiB burst: 192 kB should take well over 100 ms.
            link_bits_per_sec: Some(8_000_000),
            seed: None,
        };
        let start = Instant::now();
        let stats = run_hadoop_mappers(&net, &config);
        assert_eq!(stats.failed, 0);
        assert!(
            start.elapsed() > Duration::from_millis(80),
            "took {:?}",
            start.elapsed()
        );
    }
}
