//! Hadoop mapper workload: wordcount intermediate key/value streams.
//!
//! §6.2 of the paper: the workload is a wordcount job with a high data
//! reduction ratio; the datasets consist of words of 8, 12 and 16
//! characters; each of the 8 mappers is connected over a 1 Gbps link. The
//! mapper fleet below generates that traffic shape: each mapper thread
//! streams length-prefixed `kv` records (word → count) over its own
//! rate-limited connection until the configured volume has been sent.

use crate::metrics::RunStats;
use flick_grammar::hadoop;
use flick_grammar::WireCodec;
use flick_net::listener::ConnectOptions;
use flick_net::{SimNetwork, SimRng};
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

/// Runs the mapper fleet and reports the aggregate sending statistics.
///
/// The run finishes when every mapper has pushed its configured volume and
/// closed its connection, so the caller can then wait for the aggregator to
/// drain and forward the combined stream.
pub fn run_hadoop_mappers(net: &Arc<SimNetwork>, config: &HadoopLoadConfig) -> RunStats {
    let codec = hadoop::HadoopKvCodec::new();
    let words = dictionary(config);
    let sent_bytes = Arc::new(AtomicU64::new(0));
    let sent_records = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for mapper in 0..config.mappers {
        let net = Arc::clone(net);
        let config = config.clone();
        let words = words.clone();
        let codec = codec.clone();
        let sent_bytes = Arc::clone(&sent_bytes);
        let sent_records = Arc::clone(&sent_records);
        let failed = Arc::clone(&failed);
        handles.push(std::thread::spawn(move || {
            let options = ConnectOptions {
                link_bits_per_sec: config.link_bits_per_sec,
                capacity: Some(512 * 1024),
            };
            let Ok(conn) = net.connect_with(config.port, &options) else {
                failed.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let mut rng = mapper_rng(&config, mapper);
            let mut sent = 0usize;
            let mut batch = Vec::with_capacity(32 * 1024);
            while sent < config.bytes_per_mapper {
                batch.clear();
                let records = fill_batch(
                    &codec,
                    &words,
                    &mut rng,
                    &mut batch,
                    config.bytes_per_mapper - sent,
                );
                sent_records.fetch_add(records, Ordering::Relaxed);
                if conn.write_all(&batch).is_err() {
                    failed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                sent += batch.len();
            }
            sent_bytes.fetch_add(sent as u64, Ordering::Relaxed);
            conn.close();
        }));
    }
    for handle in handles {
        let _ = handle.join();
    }
    RunStats {
        completed: sent_records.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        latency: Default::default(),
        bytes: sent_bytes.load(Ordering::Relaxed),
        malformed_sent: 0,
    }
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

/// Appends records to `batch` until it holds 16 KiB or would exceed
/// `budget` bytes; returns the records appended.
fn fill_batch(
    codec: &hadoop::HadoopKvCodec,
    words: &[String],
    rng: &mut SimRng,
    batch: &mut Vec<u8>,
    budget: usize,
) -> u64 {
    let mut records = 0;
    while batch.len() < 16 * 1024 && batch.len() < budget {
        let word = &words[rng.gen_range(0..words.len())];
        let record = hadoop::count_kv(word, rng.gen_range(1..100));
        if codec.serialize(&record, batch).is_err() {
            break;
        }
        records += 1;
    }
    records
}

/// Each mapper's whole record stream for one job, built up front: the
/// bytes [`run_hadoop_mappers`] would send under `config`, so a job over
/// kernel sockets spends its mapper threads on writes alone.
pub fn mapper_streams(config: &HadoopLoadConfig) -> Vec<Vec<u8>> {
    let codec = hadoop::HadoopKvCodec::new();
    let words = dictionary(config);
    (0..config.mappers)
        .map(|mapper| {
            let mut rng = mapper_rng(config, mapper);
            let mut stream = Vec::with_capacity(config.bytes_per_mapper + 64);
            let mut batch = Vec::with_capacity(16 * 1024 + 64);
            while stream.len() < config.bytes_per_mapper {
                batch.clear();
                let budget = config.bytes_per_mapper - stream.len();
                if fill_batch(&codec, &words, &mut rng, &mut batch, budget) == 0 {
                    break;
                }
                stream.extend_from_slice(&batch);
            }
            stream
        })
        .collect()
}

/// Runs one job over kernel sockets: one mapper thread per stream
/// connects to `addr`, writes its stream and closes. Returns once every
/// mapper has closed; `failed` counts mappers that could not connect or
/// write.
pub fn run_tcp_hadoop_job(addr: &str, streams: &[Vec<u8>]) -> RunStats {
    let start = Instant::now();
    let outcomes: Vec<std::io::Result<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut conn = std::net::TcpStream::connect(addr)?;
                    conn.set_nodelay(true)?;
                    std::io::Write::write_all(&mut conn, stream)?;
                    Ok(stream.len())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mapper thread panicked"))
            .collect()
    });
    RunStats {
        completed: outcomes.iter().filter(|o| o.is_ok()).count() as u64,
        failed: outcomes.iter().filter(|o| o.is_err()).count() as u64,
        elapsed: start.elapsed(),
        latency: Default::default(),
        bytes: outcomes.iter().flatten().map(|n| *n as u64).sum(),
        malformed_sent: 0,
    }
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
    use flick_net::StackModel;

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
