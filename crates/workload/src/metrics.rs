//! Throughput and latency measurement.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Collects per-request latencies from many client threads.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Arc<Mutex<Vec<u64>>>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one request latency.
    pub fn record(&self, latency: Duration) {
        self.samples.lock().push(latency.as_nanos() as u64);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.lock().len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.lock().is_empty()
    }

    /// Computes summary statistics over the recorded samples.
    pub fn stats(&self) -> LatencyStats {
        let mut samples = self.samples.lock().clone();
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let count = samples.len();
        let sum: u128 = samples.iter().map(|s| *s as u128).sum();
        let pct = |p: f64| -> Duration {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            Duration::from_nanos(samples[idx.min(count - 1)])
        };
        LatencyStats {
            count,
            mean: Duration::from_nanos((sum / count as u128) as u64),
            p50: pct(0.50),
            p90: pct(0.90),
            p95: pct(0.95),
            p99: pct(0.99),
            max: Duration::from_nanos(*samples.last().expect("non-empty")),
        }
    }
}

/// Summary latency statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean latency.
    pub mean: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum observed latency.
    pub max: Duration,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Requests (or records) completed.
    pub completed: u64,
    /// Requests that failed (timed out or hit a closed connection).
    pub failed: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Latency summary over completed requests.
    pub latency: LatencyStats,
    /// Payload bytes moved (used for throughput-oriented runs).
    pub bytes: u64,
    /// Deliberately malformed frames sent (hostile-traffic runs). These
    /// count in neither `completed` nor `failed`: the server closing the
    /// poisoned connection is the expected outcome, not a request result.
    pub malformed_sent: u64,
}

impl RunStats {
    /// Requests per second over the run.
    pub fn requests_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Throughput in megabits per second over the run.
    pub fn megabits_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.bytes as f64 * 8.0 / 1_000_000.0 / self.elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_are_ordered() {
        let rec = LatencyRecorder::new();
        for i in 1..=100u64 {
            rec.record(Duration::from_micros(i));
        }
        let stats = rec.stats();
        assert_eq!(stats.count, 100);
        assert!(stats.p50 <= stats.p90);
        assert!(stats.p90 <= stats.p95);
        assert!(stats.p95 <= stats.p99);
        assert!(stats.p99 <= stats.max);
        assert_eq!(stats.max, Duration::from_micros(100));
        assert!(stats.mean >= Duration::from_micros(45) && stats.mean <= Duration::from_micros(55));
    }

    #[test]
    fn empty_recorder_yields_default_stats() {
        let rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.stats(), LatencyStats::default());
    }

    #[test]
    fn run_stats_rates() {
        let stats = RunStats {
            completed: 1000,
            failed: 0,
            elapsed: Duration::from_secs(2),
            latency: LatencyStats::default(),
            bytes: 2_000_000,
            malformed_sent: 0,
        };
        assert!((stats.requests_per_sec() - 500.0).abs() < 1e-9);
        assert!((stats.megabits_per_sec() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_is_shared_between_clones() {
        let rec = LatencyRecorder::new();
        let rec2 = rec.clone();
        rec.record(Duration::from_millis(1));
        rec2.record(Duration::from_millis(2));
        assert_eq!(rec.len(), 2);
    }
}
