//! The host-speed probe: what steadies the time-based end-to-end metrics on
//! a shared host.
//!
//! The benchmark runs in a small VM whose neighbours change the speed of its
//! memory system for a minute or two at a time: with no steal time showing,
//! the same binary runs every workload 15–25 % slower, kernel-heavy work
//! most. Nothing measured inside one 20-s run can average that away, so the
//! round measures it instead. On a fixed schedule — the last `PROBE_NS` of
//! every `PERIOD_NS` — the generator threads stop sending and chase pointers
//! through a 16 MiB random cycle, a load that depends on nothing but memory
//! latency and shares no code with the system under test. The round's
//! `load.host_slowdown` is the median cost of a step over `NOMINAL_STEP_NS`,
//! and every time-based end-to-end metric is reported as it would read on a
//! host of nominal speed (rates × slowdown, times ÷ slowdown). In the
//! sessions run while choosing the probe this usually halved the spread of
//! a metric across rounds and widened one, once (README, "Host-speed
//! correction"). The raw readings stay in the per-layer
//! list as `load.raw_ops_per_s` and `load.raw_p50_us`.

use crate::util::{median, now_ns, Rng};
use std::thread;

/// The schedule every generator thread follows, on the process clock.
pub const PERIOD_NS: u64 = 100_000_000;
/// The tail of each period spent probing instead of sending.
pub const PROBE_NS: u64 = 20_000_000;
/// A step of the chase on this box on a quiet afternoon, both cores chasing.
/// Only a scale: it makes corrected values read like raw ones on a good day.
pub const NOMINAL_STEP_NS: f64 = 160.0;

/// Entries of the cycle: 4 Mi × 4 bytes = 16 MiB, past the L2 and a good
/// part of the shared L3, so a step is a last-level-cache or DRAM access.
const ENTRIES: usize = 4 << 20;
/// Steps timed as one sample (~0.2 ms).
const CHUNK: usize = 2000;

/// One random cycle over `ENTRIES` slots (Sattolo's shuffle): every step
/// depends on the one before, so neither the prefetcher nor out-of-order
/// execution can hide the latency.
pub struct Chase {
    next: Vec<u32>,
}

impl Chase {
    /// Bytes the cycle adds to the process's resident set; `rss_mb` is
    /// reported without them.
    pub const BYTES: usize = ENTRIES * 4;

    pub fn new() -> Chase {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut rng = Rng::new(0x5eed_c4a5e);
        for i in (1..ENTRIES).rev() {
            next.swap(i, rng.below(i));
        }
        Chase { next }
    }

    /// Where thread `index` of `threads` starts on the cycle.
    pub fn start(index: usize, threads: usize) -> usize {
        index * (ENTRIES / threads.max(1))
    }

    /// Chases from `*at` until the clock reads `until_ns`, recording the
    /// nanoseconds per step of each chunk.
    pub fn run(&self, at: &mut usize, until_ns: u64, samples: &mut Vec<f32>) {
        let mut t0 = now_ns();
        while t0 < until_ns {
            let mut i = *at;
            for _ in 0..CHUNK {
                i = self.next[i] as usize;
            }
            *at = i;
            let t1 = now_ns();
            samples.push((t1 - t0) as f32 / CHUNK as f32);
            t0 = t1;
        }
    }

    /// One probe slice outside a generator loop: `threads` threads chase for
    /// `PROBE_NS` at once (the Hadoop round probes between jobs).
    pub fn slice(&self, threads: usize, samples: &mut Vec<f32>) {
        let until_ns = now_ns() + PROBE_NS;
        let parts: Vec<Vec<f32>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    thread::Builder::new()
                        .name(format!("bench-probe{i}"))
                        .spawn_scoped(scope, move || {
                            let (mut at, mut part) = (Chase::start(i, threads), Vec::new());
                            self.run(&mut at, until_ns, &mut part);
                            part
                        })
                        .expect("spawn a probe thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        samples.extend(parts.into_iter().flatten());
    }
}

/// If `now` falls in the probe tail of its period, when that tail ends.
pub fn probe_until(now: u64) -> Option<u64> {
    (now % PERIOD_NS >= PERIOD_NS - PROBE_NS).then(|| (now / PERIOD_NS + 1) * PERIOD_NS)
}

/// The round's slowdown against the nominal host: above 1 when memory is
/// slower than nominal. A round that never probed reads 1.
pub fn slowdown(samples: &[f32]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let steps: Vec<f64> = samples.iter().map(|s| f64::from(*s)).collect();
    median(&steps) / NOMINAL_STEP_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_over_every_slot() {
        let chase = Chase::new();
        let mut at = 0;
        for step in 1..=ENTRIES {
            at = chase.next[at] as usize;
            assert!(
                at != 0 || step == ENTRIES,
                "back at the start after {step} steps"
            );
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn the_last_fifth_of_each_period_is_the_probe() {
        assert_eq!(probe_until(0), None);
        assert_eq!(probe_until(PERIOD_NS - PROBE_NS - 1), None);
        assert_eq!(probe_until(PERIOD_NS - PROBE_NS), Some(PERIOD_NS));
        assert_eq!(probe_until(3 * PERIOD_NS - 1), Some(3 * PERIOD_NS));
        assert_eq!(probe_until(3 * PERIOD_NS), None);
    }

    #[test]
    fn slowdown_is_the_median_step_over_nominal() {
        assert_eq!(slowdown(&[]), 1.0);
        let steps = [NOMINAL_STEP_NS as f32 * 2.0; 3];
        assert_eq!(slowdown(&steps), 2.0);
    }
}
