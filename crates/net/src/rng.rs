//! Deterministic seeded randomness for the simulation harness.
//!
//! Every random choice in a simulated run — workload mixes, fault timing,
//! routing decisions — must derive from one `u64` scenario seed, so that
//! a failing run replays bit-identically from its seed alone. [`SimRng`] is
//! that derivation point: a splitmix64 generator (the same stream as the
//! `rand` shim's `StdRng`, so swapping it into existing generators changes
//! nothing) plus *order-stable forking*. A fork is keyed by a label or an
//! index and derived from the parent's **seed**, not its stream position:
//! two components forking the same parent get the same sub-streams no
//! matter which forks first, which is what keeps concurrent consumers
//! (mapper threads, client fleets) deterministic.

use rand::{RngCore, SeedableRng};

/// splitmix64 finaliser: a bijective avalanche mix, used both as the
/// generator step and to derive fork seeds.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string, for label-keyed forks.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A deterministic, forkable RNG seeded from a single `u64`.
///
/// The raw stream is identical to the shimmed `StdRng::seed_from_u64`
/// stream, so [`SimRng`] is a drop-in replacement wherever the workload
/// generators previously constructed a `StdRng` ad hoc.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: u64,
}

impl SimRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SimRng { seed, state: seed }
    }

    /// The seed this generator (or fork) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent sub-stream keyed by `label`.
    ///
    /// Forks depend only on the parent's seed and the label — not on how
    /// many values the parent has produced — so the set of sub-streams a
    /// scenario uses is stable regardless of evaluation order.
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::new(mix64(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// Derives an independent sub-stream keyed by `index` (per-client,
    /// per-mapper, per-shard streams).
    pub fn fork_indexed(&self, index: u64) -> SimRng {
        // The golden-ratio increment decorrelates adjacent indices before
        // the avalanche mix.
        SimRng::new(mix64(
            self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
        ))
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// Samples uniformly from `[0, n)`. Panics if `n == 0`.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty range");
        (self.next_u64() % n as u64) as usize
    }
}

impl RngCore for SimRng {
    fn next_u64(&mut self) -> u64 {
        // splitmix64: same stream as the shimmed StdRng for equal seeds.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }
}

impl SeedableRng for SimRng {
    fn seed_from_u64(seed: u64) -> Self {
        SimRng::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    #[test]
    fn matches_the_std_rng_stream_for_equal_seeds() {
        let mut sim = SimRng::new(12345);
        let mut std = StdRng::seed_from_u64(12345);
        for _ in 0..256 {
            assert_eq!(sim.next_u64(), std.next_u64());
        }
    }

    #[test]
    fn forks_are_order_stable() {
        let root = SimRng::new(7);
        let mut a_first = root.fork("alpha");
        let _ = root.fork("beta");
        // Re-fork after the parent has been used for other forks — and
        // even after the parent has generated values.
        let mut used = root.clone();
        let _ = used.next_u64();
        let mut a_second = used.fork("alpha");
        for _ in 0..64 {
            assert_eq!(a_first.next_u64(), a_second.next_u64());
        }
    }

    #[test]
    fn forks_are_decorrelated() {
        let root = SimRng::new(7);
        let mut a = root.fork("alpha");
        let mut b = root.fork("beta");
        let mut i0 = root.fork_indexed(0);
        let mut i1 = root.fork_indexed(1);
        assert_ne!(a.next_u64(), b.next_u64());
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn rng_trait_methods_work() {
        let mut rng = SimRng::new(99);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
        }
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
        assert!(rng.pick(1) == 0);
    }

    #[test]
    fn same_seed_same_choices() {
        let mut a = SimRng::new(0xF11C);
        let mut b = SimRng::new(0xF11C);
        for _ in 0..100 {
            assert_eq!(a.pick(13), b.pick(13));
            assert_eq!(a.chance(0.3), b.chance(0.3));
        }
    }
}
