//! Deterministic, splittable random number generation.
//!
//! Every stochastic experiment in the workspace must be reproducible from a
//! single `u64` seed. [`SplitMix64`] is a tiny, well-studied generator (Steele
//! et al., *Fast splittable pseudorandom number generators*, OOPSLA 2014) that
//! doubles as a seed-derivation function: [`SplitMix64::split`] produces an
//! independent child stream, so parallel Monte-Carlo trials each get their
//! own deterministic generator without coordination.

use std::convert::Infallible;

use rand::rand_core::TryRng;

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 pseudorandom number generator.
///
/// Implements the infallible [`rand::Rng`] interface (via
/// `TryRng<Error = Infallible>`) so it can drive any `rand` API, and provides
/// [`split`](SplitMix64::split) for deriving independent child generators.
///
/// # Examples
///
/// ```
/// use pa_prob::rng::SplitMix64;
/// use rand::RngExt;
///
/// let mut rng = SplitMix64::new(42);
/// let x: f64 = rng.random();
/// assert!((0.0..1.0).contains(&x));
///
/// // Same seed, same stream:
/// let mut rng2 = SplitMix64::new(42);
/// assert_eq!(rng2.random::<f64>(), x);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
    draws: u64,
}

/// Generators compare by stream state only: the [`draws`](SplitMix64::draws)
/// bookkeeping does not affect future output, so it does not affect
/// equality.
impl PartialEq for SplitMix64 {
    fn eq(&self, other: &SplitMix64) -> bool {
        self.state == other.state
    }
}

impl Eq for SplitMix64 {}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        if pa_telemetry::enabled() {
            pa_telemetry::counter("prob.rng.streams").inc();
        }
        SplitMix64 {
            state: seed,
            draws: 0,
        }
    }

    /// Number of `u64` words this generator has produced so far. Each
    /// `u32`, `u64` or float draw consumes one word; `fill_bytes` consumes
    /// one word per started 8-byte chunk. `pa-mc`'s batch driver folds
    /// these into the `mc.rng_draws` telemetry counter.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Derives an independent child generator.
    ///
    /// The child's seed is mixed from the parent's current state, and the
    /// parent advances, so successive `split` calls yield distinct streams.
    pub fn split(&mut self) -> SplitMix64 {
        let child_seed = mix64(self.next().wrapping_mul(GOLDEN_GAMMA));
        SplitMix64::new(child_seed)
    }

    /// Derives the `index`-th child generator of `seed` without mutating any
    /// state — convenient for indexing parallel trials.
    pub fn for_trial(seed: u64, index: u64) -> SplitMix64 {
        SplitMix64::new(mix64(
            seed.wrapping_add(index.wrapping_mul(GOLDEN_GAMMA))
                .wrapping_add(GOLDEN_GAMMA),
        ))
    }
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        self.draws += 1;
        mix64(self.state)
    }
}

impl TryRng for SplitMix64 {
    type Error = Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.next() >> 32) as u32)
    }

    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.next())
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngExt};

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_are_distinct() {
        let mut parent = SplitMix64::new(7);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn for_trial_is_pure() {
        let a = SplitMix64::for_trial(9, 4);
        let b = SplitMix64::for_trial(9, 4);
        assert_eq!(a, b);
        let c = SplitMix64::for_trial(9, 5);
        assert_ne!(a, c);
    }

    #[test]
    fn draws_count_every_word() {
        let mut rng = SplitMix64::new(3);
        assert_eq!(rng.draws(), 0);
        let _ = rng.next_u64();
        let _ = rng.next_u32();
        assert_eq!(rng.draws(), 2);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert_eq!(rng.draws(), 4, "13 bytes = 2 words");
        let fresh = SplitMix64::new(3);
        let mut advanced = SplitMix64::new(3);
        let _ = advanced.next_u64();
        assert_ne!(fresh, advanced, "equality still tracks the stream state");
    }

    #[test]
    fn fill_bytes_handles_partial_chunks() {
        let mut rng = SplitMix64::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn uniform_floats_look_uniform() {
        let mut rng = SplitMix64::new(99);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }
}
