//! Seedable, splittable pseudo-random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, very fast generator mainly used to expand a
//!   single `u64` seed into independent streams.
//! * [`Pcg32`] — the PCG-XSH-RR 64/32 generator (O'Neill, 2014), the
//!   workhorse RNG of the simulator. Statistically strong for simulation
//!   purposes and fully deterministic.

/// A source of pseudo-random `u64` values plus convenience derivations.
///
/// All simulator randomness flows through this trait so generators can be
/// swapped in tests.
pub trait Rng {
    /// Returns the next pseudo-random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next pseudo-random `u32`.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        // Lemire's method on 64 bits via 128-bit multiply.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "Lemire's method keeps the low 64 bits by design"
            )]
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone; `threshold` = 2^64 mod bound.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// Primarily used to derive independent seeds for per-component streams:
/// each call to [`SplitMix64::next_u64`] yields a value suitable as a seed
/// for another generator.
///
/// # Examples
///
/// ```
/// use tdc_util::rng::{Rng, SplitMix64};
/// let mut sm = SplitMix64::new(7);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG-XSH-RR 64/32 generator.
///
/// 64-bit LCG state with a 32-bit xorshift-rotate output function. Two
/// 32-bit outputs are concatenated to serve [`Rng::next_u64`].
///
/// # Examples
///
/// ```
/// use tdc_util::rng::{Pcg32, Rng};
/// let mut a = Pcg32::seed_from_u64(1);
/// let mut b = Pcg32::seed_from_u64(1);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl Pcg32 {
    /// Creates a generator from an explicit state and stream selector.
    ///
    /// Distinct (odd-ified) `stream` values yield independent sequences.
    pub fn new(state: u64, stream: u64) -> Self {
        let mut pcg = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        pcg.state = pcg.state.wrapping_mul(PCG_MULT).wrapping_add(pcg.inc);
        pcg.state = pcg.state.wrapping_add(state);
        pcg.state = pcg.state.wrapping_mul(PCG_MULT).wrapping_add(pcg.inc);
        pcg
    }

    /// Creates a generator by expanding a single `u64` seed with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let state = sm.next_u64();
        let stream = sm.next_u64();
        Self::new(state, stream)
    }

    /// Derives an independent child generator, keyed by `salt`.
    ///
    /// Used to give each simulated component (per-core trace generator,
    /// per-bank noise source, ...) its own stream from one master seed.
    pub fn split(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::seed_from_u64(s)
    }

    fn step(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "PCG-XSH-RR keeps the low 32 bits by design"
        )]
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }
}

impl Rng for Pcg32 {
    fn next_u64(&mut self) -> u64 {
        let hi = self.step() as u64;
        let lo = self.step() as u64;
        (hi << 32) | lo
    }

    fn next_u32(&mut self) -> u32 {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 0 from the public-domain C version.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn pcg_deterministic_across_instances() {
        let mut a = Pcg32::seed_from_u64(1234);
        let mut b = Pcg32::seed_from_u64(1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn pcg_streams_differ() {
        let mut a = Pcg32::new(42, 1);
        let mut b = Pcg32::new(42, 2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_yields_independent_streams() {
        let mut master = Pcg32::seed_from_u64(9);
        let mut c1 = master.split(1);
        let mut c2 = master.split(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_is_in_bounds() {
        let mut rng = Pcg32::seed_from_u64(5);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_small_bound_covers_all_values() {
        let mut rng = Pcg32::seed_from_u64(6);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn gen_range_zero_bound_panics() {
        let mut rng = Pcg32::seed_from_u64(1);
        let _ = rng.gen_range(0);
    }

    #[test]
    fn next_f64_is_unit_interval_and_roughly_uniform() {
        let mut rng = Pcg32::seed_from_u64(11);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = Pcg32::seed_from_u64(12);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac} too far from 0.3");
    }
}
