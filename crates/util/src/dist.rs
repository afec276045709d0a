//! Probability distributions used by the workload generators.
//!
//! All samplers take an explicit `&mut impl Rng` so that a workload's
//! randomness is fully determined by its seed.

use crate::rng::Rng;
use std::fmt;

/// Error returned when a distribution is constructed with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    what: &'static str,
}

impl ParamError {
    fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for ParamError {}

/// Uniform distribution over the integer range `[lo, hi)`.
///
/// # Examples
///
/// ```
/// use tdc_util::{Uniform, Pcg32};
/// let u = Uniform::new(10, 20).expect("valid range");
/// let mut rng = Pcg32::seed_from_u64(0);
/// let x = u.sample(&mut rng);
/// assert!((10..20).contains(&x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uniform {
    lo: u64,
    span: u64,
}

impl Uniform {
    /// Creates a uniform distribution over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `lo >= hi`.
    pub fn new(lo: u64, hi: u64) -> Result<Self, ParamError> {
        if lo >= hi {
            return Err(ParamError::new("uniform range is empty"));
        }
        Ok(Self { lo, span: hi - lo })
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        self.lo + rng.gen_range(self.span)
    }
}

/// Bernoulli distribution: `true` with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if `p` is not in `[0, 1]` or is NaN.
    pub fn new(p: f64) -> Result<Self, ParamError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ParamError::new("bernoulli p outside [0, 1]"));
        }
        Ok(Self { p })
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut impl Rng) -> bool {
        rng.gen_bool(self.p)
    }
}

/// Geometric distribution over `{0, 1, 2, ...}` with success probability
/// `p`: the number of failures before the first success.
///
/// Used to model run lengths (e.g. consecutive blocks streamed within a
/// page before jumping elsewhere).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    /// `ln(1 - p)`, the inversion's divisor, computed once.
    ln_q: f64,
}

impl Geometric {
    /// Creates a geometric distribution.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < p <= 1`.
    pub fn new(p: f64) -> Result<Self, ParamError> {
        if !(p > 0.0 && p <= 1.0) {
            return Err(ParamError::new("geometric p outside (0, 1]"));
        }
        Ok(Self {
            p,
            ln_q: (1.0 - p).ln(),
        })
    }

    /// Draws a sample via inversion.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "flooring to a count is the sampling step"
    )]
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        (u.ln() / self.ln_q).floor() as u64
    }

    /// Expected value `(1 - p) / p`.
    pub fn mean(&self) -> f64 {
        (1.0 - self.p) / self.p
    }
}

/// Zipf (zeta) distribution over ranks `0..n` with skew `s >= 0`.
///
/// Rank `k` (0-based) is drawn with probability proportional to
/// `1 / (k + 1)^s`. `s = 0` degenerates to the uniform distribution;
/// larger `s` concentrates mass on low ranks. This is the canonical model
/// for page-level reuse skew in memory traces.
///
/// Sampling uses the rejection-inversion method of Hörmann & Derflinger
/// (1996), which is O(1) per sample and needs no table.
///
/// # Examples
///
/// ```
/// use tdc_util::{Zipf, Pcg32};
/// let z = Zipf::new(1_000_000, 0.99).expect("valid parameters");
/// let mut rng = Pcg32::seed_from_u64(3);
/// assert!(z.sample(&mut rng) < 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants for rejection-inversion.
    h_x1: f64,
    h_n: f64,
    inv_s: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `0..n` with exponent `s`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`, `s < 0`, or `s` is NaN.
    pub fn new(n: u64, s: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::new("zipf n must be positive"));
        }
        if s.is_nan() || s < 0.0 {
            return Err(ParamError::new("zipf s must be non-negative"));
        }
        let h = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                x.ln()
            } else {
                x.powf(1.0 - s) / (1.0 - s)
            }
        };
        Ok(Self {
            n,
            s,
            h_x1: h(1.5) - 1.0,
            h_n: h(n as f64 + 0.5),
            inv_s: 1.0 / (1.0 - s),
        })
    }

    fn h(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            x.powf(1.0 - self.s) / (1.0 - self.s)
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.exp()
        } else {
            (x * (1.0 - self.s)).powf(self.inv_s)
        }
    }

    /// Draws a 0-based rank.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        if self.s == 0.0 {
            return rng.gen_range(self.n);
        }
        loop {
            let u = self.h_x1 + rng.next_f64() * (self.h_n - self.h_x1);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if u >= self.h(k + 0.5) - (k.powf(-self.s)) {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "k is an integral rank in 1..=n"
                )]
                return k as u64 - 1;
            }
        }
    }

    /// The number of ranks.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The skew exponent.
    pub fn skew(&self) -> f64 {
        self.s
    }
}

/// Weighted discrete choice over `0..weights.len()`.
///
/// Uses Walker's alias method: O(n) construction, O(1) sampling.
///
/// # Examples
///
/// ```
/// use tdc_util::{WeightedIndex, Pcg32};
/// let w = WeightedIndex::new(&[1.0, 0.0, 3.0]).expect("valid weights");
/// let mut rng = Pcg32::seed_from_u64(1);
/// let i = w.sample(&mut rng);
/// assert!(i == 0 || i == 2); // index 1 has zero weight
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl WeightedIndex {
    /// Builds the alias table for the given non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns an error if `weights` is empty, any weight is negative or
    /// non-finite, or all weights are zero.
    pub fn new(weights: &[f64]) -> Result<Self, ParamError> {
        if weights.is_empty() {
            return Err(ParamError::new("weighted index needs >= 1 weight"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ParamError::new("weights must be finite and >= 0"));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ParamError::new("weights must not all be zero"));
        }
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut small = Vec::new();
        let mut large = Vec::new();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(Self { prob, alias })
    }

    /// Draws an index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let n = self.prob.len();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the draw is below a slice length"
        )]
        let i = rng.gen_range(n as u64) as usize;
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }

    /// Number of alternatives.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether there are no alternatives (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    #[test]
    fn uniform_rejects_empty_range() {
        assert!(Uniform::new(5, 5).is_err());
        assert!(Uniform::new(6, 5).is_err());
    }

    #[test]
    fn uniform_sample_within_bounds() {
        let u = Uniform::new(100, 110).unwrap();
        let mut rng = Pcg32::seed_from_u64(0);
        for _ in 0..1000 {
            let x = u.sample(&mut rng);
            assert!((100..110).contains(&x));
        }
    }

    #[test]
    fn bernoulli_rejects_bad_p() {
        assert!(Bernoulli::new(-0.1).is_err());
        assert!(Bernoulli::new(1.1).is_err());
        assert!(Bernoulli::new(f64::NAN).is_err());
        assert!(Bernoulli::new(0.0).is_ok());
        assert!(Bernoulli::new(1.0).is_ok());
    }

    #[test]
    fn geometric_mean_matches_analytic() {
        let g = Geometric::new(0.25).unwrap();
        let mut rng = Pcg32::seed_from_u64(77);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| g.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - g.mean()).abs() < 0.05,
            "empirical {mean} vs analytic {}",
            g.mean()
        );
    }

    #[test]
    fn geometric_p_one_is_always_zero() {
        let g = Geometric::new(1.0).unwrap();
        let mut rng = Pcg32::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn zipf_zero_skew_is_uniformish() {
        let z = Zipf::new(10, 0.0).unwrap();
        let mut rng = Pcg32::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.01, "uniform bucket off: {frac}");
        }
    }

    #[test]
    fn zipf_rank_frequencies_follow_power_law() {
        let s = 1.0;
        let z = Zipf::new(1000, s).unwrap();
        let mut rng = Pcg32::seed_from_u64(4);
        let n = 500_000;
        let mut counts = vec![0u64; 1000];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // P(rank 0) / P(rank 1) should approach 2^s = 2.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio} not ~2");
        // Rank 0 must dominate the tail.
        assert!(counts[0] > counts[500] * 50);
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.5).unwrap();
        let mut rng = Pcg32::seed_from_u64(5);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let w = WeightedIndex::new(&[1.0, 3.0]).unwrap();
        let mut rng = Pcg32::seed_from_u64(6);
        let n = 200_000;
        let ones = (0..n).filter(|_| w.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac} not ~0.75");
    }

    #[test]
    fn weighted_index_zero_weight_never_drawn() {
        let w = WeightedIndex::new(&[1.0, 0.0, 1.0]).unwrap();
        let mut rng = Pcg32::seed_from_u64(7);
        for _ in 0..10_000 {
            assert_ne!(w.sample(&mut rng), 1);
        }
    }

    #[test]
    fn weighted_index_rejects_invalid() {
        assert!(WeightedIndex::new(&[]).is_err());
        assert!(WeightedIndex::new(&[0.0, 0.0]).is_err());
        assert!(WeightedIndex::new(&[-1.0, 2.0]).is_err());
        assert!(WeightedIndex::new(&[f64::INFINITY]).is_err());
    }
}
