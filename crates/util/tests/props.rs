//! Randomized property tests for the RNG, distributions, and
//! statistics, driven by the crate's own deterministic PCG32 (the
//! workspace builds offline, so no proptest).

use tdc_util::{geomean, Pcg32, Rng, Uniform, WeightedIndex, Zipf};

/// Number of random cases per property.
const CASES: u64 = 64;

/// A deterministic per-property case generator.
fn gen(property: u64, case: u64) -> Pcg32 {
    Pcg32::seed_from_u64(0x70726f70 ^ (property << 32) ^ case)
}

#[test]
fn gen_range_always_below_bound() {
    for case in 0..CASES {
        let mut g = gen(1, case);
        let seed = g.next_u64();
        let bound = 1 + g.gen_range(u64::MAX - 1);
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..32 {
            assert!(rng.gen_range(bound) < bound);
        }
    }
}

#[test]
fn pcg_is_reproducible() {
    for case in 0..CASES {
        let seed = gen(2, case).next_u64();
        let mut a = Pcg32::seed_from_u64(seed);
        let mut b = Pcg32::seed_from_u64(seed);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

#[test]
fn uniform_within_range() {
    for case in 0..CASES {
        let mut g = gen(3, case);
        let lo = g.gen_range(1_000_000);
        let span = 1 + g.gen_range(999_999);
        let u = Uniform::new(lo, lo + span).unwrap();
        let mut rng = Pcg32::seed_from_u64(g.next_u64());
        for _ in 0..32 {
            let x = u.sample(&mut rng);
            assert!(x >= lo && x < lo + span);
        }
    }
}

#[test]
fn zipf_within_support() {
    for case in 0..CASES {
        let mut g = gen(4, case);
        let n = 1 + g.gen_range(999_999);
        let s = g.next_f64() * 3.0;
        let z = Zipf::new(n, s).unwrap();
        let mut rng = Pcg32::seed_from_u64(g.next_u64());
        for _ in 0..32 {
            assert!(z.sample(&mut rng) < n);
        }
    }
}

#[test]
fn weighted_index_within_support() {
    for case in 0..CASES {
        let mut g = gen(5, case);
        let len = 1 + g.gen_range(19) as usize;
        let weights: Vec<f64> = (0..len).map(|_| g.next_f64() * 10.0).collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            continue;
        }
        let w = WeightedIndex::new(&weights).unwrap();
        let mut rng = Pcg32::seed_from_u64(g.next_u64());
        for _ in 0..32 {
            let i = w.sample(&mut rng);
            assert!(i < weights.len());
            assert!(weights[i] > 0.0, "drew a zero-weight index {}", i);
        }
    }
}

#[test]
fn geomean_between_min_and_max() {
    for case in 0..CASES {
        let mut g = gen(8, case);
        let len = 1 + g.gen_range(49) as usize;
        let xs: Vec<f64> = (0..len).map(|_| 1e-3 + g.next_f64() * 1e6).collect();
        let gm = geomean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(0.0f64, f64::max);
        assert!(gm >= lo * (1.0 - 1e-9));
        assert!(gm <= hi * (1.0 + 1e-9));
    }
}
