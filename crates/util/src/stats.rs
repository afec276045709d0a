//! Small numeric helpers for experiment reports and the bench comparison:
//! geometric mean, median, spread, the repeat-until-stable predicate and
//! the regression threshold.

/// Geometric mean of positive values; returns 0 for an empty slice.
///
/// The paper reports normalized IPC/EDP as geometric means across
/// workloads; this is the helper the report code uses.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires strictly positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Median of `values` (lower-middle element for even lengths); 0 when
/// empty. Order of the input does not matter.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("median requires comparable values"));
    s[(s.len() - 1) / 2]
}

/// The repeat-until-stable predicate for micro-benchmark timing loops.
///
/// `runs` is the sequence of per-run measurements in execution order.
/// The sequence counts as **stable** once the medians of the two most
/// recent sliding windows of `window` runs (`runs[n-window-1..n-1]` and
/// `runs[n-window..n]`) agree within relative tolerance `tol`: adding
/// the latest run no longer moves the windowed median by more than
/// `tol`. Needs at least `window + 1` runs; fewer is never stable.
///
/// The bench harness uses `window = 3`, `tol = 0.02` — "stop when
/// median-of-3 windows agree within 2%".
pub fn median_window_stable(runs: &[f64], window: usize, tol: f64) -> bool {
    let window = window.max(1);
    let n = runs.len();
    if n < window + 1 {
        return false;
    }
    let prev = median(&runs[n - window - 1..n - 1]);
    let last = median(&runs[n - window..n]);
    let scale = prev.abs().max(last.abs());
    (prev - last).abs() <= tol * scale
}

/// Absolute spread (`max - min`) of a sample set; 0 for an empty or
/// single-element slice. The bench harness records this next to each
/// median as the noise band a later comparison must stay inside.
pub fn spread(values: &[f64]) -> f64 {
    let mut iter = values.iter();
    let Some(&first) = iter.next() else {
        return 0.0;
    };
    let (mut lo, mut hi) = (first, first);
    for &v in iter {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    hi - lo
}

/// The largest value a current measurement may take before counting as
/// a **regression** against a recorded `(median, spread)` pair:
///
/// ```text
/// threshold = median + spread + margin × |median|
/// ```
///
/// The spread term absorbs the noise the baseline itself observed; the
/// relative `margin` demands the excess be a real fraction of the
/// baseline before anyone is paged. The threshold is monotone in all
/// three arguments (for non-negative `spread`/`margin`), so loosening
/// the margin can only un-flag, never flag. A zero baseline median
/// degenerates to `spread` alone — still well-defined.
pub fn regression_threshold(median: f64, spread: f64, margin: f64) -> f64 {
    median + spread + margin * median.abs()
}

/// Whether `current` regresses past a recorded `(median, spread)`
/// baseline by more than the relative `margin`
/// (see [`regression_threshold`]). Measurements are "smaller is
/// better" (ns/op), so only exceeding the threshold flags.
pub fn is_regression(current: f64, median: f64, spread: f64, margin: f64) -> bool {
    current > regression_threshold(median, spread, margin)
}

/// The mirror image of [`is_regression`]: `current` is faster than the
/// baseline by more than its noise band plus the relative margin.
/// Improvements are reported, never gated on.
pub fn is_improvement(current: f64, median: f64, spread: f64, margin: f64) -> bool {
    current < median - spread - margin * median.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn median_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even length: lower-middle, matching the bench convention.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn stability_needs_enough_runs() {
        // Canned sequence: perfectly flat, but the predicate cannot
        // compare two windows until window+1 runs exist.
        assert!(!median_window_stable(&[], 3, 0.02));
        assert!(!median_window_stable(&[100.0, 100.0, 100.0], 3, 0.02));
        assert!(median_window_stable(&[100.0, 100.0, 100.0, 100.0], 3, 0.02));
    }

    #[test]
    fn stability_converges_on_a_settling_sequence() {
        // Two warmup spikes that settle to steady ~100 ns/op. While a
        // spike still dominates a window the medians disagree; once
        // three post-spike runs are in, the loop may stop.
        let runs = [400.0, 390.0, 101.0, 99.0, 100.0];
        assert!(!median_window_stable(&runs[..4], 3, 0.02)); // 390 vs 101
        assert!(median_window_stable(&runs, 3, 0.02)); // 101 vs 100
    }

    #[test]
    fn stability_rejects_a_drifting_sequence() {
        // Monotone drift of >2% per run never stabilizes.
        let drifting: Vec<f64> = (0..10).map(|i| 100.0 * 1.05f64.powi(i)).collect();
        for n in 4..=drifting.len() {
            assert!(
                !median_window_stable(&drifting[..n], 3, 0.02),
                "drifting sequence reported stable at n={n}"
            );
        }
        // The same shape within tolerance (0.1% steps) is stable.
        let settled: Vec<f64> = (0..10).map(|i| 100.0 * 1.001f64.powi(i)).collect();
        assert!(median_window_stable(&settled, 3, 0.02));
    }

    #[test]
    fn spread_degenerate_cases() {
        // Empty and single-sample sets have no spread by definition.
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[42.0]), 0.0);
        // All-equal samples: measured noise is exactly zero.
        assert_eq!(spread(&[7.0, 7.0, 7.0, 7.0]), 0.0);
        // Order does not matter.
        assert_eq!(spread(&[3.0, 9.0, 5.0]), 6.0);
        assert_eq!(spread(&[9.0, 3.0, 5.0]), 6.0);
    }

    #[test]
    fn threshold_degenerate_cases() {
        // Zero spread, zero margin: any excess at all is a regression.
        assert!(!is_regression(100.0, 100.0, 0.0, 0.0));
        assert!(is_regression(100.0 + 1e-9, 100.0, 0.0, 0.0));
        // Zero baseline median: the threshold degenerates to the spread.
        assert_eq!(regression_threshold(0.0, 2.5, 0.1), 2.5);
        assert!(is_regression(2.6, 0.0, 2.5, 0.1));
        assert!(!is_regression(2.4, 0.0, 2.5, 0.1));
        // A single-sample baseline (spread 0) still gates via margin.
        assert!(!is_regression(109.0, 100.0, 0.0, 0.1));
        assert!(is_regression(111.0, 100.0, 0.0, 0.1));
    }

    #[test]
    fn regression_and_improvement_are_disjoint() {
        // Inside the noise band: neither flag fires.
        for cur in [95.0, 100.0, 105.0, 114.0] {
            assert!(!is_regression(cur, 100.0, 5.0, 0.09), "cur={cur}");
        }
        assert!(is_regression(115.1, 100.0, 5.0, 0.09));
        assert!(is_improvement(85.9, 100.0, 5.0, 0.09));
        assert!(!is_improvement(86.1, 100.0, 5.0, 0.09));
        // No value can be both.
        for cur in (0..300).map(|i| i as f64) {
            assert!(
                !(is_regression(cur, 100.0, 5.0, 0.09)
                    && is_improvement(cur, 100.0, 5.0, 0.09)),
                "cur={cur} flagged both ways"
            );
        }
    }

    #[test]
    fn threshold_is_monotone_in_spread_and_margin() {
        // Hand-rolled property sweep (the workspace carries no proptest):
        // over a grid of baselines, spreads, and margins, the threshold
        // must be monotone non-decreasing in spread and margin, and a
        // larger margin must never flag a measurement a smaller one
        // passed.
        use crate::rng::{Pcg32, Rng};
        let mut rng = Pcg32::seed_from_u64(0xbe7c);
        for _ in 0..500 {
            let median = (rng.gen_range(2_000) as f64 / 10.0) - 50.0; // [-50, 150)
            let s1 = rng.gen_range(1_000) as f64 / 100.0;
            let s2 = s1 + rng.gen_range(1_000) as f64 / 100.0;
            let m1 = rng.gen_range(100) as f64 / 100.0;
            let m2 = m1 + rng.gen_range(100) as f64 / 100.0;
            let base = regression_threshold(median, s1, m1);
            assert!(regression_threshold(median, s2, m1) >= base);
            assert!(regression_threshold(median, s1, m2) >= base);
            let current = median + rng.gen_range(6_000) as f64 / 100.0;
            if is_regression(current, median, s1, m2) {
                assert!(
                    is_regression(current, median, s1, m1),
                    "loosening the margin flagged current={current} median={median} \
                     spread={s1} m1={m1} m2={m2}"
                );
            }
            // The baseline median itself is never a regression against
            // its own record (spread and margin are non-negative).
            assert!(!is_regression(median, median, s1, m1));
        }
    }

    #[test]
    fn stability_tolerance_is_relative() {
        // 1000 -> 1015 is 1.5%: inside a 2% gate, outside a 1% gate.
        let runs = [1000.0, 1000.0, 1000.0, 1015.0, 1015.0, 1015.0];
        assert!(median_window_stable(&runs[..5], 3, 0.02));
        assert!(!median_window_stable(&[1000.0, 1000.0, 1000.0, 1015.0, 1015.0], 3, 0.01));
    }
}
