//! Differential-testing toolkit (DESIGN.md §15).
//!
//! The flat access-path structures ([`crate::flat`], the SoA TLB, the
//! slot ring) each keep their original map-backed implementation as a
//! `#[cfg(test)]` reference model. This module is the shared harness
//! that drives both models over generated operation traces and, on
//! divergence, shrinks the trace to the **minimal failing prefix** so
//! the report is a handful of ops instead of a 10k-step dump.
//!
//! The contract: the caller supplies a `replay` closure that rebuilds
//! both models from scratch, applies a prefix of the trace, compares
//! observable state *after every step*, and returns `Err(detail)` at
//! the first divergence. Because every step is checked, failure is
//! prefix-monotone, and the minimal failing prefix can be found by
//! binary search over the prefix length.
//!
//! Generators are seeded [`XorShift64`] streams — no external property
//! testing crates, per the workspace's zero-dependency rule.

/// A tiny xorshift64 PRNG for trace generation.
///
/// Distinct from [`crate::rng::Pcg32`] (which feeds the *simulated
/// workloads* and is part of the artifact-determinism contract); the
/// testkit deliberately uses its own generator so test traces can
/// evolve without touching figure bytes.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator; a zero seed is mapped to a fixed non-zero
    /// constant (xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform-ish value in `0..n` (modulo bias is irrelevant for trace
    /// generation).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A divergence found between a reference and a flat model.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Number of ops in the minimal failing prefix (the divergence is
    /// observed after applying op `prefix_len - 1`).
    pub prefix_len: usize,
    /// The model-supplied description of what differed.
    pub detail: String,
}

/// Replays the full trace; on failure, binary-searches the shortest
/// failing prefix and returns it. `replay` must check equivalence after
/// every applied op (so that failing prefixes are monotone in length).
pub fn minimal_failing_prefix<Op>(
    ops: &[Op],
    replay: impl Fn(&[Op]) -> Result<(), String>,
) -> Option<Divergence> {
    replay(ops).err()?;
    let (mut lo, mut hi) = (1usize, ops.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if replay(&ops[..mid]).is_err() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let detail = replay(&ops[..lo])
        .err()
        .unwrap_or_else(|| "divergence not reproducible at minimal prefix".into());
    Some(Divergence {
        prefix_len: lo,
        detail,
    })
}

/// How many trailing ops of a failing prefix to print in full.
const REPORT_TAIL: usize = 24;

/// Runs the differential check and panics with a readable report —
/// divergence detail plus the (tail of the) minimal failing prefix —
/// if the models disagree.
#[expect(
    clippy::panic,
    reason = "test-harness assertion; panicking is its contract"
)]
pub fn assert_equiv<Op: std::fmt::Debug>(
    name: &str,
    ops: &[Op],
    replay: impl Fn(&[Op]) -> Result<(), String>,
) {
    let Some(d) = minimal_failing_prefix(ops, replay) else {
        return;
    };
    let start = d.prefix_len.saturating_sub(REPORT_TAIL);
    let mut listing = String::new();
    if start > 0 {
        listing.push_str(&format!("  ... {start} earlier ops elided ...\n"));
    }
    for (i, op) in ops[..d.prefix_len].iter().enumerate().skip(start) {
        listing.push_str(&format!("  [{i}] {op:?}\n"));
    }
    panic!(
        "{name}: reference/flat divergence after {} of {} ops\n  {}\nminimal failing prefix:\n{listing}",
        d.prefix_len,
        ops.len(),
        d.detail
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        // Zero seed does not get stuck at zero.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn below_and_chance_are_in_range() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert!(!XorShift64::new(1).chance(0));
        assert!(XorShift64::new(1).chance(100));
    }

    #[test]
    fn clean_trace_reports_no_divergence() {
        let ops: Vec<u32> = (0..100).collect();
        assert!(minimal_failing_prefix(&ops, |_| Ok(())).is_none());
    }

    #[test]
    fn finds_exact_minimal_prefix() {
        // Synthetic model pair that diverges when op value 37 is applied.
        let ops: Vec<u32> = (0..100).collect();
        let replay = |prefix: &[u32]| -> Result<(), String> {
            for &op in prefix {
                if op == 37 {
                    return Err("models disagree on 37".into());
                }
            }
            Ok(())
        };
        let d = minimal_failing_prefix(&ops, replay).expect("must fail");
        assert_eq!(d.prefix_len, 38, "op 37 is the 38th op");
        assert!(d.detail.contains("37"));
    }

    #[test]
    fn divergence_on_first_op_shrinks_to_one() {
        let ops = vec![9u32, 1, 2];
        let d = minimal_failing_prefix(&ops, |p| {
            if p.contains(&9) {
                Err("boom".into())
            } else {
                Ok(())
            }
        })
        .expect("must fail");
        assert_eq!(d.prefix_len, 1);
    }

    #[test]
    #[should_panic(expected = "minimal failing prefix")]
    fn assert_equiv_panics_with_prefix_listing() {
        let ops: Vec<u32> = (0..50).collect();
        assert_equiv("demo", &ops, |p| {
            if p.len() >= 30 {
                Err("state mismatch".into())
            } else {
                Ok(())
            }
        });
    }
}
