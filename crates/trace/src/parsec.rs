//! Multi-threaded (PARSEC) trace construction.
//!
//! A PARSEC run is one process with four threads sharing an address
//! space: every thread interleaves references to a **shared** region
//! (the program's main data structure, identical pages for all threads)
//! with references to a **private** region (per-thread stacks and
//! partitions). Because all threads share one page table, shared pages
//! are cacheable without aliasing (paper §3.5).

use crate::profiles::{self, WorkloadProfile};
use crate::record::{MemRef, TraceSource};
use crate::synth::SyntheticWorkload;
use tdc_util::{Bernoulli, Pcg32};

/// Fraction of references that target the shared region, per benchmark.
fn shared_frac(name: &str) -> f64 {
    match name {
        "swaptions" => 0.10,
        "facesim" => 0.40,
        "fluidanimate" => 0.30,
        "streamcluster" => 0.80,
        _ => 0.25,
    }
}

/// One thread's trace: a probabilistic interleave of a shared-region
/// generator and a private-region generator.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    shared: SyntheticWorkload,
    private: SyntheticWorkload,
    pick_shared: Bernoulli,
    rng: Pcg32,
    label: String,
}

impl TraceSource for ThreadTrace {
    fn next_ref(&mut self) -> MemRef {
        if self.pick_shared.sample(&mut self.rng) {
            self.shared.next_ref()
        } else {
            self.private.next_ref()
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Builder for a 4-thread PARSEC workload.
#[derive(Debug, Clone)]
pub struct ParsecTraces {
    profile: WorkloadProfile,
    seed: u64,
    threads: u32,
}

impl ParsecTraces {
    /// Creates traces for a named PARSEC benchmark.
    ///
    /// Returns `None` if the benchmark is not one of the four the paper
    /// evaluates.
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        Some(Self::with_profile(profiles::parsec(name)?.clone(), seed))
    }

    /// Creates traces from an explicit profile (e.g. a scaled one).
    pub fn with_profile(profile: WorkloadProfile, seed: u64) -> Self {
        Self {
            profile,
            seed,
            threads: 4,
        }
    }

    /// Number of threads (the paper's 4-core configuration).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The benchmark profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Builds the per-thread trace source for thread `tid`.
    ///
    /// All threads address the same shared region (instance slot 0) but
    /// use thread-specific random streams, so they touch the *same
    /// pages* in different orders — the sharing pattern that matters for
    /// a shared last-level cache. Private regions use disjoint instance
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `tid >= self.threads()`.
    pub fn thread(&self, tid: u32) -> ThreadTrace {
        assert!(tid < self.threads, "thread id out of range");
        let sf = shared_frac(self.profile.name);

        // Shared region: full footprint, common instance slot.
        let shared_profile = self.profile.clone();
        let shared = SyntheticWorkload::new(
            shared_profile,
            self.seed ^ (0xABCD_0000 + tid as u64),
            0,
        );

        // Private region: a quarter of the footprint per thread,
        // disjoint instance slots 1..=4.
        let mut private_profile = self.profile.clone();
        private_profile.footprint_pages = (self.profile.footprint_pages / 4).max(16);
        let private = SyntheticWorkload::new(
            private_profile,
            self.seed ^ (0x1234_0000 + tid as u64),
            tid + 1,
        );

        ThreadTrace {
            shared,
            private,
            pick_shared: Bernoulli::new(sf).expect("fraction in range"),
            rng: Pcg32::seed_from_u64(self.seed ^ (0x77_0000 + tid as u64)),
            label: format!("{}-t{}", self.profile.name, tid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn known_benchmarks_build() {
        for n in profiles::PARSEC_NAMES {
            assert!(ParsecTraces::new(n, 1).is_some(), "{n}");
        }
        assert!(ParsecTraces::new("raytrace", 1).is_none());
    }

    #[test]
    fn threads_share_pages_in_shared_region() {
        let p = ParsecTraces::new("streamcluster", 3).unwrap();
        let pages = |tid: u32| -> BTreeSet<u64> {
            let mut t = p.thread(tid);
            (0..2_000_000).map(|_| t.next_ref().vaddr.page().0).collect()
        };
        let a = pages(0);
        let b = pages(1);
        let common = a.intersection(&b).count();
        assert!(
            common as f64 > 0.3 * a.len().min(b.len()) as f64,
            "only {common} shared pages between threads"
        );
    }

    #[test]
    fn private_regions_are_disjoint() {
        let p = ParsecTraces::new("swaptions", 4).unwrap();
        let mut t0 = p.thread(0);
        let mut t1 = p.thread(1);
        // Instance slot stride is 2^28 pages: private pages of thread 0
        // live in slot 1, thread 1 in slot 2.
        let slot = |v: u64| v >> 28;
        for _ in 0..5_000 {
            let s0 = slot(t0.next_ref().vaddr.page().0);
            let s1 = slot(t1.next_ref().vaddr.page().0);
            assert!(s0 == 0 || s0 == 1, "t0 in slot {s0}");
            assert!(s1 == 0 || s1 == 2, "t1 in slot {s1}");
        }
    }

    #[test]
    fn thread_traces_are_deterministic() {
        let p = ParsecTraces::new("facesim", 5).unwrap();
        let mut a = p.thread(2);
        let mut b = p.thread(2);
        for _ in 0..100 {
            assert_eq!(a.next_ref(), b.next_ref());
        }
    }

    #[test]
    fn labels_identify_threads() {
        let p = ParsecTraces::new("fluidanimate", 6).unwrap();
        assert_eq!(p.thread(3).label(), "fluidanimate-t3");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn thread_id_bounds_checked() {
        let p = ParsecTraces::new("facesim", 1).unwrap();
        let _ = p.thread(4);
    }
}
