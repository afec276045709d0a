//! The statistical trace generator.
//!
//! A trace is a sequence of *page visits*. Each visit picks a page from
//! one of two components:
//!
//! * the **hot set** — a Zipf-skewed draw over the footprint, modelling
//!   temporal page reuse;
//! * the **cold stream** — a cyclic walk over a (possibly larger)
//!   region, modelling streaming/first-touch traffic and singleton
//!   pages.
//!
//! Within a visit, a geometric number of consecutive 64B blocks is
//! touched (spatial locality), and each block is referenced a geometric
//! number of times (block-level temporal locality, which the on-die
//! L1/L2 caches absorb). Instruction gaps between references are also
//! geometric, setting memory intensity.

use crate::profiles::WorkloadProfile;
use crate::record::{MemRef, TraceSource};
use std::collections::BTreeMap;
use tdc_util::{Bernoulli, Geometric, Pcg32, Rng, VAddr, Vpn, Zipf, BLOCKS_PER_PAGE};

/// Virtual address-space stride between workload instances: 2^28 pages
/// = 1TB of virtual space each, so instances never alias.
const INSTANCE_STRIDE_PAGES: u64 = 1 << 28;

/// Deterministic synthetic trace source for one workload instance.
///
/// # Examples
///
/// ```
/// use tdc_trace::{profiles, SyntheticWorkload, TraceSource};
/// let p = profiles::spec("omnetpp").expect("known benchmark");
/// let mut a = SyntheticWorkload::new(p.clone(), 7, 0);
/// let mut b = SyntheticWorkload::new(p.clone(), 7, 0);
/// assert_eq!(a.next_ref(), b.next_ref()); // same seed, same trace
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    profile: WorkloadProfile,
    rng: Pcg32,
    vpn_base: u64,
    zipf: Zipf,
    hot_visit: Bernoulli,
    write: Bernoulli,
    blocks_hot: Geometric,
    blocks_stream: Geometric,
    repeats: Geometric,
    gap: Geometric,
    stream_region_pages: u64,
    stream_pos: u64,
    cur_vpn: u64,
    cur_block: u64,
    blocks_left: u64,
    repeats_left: u64,
}

fn geometric_with_mean(mean_extra: f64) -> Geometric {
    // Geometric over {0,1,...} with mean (1-p)/p = mean_extra.
    let p = 1.0 / (1.0 + mean_extra.max(0.0));
    Geometric::new(p).expect("p in (0,1] by construction")
}

impl SyntheticWorkload {
    /// Creates a generator for `profile`, seeded by `seed`, occupying
    /// virtual instance slot `instance` (each instance gets a disjoint
    /// 1TB virtual region, so four instances can share one address
    /// space, as PARSEC threads do, or live in separate ones).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`].
    #[expect(
        clippy::panic,
        reason = "documented: an invalid profile is a caller bug"
    )]
    pub fn new(profile: WorkloadProfile, seed: u64, instance: u32) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
        let mut rng = Pcg32::seed_from_u64(seed ^ ((instance as u64) << 32));
        let zipf = Zipf::new(profile.footprint_pages, profile.zipf_skew)
            .expect("validated footprint/skew");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "page counts round down on purpose"
        )]
        let stream_region_pages = ((profile.footprint_pages as f64
            * profile.stream_region_factor) as u64)
            .max(profile.footprint_pages);
        let hot_visit = Bernoulli::new(profile.hot_visit_frac).expect("validated");
        let write = Bernoulli::new(profile.write_frac).expect("validated");
        let blocks_hot = geometric_with_mean(profile.mean_blocks_per_visit - 1.0);
        let blocks_stream = geometric_with_mean(profile.stream_blocks_per_visit - 1.0);
        let repeats = geometric_with_mean(profile.mean_repeats_per_block - 1.0);
        let gap = geometric_with_mean(profile.mean_gap_instrs);
        let stream_pos = rng.gen_range(stream_region_pages);
        let mut w = Self {
            profile,
            rng,
            vpn_base: instance as u64 * INSTANCE_STRIDE_PAGES,
            zipf,
            hot_visit,
            write,
            blocks_hot,
            blocks_stream,
            repeats,
            gap,
            stream_region_pages,
            stream_pos,
            cur_vpn: 0,
            cur_block: 0,
            blocks_left: 0,
            repeats_left: 0,
        };
        w.begin_visit();
        w
    }

    /// The workload profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The lowest VPN this instance can emit.
    pub fn vpn_base(&self) -> Vpn {
        Vpn(self.vpn_base)
    }

    /// The number of distinct pages this instance can emit (hot set plus
    /// stream region).
    pub fn region_pages(&self) -> u64 {
        self.stream_region_pages
    }

    fn begin_visit(&mut self) {
        let (vpn, blocks) = if self.hot_visit.sample(&mut self.rng) {
            let rank = self.zipf.sample(&mut self.rng);
            (rank, 1 + self.blocks_hot.sample(&mut self.rng))
        } else {
            let v = self.stream_pos;
            self.stream_pos = (self.stream_pos + 1) % self.stream_region_pages;
            (v, 1 + self.blocks_stream.sample(&mut self.rng))
        };
        self.cur_vpn = vpn;
        self.blocks_left = blocks.min(BLOCKS_PER_PAGE);
        self.cur_block = self.rng.gen_range(BLOCKS_PER_PAGE);
        self.repeats_left = 1 + self.repeats.sample(&mut self.rng);
    }

    fn advance(&mut self) {
        if self.repeats_left > 0 {
            self.repeats_left -= 1;
            if self.repeats_left > 0 {
                return;
            }
        }
        self.blocks_left -= 1;
        if self.blocks_left == 0 {
            self.begin_visit();
        } else {
            self.cur_block = (self.cur_block + 1) % BLOCKS_PER_PAGE;
            self.repeats_left = 1 + self.repeats.sample(&mut self.rng);
        }
    }

    fn current_addr(&mut self) -> VAddr {
        let word = self.rng.gen_range(8) * 8;
        Vpn(self.vpn_base + self.cur_vpn).addr(self.cur_block * 64 + word)
    }
}

impl TraceSource for SyntheticWorkload {
    fn next_ref(&mut self) -> MemRef {
        let vaddr = self.current_addr();
        let is_write = self.write.sample(&mut self.rng);
        #[expect(clippy::cast_possible_truncation, reason = "clamped to u32::MAX first")]
        let gap = self.gap.sample(&mut self.rng).min(u32::MAX as u64) as u32;
        self.advance();
        MemRef {
            vaddr,
            is_write,
            gap_instrs: gap,
        }
    }

    fn label(&self) -> &str {
        self.profile.name
    }
}

/// Counts references per page over the next `n_refs` of a generator —
/// the offline profiling pass of the §5.4 non-cacheable study.
///
/// The generator is consumed by value so the profiling run cannot
/// perturb a simulation's trace position; build a fresh, identically
/// seeded instance for the actual run.
///
/// Returns an ordered map: consumers flag pages in iteration order,
/// and that order must be deterministic (page-table node allocation is
/// first-touch, so flagging order shifts frame placement and timing).
pub fn page_access_counts(
    mut source: impl TraceSource,
    n_refs: u64,
) -> BTreeMap<Vpn, u64> {
    let mut counts = BTreeMap::new();
    for _ in 0..n_refs {
        let r = source.next_ref();
        *counts.entry(r.vaddr.page()).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn small_profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "test",
            footprint_pages: 1000,
            zipf_skew: 0.8,
            hot_visit_frac: 0.7,
            mean_blocks_per_visit: 4.0,
            stream_blocks_per_visit: 2.0,
            stream_region_factor: 2.0,
            mean_repeats_per_block: 2.0,
            write_frac: 0.3,
            mean_gap_instrs: 20.0,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SyntheticWorkload::new(small_profile(), 1, 0);
        let mut b = SyntheticWorkload::new(small_profile(), 1, 0);
        for _ in 0..1000 {
            assert_eq!(a.next_ref(), b.next_ref());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SyntheticWorkload::new(small_profile(), 1, 0);
        let mut b = SyntheticWorkload::new(small_profile(), 2, 0);
        let same = (0..100)
            .filter(|_| a.next_ref().vaddr == b.next_ref().vaddr)
            .count();
        assert!(same < 50);
    }

    #[test]
    fn addresses_stay_in_region() {
        let mut w = SyntheticWorkload::new(small_profile(), 3, 0);
        let region = w.region_pages();
        for _ in 0..10_000 {
            let v = w.next_ref().vaddr.page().0;
            assert!(v < region, "vpn {v} outside region {region}");
        }
    }

    #[test]
    fn instances_occupy_disjoint_regions() {
        let mut a = SyntheticWorkload::new(small_profile(), 1, 0);
        let mut b = SyntheticWorkload::new(small_profile(), 1, 1);
        for _ in 0..1000 {
            let va = a.next_ref().vaddr.page().0;
            let vb = b.next_ref().vaddr.page().0;
            assert!(va < INSTANCE_STRIDE_PAGES);
            assert!(vb >= INSTANCE_STRIDE_PAGES);
        }
    }

    #[test]
    fn write_fraction_approximate() {
        let mut w = SyntheticWorkload::new(small_profile(), 4, 0);
        let n = 100_000;
        let writes = (0..n).filter(|_| w.next_ref().is_write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "write frac {frac}");
    }

    #[test]
    fn gap_mean_approximate() {
        let mut w = SyntheticWorkload::new(small_profile(), 5, 0);
        let n = 100_000u64;
        let total: u64 = (0..n).map(|_| w.next_ref().gap_instrs as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 20.0).abs() < 1.0, "gap mean {mean}");
    }

    #[test]
    fn hot_pages_are_reused_more_than_uniform() {
        let mut p = small_profile();
        p.zipf_skew = 1.2;
        p.hot_visit_frac = 1.0;
        let w = SyntheticWorkload::new(p, 6, 0);
        let counts = page_access_counts(w, 200_000);
        let max = *counts.values().max().unwrap();
        let total: u64 = counts.values().sum();
        // Under uniform selection each page would get ~total/1000; Zipf
        // 1.2 concentrates far more on the top page.
        assert!(max as f64 > 20.0 * total as f64 / 1000.0);
    }

    #[test]
    fn stream_visits_fresh_pages_when_region_large() {
        let mut p = small_profile();
        p.hot_visit_frac = 0.0;
        p.stream_region_factor = 100.0;
        p.stream_blocks_per_visit = 1.0;
        p.mean_repeats_per_block = 1.0;
        let w = SyntheticWorkload::new(p, 7, 0);
        let counts = page_access_counts(w, 20_000);
        // Nearly every visited page is visited once: singleton behaviour.
        let singletons = counts.values().filter(|&&c| c <= 2).count();
        assert!(singletons as f64 > 0.9 * counts.len() as f64);
    }

    #[test]
    fn spatial_runs_touch_consecutive_blocks() {
        let mut p = small_profile();
        p.mean_blocks_per_visit = 32.0;
        p.mean_repeats_per_block = 1.0;
        p.hot_visit_frac = 1.0;
        let mut w = SyntheticWorkload::new(p, 8, 0);
        let mut consecutive = 0;
        let mut prev: Option<(u64, u64)> = None;
        for _ in 0..10_000 {
            let r = w.next_ref();
            let key = (r.vaddr.page().0, r.vaddr.block_in_page());
            if let Some((pv, pb)) = prev {
                if pv == key.0 && (key.1 == (pb + 1) % 64 || key.1 == pb) {
                    consecutive += 1;
                }
            }
            prev = Some(key);
        }
        assert!(consecutive > 8_000, "only {consecutive} sequential steps");
    }

    #[test]
    fn real_profiles_generate() {
        for p in profiles::spec_profiles() {
            let mut w = SyntheticWorkload::new(p.clone(), 42, 0);
            for _ in 0..1000 {
                let _ = w.next_ref();
            }
            assert_eq!(w.label(), p.name);
        }
    }

    #[test]
    fn access_counts_profile_sums_to_n() {
        let w = SyntheticWorkload::new(small_profile(), 9, 0);
        let counts = page_access_counts(w, 5000);
        assert_eq!(counts.values().sum::<u64>(), 5000);
    }
}
