//! SRAM tag-array size/latency/energy model (CACTI-6.5 substitute).
//!
//! The paper models the SRAM-tag baseline's tag array with CACTI 6.5 and
//! reports Table 6:
//!
//! | cache size | 128MB | 256MB | 512MB | 1GB |
//! |------------|------:|------:|------:|----:|
//! | tag size   | 0.5MB | 1MB   | 2MB   | 4MB |
//! | latency    | 5 cyc | 6 cyc | 9 cyc | 11 cyc |
//!
//! We reproduce those four points exactly and extrapolate beyond them
//! with a log-linear fit (latency grows ~2 cycles per doubling at the
//! high end, reflecting wordline/bitline scaling in CACTI). Per-probe
//! energy uses a CACTI-like `E ∝ sqrt(size)` scaling anchored at
//! 0.4 nJ for the 4MB array; this constant only affects the magnitude of
//! the SRAM-tag baseline's energy penalty, not who wins.

use tdc_util::{Cycle, PAGE_SIZE};

/// Analytic model of a page-granularity SRAM tag array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagArrayModel {
    cache_bytes: u64,
}

/// Bytes of tag+metadata storage per 4KB cache entry (Table 6 implies
/// 16B per entry: 4MB of tags for 1GB / 4KB = 256K entries).
pub const TAG_BYTES_PER_ENTRY: u64 = 16;

impl TagArrayModel {
    /// Creates a model for a DRAM cache of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cache_bytes` is smaller than one page.
    pub fn new(cache_bytes: u64) -> Self {
        assert!(
            cache_bytes >= PAGE_SIZE,
            "cache must hold at least one page"
        );
        Self { cache_bytes }
    }

    /// Number of page entries the tag array covers.
    pub fn entries(&self) -> u64 {
        self.cache_bytes / PAGE_SIZE
    }

    /// Tag array storage in bytes.
    pub fn tag_bytes(&self) -> u64 {
        self.entries() * TAG_BYTES_PER_ENTRY
    }

    /// Tag array storage in megabytes.
    pub fn tag_mb(&self) -> f64 {
        self.tag_bytes() as f64 / (1 << 20) as f64
    }

    /// Tag probe latency in CPU cycles (Table 6 for the paper's sizes,
    /// log-linear extrapolation elsewhere).
    pub fn latency_cycles(&self) -> Cycle {
        match self.cache_bytes {
            b if b <= 128 << 20 => 5,
            b if b <= 256 << 20 => 6,
            b if b <= 512 << 20 => 9,
            b if b <= 1 << 30 => 11,
            b => {
                // +2 cycles per doubling beyond 1GB.
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a cache has at most 64 doublings"
                )]
                let doublings = ((b as f64) / (1u64 << 30) as f64).log2().ceil() as Cycle;
                11 + 2 * doublings
            }
        }
    }

    /// Energy of one tag probe, in pJ (`E ∝ sqrt(size)`, anchored at
    /// 400 pJ for the 1GB cache's 4MB array).
    pub fn probe_energy_pj(&self) -> f64 {
        400.0 * (self.tag_mb() / 4.0).sqrt()
    }

    /// Static leakage power of the array, in mW (20 mW per MB — a
    /// representative 32nm SRAM figure).
    pub fn leakage_mw(&self) -> f64 {
        20.0 * self.tag_mb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_tag_sizes() {
        assert_eq!(TagArrayModel::new(128 << 20).tag_bytes(), 512 << 10);
        assert_eq!(TagArrayModel::new(256 << 20).tag_bytes(), 1 << 20);
        assert_eq!(TagArrayModel::new(512 << 20).tag_bytes(), 2 << 20);
        assert_eq!(TagArrayModel::new(1 << 30).tag_bytes(), 4 << 20);
    }

    #[test]
    fn table6_latencies() {
        assert_eq!(TagArrayModel::new(128 << 20).latency_cycles(), 5);
        assert_eq!(TagArrayModel::new(256 << 20).latency_cycles(), 6);
        assert_eq!(TagArrayModel::new(512 << 20).latency_cycles(), 9);
        assert_eq!(TagArrayModel::new(1 << 30).latency_cycles(), 11);
    }

    #[test]
    fn latency_extrapolates_beyond_1gb() {
        assert_eq!(TagArrayModel::new(2 << 30).latency_cycles(), 13);
        assert_eq!(TagArrayModel::new(4 << 30).latency_cycles(), 15);
        assert_eq!(TagArrayModel::new(16u64 << 30).latency_cycles(), 19);
    }

    #[test]
    fn entries_match_paper() {
        // "SRAM-tag Array: 16-way, 256K entries" (Table 3, 1GB cache).
        assert_eq!(TagArrayModel::new(1 << 30).entries(), 256 * 1024);
    }

    #[test]
    fn energy_grows_with_size() {
        let small = TagArrayModel::new(128 << 20).probe_energy_pj();
        let big = TagArrayModel::new(1 << 30).probe_energy_pj();
        assert!(big > small);
        assert!((big - 400.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_scales_linearly() {
        assert!((TagArrayModel::new(1 << 30).leakage_mw() - 80.0).abs() < 1e-9);
        assert!((TagArrayModel::new(512 << 20).leakage_mw() - 40.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn rejects_tiny_cache() {
        let _ = TagArrayModel::new(1024);
    }
}
