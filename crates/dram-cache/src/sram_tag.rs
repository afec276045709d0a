//! The SRAM-tag page-based DRAM cache baseline (paper §4, Fig. 1).
//!
//! A 16-way set-associative, 4KB-granularity cache of the in-package
//! DRAM with an on-die SRAM tag array (Table 6 latency/storage) that is
//! probed on the critical path of *every* L3 access, hit or miss — the
//! overhead the tagless design eliminates. LRU replacement within each
//! set. This models the common baseline of Footprint/Unison-style
//! page caches before their footprint optimizations.

use crate::l3::{Frame, L3Stats, L3System, MemoryOutcome, SystemParams, TranslationOutcome};
use crate::mmu::ConventionalFront;
use tdc_dram::{AccessKind, DramController, DramStats};
use tdc_sram_cache::{CacheGeometry, Replacement, SetAssocCache, TagArrayModel};
use tdc_util::{Cycle, Ppn, Vpn, PAGE_SIZE};

/// Associativity of the page cache (Table 3: "16-way, 256K entries").
const WAYS: u32 = 16;

/// The SRAM-tag baseline.
pub struct SramTagCache {
    front: ConventionalFront,
    tags: SetAssocCache,
    tag_model: TagArrayModel,
    in_pkg: DramController,
    off_pkg: DramController,
    cache_pages: u64,
    stats: L3Stats,
}

impl std::fmt::Debug for SramTagCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SramTagCache")
            .field("entries", &self.cache_pages)
            .field("tag_latency", &self.tag_model.latency_cycles())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SramTagCache {
    /// Builds the baseline for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation.
    pub fn new(params: &SystemParams) -> Self {
        params.validate().expect("valid system parameters");
        let geom = CacheGeometry::new(params.cache_capacity, PAGE_SIZE, WAYS)
            .expect("paper cache sizes divide into 16-way page sets");
        Self {
            front: ConventionalFront::new(params.mmu, &params.core_asid),
            tags: SetAssocCache::new(geom, Replacement::Lru),
            tag_model: TagArrayModel::new(params.tag_nominal_bytes),
            in_pkg: DramController::new(params.in_pkg.clone()),
            off_pkg: DramController::new(params.off_pkg.clone()),
            cache_pages: params.cache_slots(),
            stats: L3Stats::default(),
        }
    }

    /// The tag-array model in use (Table 6 latency/size).
    pub fn tag_model(&self) -> &TagArrayModel {
        &self.tag_model
    }

    /// Pseudo-placement of a physical page in the in-package DRAM: the
    /// timing model only needs a consistent bank/row mapping.
    fn in_pkg_addr(&self, ppn: Ppn, block: u64) -> u64 {
        (ppn.0 % self.cache_pages) * PAGE_SIZE + block * 64
    }

    fn probe_tags(&mut self) -> Cycle {
        self.stats.tag_probes += 1;
        self.stats.tag_energy_pj += self.tag_model.probe_energy_pj();
        self.tag_model.latency_cycles()
    }
}

impl L3System for SramTagCache {
    fn name(&self) -> &'static str {
        "SRAM"
    }

    fn translate(
        &mut self,
        now: Cycle,
        core: usize,
        vpn: Vpn,
        _is_write: bool,
    ) -> TranslationOutcome {
        let t = self.front.translate(now, core, vpn, &mut self.off_pkg);
        TranslationOutcome {
            frame: Frame::Phys(t.ppn),
            nc: false,
            penalty: t.penalty,
            tlb_hit: t.l1_hit,
        }
    }

    fn access(
        &mut self,
        now: Cycle,
        _core: usize,
        frame: Frame,
        _nc: bool,
        block: u64,
    ) -> MemoryOutcome {
        let Frame::Phys(ppn) = frame else {
            unreachable!("SRAM-tag baseline only issues physical frames");
        };
        // Tag probe is on the critical path, hit or miss (Fig. 1).
        let tag_lat = self.probe_tags();
        let t = now + tag_lat;

        let r = self.tags.access_line(ppn.0, false);
        let (latency, in_package) = if r.hit {
            let c = self
                .in_pkg
                .access(t, self.in_pkg_addr(ppn, block), AccessKind::Read, 64);
            (c.first_data - now, true)
        } else {
            // Page-granularity fill: read the page off-package (critical
            // block first), stream it into the cache, and write back a
            // dirty victim off the critical path.
            if let Some(victim) = r.evicted {
                if victim.dirty {
                    let vaddr = self.in_pkg_addr(Ppn(victim.line), 0);
                    let rd = self.in_pkg.access(t, vaddr, AccessKind::Read, PAGE_SIZE);
                    self.off_pkg.access(
                        rd.first_data,
                        Ppn(victim.line).base().0,
                        AccessKind::Write,
                        PAGE_SIZE,
                    );
                    self.stats.dirty_page_writebacks += 1;
                }
                self.stats.page_evictions += 1;
            }
            let rd = self
                .off_pkg
                .access(t, ppn.base().0, AccessKind::Read, PAGE_SIZE);
            self.in_pkg.access(
                rd.first_data,
                self.in_pkg_addr(ppn, 0),
                AccessKind::Write,
                PAGE_SIZE,
            );
            self.stats.page_fills += 1;
            (rd.first_data - now, false)
        };

        self.stats.demand_reads += 1;
        self.stats.demand_latency_sum += latency;
        if in_package {
            self.stats.in_package_reads += 1;
        }
        MemoryOutcome {
            latency,
            in_package,
        }
    }

    fn writeback(&mut self, now: Cycle, _core: usize, frame: Frame, _nc: bool, block: u64) {
        let Frame::Phys(ppn) = frame else {
            unreachable!("SRAM-tag baseline only issues physical frames");
        };
        self.stats.writebacks_in += 1;
        let tag_lat = self.probe_tags();
        let t = now + tag_lat;
        if self.tags.probe_line(ppn.0) {
            // Write hit: dirty the resident page.
            self.tags.access_line(ppn.0, true);
            self.in_pkg
                .access(t, self.in_pkg_addr(ppn, block), AccessKind::Write, 64);
        } else {
            // No write-allocate for L2 writebacks: forward off-package.
            self.off_pkg
                .access(t, ppn.addr(block * 64).0, AccessKind::Write, 64);
        }
    }

    fn stats(&self) -> &L3Stats {
        &self.stats
    }

    fn energy_pj(&self) -> f64 {
        self.in_pkg.stats().energy_pj + self.off_pkg.stats().energy_pj + self.stats.tag_energy_pj
    }

    fn leakage_mw(&self) -> f64 {
        self.tag_model.leakage_mw()
    }

    fn in_pkg_stats(&self) -> Option<&DramStats> {
        Some(self.in_pkg.stats())
    }

    fn off_pkg_stats(&self) -> &DramStats {
        self.off_pkg.stats()
    }

    fn reset_stats(&mut self) {
        let tag_probes_energy = 0.0;
        self.stats = L3Stats::default();
        self.stats.tag_energy_pj = tag_probes_energy;
        self.in_pkg.reset_stats();
        self.off_pkg.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_util::PAGE_SIZE;

    fn params(slots: u64) -> SystemParams {
        SystemParams::with_cache_capacity(slots * PAGE_SIZE)
    }

    fn sram(slots: u64) -> SramTagCache {
        SramTagCache::new(&params(slots))
    }

    #[test]
    fn every_access_pays_tag_latency() {
        let mut s = sram(1024);
        let tr = s.translate(0, 0, Vpn(1), false);
        let miss = s.access(tr.penalty, 0, tr.frame, false, 0);
        let probes_after_miss = s.stats().tag_probes;
        // Issue the hit well after the page fill has drained the buses.
        let hit = s.access(miss.latency + tr.penalty + 100_000, 0, tr.frame, false, 1);
        assert_eq!(probes_after_miss, 1);
        assert_eq!(s.stats().tag_probes, 2, "hit also probes tags");
        assert!(hit.latency >= s.tag_model().latency_cycles());
        assert!(hit.in_package);
        assert!(!miss.in_package);
        assert!(hit.latency < miss.latency);
    }

    #[test]
    fn miss_fills_page_granularity() {
        let mut s = sram(1024);
        let tr = s.translate(0, 0, Vpn(1), false);
        s.access(tr.penalty, 0, tr.frame, false, 0);
        assert_eq!(s.stats().page_fills, 1);
        assert_eq!(s.off_pkg_stats().bytes_read, PAGE_SIZE + 4 * 64);
        // (page + the four PTE walk reads)
        assert_eq!(s.in_pkg_stats().unwrap().bytes_written, PAGE_SIZE);
    }

    #[test]
    fn set_conflicts_evict_sixteen_way() {
        // 16-way: the 17th page mapping to one set evicts the LRU one.
        let mut s = sram(16 * 4); // 4 sets of 16 ways
        let sets = 4u64;
        let mut now = 0;
        // 17 distinct pages that all land in set 0 (ppn % sets == 0).
        // Drive accesses directly with physical frames to control set
        // placement.
        for i in 0..17u64 {
            let m = s.access(now, 0, Frame::Phys(Ppn(i * sets)), false, 0);
            now += m.latency + 10;
        }
        assert_eq!(s.stats().page_fills, 17);
        assert_eq!(s.stats().page_evictions, 1);
        // Re-access the most recent: still a hit.
        let m = s.access(now, 0, Frame::Phys(Ppn(16 * sets)), false, 0);
        assert!(m.in_package);
    }

    #[test]
    fn dirty_victim_writes_back_whole_page() {
        let mut s = sram(16); // one set of 16 ways
        let mut now = 0;
        for i in 0..16u64 {
            let m = s.access(now, 0, Frame::Phys(Ppn(i)), false, 0);
            now += m.latency + 10;
        }
        // Dirty page 0 via a writeback (which also makes it MRU), then
        // displace the entire set with 16 new pages so the dirty page
        // must be written back.
        s.writeback(now, 0, Frame::Phys(Ppn(0)), false, 3);
        let wb_bytes_before = s.off_pkg_stats().bytes_written;
        for i in 16..32u64 {
            let m = s.access(now, 0, Frame::Phys(Ppn(i)), false, 0);
            now += m.latency + 10;
        }
        assert_eq!(s.stats().dirty_page_writebacks, 1);
        assert_eq!(
            s.off_pkg_stats().bytes_written - wb_bytes_before,
            PAGE_SIZE
        );
    }

    #[test]
    fn writeback_to_absent_page_goes_off_package() {
        let mut s = sram(1024);
        let writes_before = s.off_pkg_stats().writes;
        s.writeback(0, 0, Frame::Phys(Ppn(999)), false, 0);
        assert_eq!(s.off_pkg_stats().writes, writes_before + 1);
        assert_eq!(s.stats().page_fills, 0, "no write-allocate");
    }

    #[test]
    fn tag_energy_accumulates() {
        let mut s = sram(1024);
        let tr = s.translate(0, 0, Vpn(1), false);
        s.access(tr.penalty, 0, tr.frame, false, 0);
        assert!(s.stats().tag_energy_pj > 0.0);
        assert!(s.energy_pj() > s.stats().tag_energy_pj);
    }

    #[test]
    fn paper_tag_latency_for_1gb() {
        let s = sram(256 * 1024); // 1GB
        assert_eq!(s.tag_model().latency_cycles(), 11);
    }
}
