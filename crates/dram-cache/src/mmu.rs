//! Per-core MMU: two-level TLB plus the page-walk cost model.
//!
//! The same hardware serves as a conventional TLB (baselines) or as the
//! cache-map TLB (tagless design) — only the payload of the entries
//! differs, which is the paper's central observation (§3.2).

use crate::walker_model::WalkerModel;
use tdc_dram::DramController;
use tdc_tlb::{Tlb, TlbEntry};
use tdc_util::probe::{NoProbe, Probe};
use tdc_util::{Cycle, Vpn};

/// TLB hierarchy shape and latencies (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuParams {
    /// L1 TLB entries (fully associative).
    pub l1_entries: u32,
    /// L2 TLB entries.
    pub l2_entries: u32,
    /// L2 TLB associativity.
    pub l2_ways: u32,
    /// Extra cycles for an access satisfied by the L2 TLB.
    pub l2_latency: Cycle,
}

impl MmuParams {
    /// Table 3 defaults: 32-entry L1 (data side), 512-entry 8-way L2,
    /// 7-cycle L2 latency.
    pub fn paper_default() -> Self {
        Self {
            l1_entries: 32,
            l2_entries: 512,
            l2_ways: 8,
            l2_latency: 7,
        }
    }
}

/// Result of a TLB hierarchy lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbQuery {
    /// L1 TLB hit: zero penalty.
    L1Hit(TlbEntry),
    /// L2 TLB hit: pays the L2 TLB latency.
    L2Hit(TlbEntry),
    /// Miss in both levels; the miss handler must run.
    Miss,
}

/// One core's MMU.
#[derive(Debug, Clone)]
pub struct Mmu<P: Probe = NoProbe> {
    l1: Tlb<P>,
    l2: Tlb<P>,
    walker: WalkerModel,
    params: MmuParams,
}

impl Mmu {
    /// Builds an MMU for a core running in address space `asid`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters describe an impossible TLB shape.
    pub fn new(params: MmuParams, asid: u32) -> Self {
        Self::with_probe(params, asid, NoProbe)
    }
}

impl<P: Probe + Clone> Mmu<P> {
    /// Builds an instrumented MMU; both TLB levels report into `probe`
    /// (tagged level 1 and 2).
    ///
    /// # Panics
    ///
    /// Panics if the parameters describe an impossible TLB shape.
    pub fn with_probe(params: MmuParams, asid: u32, probe: P) -> Self {
        Self {
            l1: Tlb::with_probe(params.l1_entries, params.l1_entries, 1, probe.clone())
                .expect("valid L1 TLB shape"),
            l2: Tlb::with_probe(params.l2_entries, params.l2_ways, 2, probe)
                .expect("valid L2 TLB shape"),
            walker: WalkerModel::new(asid),
            params,
        }
    }
}

impl<P: Probe> Mmu<P> {
    /// The configured parameters.
    pub fn params(&self) -> &MmuParams {
        &self.params
    }

    /// Looks up `vpn`, promoting L2 hits into L1.
    pub fn lookup(&mut self, vpn: Vpn) -> TlbQuery {
        self.lookup_at(0, vpn)
    }

    /// [`Mmu::lookup`] with an explicit cycle stamp for probe events.
    pub fn lookup_at(&mut self, now: Cycle, vpn: Vpn) -> TlbQuery {
        if let Some(e) = self.l1.lookup_at(now, vpn) {
            return TlbQuery::L1Hit(e);
        }
        if let Some(e) = self.l2.lookup_at(now, vpn) {
            // Promote to L1; the L1 victim stays resident in L2
            // (inclusive hierarchy).
            self.l1.insert_at(now, vpn, e);
            return TlbQuery::L2Hit(e);
        }
        TlbQuery::Miss
    }

    /// Installs a translation in both levels (miss handler return path).
    pub fn insert(&mut self, vpn: Vpn, entry: TlbEntry) {
        self.insert_at(0, vpn, entry);
    }

    /// [`Mmu::insert`] with an explicit cycle stamp for probe events.
    pub fn insert_at(&mut self, now: Cycle, vpn: Vpn, entry: TlbEntry) {
        self.l2.insert_at(now, vpn, entry);
        self.l1.insert_at(now, vpn, entry);
    }

    /// Residence probe for the GIPT's TLB bit vector: is `vpn` mapped by
    /// either level?
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.l1.contains(vpn) || self.l2.contains(vpn)
    }

    /// TLB shootdown of one mapping.
    pub fn invalidate(&mut self, vpn: Vpn) {
        self.l1.invalidate(vpn);
        self.l2.invalidate(vpn);
    }

    /// Runs the page walk, charging PTE misses to off-package DRAM;
    /// returns the completion time.
    pub fn walk<Q: Probe>(
        &mut self,
        now: Cycle,
        vpn: Vpn,
        off_pkg: &mut DramController<Q>,
    ) -> Cycle {
        self.walker.walk(now, vpn, off_pkg)
    }

    /// Combined L1 miss count (references that had to consult L2 or
    /// walk).
    pub fn l1_misses(&self) -> u64 {
        self.l1.misses()
    }

    /// Full-hierarchy miss count (references that required a walk).
    pub fn full_misses(&self) -> u64 {
        self.l2.misses()
    }

    /// Total lookups observed at L1.
    pub fn lookups(&self) -> u64 {
        self.l1.hits() + self.l1.misses()
    }
}

/// Conventional translation front-end shared by the non-tagless
/// organizations: per-core two-level TLBs over per-process page tables,
/// with VA→PA payloads only.
#[derive(Debug, Clone)]
pub struct ConventionalFront {
    mmus: Vec<Mmu>,
    core_asid: Vec<u32>,
    page_tables: Vec<tdc_tlb::PageTable>,
}

/// Result of a conventional translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvTranslation {
    /// Resolved physical page.
    pub ppn: tdc_util::Ppn,
    /// Added latency (0 on an L1 TLB hit).
    pub penalty: Cycle,
    /// Whether the L1 TLB hit.
    pub l1_hit: bool,
}

impl ConventionalFront {
    /// Builds the front-end for `core_asid.len()` cores; cores sharing an
    /// asid share a page table.
    pub fn new(params: MmuParams, core_asid: &[u32]) -> Self {
        let spaces = core_asid.iter().copied().max().unwrap_or(0) + 1;
        Self {
            mmus: core_asid.iter().map(|&a| Mmu::new(params, a)).collect(),
            core_asid: core_asid.to_vec(),
            page_tables: (0..spaces).map(tdc_tlb::PageTable::new).collect(),
        }
    }

    /// Translates `vpn` for `core`, walking on a full TLB miss; PTE
    /// fetch misses are charged to `off_pkg`.
    pub fn translate(
        &mut self,
        now: Cycle,
        core: usize,
        vpn: Vpn,
        off_pkg: &mut DramController,
    ) -> ConvTranslation {
        let asid = self.core_asid[core] as usize;
        let mmu = &mut self.mmus[core];
        match mmu.lookup(vpn) {
            TlbQuery::L1Hit(e) => ConvTranslation {
                ppn: expect_phys(e),
                penalty: 0,
                l1_hit: true,
            },
            TlbQuery::L2Hit(e) => ConvTranslation {
                ppn: expect_phys(e),
                penalty: mmu.params.l2_latency,
                l1_hit: false,
            },
            TlbQuery::Miss => {
                let t = mmu.walk(now + mmu.params.l2_latency, vpn, off_pkg);
                let pte = self.page_tables[asid].translate_or_fault(vpn);
                let ppn = match pte.frame {
                    tdc_tlb::Translation::Physical(p) => p,
                    tdc_tlb::Translation::Cache(_) => {
                        unreachable!("conventional PTEs never hold cache addresses")
                    }
                };
                // Fixed-capacity set-associative TLB fill: it displaces
                // a slot in place, no heap allocation behind it.
                mmu.insert(vpn, TlbEntry::physical(ppn, pte.nc));
                ConvTranslation {
                    ppn,
                    penalty: t - now,
                    l1_hit: false,
                }
            }
        }
    }

    /// Fraction of lookups that missed the whole TLB hierarchy.
    pub fn full_miss_rate(&self) -> f64 {
        let (miss, total) = self
            .mmus
            .iter()
            .fold((0, 0), |(m, t), mmu| (m + mmu.full_misses(), t + mmu.lookups()));
        if total == 0 {
            0.0
        } else {
            miss as f64 / total as f64
        }
    }
}

fn expect_phys(e: TlbEntry) -> tdc_util::Ppn {
    match e.frame {
        tdc_tlb::Translation::Physical(p) => p,
        tdc_tlb::Translation::Cache(_) => {
            unreachable!("conventional TLB entries never hold cache addresses")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_dram::DramConfig;
    use tdc_tlb::Translation;
    use tdc_util::{Cpn, Ppn};

    fn mmu() -> Mmu {
        Mmu::new(MmuParams::paper_default(), 0)
    }

    fn phys(n: u64) -> TlbEntry {
        TlbEntry::physical(Ppn(n), false)
    }

    #[test]
    fn miss_then_hit_after_insert() {
        let mut m = mmu();
        assert_eq!(m.lookup(Vpn(1)), TlbQuery::Miss);
        m.insert(Vpn(1), phys(9));
        assert_eq!(m.lookup(Vpn(1)), TlbQuery::L1Hit(phys(9)));
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut m = mmu();
        // Fill L1 beyond capacity so the first vpn falls back to L2.
        for v in 0..64u64 {
            m.insert(Vpn(v), phys(v));
        }
        // Vpn 0 was evicted from the 32-entry L1 but is in the 512-entry
        // L2.
        assert_eq!(m.lookup(Vpn(0)), TlbQuery::L2Hit(phys(0)));
        // Promoted: second lookup hits L1.
        assert_eq!(m.lookup(Vpn(0)), TlbQuery::L1Hit(phys(0)));
    }

    #[test]
    fn residence_covers_both_levels() {
        let mut m = mmu();
        for v in 0..64u64 {
            m.insert(Vpn(v), phys(v));
        }
        assert!(m.contains(Vpn(0)), "L2-only entry still resident");
        assert!(!m.contains(Vpn(1000)));
    }

    #[test]
    fn shootdown_clears_both_levels() {
        let mut m = mmu();
        m.insert(Vpn(5), TlbEntry::cache(Cpn(2), false));
        m.invalidate(Vpn(5));
        assert!(!m.contains(Vpn(5)));
        assert_eq!(m.lookup(Vpn(5)), TlbQuery::Miss);
    }

    #[test]
    fn ctlb_payload_roundtrips() {
        let mut m = mmu();
        m.insert(Vpn(3), TlbEntry::cache(Cpn(77), false));
        match m.lookup(Vpn(3)) {
            TlbQuery::L1Hit(e) => assert_eq!(e.frame, Translation::Cache(Cpn(77))),
            q => panic!("unexpected {q:?}"),
        }
    }

    #[test]
    fn walk_delegates_to_walker() {
        let mut m = mmu();
        let mut mem = DramController::new(DramConfig::off_package_8gb());
        let done = m.walk(10, Vpn(42), &mut mem);
        assert!(done > 10);
    }

    #[test]
    fn conventional_front_translates_and_caches() {
        let mut f = ConventionalFront::new(MmuParams::paper_default(), &[0, 1]);
        let mut mem = DramController::new(DramConfig::off_package_8gb());
        let t1 = f.translate(0, 0, Vpn(5), &mut mem);
        assert!(!t1.l1_hit);
        assert!(t1.penalty > 0);
        let t2 = f.translate(t1.penalty, 0, Vpn(5), &mut mem);
        assert!(t2.l1_hit);
        assert_eq!(t2.penalty, 0);
        assert_eq!(t1.ppn, t2.ppn);
        // Different asid => different frame for the same vpn.
        let t3 = f.translate(0, 1, Vpn(5), &mut mem);
        assert_ne!(t3.ppn, t1.ppn);
        assert!(f.full_miss_rate() > 0.0);
    }

    #[test]
    fn miss_counters_track_hierarchy() {
        let mut m = mmu();
        m.lookup(Vpn(1)); // full miss
        m.insert(Vpn(1), phys(1));
        m.lookup(Vpn(1)); // L1 hit
        assert_eq!(m.full_misses(), 1);
        assert_eq!(m.l1_misses(), 1);
        assert_eq!(m.lookups(), 2);
    }
}
