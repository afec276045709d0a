//! Page-table entries and per-process page tables.

use tdc_util::flat::FlatMap;
use tdc_util::{Cpn, Ppn, Vpn};

/// Where a virtual page currently resolves to.
///
/// In the tagless design the PTE's frame field is *overwritten* with the
/// cache address while the page is resident in the DRAM cache (VC=1);
/// the original physical address is recoverable only through the GIPT
/// (paper §3.2). This enum models that faithfully: a PTE holds exactly
/// one of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Translation {
    /// Conventional mapping to off-package physical memory (VC=0).
    Physical(Ppn),
    /// Mapping into the in-package DRAM cache (VC=1).
    Cache(Cpn),
}

impl Translation {
    /// Whether this is a cache (VC=1) mapping.
    pub fn is_cached(&self) -> bool {
        matches!(self, Translation::Cache(_))
    }
}

/// A page-table entry with the paper's extra flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Current frame mapping; `Translation::Cache` implies VC=1.
    pub frame: Translation,
    /// Non-Cacheable bit: the page bypasses the DRAM cache (but not the
    /// on-die SRAM caches).
    pub nc: bool,
    /// Pending-Update bit: a cache fill for this page is in flight;
    /// concurrent TLB misses must wait instead of issuing a duplicate
    /// fill.
    pub pu: bool,
    /// Dirty bit (the page has been written since it was loaded/filled).
    pub dirty: bool,
    /// Accessed bit.
    pub accessed: bool,
}

impl Pte {
    /// A fresh entry mapping to physical memory.
    pub fn physical(ppn: Ppn) -> Self {
        Self {
            frame: Translation::Physical(ppn),
            nc: false,
            pu: false,
            dirty: false,
            accessed: false,
        }
    }

    /// VC bit: whether the page is valid in the DRAM cache.
    pub fn valid_in_cache(&self) -> bool {
        self.frame.is_cached()
    }
}

/// A per-process page table with demand allocation of physical frames.
///
/// Physical frames are handed out by a deterministic per-process
/// allocator: process `asid`'s pages land in a contiguous region of the
/// off-package physical space, scattered page-by-page with a multiplicative
/// hash so that consecutive virtual pages do not map to consecutive
/// physical pages (as after real OS fragmentation). This matters for the
/// set-indexing behaviour of the SRAM-tag baseline.
///
/// Storage is flat (DESIGN.md §15): PTEs live in a dense `Vec` in
/// first-touch order, reached through an open-addressed VPN index
/// ([`FlatMap`]) — the `BTreeMap` this replaced is kept as the
/// `#[cfg(test)]` reference model below. Frame assignment depends only
/// on the first-touch *sequence*, which both layouts share, so the
/// switch cannot move a single page.
#[derive(Debug, Clone)]
pub struct PageTable {
    asid: u32,
    /// `vpn → dense slot` index; the only structure probed on lookups.
    index: FlatMap<u32>,
    /// PTE storage, dense in first-touch order.
    ptes: Vec<Pte>,
    /// VPN per dense slot (for iteration and diagnostics).
    vpns: Vec<Vpn>,
    next_seq: u64,
}

/// Number of physical pages reserved per address space (8GB / 4KB / 4
/// processes would be 512K; we give each space a 2M-page = 8GB window
/// wrapped modulo the region so footprints never collide between
/// processes sharing off-package memory in multi-programmed runs).
const PAGES_PER_ASID_REGION: u64 = 1 << 21;

impl PageTable {
    /// Creates an empty page table for address-space `asid`.
    pub fn new(asid: u32) -> Self {
        Self {
            asid,
            index: FlatMap::new(),
            ptes: Vec::new(),
            vpns: Vec::new(),
            next_seq: 0,
        }
    }

    /// The address-space identifier.
    pub fn asid(&self) -> u32 {
        self.asid
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.ptes.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.ptes.is_empty()
    }

    /// Looks up a PTE without faulting.
    #[inline]
    pub fn get(&self, vpn: Vpn) -> Option<&Pte> {
        self.index.get(vpn.0).map(|i| &self.ptes[i as usize])
    }

    /// Mutable lookup without faulting.
    #[inline]
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.index.get(vpn.0).map(|i| &mut self.ptes[i as usize])
    }

    /// Returns the PTE for `vpn`, allocating a physical frame on first
    /// touch (demand paging).
    #[inline]
    pub fn translate_or_fault(&mut self, vpn: Vpn) -> &mut Pte {
        if let Some(i) = self.index.get(vpn.0) {
            return &mut self.ptes[i as usize];
        }
        self.fault_in(vpn, None)
    }

    /// Demand paging allocates the PTE exactly once per page, on first
    /// touch; warm re-translations land on the occupied entry above.
    fn fault_in(&mut self, vpn: Vpn, frame: Option<Ppn>) -> &mut Pte {
        let ppn = frame.unwrap_or_else(|| {
            let s = self.next_seq;
            self.next_seq += 1;
            Self::frame_for(self.asid, s)
        });
        let slot = self.ptes.len();
        debug_assert!(slot <= u32::MAX as usize, "page table exceeds u32 slots");
        self.ptes.push(Pte::physical(ppn));
        self.vpns.push(vpn);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "slot bound debug_assert-pinned above"
        )]
        let old = self.index.insert(vpn.0, slot as u32);
        debug_assert!(old.is_none(), "VPN {vpn:?} double-faulted");
        &mut self.ptes[slot]
    }

    /// Deterministic scattered frame assignment.
    fn frame_for(asid: u32, seq: u64) -> Ppn {
        let region_base = asid as u64 * PAGES_PER_ASID_REGION;
        // Odd multiplier => bijection modulo the power-of-two region.
        let scattered = seq.wrapping_mul(0x9E37_79B9) & (PAGES_PER_ASID_REGION - 1);
        Ppn(region_base + scattered)
    }

    /// Marks a page non-cacheable (used by the §5.4 profiling study and
    /// for cross-process shared pages).
    ///
    /// # Panics
    ///
    /// Panics if the page is currently cached (the OS must evict before
    /// re-flagging).
    pub fn set_non_cacheable(&mut self, vpn: Vpn) {
        let pte = self.translate_or_fault(vpn);
        assert!(
            !pte.valid_in_cache(),
            "cannot flag a cached page non-cacheable"
        );
        pte.nc = true;
    }

    /// Maps `vpn` to an explicit (possibly shared) physical frame, used
    /// for pages shared across address spaces.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped.
    pub fn map_shared(&mut self, vpn: Vpn, ppn: Ppn) {
        assert!(!self.index.contains_key(vpn.0), "page already mapped");
        self.fault_in(vpn, Some(ppn));
    }

    /// Iterates over all mapped `(vpn, pte)` pairs in VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vpn, &Pte)> {
        let mut order: Vec<usize> = (0..self.vpns.len()).collect();
        order.sort_by_key(|&i| self.vpns[i]);
        order.into_iter().map(move |i| (&self.vpns[i], &self.ptes[i]))
    }
}

impl std::ops::Index<Vpn> for PageTable {
    type Output = Pte;

    /// Panics if `vpn` is unmapped (use [`PageTable::get`] to probe).
    #[expect(clippy::panic, reason = "documented panicking accessor")]
    fn index(&self, vpn: Vpn) -> &Pte {
        self.get(vpn)
            .unwrap_or_else(|| panic!("PageTable: {vpn:?} not mapped"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_util::Cpn;

    #[test]
    fn demand_allocation_is_stable() {
        let mut pt = PageTable::new(1);
        let p1 = pt.translate_or_fault(Vpn(10)).frame;
        let p2 = pt.translate_or_fault(Vpn(10)).frame;
        assert_eq!(p1, p2);
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn distinct_vpns_get_distinct_frames() {
        let mut pt = PageTable::new(0);
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..10_000u64 {
            let Translation::Physical(ppn) = pt.translate_or_fault(Vpn(v)).frame else {
                panic!("fresh page must be physical");
            };
            assert!(seen.insert(ppn), "duplicate frame {ppn:?}");
        }
    }

    #[test]
    fn frames_are_scattered_not_sequential() {
        let mut pt = PageTable::new(0);
        let Translation::Physical(a) = pt.translate_or_fault(Vpn(0)).frame else {
            unreachable!()
        };
        let Translation::Physical(b) = pt.translate_or_fault(Vpn(1)).frame else {
            unreachable!()
        };
        assert_ne!(b.0, a.0 + 1, "consecutive VPNs must not be contiguous");
    }

    #[test]
    fn asid_regions_do_not_overlap() {
        let mut pt0 = PageTable::new(0);
        let mut pt1 = PageTable::new(1);
        let Translation::Physical(a) = pt0.translate_or_fault(Vpn(5)).frame else {
            unreachable!()
        };
        let Translation::Physical(b) = pt1.translate_or_fault(Vpn(5)).frame else {
            unreachable!()
        };
        assert!(a.0 < PAGES_PER_ASID_REGION);
        assert!(b.0 >= PAGES_PER_ASID_REGION);
    }

    #[test]
    fn vc_bit_tracks_frame_kind() {
        let mut pte = Pte::physical(Ppn(3));
        assert!(!pte.valid_in_cache());
        pte.frame = Translation::Cache(Cpn(0));
        assert!(pte.valid_in_cache());
    }

    #[test]
    fn nc_flagging() {
        let mut pt = PageTable::new(0);
        pt.set_non_cacheable(Vpn(7));
        assert!(pt.get(Vpn(7)).unwrap().nc);
    }

    #[test]
    #[should_panic(expected = "cannot flag a cached page")]
    fn nc_on_cached_page_panics() {
        let mut pt = PageTable::new(0);
        pt.translate_or_fault(Vpn(7)).frame = Translation::Cache(Cpn(1));
        pt.set_non_cacheable(Vpn(7));
    }

    #[test]
    fn index_accessor_and_sorted_iteration() {
        let mut pt = PageTable::new(0);
        // Touch out of order; iteration must come back VPN-sorted (the
        // order the old BTreeMap guaranteed).
        for v in [9u64, 2, 500, 41] {
            pt.translate_or_fault(Vpn(v));
        }
        assert_eq!(pt[Vpn(9)], *pt.get(Vpn(9)).unwrap());
        let order: Vec<u64> = pt.iter().map(|(v, _)| v.0).collect();
        assert_eq!(order, vec![2, 9, 41, 500]);
    }

    #[test]
    #[should_panic(expected = "not mapped")]
    fn index_accessor_panics_on_unmapped() {
        let pt = PageTable::new(0);
        let _ = pt[Vpn(3)];
    }

    #[test]
    #[should_panic(expected = "page already mapped")]
    fn map_shared_over_mapped_page_panics() {
        let mut pt = PageTable::new(0);
        pt.translate_or_fault(Vpn(1));
        pt.map_shared(Vpn(1), Ppn(77));
    }
}

/// Differential tests: the flat page table against the original
/// `BTreeMap`-backed model (DESIGN.md §15). Frame assignment must match
/// *exactly* — it feeds the SRAM-tag baseline's set indexing, so a
/// single diverging PPN would shift figure bytes.
#[cfg(test)]
mod differential {
    use super::*;
    use std::collections::BTreeMap;
    use tdc_util::testkit::{assert_equiv, XorShift64};

    /// The pre-refactor implementation, verbatim in behaviour.
    struct RefPageTable {
        asid: u32,
        entries: BTreeMap<Vpn, Pte>,
        next_seq: u64,
    }

    impl RefPageTable {
        fn new(asid: u32) -> Self {
            Self {
                asid,
                entries: BTreeMap::new(),
                next_seq: 0,
            }
        }

        fn translate_or_fault(&mut self, vpn: Vpn) -> &mut Pte {
            let asid = self.asid;
            let seq = &mut self.next_seq;
            self.entries.entry(vpn).or_insert_with(|| {
                let s = *seq;
                *seq += 1;
                let region_base = asid as u64 * PAGES_PER_ASID_REGION;
                let scattered = s.wrapping_mul(0x9E37_79B9) & (PAGES_PER_ASID_REGION - 1);
                Pte::physical(Ppn(region_base + scattered))
            })
        }

        fn map_shared(&mut self, vpn: Vpn, ppn: Ppn) -> bool {
            if self.entries.contains_key(&vpn) {
                return false;
            }
            self.entries.insert(vpn, Pte::physical(ppn));
            true
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Demand-fault (or re-translate) a page, then flip some PTE
        /// bits so state beyond the frame is exercised too.
        Touch(u64, bool, bool),
        /// Probe without faulting.
        Get(u64),
        /// Map an explicit shared frame (skipped if already mapped, so
        /// traces never hit the documented panic).
        Share(u64, u64),
        /// Flip a cached page's mapping to a cache frame and back, as
        /// fill/evict do.
        CacheFlip(u64),
    }

    fn replay(ops: &[Op]) -> Result<(), String> {
        let mut flat = PageTable::new(3);
        let mut reference = RefPageTable::new(3);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Touch(v, dirty, accessed) => {
                    let a = flat.translate_or_fault(Vpn(v));
                    a.dirty |= dirty;
                    a.accessed |= accessed;
                    let a = *a;
                    let b = reference.translate_or_fault(Vpn(v));
                    b.dirty |= dirty;
                    b.accessed |= accessed;
                    if a != *b {
                        return Err(format!(
                            "step {i} {op:?}: pte mismatch flat={a:?} ref={b:?}"
                        ));
                    }
                }
                Op::Get(v) => {
                    let a = flat.get(Vpn(v)).copied();
                    let b = reference.entries.get(&Vpn(v)).copied();
                    if a != b {
                        return Err(format!(
                            "step {i} {op:?}: get mismatch flat={a:?} ref={b:?}"
                        ));
                    }
                }
                Op::Share(v, p) => {
                    if reference.map_shared(Vpn(v), Ppn(p)) {
                        flat.map_shared(Vpn(v), Ppn(p));
                    }
                }
                Op::CacheFlip(v) => {
                    for pte in [
                        flat.get_mut(Vpn(v)),
                        reference.entries.get_mut(&Vpn(v)),
                    ]
                    .into_iter()
                    .flatten()
                    {
                        pte.frame = match pte.frame {
                            Translation::Physical(p) => Translation::Cache(Cpn(p.0 % 1024)),
                            Translation::Cache(c) => {
                                Translation::Physical(Ppn(c.0))
                            }
                        };
                    }
                }
            }
            if flat.len() != reference.entries.len() {
                return Err(format!(
                    "step {i} {op:?}: len mismatch flat={} ref={}",
                    flat.len(),
                    reference.entries.len()
                ));
            }
        }
        // Full-state sweep: identical mapped set in identical order.
        let a: Vec<(u64, Pte)> = flat.iter().map(|(v, p)| (v.0, *p)).collect();
        let b: Vec<(u64, Pte)> = reference.entries.iter().map(|(v, p)| (v.0, *p)).collect();
        if a != b {
            return Err(format!(
                "final sweep mismatch: flat has {} pages, ref {}",
                a.len(),
                b.len()
            ));
        }
        Ok(())
    }

    /// Trace family 1: streaming first-touch (mostly-new VPNs, the
    /// demand-paging order that pins frame assignment).
    fn streaming_trace(rng: &mut XorShift64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|i| Op::Touch(i as u64 * 3 + rng.below(3), rng.chance(20), true))
            .collect()
    }

    /// Trace family 2: skewed re-touch with PTE bit churn and cache
    /// flips (warm translations must never re-allocate).
    fn retouch_trace(rng: &mut XorShift64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let v = rng.below(200);
                match rng.below(4) {
                    0 => Op::Get(v),
                    1 => Op::CacheFlip(v),
                    _ => Op::Touch(v, rng.chance(50), rng.chance(50)),
                }
            })
            .collect()
    }

    /// Trace family 3: shared mappings interleaved with demand faults
    /// (the multi-process consolidation shape).
    fn shared_trace(rng: &mut XorShift64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let v = rng.below(300);
                if rng.chance(25) {
                    Op::Share(v, 0xF00_000 + rng.below(64))
                } else {
                    Op::Touch(v, false, rng.chance(30))
                }
            })
            .collect()
    }

    #[test]
    fn streaming_family_matches_reference() {
        for seed in 1..=4u64 {
            let mut rng = XorShift64::new(seed);
            let ops = streaming_trace(&mut rng, 3000);
            assert_equiv("page_table/streaming", &ops, replay);
        }
    }

    #[test]
    fn retouch_family_matches_reference() {
        for seed in 10..=13u64 {
            let mut rng = XorShift64::new(seed);
            let ops = retouch_trace(&mut rng, 3000);
            assert_equiv("page_table/retouch", &ops, replay);
        }
    }

    #[test]
    fn shared_family_matches_reference() {
        for seed in 20..=23u64 {
            let mut rng = XorShift64::new(seed);
            let ops = shared_trace(&mut rng, 2000);
            assert_equiv("page_table/shared", &ops, replay);
        }
    }
}
