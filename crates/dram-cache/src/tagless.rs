//! The fully associative, tagless DRAM cache (the paper's contribution).
//!
//! The cache-map TLB (cTLB) stores VA→CA mappings, so a TLB hit *is* a
//! cache hit: the access proceeds straight to the in-package DRAM with
//! zero tag-checking latency. All cache management happens in the TLB
//! miss handler (paper Fig. 4):
//!
//! 1. page walk to the PTE;
//! 2. if the page is already cached (VC=1) — an **in-package victim
//!    hit** — simply return the cache address;
//! 3. otherwise, if cacheable, set the PU bit, allocate the slot at the
//!    header pointer, insert the GIPT entry (charged conservatively as
//!    two full off-package memory writes, §3.4), copy the page from
//!    off-package DRAM (critical block first), update the PTE with the
//!    cache address, and return;
//! 4. non-cacheable pages (NC=1) keep their VA→PA mapping and bypass the
//!    DRAM cache at 64B granularity.
//!
//! Replacement is asynchronous: victims (never TLB-resident ones) are
//! enqueued into the free queue, keeping α slots free so allocation
//! never waits for a write-back. A pending victim whose mapping returns
//! to a TLB before the daemon runs is rescued (it was a victim hit).

use crate::gipt::{Gipt, GiptEntry};
use crate::l3::{
    AccessCase, Frame, L3Stats, L3System, MemoryOutcome, SystemParams, TranslationOutcome,
};
use crate::mmu::{Mmu, TlbQuery};
use crate::slots::{SlotRing, VictimPolicy};
use std::collections::BTreeMap;
use tdc_dram::{AccessKind, DramController, DramStats};
use tdc_tlb::{walk_addresses, PageTable, TlbEntry, Translation};
use tdc_util::probe::{Device, NoProbe, Phase, Probe, ProbeEvent};
use tdc_util::{Cpn, Cycle, FlatMap, Vpn, PAGE_SIZE};

/// Physical region backing the GIPT itself (its updates are real
/// off-package memory writes).
const GIPT_REGION_BASE: u64 = 0x7100_0000_0000;
/// Bytes charged per GIPT entry update (one 82-bit entry padded to a
/// cache line write).
const GIPT_WRITE_BYTES: u64 = 64;

/// The tagless DRAM cache organization.
pub struct TaglessCache<P: Probe = NoProbe> {
    mmus: Vec<Mmu<P>>,
    core_asid: Vec<u32>,
    page_tables: Vec<PageTable>,
    gipt: Gipt,
    ring: SlotRing,
    in_pkg: DramController<P>,
    off_pkg: DramController<P>,
    probe: P,
    /// PU bit: fills in flight, keyed by [`Self::page_key`], holding the
    /// cycle the copy completes.
    pending_fills: FlatMap<Cycle>,
    alpha: u64,
    stats: L3Stats,
    /// Fills that had to bypass because every slot was TLB-resident
    /// (pathological; requires TLB reach ≈ cache size).
    bypassed_fills: u64,
    /// Online hot-page filter threshold: a page is cached only on its
    /// `fill_threshold`-th TLB-miss-with-fill opportunity (0 = always
    /// cache, the paper's default). Implements the §3.5 "flexible
    /// caching policy in the TLB miss handler" claim, CHOP-style.
    fill_threshold: u32,
    /// Per-page touch counts for the online filter, keyed by
    /// [`Self::page_key`].
    touch_counts: FlatMap<u32>,
    /// Pages the online filter declined to cache (served off-package).
    filtered_bypasses: u64,
    /// Whether GIPT updates are charged as two off-package writes (the
    /// paper's conservative assumption); disabled for the ablation
    /// study.
    charge_gipt: bool,
    /// §6 alternative shared-page mechanism: a PA→CA alias table
    /// consulted at fill time, with the per-slot sharer lists needed to
    /// restore every PTE at eviction.
    alias_table: Option<AliasTable>,
}

#[derive(Debug, Default)]
struct AliasTable {
    pa_to_ca: BTreeMap<u64, Cpn>,
    sharers: BTreeMap<u64, Vec<(u32, Vpn)>>,
    hits: u64,
}

impl<P: Probe> std::fmt::Debug for TaglessCache<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaglessCache")
            .field("slots", &self.ring.len())
            .field("occupancy", &self.ring.occupancy())
            .field("policy", &self.ring.policy())
            .field("stats", &self.stats)
            .finish()
    }
}

impl TaglessCache {
    /// Builds the tagless cache for the given system parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation.
    pub fn new(params: &SystemParams, policy: VictimPolicy) -> Self {
        Self::with_probe(params, policy, NoProbe)
    }
}

impl<P: Probe + Clone> TaglessCache<P> {
    /// Builds an instrumented tagless cache: every layer (cTLB levels,
    /// both DRAM devices, the miss handler itself) reports cycle-stamped
    /// events into clones of `probe`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation.
    pub fn with_probe(params: &SystemParams, policy: VictimPolicy, probe: P) -> Self {
        params.validate().expect("valid system parameters");
        let spaces = params.address_spaces();
        Self {
            mmus: params
                .core_asid
                .iter()
                .map(|&a| Mmu::with_probe(params.mmu, a, probe.clone()))
                .collect(),
            core_asid: params.core_asid.clone(),
            page_tables: (0..spaces).map(PageTable::new).collect(),
            gipt: Gipt::new(params.cache_slots()),
            ring: SlotRing::new(params.cache_slots(), policy),
            in_pkg: DramController::with_probe(
                params.in_pkg.clone(),
                probe.clone(),
                Device::InPackage,
            ),
            off_pkg: DramController::with_probe(
                params.off_pkg.clone(),
                probe.clone(),
                Device::OffPackage,
            ),
            probe,
            pending_fills: FlatMap::new(),
            alpha: params.alpha,
            stats: L3Stats::default(),
            bypassed_fills: 0,
            fill_threshold: 0,
            touch_counts: FlatMap::new(),
            filtered_bypasses: 0,
            charge_gipt: true,
            alias_table: None,
        }
    }
}

impl<P: Probe> TaglessCache<P> {
    /// Enables the online hot-page filter: a page is only cached once it
    /// has triggered `threshold` fill opportunities (its earlier misses
    /// are served off-package at block granularity). `threshold == 0`
    /// restores the paper's cache-always policy. This is the §3.5
    /// "flexible caching policy plugged into the TLB miss handler",
    /// in the spirit of CHOP's hot-page filtering.
    pub fn with_fill_filter(mut self, threshold: u32) -> Self {
        self.fill_threshold = threshold;
        self
    }

    /// Disables the conservative two-write GIPT update charge (ablation
    /// study only; the structure is still maintained).
    pub fn without_gipt_charge(mut self) -> Self {
        self.charge_gipt = false;
        self
    }

    /// Enables the §6 alternative shared-page mechanism: a PA→CA alias
    /// table consulted at fill time so a physical page shared by several
    /// address spaces is cached exactly once; every sharer's PTE is
    /// restored at eviction. Each consultation costs one off-package
    /// table access (the latency penalty §6 notes).
    pub fn with_alias_table(mut self) -> Self {
        self.alias_table = Some(AliasTable::default());
        self
    }

    /// Pages the online filter declined to cache so far.
    pub fn filtered_bypasses(&self) -> u64 {
        self.filtered_bypasses
    }

    /// Alias-table hits (fills avoided by sharing an existing copy).
    pub fn alias_hits(&self) -> u64 {
        self.alias_table.as_ref().map_or(0, |a| a.hits)
    }

    /// Maps `vpn` in address space `asid` to an explicit shared physical
    /// frame (e.g. a page shared across processes), for use with the
    /// alias table.
    ///
    /// # Panics
    ///
    /// Panics if the page was already mapped.
    pub fn map_shared_page(&mut self, asid: u32, vpn: Vpn, ppn: tdc_util::Ppn) {
        self.page_tables[asid as usize].map_shared(vpn, ppn);
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> VictimPolicy {
        self.ring.policy()
    }

    /// Cache occupancy in pages.
    pub fn occupancy(&self) -> u64 {
        self.ring.occupancy()
    }

    /// The GIPT (exposed for inspection and storage-overhead reporting).
    pub fn gipt(&self) -> &Gipt {
        &self.gipt
    }

    /// Pending-eviction rescues observed so far (victim hits on queued
    /// pages).
    pub fn rescues(&self) -> u64 {
        self.ring.rescues()
    }

    /// Fills bypassed because no evictable slot existed.
    pub fn bypassed_fills(&self) -> u64 {
        self.bypassed_fills
    }

    /// Marks a page non-cacheable before it is ever touched (the §5.4
    /// offline-profiling case study). Must be applied before the page is
    /// cached.
    pub fn set_non_cacheable(&mut self, asid: u32, vpn: Vpn) {
        self.page_tables[asid as usize].set_non_cacheable(vpn);
    }

    fn in_pkg_addr(cpn: Cpn, block: u64) -> u64 {
        cpn.0 * PAGE_SIZE + block * 64
    }

    /// Packs an `(asid, vpn)` page identity into one [`FlatMap`] key:
    /// 24 bits of ASID above the architectural 40-bit VPN (52-bit VA
    /// space minus the 12-bit page offset).
    #[inline]
    fn page_key(asid: u32, vpn: Vpn) -> u64 {
        debug_assert!(vpn.0 < 1 << 40, "VPN exceeds 40-bit packing field");
        debug_assert!(asid < 1 << 24, "ASID exceeds 24-bit packing field");
        (asid as u64) << 40 | vpn.0
    }

    /// Whether any core's TLB still maps the page held by `cpn`.
    fn slot_resident(
        gipt: &Gipt,
        mmus: &[Mmu<P>],
        core_asid: &[u32],
        cpn: Cpn,
    ) -> bool {
        match gipt.get(cpn) {
            Some(e) => mmus
                .iter()
                .zip(core_asid)
                .any(|(m, &a)| a == e.asid && m.contains(e.vpn)),
            None => false,
        }
    }

    /// Completes one eviction: write back if dirty, restore the PTE to
    /// its physical mapping (via the GIPT), all off the access path.
    fn do_eviction(&mut self, now: Cycle, cpn: Cpn, dirty: bool) {
        debug_assert!(
            !self.ring.is_live(cpn),
            "eviction must run after pop_eviction freed slot {cpn:?}"
        );
        if self.probe.prof_enabled() {
            self.probe.phase_begin(Phase::Gipt);
        }
        let entry = self
            .gipt
            .remove(cpn)
            .expect("evicting slot must have a GIPT entry");
        if self.probe.prof_enabled() {
            self.probe.phase_end(Phase::Gipt);
        }
        if dirty {
            // Read the page from in-package and write it off-package.
            let rd = self
                .in_pkg
                .access(now, Self::in_pkg_addr(cpn, 0), AccessKind::Read, PAGE_SIZE);
            self.off_pkg.access(
                rd.first_data,
                entry.ppn.base().0,
                AccessKind::Write,
                PAGE_SIZE,
            );
            self.stats.dirty_page_writebacks += 1;
            if self.probe.enabled() {
                self.probe.emit(now, ProbeEvent::DirtyWriteback);
            }
        }
        if self.probe.enabled() {
            self.probe.emit(
                now,
                ProbeEvent::GiptEvict {
                    slot: cpn.0,
                    dirty,
                },
            );
        }
        // PTE update: replace the cache address with the recovered PPN.
        // With the alias table enabled, every sharer's PTE is restored
        // (the software TLB-miss-handler iteration of §3.5/§6).
        if let Some(at) = self.alias_table.as_mut() {
            at.pa_to_ca.remove(&entry.ppn.0);
            for (a, v) in at.sharers.remove(&entry.ppn.0).unwrap_or_default() {
                if let Some(p) = self.page_tables[a as usize].get_mut(v) {
                    if p.frame == Translation::Cache(cpn) {
                        p.frame = Translation::Physical(entry.ppn);
                    }
                }
            }
        }
        let pte = self.page_tables[entry.asid as usize]
            .get_mut(entry.vpn)
            .expect("GIPT points at a live PTE");
        if pte.valid_in_cache() {
            pte.frame = Translation::Physical(entry.ppn);
        }
        // The PTE write itself is one posted off-package line write.
        let pte_addr = walk_addresses(entry.asid, entry.vpn)[3];
        self.off_pkg
            .access(now, pte_addr.0, AccessKind::Write, 64);
        self.stats.page_evictions += 1;
    }

    /// Keeps α slots free, running pending evictions as needed, and
    /// pre-enqueues the next victim so victim hits can rescue it.
    ///
    /// `protected` names a slot whose fill is still in flight (its cTLB
    /// entry is not installed yet, so the TLB-residence check alone
    /// would not shield it — the PU bit does in hardware).
    fn maintain_free(&mut self, now: Cycle, protected: Option<Cpn>) {
        let mut exhausted = false;
        loop {
            if self.ring.free_count() >= self.alpha {
                break;
            }
            if self.ring.pending_len() == 0 {
                let Self {
                    ring,
                    gipt,
                    mmus,
                    core_asid,
                    ..
                } = self;
                if ring
                    .enqueue_victim(|c| {
                        Some(c) == protected
                            || Self::slot_resident(gipt, mmus, core_asid, c)
                    })
                    .is_none()
                {
                    exhausted = true;
                    break; // every page is TLB-resident
                }
            }
            match self.ring.pop_eviction() {
                Some((cpn, dirty)) => self.do_eviction(now, cpn, dirty),
                None => continue, // the pending entry was rescued; retry
            }
        }
        debug_assert!(
            exhausted || self.ring.free_count() >= self.alpha,
            "free-queue refill left {} free slots, below α = {}",
            self.ring.free_count(),
            self.alpha
        );
        // Keep one victim queued ahead of time once the cache is full,
        // giving victim hits a rescue window (the free queue of §3.2).
        if self.ring.pending_len() == 0 && self.ring.free_count() <= self.alpha {
            let Self {
                ring,
                gipt,
                mmus,
                core_asid,
                ..
            } = self;
            let _ = ring.enqueue_victim(|c| {
                Some(c) == protected || Self::slot_resident(gipt, mmus, core_asid, c)
            });
        }
    }

    /// The shaded path of Fig. 4: allocate, GIPT insert, fill, PTE
    /// update. Returns `(frame, handler_done)`.
    ///
    /// The α-free-blocks invariant means a free slot is already waiting:
    /// the victim's eviction (write-back, PTE restore) runs *after* the
    /// fill, off the critical path, exactly the asynchrony the free
    /// queue buys in §3.2.
    fn fill_page(&mut self, t: Cycle, asid: u32, vpn: Vpn) -> (Frame, Cycle) {
        let handler_entry = t;
        if self.ring.free_count() == 0 {
            // α invariant violated only when every page was TLB-resident
            // at the previous fill; try to recover now.
            self.maintain_free(t, None);
        }
        let Some(cpn) = self.ring.allocate() else {
            // No evictable slot (all TLB-resident): serve off-package
            // once without caching.
            self.bypassed_fills += 1;
            if self.probe.enabled() {
                self.probe
                    .emit(t, ProbeEvent::FillBypass { filtered: false });
            }
            let pte = self.page_tables[asid as usize].translate_or_fault(vpn);
            let Translation::Physical(ppn) = pte.frame else {
                unreachable!("fill_page only runs for uncached pages");
            };
            return (Frame::Phys(ppn), t);
        };

        let pte = self.page_tables[asid as usize].translate_or_fault(vpn);
        let Translation::Physical(ppn) = pte.frame else {
            unreachable!("fill_page only runs for uncached pages");
        };
        pte.pu = true;

        // GIPT insert, charged conservatively as two full off-package
        // memory writes (§3.4) unless the ablation knob disabled the
        // charge.
        if self.probe.prof_enabled() {
            self.probe.phase_begin(Phase::Gipt);
        }
        let displaced = self.gipt.insert(
            cpn,
            GiptEntry {
                ppn,
                asid,
                vpn,
            },
        );
        debug_assert!(
            displaced.is_none(),
            "GIPT entry↔slot bijection violated: freshly allocated slot \
             {cpn:?} still held a GIPT entry"
        );
        let gipt_addr = GIPT_REGION_BASE + cpn.0 * GIPT_WRITE_BYTES;
        let t = if self.charge_gipt {
            let w1 = self
                .off_pkg
                .access(t, gipt_addr, AccessKind::Write, GIPT_WRITE_BYTES);
            let w2 = self.off_pkg.access(
                w1.done,
                gipt_addr ^ (1 << 20),
                AccessKind::Write,
                GIPT_WRITE_BYTES,
            );
            w2.done
        } else {
            t
        };
        self.stats.gipt_updates += 1;
        if self.probe.enabled() {
            self.probe.emit(t, ProbeEvent::GiptInsert { slot: cpn.0 });
        }
        if self.probe.prof_enabled() {
            self.probe.phase_end(Phase::Gipt);
        }

        // Page copy: off-package read (critical block first), in-package
        // write pipelined behind it.
        let rd = self
            .off_pkg
            .access(t, ppn.base().0, AccessKind::Read, PAGE_SIZE);
        self.in_pkg.access(
            rd.first_data,
            Self::in_pkg_addr(cpn, 0),
            AccessKind::Write,
            PAGE_SIZE,
        );
        self.stats.page_fills += 1;
        if self.probe.enabled() {
            self.probe.emit(
                handler_entry,
                ProbeEvent::PageFill {
                    cycles: rd.done - handler_entry,
                },
            );
        }

        // PTE now maps to the cache; PU clears when the copy completes.
        let pte = self.page_tables[asid as usize]
            .get_mut(vpn)
            .expect("just faulted in");
        pte.frame = Translation::Cache(cpn);
        pte.pu = false;
        self.pending_fills.insert(Self::page_key(asid, vpn), rd.done);

        if let Some(at) = self.alias_table.as_mut() {
            at.pa_to_ca.insert(ppn.0, cpn);
            at.sharers.entry(ppn.0).or_default().push((asid, vpn));
        }

        // Replacement work for the *next* allocation happens
        // asynchronously, after this fill's critical traffic. The slot
        // just filled is protected: its cTLB entry is not installed yet.
        self.maintain_free(rd.done, Some(cpn));
        if self.probe.enabled() {
            self.probe.emit(
                rd.done,
                ProbeEvent::FreeQueueDepth {
                    free: self.ring.free_count(),
                    pending: self.ring.pending_len(),
                },
            );
        }

        // The handler returns once the critical block is forwarded.
        (Frame::Cache(cpn), rd.first_data)
    }

    /// The cTLB miss handler (Fig. 4). Returns `(frame, nc, done)`.
    ///
    /// This is the paper's designed slow path — a page walk plus a page
    /// fill dominate it, so the bookkeeping maps it updates are noise
    /// next to the DRAM traffic.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "core ids fit u8: a machine has far fewer than 256 cores"
    )]
    fn miss_handler(&mut self, now: Cycle, core: usize, vpn: Vpn) -> (Frame, bool, Cycle) {
        let asid = self.core_asid[core];
        let l2_lat = self.mmus[core].params().l2_latency;
        // Page table walk (charged through the walker model).
        let t = self.mmus[core].walk(now + l2_lat, vpn, &mut self.off_pkg);
        if self.probe.enabled() {
            self.probe.emit(
                now,
                ProbeEvent::PageWalk {
                    core: core as u8,
                    cycles: t - now,
                },
            );
        }

        // PU bit: if another thread's fill for this page is in flight,
        // busy-wait until it completes instead of filling again.
        let mut t = t;
        if let Some(done) = self.pending_fills.get(Self::page_key(asid, vpn)) {
            if done > t {
                t = done;
                self.stats.pu_suppressed_fills += 1;
            } else {
                self.pending_fills.remove(Self::page_key(asid, vpn));
            }
        }

        let pte = self.page_tables[asid as usize].translate_or_fault(vpn);
        match (pte.frame, pte.nc) {
            (Translation::Cache(cpn), _) => {
                // In-package victim hit: the page is cached; rescue it if
                // it was pending eviction and refresh recency.
                let rescued = self.ring.rescue(cpn);
                self.ring.touch(cpn);
                self.stats.record_case(AccessCase::MissHit);
                if self.probe.enabled() {
                    self.probe.emit(
                        now,
                        ProbeEvent::CtlbMiss {
                            core: core as u8,
                            victim_hit: true,
                        },
                    );
                    if rescued {
                        self.probe.emit(t, ProbeEvent::Rescue);
                    }
                }
                (Frame::Cache(cpn), false, t)
            }
            (Translation::Physical(ppn), true) => {
                // Non-cacheable: conventional VA→PA mapping.
                self.stats.record_case(AccessCase::MissMiss);
                if self.probe.enabled() {
                    self.probe.emit(
                        now,
                        ProbeEvent::CtlbMiss {
                            core: core as u8,
                            victim_hit: false,
                        },
                    );
                }
                (Frame::Phys(ppn), true, t)
            }
            (Translation::Physical(ppn), false) => {
                self.stats.record_case(AccessCase::MissMiss);
                if self.probe.enabled() {
                    self.probe.emit(
                        now,
                        ProbeEvent::CtlbMiss {
                            core: core as u8,
                            victim_hit: false,
                        },
                    );
                }
                // §6 alias table: if another address space already cached
                // this physical page, share its copy instead of filling.
                if self.alias_table.is_some() {
                    // The table lookup is one off-package access on the
                    // miss path (the latency penalty §6 notes).
                    let lk = self.off_pkg.access(
                        t,
                        GIPT_REGION_BASE ^ (ppn.0 * 8),
                        AccessKind::Read,
                        64,
                    );
                    let t = lk.first_data;
                    let hit = self.alias_table.as_ref().and_then(|a| {
                        a.pa_to_ca.get(&ppn.0).copied()
                    });
                    if let Some(cpn) = hit {
                        if self.ring.is_live(cpn) {
                            let at = self.alias_table.as_mut().expect("checked above");
                            at.hits += 1;
                            at.sharers.entry(ppn.0).or_default().push((asid, vpn));
                            self.ring.rescue(cpn);
                            self.ring.touch(cpn);
                            let pte = self.page_tables[asid as usize]
                                .translate_or_fault(vpn);
                            pte.frame = Translation::Cache(cpn);
                            return (Frame::Cache(cpn), false, t);
                        }
                    }
                    let (frame, done) = self.fill_page(t, asid, vpn);
                    return (frame, false, done);
                }
                // Online hot-page filter (§3.5 flexibility): cold pages
                // are served off-package until they prove reuse.
                if self.fill_threshold > 0 {
                    let key = Self::page_key(asid, vpn);
                    let count = match self.touch_counts.get_mut(key) {
                        Some(c) => {
                            *c += 1;
                            *c
                        }
                        None => {
                            self.touch_counts.insert(key, 1);
                            1
                        }
                    };
                    if count < self.fill_threshold {
                        self.filtered_bypasses += 1;
                        if self.probe.enabled() {
                            self.probe
                                .emit(t, ProbeEvent::FillBypass { filtered: true });
                        }
                        return (Frame::Phys(ppn), false, t);
                    }
                }
                let (frame, done) = self.fill_page(t, asid, vpn);
                (frame, false, done)
            }
        }
    }
}

impl<P: Probe> L3System for TaglessCache<P> {
    fn name(&self) -> &'static str {
        match self.ring.policy() {
            VictimPolicy::Fifo => "cTLB",
            VictimPolicy::Lru => "cTLB-LRU",
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "core ids fit u8: a machine has far fewer than 256 cores"
    )]
    fn translate(
        &mut self,
        now: Cycle,
        core: usize,
        vpn: Vpn,
        _is_write: bool,
    ) -> TranslationOutcome {
        if self.probe.prof_enabled() {
            self.probe.phase_begin(Phase::Ctlb);
        }
        let q = self.mmus[core].lookup_at(now, vpn);
        if self.probe.prof_enabled() {
            self.probe.phase_end(Phase::Ctlb);
        }
        match q {
            TlbQuery::L1Hit(e) | TlbQuery::L2Hit(e) => {
                let penalty = match q {
                    TlbQuery::L1Hit(_) => 0,
                    _ => self.mmus[core].params().l2_latency,
                };
                let (frame, case) = match e.frame {
                    Translation::Cache(cpn) => (Frame::Cache(cpn), AccessCase::HitHit),
                    Translation::Physical(ppn) => (Frame::Phys(ppn), AccessCase::HitMiss),
                };
                self.stats.record_case(case);
                if self.probe.enabled() {
                    self.probe.emit(
                        now,
                        ProbeEvent::CtlbHit {
                            core: core as u8,
                            cached: frame.is_cache(),
                        },
                    );
                }
                if let Frame::Cache(cpn) = frame {
                    self.ring.touch(cpn);
                }
                TranslationOutcome {
                    frame,
                    nc: e.nc,
                    penalty,
                    tlb_hit: matches!(q, TlbQuery::L1Hit(_)),
                }
            }
            TlbQuery::Miss => {
                let (frame, nc, done) = self.miss_handler(now, core, vpn);
                let entry = match frame {
                    Frame::Cache(cpn) => TlbEntry::cache(cpn, false),
                    Frame::Phys(ppn) => TlbEntry::physical(ppn, nc),
                };
                if self.probe.prof_enabled() {
                    self.probe.phase_begin(Phase::Ctlb);
                }
                self.mmus[core].insert_at(done, vpn, entry);
                if self.probe.prof_enabled() {
                    self.probe.phase_end(Phase::Ctlb);
                }
                TranslationOutcome {
                    frame,
                    nc,
                    penalty: done - now,
                    tlb_hit: false,
                }
            }
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
        let (latency, in_package) = match frame {
            Frame::Cache(cpn) => {
                self.ring.touch(cpn);
                let c = self
                    .in_pkg
                    .access(now, Self::in_pkg_addr(cpn, block), AccessKind::Read, 64);
                (c.latency(now), true)
            }
            Frame::Phys(ppn) => {
                let c = self
                    .off_pkg
                    .access(now, ppn.addr(block * 64).0, AccessKind::Read, 64);
                (c.latency(now), false)
            }
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
        self.stats.writebacks_in += 1;
        match frame {
            Frame::Cache(cpn) => {
                if self.ring.is_live(cpn) {
                    self.ring.mark_dirty(cpn);
                    self.in_pkg
                        .access(now, Self::in_pkg_addr(cpn, block), AccessKind::Write, 64);
                } else {
                    // The page left the cache after this line was cached
                    // on die (prevented by shootdown+flush in a real
                    // system; dropped and counted here).
                    self.stats.stale_writebacks += 1;
                    if self.probe.enabled() {
                        self.probe.emit(now, ProbeEvent::StaleWriteback);
                    }
                }
            }
            Frame::Phys(ppn) => {
                self.off_pkg
                    .access(now, ppn.addr(block * 64).0, AccessKind::Write, 64);
            }
        }
    }

    fn stats(&self) -> &L3Stats {
        &self.stats
    }

    fn energy_pj(&self) -> f64 {
        self.in_pkg.stats().energy_pj + self.off_pkg.stats().energy_pj
    }

    fn in_pkg_stats(&self) -> Option<&DramStats> {
        Some(self.in_pkg.stats())
    }

    fn off_pkg_stats(&self) -> &DramStats {
        self.off_pkg.stats()
    }

    fn reset_stats(&mut self) {
        self.stats = L3Stats::default();
        self.in_pkg.reset_stats();
        self.off_pkg.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params(slots: u64) -> SystemParams {
        let mut p = SystemParams::with_cache_capacity(slots * PAGE_SIZE);
        p.cores = 2;
        p.core_asid = vec![0, 1];
        p
    }

    fn tagless(slots: u64) -> TaglessCache {
        TaglessCache::new(&small_params(slots), VictimPolicy::Fifo)
    }

    #[test]
    fn cold_miss_then_guaranteed_hit() {
        let mut t = tagless(64);
        let tr = t.translate(0, 0, Vpn(5), false);
        assert!(!tr.tlb_hit);
        assert!(tr.frame.is_cache(), "cacheable page must be cached");
        assert!(tr.penalty > 0);
        assert_eq!(t.stats().page_fills, 1);
        // Second access: cTLB hit, zero penalty, and the frame is the
        // exact cache location — no tag check possible or needed.
        let tr2 = t.translate(tr.penalty, 0, Vpn(5), false);
        assert!(tr2.tlb_hit);
        assert_eq!(tr2.penalty, 0);
        assert_eq!(tr2.frame, tr.frame);
        assert_eq!(t.stats().case_hit_hit, 1);
    }

    #[test]
    fn tlb_hit_implies_cache_hit() {
        // The paper's core guarantee: within TLB reach, every access
        // hits in-package.
        let mut t = tagless(256);
        let mut now = 0;
        for v in 0..16u64 {
            let tr = t.translate(now, 0, Vpn(v), false);
            now += tr.penalty + 1;
        }
        for v in 0..16u64 {
            let tr = t.translate(now, 0, Vpn(v), false);
            assert!(tr.tlb_hit);
            assert!(tr.frame.is_cache());
            let m = t.access(now, 0, tr.frame, tr.nc, 0);
            assert!(m.in_package);
            now += m.latency;
        }
    }

    #[test]
    fn gipt_tracks_cached_pages() {
        let mut t = tagless(64);
        t.translate(0, 0, Vpn(1), false);
        t.translate(1000, 0, Vpn(2), false);
        assert_eq!(t.gipt().len(), 2);
    }

    #[test]
    fn eviction_restores_pte_and_enables_refill() {
        // 4-slot cache, touch 8 pages, shooting each mapping down after
        // use so pages are evictable: early pages get evicted, their
        // PTEs revert to physical, and retouching refills them.
        let mut t = tagless(4);
        let mut now = 0;
        for v in 0..8u64 {
            let tr = t.translate(now, 0, Vpn(v), false);
            now += tr.penalty + 100;
            t.mmus[0].invalidate(Vpn(v));
        }
        assert!(t.stats().page_evictions >= 3);
        // Steady state keeps α (=1) slots free for the next fill.
        assert_eq!(t.occupancy(), 3);
        assert_eq!(t.stats().page_fills, 8);
        assert_eq!(t.bypassed_fills(), 0);
        // Retouching an evicted page is a fresh fill (its PTE went back
        // to the physical mapping).
        let tr = t.translate(now, 0, Vpn(0), false);
        assert!(tr.frame.is_cache());
        assert_eq!(t.stats().page_fills, 9);
    }

    #[test]
    fn all_resident_small_cache_bypasses_instead_of_deadlocking() {
        // Every cached page stays TLB-resident (footprint under TLB
        // reach, cache smaller than footprint): allocation falls back to
        // uncached off-package service rather than evicting a live
        // mapping or looping.
        let mut t = tagless(4);
        let mut now = 0;
        for v in 0..8u64 {
            let tr = t.translate(now, 0, Vpn(v), false);
            now += tr.penalty + 100;
        }
        assert_eq!(t.stats().page_fills + t.bypassed_fills(), 8);
        assert!(t.bypassed_fills() >= 4);
        assert_eq!(t.stats().page_evictions, 0);
    }

    #[test]
    fn victim_hit_after_tlb_eviction() {
        // Fill more pages than the TLB can hold but fewer than the
        // cache: re-touching an early page must be a victim hit (no new
        // fill).
        let mut t = tagless(4096);
        let mut now = 0;
        // 600 pages > 512-entry L2 TLB reach; < 4096 slots.
        for v in 0..600u64 {
            let tr = t.translate(now, 0, Vpn(v), false);
            now += tr.penalty + 10;
        }
        let fills_before = t.stats().page_fills;
        let tr = t.translate(now, 0, Vpn(0), false);
        assert!(!tr.tlb_hit);
        assert!(tr.frame.is_cache());
        assert_eq!(t.stats().page_fills, fills_before, "victim hit: no refill");
        assert!(t.stats().case_miss_hit >= 1);
    }

    #[test]
    fn non_cacheable_pages_bypass() {
        let mut t = tagless(64);
        t.set_non_cacheable(0, Vpn(9));
        let tr = t.translate(0, 0, Vpn(9), false);
        assert!(tr.nc);
        assert!(!tr.frame.is_cache());
        assert_eq!(t.stats().page_fills, 0);
        // Access goes off-package at block granularity.
        let m = t.access(100, 0, tr.frame, tr.nc, 3);
        assert!(!m.in_package);
        // A TLB hit on an NC page is the paper's (Hit, Miss) case.
        let tr2 = t.translate(200, 0, Vpn(9), false);
        assert!(tr2.tlb_hit);
        assert_eq!(t.stats().case_hit_miss, 1);
    }

    #[test]
    fn asids_do_not_alias() {
        let mut t = tagless(64);
        let a = t.translate(0, 0, Vpn(7), false);
        let b = t.translate(0, 1, Vpn(7), false);
        assert_ne!(a.frame, b.frame, "same vpn, different address spaces");
        assert_eq!(t.stats().page_fills, 2);
    }

    #[test]
    fn shared_address_space_shares_fills() {
        let mut p = small_params(64);
        p.core_asid = vec![0, 0];
        let mut t = TaglessCache::new(&p, VictimPolicy::Fifo);
        let a = t.translate(0, 0, Vpn(7), false);
        // Thread on core 1 misses its own TLB but finds the page cached.
        let b = t.translate(a.penalty + 1_000_000, 1, Vpn(7), false);
        assert_eq!(a.frame, b.frame);
        assert_eq!(t.stats().page_fills, 1);
        assert_eq!(t.stats().case_miss_hit, 1);
    }

    #[test]
    fn pu_bit_suppresses_concurrent_duplicate_fill() {
        let mut p = small_params(64);
        p.core_asid = vec![0, 0];
        let mut t = TaglessCache::new(&p, VictimPolicy::Fifo);
        // Warm core 1's walker caches on a neighbouring page so its walk
        // of Vpn(7) is fast enough to land inside core 0's fill window.
        t.translate(0, 1, Vpn(6), false);
        let a = t.translate(1_000_000, 0, Vpn(7), false);
        // Core 1 misses on the same page one cycle later, *while* the
        // fill is in flight.
        let b = t.translate(1_000_001, 1, Vpn(7), false);
        assert_eq!(t.stats().page_fills, 2, "PU bit must suppress refill");
        assert_eq!(a.frame, b.frame);
        assert_eq!(t.stats().pu_suppressed_fills, 1);
        // The suppressed thread waited for the copy to complete.
        assert!(b.penalty > 0);
    }

    #[test]
    fn writeback_dirties_slot_and_eviction_writes_back() {
        let mut t = tagless(4);
        let mut now = 0;
        let tr = t.translate(now, 0, Vpn(0), false);
        let Frame::Cache(_) = tr.frame else {
            panic!("expected cached")
        };
        t.writeback(tr.penalty, 0, tr.frame, false, 0);
        now += 1_000_000;
        // Force eviction of page 0 by filling past capacity; invalidate
        // its TLB entry first so it is selectable.
        for core in 0..2 {
            for v in 0..64u64 {
                t.mmus[core].invalidate(Vpn(v));
            }
        }
        for v in 100..110u64 {
            let tr = t.translate(now, 0, Vpn(v), false);
            now += tr.penalty + 1000;
            for w in 0..64u64 {
                t.mmus[0].invalidate(Vpn(w + 100));
            }
        }
        assert!(t.stats().dirty_page_writebacks >= 1);
    }

    #[test]
    fn stale_writeback_is_dropped() {
        let mut t = tagless(4);
        let tr = t.translate(0, 0, Vpn(0), false);
        let Frame::Cache(cpn) = tr.frame else {
            panic!("expected cached")
        };
        // Manually force the slot free (as if evicted long ago).
        for core in 0..2 {
            t.mmus[core].invalidate(Vpn(0));
        }
        let mut now = 1000;
        for v in 1..12u64 {
            let tr = t.translate(now, 0, Vpn(v), false);
            now += tr.penalty + 1000;
            t.mmus[0].invalidate(Vpn(v));
        }
        // Page 0 should be gone by now.
        assert!(t.gipt().get(cpn).map(|e| e.vpn) != Some(Vpn(0)) || !t.ring.is_live(cpn));
        let stale_before = t.stats().stale_writebacks;
        t.writeback(now, 0, Frame::Cache(cpn), false, 0);
        // Either dropped as stale or absorbed by a live re-used slot;
        // both are accounted.
        assert!(t.stats().writebacks_in >= 1);
        let _ = stale_before;
    }

    #[test]
    fn access_latency_in_package_beats_off_package() {
        let mut t = tagless(64);
        let tr = t.translate(0, 0, Vpn(1), false);
        t.set_non_cacheable(0, Vpn(50));
        let nc = t.translate(1_000_000, 0, Vpn(50), false);
        let fast = t.access(2_000_000, 0, tr.frame, false, 0);
        let slow = t.access(3_000_000, 0, nc.frame, true, 0);
        assert!(fast.latency < slow.latency);
    }

    #[test]
    fn reset_stats_preserves_cache_state() {
        let mut t = tagless(64);
        let tr = t.translate(0, 0, Vpn(1), false);
        t.reset_stats();
        assert_eq!(t.stats().page_fills, 0);
        let tr2 = t.translate(1_000_000, 0, Vpn(1), false);
        assert_eq!(tr2.frame, tr.frame, "contents survive reset");
        assert!(tr2.tlb_hit);
    }

    #[test]
    fn name_reflects_policy() {
        assert_eq!(tagless(16).name(), "cTLB");
        let lru = TaglessCache::new(&small_params(16), VictimPolicy::Lru);
        assert_eq!(lru.name(), "cTLB-LRU");
    }

    #[test]
    fn fill_filter_delays_caching_until_reuse() {
        let mut t = TaglessCache::new(&small_params(64), VictimPolicy::Fifo)
            .with_fill_filter(2);
        // First touch: served off-package, not cached.
        let tr1 = t.translate(0, 0, Vpn(5), false);
        assert!(!tr1.frame.is_cache());
        assert_eq!(t.filtered_bypasses(), 1);
        assert_eq!(t.stats().page_fills, 0);
        // Invalidate the TLB entry so the second touch re-enters the
        // miss handler (in hardware the bypassed page gets a short-lived
        // conventional mapping).
        t.mmus[0].invalidate(Vpn(5));
        let tr2 = t.translate(1_000_000, 0, Vpn(5), false);
        assert!(tr2.frame.is_cache(), "second touch must cache the page");
        assert_eq!(t.stats().page_fills, 1);
    }

    #[test]
    fn fill_filter_zero_is_cache_always() {
        let mut t =
            TaglessCache::new(&small_params(64), VictimPolicy::Fifo).with_fill_filter(0);
        let tr = t.translate(0, 0, Vpn(5), false);
        assert!(tr.frame.is_cache());
        assert_eq!(t.filtered_bypasses(), 0);
    }

    #[test]
    fn gipt_charge_knob_reduces_fill_latency() {
        let charged = {
            let mut t = TaglessCache::new(&small_params(64), VictimPolicy::Fifo);
            t.translate(0, 0, Vpn(5), false).penalty
        };
        let uncharged = {
            let mut t = TaglessCache::new(&small_params(64), VictimPolicy::Fifo)
                .without_gipt_charge();
            t.translate(0, 0, Vpn(5), false).penalty
        };
        assert!(
            uncharged < charged,
            "GIPT charge must add latency: {uncharged} vs {charged}"
        );
    }

    #[test]
    fn alias_table_shares_cross_process_pages() {
        use tdc_util::Ppn;
        let mut t = TaglessCache::new(&small_params(64), VictimPolicy::Fifo)
            .with_alias_table();
        let shared = Ppn(0x4_0000);
        t.map_shared_page(0, Vpn(10), shared);
        t.map_shared_page(1, Vpn(20), shared);
        let a = t.translate(0, 0, Vpn(10), false);
        assert!(a.frame.is_cache());
        assert_eq!(t.stats().page_fills, 1);
        // The other process touches its alias: no second copy.
        let b = t.translate(1_000_000, 1, Vpn(20), false);
        assert_eq!(b.frame, a.frame, "alias must resolve to the same slot");
        assert_eq!(t.stats().page_fills, 1, "no duplicate fill");
        assert_eq!(t.alias_hits(), 1);
    }

    #[test]
    fn alias_eviction_restores_every_sharer() {
        use tdc_util::Ppn;
        let mut t = TaglessCache::new(&small_params(4), VictimPolicy::Fifo)
            .with_alias_table();
        let shared = Ppn(0x4_0000);
        t.map_shared_page(0, Vpn(10), shared);
        t.map_shared_page(1, Vpn(20), shared);
        let a = t.translate(0, 0, Vpn(10), false);
        t.translate(1_000, 1, Vpn(20), false);
        // Shoot down both mappings and churn the 4-slot cache until the
        // shared page is evicted.
        t.mmus[0].invalidate(Vpn(10));
        t.mmus[1].invalidate(Vpn(20));
        let mut now = 1_000_000u64;
        for v in 100..112u64 {
            let tr = t.translate(now, 0, Vpn(v), false);
            now += tr.penalty + 1000;
            t.mmus[0].invalidate(Vpn(v));
        }
        assert!(t.stats().page_evictions > 0);
        // Both sharers must refill (their PTEs went back to physical) —
        // and they must share again.
        let a2 = t.translate(now, 0, Vpn(10), false);
        assert!(a2.frame.is_cache());
        assert_ne!(a2.frame, a.frame, "old slot was reassigned");
        let b2 = t.translate(now + 1_000_000, 1, Vpn(20), false);
        assert_eq!(b2.frame, a2.frame);
    }

    #[test]
    fn energy_accumulates_from_both_devices() {
        let mut t = tagless(64);
        t.translate(0, 0, Vpn(1), false);
        assert!(t.energy_pj() > 0.0);
        assert!(t.in_pkg_stats().unwrap().writes >= 1, "page fill wrote in-pkg");
        assert!(t.off_pkg_stats().reads >= 1, "page fill read off-pkg");
    }
}
