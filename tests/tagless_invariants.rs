//! Integration tests of the tagless design's structural invariants,
//! driving the `TaglessCache` directly through its public API.

use tagless_dram_cache::prelude::*;
use tagless_dram_cache::util::{Pcg32, Rng};

fn params(slots: u64, cores: usize) -> SystemParams {
    let mut p = SystemParams::with_cache_capacity(slots * 4096);
    p.cores = cores;
    p.core_asid = (0..cores as u32).collect();
    p
}

#[test]
fn tlb_hit_always_implies_cache_hit() {
    // The paper's central guarantee, checked over a random access
    // pattern: whenever translate reports a TLB hit on a cacheable page,
    // the frame is a cache address and the access is served in-package.
    let mut l3 = TaglessCache::new(&params(512, 1), VictimPolicy::Fifo);
    let mut rng = Pcg32::seed_from_u64(5);
    let mut now = 0u64;
    for _ in 0..5_000 {
        let vpn = Vpn(rng.gen_range(256));
        let tr = l3.translate(now, 0, vpn, rng.gen_bool(0.3));
        if tr.tlb_hit && !tr.nc {
            assert!(tr.frame.is_cache(), "TLB hit must yield a cache address");
            let m = l3.access(now + tr.penalty, 0, tr.frame, tr.nc, rng.gen_range(64));
            assert!(m.in_package, "TLB hit must be served in-package");
        }
        now += tr.penalty + 50;
    }
}

#[test]
fn gipt_tracks_occupancy_exactly() {
    let mut l3 = TaglessCache::new(&params(64, 1), VictimPolicy::Fifo);
    let mut now = 0u64;
    for v in 0..40u64 {
        let tr = l3.translate(now, 0, Vpn(v), false);
        now += tr.penalty + 100;
    }
    assert_eq!(l3.gipt().len(), l3.occupancy());
    assert_eq!(l3.gipt().len(), 40);
}

#[test]
fn gipt_storage_overhead_matches_paper() {
    // 1GB cache -> 2.56MB GIPT, < 0.25% overhead (paper §3.2).
    let l3 = TaglessCache::new(&SystemParams::paper_default(), VictimPolicy::Fifo);
    let mb = l3.gipt().storage_bytes() as f64 / (1 << 20) as f64;
    assert!((mb - 2.5625).abs() < 0.01, "GIPT = {mb} MB");
    assert!(l3.gipt().overhead_fraction() < 0.0026);
}

#[test]
fn full_associativity_no_conflict_misses() {
    // Pages that would collide in any set-indexed cache coexist in the
    // tagless cache as long as capacity remains: fill N pages with
    // maximally conflicting addresses, then verify all are still
    // resident (fills == N, victim hits possible, but no refills).
    let mut l3 = TaglessCache::new(&params(256, 1), VictimPolicy::Fifo);
    let mut now = 0u64;
    let stride = 1 << 20; // same set in any practically-indexed cache
    for i in 0..128u64 {
        let tr = l3.translate(now, 0, Vpn(i * stride), false);
        now += tr.penalty + 100;
    }
    let fills_after_first_pass = l3.stats().page_fills;
    assert_eq!(fills_after_first_pass, 128);
    for i in 0..128u64 {
        let tr = l3.translate(now, 0, Vpn(i * stride), false);
        assert!(tr.frame.is_cache());
        now += tr.penalty + 100;
    }
    assert_eq!(
        l3.stats().page_fills,
        128,
        "re-touching resident pages must not refill"
    );
}

#[test]
fn eviction_round_trip_preserves_data_placement() {
    // Evict a page and re-touch it: it must come back through a fresh
    // fill (PTE was restored to the physical mapping by the GIPT).
    let mut p = params(8, 1);
    p.mmu.l1_entries = 4;
    p.mmu.l2_entries = 8;
    p.mmu.l2_ways = 2;
    let mut l3 = TaglessCache::new(&p, VictimPolicy::Fifo);
    let mut now = 0u64;
    // Touch 32 pages through a tiny TLB: early pages leave the TLB and
    // then the (8-slot) cache.
    for v in 0..32u64 {
        let tr = l3.translate(now, 0, Vpn(v), false);
        now += tr.penalty + 1000;
    }
    assert!(l3.stats().page_evictions > 0);
    let fills = l3.stats().page_fills;
    let tr = l3.translate(now, 0, Vpn(0), false);
    assert!(tr.frame.is_cache());
    assert_eq!(l3.stats().page_fills, fills + 1, "evicted page refills");
}

#[test]
fn alpha_free_blocks_maintained_under_pressure() {
    let mut p = params(16, 1);
    p.mmu.l1_entries = 2;
    p.mmu.l2_entries = 4;
    p.mmu.l2_ways = 2;
    let mut l3 = TaglessCache::new(&p, VictimPolicy::Fifo);
    let mut rng = Pcg32::seed_from_u64(9);
    let mut now = 0u64;
    for _ in 0..2_000 {
        let tr = l3.translate(now, 0, Vpn(rng.gen_range(200)), rng.gen_bool(0.3));
        now += tr.penalty + 200;
        // The ring never exceeds capacity, and once it has filled, at
        // least α slots stay free for the next allocation.
        assert!(l3.occupancy() <= 16);
    }
    assert!(l3.occupancy() <= 15, "α=1 slot must remain free in steady state");
    assert!(l3.stats().page_evictions > 0);
}

#[test]
fn lru_and_fifo_policies_both_converge() {
    for policy in [VictimPolicy::Fifo, VictimPolicy::Lru] {
        let mut p = params(32, 1);
        p.mmu.l1_entries = 4;
        p.mmu.l2_entries = 8;
        p.mmu.l2_ways = 2;
        let mut l3 = TaglessCache::new(&p, policy);
        let mut rng = Pcg32::seed_from_u64(13);
        let mut now = 0u64;
        for _ in 0..3_000 {
            let tr = l3.translate(now, 0, Vpn(rng.gen_range(100)), false);
            now += tr.penalty + 100;
        }
        assert!(l3.stats().page_fills > 32, "{policy:?} stopped filling");
        assert_eq!(l3.gipt().len(), l3.occupancy(), "{policy:?} GIPT desync");
    }
}

#[test]
fn shared_pages_within_process_do_not_alias() {
    // Two cores in one address space: the same virtual page must resolve
    // to the same cache frame (single page table, no aliasing).
    let mut p = params(256, 2);
    p.core_asid = vec![0, 0];
    let mut l3 = TaglessCache::new(&p, VictimPolicy::Fifo);
    let a = l3.translate(0, 0, Vpn(7), false);
    let b = l3.translate(1_000_000, 1, Vpn(7), false);
    assert_eq!(a.frame, b.frame);
    assert_eq!(l3.stats().page_fills, 1);
}

#[test]
fn cross_process_pages_never_share_frames() {
    let mut l3 = TaglessCache::new(&params(256, 2), VictimPolicy::Fifo);
    let mut seen = std::collections::BTreeSet::new();
    let mut now = 0;
    for core in 0..2usize {
        for v in 0..20u64 {
            let tr = l3.translate(now, core, Vpn(v), false);
            assert!(
                seen.insert(tr.frame),
                "frame {:?} reused across address spaces",
                tr.frame
            );
            now += tr.penalty + 100;
        }
    }
}

#[test]
fn table1_cases_partition_all_translations() {
    let mut l3 = TaglessCache::new(&params(128, 1), VictimPolicy::Fifo);
    l3.set_non_cacheable(0, Vpn(500));
    let mut rng = Pcg32::seed_from_u64(21);
    let mut now = 0u64;
    let n = 4_000u64;
    for i in 0..n {
        let vpn = if i % 10 == 0 { Vpn(500) } else { Vpn(rng.gen_range(300)) };
        let tr = l3.translate(now, 0, vpn, false);
        now += tr.penalty + 60;
    }
    let s = l3.stats();
    let cases = s.case_hit_hit + s.case_hit_miss + s.case_miss_hit + s.case_miss_miss;
    assert_eq!(cases, n, "every translation falls into exactly one Table 1 case");
    assert!(s.case_hit_hit > 0);
    assert!(s.case_hit_miss > 0, "NC page gives (Hit, Miss)");
    assert!(s.case_miss_miss > 0);
}
