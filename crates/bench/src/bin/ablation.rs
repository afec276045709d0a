//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. α (free blocks kept ahead of allocation) — the paper sets α = 1
//!    following Dong et al.; the sweep shows the asynchronous-eviction
//!    design is insensitive to it.
//! 2. TLB reach (L2 TLB entries) — the tagless guarantee only covers the
//!    TLB reach; the sweep shows victim hits absorbing the rest.
//! 3. The conservative GIPT update charge (two full memory writes).
//! 4. Online hot-page fill filter vs the paper's offline NC profiling.
//!
//! Scale with `TDC_SCALE` as usual.

use tdc_bench::standard_config;
use tdc_core::experiment::{run_single, run_single_custom, OrgKind};
use tdc_dram_cache::{TaglessCache, VictimPolicy};

fn main() {
    let cfg = standard_config();
    let bench = "milc";
    let base = run_single(bench, OrgKind::NoL3, &cfg).expect("known benchmark");

    // Each sweep cell is an independent pure function of its parameter,
    // so the sweeps run through the shared worker pool; run_tasks
    // returns results in input order, keeping the printout stable.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!("== Ablation 1: free-block count α ({bench}) ==");
    let alphas = [1u64, 4, 16, 64];
    let (alpha_runs, _) = tdc_util::pool::run_tasks(&alphas, threads, |_, &alpha| {
        run_single_custom(bench, &cfg, move |mut p| {
            p.alpha = alpha;
            Box::new(TaglessCache::new(&p, VictimPolicy::Fifo))
        })
        .expect("known benchmark")
    });
    for (alpha, r) in alphas.iter().zip(&alpha_runs) {
        println!(
            "alpha={alpha:>3}: normalized IPC {:.3}  fills {}  evictions {}",
            r.normalized_ipc(&base),
            r.l3.page_fills,
            r.l3.page_evictions
        );
    }

    println!("\n== Ablation 2: TLB reach (L2 TLB entries, {bench}) ==");
    let tlb_sizes = [128u32, 256, 512, 1024, 2048];
    let (tlb_runs, _) = tdc_util::pool::run_tasks(&tlb_sizes, threads, |_, &entries| {
        run_single_custom(bench, &cfg, move |mut p| {
            p.mmu.l2_entries = entries;
            Box::new(TaglessCache::new(&p, VictimPolicy::Fifo))
        })
        .expect("known benchmark")
    });
    for (entries, r) in tlb_sizes.iter().zip(&tlb_runs) {
        println!(
            "L2 TLB {entries:>5}: normalized IPC {:.3}  victim hits {}  (reach {}MB)",
            r.normalized_ipc(&base),
            r.l3.case_miss_hit,
            *entries as u64 * 4096 / (1 << 20)
        );
    }

    println!("\n== Ablation 3: GIPT update charge ({bench}) ==");
    let with = run_single(bench, OrgKind::Tagless, &cfg).expect("known benchmark");
    let without = run_single_custom(bench, &cfg, |p| {
        Box::new(TaglessCache::new(&p, VictimPolicy::Fifo).without_gipt_charge())
    })
    .expect("known benchmark");
    println!(
        "charged (2 off-package writes): normalized IPC {:.3}",
        with.normalized_ipc(&base)
    );
    println!(
        "uncharged:                      normalized IPC {:.3}  (the paper's conservative charge costs {:.1}%)",
        without.normalized_ipc(&base),
        (without.ipc_total() / with.ipc_total() - 1.0) * 100.0
    );

    println!("\n== Ablation 4: online fill filter vs offline NC profiling (GemsFDTD) ==");
    let gems_base = run_single("GemsFDTD", OrgKind::NoL3, &cfg).expect("known benchmark");
    let plain = run_single("GemsFDTD", OrgKind::Tagless, &cfg).expect("known benchmark");
    println!("cache-always: normalized IPC {:.3}", plain.normalized_ipc(&gems_base));
    for threshold in [2u32, 3, 4] {
        let r = run_single_custom("GemsFDTD", &cfg, |p| {
            Box::new(TaglessCache::new(&p, VictimPolicy::Fifo).with_fill_filter(threshold))
        })
        .expect("known benchmark");
        println!(
            "online filter (cache on touch #{threshold}): normalized IPC {:.3}",
            r.normalized_ipc(&gems_base)
        );
    }
    let offline =
        tdc_core::experiment::run_single_tagless_nc("GemsFDTD", &cfg, 32).expect("known");
    println!(
        "offline NC profiling (paper §5.4):  normalized IPC {:.3}",
        offline.normalized_ipc(&gems_base)
    );
}
