//! The allocation gate (DESIGN.md §14): no bench kernel allocates once
//! warm, and a simulated cell's allocations do not grow with the
//! references it measures. A counting global allocator sees every
//! allocation, including those behind `dyn`, generics and `std`, on
//! whichever path a kernel or cell actually runs. This file is its own
//! test binary because it installs that allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tagless_dram_cache::core::experiment::{Job, OrgKind, RunConfig, Workload};
use tdc_harness::kernels::micro_kernels;

/// Counts the calling thread's allocations; libtest runs tests on
/// parallel threads, and a per-thread count keeps them apart.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Fewest kernel calls per counted window.
const KERNEL_WINDOW: u64 = 20_000;

/// Kernels exempt from the check, and why.
const KERNEL_EXCEPTIONS: [(&str, &str); 1] = [(
    "pool/steal_imbalanced",
    "it spawns its workers and builds the batch's cursors and result \
     vectors on every call: the scheduler's own cost, not a simulator path",
)];

#[test]
fn warm_bench_kernels_do_not_allocate() {
    let kernels = micro_kernels();
    for (id, _) in KERNEL_EXCEPTIONS {
        assert!(
            kernels.iter().any(|k| k.id() == id),
            "allocation exception names no kernel: {id}"
        );
    }
    for kernel in &kernels {
        let id = kernel.id();
        if KERNEL_EXCEPTIONS.iter().any(|(e, _)| *e == id) {
            continue;
        }
        let mut f = kernel.instantiate();
        // The warm-up `kernels::measure` runs before it times anything.
        let warmup = kernel.iters / 10;
        for _ in 0..warmup {
            f();
        }
        // The first window at least doubles the calls made so far, so
        // even state that grows by one element per call reallocates in
        // it; an allocation per call shows in both windows.
        let calls = warmup.max(KERNEL_WINDOW);
        let mut window = || {
            allocations_of(|| {
                for _ in 0..calls {
                    std::hint::black_box(f());
                }
            })
            .0
        };
        let counts = [window(), window()];
        assert!(
            counts == [0, 0],
            "kernel {id} allocated {counts:?} times in two windows of {calls} warm calls"
        );
    }
}

/// Warm-up references per core for the cell checks.
const CELL_WARMUP: u64 = 10_000;
/// Measured references per core of the shorter of two runs per cell.
const CELL_MEASURED: u64 = 25_000;
/// How many allocations doubling a cell's measured references may add:
/// the amortized growth of page tables and maps, at most 17 on these
/// cells. One allocation per reference, per miss or per eviction adds
/// thousands.
const CELL_GROWTH_BOUND: u64 = 32;

/// Allocations of one whole run of `workload` on `org`, and how many
/// pages its measured phase evicted.
fn run_cell(workload: &Workload, org: OrgKind, cache_mb: u64, measured: u64) -> (u64, u64) {
    let cfg = RunConfig {
        seed: 2015,
        cache_bytes: cache_mb << 20,
        warmup_refs: CELL_WARMUP,
        measured_refs: measured,
    };
    let job = Job::new(workload.clone(), org, cfg);
    let (n, report) = allocations_of(|| job.execute());
    (n, report.expect("known workload").l3.page_evictions)
}

/// Every organization, both victim policies and all three workload
/// classes, with whether the longer run must evict: MIX5 outgrows a
/// 256 MB cache, so its tagless cells take the victim scan and the
/// eviction path thousands of times.
fn cells() -> Vec<(Workload, OrgKind, u64, bool)> {
    let spec = |n: &str| Workload::Spec(n.into());
    let mix5 = || Workload::Mix("MIX5".into());
    vec![
        (spec("milc"), OrgKind::NoL3, 1024, false),
        (spec("lbm"), OrgKind::BankInterleave, 1024, false),
        (spec("GemsFDTD"), OrgKind::SramTag, 256, false),
        (spec("mcf"), OrgKind::Tagless, 1024, false),
        (spec("libquantum"), OrgKind::Ideal, 1024, false),
        (mix5(), OrgKind::Tagless, 256, true),
        (mix5(), OrgKind::TaglessLru, 256, true),
        (
            Workload::Parsec("swaptions".into()),
            OrgKind::Tagless,
            1024,
            false,
        ),
    ]
}

#[test]
fn cell_allocations_do_not_grow_with_measured_references() {
    for (workload, org, cache_mb, evicts) in cells() {
        let cell = format!("{}/{} @{cache_mb}MB", workload.name(), org.label());
        let (short, _) = run_cell(&workload, org, cache_mb, CELL_MEASURED);
        let (long, evictions) = run_cell(&workload, org, cache_mb, 2 * CELL_MEASURED);
        assert!(
            long <= short + CELL_GROWTH_BOUND,
            "cell {cell} allocated {short} times over {CELL_MEASURED} measured references \
             and {long} over {}; doubling may add at most {CELL_GROWTH_BOUND}",
            2 * CELL_MEASURED
        );
        assert!(!evicts || evictions > 0, "cell {cell} no longer evicts");
    }
}
