//! The shared micro-benchmark kernel registry and timing loop.
//!
//! One list of measurement kernels — the component costs the paper's
//! design arguments hinge on (tagless vs SRAM-tag access path, DRAM
//! controller throughput, replacement machinery, trace generation) —
//! consumed by `tdc bench run` ([`crate::bench`]), which adds the
//! commit stamp, the record file and the same-host comparison.
//!
//! Timing uses `std::time::Instant` over a fixed iteration budget
//! (no external benchmarking crate; the container builds offline) and
//! **repeat until stable**: runs continue until the medians of the two
//! most recent [`STABLE_WINDOW`]-run windows agree within
//! [`STABLE_TOLERANCE`] ([`tdc_util::stats::median_window_stable`]) or
//! the run cap is hit, so a machine with a noisy scheduler buys itself
//! more repetitions instead of publishing a skewed number.
//!
//! Environment knobs:
//!
//! * `TDC_BENCH_RUNS` — minimum timed runs per kernel (default 3);
//! * `TDC_BENCH_MAX_RUNS` — cap when timings refuse to settle
//!   (default 10);
//! * `TDC_BENCH_ITERS_SCALE` — multiplier on every kernel's iteration
//!   budget (default 1.0; tests use tiny values for speed).

use std::hint::black_box;
use std::time::Instant;
use tdc_dram::{AccessKind, DramConfig, DramController};
use tdc_dram_cache::{L3System, SramTagCache, SystemParams, TaglessCache, VictimPolicy};
use tdc_sram_cache::{CacheGeometry, Replacement, SetAssocCache};
use tdc_trace::{profiles, SyntheticWorkload, TraceSource};
use tdc_util::obs::LogHistogram;
use tdc_util::{Pcg32, Rng, Vpn, Zipf, PAGE_SIZE};

/// The stability contract: medians of the two most recent
/// `STABLE_WINDOW`-run windows within `STABLE_TOLERANCE` of each other
/// (relative).
pub const STABLE_WINDOW: usize = 3;
/// See [`STABLE_WINDOW`].
pub const STABLE_TOLERANCE: f64 = 0.02;

/// One registered measurement kernel: a named, fixed-budget timing
/// target. Instantiating yields a fresh closure with its own state, so
/// repeated measurements start from the same warm-up point.
pub struct Kernel {
    /// Kernel family (one `-- group --` heading in the bench table).
    pub group: &'static str,
    /// Kernel name within the group.
    pub name: &'static str,
    /// Calls per timed run (before `TDC_BENCH_ITERS_SCALE`).
    pub iters: u64,
    factory: fn() -> Box<dyn FnMut() -> u64>,
}

impl Kernel {
    /// The stable `group/name` identifier used in bench records.
    pub fn id(&self) -> String {
        format!("{}/{}", self.group, self.name)
    }

    /// Builds a fresh instance of the kernel's workload closure.
    pub fn instantiate(&self) -> Box<dyn FnMut() -> u64> {
        (self.factory)()
    }
}

/// The repeat-until-stable timing parameters, resolved from the
/// environment (see the module docs for the knobs).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Minimum timed runs per kernel.
    pub min_runs: usize,
    /// Hard cap on runs when timings refuse to settle.
    pub max_runs: usize,
    /// Sliding-window length for the stability predicate.
    pub window: usize,
    /// Relative tolerance between consecutive windowed medians.
    pub tolerance: f64,
}

impl Timing {
    /// Resolves `TDC_BENCH_RUNS` / `TDC_BENCH_MAX_RUNS` with the
    /// standard window/tolerance.
    pub fn from_env() -> Self {
        let min_runs = env_usize("TDC_BENCH_RUNS", 3);
        Self {
            min_runs,
            max_runs: env_usize("TDC_BENCH_MAX_RUNS", 10).max(min_runs),
            window: STABLE_WINDOW,
            tolerance: STABLE_TOLERANCE,
        }
    }

    /// Whether the run series has settled per
    /// [`tdc_util::stats::median_window_stable`].
    fn is_stable(&self, runs: &[f64]) -> bool {
        tdc_util::stats::median_window_stable(runs, self.window, self.tolerance)
    }

    /// Whether another timed run should be taken after `runs`.
    pub fn wants_more(&self, runs: &[f64]) -> bool {
        runs.len() < self.max_runs && (runs.len() < self.min_runs || !self.is_stable(runs))
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// A kernel's effective per-run iteration budget after
/// `TDC_BENCH_ITERS_SCALE` (floored at one call).
#[expect(
    clippy::cast_possible_truncation,
    reason = "iteration budgets are small and round down on purpose"
)]
fn effective_iters(iters: u64) -> u64 {
    let scale = std::env::var("TDC_BENCH_ITERS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|f| f.is_finite() && *f > 0.0)
        .unwrap_or(1.0);
    ((iters as f64 * scale) as u64).max(1)
}

/// Times one kernel: a 1/10 warm-up pass, then repeated fixed-budget
/// runs until [`Timing`] says the series has settled (or the cap is
/// hit). Returns ns/op per run, in execution order.
pub fn measure(kernel: &Kernel, timing: &Timing) -> Vec<f64> {
    let iters = effective_iters(kernel.iters);
    let mut f = kernel.instantiate();
    for _ in 0..iters / 10 {
        black_box(f());
    }
    let mut runs = Vec::new();
    loop {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock is what a kernel measures; it feeds no simulated result"
        )]
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        runs.push(start.elapsed().as_nanos() as f64 / iters as f64);
        if !timing.wants_more(&runs) {
            return runs;
        }
    }
}

/// Every registered micro kernel, in report order.
pub fn micro_kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            group: "dram_controller",
            name: "block_read_row_hits",
            iters: 2_000_000,
            factory: k_block_read_row_hits,
        },
        Kernel {
            group: "dram_controller",
            name: "block_read_random",
            iters: 2_000_000,
            factory: k_block_read_random,
        },
        Kernel {
            group: "dram_controller",
            name: "page_fill_4kb",
            iters: 500_000,
            factory: k_page_fill_4kb,
        },
        Kernel {
            group: "access_path",
            name: "tagless_warm_hit",
            iters: 1_000_000,
            factory: k_tagless_warm_hit,
        },
        Kernel {
            group: "access_path",
            name: "sram_tag_warm_hit",
            iters: 1_000_000,
            factory: k_sram_tag_warm_hit,
        },
        Kernel {
            group: "access_path",
            name: "tagless_cold_fill",
            iters: 200_000,
            factory: k_tagless_cold_fill,
        },
        Kernel {
            group: "set_assoc_cache",
            name: "lru",
            iters: 2_000_000,
            factory: k_set_assoc_lru,
        },
        Kernel {
            group: "set_assoc_cache",
            name: "fifo",
            iters: 2_000_000,
            factory: k_set_assoc_fifo,
        },
        Kernel {
            group: "trace_gen",
            name: "mcf",
            iters: 2_000_000,
            factory: k_trace_mcf,
        },
        Kernel {
            group: "trace_gen",
            name: "libquantum",
            iters: 2_000_000,
            factory: k_trace_libquantum,
        },
        Kernel {
            group: "trace_gen",
            name: "zipf_sample",
            iters: 2_000_000,
            factory: k_zipf_sample,
        },
        Kernel {
            group: "obs",
            name: "hist_record_merge",
            iters: 2_000_000,
            factory: k_hist_record_merge,
        },
        Kernel {
            group: "pool",
            name: "steal_imbalanced",
            iters: 64,
            factory: k_pool_steal_imbalanced,
        },
    ]
}

fn one_core(cache_bytes: u64) -> SystemParams {
    let mut p = SystemParams::with_cache_capacity(cache_bytes);
    p.cores = 1;
    p.core_asid = vec![0];
    p
}

fn k_block_read_row_hits() -> Box<dyn FnMut() -> u64> {
    let mut m = DramController::new(DramConfig::in_package_1gb());
    let mut now = 0u64;
    let mut addr = 0u64;
    Box::new(move || {
        let r = m.access(now, addr % (1 << 28), AccessKind::Read, 64);
        now = r.first_data;
        addr += 64;
        r.first_data
    })
}

fn k_block_read_random() -> Box<dyn FnMut() -> u64> {
    let mut m = DramController::new(DramConfig::off_package_8gb());
    let mut rng = Pcg32::seed_from_u64(1);
    let mut now = 0u64;
    Box::new(move || {
        let r = m.access(now, rng.gen_range(1 << 33), AccessKind::Read, 64);
        now = r.first_data;
        r.first_data
    })
}

fn k_page_fill_4kb() -> Box<dyn FnMut() -> u64> {
    let mut m = DramController::new(DramConfig::off_package_8gb());
    let mut rng = Pcg32::seed_from_u64(2);
    let mut now = 0u64;
    Box::new(move || {
        let r = m.access(now, rng.gen_range(1 << 33) & !4095, AccessKind::Read, 4096);
        now = r.first_data;
        r.done
    })
}

/// The headline comparison: one translate+access on the tagless path,
/// warm state.
fn k_tagless_warm_hit() -> Box<dyn FnMut() -> u64> {
    let p = one_core(64 << 20);
    let mut l3 = TaglessCache::new(&p, VictimPolicy::Fifo);
    for v in 0..16u64 {
        l3.translate(v * 10_000, 0, Vpn(v), false);
    }
    let mut now = 1_000_000u64;
    let mut v = 0u64;
    Box::new(move || {
        let tr = l3.translate(now, 0, Vpn(v % 16), false);
        let m = l3.access(now + tr.penalty, 0, tr.frame, tr.nc, v % 64);
        now += 200;
        v += 1;
        m.latency
    })
}

/// The same translate+access on the SRAM-tag baseline path.
fn k_sram_tag_warm_hit() -> Box<dyn FnMut() -> u64> {
    let p = one_core(64 << 20);
    let mut l3 = SramTagCache::new(&p);
    for v in 0..16u64 {
        let tr = l3.translate(v * 10_000, 0, Vpn(v), false);
        l3.access(v * 10_000 + tr.penalty, 0, tr.frame, tr.nc, 0);
    }
    let mut now = 1_000_000u64;
    let mut v = 0u64;
    Box::new(move || {
        let tr = l3.translate(now, 0, Vpn(v % 16), false);
        let m = l3.access(now + tr.penalty, 0, tr.frame, tr.nc, v % 64);
        now += 200;
        v += 1;
        m.latency
    })
}

/// The tagless miss path: a 4,096-slot (16 MB) cache cycled through
/// four times as many pages, so once warm every call misses the cTLB
/// and the cache, fills one page and evicts one, while the page table
/// stops growing after the first pass.
fn k_tagless_cold_fill() -> Box<dyn FnMut() -> u64> {
    const SLOTS: u64 = 4096;
    let p = one_core(SLOTS * PAGE_SIZE);
    let mut l3 = TaglessCache::new(&p, VictimPolicy::Fifo);
    let mut now = 0u64;
    let mut v = 0u64;
    Box::new(move || {
        let tr = l3.translate(now, 0, Vpn(v % (4 * SLOTS)), false);
        now += tr.penalty + 100;
        v += 1;
        tr.penalty
    })
}

fn set_assoc(repl: Replacement) -> Box<dyn FnMut() -> u64> {
    let geom = CacheGeometry::new(2 << 20, 64, 16).expect("valid geometry");
    let mut cache = SetAssocCache::new(geom, repl);
    let mut rng = Pcg32::seed_from_u64(3);
    Box::new(move || {
        let r = cache.access(rng.gen_range(16 << 20), false);
        u64::from(r.hit)
    })
}

fn k_set_assoc_lru() -> Box<dyn FnMut() -> u64> {
    set_assoc(Replacement::Lru)
}

fn k_set_assoc_fifo() -> Box<dyn FnMut() -> u64> {
    set_assoc(Replacement::Fifo)
}

fn trace_kernel(name: &str) -> Box<dyn FnMut() -> u64> {
    let profile = profiles::spec(name).expect("known benchmark name").clone();
    let mut w = SyntheticWorkload::new(profile, 7, 0);
    Box::new(move || w.next_ref().vaddr.0)
}

fn k_trace_mcf() -> Box<dyn FnMut() -> u64> {
    trace_kernel("mcf")
}

fn k_trace_libquantum() -> Box<dyn FnMut() -> u64> {
    trace_kernel("libquantum")
}

fn k_zipf_sample() -> Box<dyn FnMut() -> u64> {
    let z = Zipf::new(1 << 20, 0.95).expect("valid zipf");
    let mut rng = Pcg32::seed_from_u64(5);
    Box::new(move || z.sample(&mut rng))
}

/// The slice-stealing scheduler under a deliberately skewed task-cost
/// distribution (DESIGN.md §16): 32 tasks on 4 workers where the first
/// home slice is all boulders and the rest are pebbles, so finishing
/// in balanced time requires the pebble workers to steal the boulder
/// owner's leftovers. The kernel times one whole `run_tasks` batch —
/// spawn, slice claims, the steal pass, telemetry, join and the
/// scatter by index — and the sum it returns is schedule-independent,
/// so the value stream stays deterministic while the regression gate
/// watches the scheduling cost. If stealing quietly stopped working,
/// the batch would serialize behind the boulder slice and trip the
/// gate.
fn k_pool_steal_imbalanced() -> Box<dyn FnMut() -> u64> {
    // 8 boulders followed by 24 pebbles: with 4 workers and contiguous
    // seeding, worker 0 owns every boulder.
    let costs: Vec<u64> = (0..32u64).map(|i| if i < 8 { 32_000 } else { 500 }).collect();
    // The batch setup (worker threads, slice cursors, result vectors)
    // and per-task spin are the measured scheduler cost, so every call
    // allocates: this closure is the pool's own gate, not a simulator
    // hot path.
    Box::new(move || {
        let (parts, _) = tdc_util::pool::run_tasks(&costs, 4, |i, &spin| {
            let mut acc = i as u64 + 1;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        });
        parts.iter().fold(0u64, |a, &p| a.wrapping_add(p))
    })
}

/// The observability layer's hot path (DESIGN.md §13): record a
/// latency sample into a per-worker shard histogram, folding the shard
/// into a global histogram every 1024 samples — the
/// record-locally/merge-centrally pattern of per-worker latency
/// summaries. Returns the running p99 at each merge so the quantile
/// walk is part of the measured cost.
fn k_hist_record_merge() -> Box<dyn FnMut() -> u64> {
    let mut shard = LogHistogram::new();
    let mut global = LogHistogram::new();
    let mut rng = Pcg32::seed_from_u64(6);
    let mut n = 0u64;
    Box::new(move || {
        shard.record(rng.gen_range(1 << 20));
        n += 1;
        if n.is_multiple_of(1024) {
            global.merge(&shard);
            shard = LogHistogram::new();
            global.quantile(0.99)
        } else {
            shard.count()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_well_formed() {
        let kernels = micro_kernels();
        let mut ids: Vec<String> = kernels.iter().map(Kernel::id).collect();
        assert!(ids.len() >= 12, "kernel registry shrank to {}", ids.len());
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate kernel ids");
        for k in &kernels {
            assert!(k.iters > 0);
            assert!(!k.group.contains('/') && !k.name.contains('/'));
        }
    }

    #[test]
    fn every_kernel_instantiates_and_runs() {
        for k in micro_kernels() {
            let mut f = k.instantiate();
            // Two instances produce identical value streams: kernels
            // are deterministic, only their timing varies.
            let mut g = k.instantiate();
            for _ in 0..64 {
                assert_eq!(f(), g(), "kernel {} is nondeterministic", k.id());
            }
        }
    }

    #[test]
    fn timing_policy_respects_min_max_and_stability() {
        let t = Timing {
            min_runs: 3,
            max_runs: 5,
            window: 3,
            tolerance: 0.02,
        };
        assert!(t.wants_more(&[1.0]));
        assert!(t.wants_more(&[1.0, 1.0]));
        // Stable already at the minimum? window+1 runs are needed.
        assert!(t.wants_more(&[1.0, 1.0, 1.0]));
        assert!(!t.wants_more(&[1.0, 1.0, 1.0, 1.0]));
        // Never exceeds the cap even when unstable.
        assert!(!t.wants_more(&[1.0, 9.0, 1.0, 9.0, 1.0]));
    }

    #[test]
    fn measure_returns_a_plausible_series() {
        std::env::set_var("TDC_BENCH_ITERS_SCALE", "0.001");
        let t = Timing {
            min_runs: 2,
            max_runs: 3,
            window: 3,
            tolerance: 0.02,
        };
        let k = &micro_kernels()[0];
        let runs = measure(k, &t);
        std::env::remove_var("TDC_BENCH_ITERS_SCALE");
        assert!((2..=3).contains(&runs.len()));
        assert!(runs.iter().all(|&ns| ns.is_finite() && ns >= 0.0));
    }
}
