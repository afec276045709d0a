//! The multicore system: trace-driven cores with private L1D/L2 caches
//! in front of a DRAM cache organization.
//!
//! Cores advance in global time order: each simulation step processes
//! one memory reference on the core with the smallest local clock, so
//! contention on the shared DRAM devices is interleaved realistically.

use crate::core_model::{CoreParams, CoreState};
use tdc_dram_cache::{Frame, L3System};
use tdc_sram_cache::{CacheGeometry, Replacement, SetAssocCache};
use tdc_trace::TraceSource;
use tdc_util::probe::{NoProbe, Phase, Probe, ProbeEvent};
use tdc_util::Cycle;

/// On-die cache latencies (paper Table 3).
const L1_HIT_CYCLES: Cycle = 2;
const L2_HIT_CYCLES: Cycle = 6;

/// Per-core hierarchy and counters.
struct CoreCtx {
    core: CoreState,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    trace: Box<dyn TraceSource>,
    refs_done: u64,
    l1_misses: u64,
    l2_misses: u64,
    tlb_penalty_sum: u64,
    // Snapshot at end of warmup.
    base_clock: Cycle,
    base_instrs: u64,
    base_tlb_penalty: u64,
    base_mem_stall: u64,
    base_l1_misses: u64,
    base_l2_misses: u64,
    base_refs: u64,
}

impl CoreCtx {
    fn new(params: CoreParams, trace: Box<dyn TraceSource>) -> Self {
        let l1 = CacheGeometry::new(32 * 1024, 64, 4).expect("Table 3 L1 geometry");
        let l2 = CacheGeometry::new(2 * 1024 * 1024, 64, 16).expect("Table 3 L2 geometry");
        Self {
            core: CoreState::new(params),
            l1d: SetAssocCache::new(l1, Replacement::Lru),
            l2: SetAssocCache::new(l2, Replacement::Lru),
            trace,
            refs_done: 0,
            l1_misses: 0,
            l2_misses: 0,
            tlb_penalty_sum: 0,
            base_clock: 0,
            base_instrs: 0,
            base_tlb_penalty: 0,
            base_mem_stall: 0,
            base_l1_misses: 0,
            base_l2_misses: 0,
            base_refs: 0,
        }
    }

    fn snapshot_baseline(&mut self) {
        self.base_clock = self.core.clock();
        self.base_instrs = self.core.instrs();
        self.base_tlb_penalty = self.tlb_penalty_sum;
        self.base_mem_stall = self.core.stall_cycles();
        self.base_l1_misses = self.l1_misses;
        self.base_l2_misses = self.l2_misses;
        self.base_refs = self.refs_done;
    }
}

/// Per-core measured results after a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreResult {
    /// Instructions retired during the measured phase.
    pub instrs: u64,
    /// Cycles elapsed during the measured phase.
    pub cycles: Cycle,
    /// Measured-phase IPC.
    pub ipc: f64,
    /// L1 misses (= L2 accesses) during the measured phase.
    pub l1_misses: u64,
    /// L2 misses during the measured phase.
    pub l2_misses: u64,
    /// Total TLB penalty cycles during the measured phase.
    pub tlb_penalty: u64,
    /// Cycles stalled on a full miss window during the measured phase.
    pub mem_stall: u64,
    /// References processed during the measured phase.
    pub refs: u64,
}

/// A complete simulated machine.
pub struct System<P: Probe = NoProbe> {
    l3: Box<dyn L3System>,
    cores: Vec<CoreCtx>,
    probe: P,
}

impl System {
    /// Builds a system from an L3 organization and one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn new(l3: Box<dyn L3System>, traces: Vec<Box<dyn TraceSource>>) -> Self {
        Self::with_probe(l3, traces, NoProbe)
    }
}

impl<P: Probe> System<P> {
    /// Builds an instrumented system: core retire/stall epochs are
    /// reported into `probe` (the L3 organization carries its own probe
    /// handle, installed when it was built).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn with_probe(
        l3: Box<dyn L3System>,
        traces: Vec<Box<dyn TraceSource>>,
        probe: P,
    ) -> Self {
        assert!(!traces.is_empty(), "need at least one core trace");
        let params = CoreParams::paper_default();
        Self {
            l3,
            cores: traces
                .into_iter()
                .map(|t| CoreCtx::new(params, t))
                .collect(),
            probe,
        }
    }

    /// The L3 organization under test.
    pub fn l3(&self) -> &dyn L3System {
        &*self.l3
    }

    /// Number of cores with traces.
    pub fn active_cores(&self) -> usize {
        self.cores.len()
    }

    /// The system-level probe, for report-assembly phase spans.
    pub(crate) fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Processes one reference on core `i`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "core ids fit u8: a machine has far fewer than 256 cores"
    )]
    fn step(&mut self, i: usize) {
        let r = self.cores[i].trace.next_ref();
        let ctx = &mut self.cores[i];
        ctx.core.retire(r.gap_instrs as u64 + 1);
        ctx.refs_done += 1;
        let now = ctx.core.clock();
        if self.probe.enabled() {
            self.probe.emit(
                now,
                ProbeEvent::Retire {
                    core: i as u8,
                    instrs: r.gap_instrs as u64 + 1,
                },
            );
        }

        // Translation (cTLB or conventional TLB).
        if self.probe.prof_enabled() {
            self.probe.phase_begin(Phase::Translation);
        }
        let tr = self.l3.translate(now, i, r.vaddr.page(), r.is_write);
        if self.probe.prof_enabled() {
            self.probe.phase_end(Phase::Translation);
        }
        let ctx = &mut self.cores[i];
        if tr.penalty > 0 {
            ctx.core.tlb_stall(tr.penalty);
            ctx.tlb_penalty_sum += tr.penalty;
            if self.probe.enabled() {
                self.probe.emit(
                    now,
                    ProbeEvent::TlbStall {
                        core: i as u8,
                        cycles: tr.penalty,
                    },
                );
            }
        }
        let now = ctx.core.clock();

        // On-die lookup with the translated (frame) address.
        let block = r.vaddr.block_in_page();
        let line_addr = tr.frame.line_addr(block);
        let l1 = ctx.l1d.access(line_addr, r.is_write);
        if l1.hit {
            return; // absorbed by the 2-cycle L1 pipeline
        }
        ctx.l1_misses += 1;
        // Fill L1; a dirty victim is written into L2.
        let mut l2_dirty_victim = None;
        if let Some(v) = l1.evicted {
            if v.dirty {
                let wb = ctx.l2.access_line(v.line, true);
                if let Some(v2) = wb.evicted {
                    if v2.dirty {
                        l2_dirty_victim = Some(v2.line);
                    }
                }
            }
        }
        let l2 = ctx.l2.access(line_addr, r.is_write);
        if let Some(v2) = l2.evicted {
            if v2.dirty {
                l2_dirty_victim = Some(v2.line);
            }
        }
        if let Some(vline) = l2_dirty_victim {
            let (frame, vblock) = Frame::from_line_addr(vline << 6);
            if self.probe.prof_enabled() {
                self.probe.phase_begin(Phase::CacheAccess);
            }
            self.l3.writeback(now, i, frame, false, vblock);
            if self.probe.prof_enabled() {
                self.probe.phase_end(Phase::CacheAccess);
            }
        }
        let ctx = &mut self.cores[i];
        if l2.hit {
            // Modeled as fully overlapped by the out-of-order window
            // apart from its pipeline occupancy.
            let _ = L1_HIT_CYCLES + L2_HIT_CYCLES;
            return;
        }
        ctx.l2_misses += 1;
        // The miss can only be issued to the memory system once an MSHR
        // (miss-window slot) is available; issuing first and queueing
        // later would double-count contention.
        let stall_before = ctx.core.stall_cycles();
        let pre_wait = ctx.core.clock();
        ctx.core.wait_for_miss_slot();
        let stalled = ctx.core.stall_cycles() - stall_before;
        if stalled > 0 && self.probe.enabled() {
            self.probe.emit(
                pre_wait,
                ProbeEvent::MemStall {
                    core: i as u8,
                    cycles: stalled,
                },
            );
        }
        let now = ctx.core.clock();
        if self.probe.prof_enabled() {
            self.probe.phase_begin(Phase::CacheAccess);
        }
        let m = self.l3.access(now, i, tr.frame, tr.nc, block);
        if self.probe.prof_enabled() {
            self.probe.phase_end(Phase::CacheAccess);
        }
        self.cores[i]
            .core
            .record_miss_completion(now + m.latency + L2_HIT_CYCLES);
    }

    /// Runs every core for `warmup + measured` references; statistics
    /// cover only the measured phase. Cores are interleaved in global
    /// time order.
    pub fn run(&mut self, warmup: u64, measured: u64) -> Vec<CoreResult> {
        let total = warmup + measured;
        // One Bookkeeping span covers the whole run loop: the nested
        // Translation/CacheAccess (and deeper) spans subtract their own
        // time, so whatever remains — trace generation, core clocks,
        // the min-clock scan — is attributed to bookkeeping.
        if self.probe.prof_enabled() {
            self.probe.phase_begin(Phase::Bookkeeping);
        }
        // Warmup phase.
        self.run_until(warmup);
        self.l3.reset_stats();
        for c in &mut self.cores {
            c.snapshot_baseline();
        }
        // Measured phase.
        self.run_until(total);
        if self.probe.prof_enabled() {
            self.probe.phase_end(Phase::Bookkeeping);
        }
        self.cores
            .iter()
            .map(|c| {
                let cycles = c.core.clock() - c.base_clock;
                let instrs = c.core.instrs() - c.base_instrs;
                CoreResult {
                    instrs,
                    cycles,
                    ipc: if cycles == 0 {
                        0.0
                    } else {
                        instrs as f64 / cycles as f64
                    },
                    l1_misses: c.l1_misses - c.base_l1_misses,
                    l2_misses: c.l2_misses - c.base_l2_misses,
                    tlb_penalty: c.tlb_penalty_sum - c.base_tlb_penalty,
                    mem_stall: c.core.stall_cycles() - c.base_mem_stall,
                    refs: c.refs_done - c.base_refs,
                }
            })
            .collect()
    }

    fn run_until(&mut self, per_core_refs: u64) {
        loop {
            // Advance the unfinished core with the smallest local clock.
            let next = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, c)| c.refs_done < per_core_refs)
                .min_by_key(|(_, c)| c.core.clock())
                .map(|(i, _)| i);
            match next {
                Some(i) => self.step(i),
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_dram_cache::{Ideal, NoL3, SystemParams, TaglessCache, VictimPolicy};
    use tdc_trace::{MemRef, ReplaySource};
    use tdc_util::VAddr;

    fn looping_trace(pages: u64, gap: u32) -> Box<dyn TraceSource> {
        let refs: Vec<MemRef> = (0..pages * 4)
            .map(|i| {
                MemRef::read(VAddr((i % pages) * 4096 + (i / pages) * 64)).with_gap(gap)
            })
            .collect();
        Box::new(ReplaySource::new(refs).expect("non-empty"))
    }

    fn params() -> SystemParams {
        let mut p = SystemParams::with_cache_capacity(64 * 4096);
        p.cores = 1;
        p.core_asid = vec![0];
        p
    }

    #[test]
    fn system_runs_and_reports() {
        let p = params();
        let mut sys = System::new(Box::new(NoL3::new(&p)), vec![looping_trace(8, 10)]);
        let res = sys.run(100, 1000);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].refs, 1000);
        assert!(res[0].ipc > 0.0);
        assert!(res[0].instrs >= 1000);
    }

    #[test]
    fn small_working_set_mostly_hits_on_die() {
        // 8 pages revisited with 64B strides: after warmup nearly
        // everything hits L1/L2 and very few L2 misses remain.
        let p = params();
        let mut sys = System::new(Box::new(NoL3::new(&p)), vec![looping_trace(8, 10)]);
        let res = sys.run(3000, 3000);
        assert!(
            res[0].l2_misses < 100,
            "unexpected L2 misses: {}",
            res[0].l2_misses
        );
    }

    #[test]
    fn ideal_beats_no_l3_on_memory_bound_trace() {
        // A large page-stride trace that defeats the on-die caches.
        let make_trace = || -> Box<dyn TraceSource> {
            let refs: Vec<MemRef> = (0..4096u64)
                .map(|i| MemRef::read(VAddr((i * 7 % 2048) * 4096)).with_gap(5))
                .collect();
            Box::new(ReplaySource::new(refs).expect("non-empty"))
        };
        let p = params();
        let mut base = System::new(Box::new(NoL3::new(&p)), vec![make_trace()]);
        let mut ideal = System::new(Box::new(Ideal::new(&p)), vec![make_trace()]);
        let rb = base.run(4096, 8192)[0];
        let ri = ideal.run(4096, 8192)[0];
        assert!(
            ri.ipc > rb.ipc * 1.05,
            "ideal {} vs no-l3 {}",
            ri.ipc,
            rb.ipc
        );
    }

    #[test]
    fn tagless_guarantees_in_package_after_warmup() {
        let p = params();
        let l3 = TaglessCache::new(&p, VictimPolicy::Fifo);
        let mut sys = System::new(Box::new(l3), vec![looping_trace(16, 10)]);
        sys.run(2000, 2000);
        let s = sys.l3().stats();
        // All measured demand reads come from in-package DRAM: the
        // 16-page working set sits inside the TLB reach.
        assert_eq!(s.in_package_reads, s.demand_reads);
    }

    #[test]
    fn multicore_traces_interleave() {
        let mut p = params();
        p.cores = 2;
        p.core_asid = vec![0, 1];
        let mut sys = System::new(
            Box::new(NoL3::new(&p)),
            vec![looping_trace(64, 5), looping_trace(64, 50)],
        );
        let res = sys.run(500, 2000);
        assert_eq!(res.len(), 2);
        // The low-gap core is more memory-bound; both make progress.
        assert_eq!(res[0].refs, 2000);
        assert_eq!(res[1].refs, 2000);
        assert!(res[1].ipc > 0.0 && res[0].ipc > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_trace_list_rejected() {
        let p = params();
        let _ = System::new(Box::new(NoL3::new(&p)), vec![]);
    }
}
