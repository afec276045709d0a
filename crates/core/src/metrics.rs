//! Run reports: everything a figure or table needs from one simulation.

use crate::energy::EnergyReport;
use crate::system::CoreResult;
use tdc_dram::DramStats;
use tdc_dram_cache::L3Stats;
use tdc_util::Cycle;

/// The complete result of simulating one (workload, organization) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Organization label (e.g. `"cTLB"`).
    pub org: String,
    /// Workload label (e.g. `"mcf"` or `"MIX3"`).
    pub workload: String,
    /// Per-core measured results.
    pub cores: Vec<CoreResult>,
    /// L3 organization statistics (measured phase).
    pub l3: L3Stats,
    /// In-package DRAM device statistics, when the organization has one.
    pub in_pkg: Option<DramStats>,
    /// Off-package DRAM device statistics.
    pub off_pkg: DramStats,
    /// Energy breakdown and EDP.
    pub energy: EnergyReport,
}

impl RunReport {
    /// Aggregate IPC: the sum of per-core IPCs (system throughput).
    pub fn ipc_total(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc).sum()
    }

    /// Total instructions retired in the measured phase.
    pub fn instrs_total(&self) -> u64 {
        self.cores.iter().map(|c| c.instrs).sum()
    }

    /// Longest per-core elapsed time (the measured-phase makespan).
    pub fn makespan_cycles(&self) -> Cycle {
        self.cores.iter().map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Average L3 access latency *including* amortized TLB penalty, the
    /// quantity Fig. 8 plots: cycles of translation plus below-L2
    /// service per demand read.
    pub fn avg_l3_latency(&self) -> f64 {
        if self.l3.demand_reads == 0 {
            return 0.0;
        }
        let tlb: u64 = self.cores.iter().map(|c| c.tlb_penalty).sum();
        (self.l3.demand_latency_sum + tlb) as f64 / self.l3.demand_reads as f64
    }

    /// Measured L2-miss MPKI across all cores.
    pub fn mpki(&self) -> f64 {
        let instrs = self.instrs_total();
        if instrs == 0 {
            return 0.0;
        }
        let misses: u64 = self.cores.iter().map(|c| c.l2_misses).sum();
        misses as f64 * 1000.0 / instrs as f64
    }

    /// This run's IPC normalized to a baseline run (paper Figs. 7/9/12).
    pub fn normalized_ipc(&self, baseline: &RunReport) -> f64 {
        self.ipc_total() / baseline.ipc_total()
    }

    /// This run's EDP normalized to a baseline run.
    pub fn normalized_edp(&self, baseline: &RunReport) -> f64 {
        self.energy.edp / baseline.energy.edp
    }

    /// Fraction of demand reads served in-package.
    pub fn in_package_fraction(&self) -> f64 {
        self.l3.in_package_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyModel;

    fn fake_core(ipc: f64, cycles: Cycle) -> CoreResult {
        CoreResult {
            instrs: (ipc * cycles as f64) as u64,
            cycles,
            ipc,
            l1_misses: 10,
            l2_misses: 5,
            tlb_penalty: 100,
            mem_stall: 0,
            refs: 100,
        }
    }

    fn fake_report(ipc: f64, edp_scale: f64) -> RunReport {
        let energy = EnergyModel::paper_default().report(
            1,
            (1e6 * edp_scale) as u64,
            1000,
            100,
            1e6,
            0.0,
        );
        RunReport {
            org: "test".into(),
            workload: "w".into(),
            cores: vec![fake_core(ipc, 1_000_000)],
            l3: L3Stats {
                demand_reads: 10,
                demand_latency_sum: 500,
                ..Default::default()
            },
            in_pkg: None,
            off_pkg: DramStats::default(),
            energy,
        }
    }

    #[test]
    fn aggregates() {
        let r = fake_report(2.0, 1.0);
        assert!((r.ipc_total() - 2.0).abs() < 1e-9);
        assert_eq!(r.makespan_cycles(), 1_000_000);
        // 500 latency + 100 tlb over 10 reads.
        assert!((r.avg_l3_latency() - 60.0).abs() < 1e-9);
        assert!(r.mpki() > 0.0);
    }

    #[test]
    fn avg_l3_latency_amortizes_tlb_penalty_across_cores() {
        // Hand-computed pin of the Fig. 8 quantity. Two cores with
        // different translation overheads share one L3:
        //   demand_latency_sum = 1_200 cycles over 40 demand reads,
        //   core 0 tlb_penalty = 300, core 1 tlb_penalty = 500.
        // avg = (1200 + 300 + 500) / 40 = 50 exactly.
        let mut r = fake_report(1.0, 1.0);
        r.cores = vec![fake_core(1.0, 1_000), fake_core(1.0, 1_000)];
        r.cores[0].tlb_penalty = 300;
        r.cores[1].tlb_penalty = 500;
        r.l3.demand_reads = 40;
        r.l3.demand_latency_sum = 1_200;
        assert!((r.avg_l3_latency() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn avg_l3_latency_is_zero_without_demand_reads() {
        let mut r = fake_report(1.0, 1.0);
        r.l3.demand_reads = 0;
        r.l3.demand_latency_sum = 0;
        // Division guard: no reads must not produce NaN.
        assert_eq!(r.avg_l3_latency(), 0.0);
    }

    #[test]
    fn zero_instruction_run_yields_finite_metrics() {
        // A run whose measured phase retired nothing (e.g. a degenerate
        // warmup-only configuration) must report zeros, not NaN/inf.
        let mut r = fake_report(0.0, 1.0);
        for c in &mut r.cores {
            c.instrs = 0;
            c.ipc = 0.0;
            c.l2_misses = 7; // misses with no instructions: worst case
        }
        assert_eq!(r.instrs_total(), 0);
        assert_eq!(r.mpki(), 0.0);
        assert_eq!(r.ipc_total(), 0.0);
        assert!(r.mpki().is_finite() && r.ipc_total().is_finite());
    }

    #[test]
    fn normalization() {
        let base = fake_report(1.0, 1.0);
        let better = fake_report(1.3, 0.8);
        assert!((better.normalized_ipc(&base) - 1.3).abs() < 1e-9);
        assert!(better.normalized_edp(&base) < 1.0);
    }
}
