//! DRAM timing parameters and conversion to CPU cycles.

use tdc_util::Cycle;

/// Modeled CPU clock frequency in GHz (paper Table 3: 3 GHz cores).
///
/// All latencies in the simulator are expressed in CPU cycles at this
/// frequency.
pub const CPU_GHZ: f64 = 3.0;

/// Converts a latency in nanoseconds to CPU cycles, rounding up.
///
/// # Examples
///
/// ```
/// use tdc_dram::ns_to_cycles;
/// assert_eq!(ns_to_cycles(10.0), 30); // 10 ns at 3 GHz
/// assert_eq!(ns_to_cycles(0.4), 2);   // rounds up
/// ```
#[expect(
    clippy::cast_possible_truncation,
    reason = "DRAM timings are a few hundred ns at most"
)]
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns * CPU_GHZ).ceil() as Cycle
}

/// Core DRAM timing parameters, in nanoseconds (paper Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Activate-to-read delay (tRCD).
    pub t_rcd_ns: f64,
    /// Read-to-first-data delay (tAA / CAS latency).
    pub t_aa_ns: f64,
    /// Activate-to-precharge delay (tRAS).
    pub t_ras_ns: f64,
    /// Precharge command period (tRP).
    pub t_rp_ns: f64,
    /// Column-to-column command delay (tCCD): the minimum spacing of
    /// back-to-back column bursts to an open row. The controller models
    /// this through the per-burst data-bus reservation (one 64B burst
    /// occupies the bus for exactly tCCD), so this field documents the
    /// effective value rather than adding a second serialization point.
    pub t_ccd_ns: f64,
}

impl DramTiming {
    /// Timing of the 3D TSV-based in-package DRAM (Table 4).
    pub fn in_package() -> Self {
        Self {
            t_rcd_ns: 8.0,
            t_aa_ns: 10.0,
            t_ras_ns: 22.0,
            t_rp_ns: 14.0,
            // 64B over a 128-bit DDR bus at 1600MHz: 4 edges = 1.25ns.
            t_ccd_ns: 1.25,
        }
    }

    /// Timing of the DDR3-style off-package DRAM (Table 4).
    pub fn off_package() -> Self {
        Self {
            t_rcd_ns: 14.0,
            t_aa_ns: 14.0,
            t_ras_ns: 35.0,
            t_rp_ns: 14.0,
            // 64B over a 64-bit DDR bus at 800MHz: 8 edges = 5ns.
            t_ccd_ns: 5.0,
        }
    }

    /// tRCD in CPU cycles.
    pub fn t_rcd(&self) -> Cycle {
        ns_to_cycles(self.t_rcd_ns)
    }

    /// tAA in CPU cycles.
    pub fn t_aa(&self) -> Cycle {
        ns_to_cycles(self.t_aa_ns)
    }

    /// tRAS in CPU cycles.
    pub fn t_ras(&self) -> Cycle {
        ns_to_cycles(self.t_ras_ns)
    }

    /// tRP in CPU cycles.
    pub fn t_rp(&self) -> Cycle {
        ns_to_cycles(self.t_rp_ns)
    }

    /// tCCD (one 64B burst slot) in CPU cycles.
    pub fn t_ccd(&self) -> Cycle {
        ns_to_cycles(self.t_ccd_ns)
    }

    /// Row-buffer-hit access latency (tAA only), in CPU cycles.
    pub fn row_hit_latency(&self) -> Cycle {
        self.t_aa()
    }

    /// Closed-row access latency (tRCD + tAA), in CPU cycles.
    pub fn row_closed_latency(&self) -> Cycle {
        self.t_rcd() + self.t_aa()
    }

    /// Row-conflict access latency assuming tRAS already satisfied
    /// (tRP + tRCD + tAA), in CPU cycles.
    pub fn row_conflict_latency(&self) -> Cycle {
        self.t_rp() + self.t_rcd() + self.t_aa()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion_rounds_up() {
        assert_eq!(ns_to_cycles(0.0), 0);
        assert_eq!(ns_to_cycles(1.0), 3);
        assert_eq!(ns_to_cycles(1.1), 4);
    }

    #[test]
    fn table4_in_package_cycles() {
        let t = DramTiming::in_package();
        assert_eq!(t.t_rcd(), 24);
        assert_eq!(t.t_aa(), 30);
        assert_eq!(t.t_ras(), 66);
        assert_eq!(t.t_rp(), 42);
        // Matches DramConfig::in_package's transfer_cycles(64).
        assert_eq!(t.t_ccd(), 4);
    }

    #[test]
    fn table4_off_package_cycles() {
        let t = DramTiming::off_package();
        assert_eq!(t.t_rcd(), 42);
        assert_eq!(t.t_aa(), 42);
        assert_eq!(t.t_ras(), 105);
        assert_eq!(t.t_rp(), 42);
        // Matches DramConfig::off_package's transfer_cycles(64).
        assert_eq!(t.t_ccd(), 15);
    }

    #[test]
    fn in_package_is_uniformly_faster() {
        let i = DramTiming::in_package();
        let o = DramTiming::off_package();
        assert!(i.row_hit_latency() < o.row_hit_latency());
        assert!(i.row_closed_latency() < o.row_closed_latency());
        assert!(i.row_conflict_latency() < o.row_conflict_latency());
    }
}
