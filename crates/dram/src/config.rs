//! DRAM device organization (paper Table 3) and address mapping.

use crate::energy::DramEnergy;
use crate::timing::{DramTiming, CPU_GHZ};
use tdc_util::Cycle;

/// How physical addresses map to (channel, bank, row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddrMap {
    /// Consecutive 4KB rows go to consecutive banks (round-robin).
    /// Maximizes bank-level parallelism for page-granularity traffic and
    /// is the default throughout the evaluation.
    #[default]
    RowInterleave,
    /// Consecutive 64B blocks go to consecutive banks. Spreads a single
    /// page across banks; destroys page-open locality.
    BlockInterleave,
}

/// Full configuration of one DRAM device (one memory or one cache side).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Human-readable label used in reports.
    pub name: &'static str,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Data bus width per channel, in bits.
    pub bus_bits: u32,
    /// Bus clock in MHz; the bus is DDR so it transfers on both edges.
    pub bus_mhz: u32,
    /// Row (DRAM page) size in bytes. The paper's energy numbers assume
    /// 4KB rows, conveniently equal to the OS page size.
    pub row_bytes: u64,
    /// Timing parameters.
    pub timing: DramTiming,
    /// Energy parameters.
    pub energy: DramEnergy,
    /// Address mapping policy.
    pub addr_map: AddrMap,
}

impl DramConfig {
    /// The paper's in-package DRAM (Table 3) with the given capacity —
    /// 1GB by default, 256MB–1GB in the Fig. 10 sensitivity study.
    pub fn in_package(capacity_bytes: u64) -> Self {
        Self {
            name: "in-package",
            capacity_bytes,
            channels: 1,
            ranks: 2,
            banks_per_rank: 16,
            bus_bits: 128,
            bus_mhz: 1600,
            row_bytes: 4096,
            timing: DramTiming::in_package(),
            energy: DramEnergy::in_package(),
            addr_map: AddrMap::RowInterleave,
        }
    }

    /// The paper's 1GB in-package DRAM cache.
    pub fn in_package_1gb() -> Self {
        Self::in_package(1 << 30)
    }

    /// The paper's 8GB off-package DDR3 DRAM (Table 3).
    pub fn off_package_8gb() -> Self {
        Self {
            name: "off-package",
            capacity_bytes: 8 << 30,
            channels: 1,
            ranks: 2,
            banks_per_rank: 64,
            bus_bits: 64,
            bus_mhz: 800,
            row_bytes: 4096,
            timing: DramTiming::off_package(),
            energy: DramEnergy::off_package(),
            addr_map: AddrMap::RowInterleave,
        }
    }

    /// Total number of banks across all channels and ranks.
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks * self.banks_per_rank
    }

    /// CPU cycles needed to transfer `bytes` over one channel's data bus.
    ///
    /// The bus is DDR: it moves `bus_bits` per edge, i.e. two transfers
    /// per bus clock. Result is at least 1 cycle for a non-empty
    /// transfer.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a burst lasts a handful of cycles"
    )]
    pub fn transfer_cycles(&self, bytes: u64) -> Cycle {
        if bytes == 0 {
            return 0;
        }
        let bytes_per_transfer = self.bus_bits as f64 / 8.0;
        let transfers = (bytes as f64 / bytes_per_transfer).ceil();
        let transfers_per_sec = self.bus_mhz as f64 * 1e6 * 2.0;
        let ns = transfers / transfers_per_sec * 1e9;
        (ns * CPU_GHZ).ceil().max(1.0) as Cycle
    }

    /// Peak bandwidth in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.channels as f64 * (self.bus_bits as f64 / 8.0) * self.bus_mhz as f64 * 2.0 / 1000.0
    }

    /// Maps a device-local address to `(channel, global bank index, row)`.
    ///
    /// Reference implementation; the controller uses the precomputed
    /// [`AddrMapper`] (same function, shift/mask arithmetic when the
    /// geometry is power-of-two).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "remainders by the bank count fit u32"
    )]
    pub fn map_addr(&self, addr: u64) -> (u32, u32, u64) {
        let banks = self.total_banks() as u64;
        match self.addr_map {
            AddrMap::RowInterleave => {
                let row_index = addr / self.row_bytes;
                let bank = (row_index % banks) as u32;
                let channel = bank % self.channels;
                (channel, bank, row_index / banks)
            }
            AddrMap::BlockInterleave => {
                let block = addr / 64;
                let bank = (block % banks) as u32;
                let channel = bank % self.channels;
                (channel, bank, addr / self.row_bytes)
            }
        }
    }

    /// Builds the precomputed access-path mapper for this geometry.
    pub fn mapper(&self) -> AddrMapper {
        AddrMapper::new(self)
    }
}

/// A divide/modulo pair strength-reduced to shift/mask when the divisor
/// is a power of two (every Table 3 geometry is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Divisor {
    Pow2 { shift: u32, mask: u64 },
    General(u64),
}

impl Divisor {
    fn new(d: u64) -> Self {
        debug_assert!(d > 0, "divisor must be positive");
        if d.is_power_of_two() {
            Divisor::Pow2 {
                shift: d.trailing_zeros(),
                mask: d - 1,
            }
        } else {
            Divisor::General(d)
        }
    }

    #[inline]
    fn div(self, x: u64) -> u64 {
        match self {
            Divisor::Pow2 { shift, .. } => x >> shift,
            Divisor::General(d) => x / d,
        }
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        match self {
            Divisor::Pow2 { mask, .. } => x & mask,
            Divisor::General(d) => x % d,
        }
    }
}

/// Precomputed address→(channel, bank, row) mapping for the access
/// path: [`DramConfig::map_addr`] with the per-access divides strength-
/// reduced at construction (DESIGN.md §15). Produces bit-identical
/// results to `map_addr` for every geometry, power-of-two or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrMapper {
    addr_map: AddrMap,
    row: Divisor,
    banks: Divisor,
    channels: Divisor,
}

impl AddrMapper {
    /// Precomputes the mapper for `config`'s geometry.
    pub fn new(config: &DramConfig) -> Self {
        Self {
            addr_map: config.addr_map,
            row: Divisor::new(config.row_bytes),
            banks: Divisor::new(config.total_banks() as u64),
            channels: Divisor::new(config.channels as u64),
        }
    }

    /// Maps a device-local address to `(channel, global bank index,
    /// row)`; identical to [`DramConfig::map_addr`].
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "remainders by the bank and channel counts fit u32"
    )]
    pub fn map(&self, addr: u64) -> (u32, u32, u64) {
        match self.addr_map {
            AddrMap::RowInterleave => {
                let row_index = self.row.div(addr);
                let bank = self.banks.rem(row_index) as u32;
                let channel = self.channels.rem(bank as u64) as u32;
                (channel, bank, self.banks.div(row_index))
            }
            AddrMap::BlockInterleave => {
                let block = addr >> 6;
                let bank = self.banks.rem(block) as u32;
                let channel = self.channels.rem(bank as u64) as u32;
                (channel, bank, self.row.div(addr))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_organizations() {
        let i = DramConfig::in_package_1gb();
        assert_eq!(i.total_banks(), 32);
        assert_eq!(i.capacity_bytes, 1 << 30);
        let o = DramConfig::off_package_8gb();
        assert_eq!(o.total_banks(), 128);
        assert_eq!(o.capacity_bytes, 8 << 30);
    }

    #[test]
    fn in_package_bandwidth_is_4x_off_package() {
        // Paper §4: "The bandwidth of in-package DRAM is four times
        // greater than that of off-package DRAM."
        let i = DramConfig::in_package_1gb().peak_bandwidth_gbps();
        let o = DramConfig::off_package_8gb().peak_bandwidth_gbps();
        assert!((i / o - 4.0).abs() < 1e-9, "ratio {}", i / o);
    }

    #[test]
    fn block_transfer_cycles() {
        // 64B in-package: 4 transfers @3.2GT/s = 1.25ns = 4 cycles.
        assert_eq!(DramConfig::in_package_1gb().transfer_cycles(64), 4);
        // 64B off-package: 8 transfers @1.6GT/s = 5ns = 15 cycles.
        assert_eq!(DramConfig::off_package_8gb().transfer_cycles(64), 15);
    }

    #[test]
    fn page_transfer_cycles() {
        // 4KB page fill transfers.
        assert_eq!(DramConfig::in_package_1gb().transfer_cycles(4096), 240);
        assert_eq!(DramConfig::off_package_8gb().transfer_cycles(4096), 960);
    }

    #[test]
    fn zero_transfer_is_free() {
        assert_eq!(DramConfig::in_package_1gb().transfer_cycles(0), 0);
    }

    #[test]
    fn row_interleave_spreads_consecutive_rows() {
        let cfg = DramConfig::in_package_1gb();
        let (_, b0, r0) = cfg.map_addr(0);
        let (_, b1, r1) = cfg.map_addr(4096);
        assert_ne!(b0, b1, "consecutive rows must hit different banks");
        assert_eq!(r0, r1);
        // Same row, different column: same bank and row.
        let (_, b2, r2) = cfg.map_addr(64);
        assert_eq!((b0, r0), (b2, r2));
    }

    #[test]
    fn block_interleave_spreads_consecutive_blocks() {
        let mut cfg = DramConfig::in_package_1gb();
        cfg.addr_map = AddrMap::BlockInterleave;
        let (_, b0, _) = cfg.map_addr(0);
        let (_, b1, _) = cfg.map_addr(64);
        assert_ne!(b0, b1);
    }

    #[test]
    fn mapper_matches_map_addr_for_every_geometry() {
        // Differential property: the precomputed mapper must agree with
        // the reference division on power-of-two geometries (the shift/
        // mask fast path) and non-power-of-two ones (the fallback).
        let mut configs = vec![
            DramConfig::in_package_1gb(),
            DramConfig::off_package_8gb(),
        ];
        let mut odd = DramConfig::in_package_1gb();
        odd.banks_per_rank = 3;
        odd.ranks = 3;
        odd.channels = 3;
        configs.push(odd);
        let mut block = DramConfig::off_package_8gb();
        block.addr_map = AddrMap::BlockInterleave;
        configs.push(block);
        let mut odd_block = DramConfig::in_package_1gb();
        odd_block.addr_map = AddrMap::BlockInterleave;
        odd_block.banks_per_rank = 5;
        configs.push(odd_block);
        for cfg in &configs {
            let mapper = cfg.mapper();
            let mut addr: u64 = 0;
            // Dense low addresses plus a multiplicative sweep across the
            // whole device (hits row, bank, and channel boundaries).
            for i in 0..20_000u64 {
                let probe = if i < 4096 { i } else { addr };
                assert_eq!(
                    mapper.map(probe),
                    cfg.map_addr(probe),
                    "{}: addr {probe:#x}",
                    cfg.name
                );
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
                    % cfg.capacity_bytes;
            }
        }
    }

    #[test]
    fn bank_indices_in_range() {
        let cfg = DramConfig::off_package_8gb();
        for addr in (0..(1u64 << 24)).step_by(4096 * 7 + 64) {
            let (ch, bank, _) = cfg.map_addr(addr);
            assert!(ch < cfg.channels);
            assert!(bank < cfg.total_banks());
        }
    }
}
