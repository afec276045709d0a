//! DRAM device timing, energy, and controller models.
//!
//! This crate is the substrate the paper obtains from CACTI-3DD /
//! Microbank \[34\]: parameterized timing and energy models for both the
//! 3D TSV-based **in-package** DRAM (the DRAM cache) and the DDR3-style
//! **off-package** DRAM (main memory), plus a resource-reservation
//! controller that turns individual accesses into completion times under
//! bank and channel contention. The substitution rationale is
//! DESIGN.md §2; every timing constant DESIGN.md references must exist
//! here (enforced by the root `tests/design_sync.rs`, DESIGN.md §9).
//!
//! The default parameters are exactly the paper's Table 3 (organization)
//! and Table 4 (timing/energy):
//!
//! | parameter | in-package | off-package |
//! |-----------|-----------:|------------:|
//! | bus       | 128b @ 1.6 GHz DDR | 64b @ 800 MHz DDR |
//! | banks     | 2 ranks × 16 banks | 2 ranks × 64 banks |
//! | tRCD/tAA/tRAS/tRP | 8/10/22/14 ns | 14/14/35/14 ns |
//! | I/O, RD/WR, ACT+PRE energy | 2.4 pJ/b, 4 pJ/b, 15 nJ | 20 pJ/b, 13 pJ/b, 15 nJ |
//!
//! # Examples
//!
//! ```
//! use tdc_dram::{AccessKind, DramConfig, DramController};
//!
//! let mut mem = DramController::new(DramConfig::off_package_8gb());
//! let c = mem.access(0, 0x1000, AccessKind::Read, 64);
//! assert!(c.first_data > 0);
//! assert!(c.energy_pj > 0.0);
//! ```

// The type-checked line rules of DESIGN.md §9, for non-test library code.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::panic, clippy::cast_possible_truncation)
)]

pub mod config;
pub mod controller;
pub mod energy;
pub mod timing;

pub use config::{AddrMap, DramConfig};
pub use controller::{AccessKind, Completion, DramController, DramStats};
pub use energy::DramEnergy;
pub use timing::{ns_to_cycles, DramTiming, CPU_GHZ};
