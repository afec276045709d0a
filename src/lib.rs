//! A fully associative, tagless DRAM cache — a complete reproduction of
//! Lee et al., ISCA 2015, plus the memory-system simulator it needs.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`util`] — deterministic RNG, distributions, statistics, address
//!   types.
//! * [`trace`] — synthetic SPEC/PARSEC workload generators (the
//!   documented substitution for Pin traces).
//! * [`dram`] — in-package (TSV) and off-package (DDR3) DRAM timing,
//!   energy, and controller models.
//! * [`sram_cache`] — set-associative cache structures and the Table 6
//!   SRAM tag-array model.
//! * [`tlb`] — TLBs, page tables with the VC/NC/PU bits, and the
//!   page-table walker.
//! * [`dram_cache`] — the tagless cache (cTLB + GIPT + free queue) and
//!   the No-L3 / bank-interleaved / SRAM-tag / Ideal baselines.
//! * [`core`] — the multicore system model, energy/EDP accounting, the
//!   AMAT equations, and one-call experiment runners.
//!
//! # Quickstart
//!
//! ```no_run
//! use tagless_dram_cache::core::experiment::{run_single, OrgKind, RunConfig};
//!
//! let cfg = RunConfig::quick(42);
//! let base = run_single("libquantum", OrgKind::NoL3, &cfg).expect("known benchmark");
//! let tagless = run_single("libquantum", OrgKind::Tagless, &cfg).expect("known benchmark");
//! println!(
//!     "tagless speedup: {:.2}x",
//!     tagless.ipc_total() / base.ipc_total()
//! );
//! ```
//!
//! The paper's evaluation figures are regenerated by the `tdc` CLI in
//! `crates/harness` (`cargo run --release -p tdc-harness --bin tdc --
//! fig07`, etc.) or all at once with `tdc all`; the design ablations
//! run with `cargo run --release --example ablation`.
//!
//! Architecture and design rationale live in `DESIGN.md` (the crate
//! inventory is §3); performance-history tooling is documented in
//! `BENCHMARKS.md`.

pub use tdc_core as core;
pub use tdc_dram as dram;
pub use tdc_dram_cache as dram_cache;
pub use tdc_sram_cache as sram_cache;
pub use tdc_tlb as tlb;
pub use tdc_trace as trace;
pub use tdc_util as util;

/// The most commonly used items in one import.
pub mod prelude {
    pub use tdc_core::experiment::{
        run_mix, run_parsec, run_single, run_single_tagless_nc, OrgKind, RunConfig,
    };
    pub use tdc_core::{AmatInputs, AmatModel, RunReport, System};
    pub use tdc_dram_cache::{
        BankInterleave, Frame, Ideal, L3System, NoL3, SramTagCache, SystemParams, TaglessCache,
        VictimPolicy,
    };
    pub use tdc_trace::{profiles, MemRef, SyntheticWorkload, TraceSource};
    pub use tdc_util::{Cpn, Cycle, PAddr, Ppn, VAddr, Vpn};
}
