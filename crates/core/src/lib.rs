//! System assembly and experiment infrastructure for the tagless DRAM
//! cache study.
//!
//! This crate plays the role McSimA+ plays in the paper: it puts cores,
//! on-die caches, TLBs, and a DRAM cache organization together and runs
//! workload traces through them (substitution rationale: DESIGN.md §2;
//! the experiment-to-figure mapping: DESIGN.md §5).
//!
//! * [`core_model`] — the 4-wide core timing model with bounded
//!   memory-level parallelism.
//! * [`system`] — the multicore [`System`]: per-core L1D/L2 caches in
//!   front of any [`tdc_dram_cache::L3System`], driven by trace sources
//!   in global time order.
//! * [`energy`] — McPAT-substitute energy accounting and EDP.
//! * [`amat`] — the paper's analytic AMAT model (Equations 1–5).
//! * [`experiment`] — the one machine builder ([`Job::machine`] → a
//!   [`Machine`], whose [`Machine::run`] yields a [`RunReport`]) and
//!   the one-call runners built on it for every workload class the
//!   paper evaluates: [`run_single`] (single-programmed SPEC),
//!   [`run_mix`] (Table 5 mixes), [`run_parsec`] (PARSEC) and
//!   [`run_single_tagless_nc`] (the §5.4 non-cacheable study), on every
//!   organization.
//!
//! # Examples
//!
//! ```no_run
//! use tdc_core::experiment::{run_single, OrgKind, RunConfig};
//!
//! let cfg = RunConfig::quick(1);
//! let base = run_single("omnetpp", OrgKind::NoL3, &cfg).expect("known benchmark");
//! let tagless = run_single("omnetpp", OrgKind::Tagless, &cfg).expect("known benchmark");
//! println!("normalized IPC: {:.3}", tagless.ipc_total() / base.ipc_total());
//! ```

// The type-checked line rules of DESIGN.md §9, for non-test library code.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::panic, clippy::cast_possible_truncation)
)]

pub mod amat;
pub mod core_model;
pub mod energy;
pub mod experiment;
pub mod metrics;
pub mod system;

pub use amat::{AmatInputs, AmatModel};
pub use core_model::{CoreParams, CoreState};
pub use energy::{EnergyModel, EnergyReport};
pub use experiment::{
    run_job_probed, run_mix, run_parsec, run_single, run_single_tagless_nc, Job, Machine, OrgKind,
    RunConfig, Workload,
};
pub use metrics::RunReport;
pub use system::{CoreResult, System};
// Re-exported so downstream crates can name every public field of
// `RunReport` without depending on the component crates directly.
pub use tdc_dram::DramStats;
pub use tdc_dram_cache::L3Stats;
