//! Parallel experiment orchestration for the tagless DRAM cache study.
//!
//! The paper's evaluation is a matrix of `(workload × organization ×
//! configuration)` cells — embarrassingly parallel, with heavy overlap
//! between figures (every figure normalizes against the same No-L3
//! baselines). This crate turns that matrix into jobs and runs it
//! properly:
//!
//! * [`pool`] — a std-only worker pool (`std::thread` + atomics; the
//!   workspace builds offline with zero external crates). Results are
//!   **bit-identical regardless of thread count**: every job derives
//!   all of its randomness from its own seed, so scheduling cannot
//!   influence outcomes.
//! * [`cache`] — a shared, keyed result cache. Each distinct cell is
//!   simulated once per harness; Fig. 8 reuses Fig. 7's runs, Table 1
//!   reuses Fig. 13's, and every figure shares the baselines.
//! * [`harness`] — the orchestrator tying pool and cache together,
//!   with per-job wall-clock timing and progress reporting.
//! * [`figures`] — Figs. 7–13, Tables 1/6, and the AMAT comparison
//!   expressed as job sets, producing both the historical stdout
//!   tables and JSON summaries.
//! * [`sink`] — the `results/` artifact layout (hand-rolled JSON via
//!   [`tdc_util::json`]; deterministic bytes, diffable, usable as
//!   regression baselines).
//! * [`cli`] — the `tdc` binary: `tdc all --jobs 8`, `tdc fig07`,
//!   `tdc list`.
//! * [`trace`] — `tdc trace <workload>/<org>`: one probed cell,
//!   exporting interval telemetry and a Chrome/Perfetto trace.
//! * [`prof`] — `tdc prof <workload>/<org>`: wall-time phase
//!   attribution for one probed cell (DESIGN.md §13), as a table plus
//!   `results/prof.json`.
//! * [`diff`] — `tdc diff <baseline-dir>`: regression gating against a
//!   checked-in figure snapshot (non-zero exit on drift).
//! * [`store`] — the content-addressed result store behind
//!   `--cache-dir` (DESIGN.md §12): the one way reports leave a
//!   harness and come back, stamped with the model fingerprint.
//! * [`shard`] — the deduplicated job plan and its hash partition:
//!   `tdc shard K/N --cache-dir D` runs one slice into a store, and
//!   `tdc all --cache-dir` over the union of the shards' stores
//!   simulates nothing (DESIGN.md §10).
//! * [`kernels`] — the micro-benchmark kernel registry and
//!   repeat-until-stable timing loop behind `tdc bench`.
//! * [`mod@bench`] — `tdc bench run/check`: one commit-stamped
//!   performance record per run, and a noise-aware comparison of two
//!   records from one host (DESIGN.md §11).
//!
//! # Example
//!
//! ```no_run
//! use tdc_core::experiment::{Job, OrgKind, RunConfig, Workload};
//! use tdc_harness::Harness;
//!
//! let harness = Harness::new(RunConfig::quick(2015), 4);
//! let reports = harness.run_all(&[
//!     Job::new(Workload::Spec("mcf".into()), OrgKind::NoL3, harness.cfg),
//!     Job::new(Workload::Spec("mcf".into()), OrgKind::Tagless, harness.cfg),
//! ]);
//! println!("speedup: {:.2}x", reports[1].ipc_total() / reports[0].ipc_total());
//! ```

// The type-checked line rules of DESIGN.md §9, for non-test library code.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::panic, clippy::cast_possible_truncation)
)]

pub mod bench;
pub mod cache;
pub mod cli;
pub mod diff;
pub mod kernels;
pub mod figures;
pub mod harness;
pub mod pool;
pub mod prof;
pub mod shard;
pub mod sink;
pub mod store;
pub mod trace;

pub use cache::ResultCache;
pub use figures::{generate, FigureData, ALL_IDS};
pub use harness::{Harness, HarnessStats};

/// Master seed for all figure runs (fixed for reproducibility).
pub const SEED: u64 = 2015;
