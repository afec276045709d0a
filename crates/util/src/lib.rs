//! Deterministic foundations for the tagless DRAM cache simulator.
//!
//! This crate provides the small, dependency-free substrate the rest of the
//! workspace is built on (the zero-external-dependency rule it exists to
//! satisfy is DESIGN.md §6; its regression-gate helpers back DESIGN.md §11):
//!
//! * [`rng`] — seedable, splittable pseudo-random number generators
//!   (SplitMix64 and PCG32). The simulator deliberately does not use the
//!   `rand` crate: every simulated workload must be exactly reproducible
//!   from a single `u64` seed, across crate versions.
//! * [`dist`] — the distributions the workload generators need (uniform,
//!   Zipf, geometric, Bernoulli, weighted choice).
//! * [`stats`] — geometric means and medians for the experiment
//!   reports, plus the bench-timing stability predicate and the
//!   regression threshold behind `tdc bench check`.
//! * [`hash`] — stable FNV-1a string hashing ([`fnv1a_64`]) and the
//!   hash-based shard assignment ([`shard_of`]) behind `tdc shard`;
//!   stability across processes and releases is part of the contract.
//! * [`json`] — a dependency-free JSON value type with a deterministic
//!   writer and strict parser, used by the experiment harness for its
//!   `results/*.json` artifacts.
//! * [`probe`] — zero-overhead-when-off instrumentation: the [`Probe`]
//!   trait every simulator layer is generic over (with the no-op
//!   [`NoProbe`] default), plus the [`Recorder`] sinks for interval
//!   telemetry and Chrome trace-event export.
//! * [`pool`] — a generic scoped worker pool ([`run_tasks`]) shared by
//!   the experiment harness.
//!   Scheduling is slice stealing (DESIGN.md §16): each worker owns a
//!   contiguous slice of the task indices behind one atomic
//!   [`pool::SliceCursor`], drains it, then drains the other slices in
//!   one seeded pass — and results still come back in input order
//!   regardless of thread count or steal interleaving, next to
//!   per-worker scheduler counters, including steal attribution.
//! * [`obs`] — the observability layer (DESIGN.md §13): log-scale
//!   histograms ([`LogHistogram`]), the wall-time phase profiler
//!   behind `tdc prof` ([`ProfProbe`]), and pool telemetry types.
//! * [`flat`] — flat hot-path containers (DESIGN.md §15): the
//!   open-addressed [`FlatMap`] and fixed-capacity [`FixedRing`]
//!   behind the access path's struct-of-arrays refactor.
//! * [`testkit`] — the differential-testing harness: seeded
//!   [`testkit::XorShift64`] trace generators and the
//!   minimal-failing-prefix shrinker that reference-vs-flat model
//!   tests report through.
//!
//! # Examples
//!
//! ```
//! use tdc_util::rng::Pcg32;
//! use tdc_util::dist::Zipf;
//!
//! let mut rng = Pcg32::seed_from_u64(42);
//! let zipf = Zipf::new(1000, 0.8).expect("valid parameters");
//! let rank = zipf.sample(&mut rng);
//! assert!(rank < 1000);
//! ```

// The type-checked line rules of DESIGN.md §9, for non-test library code.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::panic, clippy::cast_possible_truncation)
)]

pub mod dist;
pub mod flat;
pub mod hash;
pub mod json;
pub mod mem;
pub mod obs;
pub mod pool;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod testkit;

pub use dist::{Bernoulli, Geometric, Uniform, WeightedIndex, Zipf};
pub use flat::{FixedRing, FlatMap};
pub use hash::{fnv1a_64, shard_of};
pub use json::{Json, JsonError};
pub use mem::{CAddr, Cpn, Cycle, PAddr, Ppn, VAddr, Vpn};
pub use mem::{BLOCKS_PER_PAGE, BLOCK_SHIFT, BLOCK_SIZE, PAGE_SHIFT, PAGE_SIZE};
pub use obs::{LogHistogram, PoolTelemetry, ProfProbe, ProfRecorder};
pub use pool::run_tasks;
pub use probe::{EventGroup, NoProbe, Phase, Probe, ProbeEvent, Recorder, SharedProbe};
pub use rng::{Pcg32, Rng, SplitMix64};
pub use stats::{geomean, is_improvement, is_regression, median, regression_threshold, spread};
