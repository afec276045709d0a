//! On-die SRAM cache structures.
//!
//! Role in the stack: DESIGN.md §3 (crate inventory); the Table 6
//! model's substitution rationale is DESIGN.md §2. Two things live
//! here:
//!
//! * [`SetAssocCache`] — a generic set-associative cache model used for
//!   the per-core L1/L2 caches *and* for the tag array of the SRAM-tag
//!   page-based DRAM cache baseline (a 4KB-granularity, 16-way cache of
//!   page tags).
//! * [`TagArrayModel`] — the CACTI-6.5 substitute that reproduces the
//!   paper's Table 6: SRAM tag storage size and access latency as a
//!   function of DRAM cache size.
//!
//! # Examples
//!
//! ```
//! use tdc_sram_cache::{CacheGeometry, Replacement, SetAssocCache};
//!
//! // A 32KB, 4-way, 64B-line L1 D-cache (paper Table 3).
//! let geom = CacheGeometry::new(32 * 1024, 64, 4).expect("valid geometry");
//! let mut l1 = SetAssocCache::new(geom, Replacement::Lru);
//! let miss = l1.access(0x1000, false);
//! assert!(!miss.hit);
//! let hit = l1.access(0x1000, false);
//! assert!(hit.hit);
//! ```

// The type-checked line rules of DESIGN.md §9, for non-test library code.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::panic, clippy::cast_possible_truncation)
)]

pub mod cache;
pub mod tag_model;

pub use cache::{AccessResult, CacheGeometry, CacheStats, EvictedLine, Replacement, SetAssocCache};
pub use tag_model::TagArrayModel;
