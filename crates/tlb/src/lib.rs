//! TLBs, page tables, and the page-table walker.
//!
//! This crate models the virtual-memory substrate the tagless design
//! modifies (role in the stack: DESIGN.md §3; the VC/NC/PU semantics
//! trace to DESIGN.md §1):
//!
//! * [`Pte`] — a page-table entry extended with the paper's three flag
//!   bits: *Valid-in-Cache* (VC), *Non-Cacheable* (NC), and *Pending
//!   Update* (PU). When VC is set, the PTE's frame field holds a cache
//!   address instead of a physical address (paper §3.2).
//! * [`PageTable`] — a per-process page table with on-demand physical
//!   frame allocation (demand paging).
//! * [`Tlb`] — a set-associative TLB that can hold either conventional
//!   VA→PA mappings or the cTLB's VA→CA mappings; the hardware
//!   organization is identical, which is the paper's point.
//! * [`walker`] — generation of the dependent PTE fetch addresses of a
//!   4-level radix walk, so the simulator can charge realistic,
//!   locality-sensitive walk costs through the cache hierarchy.
//!
//! # Examples
//!
//! ```
//! use tdc_tlb::{PageTable, Tlb, TlbEntry, Translation};
//! use tdc_util::{Vpn, Cpn};
//!
//! let mut pt = PageTable::new(0);
//! let pte = pt.translate_or_fault(Vpn(42));
//! assert!(matches!(pte.frame, Translation::Physical(_)));
//!
//! let mut tlb = Tlb::new(32, 32).expect("fully associative 32-entry");
//! tlb.insert(Vpn(42), TlbEntry::cache(Cpn(7), false));
//! assert!(tlb.lookup(Vpn(42)).is_some());
//! ```

// The type-checked line rules of DESIGN.md §9, for non-test library code.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::panic, clippy::cast_possible_truncation)
)]

pub mod page_table;
pub mod tlb;
pub mod walker;

pub use page_table::{PageTable, Pte, Translation};
pub use tlb::{Tlb, TlbEntry};
pub use walker::{walk_addresses, WALK_LEVELS};
