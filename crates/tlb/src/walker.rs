//! Page-table walk address generation.
//!
//! A 4-level x86-64-style radix walk performs four dependent memory
//! reads, one PTE per level. The simulator charges the walk's cost by
//! actually issuing these reads through the cache hierarchy, so walks
//! exhibit the real locality pattern: adjacent virtual pages share all
//! upper-level PTEs and usually the leaf PTE cache line too, which is
//! why most walks are cheap and only TLB misses to far-away pages pay
//! full memory latency.

use tdc_util::{PAddr, Vpn};

/// Number of radix levels (x86-64 4-level paging).
pub const WALK_LEVELS: usize = 4;

/// Bits of VPN consumed per level.
const BITS_PER_LEVEL: u32 = 9;
/// Size of one page-table page, in bytes.
const TABLE_BYTES: u64 = 4096;
/// Bytes per PTE.
const PTE_BYTES: u64 = 8;

/// Base of the physical region that holds page-table pages. Placed high
/// so it never collides with the per-ASID data regions.
const PT_REGION_BASE: u64 = 0x7000_0000_0000;

/// Returns the physical addresses of the four dependent PTE reads for a
/// walk of `vpn` in address space `asid`, root-to-leaf order.
///
/// Table placement is a deterministic function of (asid, level, index
/// prefix), so two walks that share a VPN prefix read the *same* PTE
/// addresses — upper levels and nearby leaves therefore hit in the
/// on-die caches exactly as they would with real page tables.
///
/// # Examples
///
/// ```
/// use tdc_tlb::{walk_addresses, WALK_LEVELS};
/// use tdc_util::Vpn;
/// let addrs = walk_addresses(0, Vpn(0x12345));
/// assert_eq!(addrs.len(), WALK_LEVELS);
/// ```
pub fn walk_addresses(asid: u32, vpn: Vpn) -> [PAddr; WALK_LEVELS] {
    let mut out = [PAddr(0); WALK_LEVELS];
    for (level, slot) in out.iter_mut().enumerate() {
        // Index consumed at this level (level 0 = root).
        #[expect(clippy::cast_possible_truncation, reason = "a walk has four levels")]
        let shift = BITS_PER_LEVEL * (WALK_LEVELS - 1 - level) as u32;
        let index = (vpn.0 >> shift) & ((1 << BITS_PER_LEVEL) - 1);
        // Identify the table page by the prefix above this level.
        let prefix = vpn.0 >> (shift + BITS_PER_LEVEL).min(63);
        let table_id = hash3(asid as u64, level as u64, prefix);
        // Table pages live in a dedicated region; spread tables over
        // 2^24 slots.
        let table_base = PT_REGION_BASE + (table_id & 0xFF_FFFF) * TABLE_BYTES;
        *slot = PAddr(table_base + index * PTE_BYTES);
    }
    out
}

fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(c);
    x ^= x >> 31;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_are_deterministic() {
        assert_eq!(walk_addresses(1, Vpn(42)), walk_addresses(1, Vpn(42)));
    }

    #[test]
    fn adjacent_vpns_share_upper_levels() {
        let a = walk_addresses(0, Vpn(0x1000));
        let b = walk_addresses(0, Vpn(0x1001));
        // Root + two middle levels identical.
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
        assert_eq!(a[2], b[2]);
        // Leaf PTEs are adjacent (same cache line, 8B apart).
        assert_eq!(b[3].0 - a[3].0, PTE_BYTES);
    }

    #[test]
    fn distant_vpns_diverge_at_leaf_table() {
        let a = walk_addresses(0, Vpn(0x1000));
        let b = walk_addresses(0, Vpn(0x1000 + (1 << 9)));
        assert_eq!(a[0], b[0]);
        assert_ne!(a[3].0 & !(TABLE_BYTES - 1), b[3].0 & !(TABLE_BYTES - 1));
    }

    #[test]
    fn different_asids_use_different_tables() {
        let a = walk_addresses(0, Vpn(7));
        let b = walk_addresses(1, Vpn(7));
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn addresses_stay_in_pt_region() {
        for vpn in [0u64, 1, 0xFFFF, 0xFFFF_FFFF] {
            for a in walk_addresses(3, Vpn(vpn)) {
                assert!(a.0 >= PT_REGION_BASE);
            }
        }
    }
}
