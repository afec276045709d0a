//! The Global Inverted Page Table (GIPT).
//!
//! The only new data structure the tagless design introduces (paper
//! §3.2): a table indexed by cache address, holding for each cached page
//! its physical page number (PPN), a pointer to the owning PTE (modelled
//! as the `(asid, vpn)` pair that identifies the PTE), and the TLB
//! residence information. Entry size is 82 bits — 36b PPN + 42b PTE
//! pointer + 4b TLB residence vector — giving 2.56MB for a 1GB cache
//! (0.25% overhead), which is the paper's scalability argument.
//!
//! Layout is struct-of-arrays (DESIGN.md §15): dense `ppn`/`asid`/`vpn`
//! lanes indexed directly by CPN plus a separate validity bitset,
//! mirroring the hardware's "the GIPT *is* an array indexed by cache
//! address" argument. The residence probe on the eviction path reads
//! one bit instead of an `Option` discriminant interleaved with
//! payload. Every lane starts zeroed (all slots invalid), so building a
//! GIPT writes nothing and host memory grows with the slots a run
//! fills.

use tdc_util::{Cpn, Ppn, Vpn, PAGE_SIZE};

/// Bits per GIPT entry (36 PPN + 42 PTEP + 4 TLB residence).
pub const GIPT_ENTRY_BITS: u64 = 82;

/// One GIPT entry: the reverse mapping of a cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiptEntry {
    /// The off-package frame this cached page came from (restored into
    /// the PTE at eviction).
    pub ppn: Ppn,
    /// Address space of the owning PTE (PTE-pointer substitute).
    pub asid: u32,
    /// Virtual page of the owning PTE (PTE-pointer substitute).
    pub vpn: Vpn,
}

/// The global inverted page table, indexed by cache page number.
#[derive(Debug, Clone)]
pub struct Gipt {
    // Dense entry lanes, meaningful only where the valid bit is set.
    ppn: Vec<u64>,
    asid: Vec<u32>,
    vpn: Vec<u64>,
    /// Validity bitset, one bit per cache slot.
    valid: Vec<u64>,
    occupied: u64,
}

impl Gipt {
    /// Creates an empty GIPT covering `slots` cache pages.
    pub fn new(slots: u64) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the slot count sizes in-memory lanes"
        )]
        let n = slots as usize;
        Self {
            ppn: vec![0; n],
            asid: vec![0; n],
            vpn: vec![0; n],
            valid: vec![0; n.div_ceil(64)],
            occupied: 0,
        }
    }

    /// Number of cache slots covered.
    pub fn slots(&self) -> u64 {
        self.ppn.len() as u64
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.occupied
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Storage overhead in bytes (82 bits per entry, rounded up).
    pub fn storage_bytes(&self) -> u64 {
        (self.slots() * GIPT_ENTRY_BITS).div_ceil(8)
    }

    /// Storage overhead as a fraction of the covered cache capacity.
    pub fn overhead_fraction(&self) -> f64 {
        self.storage_bytes() as f64 / (self.slots() * PAGE_SIZE) as f64
    }

    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        self.valid[i / 64] >> (i % 64) & 1 != 0
    }

    #[inline]
    fn set_valid(&mut self, i: usize, on: bool) {
        let bit = 1u64 << (i % 64);
        if on {
            self.valid[i / 64] |= bit;
        } else {
            self.valid[i / 64] &= !bit;
        }
    }

    /// Inserts the reverse mapping for `cpn`, returning any displaced
    /// entry (which indicates a missed eviction by the caller).
    pub fn insert(&mut self, cpn: Cpn, entry: GiptEntry) -> Option<GiptEntry> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "cache page numbers index in-memory lanes"
        )]
        let i = cpn.0 as usize;
        let old = self.get(cpn);
        self.ppn[i] = entry.ppn.0;
        self.asid[i] = entry.asid;
        self.vpn[i] = entry.vpn.0;
        if old.is_none() {
            self.set_valid(i, true);
            self.occupied += 1;
        }
        old
    }

    /// Looks up the reverse mapping.
    #[inline]
    pub fn get(&self, cpn: Cpn) -> Option<GiptEntry> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "cache page numbers index in-memory lanes"
        )]
        let i = cpn.0 as usize;
        self.is_valid(i).then(|| GiptEntry {
            ppn: Ppn(self.ppn[i]),
            asid: self.asid[i],
            vpn: Vpn(self.vpn[i]),
        })
    }

    /// Removes and returns the reverse mapping (eviction path).
    pub fn remove(&mut self, cpn: Cpn) -> Option<GiptEntry> {
        let old = self.get(cpn)?;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "cache page numbers index in-memory lanes"
        )]
        self.set_valid(cpn.0 as usize, false);
        self.occupied -= 1;
        Some(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_storage_overhead() {
        // 1GB cache -> 256K entries * 82 bits = 2.56MB, < 0.25% overhead.
        let g = Gipt::new(256 * 1024);
        let mb = g.storage_bytes() as f64 / (1 << 20) as f64;
        assert!((mb - 2.5625).abs() < 0.01, "GIPT is {mb} MB");
        assert!(g.overhead_fraction() < 0.0026);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut g = Gipt::new(16);
        let e = GiptEntry {
            ppn: Ppn(99),
            asid: 1,
            vpn: Vpn(42),
        };
        assert!(g.insert(Cpn(3), e).is_none());
        assert_eq!(g.get(Cpn(3)), Some(e));
        assert_eq!(g.len(), 1);
        assert_eq!(g.remove(Cpn(3)), Some(e));
        assert!(g.is_empty());
        assert_eq!(g.remove(Cpn(3)), None);
    }

    #[test]
    fn insert_over_live_entry_returns_old() {
        let mut g = Gipt::new(4);
        let a = GiptEntry {
            ppn: Ppn(1),
            asid: 0,
            vpn: Vpn(1),
        };
        let b = GiptEntry {
            ppn: Ppn(2),
            asid: 0,
            vpn: Vpn(2),
        };
        g.insert(Cpn(0), a);
        assert_eq!(g.insert(Cpn(0), b), Some(a));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn get_spans_bitset_words() {
        let mut g = Gipt::new(70); // spans two bitset words
        let e = GiptEntry {
            ppn: Ppn(7),
            asid: 2,
            vpn: Vpn(9),
        };
        g.insert(Cpn(65), e);
        assert_eq!(g.get(Cpn(65)), Some(e));
        assert_eq!(g.get(Cpn(1)), None, "an empty slot reads as absent");
    }

    #[test]
    fn one_slot_degenerate_gipt() {
        let mut g = Gipt::new(1);
        let e = GiptEntry {
            ppn: Ppn(5),
            asid: 0,
            vpn: Vpn(5),
        };
        assert!(g.insert(Cpn(0), e).is_none());
        assert_eq!(g.len(), 1);
        assert_eq!(g.remove(Cpn(0)), Some(e));
        assert!(g.is_empty());
    }
}

/// Differential tests: the bitset-validity GIPT against the
/// `Vec<Option<_>>` model it replaced (DESIGN.md §15).
#[cfg(test)]
mod differential {
    use super::*;
    use tdc_util::testkit::{assert_equiv, XorShift64};

    /// The pre-refactor representation.
    struct RefGipt {
        entries: Vec<Option<GiptEntry>>,
        occupied: u64,
    }

    impl RefGipt {
        fn new(slots: u64) -> Self {
            Self {
                entries: vec![None; slots as usize],
                occupied: 0,
            }
        }

        fn insert(&mut self, cpn: Cpn, entry: GiptEntry) -> Option<GiptEntry> {
            let slot = &mut self.entries[cpn.0 as usize];
            let old = slot.take();
            *slot = Some(entry);
            if old.is_none() {
                self.occupied += 1;
            }
            old
        }

        fn remove(&mut self, cpn: Cpn) -> Option<GiptEntry> {
            let old = self.entries[cpn.0 as usize].take();
            if old.is_some() {
                self.occupied -= 1;
            }
            old
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64),
        Remove(u64),
        Get(u64),
    }

    fn entry(raw: u64) -> GiptEntry {
        GiptEntry {
            ppn: Ppn(raw % 4096),
            asid: (raw % 4) as u32,
            vpn: Vpn(raw % 512),
        }
    }

    fn replay(slots: u64) -> impl Fn(&[Op]) -> Result<(), String> {
        move |ops: &[Op]| {
            let mut flat = Gipt::new(slots);
            let mut reference = RefGipt::new(slots);
            for (i, op) in ops.iter().enumerate() {
                let (a, b) = match *op {
                    Op::Insert(c, e) => (
                        flat.insert(Cpn(c), entry(e)),
                        reference.insert(Cpn(c), entry(e)),
                    ),
                    Op::Remove(c) => (flat.remove(Cpn(c)), reference.remove(Cpn(c))),
                    Op::Get(c) => (flat.get(Cpn(c)), reference.entries[c as usize]),
                };
                if a != b {
                    return Err(format!("step {i} {op:?}: flat={a:?} ref={b:?}"));
                }
                if flat.len() != reference.occupied {
                    return Err(format!(
                        "step {i} {op:?}: occupancy flat={} ref={}",
                        flat.len(),
                        reference.occupied
                    ));
                }
            }
            Ok(())
        }
    }

    /// Trace family 1: fill/evict churn across the whole table.
    fn churn_trace(rng: &mut XorShift64, slots: u64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let c = rng.below(slots);
                match rng.below(3) {
                    0 => Op::Remove(c),
                    1 => Op::Get(c),
                    _ => Op::Insert(c, rng.next_u64()),
                }
            })
            .collect()
    }

    /// Trace family 2: hot-slot overwrite (insert-over-live, the
    /// missed-eviction signal path).
    fn overwrite_trace(rng: &mut XorShift64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| Op::Insert(rng.below(4), rng.next_u64()))
            .collect()
    }

    /// Trace family 3: sweep pattern (sequential fills then sequential
    /// evictions, as steady-state FIFO replacement produces).
    fn sweep_trace(slots: u64, rounds: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for r in 0..rounds {
            for c in 0..slots {
                ops.push(Op::Insert(c, (r as u64) << 32 | c));
            }
            for c in 0..slots {
                ops.push(Op::Remove(c));
                ops.push(Op::Get(c));
            }
        }
        ops
    }

    #[test]
    fn churn_family_matches_reference() {
        for seed in 1..=4u64 {
            let mut rng = XorShift64::new(seed);
            let ops = churn_trace(&mut rng, 130, 4000); // straddles word 2/3
            assert_equiv("gipt/churn", &ops, replay(130));
        }
    }

    #[test]
    fn overwrite_family_matches_reference() {
        for seed in 10..=13u64 {
            let mut rng = XorShift64::new(seed);
            let ops = overwrite_trace(&mut rng, 1000);
            assert_equiv("gipt/overwrite", &ops, replay(4));
        }
    }

    #[test]
    fn sweep_family_matches_reference() {
        let ops = sweep_trace(96, 5);
        assert_equiv("gipt/sweep", &ops, replay(96));
    }
}
