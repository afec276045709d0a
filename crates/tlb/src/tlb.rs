//! Set-associative TLB model, usable as a conventional TLB or as the
//! paper's cache-map TLB (cTLB).
//!
//! The hardware organization is identical in both roles (paper §3.2);
//! only the payload differs: a VA→PA mapping for non-cacheable pages
//! (NC=1) or a VA→CA mapping for cached pages (NC=0).
//!
//! Storage is struct-of-arrays (DESIGN.md §15): the lookup scan touches
//! only a contiguous `u64` key array (one cache line covers a whole
//! 8-way set), with entries and recency stamps in parallel arrays that
//! are read only on a hit. An invalid slot is keyed by the reserved
//! sentinel `INVALID_KEY`, so the hot loop is a single compare per
//! way with no separate validity flag to load.

use crate::page_table::Translation;
use std::fmt;
use tdc_util::probe::{NoProbe, Probe, ProbeEvent};
use tdc_util::{Cpn, Cycle, Ppn, Vpn};

/// The payload of a TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// The mapping this entry provides.
    pub frame: Translation,
    /// Non-Cacheable bit copied from the PTE.
    pub nc: bool,
}

impl TlbEntry {
    /// A conventional VA→PA entry.
    pub fn physical(ppn: Ppn, nc: bool) -> Self {
        Self {
            frame: Translation::Physical(ppn),
            nc,
        }
    }

    /// A cTLB VA→CA entry (cached pages are by definition cacheable).
    pub fn cache(cpn: Cpn, nc: bool) -> Self {
        Self {
            frame: Translation::Cache(cpn),
            nc,
        }
    }
}

/// Error returned for an invalid TLB shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbShapeError(&'static str);

impl fmt::Display for TlbShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid TLB shape: {}", self.0)
    }
}

impl std::error::Error for TlbShapeError {}

/// Key-array sentinel marking an empty slot. Real VPNs are at most 36
/// bits (the GIPT's PPN width bounds the address space), so the
/// all-ones key can never collide with a mapped page.
const INVALID_KEY: u64 = u64::MAX;

/// A set-associative, LRU TLB.
///
/// `ways == entries` gives a fully associative TLB (the paper's 32-entry
/// L1 TLBs); the 512-entry L2 TLB is typically configured 8-way.
#[derive(Debug, Clone)]
pub struct Tlb<P: Probe = NoProbe> {
    /// VPN per slot ([`INVALID_KEY`] = empty); the only array the
    /// lookup scan reads.
    keys: Vec<u64>,
    /// Payload per slot, read on hit.
    payloads: Vec<TlbEntry>,
    /// LRU stamp per slot, written on hit/insert.
    stamps: Vec<u64>,
    sets: u64,
    ways: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    level: u8,
    probe: P,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and associativity
    /// `ways`.
    ///
    /// # Errors
    ///
    /// Returns an error if `entries` is zero, `ways` is zero, or `ways`
    /// does not divide `entries`.
    pub fn new(entries: u32, ways: u32) -> Result<Self, TlbShapeError> {
        Self::with_probe(entries, ways, 0, NoProbe)
    }
}

impl<P: Probe> Tlb<P> {
    /// Creates an instrumented TLB reporting lookups and insertions to
    /// `probe`, tagged with hierarchy `level` (1 = L1, 2 = L2). The
    /// cycle-less [`Tlb::lookup`]/[`Tlb::insert`] stamp events at cycle
    /// 0; use the `*_at` variants when a clock is available.
    ///
    /// # Errors
    ///
    /// Returns an error if `entries` is zero, `ways` is zero, or `ways`
    /// does not divide `entries`.
    pub fn with_probe(
        entries: u32,
        ways: u32,
        level: u8,
        probe: P,
    ) -> Result<Self, TlbShapeError> {
        if entries == 0 || ways == 0 {
            return Err(TlbShapeError("entries and ways must be non-zero"));
        }
        if !entries.is_multiple_of(ways) {
            return Err(TlbShapeError("ways must divide entries"));
        }
        Ok(Self {
            keys: vec![INVALID_KEY; entries as usize],
            payloads: vec![TlbEntry::physical(Ppn(0), false); entries as usize],
            stamps: vec![0; entries as usize],
            sets: (entries / ways) as u64,
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
            level,
            probe,
        })
    }

    /// Total entry count.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "TLB geometries have far fewer than 2^32 entries"
    )]
    pub fn entries(&self) -> u32 {
        self.keys.len() as u32
    }

    /// TLB hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// TLB misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate; 0 when idle.
    pub fn miss_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }

    #[inline]
    fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a remainder by the set count fits usize"
        )]
        let set = (vpn.0 % self.sets) as usize;
        let w = self.ways as usize;
        set * w..set * w + w
    }

    /// Looks up a translation, updating LRU state and hit/miss counters.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        self.lookup_at(0, vpn)
    }

    /// [`Tlb::lookup`] with an explicit cycle stamp for probe events.
    #[inline]
    pub fn lookup_at(&mut self, now: Cycle, vpn: Vpn) -> Option<TlbEntry> {
        self.tick += 1;
        let tick = self.tick;
        let mut found = None;
        for i in self.set_range(vpn) {
            if self.keys[i] == vpn.0 {
                self.stamps[i] = tick;
                found = Some(self.payloads[i]);
                break;
            }
        }
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        if self.probe.enabled() {
            self.probe.emit(
                now,
                ProbeEvent::TlbLookup {
                    level: self.level,
                    hit: found.is_some(),
                },
            );
        }
        found
    }

    /// Checks residence without updating LRU or counters. This is the
    /// probe the GIPT's TLB-residence bit vector abstracts: a page still
    /// mapped by some TLB must not be evicted (paper §3.2).
    #[inline]
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.keys[self.set_range(vpn)].contains(&vpn.0)
    }

    /// Inserts (or updates) a translation, returning the displaced entry
    /// if a valid one was evicted.
    pub fn insert(&mut self, vpn: Vpn, entry: TlbEntry) -> Option<(Vpn, TlbEntry)> {
        self.insert_at(0, vpn, entry)
    }

    /// [`Tlb::insert`] with an explicit cycle stamp for probe events.
    pub fn insert_at(
        &mut self,
        now: Cycle,
        vpn: Vpn,
        entry: TlbEntry,
    ) -> Option<(Vpn, TlbEntry)> {
        debug_assert_ne!(vpn.0, INVALID_KEY, "VPN collides with the invalid sentinel");
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(vpn);
        let (lo, hi) = (range.start, range.end);

        let mut matched = None;
        let mut first_invalid = None;
        for i in lo..hi {
            if self.keys[i] == vpn.0 {
                matched = Some(i);
                break;
            }
            if self.keys[i] == INVALID_KEY && first_invalid.is_none() {
                first_invalid = Some(i);
            }
        }

        let displaced = if let Some(i) = matched {
            self.payloads[i] = entry;
            self.stamps[i] = tick;
            None
        } else {
            // Victim: first empty way, else the LRU way (stamps are
            // unique among valid slots — each tick is handed out once).
            let victim = first_invalid.unwrap_or_else(|| {
                (lo..hi).min_by_key(|&i| self.stamps[i]).expect("non-empty set")
            });
            let displaced = (self.keys[victim] != INVALID_KEY)
                .then(|| (Vpn(self.keys[victim]), self.payloads[victim]));
            self.keys[victim] = vpn.0;
            self.payloads[victim] = entry;
            self.stamps[victim] = tick;
            displaced
        };
        if self.probe.enabled() {
            self.probe.emit(
                now,
                ProbeEvent::TlbInsert {
                    level: self.level,
                    evicted: displaced.is_some(),
                },
            );
        }
        displaced
    }

    /// Invalidates a mapping (TLB shootdown); returns whether it was
    /// present.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        for i in self.set_range(vpn) {
            if self.keys[i] == vpn.0 {
                self.keys[i] = INVALID_KEY;
                return true;
            }
        }
        false
    }

    /// Invalidates everything (e.g. a full flush at context switch).
    pub fn flush(&mut self) {
        self.keys.fill(INVALID_KEY);
    }

    /// Number of valid entries.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "TLB geometries have far fewer than 2^32 entries"
    )]
    pub fn occupancy(&self) -> u32 {
        self.keys.iter().filter(|&&k| k != INVALID_KEY).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u64) -> TlbEntry {
        TlbEntry::physical(Ppn(n), false)
    }

    #[test]
    fn shape_validation() {
        assert!(Tlb::new(0, 1).is_err());
        assert!(Tlb::new(32, 0).is_err());
        assert!(Tlb::new(32, 5).is_err());
        assert!(Tlb::new(32, 32).is_ok());
        assert!(Tlb::new(512, 8).is_ok());
    }

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(32, 32).unwrap();
        assert!(t.lookup(Vpn(1)).is_none());
        t.insert(Vpn(1), entry(9));
        assert_eq!(t.lookup(Vpn(1)), Some(entry(9)));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_eviction_in_full_set() {
        let mut t = Tlb::new(2, 2).unwrap(); // 1 set, 2 ways
        t.insert(Vpn(1), entry(1));
        t.insert(Vpn(2), entry(2));
        t.lookup(Vpn(1)); // 1 becomes MRU
        let evicted = t.insert(Vpn(3), entry(3));
        assert_eq!(evicted.map(|(v, _)| v), Some(Vpn(2)));
        assert!(t.contains(Vpn(1)));
        assert!(!t.contains(Vpn(2)));
    }

    #[test]
    fn insert_existing_updates_in_place() {
        let mut t = Tlb::new(4, 4).unwrap();
        t.insert(Vpn(1), entry(1));
        let displaced = t.insert(Vpn(1), TlbEntry::cache(Cpn(5), false));
        assert!(displaced.is_none());
        assert_eq!(t.lookup(Vpn(1)), Some(TlbEntry::cache(Cpn(5), false)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn contains_does_not_touch_lru_or_stats() {
        let mut t = Tlb::new(2, 2).unwrap();
        t.insert(Vpn(1), entry(1));
        t.insert(Vpn(2), entry(2));
        assert!(t.contains(Vpn(1)));
        // LRU order unchanged: 1 is still oldest and gets evicted.
        let evicted = t.insert(Vpn(3), entry(3));
        assert_eq!(evicted.map(|(v, _)| v), Some(Vpn(1)));
        assert_eq!(t.hits() + t.misses(), 0);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = Tlb::new(8, 8).unwrap();
        t.insert(Vpn(1), entry(1));
        t.insert(Vpn(2), entry(2));
        assert!(t.invalidate(Vpn(1)));
        assert!(!t.invalidate(Vpn(1)));
        assert_eq!(t.occupancy(), 1);
        t.flush();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn set_indexing_separates_conflicting_vpns() {
        let mut t = Tlb::new(8, 2).unwrap(); // 4 sets
        // VPNs 0 and 4 share a set; 1 goes elsewhere.
        t.insert(Vpn(0), entry(0));
        t.insert(Vpn(4), entry(4));
        t.insert(Vpn(8), entry(8)); // same set, evicts LRU = 0
        assert!(!t.contains(Vpn(0)));
        assert!(t.contains(Vpn(4)));
    }

    #[test]
    fn miss_rate_reporting() {
        let mut t = Tlb::new(4, 4).unwrap();
        assert_eq!(t.miss_rate(), 0.0);
        t.lookup(Vpn(1));
        t.insert(Vpn(1), entry(1));
        t.lookup(Vpn(1));
        assert!((t.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ctlb_entries_carry_cache_addresses() {
        let mut t = Tlb::new(32, 32).unwrap();
        t.insert(Vpn(100), TlbEntry::cache(Cpn(55), false));
        let e = t.lookup(Vpn(100)).unwrap();
        assert_eq!(e.frame, Translation::Cache(Cpn(55)));
        assert!(!e.nc);
    }

    #[test]
    fn one_entry_degenerate_tlb() {
        // 1 set, 1 way: every insert evicts the previous mapping.
        let mut t = Tlb::new(1, 1).unwrap();
        assert!(t.insert(Vpn(1), entry(1)).is_none());
        assert_eq!(
            t.insert(Vpn(2), entry(2)),
            Some((Vpn(1), entry(1))),
            "sole slot is always the victim"
        );
        assert_eq!(t.lookup(Vpn(2)), Some(entry(2)));
        assert!(t.lookup(Vpn(1)).is_none());
        assert!(t.invalidate(Vpn(2)));
        assert_eq!(t.occupancy(), 0);
        // Reuse after invalidate does not report a displacement.
        assert!(t.insert(Vpn(3), entry(3)).is_none());
    }

    #[test]
    fn reinsert_after_invalidate_fills_hole_first() {
        let mut t = Tlb::new(4, 4).unwrap();
        for v in 0..4u64 {
            t.insert(Vpn(v), entry(v));
        }
        t.invalidate(Vpn(2));
        // Set is not full any more: no displacement even though three
        // valid entries are older than the hole.
        assert!(t.insert(Vpn(9), entry(9)).is_none());
        assert_eq!(t.occupancy(), 4);
    }
}

/// Differential tests: the flat SoA implementation against a map-backed
/// reference model (DESIGN.md §15).
#[cfg(test)]
mod differential {
    use super::*;
    use std::collections::BTreeMap;
    use tdc_util::testkit::{assert_equiv, XorShift64};

    /// Map-backed reference TLB with the documented semantics: per-set
    /// LRU with unique stamps, insert-into-hole before eviction.
    struct RefTlb {
        sets: u64,
        ways: usize,
        tick: u64,
        hits: u64,
        misses: u64,
        map: Vec<BTreeMap<u64, (TlbEntry, u64)>>,
    }

    impl RefTlb {
        fn new(entries: u32, ways: u32) -> Self {
            Self {
                sets: (entries / ways) as u64,
                ways: ways as usize,
                tick: 0,
                hits: 0,
                misses: 0,
                map: vec![BTreeMap::new(); (entries / ways) as usize],
            }
        }

        fn set(&self, vpn: u64) -> usize {
            (vpn % self.sets) as usize
        }

        fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set(vpn);
            match self.map[set].get_mut(&vpn) {
                Some((e, s)) => {
                    *s = tick;
                    self.hits += 1;
                    Some(*e)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, vpn: u64, entry: TlbEntry) -> Option<(Vpn, TlbEntry)> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set(vpn);
            if let Some((e, s)) = self.map[set].get_mut(&vpn) {
                *e = entry;
                *s = tick;
                return None;
            }
            let displaced = if self.map[set].len() == self.ways {
                let (&victim, _) = self
                    .map[set]
                    .iter()
                    .min_by_key(|(_, (_, s))| *s)
                    .expect("full set");
                let (e, _) = self.map[set].remove(&victim).expect("present");
                Some((Vpn(victim), e))
            } else {
                None
            };
            self.map[set].insert(vpn, (entry, tick));
            displaced
        }

        fn invalidate(&mut self, vpn: u64) -> bool {
            let set = self.set(vpn);
            self.map[set].remove(&vpn).is_some()
        }

        fn flush(&mut self) {
            for s in &mut self.map {
                s.clear();
            }
        }

        fn contains(&self, vpn: u64) -> bool {
            self.map[self.set(vpn)].contains_key(&vpn)
        }

        fn occupancy(&self) -> u32 {
            self.map.iter().map(|s| s.len() as u32).sum()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Lookup(u64),
        Insert(u64, u64),
        Invalidate(u64),
        Contains(u64),
        Flush,
    }

    fn payload(raw: u64) -> TlbEntry {
        if raw.is_multiple_of(3) {
            TlbEntry::cache(Cpn(raw), raw.is_multiple_of(5))
        } else {
            TlbEntry::physical(Ppn(raw), raw.is_multiple_of(5))
        }
    }

    fn replay(entries: u32, ways: u32) -> impl Fn(&[Op]) -> Result<(), String> {
        move |ops: &[Op]| {
            let mut flat = Tlb::new(entries, ways).expect("valid shape");
            let mut reference = RefTlb::new(entries, ways);
            for (i, op) in ops.iter().enumerate() {
                let err = |what: &str, a: String, b: String| {
                    Err(format!("step {i} {op:?}: {what}: flat={a} ref={b}"))
                };
                match *op {
                    Op::Lookup(v) => {
                        let (a, b) = (flat.lookup(Vpn(v)), reference.lookup(v));
                        if a != b {
                            return err("lookup", format!("{a:?}"), format!("{b:?}"));
                        }
                    }
                    Op::Insert(v, p) => {
                        let (a, b) =
                            (flat.insert(Vpn(v), payload(p)), reference.insert(v, payload(p)));
                        if a != b {
                            return err("displaced", format!("{a:?}"), format!("{b:?}"));
                        }
                    }
                    Op::Invalidate(v) => {
                        let (a, b) = (flat.invalidate(Vpn(v)), reference.invalidate(v));
                        if a != b {
                            return err("invalidate", format!("{a}"), format!("{b}"));
                        }
                    }
                    Op::Contains(v) => {
                        let (a, b) = (flat.contains(Vpn(v)), reference.contains(v));
                        if a != b {
                            return err("contains", format!("{a}"), format!("{b}"));
                        }
                    }
                    Op::Flush => {
                        flat.flush();
                        reference.flush();
                    }
                }
                if flat.occupancy() != reference.occupancy() {
                    return err(
                        "occupancy",
                        flat.occupancy().to_string(),
                        reference.occupancy().to_string(),
                    );
                }
                if (flat.hits(), flat.misses()) != (reference.hits, reference.misses) {
                    return err(
                        "hit/miss counters",
                        format!("{}/{}", flat.hits(), flat.misses()),
                        format!("{}/{}", reference.hits, reference.misses),
                    );
                }
            }
            Ok(())
        }
    }

    /// Trace family 1: warm working-set loop (high hit rate, stable
    /// LRU churn within capacity).
    fn warm_loop_trace(rng: &mut XorShift64, len: usize, working_set: u64) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let v = rng.below(working_set);
                if rng.chance(75) {
                    Op::Lookup(v)
                } else {
                    Op::Insert(v, rng.next_u64() % 1000)
                }
            })
            .collect()
    }

    /// Trace family 2: capacity thrash (VPN space far beyond reach;
    /// every set constantly evicts).
    fn thrash_trace(rng: &mut XorShift64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let v = rng.below(1 << 20);
                match rng.below(3) {
                    0 => Op::Lookup(v),
                    1 => Op::Insert(v, rng.next_u64() % 1000),
                    _ => Op::Contains(v),
                }
            })
            .collect()
    }

    /// Trace family 3: shootdown storm (invalidate/flush heavy, holes
    /// constantly opening and refilling).
    fn shootdown_trace(rng: &mut XorShift64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let v = rng.below(256);
                match rng.below(10) {
                    0 => Op::Flush,
                    1..=3 => Op::Invalidate(v),
                    4..=6 => Op::Insert(v, rng.next_u64() % 1000),
                    _ => Op::Lookup(v),
                }
            })
            .collect()
    }

    #[test]
    fn warm_loop_family_matches_reference() {
        for seed in 1..=4u64 {
            let mut rng = XorShift64::new(seed);
            let ops = warm_loop_trace(&mut rng, 4000, 24);
            assert_equiv("tlb/warm-loop(32w32)", &ops, replay(32, 32));
        }
    }

    #[test]
    fn thrash_family_matches_reference() {
        for seed in 10..=13u64 {
            let mut rng = XorShift64::new(seed);
            let ops = thrash_trace(&mut rng, 4000);
            assert_equiv("tlb/thrash(512w8)", &ops, replay(512, 8));
            let ops = thrash_trace(&mut rng, 2000);
            assert_equiv("tlb/thrash(8w2)", &ops, replay(8, 2));
        }
    }

    #[test]
    fn shootdown_family_matches_reference() {
        for seed in 20..=23u64 {
            let mut rng = XorShift64::new(seed);
            let ops = shootdown_trace(&mut rng, 4000);
            assert_equiv("tlb/shootdown(32w32)", &ops, replay(32, 32));
            let ops = shootdown_trace(&mut rng, 1000);
            assert_equiv("tlb/shootdown(1w1)", &ops, replay(1, 1));
        }
    }
}
