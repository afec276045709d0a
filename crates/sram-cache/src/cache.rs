//! Generic set-associative cache model.
//!
//! Storage is two zero-initialised struct-of-arrays lanes (DESIGN.md
//! §15): a `u64` tag lane holding `line + 1` with the dirty flag in the
//! top bit, where 0 is an empty way, and a `u32` stamp lane. Building a
//! cache writes neither lane, so host memory grows with the sets a run
//! touches, not with the simulated capacity. The displaced
//! array-of-`Way` implementation survives as the `#[cfg(test)]`
//! reference model for the differential suite.

use std::fmt;
use std::ops::Range;

/// Replacement policy for a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Least-recently-used.
    #[default]
    Lru,
    /// First-in-first-out (insertion order).
    Fifo,
}

/// Smallest line size the packed tag lane can represent: with at least
/// two line-offset bits, `line + 1` stays clear of [`DIRTY`].
const MIN_LINE_BYTES: u64 = 4;

/// Largest associativity the `u32` stamp lane can order: after the
/// stamps are renumbered to ranks (at most `ways`), at least 2^31 ticks
/// remain before the next renumbering.
const MAX_WAYS: u32 = 1 << 31;

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    capacity_bytes: u64,
    line_bytes: u64,
    ways: u32,
    sets: u64,
    line_shift: u32,
    /// Whether `sets` is a power of two, so the set index is a mask.
    sets_pow2: bool,
}

/// Error returned for an invalid [`CacheGeometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometryError(&'static str);

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cache geometry: {}", self.0)
    }
}

impl std::error::Error for GeometryError {}

impl CacheGeometry {
    /// Creates a geometry from capacity, line size, and associativity.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero, the line size is not a
    /// power of two or is below 4 bytes, the associativity exceeds 2^31,
    /// or the parameters don't divide into a whole number of sets.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: u32) -> Result<Self, GeometryError> {
        if capacity_bytes == 0 || line_bytes == 0 || ways == 0 {
            return Err(GeometryError("zero-sized parameter"));
        }
        if !line_bytes.is_power_of_two() {
            return Err(GeometryError("line size must be a power of two"));
        }
        if line_bytes < MIN_LINE_BYTES {
            return Err(GeometryError("line size must be at least 4 bytes"));
        }
        if ways > MAX_WAYS {
            return Err(GeometryError("associativity must be at most 2^31"));
        }
        let lines = capacity_bytes / line_bytes;
        if lines * line_bytes != capacity_bytes {
            return Err(GeometryError("capacity must be a multiple of line size"));
        }
        if !lines.is_multiple_of(ways as u64) || lines < ways as u64 {
            return Err(GeometryError("capacity/line/ways must give whole sets"));
        }
        let sets = lines / ways as u64;
        Ok(Self {
            capacity_bytes,
            line_bytes,
            ways,
            sets,
            line_shift: line_bytes.trailing_zeros(),
            sets_pow2: sets.is_power_of_two(),
        })
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Line number of a byte address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line: u64) -> u64 {
        if self.sets_pow2 {
            line & (self.sets - 1)
        } else {
            line % self.sets
        }
    }

    /// The way-lane indices of `line`'s set.
    #[inline]
    fn set_range(&self, line: u64) -> Range<usize> {
        let w = self.ways as usize;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "set numbers index in-memory lanes"
        )]
        let base = self.set_of(line) as usize * w;
        base..base + w
    }

    /// The tag-lane encoding of `line`: `line + 1`, so 0 stays free to
    /// mean "empty way".
    #[inline]
    fn key_of(&self, line: u64) -> u64 {
        debug_assert!(
            line <= u64::MAX >> self.line_shift,
            "line {line:#x} is not the line number of any address"
        );
        line + 1
    }
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line number (address >> line_shift).
    pub line: u64,
    /// Whether the line was dirty and must be written back.
    pub dirty: bool,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// On a miss with allocation, the victim line (if a valid line was
    /// displaced).
    pub evicted: Option<EvictedLine>,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines displaced by fills (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss rate over all accesses; 0 when idle.
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses() as f64 / n as f64
        }
    }
}

/// Tag-lane value of an empty way.
const EMPTY: u64 = 0;

/// Tag-lane flag: the line is dirty and must be written back.
const DIRTY: u64 = 1 << 63;

/// A set-associative, write-back, write-allocate cache model.
///
/// The cache stores tags only (no data), which is all a timing/energy
/// simulation needs. Addresses are byte addresses; the geometry's line
/// size determines indexing.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    /// Per-way `line + 1`, with [`DIRTY`] in the top bit; [`EMPTY`] is
    /// an empty way.
    tags: Vec<u64>,
    /// Per-way LRU timestamp or FIFO insertion sequence, depending on
    /// policy. Only the order within a set is ever read.
    stamps: Vec<u32>,
    policy: Replacement,
    tick: u32,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(geom: CacheGeometry, policy: Replacement) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the way count sizes in-memory lanes"
        )]
        let n = (geom.sets * geom.ways as u64) as usize;
        Self {
            geom,
            tags: vec![EMPTY; n],
            stamps: vec![0; n],
            policy,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Starts the tick at `tick`, so a test can cross the stamp wrap.
    #[cfg(test)]
    fn with_tick(mut self, tick: u32) -> Self {
        self.tick = tick;
        self
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses byte address `addr`; on a miss the line is allocated
    /// (write-allocate) and the displaced victim, if any, is returned.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        let line = self.geom.line_of(addr);
        self.access_line(line, is_write)
    }

    /// Like [`SetAssocCache::access`], but takes a pre-computed line
    /// number (an address shifted right by the line-offset bits).
    pub fn access_line(&mut self, line: u64, is_write: bool) -> AccessResult {
        if self.tick == u32::MAX {
            self.renumber_stamps();
        }
        self.tick += 1;
        let tick = self.tick;
        let key = self.geom.key_of(line);
        let set = self.geom.set_range(line);
        let tags = &mut self.tags[set.clone()];
        let stamps = &mut self.stamps[set];

        if let Some(i) = tags.iter().position(|&t| t & !DIRTY == key) {
            if self.policy == Replacement::Lru {
                stamps[i] = tick;
            }
            if is_write {
                tags[i] |= DIRTY;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }

        // Miss: the first empty way, else the oldest stamp.
        let victim = tags.iter().position(|&t| t == EMPTY).unwrap_or_else(|| {
            stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &s)| s)
                .map(|(i, _)| i)
                .expect("non-empty set")
        });
        let old = tags[victim];
        tags[victim] = if is_write { key | DIRTY } else { key };
        stamps[victim] = tick;
        let evicted = (old != EMPTY).then(|| EvictedLine {
            line: (old & !DIRTY) - 1,
            dirty: old & DIRTY != 0,
        });

        if is_write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        if let Some(e) = evicted {
            self.stats.evictions += 1;
            if e.dirty {
                self.stats.writebacks += 1;
            }
        }
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// Compresses every set's stamps to their rank order (1 = oldest)
    /// and restarts the tick above the largest rank. Victim choice reads
    /// only the order of stamps within a set, so no choice changes.
    fn renumber_stamps(&mut self) {
        let w = self.geom.ways as usize;
        let mut order = Vec::with_capacity(w);
        for (tags, stamps) in self
            .tags
            .chunks_exact(w)
            .zip(self.stamps.chunks_exact_mut(w))
        {
            order.clear();
            order.extend((0..w).filter(|&i| tags[i] != EMPTY));
            order.sort_unstable_by_key(|&i| stamps[i]);
            for (rank, &i) in (1..).zip(&order) {
                stamps[i] = rank;
            }
        }
        self.tick = self.geom.ways;
    }

    /// Checks whether `addr`'s line is present, without side effects.
    pub fn probe(&self, addr: u64) -> bool {
        self.probe_line(self.geom.line_of(addr))
    }

    /// Checks whether a line is present, without side effects.
    pub fn probe_line(&self, line: u64) -> bool {
        let key = self.geom.key_of(line);
        self.tags[self.geom.set_range(line)]
            .iter()
            .any(|&t| t & !DIRTY == key)
    }

    /// Invalidates a line if present; returns whether it was dirty.
    pub fn invalidate_line(&mut self, line: u64) -> Option<bool> {
        let key = self.geom.key_of(line);
        let t = self.tags[self.geom.set_range(line)]
            .iter_mut()
            .find(|t| **t & !DIRTY == key)?;
        let dirty = *t & DIRTY != 0;
        *t = EMPTY;
        Some(dirty)
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != EMPTY).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: u32, policy: Replacement) -> SetAssocCache {
        // 4 lines of 64B, `ways`-way.
        let geom = CacheGeometry::new(256, 64, ways).unwrap();
        SetAssocCache::new(geom, policy)
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(0, 64, 4).is_err());
        assert!(CacheGeometry::new(256, 0, 4).is_err());
        assert!(CacheGeometry::new(256, 48, 4).is_err());
        assert!(CacheGeometry::new(64, 64, 2).is_err());
        let g = CacheGeometry::new(32 * 1024, 64, 4).unwrap();
        assert_eq!(g.sets(), 128);
        assert_eq!(g.line_of(0x1040), 0x41);
    }

    #[test]
    fn geometry_rejects_what_the_lanes_cannot_represent() {
        // 1- and 2-byte lines would let `line + 1` reach the dirty bit.
        assert!(CacheGeometry::new(256, 1, 4).is_err());
        assert!(CacheGeometry::new(256, 2, 4).is_err());
        // Past 2^31 ways the u32 stamps could not be renumbered.
        let ways = (1u32 << 31) + 1;
        assert!(CacheGeometry::new(4 * ways as u64, 4, ways).is_err());
        assert!(CacheGeometry::new(4 << 31, 4, 1 << 31).is_ok());
    }

    #[test]
    fn top_line_of_the_address_space_round_trips() {
        // The smallest legal line puts the largest line number in the
        // tag lane; it must survive fill, dirtying and eviction.
        let g = CacheGeometry::new(16, 4, 1).unwrap();
        let mut c = SetAssocCache::new(g, Replacement::Lru);
        assert!(!c.access(u64::MAX, true).hit);
        assert!(c.probe(u64::MAX));
        let r = c.access(u64::MAX - 4 * g.line_bytes(), false);
        let e = r.evicted.expect("same set, one way");
        assert_eq!(e.line, g.line_of(u64::MAX));
        assert!(e.dirty);
        c.access(u64::MAX, false);
        assert_eq!(c.invalidate_line(g.line_of(u64::MAX)), Some(false));
    }

    #[test]
    fn stamp_wrap_keeps_lru_order() {
        // Lines 0 and 1 fill before the wrap and 2 and 3 after it; the
        // renumbered stamps must keep 0 older than 1, and both older
        // than the lines filled or touched after the wrap.
        let mut c = tiny(4, Replacement::Lru).with_tick(u32::MAX - 2);
        for line in 0..4 {
            c.access_line(line, false);
        }
        let victim = |c: &mut SetAssocCache, line| c.access_line(line, false).evicted.unwrap().line;
        assert_eq!(victim(&mut c, 4), 0);
        assert_eq!(victim(&mut c, 5), 1);
        c.access_line(2, false);
        assert_eq!(victim(&mut c, 6), 3);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(4, Replacement::Lru);
        assert!(!c.access(0x0, false).hit);
        assert!(c.access(0x0, false).hit);
        assert!(c.access(0x3f, false).hit, "same line, different byte");
        assert!(!c.access(0x40, false).hit, "next line misses");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(4, Replacement::Lru); // fully assoc: 1 set.
        for a in [0u64, 1, 2, 3] {
            c.access(a * 256, false); // distinct lines, same set
        }
        c.access(0, false); // touch line 0 -> most recent
        let r = c.access(4 * 256, false); // evicts line 1 (tag of 256>>6=4)
        assert_eq!(r.evicted.unwrap().line, 256 >> 6);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = tiny(4, Replacement::Fifo);
        for a in [0u64, 1, 2, 3] {
            c.access(a * 256, false);
        }
        c.access(0, false); // re-touch line 0; FIFO doesn't care
        let r = c.access(4 * 256, false);
        assert_eq!(r.evicted.unwrap().line, 0, "FIFO evicts oldest insert");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1, Replacement::Lru); // direct-mapped, 4 sets
        c.access(0, true); // dirty line 0 (set 0)
        let r = c.access(4 * 64, false); // same set (4 lines -> 4 sets, line 4 % 4 = 0)
        assert!(r.evicted.unwrap().dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny(1, Replacement::Lru);
        c.access(0, false);
        let r = c.access(4 * 64, false);
        assert!(!r.evicted.unwrap().dirty);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny(1, Replacement::Lru);
        c.access(0, false);
        c.access(0, true);
        let r = c.access(4 * 64, false);
        assert!(r.evicted.unwrap().dirty);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = tiny(4, Replacement::Lru);
        assert!(!c.probe(0));
        c.access(0, false);
        assert!(c.probe(0));
        assert_eq!(c.stats().accesses(), 1, "probe not counted");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny(4, Replacement::Lru);
        c.access(0, true);
        assert_eq!(c.invalidate_line(0), Some(true));
        assert!(!c.probe(0));
        assert_eq!(c.invalidate_line(0), None);
    }

    #[test]
    fn stats_accounting() {
        let mut c = tiny(4, Replacement::Lru);
        c.access(0, false); // read miss
        c.access(0, false); // read hit
        c.access(0, true); // write hit
        c.access(0x40, true); // write miss
        let s = c.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.write_hits, 1);
        assert_eq!(s.write_misses, 1);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut c = tiny(4, Replacement::Lru);
        for a in 0..100u64 {
            c.access(a * 64, false);
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn full_associativity_has_no_conflicts() {
        // A 16-entry fully associative cache touched with 16 lines that
        // would collide in a direct-mapped cache must hold all of them.
        let geom = CacheGeometry::new(16 * 64, 64, 16).unwrap();
        let mut c = SetAssocCache::new(geom, Replacement::Lru);
        for a in 0..16u64 {
            c.access(a * 16 * 64, false);
        }
        for a in 0..16u64 {
            assert!(c.probe(a * 16 * 64));
        }
    }
}

/// The displaced array-of-`Way` implementation, kept verbatim as the
/// reference model for the differential suite (DESIGN.md §15), less the
/// deleted `Random` policy, its generator and the wrappers the suite
/// does not call.
#[cfg(test)]
mod reference {
    use super::{AccessResult, CacheGeometry, CacheStats, EvictedLine, Replacement};

    #[derive(Debug, Clone, Copy, Default)]
    struct Way {
        tag: u64,
        valid: bool,
        dirty: bool,
        /// LRU timestamp or FIFO insertion sequence, depending on policy.
        stamp: u64,
    }

    #[derive(Debug, Clone)]
    pub struct RefSetAssocCache {
        geom: CacheGeometry,
        ways: Vec<Way>,
        policy: Replacement,
        tick: u64,
        stats: CacheStats,
    }

    impl RefSetAssocCache {
        pub fn new(geom: CacheGeometry, policy: Replacement) -> Self {
            Self {
                geom,
                ways: vec![Way::default(); (geom.sets * geom.ways as u64) as usize],
                policy,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        pub fn stats(&self) -> &CacheStats {
            &self.stats
        }

        fn set_of(&self, line: u64) -> u64 {
            line % self.geom.sets
        }

        fn set_slice(&mut self, set: u64) -> &mut [Way] {
            let w = self.geom.ways as usize;
            let base = set as usize * w;
            &mut self.ways[base..base + w]
        }

        pub fn access_line(&mut self, line: u64, is_write: bool) -> AccessResult {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_of(line);
            let policy = self.policy;
            let ways = self.set_slice(set);

            if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == line) {
                if policy == Replacement::Lru {
                    w.stamp = tick;
                }
                w.dirty |= is_write;
                if is_write {
                    self.stats.write_hits += 1;
                } else {
                    self.stats.read_hits += 1;
                }
                return AccessResult {
                    hit: true,
                    evicted: None,
                };
            }

            // Miss: pick a victim way.
            let victim_idx = match ways.iter().position(|w| !w.valid) {
                Some(i) => i,
                None => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.stamp)
                    .map(|(i, _)| i)
                    .expect("non-empty set"),
            };
            let victim = &mut ways[victim_idx];
            let evicted = victim.valid.then_some(EvictedLine {
                line: victim.tag,
                dirty: victim.dirty,
            });
            *victim = Way {
                tag: line,
                valid: true,
                dirty: is_write,
                stamp: tick,
            };

            if is_write {
                self.stats.write_misses += 1;
            } else {
                self.stats.read_misses += 1;
            }
            if let Some(e) = evicted {
                self.stats.evictions += 1;
                if e.dirty {
                    self.stats.writebacks += 1;
                }
            }
            AccessResult {
                hit: false,
                evicted,
            }
        }

        pub fn probe_line(&self, line: u64) -> bool {
            let set = self.set_of(line);
            let w = self.geom.ways as usize;
            let base = set as usize * w;
            self.ways[base..base + w]
                .iter()
                .any(|w| w.valid && w.tag == line)
        }

        pub fn invalidate_line(&mut self, line: u64) -> Option<bool> {
            let set = self.set_of(line);
            let ways = self.set_slice(set);
            for w in ways {
                if w.valid && w.tag == line {
                    w.valid = false;
                    return Some(w.dirty);
                }
            }
            None
        }

        pub fn occupancy(&self) -> u64 {
            self.ways.iter().filter(|w| w.valid).count() as u64
        }
    }
}

/// Differential tests: the packed-lane cache against the array-of-`Way`
/// reference over generated access/probe/invalidate traces, on the
/// simulator's own geometries and the corner cases of the set index
/// and the tag encoding (DESIGN.md §15).
#[cfg(test)]
mod differential {
    use super::reference::RefSetAssocCache;
    use super::*;
    use tdc_util::testkit::{assert_equiv, XorShift64};

    #[derive(Debug, Clone)]
    enum Op {
        Access { line: u64, write: bool },
        Probe(u64),
        Invalidate(u64),
    }

    /// Every geometry the suite runs, by name.
    fn geometries() -> Vec<(&'static str, CacheGeometry)> {
        let g = |c, l, w| CacheGeometry::new(c, l, w).expect("valid test geometry");
        vec![
            ("l1", g(32 << 10, 64, 4)),
            ("l2", g(2 << 20, 64, 16)),
            ("fully-assoc", g(64 * 64, 64, 64)),
            ("direct-mapped", g(64 * 64, 64, 1)),
            ("12-sets", g(12 * 4 * 64, 64, 4)),
            ("3-sets-4-byte-lines", g(3 * 2 * 4, 4, 2)),
        ]
    }

    /// The lines a trace draws from: up to 16 sets spread over the whole
    /// index range, `depth` lines deep per set, starting at `base`.
    struct Space {
        sets: u64,
        stride: u64,
        window: u64,
        base: u64,
    }

    impl Space {
        fn new(geom: CacheGeometry, depth: u64, high: bool) -> Self {
            let sets = geom.sets();
            let window = sets.min(16);
            // High traces sit just below the largest line number, so the
            // packed tags carry every bit the geometry allows.
            let top = u64::MAX >> geom.line_bytes().trailing_zeros();
            let base = if high {
                (top - sets * (depth + 1)) / sets * sets
            } else {
                0
            };
            Self {
                sets,
                stride: sets / window,
                window,
                base,
            }
        }

        fn line(&self, set: u64, k: u64) -> u64 {
            self.base + (set % self.window) * self.stride + self.sets * k
        }
    }

    fn replay(
        geom: CacheGeometry,
        policy: Replacement,
        start_tick: u32,
    ) -> impl Fn(&[Op]) -> Result<(), String> {
        move |ops: &[Op]| {
            let mut lanes = SetAssocCache::new(geom, policy).with_tick(start_tick);
            let mut reference = RefSetAssocCache::new(geom, policy);
            for (i, op) in ops.iter().enumerate() {
                let (a, b) = match *op {
                    Op::Access { line, write } => (
                        format!("{:?}", lanes.access_line(line, write)),
                        format!("{:?}", reference.access_line(line, write)),
                    ),
                    Op::Probe(line) => (
                        format!("{}", lanes.probe_line(line)),
                        format!("{}", reference.probe_line(line)),
                    ),
                    Op::Invalidate(line) => (
                        format!("{:?}", lanes.invalidate_line(line)),
                        format!("{:?}", reference.invalidate_line(line)),
                    ),
                };
                if a != b {
                    return Err(format!("step {i} {op:?}: lanes={a} ref={b}"));
                }
                if lanes.stats() != reference.stats() {
                    return Err(format!(
                        "step {i} {op:?}: stats lanes={:?} ref={:?}",
                        lanes.stats(),
                        reference.stats()
                    ));
                }
                if lanes.occupancy() != reference.occupancy() {
                    return Err(format!(
                        "step {i} {op:?}: occupancy lanes={} ref={}",
                        lanes.occupancy(),
                        reference.occupancy()
                    ));
                }
            }
            Ok(())
        }
    }

    /// Trace family 1: a loop over three quarters of the touched sets'
    /// capacity; after the first pass every access hits.
    fn warm_loop_trace(geom: CacheGeometry, rng: &mut XorShift64, len: usize) -> Vec<Op> {
        let depth = (geom.ways() as u64 * 3 / 4).max(1);
        let space = Space::new(geom, depth, false);
        let footprint = space.window * depth;
        (0..len as u64)
            .map(|j| {
                let n = j % footprint;
                let line = space.line(n % space.window, n / space.window);
                match rng.below(10) {
                    0 => Op::Probe(line),
                    1 => Op::Access { line, write: true },
                    _ => Op::Access { line, write: false },
                }
            })
            .collect()
    }

    /// Trace family 2: uniform accesses over eight times the touched
    /// sets' capacity, so nearly every access evicts.
    fn thrash_trace(geom: CacheGeometry, rng: &mut XorShift64, len: usize) -> Vec<Op> {
        let depth = 8 * geom.ways() as u64;
        let space = Space::new(geom, depth, false);
        (0..len)
            .map(|_| {
                let line = space.line(rng.next_u64(), rng.below(depth));
                match rng.below(10) {
                    0 => Op::Probe(line),
                    1 | 2 => Op::Access { line, write: true },
                    _ => Op::Access { line, write: false },
                }
            })
            .collect()
    }

    /// Trace family 3: writes, invalidations and probes over twice the
    /// touched sets' capacity, at the top of the line-number range.
    fn write_invalidate_trace(geom: CacheGeometry, rng: &mut XorShift64, len: usize) -> Vec<Op> {
        let depth = 2 * geom.ways() as u64;
        let space = Space::new(geom, depth, true);
        (0..len)
            .map(|_| {
                let line = space.line(rng.next_u64(), rng.below(depth));
                match rng.below(20) {
                    0..=7 => Op::Access { line, write: true },
                    8..=11 => Op::Access { line, write: false },
                    12..=16 => Op::Invalidate(line),
                    _ => Op::Probe(line),
                }
            })
            .collect()
    }

    type Family = fn(CacheGeometry, &mut XorShift64, usize) -> Vec<Op>;

    /// Runs `family` on every geometry under both policies. The trace
    /// length keeps the per-step `occupancy` scans of the 32,768-way L2
    /// affordable in debug builds.
    fn check(name: &str, family: Family, start_tick: u32) {
        let mut seed = 0;
        for (geom_name, geom) in geometries() {
            for policy in [Replacement::Lru, Replacement::Fifo] {
                seed += 1;
                let ops = family(geom, &mut XorShift64::new(seed), 1200);
                let label = format!("cache/{name}/{geom_name}/{policy:?}");
                assert_equiv(&label, &ops, replay(geom, policy, start_tick));
            }
        }
    }

    #[test]
    fn warm_loop_family_matches_reference() {
        check("warm-loop", warm_loop_trace, 0);
    }

    #[test]
    fn thrash_family_matches_reference() {
        check("thrash", thrash_trace, 0);
    }

    #[test]
    fn write_invalidate_family_matches_reference() {
        check("write-invalidate", write_invalidate_trace, 0);
    }

    #[test]
    fn every_family_matches_reference_across_the_stamp_wrap() {
        // The wrap comes 500 accesses in, with every touched set full.
        let start = u32::MAX - 500;
        check("warm-loop", warm_loop_trace, start);
        check("thrash", thrash_trace, start);
        check("write-invalidate", write_invalidate_trace, start);
    }
}
