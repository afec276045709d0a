//! Flat, allocation-stingy containers for simulator hot paths.
//!
//! The access-path structures (cTLB, GIPT side tables, free queue) were
//! originally `BTreeMap`/`VecDeque`-backed; DESIGN.md §15 describes the
//! flat struct-of-arrays organization they moved to. This module holds
//! the two shared building blocks:
//!
//! * [`FlatMap`] — an open-addressed `u64 → V` hash table with linear
//!   probing, tombstone deletion, and fibonacci hashing. Fully
//!   deterministic: the table state is a pure function of the operation
//!   sequence, never of pointer values or iteration-order accidents.
//! * [`FixedRing`] — a fixed-capacity ring buffer (FIFO) with a linear
//!   `purge` for the rare rescue path. Backing storage is allocated
//!   once at construction; steady-state push/pop never allocate.

/// Control byte: slot has never held a key.
const EMPTY: u8 = 0;
/// Control byte: slot holds a live key.
const FULL: u8 = 1;
/// Control byte: slot held a key that was removed (probe chains must
/// continue through it).
const TOMB: u8 = 2;

/// Fibonacci multiplier (2^64 / φ); spreads low-entropy keys across the
/// high bits, which index the table.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressed `u64 → V` map with deterministic behaviour.
///
/// Keys are arbitrary `u64` values (no sentinel is reserved; validity
/// lives in a separate control-byte array, struct-of-arrays style).
/// Lookups are a multiply, a shift, and a short linear scan over a
/// contiguous key array — no tree pointers, no per-node allocation.
#[derive(Debug, Clone)]
pub struct FlatMap<V> {
    ctrl: Vec<u8>,
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
    tombs: usize,
    /// `64 - log2(capacity)`; hashes index via `h >> shift`.
    shift: u32,
}

impl<V: Copy + Default> Default for FlatMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> FlatMap<V> {
    /// Creates an empty map (16-slot initial table).
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Creates an empty map sized so `cap` keys fit without rehashing.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = (cap.max(2) * 8 / 7).next_power_of_two().max(16);
        Self {
            ctrl: vec![EMPTY; slots],
            keys: vec![0; slots],
            vals: vec![V::default(); slots],
            len: 0,
            tombs: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.ctrl.len() - 1
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the shift leaves log2(slots) bits"
    )]
    fn start(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Looks up `key`, returning a copy of its value.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        let mask = self.mask();
        let mut i = self.start(key);
        loop {
            match self.ctrl[i] {
                EMPTY => return None,
                FULL if self.keys[i] == key => return Some(self.vals[i]),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let mask = self.mask();
        let mut i = self.start(key);
        loop {
            match self.ctrl[i] {
                EMPTY => return None,
                FULL if self.keys[i] == key => return Some(&mut self.vals[i]),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → val`, returning the previous value if present.
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        if (self.len + self.tombs + 1) * 8 > self.ctrl.len() * 7 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.start(key);
        let mut first_tomb = None;
        loop {
            match self.ctrl[i] {
                EMPTY => {
                    let at = first_tomb.unwrap_or(i);
                    if self.ctrl[at] == TOMB {
                        self.tombs -= 1;
                    }
                    self.ctrl[at] = FULL;
                    self.keys[at] = key;
                    self.vals[at] = val;
                    self.len += 1;
                    return None;
                }
                FULL if self.keys[i] == key => {
                    let old = self.vals[i];
                    self.vals[i] = val;
                    return Some(old);
                }
                TOMB => {
                    if first_tomb.is_none() {
                        first_tomb = Some(i);
                    }
                    i = (i + 1) & mask;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mask = self.mask();
        let mut i = self.start(key);
        loop {
            match self.ctrl[i] {
                EMPTY => return None,
                FULL if self.keys[i] == key => {
                    self.ctrl[i] = TOMB;
                    self.len -= 1;
                    self.tombs += 1;
                    return Some(self.vals[i]);
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// All live `(key, value)` pairs, sorted by key (test/debug helper;
    /// hot paths never iterate).
    pub fn sorted_pairs(&self) -> Vec<(u64, V)> {
        let mut out: Vec<(u64, V)> = self
            .ctrl
            .iter()
            .zip(&self.keys)
            .zip(&self.vals)
            .filter(|((c, _), _)| **c == FULL)
            .map(|((_, k), v)| (*k, *v))
            .collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Doubles capacity and rehashes. Amortized over the insertions
    /// that triggered it — growth is not steady-state hot-path work.
    fn grow(&mut self) {
        let new_slots = self.ctrl.len() * 2;
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![EMPTY; new_slots]);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_slots]);
        self.shift = 64 - new_slots.trailing_zeros();
        self.len = 0;
        self.tombs = 0;
        for ((c, k), v) in old_ctrl.iter().zip(&old_keys).zip(&old_vals) {
            if *c == FULL {
                self.insert(*k, *v);
            }
        }
    }
}

impl<V: Copy + Default> std::ops::Index<u64> for FlatMap<V> {
    type Output = V;

    /// Panics if `key` is absent (use [`FlatMap::get`] to probe).
    fn index(&self, key: u64) -> &V {
        let mask = self.mask();
        let mut i = self.start(key);
        loop {
            match self.ctrl[i] {
                #[expect(clippy::panic, reason = "documented panicking accessor")]
                EMPTY => panic!("FlatMap: key {key:#x} not present"),
                FULL if self.keys[i] == key => return &self.vals[i],
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// A fixed-capacity FIFO ring buffer.
///
/// Capacity is set at construction and the backing storage is never
/// reallocated, pinning the "free queue holds at most every slot"
/// invariant structurally. `push_back` on a full ring panics: the
/// simulator's queues are bounded by slot count, so overflow is a logic
/// error, not a resize opportunity.
#[derive(Debug, Clone)]
pub struct FixedRing<T> {
    buf: Vec<T>,
    head: usize,
    len: usize,
    cap: usize,
}

impl<T: Copy + Default + PartialEq> FixedRing<T> {
    /// Creates an empty ring holding at most `cap` elements.
    pub fn new(cap: usize) -> Self {
        Self {
            buf: vec![T::default(); cap.next_power_of_two().max(1)],
            head: 0,
            len: 0,
            cap,
        }
    }

    /// Maximum number of elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    /// Appends to the back.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full.
    #[inline]
    pub fn push_back(&mut self, v: T) {
        assert!(self.len < self.cap, "FixedRing overflow (cap {})", self.cap);
        let at = (self.head + self.len) & self.mask();
        self.buf[at] = v;
        self.len += 1;
    }

    /// Removes and returns the front element.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        Some(v)
    }

    /// Whether `v` is currently queued (linear scan).
    pub fn contains(&self, v: T) -> bool {
        self.iter().any(|x| x == v)
    }

    /// Removes every element equal to `v`, preserving the order of the
    /// rest (linear; used on the rare rescue path where the queue is at
    /// most a few entries).
    pub fn purge(&mut self, v: T) {
        let mask = self.mask();
        let mut kept = 0;
        for i in 0..self.len {
            let x = self.buf[(self.head + i) & mask];
            if x != v {
                self.buf[(self.head + kept) & mask] = x;
                kept += 1;
            }
        }
        self.len = kept;
    }

    /// Front-to-back iteration.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len).map(move |i| self.buf[(self.head + i) & self.mask()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn flatmap_basic_roundtrip() {
        let mut m = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 70u64), None);
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.get(7), Some(71));
        assert_eq!(m[7], 71);
        assert_eq!(m.remove(7), Some(71));
        assert_eq!(m.remove(7), None);
        assert!(m.get(7).is_none());
    }

    #[test]
    fn flatmap_handles_extreme_keys() {
        let mut m = FlatMap::new();
        for k in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            m.insert(k, k ^ 1);
        }
        for k in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            assert_eq!(m.get(k), Some(k ^ 1));
        }
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn flatmap_grows_past_initial_capacity() {
        let mut m = FlatMap::with_capacity(4);
        for k in 0..10_000u64 {
            m.insert(k.wrapping_mul(0x1234_5678_9abc_def1), k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k.wrapping_mul(0x1234_5678_9abc_def1)), Some(k));
        }
    }

    #[test]
    fn flatmap_tombstones_keep_probe_chains_alive() {
        // Force collisions into one cluster, delete the middle, and
        // check the tail of the chain is still reachable.
        let mut m = FlatMap::with_capacity(4);
        let ks: Vec<u64> = (0..8).collect();
        for &k in &ks {
            m.insert(k, k);
        }
        for &k in &ks[2..5] {
            m.remove(k);
        }
        for &k in &ks {
            let want = if (2..5).contains(&(k as usize)) {
                None
            } else {
                Some(k)
            };
            assert_eq!(m.get(k), want, "key {k}");
        }
        // Re-insertion reuses tombstones.
        m.insert(3, 33);
        assert_eq!(m.get(3), Some(33));
    }

    #[test]
    fn flatmap_matches_btreemap_reference() {
        // Differential check against the map it replaces, over a mixed
        // insert/remove/overwrite stream.
        let mut flat = FlatMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x = 0x0135_79bd_f246_8ace_u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 512; // small key space => plenty of overwrites
            match x % 3 {
                0 | 1 => {
                    assert_eq!(flat.insert(key, step), reference.insert(key, step));
                }
                _ => {
                    assert_eq!(flat.remove(key), reference.remove(&key));
                }
            }
            assert_eq!(flat.len(), reference.len(), "len diverged at {step}");
        }
        let pairs: Vec<(u64, u64)> = reference.into_iter().collect();
        assert_eq!(flat.sorted_pairs(), pairs);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn flatmap_index_panics_on_missing() {
        let m: FlatMap<u64> = FlatMap::new();
        let _ = m[42];
    }

    #[test]
    fn ring_fifo_order_and_wraparound() {
        let mut r = FixedRing::new(3);
        assert_eq!(r.capacity(), 3);
        // Cycle enough times to wrap the backing buffer repeatedly.
        for round in 0..50u64 {
            r.push_back(round);
            if round >= 2 {
                assert_eq!(r.pop_front(), Some(round - 2));
            }
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop_front(), Some(48));
        assert_eq!(r.pop_front(), Some(49));
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    #[should_panic(expected = "FixedRing overflow")]
    fn ring_overflow_panics() {
        let mut r = FixedRing::new(2);
        r.push_back(1u64);
        r.push_back(2);
        r.push_back(3);
    }

    #[test]
    fn ring_purge_preserves_order() {
        let mut r = FixedRing::new(8);
        for v in [1u64, 2, 3, 2, 4, 2] {
            r.push_back(v);
        }
        assert!(r.contains(2));
        r.purge(2);
        assert!(!r.contains(2));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 3, 4]);
        // Ring still usable after compaction.
        r.push_back(9);
        assert_eq!(r.pop_front(), Some(1));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![3, 4, 9]);
    }

    #[test]
    fn ring_zero_capacity_is_inert() {
        let r: FixedRing<u64> = FixedRing::new(0);
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 0);
    }
}
