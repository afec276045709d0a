//! Cache slot management: header pointer, free queue, and victim
//! selection for the tagless design.
//!
//! The paper's replacement machinery (§3.2, Fig. 4): a globally shared
//! **header pointer** hands out free slots in ring order; a **free
//! queue** holds slots selected for (asynchronous) eviction; victim
//! selection skips TLB-resident pages, and a page whose mapping returns
//! to a TLB before its eviction is processed is *rescued* back to the
//! occupied state (in-package victim hit). FIFO is the default policy;
//! LRU is provided for the Fig. 11 sensitivity study.
//!
//! Storage is struct-of-arrays (DESIGN.md §15): per-slot state and
//! dirty lanes, plus an intrusive doubly-linked **order list**
//! (`next`/`prev` index arrays) threading every occupied slot. Under
//! FIFO the list is insertion order with second-chance move-to-back;
//! under LRU every touch moves the slot to the tail, so the list is in
//! recency order and the victim scan reads from the head — replacing
//! the lazy `BinaryHeap` (and its stale-entry garbage) with an
//! O(1)-per-touch structure, and making per-slot stamps unnecessary.
//! Never-used slots are handed out by the `fresh` header pointer, and
//! freed slots queue behind them in a fixed-capacity ring
//! ([`FixedRing`]), as does the free queue; nothing on this path
//! allocates after construction, and construction writes only the
//! one-byte state lane (the other lanes start zeroed). The displaced
//! `VecDeque`/heap implementation survives as the `#[cfg(test)]`
//! reference model for the differential suite.

use tdc_util::flat::FixedRing;
use tdc_util::Cpn;

/// Victim selection policy for the tagless cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VictimPolicy {
    /// First-in-first-out via the header pointer (paper default).
    #[default]
    Fifo,
    /// Least-recently-used (Fig. 11 sensitivity study).
    Lru,
}

/// State of one cache slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Occupied,
    /// Selected for eviction and sitting in the free queue.
    PendingEvict,
}

/// Order-list terminator.
const NIL: u32 = u32::MAX;

/// Slot allocator + victim selector + free queue.
#[derive(Debug, Clone)]
pub struct SlotRing {
    policy: VictimPolicy,
    // Struct-of-arrays slot state.
    state: Vec<SlotState>,
    dirty: Vec<bool>,
    /// Intrusive order list over *occupied* slots: FIFO order under
    /// [`VictimPolicy::Fifo`], recency order (head = LRU) under
    /// [`VictimPolicy::Lru`]. A slot's links are written when it joins
    /// the list, before anything reads them.
    next: Vec<u32>,
    prev: Vec<u32>,
    head: u32,
    tail: u32,
    order_len: u64,
    /// Header pointer: slots `fresh..len` have never been allocated.
    fresh: u32,
    /// Freed slots, in the order they were freed; allocated only once
    /// the fresh slots run out.
    free_list: FixedRing<u32>,
    /// Slots awaiting asynchronous eviction.
    free_queue: FixedRing<u32>,
    rescues: u64,
}

impl SlotRing {
    /// Creates a ring of `n` free slots.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64, policy: VictimPolicy) -> Self {
        assert!(n > 0, "cache must have at least one slot");
        assert!(n < NIL as u64, "slot count exceeds u32 index space");
        #[expect(clippy::cast_possible_truncation, reason = "n < NIL is asserted above")]
        let n = n as usize;
        Self {
            policy,
            state: vec![SlotState::Free; n],
            dirty: vec![false; n],
            next: vec![0; n],
            prev: vec![0; n],
            head: NIL,
            tail: NIL,
            order_len: 0,
            fresh: 0,
            free_list: FixedRing::new(n),
            free_queue: FixedRing::new(n),
            rescues: 0,
        }
    }

    /// Total slots.
    pub fn len(&self) -> u64 {
        self.state.len() as u64
    }

    /// Whether the ring has zero slots (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Currently free slots (allocatable right now).
    pub fn free_count(&self) -> u64 {
        self.len() - u64::from(self.fresh) + self.free_list.len() as u64
    }

    /// Occupied slots (including pending evictions).
    pub fn occupancy(&self) -> u64 {
        self.len() - self.free_count()
    }

    /// Entries waiting in the free queue.
    pub fn pending_len(&self) -> u64 {
        self.free_queue.len() as u64
    }

    /// Times a pending eviction was rescued by a victim hit.
    pub fn rescues(&self) -> u64 {
        self.rescues
    }

    /// The configured policy.
    pub fn policy(&self) -> VictimPolicy {
        self.policy
    }

    /// Appends slot `i` at the order-list tail (MRU / newest position).
    #[inline]
    fn link_tail(&mut self, i: u32) {
        self.prev[i as usize] = self.tail;
        self.next[i as usize] = NIL;
        if self.tail == NIL {
            self.head = i;
        } else {
            self.next[self.tail as usize] = i;
        }
        self.tail = i;
        self.order_len += 1;
    }

    /// Unlinks slot `i` from the order list.
    #[inline]
    fn unlink(&mut self, i: u32) {
        let (p, n) = (self.prev[i as usize], self.next[i as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[i as usize] = NIL;
        self.next[i as usize] = NIL;
        self.order_len -= 1;
    }

    /// Every slot is in exactly one of the three structures.
    #[inline]
    fn debug_validate(&self) {
        debug_assert_eq!(
            self.free_count() + self.order_len + self.free_queue.len() as u64,
            self.len(),
            "slot accounting broken: free={} ordered={} pending={}",
            self.free_count(),
            self.order_len,
            self.free_queue.len()
        );
    }

    /// Allocates the slot at the header pointer, then the longest-freed
    /// slot once every slot has been used. Returns `None` when no free
    /// slot exists (the caller failed to maintain α).
    pub fn allocate(&mut self) -> Option<Cpn> {
        let i = if u64::from(self.fresh) < self.len() {
            let i = self.fresh;
            self.fresh += 1;
            i
        } else {
            self.free_list.pop_front()?
        };
        debug_assert_eq!(self.state[i as usize], SlotState::Free);
        self.state[i as usize] = SlotState::Occupied;
        self.dirty[i as usize] = false;
        self.link_tail(i);
        self.debug_validate();
        Some(Cpn(i as u64))
    }

    /// Records a use of `cpn` (LRU recency; no-op under FIFO).
    #[inline]
    pub fn touch(&mut self, cpn: Cpn) {
        if self.policy != VictimPolicy::Lru {
            return;
        }
        debug_assert!(cpn.0 < self.state.len() as u64, "CPN {cpn:?} out of range");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "bound debug_assert-pinned above"
        )]
        let i = cpn.0 as u32;
        if self.state[i as usize] == SlotState::Occupied {
            // Move to tail: the list stays in recency order, so the LRU
            // victim scan is a head read instead of a heap drain.
            self.unlink(i);
            self.link_tail(i);
        }
    }

    /// Marks a slot dirty (a writeback reached it).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "cache page numbers index in-memory lanes"
    )]
    pub fn mark_dirty(&mut self, cpn: Cpn) {
        self.dirty[cpn.0 as usize] = true;
    }

    /// Whether a slot currently holds a page (occupied or pending).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "cache page numbers index in-memory lanes"
    )]
    pub fn is_live(&self, cpn: Cpn) -> bool {
        self.state[cpn.0 as usize] != SlotState::Free
    }

    /// Selects one victim for which `resident` is false, moving it into
    /// the free queue. Resident pages get a second chance. Returns the
    /// selected slot, or `None` if every occupied slot is TLB-resident.
    pub fn enqueue_victim(&mut self, resident: impl Fn(Cpn) -> bool) -> Option<Cpn> {
        let selected = match self.policy {
            VictimPolicy::Fifo => {
                // Walk from the FIFO head; residents move to the back
                // (second chance), so bound the walk by the list length
                // at entry or an all-resident list would spin forever.
                let mut attempts = self.order_len;
                let mut cur = self.head;
                let mut selected = None;
                while attempts > 0 && cur != NIL {
                    attempts -= 1;
                    let nxt = self.next[cur as usize];
                    debug_assert_eq!(self.state[cur as usize], SlotState::Occupied);
                    if resident(Cpn(cur as u64)) {
                        self.unlink(cur);
                        self.link_tail(cur); // second chance
                    } else {
                        selected = Some(cur);
                        break;
                    }
                    cur = nxt;
                }
                selected
            }
            VictimPolicy::Lru => {
                // The list is in recency order; the first non-resident
                // slot from the head is the least-recent eviction
                // candidate. Residents are skipped in place (no
                // reordering), keeping their recency exactly as the lazy
                // heap kept their stamps.
                let mut cur = self.head;
                loop {
                    if cur == NIL {
                        break None;
                    }
                    debug_assert_eq!(self.state[cur as usize], SlotState::Occupied);
                    if !resident(Cpn(cur as u64)) {
                        break Some(cur);
                    }
                    cur = self.next[cur as usize];
                }
            }
        }?;
        self.unlink(selected);
        self.state[selected as usize] = SlotState::PendingEvict;
        debug_assert!(
            !self.free_queue.contains(selected),
            "slot {selected} double-queued for eviction"
        );
        self.free_queue.push_back(selected);
        self.debug_validate();
        Some(Cpn(selected as u64))
    }

    /// Pops the next pending eviction (skipping rescued slots),
    /// freeing the slot and returning `(cpn, was_dirty)`.
    pub fn pop_eviction(&mut self) -> Option<(Cpn, bool)> {
        while let Some(i) = self.free_queue.pop_front() {
            if self.state[i as usize] != SlotState::PendingEvict {
                continue; // rescued in the meantime
            }
            let dirty = self.dirty[i as usize];
            self.state[i as usize] = SlotState::Free;
            self.dirty[i as usize] = false;
            self.free_list.push_back(i);
            self.debug_validate();
            return Some((Cpn(i as u64), dirty));
        }
        None
    }

    /// Rescues a pending eviction (in-package victim hit re-established
    /// the mapping). Returns whether anything was rescued.
    pub fn rescue(&mut self, cpn: Cpn) -> bool {
        debug_assert!(cpn.0 < self.state.len() as u64, "CPN {cpn:?} out of range");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "bound debug_assert-pinned above"
        )]
        let i = cpn.0 as u32;
        if self.state[i as usize] != SlotState::PendingEvict {
            return false;
        }
        // Drop the stale free-queue entry so a later re-selection cannot
        // double-queue the slot (the queue is at most a few entries, so
        // the linear purge is cheap).
        self.free_queue.purge(i);
        self.state[i as usize] = SlotState::Occupied;
        self.link_tail(i);
        self.rescues += 1;
        self.debug_validate();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_ring_ordered() {
        let mut r = SlotRing::new(4, VictimPolicy::Fifo);
        assert_eq!(r.allocate(), Some(Cpn(0)));
        assert_eq!(r.allocate(), Some(Cpn(1)));
        assert_eq!(r.free_count(), 2);
        assert_eq!(r.occupancy(), 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut r = SlotRing::new(2, VictimPolicy::Fifo);
        r.allocate();
        r.allocate();
        assert_eq!(r.allocate(), None);
    }

    #[test]
    fn fifo_victim_is_oldest() {
        let mut r = SlotRing::new(4, VictimPolicy::Fifo);
        for _ in 0..4 {
            r.allocate();
        }
        assert_eq!(r.enqueue_victim(|_| false), Some(Cpn(0)));
        assert_eq!(r.pop_eviction(), Some((Cpn(0), false)));
        assert_eq!(r.free_count(), 1);
        // The freed slot is reused.
        r.allocate();
        assert_eq!(r.free_count(), 0);
    }

    #[test]
    fn resident_pages_get_second_chance() {
        let mut r = SlotRing::new(4, VictimPolicy::Fifo);
        for _ in 0..4 {
            r.allocate();
        }
        // Slot 0 is TLB-resident: victim selection skips to slot 1.
        assert_eq!(r.enqueue_victim(|c| c == Cpn(0)), Some(Cpn(1)));
        // All resident: nothing selectable.
        let mut r2 = SlotRing::new(2, VictimPolicy::Fifo);
        r2.allocate();
        r2.allocate();
        assert_eq!(r2.enqueue_victim(|_| true), None);
    }

    #[test]
    fn rescue_cancels_eviction() {
        let mut r = SlotRing::new(4, VictimPolicy::Fifo);
        for _ in 0..4 {
            r.allocate();
        }
        let v = r.enqueue_victim(|_| false).unwrap();
        assert!(r.rescue(v));
        assert_eq!(r.pop_eviction(), None, "rescued slot must not evict");
        assert_eq!(r.rescues(), 1);
        assert!(r.is_live(v));
        // A rescued page can be selected again later.
        assert_eq!(r.enqueue_victim(|_| false), Some(Cpn(1)));
    }

    #[test]
    fn rescue_of_occupied_slot_is_noop() {
        let mut r = SlotRing::new(2, VictimPolicy::Fifo);
        let c = r.allocate().unwrap();
        assert!(!r.rescue(c));
    }

    #[test]
    fn dirty_flag_travels_with_eviction() {
        let mut r = SlotRing::new(2, VictimPolicy::Fifo);
        let c = r.allocate().unwrap();
        r.mark_dirty(c);
        r.allocate();
        r.enqueue_victim(|_| false);
        assert_eq!(r.pop_eviction(), Some((c, true)));
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut r = SlotRing::new(3, VictimPolicy::Lru);
        let a = r.allocate().unwrap();
        let b = r.allocate().unwrap();
        let c = r.allocate().unwrap();
        r.touch(a); // a most recent; b is now LRU
        assert_eq!(r.enqueue_victim(|_| false), Some(b));
        let _ = (c,);
    }

    #[test]
    fn lru_skips_resident() {
        let mut r = SlotRing::new(3, VictimPolicy::Lru);
        let a = r.allocate().unwrap();
        let b = r.allocate().unwrap();
        r.allocate();
        assert_eq!(r.enqueue_victim(|c| c == a), Some(b));
        // The resident page remains selectable once non-resident.
        assert_eq!(r.enqueue_victim(|_| false), Some(a));
    }

    #[test]
    fn lru_touch_after_pending_does_not_corrupt() {
        let mut r = SlotRing::new(2, VictimPolicy::Lru);
        let a = r.allocate().unwrap();
        r.allocate();
        r.enqueue_victim(|_| false);
        r.touch(a); // touching a pending slot is a no-op
        assert_eq!(r.pop_eviction(), Some((a, false)));
    }

    #[test]
    fn steady_state_allocate_evict_cycle() {
        let mut r = SlotRing::new(8, VictimPolicy::Fifo);
        let mut allocated = 0u64;
        for _ in 0..100 {
            if r.free_count() == 0 {
                r.enqueue_victim(|_| false).expect("victim available");
                r.pop_eviction().expect("eviction completes");
            }
            r.allocate().expect("slot after eviction");
            allocated += 1;
        }
        assert_eq!(allocated, 100);
        assert_eq!(r.occupancy(), 8);
    }

    #[test]
    fn one_slot_degenerate_ring() {
        // The smallest legal ring: allocate, evict, rescue all work with
        // a single slot (head == tail throughout).
        let mut r = SlotRing::new(1, VictimPolicy::Fifo);
        let c = r.allocate().unwrap();
        assert_eq!(r.allocate(), None);
        assert_eq!(r.enqueue_victim(|_| true), None, "resident sole slot");
        let v = r.enqueue_victim(|_| false).unwrap();
        assert_eq!(v, c);
        assert!(r.rescue(v));
        assert_eq!(r.pop_eviction(), None);
        let v = r.enqueue_victim(|_| false).unwrap();
        assert_eq!(r.pop_eviction(), Some((v, false)));
        assert_eq!(r.allocate(), Some(c));
    }

    #[test]
    fn free_queue_underflow_at_watermark_is_none() {
        // Draining the free queue past empty must be a clean None, not
        // an α-invariant violation (the caller re-enqueues and retries).
        let mut r = SlotRing::new(4, VictimPolicy::Fifo);
        assert_eq!(r.pop_eviction(), None, "empty ring");
        for _ in 0..4 {
            r.allocate();
        }
        assert_eq!(r.pop_eviction(), None, "nothing enqueued yet");
        r.enqueue_victim(|_| false).unwrap();
        assert!(r.pop_eviction().is_some());
        assert_eq!(r.pop_eviction(), None, "queue drained");
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn full_occupancy_eviction_sweeps_every_slot() {
        // With all slots occupied and nothing resident, repeated
        // eviction must cycle through every slot exactly once per round.
        let n = 6u64;
        let mut r = SlotRing::new(n, VictimPolicy::Fifo);
        for _ in 0..n {
            r.allocate();
        }
        let mut victims = Vec::new();
        for _ in 0..n {
            let v = r.enqueue_victim(|_| false).expect("victim");
            victims.push(v.0);
            r.pop_eviction().expect("evicts");
            r.allocate().expect("refills");
        }
        victims.sort_unstable();
        assert_eq!(victims, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn lru_order_list_wraparound() {
        // Touch slots in a rotating pattern for many rounds — far more
        // than the slot count — so the order list's head/tail links wrap
        // through every position repeatedly; the victim must always be
        // the least-recently-touched slot.
        let n = 5u64;
        let mut r = SlotRing::new(n, VictimPolicy::Lru);
        let slots: Vec<Cpn> = (0..n).map(|_| r.allocate().unwrap()).collect();
        for round in 0..100u64 {
            // Touch all but one slot; the untouched one becomes LRU.
            let skip = (round % n) as usize;
            for (i, &c) in slots.iter().enumerate() {
                if i != skip {
                    r.touch(c);
                }
            }
            let v = r.enqueue_victim(|_| false).expect("victim");
            assert_eq!(v, slots[skip], "round {round}");
            assert!(r.rescue(v), "put it back for the next round");
        }
        assert_eq!(r.rescues(), 100);
    }
}

/// The displaced `VecDeque` + lazy-`BinaryHeap` implementation, kept
/// verbatim as the reference model for the differential suite
/// (DESIGN.md §15).
#[cfg(test)]
mod reference {
    use super::{SlotState, VictimPolicy};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};
    use tdc_util::Cpn;

    #[derive(Debug, Clone, Copy)]
    struct Slot {
        state: SlotState,
        dirty: bool,
        stamp: u64,
    }

    #[derive(Debug, Clone)]
    pub struct RefSlotRing {
        slots: Vec<Slot>,
        policy: VictimPolicy,
        free_list: VecDeque<Cpn>,
        fifo_order: VecDeque<Cpn>,
        lru_heap: BinaryHeap<Reverse<(u64, u64)>>,
        free_queue: VecDeque<Cpn>,
        tick: u64,
        rescues: u64,
    }

    impl RefSlotRing {
        pub fn new(n: u64, policy: VictimPolicy) -> Self {
            Self {
                slots: vec![
                    Slot {
                        state: SlotState::Free,
                        dirty: false,
                        stamp: 0,
                    };
                    n as usize
                ],
                policy,
                free_list: (0..n).map(Cpn).collect(),
                fifo_order: VecDeque::new(),
                lru_heap: BinaryHeap::new(),
                free_queue: VecDeque::new(),
                tick: 0,
                rescues: 0,
            }
        }

        pub fn free_count(&self) -> u64 {
            self.free_list.len() as u64
        }

        pub fn occupancy(&self) -> u64 {
            self.slots.len() as u64 - self.free_count()
        }

        pub fn pending_len(&self) -> u64 {
            self.free_queue.len() as u64
        }

        pub fn rescues(&self) -> u64 {
            self.rescues
        }

        fn bump(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        pub fn allocate(&mut self) -> Option<Cpn> {
            let cpn = self.free_list.pop_front()?;
            let stamp = self.bump();
            let s = &mut self.slots[cpn.0 as usize];
            *s = Slot {
                state: SlotState::Occupied,
                dirty: false,
                stamp,
            };
            self.fifo_order.push_back(cpn);
            if self.policy == VictimPolicy::Lru {
                self.lru_heap.push(Reverse((stamp, cpn.0)));
            }
            Some(cpn)
        }

        pub fn touch(&mut self, cpn: Cpn) {
            if self.policy != VictimPolicy::Lru {
                return;
            }
            let stamp = self.bump();
            let s = &mut self.slots[cpn.0 as usize];
            if s.state == SlotState::Occupied {
                s.stamp = stamp;
                self.lru_heap.push(Reverse((stamp, cpn.0)));
            }
        }

        pub fn mark_dirty(&mut self, cpn: Cpn) {
            self.slots[cpn.0 as usize].dirty = true;
        }

        pub fn is_live(&self, cpn: Cpn) -> bool {
            self.slots[cpn.0 as usize].state != SlotState::Free
        }

        pub fn enqueue_victim(&mut self, resident: impl Fn(Cpn) -> bool) -> Option<Cpn> {
            match self.policy {
                VictimPolicy::Fifo => {
                    let mut attempts = self.fifo_order.len();
                    while attempts > 0 {
                        attempts -= 1;
                        let cpn = self.fifo_order.pop_front()?;
                        if self.slots[cpn.0 as usize].state != SlotState::Occupied {
                            continue;
                        }
                        if resident(cpn) {
                            self.fifo_order.push_back(cpn);
                            continue;
                        }
                        self.slots[cpn.0 as usize].state = SlotState::PendingEvict;
                        self.free_queue.push_back(cpn);
                        return Some(cpn);
                    }
                    None
                }
                VictimPolicy::Lru => {
                    let mut deferred = Vec::new();
                    let mut selected = None;
                    while let Some(Reverse((stamp, raw))) = self.lru_heap.pop() {
                        let cpn = Cpn(raw);
                        let s = self.slots[raw as usize];
                        if s.state != SlotState::Occupied || s.stamp != stamp {
                            continue;
                        }
                        if resident(cpn) {
                            deferred.push(Reverse((stamp, raw)));
                            continue;
                        }
                        self.slots[raw as usize].state = SlotState::PendingEvict;
                        self.free_queue.push_back(cpn);
                        selected = Some(cpn);
                        break;
                    }
                    for d in deferred {
                        self.lru_heap.push(d);
                    }
                    selected
                }
            }
        }

        pub fn pop_eviction(&mut self) -> Option<(Cpn, bool)> {
            while let Some(cpn) = self.free_queue.pop_front() {
                let s = &mut self.slots[cpn.0 as usize];
                if s.state != SlotState::PendingEvict {
                    continue;
                }
                let dirty = s.dirty;
                *s = Slot {
                    state: SlotState::Free,
                    dirty: false,
                    stamp: 0,
                };
                self.free_list.push_back(cpn);
                return Some((cpn, dirty));
            }
            None
        }

        pub fn rescue(&mut self, cpn: Cpn) -> bool {
            let stamp = self.bump();
            let s = &mut self.slots[cpn.0 as usize];
            if s.state != SlotState::PendingEvict {
                return false;
            }
            self.free_queue.retain(|&c| c != cpn);
            let s = &mut self.slots[cpn.0 as usize];
            s.state = SlotState::Occupied;
            s.stamp = stamp;
            self.fifo_order.push_back(cpn);
            if self.policy == VictimPolicy::Lru {
                self.lru_heap.push(Reverse((stamp, cpn.0)));
            }
            self.rescues += 1;
            true
        }
    }
}

/// Differential tests: the flat order-list `SlotRing` against the
/// deque/heap reference over generated allocate/touch/evict/rescue
/// traces (DESIGN.md §15).
#[cfg(test)]
mod differential {
    use super::reference::RefSlotRing;
    use super::*;
    use tdc_util::testkit::{assert_equiv, XorShift64};

    #[derive(Debug, Clone)]
    enum Op {
        Allocate,
        Touch(u64),
        MarkDirty(u64),
        /// Victim selection; the salt seeds a deterministic residency
        /// predicate shared by both models.
        EnqueueVictim(u64),
        PopEviction,
        Rescue(u64),
    }

    /// Deterministic pseudo-residency: about a third of slots look
    /// TLB-resident, varying per selection attempt via the salt.
    fn resident(salt: u64) -> impl Fn(Cpn) -> bool {
        move |c: Cpn| (c.0.wrapping_mul(0x9E37_79B9) ^ salt).is_multiple_of(3)
    }

    fn replay(n: u64, policy: VictimPolicy) -> impl Fn(&[Op]) -> Result<(), String> {
        move |ops: &[Op]| {
            let mut flat = SlotRing::new(n, policy);
            let mut reference = RefSlotRing::new(n, policy);
            for (i, op) in ops.iter().enumerate() {
                let (a, b) = match *op {
                    Op::Allocate => (
                        format!("{:?}", flat.allocate()),
                        format!("{:?}", reference.allocate()),
                    ),
                    Op::Touch(c) => {
                        flat.touch(Cpn(c % n));
                        reference.touch(Cpn(c % n));
                        (String::new(), String::new())
                    }
                    Op::MarkDirty(c) => {
                        flat.mark_dirty(Cpn(c % n));
                        reference.mark_dirty(Cpn(c % n));
                        (String::new(), String::new())
                    }
                    Op::EnqueueVictim(salt) => (
                        format!("{:?}", flat.enqueue_victim(resident(salt))),
                        format!("{:?}", reference.enqueue_victim(resident(salt))),
                    ),
                    Op::PopEviction => (
                        format!("{:?}", flat.pop_eviction()),
                        format!("{:?}", reference.pop_eviction()),
                    ),
                    Op::Rescue(c) => (
                        format!("{:?}", flat.rescue(Cpn(c % n))),
                        format!("{:?}", reference.rescue(Cpn(c % n))),
                    ),
                };
                if a != b {
                    return Err(format!("step {i} {op:?}: result flat={a} ref={b}"));
                }
                let fa = (
                    flat.free_count(),
                    flat.occupancy(),
                    flat.pending_len(),
                    flat.rescues(),
                );
                let fb = (
                    reference.free_count(),
                    reference.occupancy(),
                    reference.pending_len(),
                    reference.rescues(),
                );
                if fa != fb {
                    return Err(format!(
                        "step {i} {op:?}: counters (free,occ,pending,rescues) flat={fa:?} ref={fb:?}"
                    ));
                }
                for c in 0..n {
                    if flat.is_live(Cpn(c)) != reference.is_live(Cpn(c)) {
                        return Err(format!(
                            "step {i} {op:?}: is_live({c}) flat={} ref={}",
                            flat.is_live(Cpn(c)),
                            reference.is_live(Cpn(c))
                        ));
                    }
                }
            }
            Ok(())
        }
    }

    /// Trace family 1: steady-state fill churn — the maintain_free
    /// shape (allocate until empty, evict, refill).
    fn churn_trace(rng: &mut XorShift64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| match rng.below(10) {
                0..=4 => Op::Allocate,
                5 | 6 => Op::EnqueueVictim(rng.next_u64()),
                7 => Op::PopEviction,
                8 => Op::MarkDirty(rng.next_u64()),
                _ => Op::Touch(rng.next_u64()),
            })
            .collect()
    }

    /// Trace family 2: rescue storm — pending evictions constantly
    /// pulled back by victim hits.
    fn rescue_trace(rng: &mut XorShift64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| match rng.below(10) {
                0 | 1 => Op::Allocate,
                2..=4 => Op::EnqueueVictim(rng.next_u64()),
                5..=7 => Op::Rescue(rng.next_u64()),
                _ => Op::PopEviction,
            })
            .collect()
    }

    /// Trace family 3: touch-dominant recency churn (LRU stress; also
    /// run under FIFO where touches must be pure no-ops).
    fn touchy_trace(rng: &mut XorShift64, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| match rng.below(10) {
                0 | 1 => Op::Allocate,
                2 => Op::EnqueueVictim(rng.next_u64()),
                3 => Op::PopEviction,
                4 => Op::Rescue(rng.next_u64()),
                _ => Op::Touch(rng.next_u64()),
            })
            .collect()
    }

    #[test]
    fn churn_family_matches_reference() {
        for policy in [VictimPolicy::Fifo, VictimPolicy::Lru] {
            for seed in 1..=3u64 {
                let mut rng = XorShift64::new(seed);
                let ops = churn_trace(&mut rng, 3000);
                for n in [1u64, 2, 8] {
                    assert_equiv("slots/churn", &ops, replay(n, policy));
                }
            }
        }
    }

    #[test]
    fn rescue_family_matches_reference() {
        for policy in [VictimPolicy::Fifo, VictimPolicy::Lru] {
            for seed in 10..=12u64 {
                let mut rng = XorShift64::new(seed);
                let ops = rescue_trace(&mut rng, 3000);
                for n in [2u64, 5] {
                    assert_equiv("slots/rescue", &ops, replay(n, policy));
                }
            }
        }
    }

    #[test]
    fn touchy_family_matches_reference() {
        for policy in [VictimPolicy::Fifo, VictimPolicy::Lru] {
            for seed in 20..=22u64 {
                let mut rng = XorShift64::new(seed);
                let ops = touchy_trace(&mut rng, 3000);
                for n in [3u64, 16] {
                    assert_equiv("slots/touchy", &ops, replay(n, policy));
                }
            }
        }
    }
}
