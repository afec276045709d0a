//! Randomized tests of the slot ring / free queue state machine:
//! random interleavings of allocate / touch / enqueue / pop / rescue
//! must never corrupt occupancy accounting or lose slots. Driven by the
//! workspace's deterministic PCG32 (no proptest; offline build).

use std::collections::BTreeSet;
use tdc_dram_cache::{SlotRing, VictimPolicy};
use tdc_util::{Cpn, Pcg32, Rng};

#[derive(Debug, Clone)]
enum Op {
    Allocate,
    Touch(u64),
    MarkDirty(u64),
    EnqueueVictim,
    PopEviction,
    Rescue(u64),
}

/// Draws one op with the same 3:2:1:2:2:1 weighting the proptest
/// strategy used.
fn draw_op(rng: &mut Pcg32) -> Op {
    match rng.gen_range(11) {
        0..=2 => Op::Allocate,
        3 | 4 => Op::Touch(rng.gen_range(1024)),
        5 => Op::MarkDirty(rng.gen_range(1024)),
        6 | 7 => Op::EnqueueVictim,
        8 | 9 => Op::PopEviction,
        _ => Op::Rescue(rng.gen_range(1024)),
    }
}

fn policies() -> [VictimPolicy; 2] {
    [VictimPolicy::Fifo, VictimPolicy::Lru]
}

#[test]
fn slot_ring_state_machine_is_consistent() {
    for case in 0..128u64 {
        let mut rng = Pcg32::seed_from_u64(0x736c6f74 ^ case);
        let policy = policies()[rng.gen_range(2) as usize];
        let slots = 2 + rng.gen_range(30);
        let n_ops = 1 + rng.gen_range(199) as usize;
        let mut ring = SlotRing::new(slots, policy);
        let mut live: BTreeSet<Cpn> = BTreeSet::new();
        for _ in 0..n_ops {
            match draw_op(&mut rng) {
                Op::Allocate => {
                    if let Some(c) = ring.allocate() {
                        assert!(live.insert(c), "allocated a live slot {c:?}");
                    }
                }
                Op::Touch(i) => ring.touch(Cpn(i % slots)),
                Op::MarkDirty(i) => ring.mark_dirty(Cpn(i % slots)),
                Op::EnqueueVictim => {
                    let _ = ring.enqueue_victim(|_| false);
                }
                Op::PopEviction => {
                    if let Some((c, _dirty)) = ring.pop_eviction() {
                        assert!(live.remove(&c), "evicted a non-live slot {c:?}");
                    }
                }
                Op::Rescue(i) => {
                    let _ = ring.rescue(Cpn(i % slots));
                }
            }
            // Invariants after every step.
            assert_eq!(ring.occupancy() + ring.free_count(), slots);
            assert_eq!(ring.occupancy(), live.len() as u64);
            assert!(ring.pending_len() <= ring.occupancy());
        }
    }
}

#[test]
fn allocate_evict_cycles_never_lose_slots() {
    for case in 0..64u64 {
        let mut rng = Pcg32::seed_from_u64(0x6379636c ^ case);
        let policy = policies()[rng.gen_range(2) as usize];
        let slots = 1 + rng.gen_range(63);
        let rounds = 1 + rng.gen_range(499) as usize;
        let mut ring = SlotRing::new(slots, policy);
        for round in 0..rounds {
            if ring.free_count() == 0 {
                let selected = ring.enqueue_victim(|_| false);
                assert!(selected.is_some(), "full ring must have a victim");
                let popped = ring.pop_eviction();
                assert!(popped.is_some(), "queued victim must pop");
            }
            let c = ring.allocate();
            assert!(c.is_some(), "round {round}: allocation failed");
            if round % 3 == 0 {
                ring.touch(c.expect("checked above"));
            }
        }
        assert_eq!(ring.occupancy() + ring.free_count(), slots);
    }
}

#[test]
fn rescue_is_idempotent_and_safe() {
    for case in 0..64u64 {
        let mut rng = Pcg32::seed_from_u64(0x72657363 ^ case);
        let slots = 2 + rng.gen_range(14);
        let n = 1 + rng.gen_range(15);
        let mut ring = SlotRing::new(slots, VictimPolicy::Fifo);
        for _ in 0..slots.min(n) {
            ring.allocate();
        }
        if let Some(v) = ring.enqueue_victim(|_| false) {
            assert!(ring.rescue(v));
            assert!(!ring.rescue(v), "second rescue must be a no-op");
            assert_eq!(ring.pop_eviction(), None);
            assert!(ring.is_live(v));
        }
        assert_eq!(ring.occupancy() + ring.free_count(), slots);
    }
}
