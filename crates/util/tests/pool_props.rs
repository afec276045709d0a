//! Property suite for the slice-stealing scheduler (DESIGN.md §16).
//!
//! Layers, smallest to largest: a concurrent exactly-once claim stress
//! on one [`SliceCursor`] shared by an owner and several thieves, the
//! telemetry's attribution over skewed workloads at several sizes and
//! worker counts, the pool's degenerate schedules (one worker,
//! oversubscription, empty input), and the cross-jobs determinism pin:
//! `run_tasks` over a skewed workload must return byte-identical
//! results for jobs ∈ {1, 4, 16}.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Barrier;
use tdc_util::pool::{run_tasks, SliceCursor};

/// Spins `cost` rounds of an LCG seeded by `i`, so task costs are real
/// CPU work and the result depends on both inputs.
fn spin(i: usize, cost: u64) -> u64 {
    let mut acc = i as u64;
    for k in 0..cost {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k ^ cost);
    }
    acc
}

#[test]
fn slice_cursor_hands_each_index_to_exactly_one_claimant() {
    // The owner and its thieves run the same claim; a barrier releases
    // them together so the claims genuinely race on one cursor.
    for &(n, thieves) in &[(64usize, 7usize), (1000, 3), (5000, 2)] {
        let base = 17;
        let cursor = SliceCursor::new(base..base + n);
        let claims: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        let start = Barrier::new(thieves + 1);
        std::thread::scope(|scope| {
            for _ in 0..=thieves {
                scope.spawn(|| {
                    start.wait();
                    while let Some(i) = cursor.claim() {
                        claims[i - base].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for (i, c) in claims.iter().enumerate() {
            let count = c.load(Ordering::Relaxed);
            assert_eq!(
                count,
                1,
                "index {}: {count} claims (n={n}, thieves={thieves})",
                base + i
            );
        }
        assert_eq!(cursor.claim(), None, "a drained slice stays dry");
    }
}

#[test]
fn telemetry_attributes_every_task_on_skewed_workloads() {
    for &(n, jobs) in &[(1usize, 1usize), (7, 2), (64, 4), (97, 16), (500, 3)] {
        // Boulders on a stride, pebbles elsewhere: workers whose home
        // slices hold fewer boulders drain early and steal.
        let costs: Vec<u64> = (0..n as u64)
            .map(|i| if i % 13 == 0 { 20_000 } else { 50 })
            .collect();
        let (out, t) = run_tasks(&costs, jobs, |i, &cost| spin(i, cost));
        let ctx = format!("n={n} jobs={jobs}");
        let want: Vec<u64> = costs.iter().enumerate().map(|(i, &c)| spin(i, c)).collect();
        assert_eq!(out, want, "{ctx}: results out of input order");

        let k = jobs.min(n);
        assert_eq!(t.workers.len(), k, "{ctx}");
        let mut seen = vec![0u32; n];
        for s in &t.spans {
            seen[s.index] += 1;
            let home = s.worker * n / k..(s.worker + 1) * n / k;
            assert_eq!(
                s.stolen,
                !home.contains(&s.index),
                "{ctx}: span {} on worker {} misattributed",
                s.index,
                s.worker
            );
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "{ctx}: an index is not in exactly one span"
        );
        assert_eq!(
            t.workers.iter().map(|w| w.tasks).sum::<u64>(),
            n as u64,
            "{ctx}"
        );
        assert_eq!(t.queue_depth.count(), n as u64, "{ctx}");
        for (id, w) in t.workers.iter().enumerate() {
            assert_eq!(w.owned + w.stolen, w.tasks, "{ctx}: worker {id}");
            assert!(w.steal_failures <= w.steal_attempts, "{ctx}: worker {id}");
            // One pass: every other slice is probed until found dry once.
            assert_eq!(w.steal_failures, k as u64 - 1, "{ctx}: worker {id}");
            assert_eq!(
                w.steal_attempts,
                w.stolen + w.steal_failures,
                "{ctx}: worker {id}"
            );
            assert_eq!(w.busy_ns + w.idle_ns, t.wall_ns, "{ctx}: worker {id}");
            let stolen_spans = t
                .spans
                .iter()
                .filter(|s| s.worker == id && s.stolen)
                .count();
            assert_eq!(stolen_spans as u64, w.stolen, "{ctx}: worker {id}");
        }
    }
}

#[test]
fn one_worker_degenerate_case_never_steals() {
    let items: Vec<u64> = (0..40).collect();
    let (out, telemetry) = run_tasks(&items, 1, |i, &x| x + i as u64);
    assert_eq!(out, (0..40).map(|x| x * 2).collect::<Vec<_>>());
    assert_eq!(telemetry.workers.len(), 1);
    let w = &telemetry.workers[0];
    assert_eq!((w.owned, w.stolen), (40, 0));
    assert_eq!((w.steal_attempts, w.steal_failures), (0, 0));
    assert_eq!(w.busy_ns + w.idle_ns, telemetry.wall_ns);
}

#[test]
fn oversubscription_clamps_worker_count() {
    let items = [10u32, 20, 30];
    let (out, telemetry) = run_tasks(&items, 64, |_, &x| x / 10);
    assert_eq!(out, vec![1, 2, 3]);
    // Clamped to one worker per item; every task still runs once.
    assert_eq!(telemetry.workers.len(), 3);
    let tasks: u64 = telemetry.workers.iter().map(|w| w.tasks).sum();
    assert_eq!(tasks, 3);
}

#[test]
fn empty_input_produces_no_workers_and_no_spans() {
    let none: Vec<u64> = Vec::new();
    let (out, telemetry) = run_tasks(&none, 8, |_, &x| x);
    assert!(out.is_empty());
    assert!(telemetry.workers.is_empty());
    assert!(telemetry.spans.is_empty());
    assert_eq!(telemetry.queue_depth.count(), 0);
}

#[test]
fn cross_jobs_results_are_byte_identical_on_a_skewed_workload() {
    // Heterogeneous task costs clustered on a stride, mimicking the
    // figure-batch shape that motivates stealing: some workers' home
    // slices drain early and finish the batch off stolen tasks.
    let items: Vec<u64> = (0..96)
        .map(|i| if i % 17 == 0 { 40_000 } else { 100 + i })
        .collect();
    let work = |i: usize, &cost: &u64| format!("{i}:{:016x}", spin(i, cost));
    let (baseline, _) = run_tasks(&items, 1, work);
    let baseline_bytes = baseline.join("\n").into_bytes();
    for jobs in [4usize, 16] {
        let (out, telemetry) = run_tasks(&items, jobs, work);
        assert_eq!(
            out.join("\n").into_bytes(),
            baseline_bytes,
            "jobs={jobs} diverged from jobs=1"
        );
        assert_eq!(telemetry.workers.len(), jobs);
    }
}
