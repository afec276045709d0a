//! A std-only generic worker pool with a slice-stealing scheduler.
//!
//! [`run_tasks`] executes one closure call per input item across a fixed
//! number of OS threads and returns the results **in input order**,
//! together with the batch's scheduler telemetry. It is the shared
//! scheduler behind `tdc-harness`'s experiment batches and
//! `tdc-lint`'s parallel file scan.
//!
//! Scheduling (DESIGN.md §16): worker `w` of `k` owns the contiguous
//! index slice `w·n/k .. (w+1)·n/k`, held as one [`SliceCursor`] that
//! its owner and any thief advance with the same `fetch_add`. A worker
//! drains its own slice, then makes one pass over the other slices in a
//! seeded deterministic rotation, draining each in turn, so a
//! straggler's leftover tasks migrate to whichever cores fall idle.
//! Slices only drain, so one pass ends the worker. The whole structure
//! is one atomic per worker and no `unsafe`.
//!
//! Scheduling order must be irrelevant to results: each call should be a
//! pure function of its item (and index). Every worker returns its
//! `(index, result)` pairs through its join handle and they are scattered
//! by index after the scope, so outputs are bit-identical whether the
//! batch runs on one thread or sixteen and regardless of which worker
//! stole what.
//!
//! The telemetry ([`crate::obs::PoolTelemetry`] — tasks run split into
//! owned vs stolen, steal attempt/failure counters, busy/idle ns,
//! source-slice depth samples, per-task spans) feeds
//! `results/metrics.json` and the Perfetto pool track. It is about the
//! schedule, never an input to any task, so result determinism is
//! unaffected; callers that do not need it ignore it.

use crate::obs::{LogHistogram, PoolTelemetry, TaskSpan, WorkerTelemetry};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant; // tdc-lint: allow(time-source) schedule telemetry only

/// A contiguous range of task indices claimed front to back by any
/// number of threads.
///
/// Owner and thieves claim alike, with one `fetch_add` on the cursor, so
/// a claim cannot lose a race and each index in the range is handed out
/// exactly once. A claim past the end returns `None` and the range stays
/// dry: nothing is ever pushed back.
#[derive(Debug)]
pub struct SliceCursor {
    /// Next unclaimed index; runs past `end` by one per dry probe.
    next: AtomicUsize,
    end: usize,
}

impl SliceCursor {
    /// A cursor over `range`, every index still unclaimed.
    pub fn new(range: Range<usize>) -> Self {
        Self {
            next: AtomicUsize::new(range.start),
            end: range.end,
        }
    }

    /// Claims the next index, or `None` once the range is drained (for
    /// good). `Relaxed` suffices: the index publishes no other data, and
    /// read-modify-writes of one atomic never hand out a value twice.
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }
}

/// Deterministic starting offset of worker `me`'s victim rotation
/// (SplitMix64 finalizer over the worker id — seeded, not random).
fn rotation_start(me: usize, threads: usize) -> usize {
    let mut z = (me as u64) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % threads as u64) as usize
}

/// What one worker hands back through its join handle.
struct WorkerLog<R> {
    results: Vec<(usize, R)>,
    /// `tasks`, the `busy_ns` clamp and `idle_ns` are settled after the
    /// join.
    counters: WorkerTelemetry,
    spans: Vec<TaskSpan>,
    depth: LogHistogram,
}

/// Runs `work(index, &items[index])` for every item on `threads` worker
/// threads and returns the results in input order plus the batch's
/// scheduler telemetry.
///
/// `threads` is clamped to `1..=items.len()`. Per worker the telemetry
/// attributes each task as owned or stolen, counts steal attempts and
/// the dry probes among them, samples the source slice's remaining depth
/// at each claim, and records one span per task. `busy_ns` is clamped to
/// the batch wall time and `idle_ns` is the remainder, so `busy + idle
/// == wall` holds by construction and straggler tails read directly off
/// `idle_ns`. A panic in `work` is resumed on the calling thread.
pub fn run_tasks<T, R, F>(items: &[T], threads: usize, work: F) -> (Vec<R>, PoolTelemetry)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let total = items.len();
    if total == 0 {
        return (Vec::new(), PoolTelemetry::default());
    }
    let threads = threads.clamp(1, total);
    let slices: Vec<SliceCursor> = (0..threads)
        .map(|w| SliceCursor::new(w * total / threads..(w + 1) * total / threads))
        .collect();
    let launch = Instant::now(); // tdc-lint: allow(time-source)

    let logs: Vec<WorkerLog<R>> = std::thread::scope(|scope| {
        let (work, slices) = (&work, &slices);
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                scope.spawn(move || {
                    let mut log = WorkerLog {
                        results: Vec::new(),
                        counters: WorkerTelemetry::default(),
                        spans: Vec::new(),
                        depth: LogHistogram::new(),
                    };
                    // Own slice first, then every other slice once.
                    let start = rotation_start(me, threads);
                    let victims = (0..threads)
                        .map(|step| (start + step) % threads)
                        .filter(|&v| v != me);
                    for source in std::iter::once(me).chain(victims) {
                        let stolen = source != me;
                        loop {
                            log.counters.steal_attempts += u64::from(stolen);
                            let Some(i) = slices[source].claim() else {
                                log.counters.steal_failures += u64::from(stolen);
                                break;
                            };
                            let begin = Instant::now(); // tdc-lint: allow(time-source)
                            let result = work(i, &items[i]);
                            let dur_ns = begin.elapsed().as_nanos() as u64;
                            log.results.push((i, result));
                            if stolen {
                                log.counters.stolen += 1;
                            } else {
                                log.counters.owned += 1;
                            }
                            log.counters.busy_ns += dur_ns;
                            log.depth.record((slices[source].end - 1 - i) as u64);
                            log.spans.push(TaskSpan {
                                worker: me,
                                index: i,
                                start_ns: begin.duration_since(launch).as_nanos() as u64,
                                dur_ns,
                                stolen,
                            });
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let wall_ns = launch.elapsed().as_nanos() as u64;
    let mut telemetry = PoolTelemetry {
        wall_ns,
        ..PoolTelemetry::default()
    };
    let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    for log in logs {
        for (i, result) in log.results {
            slots[i] = Some(result);
        }
        // Clamp so `busy + idle == wall` holds exactly: per-task timer
        // reads can sum past the single wall read on a loaded host.
        let busy_ns = log.counters.busy_ns.min(wall_ns);
        telemetry.workers.push(WorkerTelemetry {
            tasks: log.counters.owned + log.counters.stolen,
            busy_ns,
            idle_ns: wall_ns - busy_ns,
            ..log.counters
        });
        telemetry.queue_depth.merge(&log.depth);
        telemetry.spans.extend(log.spans);
    }
    telemetry.spans.sort_by_key(|s| (s.start_ns, s.index));
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect();
    (results, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let (out, _) = run_tasks(&items, 7, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out.len(), 100);
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn non_copy_results_move_out_cleanly() {
        let items = vec!["a", "bb", "ccc"];
        let (out, _) = run_tasks(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:bb", "2:ccc"]);
    }

    #[test]
    fn slice_cursor_claims_its_range_in_order_then_stays_dry() {
        let cursor = SliceCursor::new(3..7);
        let claimed: Vec<usize> = std::iter::from_fn(|| cursor.claim()).collect();
        assert_eq!(claimed, vec![3, 4, 5, 6]);
        assert_eq!(cursor.claim(), None);
        assert_eq!(SliceCursor::new(5..5).claim(), None);
    }
}
