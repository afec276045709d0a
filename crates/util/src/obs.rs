//! The unified observability layer: log-scale histograms, wall-time
//! phase profiling, and pool telemetry.
//!
//! Everything here is host-side telemetry *about* a run, never input
//! *to* a run: simulated results depend only on the seed, and every
//! artifact this module produces is excluded from the byte-identity
//! determinism comparisons the same way `metrics.json` already is.
//!
//! * [`LogHistogram`] — a hand-rolled, std-only fixed-bucket log-scale
//!   histogram (no HDR dependency). 4 sub-buckets per power of two
//!   bound the relative error at 12.5%; merges are deterministic
//!   element-wise adds, so shard-merged summaries equal single-run
//!   summaries over the same samples.
//! * [`ProfProbe`] / [`ProfRecorder`] — the wall-time phase profiler
//!   behind `tdc prof`: a self-time span stack keyed by
//!   [`crate::probe::Phase`], fed through the [`Probe`] seam's
//!   `prof_enabled`/`phase_begin`/`phase_end` hooks (which stay
//!   monomorphized no-ops under [`crate::probe::NoProbe`]).
//! * [`PoolTelemetry`] — per-worker scheduler counters (tasks run
//!   split owned vs stolen, steal attempt/failure counts, busy/idle
//!   ns, source-slice depth samples, per-task spans) collected by
//!   [`crate::pool::run_tasks`] and rendered as a Perfetto
//!   track by [`pool_trace_json`]; serialized fields fixed by
//!   [`POOL_FIELDS`] and lint-pinned to DESIGN.md §16 (`schema-sync`
//!   rule).

use crate::json::Json;
use crate::probe::{Phase, Probe};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Instant; // tdc-lint: allow(time-source) host-side telemetry only

// ---------------------------------------------------------------------------
// Log-scale histogram
// ---------------------------------------------------------------------------

/// Number of fixed buckets in a [`LogHistogram`]: exact buckets for
/// values 0..8, then 4 sub-buckets per power of two up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 252;

/// Schema version stamped next to every serialized histogram summary.
pub const HIST_VERSION: u64 = 1;

/// Field names of a serialized histogram summary, in writer order.
/// Lint-pinned to the DESIGN.md §13 `histogram-summary` block.
pub const HIST_FIELDS: [&str; 7] = ["count", "sum", "min", "max", "p50", "p90", "p99"];

/// Maps a value to its bucket index. Values below 8 get exact
/// buckets; above that, each power of two splits into 4 sub-buckets.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // >= 3
        let sub = ((v >> (octave - 2)) & 3) as usize;
        (octave - 1) * 4 + sub
    }
}

/// Inclusive `(lo, hi)` value range of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 8 {
        (idx as u64, idx as u64)
    } else {
        let octave = idx / 4 + 1;
        let sub = (idx % 4) as u64;
        let step = 1u64 << (octave - 2);
        let lo = (1u64 << octave) + sub * step;
        (lo, lo + (step - 1)) // parenthesized: lo + step wraps in the top octave
    }
}

/// A fixed-size log-scale histogram of `u64` samples.
///
/// Deterministic by construction: recording the same multiset of
/// samples always yields the same buckets, and [`LogHistogram::merge`]
/// is an element-wise add, so merged summaries are independent of how
/// samples were partitioned across recorders.
///
/// ```
/// use tdc_util::obs::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.50);
/// assert!((448..=576).contains(&p50), "p50 {p50} off the log grid");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .finish()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` (element-wise; order-independent).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket upper bound, clamped
    /// to the recorded max; 0 when empty. `quantile(0.5)` is within
    /// 12.5% of the true median for values ≥ 8, exact below.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let (_, hi) = bucket_bounds(idx);
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// The summary object every artifact embeds: exactly the
    /// [`HIST_FIELDS`] keys, in order.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("min", Json::from(self.min())),
            ("max", Json::from(self.max)),
            ("p50", Json::from(self.quantile(0.50))),
            ("p90", Json::from(self.quantile(0.90))),
            ("p99", Json::from(self.quantile(0.99))),
        ])
    }
}

// ---------------------------------------------------------------------------
// Phase profiler
// ---------------------------------------------------------------------------

/// Accumulated self-time per [`Phase`], fed by a span stack.
///
/// Nested spans subtract: a [`Phase::Dram`] span opened inside a
/// [`Phase::Translation`] span charges the DRAM time to `dram` and
/// only the remainder to `translation`, so phase self-times sum to
/// the covered wall time exactly.
#[derive(Debug, Clone, Default)]
pub struct ProfRecorder {
    self_ns: [u64; Phase::COUNT],
    calls: [u64; Phase::COUNT],
    hist: [LogHistogram; Phase::COUNT],
    /// Open spans: `(phase, start, ns consumed by nested spans)`.
    stack: Vec<(Phase, Instant, u64)>, // tdc-lint: allow(time-source)
}

impl ProfRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span for `phase`.
    ///
    /// Profiling is opt-in diagnostics (`tdc prof`); the span stack's
    /// amortized growth is recorder overhead the report subtracts, not
    /// simulated work, so it sits outside the hot-path budget.
    // tdc-lint: cold
    pub fn begin(&mut self, phase: Phase) {
        self.stack.push((phase, Instant::now(), 0)); // tdc-lint: allow(time-source)
    }

    /// Closes the innermost span, which must be for `phase`.
    pub fn end(&mut self, phase: Phase) {
        let Some((opened, start, child_ns)) = self.stack.pop() else {
            debug_assert!(false, "phase_end({phase:?}) with no open span");
            return;
        };
        debug_assert!(
            opened == phase,
            "phase_end({phase:?}) closes an open {opened:?} span"
        );
        let full_ns = start.elapsed().as_nanos() as u64;
        self.record_span(opened, full_ns.saturating_sub(child_ns));
        if let Some(top) = self.stack.last_mut() {
            top.2 = top.2.saturating_add(full_ns);
        }
    }

    /// Directly credits `self_ns` of self-time to `phase`, as if a
    /// span of that length had closed with no children. Public so
    /// tests and golden files can build deterministic reports.
    pub fn record_span(&mut self, phase: Phase, self_ns: u64) {
        let i = phase.index();
        self.self_ns[i] += self_ns;
        self.calls[i] += 1;
        self.hist[i].record(self_ns);
    }

    /// Total self-time attributed to `phase`.
    pub fn self_ns(&self, phase: Phase) -> u64 {
        self.self_ns[phase.index()]
    }

    /// Number of spans closed for `phase`.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase.index()]
    }

    /// Distribution of per-span self-times for `phase`.
    pub fn histogram(&self, phase: Phase) -> &LogHistogram {
        &self.hist[phase.index()]
    }

    /// Sum of self-time over all phases: the covered wall time.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// The profiling probe: shares one [`ProfRecorder`] across every
/// simulator layer of a probed run, collecting wall-time phase spans
/// while leaving cycle-event recording off ([`Probe::enabled`] stays
/// `false`, so a profiled run's artifacts are byte-identical to an
/// unprobed run's).
///
/// Like [`crate::probe::SharedProbe`], deliberately `!Send`: a probed
/// run executes on one thread and all clones feed one recorder.
#[derive(Debug, Clone, Default)]
pub struct ProfProbe {
    inner: Rc<RefCell<ProfRecorder>>,
}

impl ProfProbe {
    /// A probe over a fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` against the shared recorder.
    pub fn with<R>(&self, f: impl FnOnce(&ProfRecorder) -> R) -> R {
        f(&self.inner.borrow())
    }

    /// Recovers the recorder: by move when this is the last clone,
    /// otherwise by clone.
    pub fn into_recorder(self) -> ProfRecorder {
        match Rc::try_unwrap(self.inner) {
            Ok(cell) => cell.into_inner(),
            Err(rc) => rc.borrow().clone(),
        }
    }
}

impl Probe for ProfProbe {
    #[inline]
    fn prof_enabled(&self) -> bool {
        true
    }

    #[inline]
    fn phase_begin(&mut self, phase: Phase) {
        self.inner.borrow_mut().begin(phase);
    }

    #[inline]
    fn phase_end(&mut self, phase: Phase) {
        self.inner.borrow_mut().end(phase);
    }
}

// ---------------------------------------------------------------------------
// Pool telemetry
// ---------------------------------------------------------------------------

/// Schema version stamped on every serialized pool-telemetry batch.
pub const POOL_VERSION: u64 = 1;

/// Field names of a serialized pool-telemetry batch (batch level plus
/// the per-worker objects), in writer order. Lint-pinned to the
/// DESIGN.md §16 `pool-telemetry` block (`schema-sync` rule).
pub const POOL_FIELDS: [&str; 11] = [
    "format_version",
    "wall_ns",
    "queue_depth",
    "workers",
    "tasks",
    "busy_ns",
    "idle_ns",
    "owned",
    "stolen",
    "steal_attempts",
    "steal_failures",
];

/// Per-worker counters from one [`crate::pool::run_tasks`] batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Tasks this worker completed (`owned + stolen`).
    pub tasks: u64,
    /// Nanoseconds spent inside task closures, clamped to the batch
    /// wall time so `busy_ns + idle_ns == wall_ns` by construction.
    pub busy_ns: u64,
    /// Pool wall time minus busy time: time this worker sat idle or
    /// hunting for work (startup skew, the steal pass, straggler tail).
    pub idle_ns: u64,
    /// Tasks claimed from this worker's own home slice.
    pub owned: u64,
    /// Tasks claimed from other workers' slices.
    pub stolen: u64,
    /// Steal attempts made (successful or not).
    pub steal_attempts: u64,
    /// Steal attempts that found the probed slice dry. A claim cannot
    /// lose a race, and one pass probes each other slice until it is
    /// dry, so every worker records exactly one per other worker.
    pub steal_failures: u64,
}

/// One task's execution window, for the Perfetto pool track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// Worker that ran the task.
    pub worker: usize,
    /// Task index in input order.
    pub index: usize,
    /// Start offset from pool launch, ns.
    pub start_ns: u64,
    /// Task duration, ns.
    pub dur_ns: u64,
    /// Whether the task was stolen rather than claimed from the running
    /// worker's own slice.
    pub stolen: bool,
}

/// Scheduler telemetry for one worker-pool batch.
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerTelemetry>,
    /// Every task's execution window, sorted by `(start_ns, index)`.
    pub spans: Vec<TaskSpan>,
    /// Samples of the source slice's remaining depth, taken at each
    /// successful claim (the unclaimed indices left behind the claimed
    /// one in its home slice, whether the claim was owned or stolen).
    pub queue_depth: LogHistogram,
    /// Wall time of the whole batch, ns.
    pub wall_ns: u64,
}

impl PoolTelemetry {
    /// The `metrics.json` fragment for this batch: exactly the
    /// [`POOL_FIELDS`] keys — wall time, a queue-depth histogram
    /// summary, and per-worker scheduler counters.
    pub fn metrics_json(&self) -> Json {
        Json::obj([
            ("format_version", Json::from(POOL_VERSION)),
            ("wall_ns", Json::from(self.wall_ns)),
            ("queue_depth", self.queue_depth.summary_json()),
            (
                "workers",
                Json::arr(self.workers.iter().map(|w| {
                    Json::obj([
                        ("tasks", Json::from(w.tasks)),
                        ("busy_ns", Json::from(w.busy_ns)),
                        ("idle_ns", Json::from(w.idle_ns)),
                        ("owned", Json::from(w.owned)),
                        ("stolen", Json::from(w.stolen)),
                        ("steal_attempts", Json::from(w.steal_attempts)),
                        ("steal_failures", Json::from(w.steal_failures)),
                    ])
                })),
            ),
        ])
    }
}

/// Renders pool batches as a Chrome trace-event document: one process
/// per batch, one thread per worker, one duration slice per task
/// (named by the caller-supplied label for that task index). Each
/// slice's `args.stolen` marks whether the task was stolen, so steal
/// migration reads directly off the track in the Perfetto UI.
pub fn pool_trace_json(batches: &[(PoolTelemetry, Vec<String>)]) -> Json {
    let mut events = Vec::new();
    for (b, (telemetry, labels)) in batches.iter().enumerate() {
        let pid = b as u64 + 1;
        events.push(Json::obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(0u64)),
            (
                "args",
                Json::obj([("name", Json::from(format!("tdc pool batch {pid}")))]),
            ),
        ]));
        for w in 0..telemetry.workers.len() {
            events.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(pid)),
                ("tid", Json::from(w as u64 + 1)),
                ("args", Json::obj([("name", Json::from(format!("worker{w}")))])),
            ]));
        }
        for span in &telemetry.spans {
            let name = labels
                .get(span.index)
                .cloned()
                .unwrap_or_else(|| format!("task-{}", span.index));
            events.push(Json::obj([
                ("name", Json::from(name)),
                ("ph", Json::from("X")),
                ("pid", Json::from(pid)),
                ("tid", Json::from(span.worker as u64 + 1)),
                ("ts", Json::from(span.start_ns / 1_000)),
                ("dur", Json::from((span.dur_ns / 1_000).max(1))),
                ("args", Json::obj([("stolen", Json::from(span.stolen))])),
            ]));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_eight() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotonic() {
        // Every bucket's range starts right after the previous one's.
        let mut expected_lo = 0u64;
        for idx in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "bucket {idx} lo");
            assert!(hi >= lo, "bucket {idx} empty");
            if idx + 1 < HIST_BUCKETS {
                expected_lo = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX, "last bucket must reach u64::MAX");
            }
        }
    }

    #[test]
    fn bucket_index_matches_bounds() {
        let probes = [
            0, 1, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1025, 1 << 20,
            (1 << 20) + 123, u64::MAX / 2, u64::MAX - 1, u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                (lo..=hi).contains(&v),
                "v={v} -> bucket {idx} [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / lower bound <= 1/4 for v >= 8, so quantile
        // answers are within 12.5% of a true sample value above the
        // exact range.
        for idx in 8..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            let width = hi - lo + 1;
            assert!(width * 4 <= lo, "bucket {idx} [{lo}, {hi}] too wide");
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = LogHistogram::new();
        h.record(5);
        assert_eq!(h.quantile(0.0), 5);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 5);
        let mut big = LogHistogram::new();
        big.record(1_000_000);
        // One sample: every quantile is clamped to the recorded max.
        assert_eq!(big.quantile(0.5), 1_000_000);
    }

    #[test]
    fn quantiles_bracket_true_values() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, truth) in [(0.50, 5_000u64), (0.90, 9_000), (0.99, 9_900)] {
            let got = h.quantile(q);
            let err = got.abs_diff(truth) as f64 / truth as f64;
            assert!(err <= 0.125, "q={q}: got {got}, truth {truth}");
        }
    }

    #[test]
    fn merge_equals_single_recorder() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in 0..5_000u64 {
            let sample = v.wrapping_mul(2_654_435_761) % 1_000_000;
            if v % 2 == 0 {
                a.record(sample);
            } else {
                b.record(sample);
            }
            whole.record(sample);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        // Merge the other way round: same result.
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(flipped, whole);
    }

    #[test]
    fn summary_json_has_exactly_the_documented_fields() {
        let mut h = LogHistogram::new();
        h.record(42);
        let text = h.summary_json().to_compact();
        let parsed = Json::parse(&text).expect("summary parses");
        for field in HIST_FIELDS {
            assert!(parsed.get(field).is_some(), "missing {field}");
        }
        let Json::Obj(pairs) = parsed else {
            panic!("summary is not an object")
        };
        assert_eq!(pairs.len(), HIST_FIELDS.len());
    }

    #[test]
    fn prof_recorder_subtracts_nested_spans() {
        use std::thread::sleep;
        use std::time::Duration;
        let mut rec = ProfRecorder::new();
        rec.begin(Phase::Bookkeeping);
        rec.begin(Phase::Dram);
        sleep(Duration::from_millis(5));
        rec.end(Phase::Dram);
        rec.end(Phase::Bookkeeping);
        let dram = rec.self_ns(Phase::Dram);
        assert!(dram >= 4_000_000, "dram span too short: {dram}");
        // The parent's self time excludes the nested 5ms.
        assert!(
            rec.self_ns(Phase::Bookkeeping) < dram,
            "nested time was double-counted"
        );
        assert_eq!(rec.calls(Phase::Dram), 1);
        assert_eq!(rec.calls(Phase::Bookkeeping), 1);
        assert_eq!(
            rec.attributed_ns(),
            rec.self_ns(Phase::Dram) + rec.self_ns(Phase::Bookkeeping)
        );
    }

    #[test]
    fn prof_probe_shares_one_recorder_across_clones() {
        let probe = ProfProbe::new();
        let mut a = probe.clone();
        let mut b = probe.clone();
        assert!(a.prof_enabled());
        assert!(!a.enabled(), "ProfProbe must not record cycle events");
        a.phase_begin(Phase::Ctlb);
        a.phase_end(Phase::Ctlb);
        b.phase_begin(Phase::Gipt);
        b.phase_end(Phase::Gipt);
        let rec = probe.into_recorder();
        assert_eq!(rec.calls(Phase::Ctlb), 1);
        assert_eq!(rec.calls(Phase::Gipt), 1);
    }

    #[test]
    fn record_span_feeds_deterministic_reports() {
        let mut rec = ProfRecorder::new();
        rec.record_span(Phase::Translation, 1_000);
        rec.record_span(Phase::Translation, 3_000);
        assert_eq!(rec.self_ns(Phase::Translation), 4_000);
        assert_eq!(rec.calls(Phase::Translation), 2);
        assert_eq!(rec.histogram(Phase::Translation).count(), 2);
        assert_eq!(rec.attributed_ns(), 4_000);
    }

    #[test]
    fn pool_trace_json_names_tasks_by_label() {
        let telemetry = PoolTelemetry {
            workers: vec![WorkerTelemetry::default(); 2],
            spans: vec![
                TaskSpan { worker: 0, index: 0, start_ns: 0, dur_ns: 2_000, stolen: false },
                TaskSpan { worker: 1, index: 1, start_ns: 500, dur_ns: 1_000, stolen: true },
            ],
            queue_depth: LogHistogram::new(),
            wall_ns: 2_000,
        };
        let labels = vec!["fig1/mcf".to_string(), "fig2/milc".to_string()];
        let doc = pool_trace_json(&[(telemetry, labels)]);
        let text = doc.to_compact();
        assert!(text.contains("\"fig1/mcf\""));
        assert!(text.contains("\"fig2/milc\""));
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("\"worker1\""));
        assert!(text.contains("\"stolen\":true"), "steal attribution missing");
        assert!(text.contains("\"stolen\":false"));
    }

    #[test]
    fn pool_metrics_json_has_exactly_the_documented_fields() {
        let telemetry = PoolTelemetry {
            workers: vec![WorkerTelemetry {
                tasks: 3,
                busy_ns: 10,
                idle_ns: 2,
                owned: 2,
                stolen: 1,
                steal_attempts: 4,
                steal_failures: 3,
            }],
            spans: Vec::new(),
            queue_depth: LogHistogram::new(),
            wall_ns: 12,
        };
        let parsed = Json::parse(&telemetry.metrics_json().to_compact()).expect("parses");
        assert_eq!(
            parsed.get("format_version").and_then(Json::as_u64),
            Some(POOL_VERSION)
        );
        // Every documented field appears at the batch or worker level.
        let worker = match parsed.get("workers") {
            Some(Json::Arr(ws)) => ws[0].clone(),
            other => panic!("workers not an array: {other:?}"),
        };
        for field in POOL_FIELDS {
            assert!(
                parsed.get(field).is_some() || worker.get(field).is_some(),
                "documented field {field} missing from pool metrics"
            );
        }
        let Json::Obj(worker_pairs) = &worker else {
            panic!("worker entry is not an object")
        };
        // Batch level: format_version, wall_ns, queue_depth, workers.
        let Json::Obj(batch_pairs) = &parsed else {
            panic!("batch is not an object")
        };
        assert_eq!(batch_pairs.len() + worker_pairs.len(), POOL_FIELDS.len());
    }
}
