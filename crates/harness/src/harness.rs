//! The orchestrator: cache-aware parallel execution of job sets.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tdc_core::experiment::Job;
use tdc_core::{RunConfig, RunReport};

use crate::cache::ResultCache;
use crate::pool;

/// Aggregate execution counters (observability; not part of the
/// deterministic artifacts).
#[derive(Debug, Default, Clone, Copy)]
pub struct HarnessStats {
    /// Jobs requested through [`Harness::run_all`] (before dedup).
    pub requested: usize,
    /// Cells actually simulated (cache misses).
    pub executed: usize,
    /// Requests satisfied from the cache.
    pub cache_hits: usize,
    /// Summed per-job wall-clock time (CPU work, all threads).
    pub busy: Duration,
}

/// Runs sets of [`Job`]s through a worker pool with a shared result
/// cache. One `Harness` typically lives for a whole `tdc` invocation so
/// baselines computed for one figure are reused by every later figure.
pub struct Harness {
    /// The standard configuration figures derive their jobs from.
    pub cfg: RunConfig,
    threads: usize,
    verbose: bool,
    cache: ResultCache,
    requested: AtomicUsize,
    executed: AtomicUsize,
    hits: AtomicUsize,
    busy_ns: AtomicU64,
    timings: Mutex<Vec<(String, f64)>>,
    pools: Mutex<Vec<(tdc_util::obs::PoolTelemetry, Vec<String>)>>,
}

impl Harness {
    /// A harness over `cfg` running up to `threads` jobs concurrently.
    pub fn new(cfg: RunConfig, threads: usize) -> Self {
        Self {
            cfg,
            threads: threads.max(1),
            verbose: false,
            cache: ResultCache::new(),
            requested: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
            timings: Mutex::new(Vec::new()),
            pools: Mutex::new(Vec::new()),
        }
    }

    /// Enables per-job progress lines on stderr.
    pub fn verbose(mut self, on: bool) -> Self {
        self.verbose = on;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execution counters so far.
    pub fn stats(&self) -> HarnessStats {
        HarnessStats {
            requested: self.requested.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
        }
    }

    /// The cached results accumulated so far, sorted by cache key.
    pub fn results(&self) -> Vec<(String, Arc<RunReport>)> {
        self.cache.snapshot()
    }

    /// Seeds the cache with an already-computed report, as if the job
    /// with `key` had just run. `tdc --cache-dir` uses this to warm-start
    /// a harness from the result store ([`crate::store`]) so stored
    /// cells are cache hits; callers must only preload reports the
    /// keyed job would itself have produced, or the determinism
    /// contract breaks.
    pub fn preload(&self, key: String, report: RunReport) -> Arc<RunReport> {
        self.cache.insert(key, report)
    }

    /// Per-job wall-clock timings of every cell simulated so far, as
    /// `(label, seconds)` sorted by label. Timing data feeds
    /// `results/metrics.json` — the one artifact that is deliberately
    /// *not* deterministic.
    pub fn timings(&self) -> Vec<(String, f64)> {
        let mut t = self.timings.lock().expect("timings lock").clone();
        t.sort_by(|a, b| a.0.cmp(&b.0));
        t
    }

    /// Scheduler telemetry of every worker-pool batch run so far, with
    /// the job labels of that batch (indexed by task order). Like the
    /// timings, this is wall-clock telemetry for `results/metrics.json`
    /// and the Perfetto pool track — excluded from determinism checks.
    pub fn pool_batches(&self) -> Vec<(tdc_util::obs::PoolTelemetry, Vec<String>)> {
        self.pools.lock().expect("pools lock").clone()
    }

    /// Runs every job in `jobs`, returning reports in input order.
    ///
    /// Cells already in the cache are returned immediately; the distinct
    /// missing cells run on the worker pool and are cached. Results are
    /// independent of the thread count and of any previous `run_all`
    /// call history (the cache only ever stores what the cell itself
    /// deterministically produces).
    ///
    /// # Panics
    ///
    /// Panics if a job names an unknown workload — figure code
    /// enumerates known names, and the CLI validates user input before
    /// building jobs.
    pub fn run_all(&self, jobs: &[Job]) -> Vec<Arc<RunReport>> {
        self.requested.fetch_add(jobs.len(), Ordering::Relaxed);
        let keys: Vec<String> = jobs.iter().map(Job::cache_key).collect();

        // Distinct cells not yet cached, in first-appearance order.
        let mut missing: Vec<(String, Job)> = Vec::new();
        for (key, job) in keys.iter().zip(jobs) {
            if self.cache.get(key).is_none()
                && !missing.iter().any(|(k, _)| k == key)
            {
                missing.push((key.clone(), job.clone()));
            }
        }
        self.hits
            .fetch_add(jobs.len() - missing.len(), Ordering::Relaxed);

        if !missing.is_empty() {
            let batch: Vec<Job> = missing.iter().map(|(_, j)| j.clone()).collect();
            let verbose = self.verbose;
            let (completed, telemetry) =
                pool::run_batch(&batch, self.threads, &|done, total, label, took| {
                    if verbose {
                        eprintln!("[{done:>4}/{total}] {label:<40} {:>8.2}s", took.as_secs_f64());
                    }
                });
            let labels: Vec<String> = batch.iter().map(Job::label).collect();
            self.pools
                .lock()
                .expect("pools lock")
                .push((telemetry, labels));
            self.executed.fetch_add(completed.len(), Ordering::Relaxed);
            for ((key, job), done) in missing.into_iter().zip(completed) {
                self.busy_ns
                    .fetch_add(done.elapsed.as_nanos() as u64, Ordering::Relaxed);
                self.timings
                    .lock()
                    .expect("timings lock")
                    .push((job.label(), done.elapsed.as_secs_f64()));
                let report = done
                    .result
                    .unwrap_or_else(|e| panic!("job {} failed: {e}", job.label()));
                self.cache.insert(key, report);
            }
        }

        keys.iter()
            .map(|k| self.cache.get(k).expect("just inserted"))
            .collect()
    }

    /// Convenience: runs one job.
    pub fn run(&self, job: Job) -> Arc<RunReport> {
        self.run_all(std::slice::from_ref(&job)).pop().expect("one job in, one out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_core::experiment::{OrgKind, Workload};

    fn tiny() -> RunConfig {
        RunConfig {
            seed: 5,
            cache_bytes: 64 << 20,
            warmup_refs: 1_000,
            measured_refs: 3_000,
        }
    }

    fn spec(bench: &str, org: OrgKind, cfg: RunConfig) -> Job {
        Job::new(Workload::Spec(bench.to_string()), org, cfg)
    }

    #[test]
    fn cache_shares_cells_across_run_all_calls() {
        let h = Harness::new(tiny(), 2);
        let a = h.run_all(&[
            spec("milc", OrgKind::NoL3, tiny()),
            spec("milc", OrgKind::Tagless, tiny()),
        ]);
        let b = h.run_all(&[
            spec("milc", OrgKind::NoL3, tiny()), // hit
            spec("milc", OrgKind::SramTag, tiny()),
        ]);
        let s = h.stats();
        assert_eq!(s.requested, 4);
        assert_eq!(s.executed, 3);
        assert_eq!(s.cache_hits, 1);
        // The baseline is literally the same allocation both times.
        assert!(Arc::ptr_eq(&a[0], &b[0]));
    }

    #[test]
    fn duplicate_jobs_in_one_batch_run_once() {
        let h = Harness::new(tiny(), 4);
        let job = spec("mcf", OrgKind::Tagless, tiny());
        let out = h.run_all(&[job.clone(), job.clone(), job]);
        assert_eq!(out.len(), 3);
        assert_eq!(h.stats().executed, 1);
        assert!(Arc::ptr_eq(&out[0], &out[1]) && Arc::ptr_eq(&out[1], &out[2]));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let jobs: Vec<Job> = ["milc", "mcf"]
            .into_iter()
            .flat_map(|b| {
                [OrgKind::NoL3, OrgKind::Tagless]
                    .into_iter()
                    .map(move |o| spec(b, o, tiny()))
            })
            .collect();
        let h1 = Harness::new(tiny(), 1);
        let h4 = Harness::new(tiny(), 4);
        for (a, b) in h1.run_all(&jobs).iter().zip(h4.run_all(&jobs)) {
            assert_eq!(a.ipc_total().to_bits(), b.ipc_total().to_bits());
            assert_eq!(a.l3.page_fills, b.l3.page_fills);
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn unknown_workload_panics_with_label() {
        let h = Harness::new(tiny(), 1);
        h.run(spec("nosuch", OrgKind::NoL3, tiny()));
    }
}
