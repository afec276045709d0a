//! End-to-end measurement with tracing off: simulated references per
//! host second, machine set-up time and peak memory.
//!
//! Host noise on a shared machine comes in bursts that last from a
//! fraction of a second to minutes and can slow a repetition or speed it
//! up by 20 %. Every time here is therefore a median over repetitions
//! spread across the whole run, and the first repetition (cold caches
//! and allocator) is discarded. The slowest phases last longer than a
//! run, so both times are also scaled by the host's speed on a fixed
//! reference kernel timed between the same repetitions.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdc_core::experiment::Job;
use tdc_core::{RunConfig, RunReport, System};
use tdc_harness::{generate, FigureData, Harness};

use crate::cells::{self, Bench, SWEEP_FIGURES, SWEEP_WORKERS};
use crate::checks::{self, Anchor};
use crate::{Metric, Tally};

/// Repetitions every run makes however short `--seconds` is: one
/// discarded, two measured.
const MIN_REPS: usize = 3;

/// Set-up passes and reference-kernel runs timed after each repetition.
const SAMPLES_PER_REP: usize = 4;

/// Words in the reference kernel's buffer: 8 MiB, four times the
/// per-core L2 of the recording host and about the simulator's own
/// footprint, so the kernel feels the same last-level cache and memory
/// contention the simulator does.
const REFERENCE_WORDS: usize = 1 << 20;

/// Read-modify-write operations per reference-kernel run.
const REFERENCE_OPS: u32 = 100_000;

/// The reference kernel's nominal ns per operation: `norm_refs_per_s`
/// and `setup_s` are what the host would measure if the kernel ran at
/// this speed.
const REFERENCE_NOMINAL_NS: f64 = 100.0;

/// Runs `bench` for at least `seconds` and returns its end-to-end
/// metrics.
pub fn run(
    bench: Bench,
    cfg: &RunConfig,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let cells = bench.cells(cfg);
    let anchor = checks::anchor(bench, cfg.seed)?;
    let mut between = Between::new(&cells)?;
    let budget = Duration::from_secs_f64(seconds);
    let refs_per_s = match bench {
        Bench::Sweep => sweep(&cells, cfg, budget, anchor.as_ref(), &mut between, tally)?,
        Bench::Thrash | Bench::Resident => {
            pairs(bench, &cells, budget, anchor.as_ref(), &mut between, tally)?
        }
    };
    let reference_ns = median(&mut between.reference);
    let setup_s = median(&mut between.setup);
    eprintln!(
        "raw rate {refs_per_s:.0} refs/s; raw set-up {setup_s:.6} s; reference kernel {reference_ns:.2} ns/op"
    );
    // Both times are scaled to a host on which the kernel runs at the
    // nominal speed.
    let host = reference_ns / REFERENCE_NOMINAL_NS;
    let buffer_mb = (REFERENCE_WORDS * 8) as f64 / f64::from(1 << 20);
    Ok(vec![
        Metric::new("norm_refs_per_s", refs_per_s * host, "refs/s"),
        Metric::new("setup_s", setup_s / host, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb()? - buffer_mb, "MB"),
    ])
}

/// What is timed between repetitions, so that it sees the same host
/// conditions as the rate: set-up passes and reference-kernel runs.
///
/// A set-up pass builds every distinct machine of the workload once
/// (organization, trace generators and `System::new`) and drops each as
/// soon as it is built. The reference kernel makes random
/// read-modify-writes with a dependent read over a buffer that stays
/// resident for the whole run; its code never changes with the
/// simulator's, so its speed is the host's.
struct Between<'a> {
    cells: &'a [Job],
    setup: Vec<f64>,
    buffer: Vec<u64>,
    reference: Vec<f64>,
}

impl<'a> Between<'a> {
    /// Runs one discarded set-up pass and reference-kernel run.
    fn new(cells: &'a [Job]) -> Result<Self, String> {
        let mut between = Self {
            cells,
            setup: Vec::new(),
            buffer: vec![1; REFERENCE_WORDS],
            reference: Vec::new(),
        };
        between.setup_pass()?;
        between.reference_run();
        Ok(between)
    }

    /// Host seconds of one set-up pass.
    fn setup_pass(&self) -> Result<f64, String> {
        let mut sum = Duration::ZERO;
        for job in self.cells {
            let start = Instant::now();
            let org = cells::build_org(job);
            let traces = cells::build_traces(job)?;
            let sys = System::new(org, traces);
            sum += start.elapsed();
            drop(black_box(sys));
        }
        Ok(sum.as_secs_f64())
    }

    /// Host ns per operation of one reference-kernel run.
    fn reference_run(&mut self) -> f64 {
        let mask = REFERENCE_WORDS - 1;
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        let start = Instant::now();
        for _ in 0..REFERENCE_OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.buffer[i] = self.buffer[i].wrapping_add(x);
            acc = acc.wrapping_add(self.buffer[(self.buffer[i] ^ acc) as usize & mask]);
        }
        black_box(acc);
        start.elapsed().as_nanos() as f64 / f64::from(REFERENCE_OPS)
    }

    /// Times [`SAMPLES_PER_REP`] set-up passes and kernel runs.
    fn sample(&mut self) -> Result<(), String> {
        for _ in 0..SAMPLES_PER_REP {
            let setup = self.setup_pass()?;
            self.setup.push(setup);
            let reference = self.reference_run();
            self.reference.push(reference);
        }
        Ok(())
    }
}

/// The median of `xs` (the mean of the middle two for an even count);
/// infinite when `xs` is empty, so a rate computed from it reads 0.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::INFINITY
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Whether another repetition, as long as the last one, fits in the
/// budget.
fn more(rep: usize, start: Instant, last: f64, budget: Duration) -> bool {
    rep < MIN_REPS || start.elapsed().as_secs_f64() + last <= budget.as_secs_f64()
}

/// `thrash_mix5` and `resident_swaptions`: each repetition runs both
/// cells through `Job::execute`, the call the harness pool makes. The
/// rate divides the cells' references by the sum of each cell's median
/// time.
fn pairs(
    bench: Bench,
    cells: &[Job],
    budget: Duration,
    anchor: Option<&Anchor>,
    between: &mut Between,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut first: Vec<Option<RunReport>> = vec![None; cells.len()];
    let mut kept: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let start = Instant::now();
    let (mut rep, mut last) = (0, 0.0);
    while more(rep, start, last, budget) {
        let rep_start = Instant::now();
        let mut outcomes: Vec<(f64, Result<RunReport, String>)> = cells
            .iter()
            .zip(&first)
            .map(|(job, first)| {
                let t = Instant::now();
                let report = cells::execute(job);
                let took = t.elapsed().as_secs_f64();
                let checked = report.and_then(|r| {
                    checks::check_regime(bench, &r)?;
                    match first {
                        Some(f) if !checks::same_stats(f, &r) => {
                            Err(format!("{} differs from its first repetition", job.label()))
                        }
                        _ => Ok(r),
                    }
                });
                (took, checked)
            })
            .collect();
        if let [(_, Ok(base)), (_, Ok(other))] = &outcomes[..] {
            if let Err(e) = checks::check_ratio(base, other, anchor) {
                for (_, r) in &mut outcomes {
                    *r = Err(e.clone());
                }
            }
        }
        let times: Vec<String> = outcomes.iter().map(|(t, _)| format!("{t:.3}s")).collect();
        eprintln!("rep {rep}: {}", times.join(" "));
        tally.attempted += cells.len() as u64;
        for (i, (took, checked)) in outcomes.into_iter().enumerate() {
            match checked {
                Ok(r) => {
                    if rep > 0 {
                        kept[i].push(took);
                    }
                    first[i].get_or_insert(r);
                }
                Err(e) => {
                    eprintln!("check failed: {e}");
                    tally.failed += 1;
                }
            }
        }
        last = rep_start.elapsed().as_secs_f64();
        between.sample()?;
        rep += 1;
    }
    let refs: u64 = cells.iter().map(cells::refs).sum();
    Ok(refs as f64 / kept.iter_mut().map(|t| median(t)).sum::<f64>())
}

/// `sweep_fig7`: each repetition generates the three figures through a
/// fresh harness with [`SWEEP_WORKERS`] workers. The rate divides the
/// executed cells' references by the median repetition.
fn sweep(
    cells: &[Job],
    cfg: &RunConfig,
    budget: Duration,
    anchor: Option<&Anchor>,
    between: &mut Between,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut first: Option<Vec<(String, Arc<RunReport>)>> = None;
    let mut kept = Vec::new();
    let start = Instant::now();
    let (mut rep, mut last) = (0, 0.0);
    while more(rep, start, last, budget) {
        let h = Harness::new(*cfg, SWEEP_WORKERS);
        let t = Instant::now();
        let figures = catch_unwind(AssertUnwindSafe(|| {
            SWEEP_FIGURES
                .into_iter()
                .map(|id| generate(id, &h).expect("known figure id"))
                .collect::<Vec<FigureData>>()
        }));
        let took = t.elapsed().as_secs_f64();
        eprintln!("rep {rep}: {took:.3}s");
        let results = h.results();
        let checked = figures
            .map_err(|_| "a sweep cell panicked".to_string())
            .and_then(|figures| checks::check_figures(&figures, anchor))
            .and_then(|()| checks::check_sweep_harness(&h.stats(), &results));
        // A whole-sweep failure fails every cell; otherwise the cells
        // that differ from the first repetition fail.
        let failed = match (checked, &first) {
            (Err(e), _) => {
                eprintln!("check failed: {e}");
                cells.len()
            }
            (Ok(()), Some(f)) => f
                .iter()
                .zip(&results)
                .filter(|((ka, a), (kb, b))| ka != kb || !checks::same_stats(a, b))
                .inspect(|(_, (key, _))| {
                    eprintln!("check failed: {key} differs from its first repetition")
                })
                .count(),
            (Ok(()), None) => 0,
        };
        tally.attempted += cells.len() as u64;
        tally.failed += failed as u64;
        if failed == 0 {
            if rep > 0 {
                kept.push(took);
            }
            first.get_or_insert(results);
        }
        last = took;
        between.sample()?;
        rep += 1;
    }
    let refs: u64 = cells.iter().map(cells::refs).sum();
    Ok(refs as f64 / median(&mut kept))
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
