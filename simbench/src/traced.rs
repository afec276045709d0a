//! The traced run: every distinct cell once, built from the public
//! constructors with its trace generators and organization wrapped in
//! structs that time each call the engine makes into them.
//!
//! Each timed call pays for a pair of clock reads. The part of that
//! cost inside the timed window is calibrated and subtracted from the
//! call; the rest falls on the caller, the engine, and is subtracted
//! from its self time. Whatever the layers do not account for is
//! reported as `tracing.unattributed_share`, so the shares sum to one.

use std::cell::RefCell;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use tdc_core::experiment::{Job, OrgKind};
use tdc_core::{DramStats, L3Stats, RunConfig, System};
use tdc_dram_cache::{Frame, L3System, MemoryOutcome, TranslationOutcome};
use tdc_harness::{generate, Harness};
use tdc_trace::{MemRef, TraceSource};
use tdc_util::obs::LogHistogram;
use tdc_util::{Cycle, VAddr, Vpn};

use crate::cells::{self, Bench, SWEEP_FIGURES, SWEEP_WORKERS};
use crate::checks::{self, Stats};
use crate::{Metric, Tally};

/// Call count and host time at one layer boundary.
#[derive(Clone, Default)]
struct Layer {
    calls: u64,
    raw_ns: u64,
    /// Self time per call, timer cost subtracted.
    hist: LogHistogram,
}

impl Layer {
    fn record(&mut self, raw_ns: u64, inside_ns: u64) {
        self.calls += 1;
        self.raw_ns += raw_ns;
        self.hist.record(raw_ns.saturating_sub(inside_ns));
    }

    fn merge(&mut self, other: &Layer) {
        self.calls += other.calls;
        self.raw_ns += other.raw_ns;
        self.hist.merge(&other.hist);
    }

    fn self_ns(&self, cal: &Calibration) -> f64 {
        self.raw_ns as f64 - self.calls as f64 * cal.inside_ns as f64
    }
}

/// What the wrappers of one cell record.
#[derive(Clone, Default)]
struct Probes {
    inside_ns: u64,
    trace: Layer,
    translate: Layer,
    access: Layer,
    writeback: Layer,
    tlb_hits: u64,
}

impl Probes {
    fn layers(&self) -> [&Layer; 4] {
        [&self.trace, &self.translate, &self.access, &self.writeback]
    }
}

type Shared = Rc<RefCell<Probes>>;

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A trace generator whose every `next_ref` is timed.
struct TimedTrace {
    inner: Box<dyn TraceSource>,
    probes: Shared,
}

impl TraceSource for TimedTrace {
    fn next_ref(&mut self) -> MemRef {
        let start = Instant::now();
        let r = self.inner.next_ref();
        let ns = elapsed_ns(start);
        let mut p = self.probes.borrow_mut();
        let inside = p.inside_ns;
        p.trace.record(ns, inside);
        r
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// An organization whose translate, access and writeback calls are
/// timed. Everything else is forwarded untimed.
struct TimedOrg {
    inner: Box<dyn L3System>,
    probes: Shared,
}

impl L3System for TimedOrg {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn translate(
        &mut self,
        now: Cycle,
        core: usize,
        vpn: Vpn,
        is_write: bool,
    ) -> TranslationOutcome {
        let start = Instant::now();
        let tr = self.inner.translate(now, core, vpn, is_write);
        let ns = elapsed_ns(start);
        let mut p = self.probes.borrow_mut();
        let inside = p.inside_ns;
        p.translate.record(ns, inside);
        p.tlb_hits += u64::from(tr.tlb_hit);
        tr
    }

    fn access(
        &mut self,
        now: Cycle,
        core: usize,
        frame: Frame,
        nc: bool,
        block: u64,
    ) -> MemoryOutcome {
        let start = Instant::now();
        let m = self.inner.access(now, core, frame, nc, block);
        let ns = elapsed_ns(start);
        let mut p = self.probes.borrow_mut();
        let inside = p.inside_ns;
        p.access.record(ns, inside);
        m
    }

    fn writeback(&mut self, now: Cycle, core: usize, frame: Frame, nc: bool, block: u64) {
        let start = Instant::now();
        self.inner.writeback(now, core, frame, nc, block);
        let ns = elapsed_ns(start);
        let mut p = self.probes.borrow_mut();
        let inside = p.inside_ns;
        p.writeback.record(ns, inside);
    }

    fn stats(&self) -> &L3Stats {
        self.inner.stats()
    }

    fn energy_pj(&self) -> f64 {
        self.inner.energy_pj()
    }

    fn in_pkg_stats(&self) -> Option<&DramStats> {
        self.inner.in_pkg_stats()
    }

    fn off_pkg_stats(&self) -> &DramStats {
        self.inner.off_pkg_stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

/// The cost of timing a call.
#[derive(Clone, Copy, Debug)]
struct Calibration {
    /// Median reading of two back-to-back clock reads: the timer cost
    /// that lands inside a timed window.
    inside_ns: u64,
    /// Host time one timed call adds in total, measured through
    /// [`TimedTrace`] against the same generator untimed.
    pair_ns: f64,
}

/// A generator that returns one fixed reference, for calibration.
struct Fixed;

impl TraceSource for Fixed {
    fn next_ref(&mut self) -> MemRef {
        MemRef::read(VAddr(0x40))
    }
}

/// Measures the timer cost on this host.
fn calibrate() -> Calibration {
    const SAMPLES: usize = 100_001;
    const CALLS: u32 = 200_000;
    const TRIALS: usize = 7;
    let mut reads: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            elapsed_ns(black_box(start))
        })
        .collect();
    reads.sort_unstable();
    let inside_ns = reads[SAMPLES / 2];

    let probes = Shared::default();
    probes.borrow_mut().inside_ns = inside_ns;
    let mut timed: Box<dyn TraceSource> = Box::new(TimedTrace {
        inner: Box::new(Fixed),
        probes,
    });
    let mut bare: Box<dyn TraceSource> = Box::new(Fixed);
    let per_call = |src: &mut Box<dyn TraceSource>| {
        let start = Instant::now();
        for _ in 0..CALLS {
            black_box(src.next_ref());
        }
        start.elapsed().as_nanos() as f64 / f64::from(CALLS)
    };
    let (mut bare_ns, mut timed_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRIALS {
        bare_ns = bare_ns.min(per_call(&mut bare));
        timed_ns = timed_ns.min(per_call(&mut timed));
    }
    Calibration {
        inside_ns,
        pair_ns: (timed_ns - bare_ns).max(inside_ns as f64),
    }
}

/// One traced cell.
struct CellTrace {
    stats: Stats,
    probes: Probes,
    /// Organization, trace generator and `System::new` construction, ns.
    setup_ns: [u64; 3],
    run_ns: u64,
    wall_ns: u64,
}

/// A coarse span of the traced run, kept in memory until the end.
struct Span {
    name: String,
    depth: usize,
    start: Duration,
    end: Duration,
}

/// Runs `job` through the timing wrappers.
fn trace_cell(
    job: &Job,
    cal: &Calibration,
    origin: Instant,
    spans: &mut Vec<Span>,
) -> Result<CellTrace, String> {
    let probes = Shared::default();
    probes.borrow_mut().inside_ns = cal.inside_ns;
    let cell_start = Instant::now();
    let org = cells::build_org(job);
    let org_ns = elapsed_ns(cell_start);
    let t = Instant::now();
    let traces = cells::build_traces(job)?;
    let trace_ns = elapsed_ns(t);
    let org = Box::new(TimedOrg {
        inner: org,
        probes: probes.clone(),
    });
    let traces: Vec<Box<dyn TraceSource>> = traces
        .into_iter()
        .map(|inner| -> Box<dyn TraceSource> {
            Box::new(TimedTrace {
                inner,
                probes: probes.clone(),
            })
        })
        .collect();
    let t = Instant::now();
    let mut sys = System::new(org, traces);
    let system_ns = elapsed_ns(t);
    let run_start = Instant::now();
    let cores = sys.run(job.cfg.warmup_refs, job.cfg.measured_refs);
    let run_end = Instant::now();
    let l3 = sys.l3();
    let stats = Stats {
        cores,
        l3: l3.stats().clone(),
        in_pkg: l3.in_pkg_stats().copied(),
        off_pkg: *l3.off_pkg_stats(),
    };
    drop(sys);
    let cell_end = Instant::now();
    let probes = Rc::try_unwrap(probes)
        .map_err(|_| "wrapper probes still shared after the run".to_string())?
        .into_inner();
    let at = |i: Instant| i.duration_since(origin);
    spans.push(Span {
        name: job.label(),
        depth: 0,
        start: at(cell_start),
        end: at(cell_end),
    });
    spans.push(Span {
        name: "setup".into(),
        depth: 1,
        start: at(cell_start),
        end: at(run_start),
    });
    spans.push(Span {
        name: "run".into(),
        depth: 1,
        start: at(run_start),
        end: at(run_end),
    });
    Ok(CellTrace {
        stats,
        probes,
        setup_ns: [org_ns, trace_ns, system_ns],
        run_ns: run_end.duration_since(run_start).as_nanos() as u64,
        wall_ns: cell_end.duration_since(cell_start).as_nanos() as u64,
    })
}

/// Runs `job` untraced, as the harness pool does, then traced, and
/// checks that both give the same statistics. Returns the traced cell
/// and the untraced wall time in seconds.
fn checked_cell(
    job: &Job,
    cal: &Calibration,
    origin: Instant,
    spans: &mut Vec<Span>,
) -> Result<(CellTrace, f64), String> {
    let start = Instant::now();
    let r = cells::execute(job)?;
    let untraced_s = start.elapsed().as_secs_f64();
    let traced = catch_unwind(AssertUnwindSafe(|| trace_cell(job, cal, origin, spans)))
        .unwrap_or_else(|_| Err(format!("{} panicked when traced", job.label())))?;
    if traced.stats == Stats::from(&r) {
        Ok((traced, untraced_s))
    } else {
        Err(format!(
            "{}: traced statistics differ from Job::execute",
            job.label()
        ))
    }
}

/// Counts and host times summed over a set of cells.
#[derive(Default)]
struct Totals {
    cells: u64,
    probes: Probes,
    setup_ns: [u64; 3],
    run_ns: u64,
    wall_ns: u64,
    refs: u64,
    l1_misses: u64,
    l2_misses: u64,
    ipc_sum: f64,
    l3: L3Stats,
    in_pkg: DramStats,
    off_pkg: DramStats,
}

fn add_dram(into: &mut DramStats, s: &DramStats) {
    into.reads += s.reads;
    into.writes += s.writes;
    into.row_hits += s.row_hits;
}

impl Totals {
    fn add(&mut self, c: &CellTrace) {
        self.cells += 1;
        let p = &c.probes;
        for (into, from) in [
            (&mut self.probes.trace, &p.trace),
            (&mut self.probes.translate, &p.translate),
            (&mut self.probes.access, &p.access),
            (&mut self.probes.writeback, &p.writeback),
        ] {
            into.merge(from);
        }
        self.probes.tlb_hits += p.tlb_hits;
        for (into, from) in self.setup_ns.iter_mut().zip(c.setup_ns) {
            *into += from;
        }
        self.run_ns += c.run_ns;
        self.wall_ns += c.wall_ns;
        let o = &c.stats;
        self.refs += o.cores.iter().map(|r| r.refs).sum::<u64>();
        self.l1_misses += o.cores.iter().map(|r| r.l1_misses).sum::<u64>();
        self.l2_misses += o.cores.iter().map(|r| r.l2_misses).sum::<u64>();
        self.ipc_sum += o.cores.iter().map(|r| r.ipc).sum::<f64>();
        let (s, l) = (&mut self.l3, &o.l3);
        s.demand_reads += l.demand_reads;
        s.in_package_reads += l.in_package_reads;
        s.page_fills += l.page_fills;
        s.page_evictions += l.page_evictions;
        s.dirty_page_writebacks += l.dirty_page_writebacks;
        s.stale_writebacks += l.stale_writebacks;
        s.case_hit_hit += l.case_hit_hit;
        s.case_hit_miss += l.case_hit_miss;
        s.case_miss_hit += l.case_miss_hit;
        s.case_miss_miss += l.case_miss_miss;
        s.gipt_updates += l.gipt_updates;
        s.tag_probes += l.tag_probes;
        if let Some(d) = &o.in_pkg {
            add_dram(&mut self.in_pkg, d);
        }
        add_dram(&mut self.off_pkg, &o.off_pkg);
    }

    /// The engine's self time: the run spans minus every timed call and
    /// the out-of-window part of each call's timer cost.
    fn core_ns(&self, cal: &Calibration) -> f64 {
        let raw: u64 = self.probes.layers().iter().map(|l| l.raw_ns).sum();
        let calls: u64 = self.probes.layers().iter().map(|l| l.calls).sum();
        self.run_ns as f64 - raw as f64 - calls as f64 * (cal.pair_ns - cal.inside_ns as f64)
    }

    /// The translate-layer metrics, with `suffix` appended to each name.
    fn translate_metrics(&self, cal: &Calibration, suffix: &str, out: &mut Vec<Metric>) {
        let l3 = &self.l3;
        let tr = &self.probes.translate;
        let misses = l3.case_miss_hit + l3.case_miss_miss;
        let mut push = |name: &str, value: f64, unit: &'static str| {
            out.push(Metric::new(&format!("{name}{suffix}"), value, unit));
        };
        push("l3.translate.calls", tr.calls as f64, "count");
        push(
            "l3.translate.ns_per_call",
            ratio(tr.self_ns(cal), tr.calls as f64),
            "ns",
        );
        push(
            "l3.translate.share",
            ratio(tr.self_ns(cal), self.wall_ns as f64),
            "share",
        );
        push(
            "tlb.l1_hit_ratio",
            ratio(self.probes.tlb_hits as f64, tr.calls as f64),
            "ratio",
        );
        push("tagless.hit_hit", l3.case_hit_hit as f64, "count");
        push("tagless.hit_miss", l3.case_hit_miss as f64, "count");
        push("tagless.miss_hit", l3.case_miss_hit as f64, "count");
        push("tagless.miss_miss", l3.case_miss_miss as f64, "count");
        push(
            "tagless.victim_hit_ratio",
            ratio(l3.case_miss_hit as f64, misses as f64),
            "ratio",
        );
        push("l3.page_fills", l3.page_fills as f64, "count");
        push("l3.page_evictions", l3.page_evictions as f64, "count");
        push("l3.gipt_updates", l3.gipt_updates as f64, "count");
    }
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The pool and harness metrics, with their units.
const HARNESS_METRICS: [(&str, &str); 7] = [
    ("harness.cells_executed", "count"),
    ("harness.cache_hits", "count"),
    ("pool.busy_frac", "ratio"),
    ("pool.idle_s", "s"),
    ("pool.stolen", "count"),
    ("pool.steal_attempts", "count"),
    ("pool.steal_failures", "count"),
];

/// [`HARNESS_METRICS`] of one untraced `sweep_fig7` repetition.
fn harness_values(cfg: &RunConfig) -> Result<[f64; 7], String> {
    let h = Harness::new(*cfg, SWEEP_WORKERS);
    for id in SWEEP_FIGURES {
        generate(id, &h).ok_or_else(|| format!("unknown figure {id}"))?;
    }
    let stats = h.stats();
    checks::check_sweep_harness(&stats, &h.results())?;
    let mut v = [
        stats.executed as f64,
        stats.cache_hits as f64,
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
    ];
    let (mut busy, mut capacity) = (0u64, 0u64);
    for (t, _) in h.pool_batches() {
        capacity += t.wall_ns * t.workers.len() as u64;
        for w in &t.workers {
            busy += w.busy_ns;
            v[3] += w.idle_ns as f64 * 1e-9;
            v[4] += w.stolen as f64;
            v[5] += w.steal_attempts as f64;
            v[6] += w.steal_failures as f64;
        }
    }
    v[2] = ratio(busy as f64, capacity as f64);
    Ok(v)
}

/// Runs every distinct cell of `bench` once untraced and once traced,
/// and returns the per-layer metrics.
pub fn run(bench: Bench, cfg: &RunConfig, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let cal = calibrate();
    let origin = Instant::now();
    let mut spans = Vec::new();
    let (mut all, mut fifo, mut lru) = (Totals::default(), Totals::default(), Totals::default());
    let mut untraced_s = 0.0;
    let cells = bench.cells(cfg);
    for job in &cells {
        tally.attempted += 1;
        match checked_cell(job, &cal, origin, &mut spans) {
            Ok((traced, took)) => {
                untraced_s += took;
                all.add(&traced);
                match job.org {
                    OrgKind::Tagless => fifo.add(&traced),
                    OrgKind::TaglessLru => lru.add(&traced),
                    _ => {}
                }
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                tally.failed += 1;
            }
        }
    }
    // Only the sweep runs a harness; the other workloads report zeros.
    let mut harness = [0.0; 7];
    if bench == Bench::Sweep {
        tally.attempted += cells.len() as u64;
        match harness_values(cfg) {
            Ok(v) => harness = v,
            Err(e) => {
                eprintln!("check failed: {e}");
                tally.failed += cells.len() as u64;
            }
        }
    }

    let wall = all.wall_ns as f64;
    let p = &all.probes;
    let core_ns = all.core_ns(&cal);
    let setup_ns: u64 = all.setup_ns.iter().sum();
    let attributed =
        core_ns + setup_ns as f64 + p.layers().iter().map(|l| l.self_ns(&cal)).sum::<f64>();
    let l3 = &all.l3;
    let mut m = vec![
        Metric::new("trace.calls", p.trace.calls as f64, "count"),
        Metric::new(
            "trace.ns_per_call",
            ratio(p.trace.self_ns(&cal), p.trace.calls as f64),
            "ns",
        ),
        Metric::new("trace.share", ratio(p.trace.self_ns(&cal), wall), "share"),
        Metric::new(
            "core.self_ns_per_ref",
            ratio(core_ns, p.trace.calls as f64),
            "ns",
        ),
        Metric::new("core.share", ratio(core_ns, wall), "share"),
        Metric::new(
            "sram.l1_miss_ratio",
            ratio(all.l1_misses as f64, all.refs as f64),
            "ratio",
        ),
        Metric::new(
            "sram.l2_miss_ratio",
            ratio(all.l2_misses as f64, all.l1_misses as f64),
            "ratio",
        ),
        Metric::new(
            "sim.ipc",
            ratio(all.ipc_sum, all.cells as f64),
            "instr/cycle",
        ),
    ];
    all.translate_metrics(&cal, "", &mut m);
    fifo.translate_metrics(&cal, ".fifo", &mut m);
    lru.translate_metrics(&cal, ".lru", &mut m);
    for (name, layer) in [("l3.access", &p.access), ("l3.writeback", &p.writeback)] {
        let own = layer.self_ns(&cal);
        m.push(Metric::new(
            &format!("{name}.calls"),
            layer.calls as f64,
            "count",
        ));
        m.push(Metric::new(
            &format!("{name}.ns_per_call"),
            ratio(own, layer.calls as f64),
            "ns",
        ));
        m.push(Metric::new(
            &format!("{name}.share"),
            ratio(own, wall),
            "share",
        ));
    }
    m.extend([
        Metric::new(
            "l3.in_package_ratio",
            ratio(l3.in_package_reads as f64, l3.demand_reads as f64),
            "ratio",
        ),
        Metric::new(
            "l3.dirty_page_writebacks",
            l3.dirty_page_writebacks as f64,
            "count",
        ),
        Metric::new("l3.stale_writebacks", l3.stale_writebacks as f64, "count"),
        Metric::new("sram_tag.tag_probes", l3.tag_probes as f64, "count"),
    ]);
    for (name, d) in [("dram.in_pkg", &all.in_pkg), ("dram.off_pkg", &all.off_pkg)] {
        let n = d.reads + d.writes;
        m.push(Metric::new(&format!("{name}.accesses"), n as f64, "count"));
        m.push(Metric::new(
            &format!("{name}.row_hit_ratio"),
            ratio(d.row_hits as f64, n as f64),
            "ratio",
        ));
    }
    for ((name, unit), value) in HARNESS_METRICS.into_iter().zip(harness) {
        m.push(Metric::new(name, value, unit));
    }
    for (name, ns) in ["setup.org_s", "setup.trace_s", "setup.system_s"]
        .into_iter()
        .zip(all.setup_ns)
    {
        m.push(Metric::new(name, ns as f64 * 1e-9, "s"));
    }
    m.extend([
        Metric::new("tracing.timer_ns", cal.pair_ns, "ns"),
        Metric::new("tracing.overhead", ratio(wall * 1e-9, untraced_s), "ratio"),
        Metric::new(
            "tracing.unattributed_share",
            ratio(wall - attributed, wall),
            "share",
        ),
    ]);
    report(&all, &cal, &spans);
    Ok(m)
}

/// Writes the per-layer table and the coarse spans to stderr.
fn report(all: &Totals, cal: &Calibration, spans: &[Span]) {
    let wall = all.wall_ns as f64;
    eprintln!(
        "timer: {} ns inside a timed window, {:.1} ns per timed call in total",
        cal.inside_ns, cal.pair_ns
    );
    eprintln!(
        "{:<14} {:>12} {:>10} {:>8} {:>8} {:>8}",
        "layer", "calls", "self ms", "share", "p50 ns", "p99 ns"
    );
    let p = &all.probes;
    for (name, l) in [
        ("trace", &p.trace),
        ("translate", &p.translate),
        ("access", &p.access),
        ("writeback", &p.writeback),
    ] {
        let s = l.self_ns(cal);
        eprintln!(
            "{name:<14} {:>12} {:>10.1} {:>8.4} {:>8} {:>8}",
            l.calls,
            s * 1e-6,
            ratio(s, wall),
            l.hist.quantile(0.5),
            l.hist.quantile(0.99)
        );
    }
    let core = all.core_ns(cal);
    eprintln!(
        "{:<14} {:>12} {:>10.1} {:>8.4}",
        "core",
        p.trace.calls,
        core * 1e-6,
        ratio(core, wall)
    );
    let setup: u64 = all.setup_ns.iter().sum();
    eprintln!(
        "{:<14} {:>12} {:>10.1} {:>8.4}",
        "setup",
        all.cells,
        setup as f64 * 1e-6,
        ratio(setup as f64, wall)
    );
    eprintln!(
        "traced wall {:.3} s; spans (ms from the start of the traced run):",
        wall * 1e-9
    );
    for s in spans {
        eprintln!(
            "{:indent$}{} {:.1}..{:.1}",
            "",
            s.name,
            s.start.as_secs_f64() * 1e3,
            s.end.as_secs_f64() * 1e3,
            indent = 2 + 2 * s.depth
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_core::experiment::Workload;

    #[test]
    fn wrappers_are_transparent_on_tiny_cells() {
        let cfg = RunConfig {
            seed: 11,
            cache_bytes: 64 << 20,
            warmup_refs: 2_000,
            measured_refs: 6_000,
        };
        let cells = [
            (Workload::Spec("mcf".into()), OrgKind::NoL3),
            (Workload::Spec("mcf".into()), OrgKind::BankInterleave),
            (Workload::Spec("mcf".into()), OrgKind::SramTag),
            (Workload::Spec("mcf".into()), OrgKind::Ideal),
            (Workload::Mix("MIX5".into()), OrgKind::Tagless),
            (Workload::Mix("MIX5".into()), OrgKind::TaglessLru),
            (Workload::Parsec("swaptions".into()), OrgKind::Tagless),
        ];
        let cal = calibrate();
        for (workload, org) in cells {
            let job = Job::new(workload, org, cfg);
            let checked = checked_cell(&job, &cal, Instant::now(), &mut Vec::new());
            assert!(checked.is_ok(), "{:?}", checked.err());
        }
    }
}
