//! The benchmark's workloads: which simulation cells each one runs, and
//! how to build a cell's machine from the simulator's public
//! constructors.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tdc_core::experiment::{Job, OrgKind, RunConfig, Workload, CAPACITY_SCALE};
use tdc_core::RunReport;
use tdc_dram_cache::{L3System, SystemParams};
use tdc_harness::figures::jobs_for;
use tdc_trace::{profiles, ParsecTraces, SyntheticWorkload, TraceSource, WorkloadProfile};
use tdc_util::PAGE_SIZE;

/// Run-length scale of every workload: the scale the checked-in
/// `baselines/scale-0.25` figures were generated at.
const SCALE: f64 = 0.25;

/// The seed the checked-in baselines were generated with. Only runs at
/// this seed are anchored to them.
pub const REFERENCE_SEED: u64 = tdc_harness::SEED;

/// The figures `sweep_fig7` generates: Fig. 7, Fig. 8 and the AMAT
/// comparison, which share their cells through the harness cache.
pub const SWEEP_FIGURES: [&str; 3] = ["fig07", "fig08", "amat"];

/// Worker threads of the `sweep_fig7` harness.
pub const SWEEP_WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Fig. 7 + Fig. 8 + AMAT through the harness: every organization
    /// but cTLB-LRU, the worker pool and the result cache.
    Sweep,
    /// Fig. 11 MIX5 at 512 MB, cTLB-FIFO and cTLB-LRU: the tagless
    /// miss handler with the cache full.
    Thrash,
    /// PARSEC swaptions at 1 GB on No-L3 and cTLB: a cache-resident
    /// program where the cTLB hit path does the work.
    Resident,
}

impl Bench {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Bench; 3] = [Bench::Sweep, Bench::Thrash, Bench::Resident];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Sweep => "sweep_fig7",
            Bench::Thrash => "thrash_mix5",
            Bench::Resident => "resident_swaptions",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The distinct cells this workload simulates under `cfg`, in the
    /// order it runs them.
    pub fn cells(self, cfg: &RunConfig) -> Vec<Job> {
        match self {
            Bench::Sweep => {
                let mut cells: Vec<Job> = Vec::new();
                for id in SWEEP_FIGURES {
                    for job in jobs_for(id, cfg).expect("known figure id") {
                        if !cells.contains(&job) {
                            cells.push(job);
                        }
                    }
                }
                cells
            }
            Bench::Thrash => {
                let cfg = cfg.with_cache_bytes(512 << 20);
                [OrgKind::Tagless, OrgKind::TaglessLru]
                    .into_iter()
                    .map(|org| Job::new(Workload::Mix("MIX5".into()), org, cfg))
                    .collect()
            }
            Bench::Resident => [OrgKind::NoL3, OrgKind::Tagless]
                .into_iter()
                .map(|org| Job::new(Workload::Parsec("swaptions".into()), org, *cfg))
                .collect(),
        }
    }
}

/// The run configuration of every workload at `seed`.
pub fn config(seed: u64) -> RunConfig {
    RunConfig::scaled(seed, SCALE)
}

/// Runs `job` as the harness pool does; a panic becomes an error.
pub fn execute(job: &Job) -> Result<RunReport, String> {
    catch_unwind(AssertUnwindSafe(|| job.execute()))
        .unwrap_or_else(|_| Err(format!("{} panicked", job.label())))
}

/// Simulated memory references a cell processes: warm-up plus measured,
/// summed over its cores.
pub fn refs(job: &Job) -> u64 {
    core_asids(&job.workload).len() as u64 * (job.cfg.warmup_refs + job.cfg.measured_refs)
}

/// The address space of each core: one core for SPEC, four private
/// spaces for a mix, four threads sharing one space for PARSEC.
fn core_asids(workload: &Workload) -> Vec<u32> {
    match workload {
        Workload::Spec(_) => vec![0],
        Workload::Mix(_) => vec![0, 1, 2, 3],
        Workload::Parsec(_) => vec![0; 4],
    }
}

/// The system parameters `Job::execute` derives for `job`: capacities
/// divided by [`CAPACITY_SCALE`], the SRAM tag latency kept at the
/// nominal size. `tdc-core` keeps its own copy private; if the two ever
/// differ, the traced run's traced-equals-untraced check fails.
fn params(job: &Job) -> SystemParams {
    let actual = (job.cfg.cache_bytes / CAPACITY_SCALE).max(64 * PAGE_SIZE);
    let mut p = SystemParams::with_cache_capacity(actual);
    p.tag_nominal_bytes = job.cfg.cache_bytes;
    p.off_pkg.capacity_bytes /= CAPACITY_SCALE;
    p.core_asid = core_asids(&job.workload);
    p.cores = p.core_asid.len();
    p
}

/// `profile` with its footprint divided by [`CAPACITY_SCALE`].
fn scaled(profile: &WorkloadProfile) -> WorkloadProfile {
    let mut p = profile.clone();
    p.footprint_pages = (p.footprint_pages / CAPACITY_SCALE).max(64);
    p
}

/// Builds `job`'s memory-system organization.
pub fn build_org(job: &Job) -> Box<dyn L3System> {
    job.org.build(&params(job))
}

/// Builds `job`'s trace generators, one per core, seeded as
/// `Job::execute` seeds them.
///
/// # Errors
///
/// Names an unknown workload, or a non-cacheable study cell, which this
/// benchmark does not run.
pub fn build_traces(job: &Job) -> Result<Vec<Box<dyn TraceSource>>, String> {
    let unknown = || format!("unknown workload {:?}", job.workload);
    if job.nc_threshold.is_some() {
        return Err(format!(
            "{}: non-cacheable cells are not benchmarked",
            job.label()
        ));
    }
    let seed = job.cfg.seed;
    Ok(match &job.workload {
        Workload::Spec(b) => {
            let p = scaled(profiles::spec(b).ok_or_else(unknown)?);
            vec![Box::new(SyntheticWorkload::new(p, seed, 0))]
        }
        Workload::Mix(m) => profiles::mix(m)
            .ok_or_else(unknown)?
            .iter()
            .enumerate()
            .map(|(i, p)| -> Box<dyn TraceSource> {
                Box::new(SyntheticWorkload::new(
                    scaled(p),
                    seed ^ ((i as u64 + 1) << 48),
                    0,
                ))
            })
            .collect(),
        Workload::Parsec(b) => {
            let parsec =
                ParsecTraces::with_profile(scaled(profiles::parsec(b).ok_or_else(unknown)?), seed);
            (0..parsec.threads())
                .map(|t| -> Box<dyn TraceSource> { Box::new(parsec.thread(t)) })
                .collect()
        }
    })
}
