//! The `tdc trace` subcommand: run one figure cell with the probe
//! layer enabled and export its event stream.
//!
//! ```text
//! tdc trace mcf/ctlb --scale 0.1           # one fig07 cell, probed
//! tdc trace MIX1/sram --epoch 50000        # coarser telemetry epochs
//! tdc trace mcf/ctlb --events fill,queue   # only those event families
//! ```
//!
//! Two artifacts are written per cell:
//!
//! * `results/runs/<cell>.timeseries.json` — per-epoch interval
//!   counters (retired instructions, stall cycles, cTLB hits/misses,
//!   fills, free-queue depth, per-device DRAM traffic …).
//! * `results/trace/<cell>.trace.json` — Chrome trace-event JSON,
//!   loadable in Perfetto / `chrome://tracing` (1 cycle = 1 µs).
//!
//! Probed runs execute in-process on one thread; the run's `RunReport`
//! is byte-for-byte the one an unprobed `tdc` run produces (the
//! determinism tests pin this).

use std::fs;
use std::path::PathBuf;
use tdc_core::experiment::{run_job_probed, Job, OrgKind, Workload};
use tdc_core::RunConfig;
use tdc_trace::profiles;
use tdc_util::probe::{EventGroup, Recorder, SharedProbe};
use tdc_util::Json;

use crate::sink::sanitize;
use crate::SEED;

/// Default telemetry epoch in cycles (~10 µs of simulated time).
pub const DEFAULT_EPOCH_CYCLES: u64 = 10_000;

const USAGE: &str = "\
tdc trace — run one figure cell with cycle-stamped probes enabled

USAGE:
    tdc trace <WORKLOAD>/<ORG> [OPTIONS]

CELL:
    WORKLOAD    a SPEC benchmark (mcf, milc, …), a mix (MIX1..MIX8),
                or a PARSEC benchmark (streamcluster, …)
    ORG         nol3 | bi | sram | ctlb | ctlb-lru | ideal

OPTIONS:
    --epoch N     Telemetry epoch in cycles (default: 10000)
    --events A,B  Only record these event families; any of
                  core,tlb,ctlb,fill,queue,gipt,dram,wb (default: all)
    --scale F     Run-length scale factor (default: TDC_SCALE env or 1.0)
    --seed S      Master seed (default: 2015)
    --out DIR     Artifact directory (default: results)
    -h, --help    Show this help

Writes <out>/runs/<cell>.timeseries.json and <out>/trace/<cell>.trace.json.
The non-tagless organizations only produce core/tlb-side events.";

struct TraceOptions {
    cell: String,
    epoch: u64,
    events: Option<Vec<EventGroup>>,
    scale: Option<f64>,
    seed: u64,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<TraceOptions, String> {
    let (mut epoch, mut events) = (DEFAULT_EPOCH_CYCLES, None);
    let CellArgs { cell, scale, seed, out } = CellArgs::parse(args, USAGE, |flag, value| {
        match flag {
            "--epoch" => {
                epoch = value()?
                    .parse::<u64>()
                    .ok()
                    .filter(|&e| e > 0)
                    .ok_or("--epoch needs a positive integer")?
            }
            "--events" => {
                let list = value()?;
                let mut groups = Vec::new();
                for name in list.split(',').filter(|s| !s.is_empty()) {
                    groups.push(EventGroup::from_name(name).ok_or_else(|| {
                        format!(
                            "unknown event group '{name}' (expected one of {})",
                            EventGroup::ALL.map(|g| g.name()).join(",")
                        )
                    })?);
                }
                if groups.is_empty() {
                    return Err("--events needs at least one group".into());
                }
                events = Some(groups);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(TraceOptions { cell, epoch, events, scale, seed, out })
}

/// The command line `tdc trace` and `tdc prof` share: the
/// `<workload>/<org>` cell, `--scale`, `--seed`, `--out` and `-h`.
pub(crate) struct CellArgs {
    pub(crate) cell: String,
    pub(crate) scale: Option<f64>,
    pub(crate) seed: u64,
    pub(crate) out: PathBuf,
}

impl CellArgs {
    /// Parses `args`, handing every flag it does not know to `own`
    /// together with a reader for the flag's value; `own` returns
    /// whether it knew the flag. `usage` is the command's help text.
    pub(crate) fn parse(
        args: &[String],
        usage: &str,
        mut own: impl FnMut(&str, &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut parsed = Self {
            cell: String::new(),
            scale: None,
            seed: SEED,
            out: PathBuf::from("results"),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().cloned().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--scale" => {
                    let f = value()?
                        .parse::<f64>()
                        .map_err(|_| "--scale needs a number".to_string())?;
                    if f <= 0.0 {
                        return Err("--scale must be positive".into());
                    }
                    parsed.scale = Some(f);
                }
                "--seed" => {
                    parsed.seed = value()?
                        .parse::<u64>()
                        .map_err(|_| "--seed needs an unsigned integer".to_string())?
                }
                "--out" => parsed.out = PathBuf::from(value()?),
                "-h" | "--help" => return Err(usage.to_string()),
                cell if parsed.cell.is_empty() && !cell.starts_with('-') => {
                    parsed.cell = cell.to_string()
                }
                other => {
                    if !own(other, &mut value)? {
                        return Err(format!("unknown argument '{other}'\n\n{usage}"));
                    }
                }
            }
        }
        if parsed.cell.is_empty() {
            return Err(usage.to_string());
        }
        Ok(parsed)
    }
}

/// Resolves a parsed cell into its job: `--scale` (else `TDC_SCALE`,
/// else full length) and `--seed` give the run configuration.
pub(crate) fn cell_job(cell: &str, scale: Option<f64>, seed: u64) -> Result<Job, String> {
    let cfg = match scale {
        Some(f) => RunConfig::scaled(seed, f),
        None => RunConfig::from_env(seed),
    };
    build_job(cell, cfg)
}

/// Parses an organization label (the `tdc trace` half of a cell id).
fn parse_org(s: &str) -> Option<OrgKind> {
    match s.to_ascii_lowercase().as_str() {
        "nol3" | "no-l3" => Some(OrgKind::NoL3),
        "bi" => Some(OrgKind::BankInterleave),
        "sram" => Some(OrgKind::SramTag),
        "ctlb" => Some(OrgKind::Tagless),
        "ctlb-lru" => Some(OrgKind::TaglessLru),
        "ideal" => Some(OrgKind::Ideal),
        _ => None,
    }
}

/// Resolves a workload name against the known profile sets
/// (case-insensitively, so `mix1` and `gemsfdtd` work from a shell).
fn parse_workload(s: &str) -> Option<Workload> {
    let find = |names: &[&str]| -> Option<String> {
        names
            .iter()
            .find(|n| n.eq_ignore_ascii_case(s))
            .map(|n| n.to_string())
    };
    if let Some(n) = find(&profiles::SPEC_NAMES) {
        return Some(Workload::Spec(n));
    }
    let mix_names: Vec<&str> = profiles::MIXES.iter().map(|(n, _)| *n).collect();
    if let Some(n) = find(&mix_names) {
        return Some(Workload::Mix(n));
    }
    find(&profiles::PARSEC_NAMES).map(Workload::Parsec)
}

/// Resolves a `<workload>/<org>` cell id into a runnable job.
fn build_job(cell: &str, cfg: RunConfig) -> Result<Job, String> {
    let (wl, org) = cell
        .split_once('/')
        .ok_or_else(|| format!("cell '{cell}' is not of the form <workload>/<org>"))?;
    let workload = parse_workload(wl)
        .ok_or_else(|| format!("unknown workload '{wl}' (try 'tdc list')"))?;
    let org = parse_org(org).ok_or_else(|| {
        format!("unknown organization '{org}' (expected nol3|bi|sram|ctlb|ctlb-lru|ideal)")
    })?;
    Ok(Job::new(workload, org, cfg))
}

/// Runs `tdc trace` with `args` (everything after the subcommand name).
/// Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let job = match cell_job(&opts.cell, opts.scale, opts.seed) {
        Ok(j) => j,
        Err(msg) => {
            eprintln!("tdc trace: {msg}");
            return 2;
        }
    };

    let recorder = match &opts.events {
        Some(groups) => Recorder::new(opts.epoch).with_groups(groups),
        None => Recorder::new(opts.epoch),
    };
    let probe = SharedProbe::new(recorder);
    eprintln!(
        "tdc trace: {} | epoch={} cycles | warmup={} measured={} refs/core",
        job.label(),
        opts.epoch,
        job.cfg.warmup_refs,
        job.cfg.measured_refs
    );
    let report = match run_job_probed(&job, probe.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tdc trace: {e}");
            return 1;
        }
    };
    let recorder = probe.into_recorder();

    let stem = format!(
        "{}_{}",
        sanitize(&report.workload),
        sanitize(&report.org)
    );
    let runs_dir = opts.out.join("runs");
    let trace_dir = opts.out.join("trace");
    if let Err(e) = fs::create_dir_all(&runs_dir).and_then(|()| fs::create_dir_all(&trace_dir)) {
        eprintln!("tdc trace: cannot create {}: {e}", opts.out.display());
        return 1;
    }

    let ts_path = runs_dir.join(format!("{stem}.timeseries.json"));
    let mut timeseries = recorder.timeseries_json();
    if let Json::Obj(pairs) = &mut timeseries {
        pairs.insert(0, ("cell".to_string(), Json::from(job.label())));
    }
    let trace_path = trace_dir.join(format!("{stem}.trace.json"));
    let written = fs::write(&ts_path, timeseries.pretty())
        .and_then(|()| fs::write(&trace_path, recorder.chrome_trace_json().to_compact()));
    if let Err(e) = written {
        eprintln!("tdc trace: write failed: {e}");
        return 1;
    }

    eprintln!(
        "tdc trace: {} events recorded ({} dropped), {} epochs | ipc={:.3}",
        recorder.total_events(),
        recorder.dropped(),
        recorder.epochs(),
        report.ipc_total()
    );
    eprintln!("tdc trace: wrote {}", ts_path.display());
    eprintln!("tdc trace: wrote {}", trace_path.display());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_cell_and_flags() {
        let o = parse(&strs(&[
            "mcf/ctlb", "--epoch", "500", "--events", "fill,queue", "--scale", "0.1", "--seed",
            "7", "--out", "x",
        ]))
        .unwrap();
        assert_eq!(o.cell, "mcf/ctlb");
        assert_eq!(o.epoch, 500);
        assert_eq!(
            o.events,
            Some(vec![EventGroup::Fill, EventGroup::Queue])
        );
        assert_eq!(o.scale, Some(0.1));
        assert_eq!(o.seed, 7);
        assert_eq!(o.out, PathBuf::from("x"));
    }

    #[test]
    fn rejects_bad_cells_and_flags() {
        assert!(parse(&[]).is_err());
        assert!(parse(&strs(&["--epoch", "0"])).is_err());
        assert!(parse(&strs(&["x", "--events", "bogus"])).is_err());
        assert!(build_job("mcf", RunConfig::quick(1)).is_err());
        assert!(build_job("nosuch/ctlb", RunConfig::quick(1)).is_err());
        assert!(build_job("mcf/nosuch", RunConfig::quick(1)).is_err());
    }

    #[test]
    fn resolves_workload_classes_case_insensitively() {
        assert_eq!(
            parse_workload("mix1"),
            Some(Workload::Mix("MIX1".into()))
        );
        assert_eq!(
            parse_workload("gemsfdtd"),
            Some(Workload::Spec("GemsFDTD".into()))
        );
        assert_eq!(
            parse_workload("streamcluster"),
            Some(Workload::Parsec("streamcluster".into()))
        );
        assert_eq!(parse_workload("nosuch"), None);
    }

    #[test]
    fn org_labels_cover_the_comparison_set() {
        for (label, org) in [
            ("nol3", OrgKind::NoL3),
            ("BI", OrgKind::BankInterleave),
            ("sram", OrgKind::SramTag),
            ("cTLB", OrgKind::Tagless),
            ("ctlb-lru", OrgKind::TaglessLru),
            ("ideal", OrgKind::Ideal),
        ] {
            assert_eq!(parse_org(label), Some(org));
        }
    }
}
