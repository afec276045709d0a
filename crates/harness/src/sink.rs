//! Machine-readable artifacts: `RunReport` → JSON and the `results/`
//! directory layout.
//!
//! Layout written by [`write_results`]:
//!
//! ```text
//! results/
//!   index.json          run config, figure list, per-run file index
//!   fig07.json … amat.json   one summary per figure/table produced
//!   runs/<workload>_<org>_<hash>.json   one full RunReport per cell
//! ```
//!
//! Everything under `results/` is **deterministic**: file contents are
//! a pure function of `(figure set, seed, scale, cache size)` — never
//! of `--jobs`, wall-clock time, or scheduling. Byte-identical reruns
//! are the contract that makes `results/` diffable and usable as a
//! regression baseline.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tdc_core::{RunConfig, RunReport};
use tdc_util::Json;

use crate::figures::FigureData;

/// Serializes one simulation cell completely: identity, per-core
/// results, L3/DRAM statistics, energy, and the derived metrics the
/// figures plot.
pub fn report_json(key: &str, r: &RunReport) -> Json {
    let cores = Json::Arr(
        r.cores
            .iter()
            .map(|c| {
                Json::obj([
                    ("instrs", Json::from(c.instrs)),
                    ("cycles", Json::from(c.cycles)),
                    ("ipc", Json::from(c.ipc)),
                    ("l1_misses", Json::from(c.l1_misses)),
                    ("l2_misses", Json::from(c.l2_misses)),
                    ("tlb_penalty", Json::from(c.tlb_penalty)),
                    ("mem_stall", Json::from(c.mem_stall)),
                    ("refs", Json::from(c.refs)),
                ])
            })
            .collect(),
    );
    let l3 = Json::obj([
        ("demand_reads", Json::from(r.l3.demand_reads)),
        ("in_package_reads", Json::from(r.l3.in_package_reads)),
        ("demand_latency_sum", Json::from(r.l3.demand_latency_sum)),
        ("writebacks_in", Json::from(r.l3.writebacks_in)),
        ("page_fills", Json::from(r.l3.page_fills)),
        ("page_evictions", Json::from(r.l3.page_evictions)),
        ("dirty_page_writebacks", Json::from(r.l3.dirty_page_writebacks)),
        ("case_hit_hit", Json::from(r.l3.case_hit_hit)),
        ("case_hit_miss", Json::from(r.l3.case_hit_miss)),
        ("case_miss_hit", Json::from(r.l3.case_miss_hit)),
        ("case_miss_miss", Json::from(r.l3.case_miss_miss)),
        ("gipt_updates", Json::from(r.l3.gipt_updates)),
        ("tag_probes", Json::from(r.l3.tag_probes)),
        ("tag_energy_pj", Json::from(r.l3.tag_energy_pj)),
        ("stale_writebacks", Json::from(r.l3.stale_writebacks)),
        ("pu_suppressed_fills", Json::from(r.l3.pu_suppressed_fills)),
    ]);
    let dram = |s: &tdc_dram::DramStats| {
        Json::obj([
            ("reads", Json::from(s.reads)),
            ("writes", Json::from(s.writes)),
            ("row_hits", Json::from(s.row_hits)),
            ("row_closed", Json::from(s.row_closed)),
            ("row_conflicts", Json::from(s.row_conflicts)),
            ("bytes_read", Json::from(s.bytes_read)),
            ("bytes_written", Json::from(s.bytes_written)),
            ("energy_pj", Json::from(s.energy_pj)),
            ("bus_busy_cycles", Json::from(s.bus_busy_cycles)),
        ])
    };
    let energy = Json::obj([
        ("seconds", Json::from(r.energy.seconds)),
        ("core_j", Json::from(r.energy.core_j)),
        ("sram_j", Json::from(r.energy.sram_j)),
        ("dram_j", Json::from(r.energy.dram_j)),
        ("static_j", Json::from(r.energy.static_j)),
        ("total_j", Json::from(r.energy.total_j)),
        ("edp", Json::from(r.energy.edp)),
    ]);
    Json::obj([
        ("key", Json::from(key)),
        ("workload", Json::from(r.workload.as_str())),
        ("org", Json::from(r.org.as_str())),
        ("cores", cores),
        ("l3", l3),
        (
            "in_pkg",
            r.in_pkg.as_ref().map(&dram).unwrap_or(Json::Null),
        ),
        ("off_pkg", dram(&r.off_pkg)),
        ("energy", energy),
        (
            "derived",
            Json::obj([
                ("ipc_total", Json::from(r.ipc_total())),
                ("avg_l3_latency", Json::from(r.avg_l3_latency())),
                ("in_package_fraction", Json::from(r.in_package_fraction())),
                ("mpki", Json::from(r.mpki())),
                ("makespan_cycles", Json::from(r.makespan_cycles())),
            ]),
        ),
    ])
}

pub(crate) fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect()
}

/// The per-run artifact filename for a cache key: readable prefix plus
/// a hash of the full key (the key encodes config that the prefix
/// omits).
pub fn run_filename(key: &str, r: &RunReport) -> String {
    format!(
        "{}_{}_{:08x}.json",
        sanitize(&r.workload),
        sanitize(&r.org),
        tdc_util::fnv1a_64(key) as u32
    )
}

/// Parses one [`report_json`] document back into its cache key and
/// [`RunReport`] — the inverse `tdc --cache-dir` uses to warm-start a
/// harness cache from the result store ([`crate::store`]) without
/// re-simulating. `Err` names the first missing or mistyped field.
pub fn report_from_json(doc: &Json) -> Result<(String, RunReport), String> {
    fn f64_at(j: &Json, name: &str) -> Result<f64, String> {
        j.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field '{name}'"))
    }
    fn u64_at(j: &Json, name: &str) -> Result<u64, String> {
        j.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer field '{name}'"))
    }
    fn str_at<'a>(j: &'a Json, name: &str) -> Result<&'a str, String> {
        j.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field '{name}'"))
    }
    fn obj_at<'a>(j: &'a Json, name: &str) -> Result<&'a Json, String> {
        j.get(name).ok_or_else(|| format!("missing object '{name}'"))
    }
    fn dram_stats(j: &Json) -> Result<tdc_dram::DramStats, String> {
        Ok(tdc_dram::DramStats {
            reads: u64_at(j, "reads")?,
            writes: u64_at(j, "writes")?,
            row_hits: u64_at(j, "row_hits")?,
            row_closed: u64_at(j, "row_closed")?,
            row_conflicts: u64_at(j, "row_conflicts")?,
            bytes_read: u64_at(j, "bytes_read")?,
            bytes_written: u64_at(j, "bytes_written")?,
            energy_pj: f64_at(j, "energy_pj")?,
            bus_busy_cycles: u64_at(j, "bus_busy_cycles")?,
        })
    }

    let key = str_at(doc, "key")?.to_string();
    let cores = match obj_at(doc, "cores")? {
        Json::Arr(items) => items
            .iter()
            .map(|c| {
                Ok(tdc_core::CoreResult {
                    instrs: u64_at(c, "instrs")?,
                    cycles: u64_at(c, "cycles")?,
                    ipc: f64_at(c, "ipc")?,
                    l1_misses: u64_at(c, "l1_misses")?,
                    l2_misses: u64_at(c, "l2_misses")?,
                    tlb_penalty: u64_at(c, "tlb_penalty")?,
                    mem_stall: u64_at(c, "mem_stall")?,
                    refs: u64_at(c, "refs")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("'cores' is not an array".into()),
    };
    let l3j = obj_at(doc, "l3")?;
    let l3 = tdc_core::L3Stats {
        demand_reads: u64_at(l3j, "demand_reads")?,
        in_package_reads: u64_at(l3j, "in_package_reads")?,
        demand_latency_sum: u64_at(l3j, "demand_latency_sum")?,
        writebacks_in: u64_at(l3j, "writebacks_in")?,
        page_fills: u64_at(l3j, "page_fills")?,
        page_evictions: u64_at(l3j, "page_evictions")?,
        dirty_page_writebacks: u64_at(l3j, "dirty_page_writebacks")?,
        case_hit_hit: u64_at(l3j, "case_hit_hit")?,
        case_hit_miss: u64_at(l3j, "case_hit_miss")?,
        case_miss_hit: u64_at(l3j, "case_miss_hit")?,
        case_miss_miss: u64_at(l3j, "case_miss_miss")?,
        gipt_updates: u64_at(l3j, "gipt_updates")?,
        tag_probes: u64_at(l3j, "tag_probes")?,
        tag_energy_pj: f64_at(l3j, "tag_energy_pj")?,
        stale_writebacks: u64_at(l3j, "stale_writebacks")?,
        pu_suppressed_fills: u64_at(l3j, "pu_suppressed_fills")?,
    };
    let in_pkg = match obj_at(doc, "in_pkg")? {
        Json::Null => None,
        j => Some(dram_stats(j)?),
    };
    let off_pkg = dram_stats(obj_at(doc, "off_pkg")?)?;
    let ej = obj_at(doc, "energy")?;
    let energy = tdc_core::EnergyReport {
        seconds: f64_at(ej, "seconds")?,
        core_j: f64_at(ej, "core_j")?,
        sram_j: f64_at(ej, "sram_j")?,
        dram_j: f64_at(ej, "dram_j")?,
        static_j: f64_at(ej, "static_j")?,
        total_j: f64_at(ej, "total_j")?,
        edp: f64_at(ej, "edp")?,
    };
    let report = RunReport {
        org: str_at(doc, "org")?.to_string(),
        workload: str_at(doc, "workload")?.to_string(),
        cores,
        l3,
        in_pkg,
        off_pkg,
        energy,
    };
    Ok((key, report))
}

/// Serializes the run configuration (part of every artifact's
/// provenance).
pub fn config_json(cfg: &RunConfig) -> Json {
    Json::obj([
        ("seed", Json::from(cfg.seed)),
        ("cache_bytes", Json::from(cfg.cache_bytes)),
        ("warmup_refs", Json::from(cfg.warmup_refs)),
        ("measured_refs", Json::from(cfg.measured_refs)),
    ])
}

/// Writes every artifact for one harness invocation: per-figure
/// summaries, per-run reports, and the index. Returns the paths
/// written.
pub fn write_results(
    dir: &Path,
    cfg: &RunConfig,
    figures: &[FigureData],
    runs: &[(String, Arc<RunReport>)],
) -> io::Result<Vec<PathBuf>> {
    let runs_dir = dir.join("runs");
    fs::create_dir_all(&runs_dir)?;
    let mut written = Vec::new();

    for fig in figures {
        let path = dir.join(format!("{}.json", fig.id));
        fs::write(&path, fig.json.pretty())?;
        written.push(path);
    }

    let mut run_files = Vec::new();
    for (key, report) in runs {
        let name = run_filename(key, report);
        let path = runs_dir.join(&name);
        fs::write(&path, report_json(key, report).pretty())?;
        run_files.push(Json::obj([
            ("key", Json::from(key.as_str())),
            ("file", Json::from(format!("runs/{name}"))),
        ]));
        written.push(runs_dir.join(name));
    }

    let index = Json::obj([
        ("config", config_json(cfg)),
        (
            "figures",
            Json::Arr(
                figures
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("id", Json::from(f.id)),
                            ("title", Json::from(f.title.as_str())),
                            ("file", Json::from(format!("{}.json", f.id))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("runs", Json::Arr(run_files)),
    ]);
    let index_path = dir.join("index.json");
    fs::write(&index_path, index.pretty())?;
    written.push(index_path);
    Ok(written)
}

/// Writes `results/metrics.json`: per-invocation execution telemetry
/// (wall/busy time, cache effectiveness, per-job timings).
///
/// This is the **one deliberately non-deterministic artifact** under
/// `results/` — it records how long this machine took, not what the
/// simulation produced — so regression tooling (`tdc diff`, the
/// determinism tests) must skip it.
pub fn write_metrics(
    dir: &Path,
    stats: &crate::harness::HarnessStats,
    jobs: usize,
    wall_seconds: f64,
    timings: &[(String, f64)],
    pools: &[(tdc_util::obs::PoolTelemetry, Vec<String>)],
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let per_job = Json::Arr(
        timings
            .iter()
            .map(|(label, secs)| {
                Json::obj([
                    ("label", Json::from(label.as_str())),
                    ("seconds", Json::from(*secs)),
                ])
            })
            .collect(),
    );
    let metrics = Json::obj([
        ("wall_seconds", Json::from(wall_seconds)),
        ("busy_seconds", Json::from(stats.busy.as_secs_f64())),
        ("requested", Json::from(stats.requested)),
        ("executed", Json::from(stats.executed)),
        ("cache_hits", Json::from(stats.cache_hits)),
        ("jobs", Json::from(jobs)),
        ("per_job", per_job),
        (
            "pool",
            Json::Arr(
                pools
                    .iter()
                    .map(|(telemetry, _)| telemetry.metrics_json())
                    .collect(),
            ),
        ),
    ]);
    let path = dir.join("metrics.json");
    fs::write(&path, metrics.pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_core::experiment::{Job, OrgKind, Workload};

    #[test]
    fn report_round_trips_through_json() {
        let cfg = RunConfig {
            seed: 3,
            cache_bytes: 64 << 20,
            warmup_refs: 1_000,
            measured_refs: 3_000,
        };
        let job = Job::new(Workload::Spec("milc".into()), OrgKind::Tagless, cfg);
        let report = job.execute().unwrap();
        let key = job.cache_key();
        let j = report_json(&key, &report);
        let text = j.pretty();
        let back = Json::parse(&text).expect("sink output parses");
        // Full structural round-trip…
        assert_eq!(back, j);
        // …and spot-check values survive exactly.
        assert_eq!(back.get("key").unwrap().as_str().unwrap(), key);
        assert_eq!(
            back.get("l3").unwrap().get("demand_reads").unwrap().as_u64().unwrap(),
            report.l3.demand_reads
        );
        assert_eq!(
            back.get("derived").unwrap().get("ipc_total").unwrap(),
            &Json::F64(report.ipc_total())
        );
    }

    #[test]
    fn filenames_are_stable_and_filesystem_safe() {
        let cfg = RunConfig::quick(1);
        let job = Job::new(Workload::Spec("milc".into()), OrgKind::NoL3, cfg);
        let report = job.execute().unwrap();
        let a = run_filename(&job.cache_key(), &report);
        let b = run_filename(&job.cache_key(), &report);
        assert_eq!(a, b);
        assert!(a.starts_with("milc_nol3_"), "unexpected filename {a}");
        assert!(a.chars().all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)));
    }
}
