//! The `tdc prof` subcommand: wall-time phase attribution for one cell.
//!
//! ```text
//! tdc prof mcf/ctlb --scale 0.1        # where does the wall time go?
//! tdc prof MIX1/sram --min-attributed 95
//! ```
//!
//! Runs one figure cell with a [`ProfProbe`] installed and reports how
//! the run's wall time splits across the closed set of
//! [`Phase`]s — translation, cTLB, GIPT, cache access, DRAM timing,
//! bookkeeping — as a table on stderr plus a machine-readable
//! `<out>/prof.json`. The probe collects host-time spans only
//! (`Probe::enabled` stays false), so the profiled run's `RunReport`
//! is byte-identical to an unprobed run's; the probes test pins this.
//!
//! Attribution is honest: the denominator is the wall time of the
//! whole job execution measured here (setup included), and the
//! numerator is the sum of per-phase *self* times — nested spans
//! subtract, so nothing is double-counted. The CI gate requires ≥ 95%
//! of wall time to land in named phases (`--min-attributed`).

use std::fs;
use std::path::PathBuf;
use std::time::Instant;
use tdc_core::experiment::run_job_probed;
use tdc_util::obs::{saturating_nanos, ProfProbe, ProfRecorder};
use tdc_util::probe::Phase;
use tdc_util::Json;

use crate::trace::{cell_job, CellArgs};

/// Schema version stamped on `prof.json`.
pub const PROF_VERSION: u64 = 1;

const USAGE: &str = "\
tdc prof — phase-attribution profile of one figure cell

USAGE:
    tdc prof <WORKLOAD>/<ORG> [OPTIONS]

CELL:
    WORKLOAD    a SPEC benchmark (mcf, milc, …), a mix (MIX1..MIX8),
                or a PARSEC benchmark (streamcluster, …)
    ORG         nol3 | bi | sram | ctlb | ctlb-lru | ideal

OPTIONS:
    --scale F             Run-length scale factor (default: TDC_SCALE env or 1.0)
    --seed S              Master seed (default: 2015)
    --out DIR             Artifact directory (default: results)
    --min-attributed PCT  Exit non-zero unless at least PCT% of wall
                          time lands in named phases (default: none)
    -h, --help            Show this help

Prints a phase table and writes <out>/prof.json. The non-tagless
organizations attribute their whole L3 path to translation/cache-access
(their internals are unprobed).";

struct ProfOptions {
    cell: String,
    scale: Option<f64>,
    seed: u64,
    out: PathBuf,
    min_attributed: Option<f64>,
}

fn parse(args: &[String]) -> Result<ProfOptions, String> {
    let mut min_attributed = None;
    let CellArgs { cell, scale, seed, out } = CellArgs::parse(args, USAGE, |flag, value| {
        if flag != "--min-attributed" {
            return Ok(false);
        }
        let pct = value()?
            .parse::<f64>()
            .ok()
            .filter(|p| (0.0..=100.0).contains(p))
            .ok_or("--min-attributed needs a percentage in 0..=100")?;
        min_attributed = Some(pct);
        Ok(true)
    })?;
    Ok(ProfOptions { cell, scale, seed, out, min_attributed })
}

/// Builds the machine-readable report: phase self-times, call counts,
/// shares of wall time, and per-span latency quantiles.
pub fn prof_json(cell: &str, wall_ns: u64, rec: &ProfRecorder) -> Json {
    let attributed_ns = rec.attributed_ns();
    let pct = |ns: u64| {
        if wall_ns == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / wall_ns as f64
        }
    };
    Json::obj([
        ("format_version", Json::from(PROF_VERSION)),
        ("cell", Json::from(cell)),
        ("wall_ns", Json::from(wall_ns)),
        ("attributed_ns", Json::from(attributed_ns)),
        ("attributed_pct", Json::from(pct(attributed_ns))),
        (
            "phases",
            Json::arr(Phase::ALL.iter().map(|&phase| {
                let h = rec.histogram(phase);
                Json::obj([
                    ("phase", Json::from(phase.name())),
                    ("self_ns", Json::from(rec.self_ns(phase))),
                    ("calls", Json::from(rec.calls(phase))),
                    ("share_pct", Json::from(pct(rec.self_ns(phase)))),
                    ("p50_ns", Json::from(h.quantile(0.50))),
                    ("p90_ns", Json::from(h.quantile(0.90))),
                    ("p99_ns", Json::from(h.quantile(0.99))),
                    ("max_ns", Json::from(h.max())),
                ])
            })),
        ),
    ])
}

/// Renders the human-readable phase table.
pub fn render_table(cell: &str, wall_ns: u64, rec: &ProfRecorder) -> String {
    let mut out = String::new();
    let pct = |ns: u64| {
        if wall_ns == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / wall_ns as f64
        }
    };
    out.push_str(&format!(
        "phase attribution for {cell} (wall {:.1} ms)\n",
        wall_ns as f64 / 1e6
    ));
    out.push_str(&format!(
        "{:<14} {:>10} {:>8} {:>12} {:>10} {:>10}\n",
        "phase", "self ms", "share", "calls", "p50 ns", "p99 ns"
    ));
    for &phase in &Phase::ALL {
        let h = rec.histogram(phase);
        out.push_str(&format!(
            "{:<14} {:>10.2} {:>7.1}% {:>12} {:>10} {:>10}\n",
            phase.name(),
            rec.self_ns(phase) as f64 / 1e6,
            pct(rec.self_ns(phase)),
            rec.calls(phase),
            h.quantile(0.50),
            h.quantile(0.99),
        ));
    }
    out.push_str(&format!(
        "{:<14} {:>10.2} {:>7.1}%\n",
        "attributed",
        rec.attributed_ns() as f64 / 1e6,
        pct(rec.attributed_ns()),
    ));
    out
}

/// Runs `tdc prof` with `args` (everything after the subcommand name).
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
            eprintln!("tdc prof: {msg}");
            return 2;
        }
    };
    eprintln!(
        "tdc prof: {} | warmup={} measured={} refs/core",
        job.label(),
        job.cfg.warmup_refs,
        job.cfg.measured_refs
    );

    let probe = ProfProbe::new();
    #[expect(clippy::disallowed_methods, reason = "profiling the host run itself")]
    let started = Instant::now();
    let report = match run_job_probed(&job, probe.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tdc prof: {e}");
            return 1;
        }
    };
    let wall_ns = saturating_nanos(started.elapsed());
    let rec = probe.into_recorder();

    eprint!("{}", render_table(&job.label(), wall_ns, &rec));
    eprintln!("tdc prof: ipc={:.3}", report.ipc_total());

    if let Err(e) = fs::create_dir_all(&opts.out) {
        eprintln!("tdc prof: cannot create {}: {e}", opts.out.display());
        return 1;
    }
    let path = opts.out.join("prof.json");
    if let Err(e) = fs::write(&path, prof_json(&job.label(), wall_ns, &rec).pretty()) {
        eprintln!("tdc prof: write failed: {e}");
        return 1;
    }
    eprintln!("tdc prof: wrote {}", path.display());

    if let Some(min) = opts.min_attributed {
        let pct = if wall_ns == 0 {
            0.0
        } else {
            rec.attributed_ns() as f64 * 100.0 / wall_ns as f64
        };
        if pct < min {
            eprintln!(
                "tdc prof: only {pct:.1}% of wall time attributed (< {min}%)"
            );
            return 1;
        }
    }
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
            "mcf/ctlb",
            "--scale",
            "0.1",
            "--seed",
            "7",
            "--out",
            "x",
            "--min-attributed",
            "95",
        ]))
        .unwrap();
        assert_eq!(o.cell, "mcf/ctlb");
        assert_eq!(o.scale, Some(0.1));
        assert_eq!(o.seed, 7);
        assert_eq!(o.out, PathBuf::from("x"));
        assert_eq!(o.min_attributed, Some(95.0));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&[]).is_err());
        assert!(parse(&strs(&["x", "--min-attributed", "150"])).is_err());
        assert!(parse(&strs(&["x", "--scale", "-1"])).is_err());
        assert!(parse(&strs(&["x", "--bogus"])).is_err());
    }

    #[test]
    fn prof_json_shares_sum_to_attributed() {
        let mut rec = ProfRecorder::new();
        rec.record_span(Phase::Translation, 600);
        rec.record_span(Phase::Dram, 300);
        rec.record_span(Phase::Bookkeeping, 100);
        let doc = prof_json("mcf/ctlb", 1_000, &rec);
        assert_eq!(doc.get("attributed_ns").and_then(Json::as_u64), Some(1_000));
        let pct = doc
            .get("attributed_pct")
            .and_then(Json::as_f64)
            .expect("pct");
        assert!((pct - 100.0).abs() < 1e-9);
        let Some(Json::Arr(phases)) = doc.get("phases") else {
            panic!("phases missing")
        };
        assert_eq!(phases.len(), Phase::COUNT);
        let share_sum: f64 = phases
            .iter()
            .map(|p| p.get("share_pct").and_then(Json::as_f64).expect("share"))
            .sum();
        assert!((share_sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_every_phase() {
        let mut rec = ProfRecorder::new();
        rec.record_span(Phase::Ctlb, 1_000_000);
        let table = render_table("mcf/ctlb", 2_000_000, &rec);
        for &phase in &Phase::ALL {
            assert!(table.contains(phase.name()), "missing {}", phase.name());
        }
        assert!(table.contains("attributed"));
        assert!(table.contains("50.0%"));
    }
}
