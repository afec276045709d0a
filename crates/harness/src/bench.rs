//! `tdc bench` — the simulator's host-time cost, measured and compared
//! between two records taken on one host (DESIGN.md §11).
//!
//! Two subcommands over one record format:
//!
//! * `tdc bench run` executes every micro kernel from
//!   [`crate::kernels`] plus a small fixed set of figure-job cells
//!   (through the existing worker pool, [`crate::pool::run_batch`]),
//!   each repeated until [`tdc_util::stats::median_window_stable`]
//!   settles, and writes one pretty-printed record — git SHA, dirty
//!   flag, figure scale, host fingerprint, per-bench median + spread —
//!   to `results/bench.json` (`--out` to redirect).
//! * `tdc bench check BASE CURRENT` compares two record files as a pure
//!   function: a bench regresses only when its current median exceeds
//!   the base median by more than the **base record's spread** plus a
//!   relative `--margin` (default 25%). The current record's spread
//!   stays out of the threshold, so a slowdown cannot widen its own
//!   band. The pair is refused unless both records share `host`,
//!   `scale` and `format_version`. Exits 1 on a regression, a missing
//!   bench or a refused pair.
//!
//! The record schema is pinned three ways: [`RECORD_FIELDS`] /
//! [`RECORD_VERSION`] here, prose in DESIGN.md §11, and the root
//! `tests/design_sync.rs`, which fails whenever the two drift in
//! either direction.
//!
//! Records are deterministic apart from the timings themselves: no
//! wall-clock timestamps, no environment beyond the host fingerprint.

use std::path::{Path, PathBuf};
use std::process::Command;
use tdc_core::experiment::{Job, OrgKind, RunConfig, Workload};
use tdc_util::stats::{is_improvement, is_regression, median, regression_threshold, spread};
use tdc_util::Json;

use crate::kernels::{measure, micro_kernels, Timing};
use crate::SEED;

/// Version stamped into every record (bump on schema change or when a
/// bench starts measuring something else, and keep DESIGN.md §11 in
/// sync — `tests/design_sync.rs` checks).
pub const RECORD_VERSION: u64 = 2;

/// Top-level record fields, in serialization order.
/// `tests/design_sync.rs` keeps this list equal to the DESIGN.md §11
/// prose.
pub const RECORD_FIELDS: [&str; 7] = [
    "format_version",
    "git_sha",
    "dirty",
    "scale",
    "host",
    "timing",
    "benches",
];

/// Per-bench entry fields, in serialization order (pinned by unit
/// test; documented in DESIGN.md §11 below the record block).
pub const BENCH_FIELDS: [&str; 9] = [
    "kind",
    "group",
    "name",
    "iters",
    "runs",
    "ns_per_op_median",
    "ns_per_op_spread",
    "ns_per_op_min",
    "ns_per_op_max",
];

/// Default relative regression margin on top of the base spread.
pub const DEFAULT_MARGIN: f64 = 0.25;

/// Default figure scale for the figure-job cells: small enough for CI,
/// large enough to exercise the full translate/access/refill path.
pub const DEFAULT_FIGURE_SCALE: f64 = 0.02;

/// The fixed figure-job cells timed by `tdc bench run`: the paper's
/// headline path (tagless cTLB), the baseline it is normalized against
/// (No L3), and the SRAM-tag organization it is compared with.
const FIGURE_CELLS: [(&str, OrgKind, &str); 3] = [
    ("mcf", OrgKind::Tagless, "mcf_ctlb"),
    ("mcf", OrgKind::NoL3, "mcf_nol3"),
    ("libquantum", OrgKind::SramTag, "libquantum_sram"),
];

const USAGE: &str = "\
tdc bench — measure the simulator's host-time cost; compare two records

USAGE:
    tdc bench run   [--out FILE] [--scale F] [--jobs N] [--quiet]
    tdc bench check BASE CURRENT [--margin F]

RUN OPTIONS:
    --out FILE   Where the record is written (default: results/bench.json)
    --scale F    Figure-cell run-length scale (default: 0.02)
    --jobs N     Worker threads for the figure cells (default: 1,
                 the low-noise choice)
    --quiet      Suppress per-bench progress lines

CHECK:
    BASE CURRENT Two records written by 'tdc bench run' on one host at
                 one scale; exit 1 when CURRENT regresses against BASE
    --margin F   Relative regression margin beyond BASE's recorded
                 spread (default: 0.25)

Timing knobs (env): TDC_BENCH_RUNS (min runs, default 3),
TDC_BENCH_MAX_RUNS (cap, default 10), TDC_BENCH_ITERS_SCALE
(iteration-budget multiplier, default 1.0). See BENCHMARKS.md.";

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// One bench's aggregated timing across repeated runs.
struct Measured {
    /// `"micro"` (kernel registry) or `"figure"` (figure-job cell).
    kind: &'static str,
    group: String,
    name: String,
    iters: u64,
    /// ns/op per run, in execution order.
    runs: Vec<f64>,
}

impl Measured {
    fn id(&self) -> String {
        format!("{}/{}", self.group, self.name)
    }

    fn median(&self) -> f64 {
        median(&self.runs)
    }

    fn spread(&self) -> f64 {
        spread(&self.runs)
    }

    fn min(&self) -> f64 {
        self.runs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn max(&self) -> f64 {
        self.runs.iter().copied().fold(0.0, f64::max)
    }

    /// Serializes with exactly the [`BENCH_FIELDS`] keys, in order.
    fn json(&self) -> Json {
        Json::obj([
            ("kind", Json::from(self.kind)),
            ("group", Json::from(self.group.as_str())),
            ("name", Json::from(self.name.as_str())),
            ("iters", Json::from(self.iters)),
            ("runs", Json::from(self.runs.len())),
            ("ns_per_op_median", Json::from(self.median())),
            ("ns_per_op_spread", Json::from(self.spread())),
            ("ns_per_op_min", Json::from(self.min())),
            ("ns_per_op_max", Json::from(self.max())),
        ])
    }
}

// ---------------------------------------------------------------------------
// Commit stamp / host fingerprint
// ---------------------------------------------------------------------------

/// `(short sha, dirty)` for the working tree. Dirty means **tracked**
/// modifications (`git status --porcelain --untracked-files=no`):
/// generated artifacts like the record itself must not poison later
/// runs. When git is unavailable the stamp is `("unknown", true)`.
fn git_info() -> (String, bool) {
    let sha = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output();
    let sha = match sha {
        Ok(out) if out.status.success() => {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        }
        _ => return ("unknown".to_string(), true),
    };
    let dirty = match Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
    {
        Ok(out) if out.status.success() => !out.stdout.iter().all(u8::is_ascii_whitespace),
        _ => true,
    };
    (sha, dirty)
}

/// The host fingerprint: enough to tell whether two records are
/// comparable, nothing personally identifying.
fn host_json() -> Json {
    Json::obj([
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
        (
            "cpus",
            Json::from(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
        ),
    ])
}

/// Assembles one record with exactly the [`RECORD_FIELDS`] keys, in
/// order.
fn record_json(
    sha: &str,
    dirty: bool,
    scale: f64,
    host: Json,
    timing: &Timing,
    benches: &[Measured],
) -> Json {
    Json::obj([
        ("format_version", Json::from(RECORD_VERSION)),
        ("git_sha", Json::from(sha)),
        ("dirty", Json::from(dirty)),
        ("scale", Json::from(scale)),
        ("host", host),
        (
            "timing",
            Json::obj([
                ("min_runs", Json::from(timing.min_runs)),
                ("max_runs", Json::from(timing.max_runs)),
                ("stable_window", Json::from(timing.window)),
                ("stable_tolerance", Json::from(timing.tolerance)),
            ]),
        ),
        ("benches", Json::Arr(benches.iter().map(Measured::json).collect())),
    ])
}

// ---------------------------------------------------------------------------
// tdc bench run
// ---------------------------------------------------------------------------

struct RunOpts {
    out: PathBuf,
    scale: f64,
    jobs: usize,
    quiet: bool,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        out: PathBuf::from("results").join("bench.json"),
        scale: DEFAULT_FIGURE_SCALE,
        jobs: 1,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--scale" => {
                let f = value("--scale")?
                    .parse::<f64>()
                    .map_err(|_| "--scale needs a number".to_string())?;
                if f <= 0.0 {
                    return Err("--scale must be positive".into());
                }
                opts.scale = f;
            }
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse::<usize>()
                    .map_err(|_| "--jobs needs a positive integer".to_string())?
                    .max(1)
            }
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown 'tdc bench run' argument '{other}'")),
        }
    }
    Ok(opts)
}

/// Times the figure-job cells through the worker pool: every
/// repetition executes the whole batch, recording per-job wall-clock
/// normalized to ns per simulated reference — warm-up plus measured,
/// over the cell's cores — until every cell's series is stable (or the
/// run cap is hit).
fn measure_figure_cells(
    scale: f64,
    jobs: usize,
    timing: &Timing,
) -> Result<Vec<Measured>, String> {
    let cfg = RunConfig::scaled(SEED, scale);
    let cells: Vec<Job> = FIGURE_CELLS
        .iter()
        .map(|(bench, org, _)| Job::new(Workload::Spec(bench.to_string()), *org, cfg))
        .collect();
    let mut refs = vec![0u64; cells.len()];
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    while series.iter().any(|s| timing.wants_more(s)) {
        let quiet = |_: usize, _: usize, _: &str, _: std::time::Duration| {};
        let (batch, _) = crate::pool::run_batch(&cells, jobs, &quiet);
        for (i, done) in batch.iter().enumerate() {
            let report = done
                .result
                .as_ref()
                .map_err(|e| format!("figure cell {} failed: {e}", cells[i].label()))?;
            refs[i] = report.cores.len() as u64 * (cfg.warmup_refs + cfg.measured_refs);
            series[i].push(done.elapsed.as_nanos() as f64 / refs[i] as f64);
        }
    }
    Ok(FIGURE_CELLS
        .iter()
        .zip(refs.into_iter().zip(series))
        .map(|((_, _, name), (iters, runs))| Measured {
            kind: "figure",
            group: "figure".to_string(),
            name: name.to_string(),
            iters,
            runs,
        })
        .collect())
}

fn cmd_run(opts: &RunOpts) -> Result<(), String> {
    let timing = Timing::from_env();
    let (sha, dirty) = git_info();
    let progress = |m: &Measured, unit: &str| {
        if !opts.quiet {
            println!(
                "  {:<36} {:>10.1} {unit} (median of {}, spread {:.1})",
                m.id(),
                m.median(),
                m.runs.len(),
                m.spread()
            );
        }
    };
    if !opts.quiet {
        println!(
            "tdc bench | {sha}{} | scale {} | {}..{} runs/bench",
            if dirty { " (dirty)" } else { "" },
            opts.scale,
            timing.min_runs,
            timing.max_runs
        );
    }

    let mut benches: Vec<Measured> = Vec::new();
    for kernel in micro_kernels() {
        let m = Measured {
            kind: "micro",
            group: kernel.group.to_string(),
            name: kernel.name.to_string(),
            iters: kernel.iters,
            runs: measure(&kernel, &timing),
        };
        progress(&m, "ns/op ");
        benches.push(m);
    }
    for m in measure_figure_cells(opts.scale, opts.jobs, &timing)? {
        progress(&m, "ns/ref");
        benches.push(m);
    }

    let record = record_json(&sha, dirty, opts.scale, host_json(), &timing, &benches);
    if let Some(dir) = opts.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, record.pretty())
        .map_err(|e| format!("cannot write {}: {e}", opts.out.display()))?;
    if !opts.quiet {
        println!("tdc bench: wrote {} ({} benches)", opts.out.display(), benches.len());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// tdc bench check
// ---------------------------------------------------------------------------

struct CheckOpts {
    base: PathBuf,
    current: PathBuf,
    margin: f64,
}

fn parse_check(args: &[String]) -> Result<CheckOpts, String> {
    let mut paths = Vec::new();
    let mut margin = DEFAULT_MARGIN;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--margin" => {
                let f = it
                    .next()
                    .ok_or("--margin needs a value")?
                    .parse::<f64>()
                    .map_err(|_| "--margin needs a number".to_string())?;
                if !(f.is_finite() && f >= 0.0) {
                    return Err("--margin must be a non-negative number".into());
                }
                margin = f;
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown 'tdc bench check' argument '{other}'"))
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [base, current] = <[PathBuf; 2]>::try_from(paths).map_err(|paths| {
        format!(
            "'tdc bench check' takes two record files, BASE and CURRENT ({} given)",
            paths.len()
        )
    })?;
    Ok(CheckOpts {
        base,
        current,
        margin,
    })
}

/// Reads and validates one record file.
fn read_record(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let record =
        Json::parse(&text).map_err(|e| format!("{}: malformed record: {e}", path.display()))?;
    validate_record(&record).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(record)
}

fn validate_record(record: &Json) -> Result<(), String> {
    if record.get("format_version").and_then(Json::as_u64).is_none() {
        return Err("record has no format_version".to_string());
    }
    match record.get("benches") {
        Some(Json::Arr(b)) if !b.is_empty() => Ok(()),
        _ => Err("record has no benches".to_string()),
    }
}

/// Refuses a pair whose timings measure different things: another
/// host, another figure scale or another record format.
fn check_comparable(base: &Json, current: &Json) -> Result<(), String> {
    for field in ["format_version", "host", "scale"] {
        let (b, c) = (base.get(field), current.get(field));
        if b != c {
            let show = |v: Option<&Json>| v.map_or("nothing".to_string(), Json::to_compact);
            return Err(format!(
                "{field} mismatch: BASE has {} but CURRENT has {}; compare two records \
                 from one host, at one scale, in one format",
                show(b),
                show(c)
            ));
        }
    }
    Ok(())
}

/// `sha`, marked when the record was taken on a dirty tree.
fn provenance(record: &Json) -> String {
    let sha = record
        .get("git_sha")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    match record.get("dirty") {
        Some(Json::Bool(true)) => format!("{sha} (dirty)"),
        _ => sha.to_string(),
    }
}

/// One compared bench in the check report.
struct Row {
    id: String,
    baseline: Option<f64>,
    current: Option<f64>,
    threshold: f64,
    verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Improved,
    Regression,
    /// In the current record but not the base (informational).
    New,
    /// In the base but not the current record (gates like a
    /// regression: a silently dropped bench must not pass).
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::New => "new",
            Verdict::Missing => "MISSING",
        }
    }
}

/// `(id, median, spread)` per bench entry, in record order.
fn bench_stats(record: &Json) -> Vec<(String, f64, f64)> {
    let Some(Json::Arr(entries)) = record.get("benches") else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            let group = e.get("group")?.as_str()?;
            let name = e.get("name")?.as_str()?;
            let med = e.get("ns_per_op_median")?.as_f64()?;
            let spr = e.get("ns_per_op_spread")?.as_f64()?;
            Some((format!("{group}/{name}"), med, spr))
        })
        .collect()
}

/// Compares the current record against the base. Pure — exercised
/// directly by the unit tests, and by `tdc bench check`.
///
/// Noise model: a bench regresses only when its current median exceeds
/// `base_median + base_spread + margin * base_median`
/// ([`tdc_util::stats::is_regression`]). Only the base's spread is the
/// noise band; the current spread grows with a slowdown, so counting it
/// would let a slowdown hide itself.
fn compare_records(base: &Json, current: &Json, margin: f64) -> Vec<Row> {
    let base = bench_stats(base);
    let cur = bench_stats(current);
    let mut rows = Vec::new();
    for (id, b_med, b_spr) in &base {
        let c_med = cur.iter().find(|(cid, _, _)| cid == id).map(|(_, m, _)| *m);
        let verdict = match c_med {
            None => Verdict::Missing,
            Some(c) if is_regression(c, *b_med, *b_spr, margin) => Verdict::Regression,
            Some(c) if is_improvement(c, *b_med, *b_spr, margin) => Verdict::Improved,
            Some(_) => Verdict::Ok,
        };
        rows.push(Row {
            id: id.clone(),
            baseline: Some(*b_med),
            current: c_med,
            threshold: regression_threshold(*b_med, *b_spr, margin),
            verdict,
        });
    }
    for (id, c_med, _) in &cur {
        if !base.iter().any(|(bid, _, _)| bid == id) {
            rows.push(Row {
                id: id.clone(),
                baseline: None,
                current: Some(*c_med),
                threshold: f64::INFINITY,
                verdict: Verdict::New,
            });
        }
    }
    rows
}

fn print_table(rows: &[Row]) {
    println!(
        "{:<36} {:>12} {:>12} {:>12}   verdict",
        "bench", "base", "current", "threshold"
    );
    let fmt = |v: Option<f64>| match v {
        Some(v) => format!("{v:.1}"),
        None => "-".to_string(),
    };
    for row in rows {
        println!(
            "{:<36} {:>12} {:>12} {:>12}   {}",
            row.id,
            fmt(row.baseline),
            fmt(row.current),
            fmt(Some(row.threshold).filter(|t| t.is_finite())),
            row.verdict.label()
        );
    }
}

fn cmd_check(opts: &CheckOpts) -> Result<i32, String> {
    let base = read_record(&opts.base)?;
    let current = read_record(&opts.current)?;
    check_comparable(&base, &current)?;

    let rows = compare_records(&base, &current, opts.margin);
    println!(
        "tdc bench check | base {} vs current {} | margin {:.0}%",
        provenance(&base),
        provenance(&current),
        opts.margin * 100.0
    );
    print_table(&rows);
    let regressions = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Regression | Verdict::Missing))
        .count();
    let improved = rows.iter().filter(|r| r.verdict == Verdict::Improved).count();
    println!(
        "tdc bench check: {} compared, {} regressed, {} improved",
        rows.len(),
        regressions,
        improved
    );
    Ok(i32::from(regressions > 0))
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs `tdc bench` with `args` (without the leading `bench`). Returns
/// the process exit code: 0 on success, 1 on a failed run, a regression
/// or a refused pair, 2 on a usage error.
pub fn run(args: &[String]) -> i32 {
    let (verb, outcome) = match args.first().map(String::as_str) {
        Some("run") => ("run", parse_run(&args[1..]).map(|o| cmd_run(&o).map(|()| 0))),
        Some("check") => ("check", parse_check(&args[1..]).map(|o| cmd_check(&o))),
        Some(other) => {
            eprintln!("tdc bench: unknown argument '{other}'\n\n{USAGE}");
            return 2;
        }
        None => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(Ok(code)) => code,
        Ok(Err(e)) => {
            eprintln!("tdc bench {verb}: {e}");
            1
        }
        Err(msg) => {
            eprintln!("tdc bench: {msg}");
            if msg == USAGE {
                0
            } else {
                2
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(group: &str, name: &str, runs: &[f64]) -> Measured {
        Measured {
            kind: "micro",
            group: group.to_string(),
            name: name.to_string(),
            iters: 1000,
            runs: runs.to_vec(),
        }
    }

    fn record_with(benches: &[Measured]) -> Json {
        let timing = Timing {
            min_runs: 3,
            max_runs: 10,
            window: 3,
            tolerance: 0.02,
        };
        record_json("abc123", false, 0.02, host_json(), &timing, benches)
    }

    #[test]
    fn record_has_exactly_the_documented_fields() {
        let record = record_with(&[measured("g", "n", &[1.0, 2.0, 3.0])]);
        let Json::Obj(pairs) = &record else {
            panic!("record must be an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, RECORD_FIELDS, "record fields drifted from RECORD_FIELDS");
        let Some(Json::Arr(benches)) = record.get("benches") else {
            panic!("benches must be an array")
        };
        let Json::Obj(entry) = &benches[0] else {
            panic!("bench entry must be an object")
        };
        let keys: Vec<&str> = entry.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, BENCH_FIELDS, "bench entry fields drifted from BENCH_FIELDS");
    }

    #[test]
    fn record_roundtrips_through_its_file_format() {
        let record = record_with(&[measured("g", "n", &[1.5, 2.5])]);
        let back = Json::parse(&record.pretty()).expect("round-trips");
        assert_eq!(record, back);
        assert!(validate_record(&back).is_ok());
    }

    #[test]
    fn validate_rejects_unversioned_and_empty_records() {
        assert!(validate_record(&record_with(&[])).is_err());
        assert!(validate_record(&Json::obj([("x", Json::from(1u64))])).is_err());
    }

    #[test]
    fn compare_flags_regressions_outside_the_base_spread() {
        let base = record_with(&[measured("g", "fast", &[100.0, 102.0, 104.0])]);
        // Median 110 vs base 102: inside 102 + 4 + 0.25*102.
        let ok = record_with(&[measured("g", "fast", &[106.0, 110.0, 114.0])]);
        let rows = compare_records(&base, &ok, 0.25);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        // Median 200 is far outside the band.
        let slow = record_with(&[measured("g", "fast", &[198.0, 200.0, 202.0])]);
        let rows = compare_records(&base, &slow, 0.25);
        assert_eq!(rows[0].verdict, Verdict::Regression);
        // ... and a much faster run counts as improved.
        let quick = record_with(&[measured("g", "fast", &[50.0, 51.0, 52.0])]);
        let rows = compare_records(&base, &quick, 0.25);
        assert_eq!(rows[0].verdict, Verdict::Improved);
    }

    #[test]
    fn a_uniform_slowdown_cannot_widen_its_own_band() {
        // Base median 10, spread 20: the threshold is 10 + 20 + 2.5.
        // Every current run ten times slower has median 100 and spread
        // 200, which would lift a threshold that counted it to 232.5.
        let base = record_with(&[measured("g", "noisy", &[10.0, 10.0, 30.0])]);
        let slow = record_with(&[measured("g", "noisy", &[100.0, 100.0, 300.0])]);
        let rows = compare_records(&base, &slow, 0.25);
        assert_eq!(rows[0].threshold, 32.5);
        assert_eq!(rows[0].verdict, Verdict::Regression);
    }

    #[test]
    fn compare_reports_missing_and_new_benches() {
        let base = record_with(&[
            measured("g", "kept", &[10.0, 10.0, 10.0]),
            measured("g", "dropped", &[10.0, 10.0, 10.0]),
        ]);
        let cur = record_with(&[
            measured("g", "kept", &[10.0, 10.0, 10.0]),
            measured("g", "added", &[10.0, 10.0, 10.0]),
        ]);
        let rows = compare_records(&base, &cur, 0.25);
        let verdict = |name: &str| {
            rows.iter()
                .find(|r| r.id == format!("g/{name}"))
                .map(|r| r.verdict)
        };
        assert_eq!(verdict("kept"), Some(Verdict::Ok));
        assert_eq!(verdict("dropped"), Some(Verdict::Missing));
        assert_eq!(verdict("added"), Some(Verdict::New));
    }

    #[test]
    fn compare_margin_is_monotone() {
        // A bench flagged at a high margin must be flagged at every
        // lower margin too (the gate only loosens as margin grows).
        let base = record_with(&[measured("g", "n", &[100.0, 101.0, 102.0])]);
        let cur = record_with(&[measured("g", "n", &[130.0, 131.0, 132.0])]);
        let flagged_at = |margin: f64| {
            compare_records(&base, &cur, margin)[0].verdict == Verdict::Regression
        };
        let margins = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0];
        let mut seen_pass = false;
        for m in margins {
            if !flagged_at(m) {
                seen_pass = true;
            } else {
                assert!(
                    !seen_pass,
                    "margin {m} flags a regression that a smaller margin passed"
                );
            }
        }
        assert!(flagged_at(0.0), "30% slowdown must fail with zero margin");
        assert!(!flagged_at(1.0), "30% slowdown must pass with 100% margin");
    }

    #[test]
    fn compare_zero_baseline_median_uses_spread_only() {
        let base = record_with(&[measured("g", "n", &[0.0, 0.0, 0.0])]);
        let same = record_with(&[measured("g", "n", &[0.0, 0.0, 0.0])]);
        assert_eq!(compare_records(&base, &same, 0.25)[0].verdict, Verdict::Ok);
        let worse = record_with(&[measured("g", "n", &[1.0, 1.0, 1.0])]);
        assert_eq!(
            compare_records(&base, &worse, 0.25)[0].verdict,
            Verdict::Regression
        );
    }

    #[test]
    fn parse_check_takes_two_paths_and_a_margin() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = parse_check(&args(&["b.json", "--margin", "0.5", "c.json"])).expect("valid");
        assert_eq!(o.base, PathBuf::from("b.json"));
        assert_eq!(o.current, PathBuf::from("c.json"));
        assert_eq!(o.margin, 0.5);
        assert!(parse_check(&args(&["b.json", "c.json", "--margin", "-1"])).is_err());
        assert!(parse_check(&args(&["b.json"])).is_err());
        assert!(parse_check(&args(&["a", "b", "c"])).is_err());
        assert!(parse_check(&args(&["b.json", "c.json", "--update"])).is_err());
    }
}
