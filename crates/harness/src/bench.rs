//! `tdc bench` — commit-stamped performance history with a noise-aware
//! regression gate (DESIGN.md §11).
//!
//! Three subcommands:
//!
//! * `tdc bench run` executes every micro kernel from
//!   [`crate::kernels`] plus a small fixed set of figure-job cells
//!   (through the existing worker pool, [`crate::pool::run_batch`]),
//!   each repeated until [`tdc_util::stats::median_window_stable`]
//!   settles, and appends one commit-stamped record — git SHA, dirty
//!   flag, figure scale, host fingerprint, per-bench median + spread —
//!   to `results/bench-history.jsonl`, also writing a pretty-printed
//!   `BENCH_<sha>.json` stamp for CI to publish.
//! * `tdc bench check` compares the latest history record against a
//!   checked-in baseline with noise-aware thresholds: a bench regresses
//!   only when its median lands outside the **combined recorded
//!   spread** (baseline + current) by a relative `--margin` (default
//!   25%). Exits non-zero on regression. `--update` rewrites the
//!   baseline from the latest record — and refuses when that record
//!   was taken on a dirty tree (override: `--allow-dirty`).
//! * `tdc bench history` renders the trajectory from the JSONL.
//!
//! The record schema is pinned three ways: [`RECORD_FIELDS`] /
//! [`RECORD_VERSION`] here, prose in DESIGN.md §11, and the
//! `schema-sync` lint rule that fails `tdc lint` whenever the two
//! drift in either direction.
//!
//! Records are deterministic apart from the timings themselves: no
//! wall-clock timestamps, no environment beyond the host fingerprint.
//! `TDC_BENCH_HANDICAP="group/name=FACTOR,..."` multiplies measured
//! timings after the fact — a test-only hook for exercising the
//! regression gate without actually slowing a kernel down.

use std::path::{Path, PathBuf};
use std::process::Command;
use tdc_core::experiment::{Job, OrgKind, RunConfig, Workload};
use tdc_util::stats::{geomean, is_improvement, is_regression, median, regression_threshold, spread};
use tdc_util::Json;

use crate::kernels::{measure, micro_kernels, Timing};
use crate::SEED;

/// Version stamped into every record (bump on schema change, and keep
/// DESIGN.md §11 in sync — the `schema-sync` lint rule checks).
pub const RECORD_VERSION: u64 = 1;

/// Top-level record fields, in serialization order. The `schema-sync`
/// lint rule keeps this list equal to the DESIGN.md §11 prose.
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

/// History file name under the artifact directory.
pub const HISTORY_FILE: &str = "bench-history.jsonl";

/// Default checked-in baseline path for `tdc bench check`.
pub const DEFAULT_BASELINE: &str = "baselines/bench-baseline.json";

/// Default relative regression margin on top of the recorded spread.
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
tdc bench — commit-stamped performance history with a regression gate

USAGE:
    tdc bench run     [--out DIR] [--stamp-dir DIR] [--scale F]
                      [--jobs N] [--quiet]
    tdc bench check   [--history FILE] [--baseline FILE] [--margin F]
                      [--update] [--allow-dirty] [--strict-host]
    tdc bench history [--history FILE] [--bench GROUP/NAME]

RUN OPTIONS:
    --out DIR        History directory (default: results; appends
                     bench-history.jsonl)
    --stamp-dir DIR  Where BENCH_<sha>.json is written (default: .)
    --scale F        Figure-cell run-length scale (default: 0.02)
    --jobs N         Worker threads for the figure cells (default: 1,
                     the low-noise choice)
    --quiet          Suppress per-bench progress lines

CHECK OPTIONS:
    --history FILE   History to read (default: results/bench-history.jsonl)
    --baseline FILE  Baseline to gate against
                     (default: baselines/bench-baseline.json)
    --margin F       Relative regression margin beyond the combined
                     spread (default: 0.25)
    --update         Rewrite the baseline from the latest record
                     (refused when the record is from a dirty tree)
    --allow-dirty    Override the dirty-tree refusal
    --strict-host    Gate even when the host fingerprint differs from
                     the baseline (default: informational only)

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

/// Parses `TDC_BENCH_HANDICAP` (`group/name=FACTOR,...`) into
/// `(id, factor)` pairs. Malformed entries are ignored.
fn parse_handicap(spec: &str) -> Vec<(String, f64)> {
    spec.split(',')
        .filter_map(|entry| {
            let (id, factor) = entry.split_once('=')?;
            let factor: f64 = factor.trim().parse().ok()?;
            if factor.is_finite() && factor > 0.0 && id.contains('/') {
                Some((id.trim().to_string(), factor))
            } else {
                None
            }
        })
        .collect()
}

/// Applies the `TDC_BENCH_HANDICAP` test hook to a measured series.
fn apply_handicap(m: &mut Measured, handicaps: &[(String, f64)]) {
    let id = m.id();
    for (bench, factor) in handicaps {
        if *bench == id {
            for r in &mut m.runs {
                *r *= factor;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Commit stamp / host fingerprint
// ---------------------------------------------------------------------------

/// `(short sha, dirty)` for the working tree. Dirty means **tracked**
/// modifications (`git status --porcelain --untracked-files=no`):
/// generated artifacts like `BENCH_<sha>.json` must not poison later
/// runs. When git is unavailable the stamp is `("unknown", true)` —
/// conservatively dirty, so it can never become a baseline silently.
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

/// Assembles one history record with exactly the [`RECORD_FIELDS`]
/// keys, in order.
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
    stamp_dir: PathBuf,
    scale: f64,
    jobs: usize,
    quiet: bool,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        out: PathBuf::from("results"),
        stamp_dir: PathBuf::from("."),
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
            "--stamp-dir" => opts.stamp_dir = PathBuf::from(value("--stamp-dir")?),
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
/// normalized to ns per measured reference, until every cell's series
/// is stable (or the run cap is hit).
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
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    while series.iter().any(|s| timing.wants_more(s)) {
        let quiet = |_: usize, _: usize, _: &str, _: std::time::Duration| {};
        let (batch, _) = crate::pool::run_batch(&cells, jobs, &quiet);
        for (i, done) in batch.iter().enumerate() {
            if let Err(e) = &done.result {
                return Err(format!("figure cell {} failed: {e}", cells[i].label()));
            }
            series[i].push(done.elapsed.as_nanos() as f64 / cfg.measured_refs as f64);
        }
    }
    Ok(FIGURE_CELLS
        .iter()
        .zip(series)
        .map(|((_, _, name), runs)| Measured {
            kind: "figure",
            group: "figure".to_string(),
            name: name.to_string(),
            iters: cfg.measured_refs,
            runs,
        })
        .collect())
}

fn cmd_run(opts: &RunOpts) -> Result<(), String> {
    let timing = Timing::from_env();
    let handicaps = std::env::var("TDC_BENCH_HANDICAP")
        .map(|s| parse_handicap(&s))
        .unwrap_or_default();
    let (sha, dirty) = git_info();
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
        let runs = measure(&kernel, &timing);
        let mut m = Measured {
            kind: "micro",
            group: kernel.group.to_string(),
            name: kernel.name.to_string(),
            iters: kernel.iters,
            runs,
        };
        apply_handicap(&mut m, &handicaps);
        if !opts.quiet {
            println!(
                "  {:<36} {:>10.1} ns/op  (median of {}, spread {:.1})",
                m.id(),
                m.median(),
                m.runs.len(),
                m.spread()
            );
        }
        benches.push(m);
    }
    for mut m in measure_figure_cells(opts.scale, opts.jobs, &timing)? {
        apply_handicap(&mut m, &handicaps);
        if !opts.quiet {
            println!(
                "  {:<36} {:>10.1} ns/ref (median of {}, spread {:.1})",
                m.id(),
                m.median(),
                m.runs.len(),
                m.spread()
            );
        }
        benches.push(m);
    }

    let record = record_json(&sha, dirty, opts.scale, host_json(), &timing, &benches);
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    let history = opts.out.join(HISTORY_FILE);
    let mut line = record.to_compact();
    line.push('\n');
    append_file(&history, &line)?;
    let stamp = opts.stamp_dir.join(format!("BENCH_{sha}.json"));
    std::fs::create_dir_all(&opts.stamp_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.stamp_dir.display()))?;
    std::fs::write(&stamp, record.pretty())
        .map_err(|e| format!("cannot write {}: {e}", stamp.display()))?;
    if !opts.quiet {
        println!("tdc bench: appended {} ({} benches)", history.display(), benches.len());
        println!("tdc bench: wrote {}", stamp.display());
    }
    Ok(())
}

fn append_file(path: &Path, text: &str) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    f.write_all(text.as_bytes())
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// tdc bench check
// ---------------------------------------------------------------------------

struct CheckOpts {
    history: PathBuf,
    baseline: PathBuf,
    margin: f64,
    update: bool,
    allow_dirty: bool,
    strict_host: bool,
}

fn parse_check(args: &[String]) -> Result<CheckOpts, String> {
    let mut opts = CheckOpts {
        history: PathBuf::from("results").join(HISTORY_FILE),
        baseline: PathBuf::from(DEFAULT_BASELINE),
        margin: DEFAULT_MARGIN,
        update: false,
        allow_dirty: false,
        strict_host: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--history" => opts.history = PathBuf::from(value("--history")?),
            "--baseline" => opts.baseline = PathBuf::from(value("--baseline")?),
            "--margin" => {
                let f = value("--margin")?
                    .parse::<f64>()
                    .map_err(|_| "--margin needs a number".to_string())?;
                if !(f.is_finite() && f >= 0.0) {
                    return Err("--margin must be a non-negative number".into());
                }
                opts.margin = f;
            }
            "--update" => opts.update = true,
            "--allow-dirty" => opts.allow_dirty = true,
            "--strict-host" => opts.strict_host = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown 'tdc bench check' argument '{other}'")),
        }
    }
    Ok(opts)
}

/// Reads and validates the most recent record from the history JSONL.
fn latest_record(history: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(history).map_err(|e| {
        format!(
            "cannot read {}: {e} (run `tdc bench run` first)",
            history.display()
        )
    })?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{} is empty", history.display()))?;
    let record = Json::parse(line)
        .map_err(|e| format!("{}: malformed last record: {e}", history.display()))?;
    validate_record(&record).map_err(|e| format!("{}: {e}", history.display()))?;
    Ok(record)
}

fn validate_record(record: &Json) -> Result<(), String> {
    match record.get("format_version").and_then(Json::as_u64) {
        Some(RECORD_VERSION) => {}
        Some(v) => {
            return Err(format!(
                "record format_version {v} does not match this binary's {RECORD_VERSION}"
            ))
        }
        None => return Err("record has no format_version".to_string()),
    }
    match record.get("benches") {
        Some(Json::Arr(b)) if !b.is_empty() => Ok(()),
        _ => Err("record has no benches".to_string()),
    }
}

fn record_is_dirty(record: &Json) -> bool {
    matches!(record.get("dirty"), Some(Json::Bool(true)))
}

fn record_sha(record: &Json) -> &str {
    record
        .get("git_sha")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
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
    /// In the current record but not the baseline (informational).
    New,
    /// In the baseline but not the current record (gates like a
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

/// Compares the current record against the baseline. Pure — exercised
/// directly by the unit tests, and by `tdc bench check`.
///
/// Noise model: a bench regresses only when its current median exceeds
/// `baseline_median + (baseline_spread + current_spread) +
/// margin * baseline_median` — i.e. outside the combined recorded
/// run-to-run spread by the relative margin
/// ([`tdc_util::stats::is_regression`]).
fn compare_records(baseline: &Json, current: &Json, margin: f64) -> Vec<Row> {
    let base = bench_stats(baseline);
    let cur = bench_stats(current);
    let mut rows = Vec::new();
    for (id, b_med, b_spr) in &base {
        let found = cur.iter().find(|(cid, _, _)| cid == id);
        match found {
            None => rows.push(Row {
                id: id.clone(),
                baseline: Some(*b_med),
                current: None,
                threshold: regression_threshold(*b_med, *b_spr, margin),
                verdict: Verdict::Missing,
            }),
            Some((_, c_med, c_spr)) => {
                let noise = b_spr + c_spr;
                let verdict = if is_regression(*c_med, *b_med, noise, margin) {
                    Verdict::Regression
                } else if is_improvement(*c_med, *b_med, noise, margin) {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                rows.push(Row {
                    id: id.clone(),
                    baseline: Some(*b_med),
                    current: Some(*c_med),
                    threshold: regression_threshold(*b_med, noise, margin),
                    verdict,
                });
            }
        }
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
        "bench", "baseline", "current", "threshold"
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
            if row.threshold.is_finite() {
                format!("{:.1}", row.threshold)
            } else {
                "-".to_string()
            },
            row.verdict.label()
        );
    }
}

/// Whether two records were taken on fingerprint-identical hosts.
fn hosts_match(a: &Json, b: &Json) -> bool {
    a.get("host") == b.get("host")
}

fn cmd_check(opts: &CheckOpts) -> Result<i32, String> {
    let current = latest_record(&opts.history)?;
    let sha = record_sha(&current).to_string();

    if opts.update {
        if record_is_dirty(&current) && !opts.allow_dirty {
            return Err(format!(
                "refusing to update {} from a dirty working tree (latest record {} has \
                 dirty=true); commit first, re-run `tdc bench run`, or pass --allow-dirty",
                opts.baseline.display(),
                sha
            ));
        }
        if let Some(dir) = opts.baseline.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&opts.baseline, current.pretty())
            .map_err(|e| format!("cannot write {}: {e}", opts.baseline.display()))?;
        println!(
            "tdc bench: baseline {} updated from record {}",
            opts.baseline.display(),
            sha
        );
        return Ok(0);
    }

    let text = std::fs::read_to_string(&opts.baseline).map_err(|e| {
        format!(
            "cannot read baseline {}: {e} (create one with `tdc bench check --update`)",
            opts.baseline.display()
        )
    })?;
    let baseline = Json::parse(&text)
        .map_err(|e| format!("{}: malformed baseline: {e}", opts.baseline.display()))?;
    validate_record(&baseline).map_err(|e| format!("{}: {e}", opts.baseline.display()))?;

    let (b_scale, c_scale) = (
        baseline.get("scale").and_then(Json::as_f64),
        current.get("scale").and_then(Json::as_f64),
    );
    if b_scale != c_scale {
        return Err(format!(
            "scale mismatch: baseline {} was recorded at scale {:?} but the latest record \
             {} used {:?}; re-run `tdc bench run --scale` to match or refresh the baseline",
            opts.baseline.display(),
            b_scale,
            sha,
            c_scale
        ));
    }

    let gating = hosts_match(&baseline, &current) || opts.strict_host;
    let rows = compare_records(&baseline, &current, opts.margin);
    println!(
        "tdc bench check | record {} vs baseline {} | margin {:.0}%",
        sha,
        record_sha(&baseline),
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
    if !gating {
        println!(
            "note: host fingerprint differs from the baseline; result is informational \
             (pass --strict-host to gate anyway)"
        );
        return Ok(0);
    }
    Ok(if regressions > 0 { 1 } else { 0 })
}

// ---------------------------------------------------------------------------
// tdc bench history
// ---------------------------------------------------------------------------

struct HistoryOpts {
    history: PathBuf,
    bench: Option<String>,
}

fn parse_history(args: &[String]) -> Result<HistoryOpts, String> {
    let mut opts = HistoryOpts {
        history: PathBuf::from("results").join(HISTORY_FILE),
        bench: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--history" => opts.history = PathBuf::from(value("--history")?),
            "--bench" => opts.bench = Some(value("--bench")?),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown 'tdc bench history' argument '{other}'")),
        }
    }
    Ok(opts)
}

fn cmd_history(opts: &HistoryOpts) -> Result<(), String> {
    let text = std::fs::read_to_string(&opts.history).map_err(|e| {
        format!(
            "cannot read {}: {e} (run `tdc bench run` first)",
            opts.history.display()
        )
    })?;
    let mut shown = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line)
            .map_err(|e| format!("{}:{}: malformed record: {e}", opts.history.display(), idx + 1))?;
        let sha = record_sha(&record);
        let mark = if record_is_dirty(&record) { "*" } else { " " };
        let stats = bench_stats(&record);
        match &opts.bench {
            Some(bench) => {
                if let Some((_, med, spr)) = stats.iter().find(|(id, _, _)| id == bench) {
                    println!("{sha}{mark} {med:>12.1} ±{spr:<8.1} ns/op");
                    shown += 1;
                }
            }
            None => {
                let medians: Vec<f64> =
                    stats.iter().map(|(_, med, _)| *med).filter(|m| *m > 0.0).collect();
                let scale = record.get("scale").and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "{sha}{mark} scale {scale:<5} {:>3} benches   geomean {:>10.1} ns/op",
                    stats.len(),
                    geomean(&medians)
                );
                shown += 1;
            }
        }
    }
    if shown == 0 {
        if let Some(bench) = &opts.bench {
            return Err(format!(
                "no record in {} contains bench '{bench}'",
                opts.history.display()
            ));
        }
        return Err(format!("{} has no records", opts.history.display()));
    }
    println!("({shown} records; * = dirty working tree)");
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs `tdc bench` with `args` (without the leading `bench`). Returns
/// the process exit code.
pub fn run(args: &[String]) -> i32 {
    let fail = |msg: String| {
        eprintln!("tdc bench: {msg}");
        if msg == USAGE {
            0
        } else {
            2
        }
    };
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => match cmd_run(&opts) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("tdc bench run: {e}");
                    1
                }
            },
            Err(msg) => fail(msg),
        },
        Some("check") => match parse_check(&args[1..]) {
            Ok(opts) => match cmd_check(&opts) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("tdc bench check: {e}");
                    1
                }
            },
            Err(msg) => fail(msg),
        },
        Some("history") => match parse_history(&args[1..]) {
            Ok(opts) => match cmd_history(&opts) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("tdc bench history: {e}");
                    1
                }
            },
            Err(msg) => fail(msg),
        },
        _ => {
            eprintln!("{USAGE}");
            2
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
    fn record_roundtrips_through_compact_jsonl() {
        let record = record_with(&[measured("g", "n", &[1.5, 2.5])]);
        let line = record.to_compact();
        assert!(!line.contains('\n'), "JSONL records must be single lines");
        let back = Json::parse(&line).expect("round-trips");
        assert_eq!(record, back);
        assert!(validate_record(&back).is_ok());
    }

    #[test]
    fn validate_rejects_foreign_and_empty_records() {
        let mut wrong = record_with(&[measured("g", "n", &[1.0])]);
        if let Json::Obj(pairs) = &mut wrong {
            pairs[0].1 = Json::U64(RECORD_VERSION + 1);
        }
        assert!(validate_record(&wrong).is_err());
        assert!(validate_record(&record_with(&[])).is_err());
        assert!(validate_record(&Json::obj([("x", Json::from(1u64))])).is_err());
    }

    #[test]
    fn compare_flags_regressions_outside_combined_spread() {
        let base = record_with(&[measured("g", "fast", &[100.0, 102.0, 104.0])]);
        // Median 110 vs baseline 102: inside 102 + (4+4) + 0.25*102.
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
    fn handicap_parser_accepts_lists_and_ignores_junk() {
        let h = parse_handicap("a/b=2.0, c/d =3,junk,e=1,f/g=-1,h/i=x");
        assert_eq!(
            h,
            vec![("a/b".to_string(), 2.0), ("c/d".to_string(), 3.0)]
        );
        let mut m = measured("a", "b", &[1.0, 2.0]);
        apply_handicap(&mut m, &h);
        assert_eq!(m.runs, vec![2.0, 4.0]);
        let mut other = measured("x", "y", &[1.0]);
        apply_handicap(&mut other, &h);
        assert_eq!(other.runs, vec![1.0]);
    }

    #[test]
    fn parse_check_flags() {
        let args: Vec<String> = ["--baseline", "b.json", "--margin", "0.5", "--update", "--allow-dirty", "--strict-host"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_check(&args).expect("valid flags");
        assert_eq!(o.baseline, PathBuf::from("b.json"));
        assert_eq!(o.margin, 0.5);
        assert!(o.update && o.allow_dirty && o.strict_host);
        assert!(parse_check(&["--margin".into(), "-1".into()]).is_err());
        assert!(parse_check(&["--bogus".into()]).is_err());
    }
}
