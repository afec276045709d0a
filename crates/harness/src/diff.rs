//! The `tdc diff` subcommand: regression gating against a checked-in
//! baseline snapshot.
//!
//! ```text
//! tdc diff baselines/scale-0.25 --update --scale 0.25   # (re)create
//! tdc diff baselines/scale-0.25                         # gate: exit 1 on drift
//! ```
//!
//! A baseline directory holds `index.json` (the exact run configuration
//! — absolute seed and run lengths, so checking needs no `--scale`) and
//! one `<figure>.json` summary per figure. Checking regenerates every
//! figure under that configuration and deep-compares each summary
//! numerically: any leaf differing by more than the relative tolerance
//! (default 1e-9; the simulator is deterministic, so the tolerance only
//! absorbs float formatting) is reported as drift and the process exits
//! non-zero — the CI contract.

use std::fs;
use std::path::{Path, PathBuf};
use tdc_core::RunConfig;
use tdc_util::Json;

use crate::figures::generate;
use crate::harness::Harness;
use crate::sink::config_json;
use crate::SEED;

/// Relative tolerance applied to numeric leaves during comparison.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// Most drift lines printed per figure before eliding.
const MAX_REPORTED: usize = 8;

const USAGE: &str = "\
tdc diff — compare regenerated figures against a baseline snapshot

USAGE:
    tdc diff <BASELINE-DIR> [OPTIONS]

OPTIONS:
    --update        (Re)create the baseline instead of checking it
    --jobs N        Worker threads (default: available CPU parallelism)
    --scale F       Run-length scale for --update (default: TDC_SCALE or 1.0)
    --seed S        Master seed for --update (default: 2015)
    --tolerance T   Relative tolerance for numeric leaves (default: 1e-9)
    --quiet         Suppress per-job progress lines on stderr
    -h, --help      Show this help

Checking reads the exact run configuration from the baseline's
index.json, so no --scale is needed (or honored) outside --update.
Exit status: 0 clean, 1 drift or missing baseline, 2 usage error.";

struct DiffOptions {
    dir: PathBuf,
    update: bool,
    jobs: usize,
    scale: Option<f64>,
    seed: u64,
    tolerance: f64,
    quiet: bool,
}

fn parse(args: &[String]) -> Result<DiffOptions, String> {
    let mut opts = DiffOptions {
        dir: PathBuf::new(),
        update: false,
        jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        scale: None,
        seed: SEED,
        tolerance: DEFAULT_TOLERANCE,
        quiet: false,
    };
    let mut have_dir = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--update" => opts.update = true,
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse::<usize>()
                    .map_err(|_| "--jobs needs a positive integer".to_string())?
                    .max(1)
            }
            "--scale" => {
                let f = value("--scale")?
                    .parse::<f64>()
                    .map_err(|_| "--scale needs a number".to_string())?;
                if f <= 0.0 {
                    return Err("--scale must be positive".into());
                }
                opts.scale = Some(f);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse::<u64>()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?
            }
            "--tolerance" => {
                let t = value("--tolerance")?
                    .parse::<f64>()
                    .map_err(|_| "--tolerance needs a number".to_string())?;
                if t.is_nan() || t < 0.0 {
                    return Err("--tolerance must be non-negative".into());
                }
                opts.tolerance = t;
            }
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            d if !have_dir && !d.starts_with('-') => {
                opts.dir = PathBuf::from(d);
                have_dir = true;
            }
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    if !have_dir {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

/// Recursively compares `got` against `want`, pushing one human-readable
/// line per drifting leaf (paths like `rows[3].norm_ipc`). Numeric
/// leaves use relative tolerance `tol`; everything else must be equal.
fn collect_drift(path: &str, want: &Json, got: &Json, tol: f64, out: &mut Vec<String>) {
    let num = |j: &Json| -> Option<f64> {
        match j {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    };
    match (want, got) {
        (a, b) if num(a).is_some() && num(b).is_some() => {
            let (a, b) = (num(want).expect("checked"), num(got).expect("checked"));
            let scale = a.abs().max(b.abs());
            let close = if a.is_finite() && b.is_finite() {
                (a - b).abs() <= tol * scale.max(1.0)
            } else {
                a == b || (a.is_nan() && b.is_nan())
            };
            if !close {
                out.push(format!("{path}: baseline {a} vs current {b}"));
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                out.push(format!("{path}: length {} vs {}", a.len(), b.len()));
                return;
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                collect_drift(&format!("{path}[{i}]"), x, y, tol, out);
            }
        }
        (Json::Obj(a), Json::Obj(b)) => {
            for (k, x) in a {
                match b.iter().find(|(bk, _)| bk == k) {
                    Some((_, y)) => {
                        collect_drift(&format!("{path}.{k}"), x, y, tol, out)
                    }
                    None => out.push(format!("{path}.{k}: missing in current output")),
                }
            }
            for (k, _) in b {
                if !a.iter().any(|(ak, _)| ak == k) {
                    out.push(format!("{path}.{k}: not in baseline"));
                }
            }
        }
        (a, b) => {
            if a != b {
                out.push(format!("{path}: baseline {} vs current {}", a.to_compact(), b.to_compact()));
            }
        }
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Creates or refreshes the baseline: every figure summary plus an
/// index recording the absolute run configuration.
fn update(opts: &DiffOptions, ids: &[String]) -> Result<(), String> {
    let cfg = match opts.scale {
        Some(f) => RunConfig::scaled(opts.seed, f),
        None => RunConfig::from_env(opts.seed),
    };
    let harness = Harness::new(cfg, opts.jobs).verbose(!opts.quiet);
    fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;
    let mut entries = Vec::new();
    let mut rewritten = 0usize;
    for id in ids {
        let fig = generate(id, &harness).ok_or_else(|| format!("unknown figure id '{id}'"))?;
        let file = format!("{}.json", fig.id);
        if write_if_changed(&opts.dir.join(&file), &fig.json.pretty())? {
            rewritten += 1;
            if !opts.quiet {
                eprintln!("tdc diff: {id:<8} rewritten (bytes changed)");
            }
        }
        entries.push(Json::obj([
            ("id", Json::from(fig.id)),
            ("title", Json::from(fig.title.as_str())),
            ("file", Json::from(file)),
        ]));
    }
    let index = Json::obj([
        ("config", config_json(&cfg)),
        ("figures", Json::Arr(entries)),
    ]);
    if write_if_changed(&opts.dir.join("index.json"), &index.pretty())? {
        rewritten += 1;
    }
    eprintln!(
        "tdc diff: baseline updated under {} ({} figures, {rewritten} file(s) rewritten, \
         seed={}, warmup={} measured={} refs/core)",
        opts.dir.display(),
        ids.len(),
        cfg.seed,
        cfg.warmup_refs,
        cfg.measured_refs
    );
    Ok(())
}

/// Writes `content` to `path` only when the on-disk bytes differ, so an
/// `--update` over an unchanged simulator leaves the baseline tree (and
/// its mtimes / VCS status) untouched. Returns whether a write happened.
fn write_if_changed(path: &Path, content: &str) -> Result<bool, String> {
    if let Ok(existing) = fs::read(path) {
        if existing == content.as_bytes() {
            return Ok(false);
        }
    }
    fs::write(path, content)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(true)
}

/// Regenerates every baselined figure under the baseline's own
/// configuration and reports drift. `Ok(n)` is the drifting-figure
/// count.
fn check(opts: &DiffOptions) -> Result<usize, String> {
    let index = read_json(&opts.dir.join("index.json"))?;
    let cfgj = index
        .get("config")
        .ok_or("index.json has no 'config' object")?;
    let field = |name: &str| -> Result<u64, String> {
        cfgj.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("index.json config is missing '{name}'"))
    };
    let cfg = RunConfig {
        seed: field("seed")?,
        cache_bytes: field("cache_bytes")?,
        warmup_refs: field("warmup_refs")?,
        measured_refs: field("measured_refs")?,
    };
    let figures = match index.get("figures") {
        Some(Json::Arr(figs)) if !figs.is_empty() => figs,
        _ => return Err("index.json lists no figures".into()),
    };

    let harness = Harness::new(cfg, opts.jobs).verbose(!opts.quiet);
    let mut drifting = 0usize;
    for entry in figures {
        let id = entry
            .get("id")
            .and_then(Json::as_str)
            .ok_or("figure entry without an 'id'")?;
        let file = entry
            .get("file")
            .and_then(Json::as_str)
            .ok_or("figure entry without a 'file'")?;
        let want = read_json(&opts.dir.join(file))?;
        let fig = generate(id, &harness)
            .ok_or_else(|| format!("baseline names unknown figure '{id}'"))?;
        let mut drift = Vec::new();
        collect_drift(id, &want, &fig.json, opts.tolerance, &mut drift);
        if drift.is_empty() {
            if !opts.quiet {
                eprintln!("tdc diff: {id:<8} ok");
            }
        } else {
            drifting += 1;
            eprintln!("tdc diff: {id:<8} DRIFT ({} leaves)", drift.len());
            for line in drift.iter().take(MAX_REPORTED) {
                eprintln!("    {line}");
            }
            if drift.len() > MAX_REPORTED {
                eprintln!("    … and {} more", drift.len() - MAX_REPORTED);
            }
        }
    }
    Ok(drifting)
}

/// Runs `tdc diff` with `args` (everything after the subcommand name).
/// Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if opts.update {
        let ids: Vec<String> = crate::figures::ALL_IDS.iter().map(|s| s.to_string()).collect();
        return match update(&opts, &ids) {
            Ok(()) => 0,
            Err(msg) => {
                eprintln!("tdc diff: {msg}");
                1
            }
        };
    }
    match check(&opts) {
        Ok(0) => {
            eprintln!("tdc diff: all figures match {}", opts.dir.display());
            0
        }
        Ok(n) => {
            eprintln!("tdc diff: {n} figure(s) drifted from {}", opts.dir.display());
            1
        }
        Err(msg) => {
            eprintln!("tdc diff: {msg}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_dir_and_flags() {
        let o = parse(&strs(&[
            "baselines/x", "--update", "--jobs", "2", "--scale", "0.25", "--tolerance", "1e-6",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(o.dir, PathBuf::from("baselines/x"));
        assert!(o.update && o.quiet);
        assert_eq!(o.jobs, 2);
        assert_eq!(o.scale, Some(0.25));
        assert_eq!(o.tolerance, 1e-6);
    }

    #[test]
    fn rejects_missing_dir_and_bad_values() {
        assert!(parse(&[]).is_err());
        assert!(parse(&strs(&["d", "--scale", "-2"])).is_err());
        assert!(parse(&strs(&["d", "--tolerance", "nan"])).is_err());
        assert!(parse(&strs(&["d", "--frobnicate"])).is_err());
    }

    #[test]
    fn drift_detects_numeric_and_shape_changes() {
        let base = Json::obj([
            ("x", Json::from(1.0)),
            ("rows", Json::Arr(vec![Json::from(2u64), Json::from(3u64)])),
            ("name", Json::from("a")),
        ]);
        // Identical (modulo integer-vs-float encoding) ⇒ clean.
        let same = Json::obj([
            ("x", Json::from(1u64)),
            ("rows", Json::Arr(vec![Json::from(2.0), Json::from(3.0)])),
            ("name", Json::from("a")),
        ]);
        let mut out = Vec::new();
        collect_drift("t", &base, &same, DEFAULT_TOLERANCE, &mut out);
        assert!(out.is_empty(), "unexpected drift: {out:?}");
        // Value drift, shape drift, and string drift all surface.
        let changed = Json::obj([
            ("x", Json::from(1.1)),
            ("rows", Json::Arr(vec![Json::from(2u64)])),
            ("name", Json::from("b")),
        ]);
        out.clear();
        collect_drift("t", &base, &changed, DEFAULT_TOLERANCE, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn drift_tolerance_is_relative() {
        let mut out = Vec::new();
        collect_drift(
            "t",
            &Json::from(1_000_000.0),
            &Json::from(1_000_000.000_5),
            1e-9,
            &mut out,
        );
        assert!(out.is_empty(), "within relative tolerance: {out:?}");
        collect_drift("t", &Json::from(1.0), &Json::from(1.001), 1e-9, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn missing_baseline_reports_cleanly() {
        let opts = parse(&strs(&["/nonexistent/baseline-dir"])).unwrap();
        assert!(check(&opts).is_err());
    }

    #[test]
    fn write_if_changed_skips_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("tdc-wic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig.json");
        assert!(write_if_changed(&path, "abc").unwrap(), "first write");
        assert!(!write_if_changed(&path, "abc").unwrap(), "identical bytes");
        assert!(write_if_changed(&path, "abcd").unwrap(), "changed bytes");
        assert_eq!(fs::read_to_string(&path).unwrap(), "abcd");
        let _ = fs::remove_dir_all(&dir);
    }
}
