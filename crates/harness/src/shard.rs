//! The `tdc shard` subcommand: run one deterministic slice of the full
//! evaluation, for fleet-style sweeps across machines.
//!
//! ```text
//! tdc shard 1/4 --scale 0.25 --out shard1    # machine 1 of 4
//! tdc shard 2/4 --scale 0.25 --out shard2    # machine 2 of 4 …
//! tdc merge shard1 shard2 shard3 shard4      # then recombine
//! ```
//!
//! Partitioning is **hash-based, not positional**: a job belongs to
//! shard `fnv1a(cache_key) % N + 1`. Membership depends only on the
//! job's own identity, so adding a new figure (new jobs) cannot
//! reshuffle which shard owns the existing cells — shards stay
//! individually cacheable across evaluation growth. The price is that
//! shard sizes are only statistically balanced, which is fine for a
//! work distribution and essential for stability.
//!
//! A shard writes the same `runs/<cell>.json` artifacts `tdc all`
//! would (byte-identical: cells are deterministic), plus a
//! [`MANIFEST_NAME`] manifest recording everything `tdc merge` needs
//! to validate that a set of shard directories is complete, disjoint,
//! and mutually compatible.

use std::fs;
use std::path::{Path, PathBuf};
// Wall-clock feeds only the stderr summary, never the artifacts.
use std::time::Instant; // tdc-lint: allow(time-source)
use tdc_core::experiment::Job;
use tdc_core::RunConfig;
use tdc_util::{shard_of, Json};

use crate::figures::{jobs_for, ALL_IDS};
use crate::harness::Harness;
use crate::sink::{config_json, report_json, run_filename};
use crate::SEED;

/// Version stamp of the `shard-manifest.json` schema. Bump on any
/// incompatible change; `tdc merge` refuses manifests it does not
/// understand.
pub const MANIFEST_VERSION: u64 = 1;

/// File name of the per-shard manifest, at the root of a shard's
/// output directory.
pub const MANIFEST_NAME: &str = "shard-manifest.json";

/// Every top-level field of the manifest schema, in serialization
/// order. DESIGN.md §10 documents this schema; the `schema-sync`
/// lint rule keeps the two in sync.
pub const MANIFEST_FIELDS: [&str; 7] = [
    "format_version",
    "shard",
    "total_shards",
    "scale",
    "config",
    "baseline_fingerprint",
    "job_keys",
];

/// The full deduplicated job plan for one configuration: the union of
/// every figure's job list with exact duplicates (same cache key)
/// removed, sorted by cache key.
///
/// This is the set `tdc all` would simulate, expressed without running
/// anything — sharding and merging both derive from it, so "union of
/// all shards == the plan" is checkable cheaply.
pub fn plan(cfg: &RunConfig) -> Vec<Job> {
    let mut jobs: Vec<(String, Job)> = Vec::new();
    for id in ALL_IDS {
        for job in jobs_for(id, cfg).expect("ALL_IDS entries are known") {
            let key = job.cache_key();
            if !jobs.iter().any(|(k, _)| *k == key) {
                jobs.push((key, job));
            }
        }
    }
    jobs.sort_by(|a, b| a.0.cmp(&b.0));
    jobs.into_iter().map(|(_, j)| j).collect()
}

/// The subset of `plan` owned by shard `shard` of `total`, in plan
/// order.
pub fn shard_jobs(plan: &[Job], shard: u64, total: u64) -> Vec<Job> {
    plan.iter()
        .filter(|j| shard_of(&j.cache_key(), total) == shard)
        .cloned()
        .collect()
}

/// A stable fingerprint of the checked-in regression baseline, so
/// `tdc merge` can refuse to combine shards produced against different
/// baseline snapshots. Walks up from `start` looking for
/// `baselines/scale-0.25` and hashes its sorted file names and
/// contents; `"none"` when no baseline directory is found (e.g. when
/// running outside a checkout).
pub fn baseline_fingerprint(start: &Path) -> String {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let candidate = d.join("baselines").join("scale-0.25");
        if candidate.is_dir() {
            return fingerprint_dir(&candidate);
        }
        dir = d.parent();
    }
    "none".to_string()
}

fn fingerprint_dir(dir: &Path) -> String {
    let mut names: Vec<String> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect(),
        Err(_) => return "none".to_string(),
    };
    names.sort();
    let mut acc = String::new();
    for name in names {
        acc.push_str(&name);
        acc.push('\n');
        if let Ok(text) = fs::read_to_string(dir.join(&name)) {
            acc.push_str(&text);
        }
        acc.push('\n');
    }
    format!("fnv:{:016x}", tdc_util::fnv1a_64(&acc))
}

/// Serializes a shard manifest. Field order matches
/// [`MANIFEST_FIELDS`].
pub fn manifest_json(
    shard: u64,
    total: u64,
    scale: f64,
    cfg: &RunConfig,
    fingerprint: &str,
    keys: &[String],
) -> Json {
    Json::obj([
        ("format_version", Json::from(MANIFEST_VERSION)),
        ("shard", Json::from(shard)),
        ("total_shards", Json::from(total)),
        ("scale", Json::from(scale)),
        ("config", config_json(cfg)),
        ("baseline_fingerprint", Json::from(fingerprint)),
        (
            "job_keys",
            Json::Arr(keys.iter().map(|k| Json::from(k.as_str())).collect()),
        ),
    ])
}

const USAGE: &str = "\
tdc shard — run one hash-partitioned slice of the full evaluation

USAGE:
    tdc shard <K>/<N> [OPTIONS]

K/N selects shard K (1-based) of an N-way partition. A job belongs to
shard (fnv1a(cache_key) mod N) + 1, so membership depends only on the
job itself — adding figures later cannot reshuffle existing shards.

OPTIONS:
    --jobs N    Worker threads (default: available CPU parallelism)
    --scale F   Run-length scale factor (default: TDC_SCALE env or 1.0)
    --seed S    Master seed (default: 2015)
    --out DIR   Shard output directory (default: results-shard-K-of-N)
    --quiet     Suppress per-job progress lines on stderr
    -h, --help  Show this help

Writes runs/<cell>.json (byte-identical to what 'tdc all' would write
for the same cells) plus shard-manifest.json. Recombine the complete
set of shard directories with 'tdc merge'.";

struct ShardOptions {
    shard: u64,
    total: u64,
    jobs: usize,
    scale: Option<f64>,
    seed: u64,
    out: Option<PathBuf>,
    quiet: bool,
}

/// Parses `K/N` (both ≥ 1, K ≤ N).
fn parse_spec(spec: &str) -> Result<(u64, u64), String> {
    let bad = || format!("bad shard spec '{spec}' (expected K/N, e.g. 2/4)");
    let (k, n) = spec.split_once('/').ok_or_else(bad)?;
    let k = k.trim().parse::<u64>().map_err(|_| bad())?;
    let n = n.trim().parse::<u64>().map_err(|_| bad())?;
    if k == 0 || n == 0 {
        return Err(format!("shard spec '{spec}': K and N must be at least 1"));
    }
    if k > n {
        return Err(format!("shard spec '{spec}': K must not exceed N"));
    }
    Ok((k, n))
}

fn parse(args: &[String]) -> Result<ShardOptions, String> {
    let mut opts = ShardOptions {
        shard: 0,
        total: 0,
        jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        scale: None,
        seed: SEED,
        out: None,
        quiet: false,
    };
    let mut have_spec = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
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
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            spec if !have_spec && !spec.starts_with('-') => {
                let (k, n) = parse_spec(spec)?;
                opts.shard = k;
                opts.total = n;
                have_spec = true;
            }
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    if !have_spec {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

/// The scale recorded in the manifest: the explicit `--scale`, else the
/// `TDC_SCALE` environment default, else 1.0 — mirroring how
/// [`RunConfig::from_env`] resolves run lengths.
fn effective_scale(opts: &ShardOptions) -> f64 {
    opts.scale.unwrap_or_else(|| {
        std::env::var("TDC_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|f| *f > 0.0)
            .unwrap_or(1.0)
    })
}

fn execute(opts: &ShardOptions) -> Result<(), String> {
    let cfg = match opts.scale {
        Some(f) => RunConfig::scaled(opts.seed, f),
        None => RunConfig::from_env(opts.seed),
    };
    let scale = effective_scale(opts);
    let out = opts.out.clone().unwrap_or_else(|| {
        PathBuf::from(format!("results-shard-{}-of-{}", opts.shard, opts.total))
    });

    let full = plan(&cfg);
    let mine = shard_jobs(&full, opts.shard, opts.total);
    if !opts.quiet {
        println!(
            "tdc shard {}/{} | {} of {} cells | jobs={} | seed={} | warmup={} measured={} refs/core",
            opts.shard,
            opts.total,
            mine.len(),
            full.len(),
            opts.jobs,
            cfg.seed,
            cfg.warmup_refs,
            cfg.measured_refs
        );
    }

    let start = Instant::now(); // tdc-lint: allow(time-source)
    let harness = Harness::new(cfg, opts.jobs).verbose(!opts.quiet);
    harness.run_all(&mine);

    let runs_dir = out.join("runs");
    fs::create_dir_all(&runs_dir)
        .map_err(|e| format!("cannot create {}: {e}", runs_dir.display()))?;
    let results = harness.results();
    for (key, report) in &results {
        let path = runs_dir.join(run_filename(key, report));
        fs::write(&path, report_json(key, report).pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let keys: Vec<String> = results.iter().map(|(k, _)| k.clone()).collect();
    let fingerprint = baseline_fingerprint(Path::new("."));
    let manifest = manifest_json(opts.shard, opts.total, scale, &cfg, &fingerprint, &keys);
    let manifest_path = out.join(MANIFEST_NAME);
    fs::write(&manifest_path, manifest.pretty())
        .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;

    let stats = harness.stats();
    eprintln!(
        "tdc shard: {} cells simulated in {:.2}s; wrote {} run files + manifest under {}",
        stats.executed,
        start.elapsed().as_secs_f64(),
        results.len(),
        out.display()
    );
    Ok(())
}

/// Runs `tdc shard` with `args` (everything after the subcommand
/// name). Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    match execute(&opts) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("tdc shard: {msg}");
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

    fn tiny() -> RunConfig {
        RunConfig {
            seed: 2015,
            cache_bytes: 1 << 30,
            warmup_refs: 1_000,
            measured_refs: 2_000,
        }
    }

    #[test]
    fn spec_parsing_accepts_k_of_n_and_rejects_nonsense() {
        assert_eq!(parse_spec("1/1").unwrap(), (1, 1));
        assert_eq!(parse_spec("3/8").unwrap(), (3, 8));
        for bad in ["", "3", "0/4", "4/0", "5/4", "a/b", "1/2/3"] {
            assert!(parse_spec(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_accepts_flags() {
        let o = parse(&strs(&[
            "2/4", "--jobs", "3", "--scale", "0.5", "--seed", "7", "--out", "x", "--quiet",
        ]))
        .unwrap();
        assert_eq!((o.shard, o.total), (2, 4));
        assert_eq!(o.jobs, 3);
        assert_eq!(o.scale, Some(0.5));
        assert_eq!(o.seed, 7);
        assert_eq!(o.out, Some(PathBuf::from("x")));
        assert!(o.quiet);
        assert!(parse(&strs(&["--quiet"])).is_err(), "spec is required");
        assert!(parse(&strs(&["2/4", "1/4"])).is_err(), "one spec only");
    }

    #[test]
    fn plan_is_deduplicated_and_sorted() {
        let cfg = tiny();
        let p = plan(&cfg);
        let keys: Vec<String> = p.iter().map(Job::cache_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(keys, sorted, "plan must be sorted and duplicate-free");
        assert!(!p.is_empty());
    }

    #[test]
    fn manifest_has_exactly_the_documented_fields() {
        let m = manifest_json(1, 2, 0.25, &tiny(), "none", &["k".to_string()]);
        match &m {
            Json::Obj(pairs) => {
                let names: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, MANIFEST_FIELDS);
            }
            other => panic!("manifest is not an object: {other:?}"),
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let dir = std::env::temp_dir().join(format!("tdc-fp-{}", std::process::id()));
        let base = dir.join("baselines").join("scale-0.25");
        fs::create_dir_all(&base).unwrap();
        fs::write(base.join("figA.json"), "{\"a\": 1}").unwrap();
        let a = baseline_fingerprint(&dir);
        let b = baseline_fingerprint(&dir);
        assert_eq!(a, b);
        assert!(a.starts_with("fnv:"), "{a}");
        fs::write(base.join("figA.json"), "{\"a\": 2}").unwrap();
        assert_ne!(a, baseline_fingerprint(&dir), "content change must change it");
        // Nested start dir walks up to the same baseline.
        assert_ne!(baseline_fingerprint(&base), "none");
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(baseline_fingerprint(Path::new("/nonexistent-tdc")), "none");
    }
}
