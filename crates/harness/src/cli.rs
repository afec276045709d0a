//! The `tdc` command line: one entry point for the whole evaluation.
//!
//! ```text
//! tdc list                          # what can be generated
//! tdc fig07 fig08                   # selected figures, shared cache
//! tdc all --jobs 8 --scale 0.1     # everything, 8 workers, short runs
//! tdc shard 1/2 --cache-dir store   # half the cells, persisted to a store
//! ```

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
// Wall-clock here only feeds the stderr summary and metrics.json, the
// one deliberately nondeterministic artifact.
use std::time::Instant; // tdc-lint: allow(time-source)
use tdc_core::experiment::Job;
use tdc_core::RunConfig;

use crate::figures::{generate, jobs_for, ALL_IDS};
use crate::harness::Harness;
use crate::shard::{parse_spec, plan, shard_jobs};
use crate::sink::{write_metrics, write_results};
use crate::store::{baseline_fingerprint, ResultStore};
use crate::SEED;

/// Parsed command-line options.
struct Options {
    ids: Vec<String>,
    /// `tdc shard K/N`: shard K of an N-way partition of the plan.
    shard: Option<(u64, u64)>,
    jobs: usize,
    scale: Option<f64>,
    seed: u64,
    out: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    quiet: bool,
}

const USAGE: &str = "\
tdc — parallel experiment orchestration for the tagless DRAM cache study

USAGE:
    tdc <COMMAND>... [OPTIONS]

COMMANDS:
    list        List every figure/table id and exit
    all         Generate the full evaluation (all figures and tables)
    fig07..fig13, table1, table6, amat
                Generate the named figures (several may be given; they
                share one result cache, so common cells run once)
    trace <workload>/<org>
                Run one cell with probes on; export interval telemetry
                and a Chrome/Perfetto trace ('tdc trace -h' for options)
    prof <workload>/<org>
                Run one probed cell and report where its wall time goes
                (translation/cTLB/GIPT/cache/DRAM/bookkeeping) plus a
                machine-readable prof.json ('tdc prof -h')
    diff <baseline-dir>
                Regenerate figures and compare against a checked-in
                baseline; exit non-zero on drift ('tdc diff -h')
    shard <K>/<N>
                Run shard K of an N-way hash partition of the full
                evaluation and persist its cells to --cache-dir (which
                it requires). Copy every shard's cell-*.json into one
                directory and run 'tdc all --cache-dir' on it to get
                the figures without re-simulating
    bench run|check|history
                Commit-stamped performance history: run the measurement
                kernels, gate against a checked-in baseline with
                noise-aware thresholds, or render the trajectory
                ('tdc bench -h')
    lint        Run the determinism/invariant static analysis over the
                workspace sources; exit non-zero on any finding not in
                the ratchet ('tdc lint -h')

OPTIONS:
    --jobs N    Worker threads (default: available CPU parallelism)
    --scale F   Run-length scale factor (default: TDC_SCALE env or 1.0)
    --seed S    Master seed (default: 2015)
    --out DIR   Artifact directory (default: results)
    --no-out    Skip writing JSON artifacts
    --cache-dir DIR
                Warm-start from (and persist results to) a
                content-addressed result store of cell-*.json entries
    --quiet     Suppress per-job progress lines on stderr
    -h, --help  Show this help

Results are deterministic: the JSON artifacts depend only on the figure
set, seed, scale, and cache size — never on --jobs or scheduling.";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        ids: Vec::new(),
        shard: None,
        jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        scale: None,
        seed: SEED,
        out: Some(PathBuf::from("results")),
        cache_dir: None,
        quiet: false,
    };
    let mut out_given = false;
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
            "--out" => {
                opts.out = Some(PathBuf::from(value("--out")?));
                out_given = true;
            }
            "--no-out" => {
                opts.out = None;
                out_given = true;
            }
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            "shard" if opts.shard.is_none() => opts.shard = Some(parse_spec(&value("shard")?)?),
            "list" => opts.ids.push("list".into()),
            "all" => opts.ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            id if ALL_IDS.contains(&id) => opts.ids.push(id.to_string()),
            other => {
                return Err(format!(
                    "unknown argument '{other}' (try 'tdc list' or 'tdc --help')"
                ))
            }
        }
    }
    if opts.shard.is_some() {
        // A shard's only output is its store.
        if !opts.ids.is_empty() || out_given || opts.cache_dir.is_none() {
            let usage = "tdc shard K/N takes --cache-dir DIR and no figure ids, --out or --no-out";
            return Err(usage.into());
        }
        opts.out = None;
    } else if opts.ids.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

/// The configuration a CLI invocation runs under.
fn config(opts: &Options) -> RunConfig {
    match opts.scale {
        Some(f) => RunConfig::scaled(opts.seed, f),
        None => RunConfig::from_env(opts.seed),
    }
}

/// Runs the CLI with `args` (without the program name). Returns the
/// process exit code.
pub fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("trace") => return crate::trace::run(&args[1..]),
        Some("prof") => return crate::prof::run(&args[1..]),
        Some("diff") => return crate::diff::run(&args[1..]),
        Some("bench") => return crate::bench::run(&args[1..]),
        Some("lint") => return tdc_lint::cli::run(&args[1..]),
        _ => {}
    }
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if opts.ids.iter().any(|id| id == "list") {
        println!("available figures/tables (in 'tdc all' order):");
        for id in ALL_IDS {
            println!("  {id}");
        }
        return 0;
    }

    let cfg = config(&opts);
    let start = Instant::now(); // tdc-lint: allow(time-source)
    let harness = Harness::new(cfg, opts.jobs).verbose(!opts.quiet);
    // A shard runs its slice of the deduplicated plan; otherwise the
    // requested figures decide which cells run.
    let slice = opts.shard.map(|(k, n)| {
        let full = plan(&cfg);
        let mine = shard_jobs(&full, k, n);
        let what = format!("shard {k}/{n}, {} of {} cells", mine.len(), full.len());
        (what, mine)
    });

    let store = match &opts.cache_dir {
        Some(dir) => {
            let jobs = match &slice {
                Some((_, mine)) => mine.clone(),
                None => opts
                    .ids
                    .iter()
                    .flat_map(|id| jobs_for(id, &cfg).into_iter().flatten())
                    .collect(),
            };
            let cwd = std::env::current_dir().unwrap_or_default();
            let opened = ResultStore::open(dir, &baseline_fingerprint(&cwd))
                .and_then(|store| warm_start(&harness, &store, &jobs).map(|n| (store, n)));
            match opened {
                Ok((store, (warmed, skipped))) => {
                    if !opts.quiet && warmed > 0 {
                        eprintln!("tdc: warm-started {warmed} cell(s) from {}", dir.display());
                    }
                    if !opts.quiet && skipped > 0 {
                        eprintln!(
                            "tdc: skipped {skipped} invalid or foreign entry file(s) in {}",
                            dir.display()
                        );
                    }
                    Some(store)
                }
                Err(e) => {
                    eprintln!("tdc: cannot use --cache-dir {}: {e}", dir.display());
                    return 1;
                }
            }
        }
        None => None,
    };
    if !opts.quiet {
        let what = match &slice {
            Some((what, _)) => what.clone(),
            None => format!("{} figure(s)", opts.ids.len()),
        };
        println!(
            "tdc | {what} | jobs={} | seed={} | warmup={} measured={} refs/core",
            harness.threads(),
            cfg.seed,
            cfg.warmup_refs,
            cfg.measured_refs
        );
        println!();
    }

    let mut figures = Vec::new();
    if let Some((_, mine)) = &slice {
        harness.run_all(mine);
    }
    for (i, id) in opts.ids.iter().enumerate() {
        let fig = generate(id, &harness).expect("ids validated during parsing");
        if i > 0 {
            println!();
        }
        fig.print();
        figures.push(fig);
    }

    let stats = harness.stats();
    let wall = start.elapsed();
    if !opts.quiet {
        eprintln!(
            "tdc: {} cells simulated, {} cache hits of {} requests | busy {:.2}s over wall {:.2}s ({:.2}x)",
            stats.executed,
            stats.cache_hits,
            stats.requested,
            stats.busy.as_secs_f64(),
            wall.as_secs_f64(),
            stats.busy.as_secs_f64() / wall.as_secs_f64().max(1e-9)
        );
    }

    if let Some(dir) = &opts.out {
        match write_results(dir, &cfg, &figures, &harness.results()) {
            Ok(written) => eprintln!("tdc: wrote {} artifacts under {}", written.len(), dir.display()),
            Err(e) => {
                eprintln!("tdc: failed to write artifacts under {}: {e}", dir.display());
                return 1;
            }
        }
        let pools = harness.pool_batches();
        match write_metrics(
            dir,
            &stats,
            opts.jobs,
            wall.as_secs_f64(),
            &harness.timings(),
            &pools,
        ) {
            Ok(path) => eprintln!("tdc: wrote {}", path.display()),
            Err(e) => {
                eprintln!("tdc: failed to write metrics under {}: {e}", dir.display());
                return 1;
            }
        }
        // Perfetto pool track: one process per batch, one thread per
        // worker. Only written when something actually ran (a fully
        // warm-started invocation has no schedule to show).
        if pools.iter().any(|(t, _)| !t.spans.is_empty()) {
            let trace_dir = dir.join("trace");
            let path = trace_dir.join("pool.trace.json");
            let doc = tdc_util::obs::pool_trace_json(&pools);
            if let Err(e) = std::fs::create_dir_all(&trace_dir)
                .and_then(|()| std::fs::write(&path, doc.to_compact()))
            {
                eprintln!("tdc: failed to write pool trace: {e}");
                return 1;
            }
            eprintln!("tdc: wrote {}", path.display());
        }
    }

    if let Some(store) = &store {
        match persist_results(&harness, store) {
            Ok(persisted) => {
                if !opts.quiet && persisted > 0 {
                    eprintln!(
                        "tdc: persisted {persisted} cell(s) to {}",
                        store.dir().display()
                    );
                }
            }
            Err(e) => {
                eprintln!(
                    "tdc: failed to persist results to {}: {e}",
                    store.dir().display()
                );
                return 1;
            }
        }
    }
    0
}

/// Preloads every stored cell among `jobs`. Cells outside `jobs` stay
/// on disk so `results/` keeps containing exactly the requested cells.
/// Returns the cells preloaded and the entry files skipped as foreign
/// or invalid.
fn warm_start(harness: &Harness, store: &ResultStore, jobs: &[Job]) -> io::Result<(usize, usize)> {
    let wanted: BTreeSet<String> = jobs.iter().map(Job::cache_key).collect();
    let (entries, skipped) = store.load_all()?;
    let mut warmed = 0usize;
    for (key, doc) in entries {
        if !wanted.contains(&key) {
            continue;
        }
        let Ok((stored_key, report)) = crate::sink::report_from_json(&doc) else {
            continue; // incompatible report schema: re-simulate
        };
        if stored_key != key {
            continue;
        }
        harness.preload(key, report);
        warmed += 1;
    }
    Ok((warmed, skipped))
}

/// Writes every cached cell to the store (first write per key wins)
/// and returns how many entries were new.
fn persist_results(harness: &Harness, store: &ResultStore) -> io::Result<usize> {
    let mut persisted = 0;
    for (key, report) in harness.results() {
        if store.put(&key, &crate::sink::report_json(&key, &report))? {
            persisted += 1;
        }
    }
    Ok(persisted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_figures_and_flags() {
        let args: Vec<String> = ["fig07", "table6", "--jobs", "3", "--scale", "0.5", "--seed", "9", "--no-out", "--quiet"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse(&args).unwrap();
        assert_eq!(o.ids, vec!["fig07", "table6"]);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.scale, Some(0.5));
        assert_eq!(o.seed, 9);
        assert!(o.out.is_none());
        assert!(o.quiet);
        let cfg = config(&o);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.measured_refs, 800_000);
    }

    #[test]
    fn parse_rejects_unknown_and_empty() {
        assert!(parse(&["frobnicate".to_string()]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--jobs".to_string(), "x".to_string()]).is_err());
        assert!(parse(&["--scale".to_string(), "-1".to_string()]).is_err());
    }

    #[test]
    fn shard_needs_a_store_and_nothing_else() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = parse(&args(&["shard", "2/4", "--cache-dir", "d", "--jobs", "3"])).unwrap();
        assert_eq!(o.shard, Some((2, 4)));
        assert_eq!(o.cache_dir, Some(PathBuf::from("d")));
        assert!(o.ids.is_empty() && o.out.is_none());
        for bad in [
            &["shard", "2/4"][..],
            &["shard", "5/4", "--cache-dir", "d"],
            &["shard", "2/4", "--cache-dir", "d", "--out", "x"],
            &["shard", "2/4", "--cache-dir", "d", "--no-out"],
            &["shard", "2/4", "fig07", "--cache-dir", "d"],
            &["shard", "2/4", "shard", "1/4", "--cache-dir", "d"],
            &["serve"],
            &["merge", "s1", "s2"],
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn all_expands_to_every_id() {
        let o = parse(&["all".to_string()]).unwrap();
        assert_eq!(o.ids.len(), ALL_IDS.len());
    }
}
