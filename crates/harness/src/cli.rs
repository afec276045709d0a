//! The `tdc` command line: one entry point for the whole evaluation.
//!
//! ```text
//! tdc list                          # what can be generated
//! tdc fig07 fig08                   # selected figures, shared cache
//! tdc all --jobs 8 --scale 0.1     # everything, 8 workers, short runs
//! ```

use std::io;
use std::path::PathBuf;
// Wall-clock here only feeds the stderr summary and metrics.json, the
// one deliberately nondeterministic artifact.
use std::time::Instant; // tdc-lint: allow(time-source)
use tdc_core::RunConfig;

use crate::figures::{generate, ALL_IDS};
use crate::harness::Harness;
use crate::sink::{write_metrics, write_results};
use crate::SEED;

/// Parsed command-line options.
struct Options {
    ids: Vec<String>,
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
                evaluation; write partial runs/ plus a manifest
                ('tdc shard -h')
    merge <shard-dir>...
                Validate a complete shard set and recombine it into
                one results tree without re-simulating ('tdc merge -h')
    bench run|check|history
                Commit-stamped performance history: run the measurement
                kernels, gate against a checked-in baseline with
                noise-aware thresholds, or render the trajectory
                ('tdc bench -h')
    lint        Run the determinism/invariant static analysis over the
                workspace sources; exit non-zero on any finding not in
                the ratchet ('tdc lint -h')
    serve       Start the persistent sweep service: a daemon that holds
                results warm across requests, with a content-addressed
                disk store and a load generator ('tdc serve -h')

OPTIONS:
    --jobs N    Worker threads (default: available CPU parallelism)
    --scale F   Run-length scale factor (default: TDC_SCALE env or 1.0)
    --seed S    Master seed (default: 2015)
    --out DIR   Artifact directory (default: results)
    --no-out    Skip writing JSON artifacts
    --cache-dir DIR
                Warm-start from (and persist results to) the same
                content-addressed store 'tdc serve --cache-dir' uses
    --quiet     Suppress per-job progress lines on stderr
    -h, --help  Show this help

Results are deterministic: the JSON artifacts depend only on the figure
set, seed, scale, and cache size — never on --jobs or scheduling.";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        ids: Vec::new(),
        jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        scale: None,
        seed: SEED,
        out: Some(PathBuf::from("results")),
        cache_dir: None,
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
            "--no-out" => opts.out = None,
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
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
    if opts.ids.is_empty() {
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
        Some("shard") => return crate::shard::run(&args[1..]),
        Some("merge") => return crate::merge::run(&args[1..]),
        Some("bench") => return crate::bench::run(&args[1..]),
        Some("lint") => return tdc_lint::cli::run(&args[1..]),
        Some("serve") => return crate::serve::run(&args[1..]),
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

    // Warm-start from the content-addressed store `tdc serve` shares.
    let store = match &opts.cache_dir {
        Some(dir) => match tdc_serve::ResultStore::open(dir) {
            Ok(store) => match warm_start(&harness, &store, &opts.ids, &cfg) {
                Ok(warmed) => {
                    if !opts.quiet && warmed > 0 {
                        eprintln!("tdc: warm-started {warmed} cell(s) from {}", dir.display());
                    }
                    Some(store)
                }
                Err(e) => {
                    eprintln!("tdc: cannot read --cache-dir {}: {e}", dir.display());
                    return 1;
                }
            },
            Err(e) => {
                eprintln!("tdc: cannot open --cache-dir {}: {e}", dir.display());
                return 1;
            }
        },
        None => None,
    };
    if !opts.quiet {
        println!(
            "tdc | {} figure(s) | jobs={} | seed={} | warmup={} measured={} refs/core",
            opts.ids.len(),
            harness.threads(),
            cfg.seed,
            cfg.warmup_refs,
            cfg.measured_refs
        );
        println!();
    }

    let mut figures = Vec::new();
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
            &harness.cache_counters(),
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

/// Preloads every stored cell the requested figures can use. Cells
/// outside the requested figure set stay on disk so `results/` keeps
/// containing exactly the requested cells.
fn warm_start(
    harness: &Harness,
    store: &tdc_serve::ResultStore,
    ids: &[String],
    cfg: &RunConfig,
) -> Result<usize, String> {
    use crate::figures::jobs_for;
    let mut wanted = std::collections::BTreeSet::new();
    for id in ids {
        for job in jobs_for(id, cfg).into_iter().flatten() {
            wanted.insert(job.cache_key());
        }
    }
    let (entries, _skipped) = store.load_all().map_err(|e| e.to_string())?;
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
    Ok(warmed)
}

/// Writes every cached cell to the store (first write per key wins).
fn persist_results(harness: &Harness, store: &tdc_serve::ResultStore) -> io::Result<usize> {
    let before = store.counters().persisted;
    for (key, report) in harness.results() {
        store.put(&key, &crate::sink::report_json(&key, &report))?;
    }
    Ok((store.counters().persisted - before) as usize)
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
    fn all_expands_to_every_id() {
        let o = parse(&["all".to_string()]).unwrap();
        assert_eq!(o.ids.len(), ALL_IDS.len());
    }
}
