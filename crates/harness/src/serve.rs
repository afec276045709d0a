//! `tdc serve` — the harness side of the persistent sweep service.
//!
//! The service crate (`tdc-serve`) is engine-agnostic; this module
//! plugs the experiment harness into it as [`PlanEngine`] (the full
//! `tdc all` job plan behind the [`tdc_serve::Engine`] seam) and hosts
//! both CLI modes:
//!
//! ```text
//! tdc serve --addr 127.0.0.1:7943 --cache-dir results/store   # daemon
//! tdc serve --bench --addr 127.0.0.1:7943 --requests 200      # load gen
//! ```
//!
//! One [`Harness`] lives for the daemon's whole lifetime, so its
//! result cache stays warm across requests; the content-addressed
//! disk store (shared with batch `tdc all --cache-dir`) persists that
//! warmth across restarts.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use tdc_core::experiment::Job;
use tdc_core::RunConfig;
use tdc_serve::{CacheStats, Engine, ResultStore, Server, ServerConfig};
use tdc_util::http::Request;
use tdc_util::{run_tasks, Json, Pcg32, Zipf};

use crate::figures::{generate, jobs_for, ALL_IDS};
use crate::harness::Harness;
use crate::shard;
use crate::sink::{report_from_json, report_json};
use crate::SEED;

/// The full `tdc all` job plan exposed through the service's
/// [`Engine`] seam. Executed cells land in the shared [`Harness`]
/// cache, so figure generation over warm cells is pure cache hits.
pub struct PlanEngine {
    harness: Harness,
    plan: BTreeMap<String, Job>,
}

impl PlanEngine {
    /// An engine over the standard configuration `cfg` running up to
    /// `jobs` simulations concurrently.
    pub fn new(cfg: RunConfig, jobs: usize) -> Self {
        let harness = Harness::new(cfg, jobs);
        let plan = shard::plan(&cfg)
            .into_iter()
            .map(|job| (job.cache_key(), job))
            .collect();
        Self { harness, plan }
    }

    /// The harness backing this engine.
    pub fn harness(&self) -> &Harness {
        &self.harness
    }

    /// Every cache key in the plan, sorted (the `--bench` request-mix
    /// population).
    pub fn keys(&self) -> Vec<String> {
        self.plan.keys().cloned().collect()
    }
}

impl Engine for PlanEngine {
    fn figure_ids(&self) -> Vec<String> {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    }

    fn figure_keys(&self, id: &str) -> Option<Vec<String>> {
        jobs_for(id, &self.harness.cfg).map(|jobs| jobs.iter().map(Job::cache_key).collect())
    }

    fn has_key(&self, key: &str) -> bool {
        self.plan.contains_key(key)
    }

    fn key_count(&self) -> usize {
        self.plan.len()
    }

    fn execute(&self, key: &str) -> Result<Json, String> {
        let job = self
            .plan
            .get(key)
            .ok_or_else(|| format!("cache key '{key}' is not in the plan"))?;
        if let Some(cached) = self.harness.cached(key) {
            return Ok(report_json(key, &cached));
        }
        let report = job.execute()?;
        let canonical = self.harness.preload(key.to_string(), report);
        Ok(report_json(key, &canonical))
    }

    fn figure(&self, id: &str) -> Result<Json, String> {
        let fig = generate(id, &self.harness).ok_or_else(|| format!("unknown figure '{id}'"))?;
        Ok(Json::obj([
            ("id", Json::from(fig.id)),
            ("title", Json::from(fig.title.as_str())),
            ("figure", fig.json),
        ]))
    }

    fn preload(&self, key: &str, report: &Json) -> Result<(), String> {
        let (stored_key, parsed) = report_from_json(report)?;
        if stored_key != key {
            return Err(format!(
                "report is keyed '{stored_key}', expected '{key}'"
            ));
        }
        self.harness.preload(key.to_string(), parsed);
        Ok(())
    }

    fn cache_stats(&self) -> CacheStats {
        let c = self.harness.cache_counters();
        CacheStats {
            hits: c.hits,
            misses: c.misses,
            inserts: c.inserts,
        }
    }
}

/// Parsed `tdc serve` options (both modes).
struct Options {
    addr: String,
    cache_dir: Option<std::path::PathBuf>,
    events: Option<std::path::PathBuf>,
    jobs: usize,
    queue: usize,
    scale: Option<f64>,
    seed: u64,
    quiet: bool,
    bench: bool,
    requests: usize,
    clients: usize,
    shutdown: bool,
    expect_speedup: Option<f64>,
}

const USAGE: &str = "\
tdc serve — persistent sweep service with a content-addressed result store

USAGE:
    tdc serve [OPTIONS]               start the daemon
    tdc serve --bench [OPTIONS]      run the load generator against a daemon

DAEMON OPTIONS:
    --addr HOST:PORT   Listen address (default: 127.0.0.1:7943; port 0
                       picks an ephemeral port, echoed on stdout)
    --cache-dir DIR    Persist results to a content-addressed store and
                       warm-start from it (shared with 'tdc all --cache-dir')
    --events PATH      Write span-correlated structured events (JSONL,
                       DESIGN.md §13) for every request, e.g.
                       results/events.jsonl
    --jobs N           Simulation worker threads per sweep
    --queue N          Admission-queue capacity; beyond it requests get
                       429 + Retry-After (default: 32)
    --scale F          Run-length scale factor (default: TDC_SCALE or 1.0)
    --seed S           Master seed (default: 2015)
    --quiet            Suppress per-request log lines on stderr

ENDPOINTS:
    POST /sweep        Materialize cells ({\"format_version\":1,
                       \"keys\":[...], \"figures\":[...]})
    GET  /figure/<id>  Materialize and return one figure document
    GET  /status       Plan size, warm-cell count, queue occupancy
    GET  /metrics      Request/work counters, per-request epochs
    GET  /metrics.prom Same counters + latency histogram, Prometheus
                       text exposition format
    POST /shutdown     Stop accepting connections and exit

BENCH OPTIONS (with --bench):
    --addr HOST:PORT   Daemon to load (required to match the daemon's)
    --requests N       Requests per pass (default: 100)
    --clients N        Concurrent client connections (default: 4)
    --seed S           Request-mix seed (default: 2015)
    --scale F          Must match the daemon's scale so keys agree
    --expect-speedup F Exit non-zero unless warm/cold throughput >= F
    --shutdown         POST /shutdown to the daemon when done

The bench replays the same Zipf-distributed figure-cell request mix
twice — a cold pass, then a warm pass — and reports throughput and
latency percentiles for each.";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7943".to_string(),
        cache_dir: None,
        events: None,
        jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        queue: 32,
        scale: None,
        seed: SEED,
        quiet: false,
        bench: false,
        requests: 100,
        clients: 4,
        shutdown: false,
        expect_speedup: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")?.into()),
            "--events" => opts.events = Some(value("--events")?.into()),
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse::<usize>()
                    .map_err(|_| "--jobs needs a positive integer".to_string())?
                    .max(1)
            }
            "--queue" => {
                opts.queue = value("--queue")?
                    .parse::<usize>()
                    .map_err(|_| "--queue needs a non-negative integer".to_string())?
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
            "--quiet" => opts.quiet = true,
            "--bench" => opts.bench = true,
            "--requests" => {
                opts.requests = value("--requests")?
                    .parse::<usize>()
                    .map_err(|_| "--requests needs a positive integer".to_string())?
                    .max(1)
            }
            "--clients" => {
                opts.clients = value("--clients")?
                    .parse::<usize>()
                    .map_err(|_| "--clients needs a positive integer".to_string())?
                    .max(1)
            }
            "--shutdown" => opts.shutdown = true,
            "--expect-speedup" => {
                opts.expect_speedup = Some(
                    value("--expect-speedup")?
                        .parse::<f64>()
                        .map_err(|_| "--expect-speedup needs a number".to_string())?,
                )
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}' (try 'tdc serve -h')")),
        }
    }
    Ok(opts)
}

fn config(opts: &Options) -> RunConfig {
    match opts.scale {
        Some(f) => RunConfig::scaled(opts.seed, f),
        None => RunConfig::from_env(opts.seed),
    }
}

/// Runs `tdc serve` with `args` (without the subcommand name). Returns
/// the process exit code.
pub fn run(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if opts.bench {
        return bench(&opts);
    }
    daemon(&opts)
}

fn daemon(opts: &Options) -> i32 {
    let cfg = config(opts);
    let engine = PlanEngine::new(cfg, opts.jobs);
    let store = match &opts.cache_dir {
        Some(dir) => match ResultStore::open(dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("tdc serve: cannot open --cache-dir {}: {e}", dir.display());
                return 1;
            }
        },
        None => None,
    };
    let mut server = Server::new(
        engine,
        ServerConfig {
            jobs: opts.jobs,
            queue: opts.queue,
        },
        store,
    );
    if let Some(path) = &opts.events {
        match tdc_util::obs::EventLog::create(path) {
            Ok(log) => server = server.with_event_log(log),
            Err(e) => {
                eprintln!("tdc serve: cannot open --events {}: {e}", path.display());
                return 1;
            }
        }
    }
    let server = Arc::new(server);
    match server.warm_load() {
        Ok((loaded, skipped)) => {
            if !opts.quiet && (loaded > 0 || skipped > 0) {
                eprintln!("tdc serve: warm-started {loaded} cell(s) from store ({skipped} skipped)");
            }
        }
        Err(e) => {
            eprintln!("tdc serve: cannot read the result store: {e}");
            return 1;
        }
    }
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("tdc serve: cannot bind {}: {e}", opts.addr);
            return 1;
        }
    };
    match listener.local_addr() {
        // The fixed prefix is the contract scripts use to discover an
        // ephemeral --addr host:0 port; keep it stable.
        Ok(addr) => println!("tdc serve: listening on {addr}"),
        Err(e) => {
            eprintln!("tdc serve: cannot resolve the bound address: {e}");
            return 1;
        }
    }
    if let Err(e) = server.serve(listener) {
        eprintln!("tdc serve: accept loop failed: {e}");
        return 1;
    }
    if !opts.quiet {
        eprintln!("tdc serve: shutting down");
    }
    0
}

/// One load-generator pass outcome.
struct Pass {
    wall_seconds: f64,
    latencies_us: Vec<f64>,
    failures: usize,
}

fn bench(opts: &Options) -> i32 {
    let cfg = config(opts);
    let keys: Vec<String> = shard::plan(&cfg).iter().map(Job::cache_key).collect();
    if keys.is_empty() {
        eprintln!("tdc serve --bench: empty job plan");
        return 1;
    }

    // The figure-cell request mix: single-cell sweeps over the plan
    // keys, Zipf-skewed (hot baselines dominate, exactly like figure
    // generation does), in a seed-reproducible order.
    let mut rng = Pcg32::seed_from_u64(opts.seed);
    let zipf = match Zipf::new(keys.len() as u64, 0.9) {
        Ok(z) => z,
        Err(e) => {
            eprintln!("tdc serve --bench: bad mix distribution: {e}");
            return 1;
        }
    };
    let mix: Vec<Request> = (0..opts.requests)
        .map(|_| {
            let key = keys[zipf.sample(&mut rng) as usize % keys.len()].clone();
            Request::new(
                "POST",
                "/sweep",
                tdc_serve::sweep_request(&[key], &[]).pretty(),
            )
        })
        .collect();

    println!(
        "tdc serve --bench | {} requests x 2 passes | {} clients | {} plan keys | {}",
        mix.len(),
        opts.clients,
        keys.len(),
        opts.addr
    );
    let cold = run_pass(&opts.addr, &mix, opts.clients);
    let warm = run_pass(&opts.addr, &mix, opts.clients);
    report_pass("cold", &cold);
    report_pass("warm", &warm);

    let cold_tput = mix.len() as f64 / cold.wall_seconds.max(1e-9);
    let warm_tput = mix.len() as f64 / warm.wall_seconds.max(1e-9);
    let speedup = warm_tput / cold_tput.max(1e-9);
    println!("warm/cold throughput speedup: {speedup:.2}x");

    match fetch_dedup(&opts.addr) {
        Ok(w) => {
            // The "deduped=... mem_hits=..." prefix is a stable contract
            // (scripts/ci.sh greps it); extensions append after it.
            println!(
                "server work counters: deduped={} mem_hits={} store_hits={} store_misses={} executed={}",
                w.deduped, w.mem_hits, w.store_hits, w.store_misses, w.executed
            );
        }
        Err(e) => eprintln!("tdc serve --bench: /metrics fetch failed: {e}"),
    }

    if opts.shutdown {
        let req = Request::new("POST", "/shutdown", Vec::new());
        if let Err(e) = tdc_serve::exchange(&opts.addr, &req) {
            eprintln!("tdc serve --bench: shutdown request failed: {e}");
            return 1;
        }
    }
    if cold.failures + warm.failures > 0 {
        eprintln!(
            "tdc serve --bench: {} request(s) failed",
            cold.failures + warm.failures
        );
        return 1;
    }
    if let Some(want) = opts.expect_speedup {
        if speedup < want {
            eprintln!(
                "tdc serve --bench: warm/cold speedup {speedup:.2}x is below the required {want:.2}x"
            );
            return 1;
        }
    }
    0
}

fn run_pass(addr: &str, mix: &[Request], clients: usize) -> Pass {
    // Wall-clock and latency here are bench-report telemetry only.
    let started = std::time::Instant::now(); // tdc-lint: allow(time-source)
    let (outcomes, _) = run_tasks(mix, clients, |_, req| {
        let sent = std::time::Instant::now(); // tdc-lint: allow(time-source)
        let ok = matches!(tdc_serve::exchange(addr, req), Ok(resp) if resp.status == 200);
        (ok, sent.elapsed().as_secs_f64() * 1e6)
    });
    let wall_seconds = started.elapsed().as_secs_f64();
    let mut latencies_us: Vec<f64> = outcomes.iter().map(|(_, us)| *us).collect();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Pass {
        wall_seconds,
        latencies_us,
        failures: outcomes.iter().filter(|(ok, _)| !ok).count(),
    }
}

fn report_pass(name: &str, pass: &Pass) {
    let n = pass.latencies_us.len();
    println!(
        "{name}: {:.1} req/s | p50 {:.0}us p90 {:.0}us p99 {:.0}us | {} failed of {n}",
        n as f64 / pass.wall_seconds.max(1e-9),
        tdc_serve::percentile(&pass.latencies_us, 50.0),
        tdc_serve::percentile(&pass.latencies_us, 90.0),
        tdc_serve::percentile(&pass.latencies_us, 99.0),
        pass.failures,
    );
}

/// Work counters scraped from the daemon's `/metrics` after the warm
/// pass (single-flight, cache, and store effectiveness).
struct WorkCounters {
    deduped: u64,
    mem_hits: u64,
    store_hits: u64,
    store_misses: u64,
    executed: u64,
}

/// Reads the work and store counters from the daemon's `/metrics`.
fn fetch_dedup(addr: &str) -> Result<WorkCounters, String> {
    let resp = tdc_serve::exchange(addr, &Request::new("GET", "/metrics", Vec::new()))?;
    let text = std::str::from_utf8(&resp.body).map_err(|_| "non-UTF-8 body".to_string())?;
    let env = Json::parse(text).map_err(|e| format!("bad /metrics body: {e}"))?;
    let data = env.get("data").ok_or("no data in /metrics")?;
    let work = data.get("work").ok_or("no work counters in /metrics")?;
    let count = |name: &str| work.get(name).and_then(Json::as_u64).unwrap_or(0);
    let store_misses = data
        .get("store")
        .and_then(|s| s.get("misses"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    Ok(WorkCounters {
        deduped: count("deduped"),
        mem_hits: count("mem_hits"),
        store_hits: count("store_hits"),
        store_misses,
        executed: count("executed"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig::scaled(SEED, 0.001)
    }

    #[test]
    fn plan_engine_exposes_the_full_plan() {
        let engine = PlanEngine::new(tiny(), 1);
        assert_eq!(engine.key_count(), shard::plan(&tiny()).len());
        assert_eq!(engine.figure_ids().len(), ALL_IDS.len());
        let amat = engine.figure_keys("amat").expect("amat exists");
        assert!(!amat.is_empty());
        assert!(amat.iter().all(|k| engine.has_key(k)));
        assert!(engine.figure_keys("nope").is_none());
    }

    #[test]
    fn execute_preload_round_trip() {
        let engine = PlanEngine::new(tiny(), 1);
        let key = engine.figure_keys("amat").expect("amat exists")[0].clone();
        let doc = engine.execute(&key).expect("cell runs");
        assert_eq!(doc.get("key").and_then(Json::as_str), Some(key.as_str()));

        // A fresh engine accepts the document as a warm start and then
        // serves the identical bytes without simulating.
        let cold = PlanEngine::new(tiny(), 1);
        cold.preload(&key, &doc).expect("preload accepts own output");
        assert_eq!(cold.harness().stats().executed, 0);
        let again = cold.execute(&key).expect("cache hit");
        assert_eq!(again, doc);
        assert_eq!(cold.harness().stats().executed, 0);

        // A mismatched key is rejected.
        assert!(cold.preload("wrong-key", &doc).is_err());
    }

    #[test]
    fn parse_modes_and_flags() {
        let args: Vec<String> = ["--addr", "127.0.0.1:0", "--queue", "7", "--scale", "0.01"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse(&args).expect("daemon flags parse");
        assert!(!o.bench);
        assert_eq!((o.addr.as_str(), o.queue), ("127.0.0.1:0", 7));

        let args: Vec<String> =
            ["--bench", "--requests", "9", "--clients", "2", "--shutdown", "--expect-speedup", "2"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let o = parse(&args).expect("bench flags parse");
        assert!(o.bench && o.shutdown);
        assert_eq!((o.requests, o.clients), (9, 2));
        assert_eq!(o.expect_speedup, Some(2.0));

        assert!(parse(&["--nope".to_string()]).is_err());
        assert!(parse(&["--scale".to_string(), "0".to_string()]).is_err());
    }
}
