//! The lint driver: file discovery, parallel scanning, pragma and
//! ratchet filtering, and the human/JSON reports.
//!
//! The scan covers every `crates/*/src/**/*.rs` plus the root package's
//! `src/` — the library code whose behavior feeds the deterministic
//! artifacts. `tests/`, `benches/`, `examples/`, and binary fixtures
//! are out of scope (and per-file test modules are exempted by the
//! lexer's `#[cfg(test)]` heuristic).
//!
//! Findings pass through two filters:
//!
//! 1. **Pragmas** — `// tdc-lint: allow(<rule>)` on (or directly above)
//!    the offending line marks a finding `allowed`: a human looked at it
//!    and vouched for it in the source itself.
//! 2. **The ratchet** — `lint.ratchet` at the workspace root records the
//!    grandfathered finding count per `(rule, file)`. Findings within
//!    the recorded count are `grandfathered`; anything beyond it is
//!    `new` and fails the run. Counts may only go down over time:
//!    shrink a file's findings and `tdc lint --update-ratchet` tightens
//!    the file. Entries whose count exceeds reality are reported as
//!    stale so the ratchet never loosens silently.

use crate::graph::{self, GraphSummary, GRAPH_VERSION};
use crate::lexer::{scan, ScannedFile};
use crate::parser::{parse, ParsedFile};
use crate::rules::{
    bench_schema, design_constants, figure_baselines, graph_schema, line_rules, manifest_schema,
    obs_schema, pool_schema, probe_coverage, wire_schema, RawFinding, RULES,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use tdc_util::json::Json;

/// How a finding fared against the pragma and ratchet filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not suppressed anywhere: fails the run.
    New,
    /// Suppressed by an in-source `tdc-lint: allow(...)` pragma.
    Allowed,
    /// Covered by the checked-in ratchet file.
    Grandfathered,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::New => "new",
            Status::Allowed => "allowed",
            Status::Grandfathered => "grandfathered",
        }
    }
}

/// One filtered finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub raw: RawFinding,
    pub status: Status,
}

/// A stale ratchet entry: the file has fewer findings than recorded.
#[derive(Debug, Clone)]
pub struct StaleEntry {
    pub rule: String,
    pub file: String,
    pub allowed: usize,
    pub actual: usize,
}

/// The full outcome of one lint run.
#[derive(Debug)]
pub struct LintReport {
    pub files_scanned: usize,
    /// Call-graph summary from the second (resolve) pass.
    pub graph: GraphSummary,
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    pub stale: Vec<StaleEntry>,
}

/// Lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding the top-level Cargo.toml).
    pub root: PathBuf,
    /// Worker threads for the file scan.
    pub jobs: usize,
    /// Ratchet file path; `None` means `<root>/lint.ratchet`.
    pub ratchet: Option<PathBuf>,
    /// Restrict the report to these rule ids (`--only`); `None` runs
    /// everything. Stale-ratchet reporting is restricted the same way
    /// so filtered-out rules don't read as stale.
    pub only: Option<BTreeSet<String>>,
}

impl Config {
    /// Lint `root` with default settings.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            ratchet: None,
            only: None,
        }
    }

    fn ratchet_path(&self) -> PathBuf {
        self.ratchet
            .clone()
            .unwrap_or_else(|| self.root.join("lint.ratchet"))
    }
}

impl LintReport {
    /// Findings that fail the run.
    pub fn new_count(&self) -> usize {
        self.findings.iter().filter(|f| f.status == Status::New).count()
    }

    fn count(&self, status: Status) -> usize {
        self.findings.iter().filter(|f| f.status == status).count()
    }

    /// The deterministic `results/lint.json` document.
    pub fn to_json(&self) -> Json {
        let rules = Json::Arr(
            RULES
                .iter()
                .map(|(id, summary)| {
                    Json::obj([("id", Json::from(*id)), ("summary", Json::from(*summary))])
                })
                .collect(),
        );
        let findings = Json::Arr(
            self.findings
                .iter()
                .map(|f| {
                    Json::obj([
                        ("rule", Json::from(f.raw.rule)),
                        ("file", Json::from(f.raw.file.as_str())),
                        ("line", Json::U64(f.raw.line as u64)),
                        ("status", Json::from(f.status.as_str())),
                        ("message", Json::from(f.raw.message.as_str())),
                    ])
                })
                .collect(),
        );
        let stale = Json::Arr(
            self.stale
                .iter()
                .map(|s| {
                    Json::obj([
                        ("rule", Json::from(s.rule.as_str())),
                        ("file", Json::from(s.file.as_str())),
                        ("allowed", Json::U64(s.allowed as u64)),
                        ("actual", Json::U64(s.actual as u64)),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("tool", Json::from("tdc-lint")),
            ("format_version", Json::U64(1)),
            ("files_scanned", Json::U64(self.files_scanned as u64)),
            ("rules", rules),
            (
                "counts",
                Json::obj([
                    ("new", Json::U64(self.new_count() as u64)),
                    (
                        "grandfathered",
                        Json::U64(self.count(Status::Grandfathered) as u64),
                    ),
                    ("allowed", Json::U64(self.count(Status::Allowed) as u64)),
                ]),
            ),
            (
                "graph",
                Json::obj([
                    ("format_version", Json::U64(GRAPH_VERSION)),
                    ("functions", Json::U64(self.graph.functions as u64)),
                    ("edges", Json::U64(self.graph.edges as u64)),
                    (
                        "roots",
                        Json::obj([
                            ("hot", Json::U64(self.graph.hot_roots as u64)),
                            ("handlers", Json::U64(self.graph.handler_roots as u64)),
                        ]),
                    ),
                ]),
            ),
            ("findings", findings),
            ("stale_ratchet", stale),
        ])
    }

    /// The human-readable report (new findings in full, the rest
    /// summarized).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in self.findings.iter().filter(|f| f.status == Status::New) {
            let _ = writeln!(
                out,
                "{}:{}: [{}] {}",
                f.raw.file, f.raw.line, f.raw.rule, f.raw.message
            );
        }
        for s in &self.stale {
            let _ = writeln!(
                out,
                "stale ratchet entry: {} {} allows {} but only {} remain \
                 (run `tdc lint --update-ratchet` to tighten)",
                s.rule, s.file, s.allowed, s.actual
            );
        }
        let _ = writeln!(
            out,
            "tdc-lint: {} files scanned, {} fns / {} edges in call graph, \
             {} new finding(s), {} grandfathered, {} allowed",
            self.files_scanned,
            self.graph.functions,
            self.graph.edges,
            self.new_count(),
            self.count(Status::Grandfathered),
            self.count(Status::Allowed),
        );
        out
    }

    /// The ratchet file content matching this report (pragma-allowed
    /// findings stay out; they are already suppressed in-source).
    pub fn ratchet_content(&self) -> String {
        let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for f in &self.findings {
            if f.status != Status::Allowed {
                *counts.entry((f.raw.rule, &f.raw.file)).or_insert(0) += 1;
            }
        }
        let mut out = String::from(
            "# tdc-lint ratchet: grandfathered finding counts per (rule, file).\n\
             # Counts may only decrease; regenerate with `tdc lint --update-ratchet`.\n",
        );
        for ((rule, file), n) in counts {
            let _ = writeln!(out, "{rule} {file} {n}");
        }
        out
    }
}

/// Ascends from `start` to the first directory whose Cargo.toml declares
/// a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects the workspace-relative paths (forward slashes, sorted) of
/// every library source file in scope.
fn collect_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                walk_rs(&src, root, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, root, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Parses the ratchet file: `rule file count` per line, `#` comments.
fn load_ratchet(path: &Path) -> io::Result<BTreeMap<(String, String), usize>> {
    let mut map = BTreeMap::new();
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(map),
        Err(e) => return Err(e),
    };
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let entry = (|| {
            let rule = parts.next()?.to_string();
            let file = parts.next()?.to_string();
            let count = parts.next()?.parse::<usize>().ok()?;
            Some(((rule, file), count))
        })();
        match entry {
            Some((key, count)) => {
                map.insert(key, count);
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: malformed ratchet line", path.display(), idx + 1),
                ))
            }
        }
    }
    Ok(map)
}

/// Runs the full lint pass.
pub fn run(cfg: &Config) -> io::Result<LintReport> {
    let paths = collect_sources(&cfg.root)?;
    let files_scanned = paths.len();

    // Pass 1: scan, parse, and run the per-line rules in parallel
    // through the shared worker pool; results come back in input
    // (sorted-path) order.
    type Scanned = Result<(String, ScannedFile, ParsedFile, Vec<RawFinding>), String>;
    let (scanned, _): (Vec<Scanned>, _) = tdc_util::pool::run_tasks(&paths, cfg.jobs, |_, rel| {
        let text =
            fs::read_to_string(cfg.root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        let file = scan(&text);
        let parsed = parse(&file);
        let found = line_rules(rel, &file);
        Ok((rel.clone(), file, parsed, found))
    });

    let mut files: BTreeMap<String, ScannedFile> = BTreeMap::new();
    let mut parsed_files: BTreeMap<String, ParsedFile> = BTreeMap::new();
    let mut raw: Vec<RawFinding> = Vec::new();
    for item in scanned {
        let (rel, file, parsed, found) = item.map_err(io::Error::other)?;
        files.insert(rel.clone(), file);
        parsed_files.insert(rel, parsed);
        raw.extend(found);
    }

    raw.extend(probe_coverage(&files));
    raw.extend(figure_baselines(&files, &cfg.root));
    let design_md = cfg.root.join("DESIGN.md");
    if design_md.is_file() {
        let design_text = fs::read_to_string(&design_md)?;
        raw.extend(design_constants(&files, &design_text));
        raw.extend(manifest_schema(&files, &design_text));
        raw.extend(bench_schema(&files, &design_text));
        raw.extend(wire_schema(&files, &design_text));
        raw.extend(obs_schema(&files, &design_text));
        raw.extend(graph_schema(&files, &design_text));
        raw.extend(pool_schema(&files, &design_text));
    }

    // Pass 2: resolve the workspace call graph and run the graph rule
    // families on it.
    let g = graph::build(&parsed_files);
    raw.extend(graph::hot_path_alloc(&parsed_files, &g));
    raw.extend(graph::panic_reachability(&g));
    raw.extend(graph::lock_order(&g));
    let graph_summary = graph::summary(&parsed_files, &g);
    drop(g);

    if let Some(only) = &cfg.only {
        raw.retain(|r| only.contains(r.rule));
    }
    raw.sort();

    // Pragma filter.
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .map(|r| {
            let allowed = files
                .get(&r.file)
                .is_some_and(|f| f.is_allowed(r.line - 1, r.rule));
            Finding {
                raw: r,
                status: if allowed { Status::Allowed } else { Status::New },
            }
        })
        .collect();

    // Ratchet filter: within each (rule, file), the first `allowed`
    // non-pragma findings (in line order) are grandfathered.
    let ratchet = load_ratchet(&cfg.ratchet_path())?;
    let mut seen: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in findings.iter_mut() {
        if f.status == Status::Allowed {
            continue;
        }
        let key = (f.raw.rule.to_string(), f.raw.file.clone());
        let budget = ratchet.get(&key).copied().unwrap_or(0);
        let used = seen.entry(key).or_insert(0);
        if *used < budget {
            *used += 1;
            f.status = Status::Grandfathered;
        }
    }
    let stale = ratchet
        .iter()
        .filter(|((rule, _), _)| cfg.only.as_ref().is_none_or(|only| only.contains(rule)))
        .filter_map(|((rule, file), &budget)| {
            let actual = seen.get(&(rule.clone(), file.clone())).copied().unwrap_or(0);
            (actual < budget).then(|| StaleEntry {
                rule: rule.clone(),
                file: file.clone(),
                allowed: budget,
                actual,
            })
        })
        .collect();

    Ok(LintReport {
        files_scanned,
        graph: graph_summary,
        findings,
        stale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tdc-lint-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test workspace");
        dir
    }

    fn write(root: &Path, rel: &str, text: &str) {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        fs::write(path, text).expect("write fixture");
    }

    #[test]
    fn ratchet_grandfathers_exact_count() {
        let root = tmpdir("ratchet");
        write(
            &root,
            "crates/a/src/lib.rs",
            "fn f() { x.unwrap(); }\nfn g() { y.unwrap(); }\n",
        );
        write(&root, "lint.ratchet", "panic-in-lib crates/a/src/lib.rs 1\n");
        let mut cfg = Config::new(&root);
        cfg.jobs = 2;
        let report = run(&cfg).expect("lint runs");
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.findings[0].status, Status::Grandfathered);
        assert_eq!(report.findings[1].status, Status::New);
        assert_eq!(report.new_count(), 1);
        assert!(report.stale.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_entries_are_reported_not_silently_kept() {
        let root = tmpdir("stale");
        write(&root, "crates/a/src/lib.rs", "fn f() {}\n");
        write(&root, "lint.ratchet", "panic-in-lib crates/a/src/lib.rs 3\n");
        let report = run(&Config::new(&root)).expect("lint runs");
        assert_eq!(report.new_count(), 0);
        assert_eq!(report.stale.len(), 1);
        assert_eq!(report.stale[0].allowed, 3);
        assert_eq!(report.stale[0].actual, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn pragmas_do_not_consume_ratchet_budget() {
        let root = tmpdir("pragma");
        write(
            &root,
            "crates/a/src/lib.rs",
            "use std::collections::HashMap; // tdc-lint: allow(hash-collections)\n\
             use std::collections::HashSet;\n",
        );
        let report = run(&Config::new(&root)).expect("lint runs");
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.findings[0].status, Status::Allowed);
        assert_eq!(report.findings[1].status, Status::New);
        // The regenerated ratchet only counts the unsuppressed one.
        assert!(report.ratchet_content().contains("hash-collections crates/a/src/lib.rs 1"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_ratchet_is_an_error() {
        let root = tmpdir("badratchet");
        write(&root, "crates/a/src/lib.rs", "fn f() {}\n");
        write(&root, "lint.ratchet", "just-two-fields here\n");
        assert!(run(&Config::new(&root)).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn workspace_root_discovery() {
        let root = tmpdir("rootdisc");
        write(&root, "Cargo.toml", "[workspace]\nmembers = []\n");
        write(&root, "crates/a/src/lib.rs", "fn f() {}\n");
        let nested = root.join("crates/a/src");
        assert_eq!(find_workspace_root(&nested), Some(root.clone()));
        let _ = fs::remove_dir_all(&root);
    }
}
