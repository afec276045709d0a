//! End-to-end contract of `tdc bench run` and `tdc bench check`.
//!
//! Every gate assertion reads crafted record files, so no verdict here
//! depends on a measured time:
//!
//! * identical records pass, one bench ten times slower is the one
//!   REGRESSION, and a bench missing from CURRENT fails as MISSING;
//! * a pair from another host, at another scale or in another format,
//!   and a malformed file, are refused (exit 1) with a message naming
//!   the mismatch;
//! * a removed or unknown argument is a usage error (exit 2).
//!
//! Real `tdc bench run`s check only what timing cannot move: the
//! record's fields and their order, that every kernel and figure cell
//! is present, and the commit stamp, inside throwaway git repositories
//! so stamping is exercised for real, not mocked.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tdc_harness::bench::{BENCH_FIELDS, RECORD_FIELDS, RECORD_VERSION};
use tdc_harness::kernels::micro_kernels;
use tdc_util::Json;

/// Timing knobs that keep the kernels fast without changing the code
/// path: tiny iteration budgets, two-to-three runs per bench.
const FAST_ENV: [(&str, &str); 3] = [
    ("TDC_BENCH_ITERS_SCALE", "0.005"),
    ("TDC_BENCH_RUNS", "2"),
    ("TDC_BENCH_MAX_RUNS", "3"),
];

/// The figure cells every record carries after the micro kernels.
const FIGURE_IDS: [&str; 3] = ["figure/mcf_ctlb", "figure/mcf_nol3", "figure/libquantum_sram"];

fn tdc(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tdc"))
        .args(args)
        .current_dir(cwd)
        .envs(FAST_ENV)
        .output()
        .expect("tdc runs")
}

/// A fresh, empty directory for one test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

// ---------------------------------------------------------------------------
// tdc bench check, on crafted records
// ---------------------------------------------------------------------------

/// What a crafted record varies; every other field is fixed.
struct Craft {
    sha: &'static str,
    format_version: u64,
    cpus: u64,
    scale: f64,
    /// `(group/name, median ns/op)`; each spread is 2% of its median.
    benches: Vec<(&'static str, f64)>,
}

fn base() -> Craft {
    Craft {
        sha: "aaaaaaaaaaaa",
        format_version: RECORD_VERSION,
        cpus: 2,
        scale: 0.01,
        benches: vec![
            ("trace_gen/mcf", 70.0),
            ("access_path/tagless_warm_hit", 27.0),
            ("figure/mcf_ctlb", 1200.0),
        ],
    }
}

impl Craft {
    fn text(&self) -> String {
        let benches = self
            .benches
            .iter()
            .map(|&(id, median)| {
                let (group, name) = id.split_once('/').expect("group/name id");
                Json::obj([
                    ("kind", Json::from("micro")),
                    ("group", Json::from(group)),
                    ("name", Json::from(name)),
                    ("iters", Json::from(1000u64)),
                    ("runs", Json::from(3u64)),
                    ("ns_per_op_median", Json::from(median)),
                    ("ns_per_op_spread", Json::from(median * 0.02)),
                    ("ns_per_op_min", Json::from(median * 0.99)),
                    ("ns_per_op_max", Json::from(median * 1.01)),
                ])
            })
            .collect();
        Json::obj([
            ("format_version", Json::from(self.format_version)),
            ("git_sha", Json::from(self.sha)),
            ("dirty", Json::from(false)),
            ("scale", Json::from(self.scale)),
            (
                "host",
                Json::obj([
                    ("os", Json::from("linux")),
                    ("arch", Json::from("x86_64")),
                    ("cpus", Json::from(self.cpus)),
                ]),
            ),
            ("timing", Json::obj([("min_runs", 3u64), ("max_runs", 10u64)])),
            ("benches", Json::Arr(benches)),
        ])
        .pretty()
    }
}

/// `tdc bench check` on two record texts written into a fresh
/// directory: `(exit code, stdout, stderr)`.
fn check(name: &str, base: &str, current: &str) -> (i32, String, String) {
    let dir = temp_dir(name);
    fs::write(dir.join("base.json"), base).expect("base written");
    fs::write(dir.join("cur.json"), current).expect("current written");
    let out = tdc(&["bench", "check", "base.json", "cur.json"], &dir);
    let _ = fs::remove_dir_all(&dir);
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn identical_records_pass() {
    let text = base().text();
    let (code, stdout, stderr) = check("identical", &text, &text);
    assert_eq!(code, 0, "identical records must pass:\n{stdout}{stderr}");
    assert!(stdout.contains("3 compared, 0 regressed"), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
}

#[test]
fn one_bench_ten_times_slower_is_the_one_regression() {
    let mut slow = base();
    slow.sha = "bbbbbbbbbbbb";
    slow.benches[0].1 *= 10.0;
    let (code, stdout, stderr) = check("slower", &base().text(), &slow.text());
    assert_eq!(code, 1, "a 10x slowdown must fail:\n{stdout}{stderr}");
    let flagged: Vec<&str> = stdout.lines().filter(|l| l.contains("REGRESSION")).collect();
    assert_eq!(flagged.len(), 1, "exactly one regression expected:\n{stdout}");
    assert!(flagged[0].starts_with("trace_gen/mcf "), "wrong bench flagged:\n{stdout}");
    assert!(stdout.contains("1 regressed"), "summary line missing:\n{stdout}");
    let header = stdout.lines().next().unwrap_or_default();
    assert!(
        header.contains("aaaaaaaaaaaa") && header.contains("bbbbbbbbbbbb"),
        "check must name both records' commits: {header}"
    );
}

#[test]
fn a_bench_missing_from_current_fails() {
    let mut fewer = base();
    fewer.benches.remove(1);
    let (code, stdout, stderr) = check("missing", &base().text(), &fewer.text());
    assert_eq!(code, 1, "a dropped bench must fail:\n{stdout}{stderr}");
    let missing: Vec<&str> = stdout.lines().filter(|l| l.contains("MISSING")).collect();
    assert_eq!(missing.len(), 1, "{stdout}");
    assert!(missing[0].starts_with("access_path/tagless_warm_hit "), "{stdout}");
}

#[test]
fn pairs_that_measure_different_things_are_refused() {
    let other_host = Craft { cpus: 4, ..base() };
    let other_scale = Craft { scale: 0.02, ..base() };
    let other_format = Craft {
        format_version: RECORD_VERSION - 1,
        ..base()
    };
    let cases = [
        ("host", other_host.text(), "host mismatch"),
        ("scale", other_scale.text(), "scale mismatch"),
        ("format", other_format.text(), "format_version mismatch"),
        ("malformed", "{\"format_version\": ".to_string(), "malformed record"),
    ];
    for (name, current, why) in cases {
        let (code, stdout, stderr) = check(name, &base().text(), &current);
        assert_eq!(code, 1, "{name}: the pair must be refused:\n{stdout}{stderr}");
        assert!(stderr.contains(why), "{name}: message must say '{why}':\n{stderr}");
        assert!(!stdout.contains("compared"), "{name}: refused pair was compared:\n{stdout}");
    }
}

#[test]
fn removed_and_unknown_arguments_are_usage_errors() {
    let dir = temp_dir("usage");
    let cases: [&[&str]; 7] = [
        &["bench", "history"],
        &["bench", "check", "a.json", "b.json", "--update"],
        &["bench", "check", "--history", "h.jsonl", "a.json"],
        &["bench", "check", "--baseline", "a.json", "b.json"],
        &["bench", "check", "a.json"],
        &["bench", "check", "a.json", "b.json", "--bogus"],
        &["bench", "run", "--bogus"],
    ];
    for args in cases {
        let out = tdc(args, &dir);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must be a usage error:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(
        !dir.join("results").exists(),
        "a usage error must not run the benches"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// tdc bench run, on what timing cannot move
// ---------------------------------------------------------------------------

fn git(args: &[&str], cwd: &Path) -> String {
    let out = Command::new("git")
        .args(["-c", "user.email=bench@test", "-c", "user.name=bench"])
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("git runs");
    assert!(
        out.status.success(),
        "git {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).trim().to_string()
}

fn bench_run(dir: &Path, extra: &[&str]) {
    let mut args = vec!["bench", "run", "--scale", "0.001", "--quiet"];
    args.extend(extra);
    let out = tdc(&args, dir);
    assert!(
        out.status.success(),
        "tdc bench run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn keys(obj: &Json) -> Vec<&str> {
    let Json::Obj(pairs) = obj else {
        panic!("expected an object, got {obj}")
    };
    pairs.iter().map(|(k, _)| k.as_str()).collect()
}

fn read_json(path: &Path) -> Json {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("record parses")
}

#[test]
fn run_writes_one_complete_stamped_record() {
    let dir = temp_dir("run");
    git(&["init", "-q"], &dir);
    fs::write(dir.join("tracked.txt"), "v1\n").expect("tracked file");
    git(&["add", "tracked.txt"], &dir);
    git(&["commit", "-q", "-m", "seed"], &dir);
    let sha = git(&["rev-parse", "--short=12", "HEAD"], &dir);
    // Untracked files, the record among them, must not dirty the stamp.
    fs::write(dir.join("untracked.txt"), "scratch\n").expect("untracked file");

    bench_run(&dir, &[]);
    let record = read_json(&dir.join("results/bench.json"));
    assert_eq!(keys(&record), RECORD_FIELDS, "record fields or their order drifted");
    assert_eq!(record.get("format_version").and_then(Json::as_u64), Some(RECORD_VERSION));
    assert_eq!(record.get("git_sha").and_then(Json::as_str), Some(sha.as_str()));
    assert_eq!(record.get("dirty"), Some(&Json::Bool(false)), "untracked files dirtied the stamp");
    let Some(Json::Arr(benches)) = record.get("benches") else {
        panic!("record has no benches array")
    };
    let mut ids = Vec::new();
    for bench in benches {
        assert_eq!(keys(bench), BENCH_FIELDS, "bench entry fields or their order drifted");
        let field = |k: &str| bench.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
        ids.push(format!("{}/{}", field("group"), field("name")));
    }
    let want: Vec<String> = micro_kernels()
        .iter()
        .map(|k| k.id())
        .chain(FIGURE_IDS.iter().map(|id| id.to_string()))
        .collect();
    assert_eq!(ids, want, "a kernel or figure cell is missing from the record");

    fs::write(dir.join("tracked.txt"), "v2: modified, not committed\n").expect("dirty the tree");
    bench_run(&dir, &["--out", "dirty.json"]);
    let dirty = read_json(&dir.join("dirty.json"));
    assert_eq!(dirty.get("dirty"), Some(&Json::Bool(true)), "a tracked edit was not stamped");
    let _ = fs::remove_dir_all(&dir);
}
