//! End-to-end contract of `tdc bench run/check/history`:
//!
//! * `run` twice on the same (clean) commit appends two stamped
//!   records whose medians agree within the recorded spread, so
//!   `check` passes against a freshly written baseline;
//! * an artificially slowed kernel (`TDC_BENCH_HANDICAP`, test-only)
//!   makes `check` exit non-zero with a per-bench REGRESSION report;
//! * a dirty working tree stamps `"dirty": true` and `check --update`
//!   refuses to write a baseline from it (golden-filed message,
//!   regenerate with `TDC_UPDATE_GOLDEN=1 cargo test -p tdc-harness
//!   --test bench_cli`).
//!
//! Every test works inside its own throwaway git repository so commit
//! stamping is exercised for real, not mocked.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use tdc_util::Json;

/// Timing knobs that keep the kernels fast without changing the code
/// path: tiny iteration budgets, two-to-three runs per bench.
const FAST_ENV: [(&str, &str); 3] = [
    ("TDC_BENCH_ITERS_SCALE", "0.005"),
    ("TDC_BENCH_RUNS", "2"),
    ("TDC_BENCH_MAX_RUNS", "3"),
];

fn tdc(args: &[&str], cwd: &Path, extra_env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tdc"));
    cmd.args(args).current_dir(cwd).env_remove("TDC_BENCH_HANDICAP");
    for (k, v) in FAST_ENV.iter().chain(extra_env) {
        cmd.env(k, v);
    }
    cmd.output().expect("tdc runs")
}

fn git(args: &[&str], cwd: &Path) {
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
}

/// Creates a throwaway git repo with one committed file and returns
/// `(repo dir, short sha)`.
fn setup_repo(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("bench-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    git(&["init", "-q"], &dir);
    fs::write(dir.join("tracked.txt"), "v1\n").expect("tracked file");
    git(&["add", "tracked.txt"], &dir);
    git(&["commit", "-q", "-m", "seed"], &dir);
    let out = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(&dir)
        .output()
        .expect("git rev-parse runs");
    let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(!sha.is_empty(), "no sha from rev-parse");
    (dir, sha)
}

fn bench_run(dir: &Path, extra_env: &[(&str, &str)]) {
    let out = tdc(&["bench", "run", "--scale", "0.001", "--quiet"], dir, extra_env);
    assert!(
        out.status.success(),
        "tdc bench run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn history_records(dir: &Path) -> Vec<Json> {
    let text = fs::read_to_string(dir.join("results/bench-history.jsonl"))
        .expect("history readable");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("record parses"))
        .collect()
}

#[test]
fn run_twice_then_check_passes_against_fresh_baseline() {
    let (dir, sha) = setup_repo("e2e");
    bench_run(&dir, &[]);
    bench_run(&dir, &[]);

    let records = history_records(&dir);
    assert_eq!(records.len(), 2, "each run must append one record");
    for r in &records {
        assert_eq!(r.get("git_sha").and_then(Json::as_str), Some(sha.as_str()));
        assert_eq!(r.get("dirty"), Some(&Json::Bool(false)), "clean tree stamped dirty");
        let Some(Json::Arr(benches)) = r.get("benches") else {
            panic!("record has no benches array")
        };
        assert!(benches.len() >= 14, "only {} benches recorded", benches.len());
    }
    let stamp = dir.join(format!("BENCH_{sha}.json"));
    let stamped = Json::parse(&fs::read_to_string(&stamp).expect("stamp readable"))
        .expect("stamp parses");
    assert_eq!(&stamped, records.last().expect("two records"));

    // Baseline from the first record's commit... which is the same
    // commit; `check` must pass: medians agree within the recorded
    // spread plus margin.
    let update = tdc(&["bench", "check", "--update"], &dir, &[]);
    assert!(
        update.status.success(),
        "check --update failed: {}",
        String::from_utf8_lossy(&update.stderr)
    );
    assert!(dir.join("baselines/bench-baseline.json").exists());
    let check = tdc(&["bench", "check", "--margin", "0.5"], &dir, &[]);
    assert!(
        check.status.success(),
        "check regressed on an unchanged commit:\n{}{}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );
    let table = String::from_utf8_lossy(&check.stdout);
    assert!(table.contains("trace_gen/mcf"), "table missing a micro bench");
    assert!(table.contains("figure/mcf_ctlb"), "table missing a figure cell");
    assert!(!table.contains("REGRESSION"), "spurious regression:\n{table}");

    let history = tdc(&["bench", "history"], &dir, &[]);
    assert!(history.status.success());
    let rendered = String::from_utf8_lossy(&history.stdout);
    assert!(rendered.contains(&sha), "history does not show the sha:\n{rendered}");
    assert!(rendered.contains("(2 records"), "history miscounts:\n{rendered}");
    let one = tdc(&["bench", "history", "--bench", "trace_gen/mcf"], &dir, &[]);
    assert!(one.status.success());
    assert_eq!(
        String::from_utf8_lossy(&one.stdout).matches(&sha).count(),
        2,
        "per-bench history must show one line per record"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn handicapped_kernel_fails_the_gate_with_a_report() {
    let (dir, _sha) = setup_repo("handicap");
    bench_run(&dir, &[]);
    let update = tdc(&["bench", "check", "--update"], &dir, &[]);
    assert!(update.status.success());

    // Slow one kernel 10x after the fact; everything else unchanged.
    bench_run(&dir, &[("TDC_BENCH_HANDICAP", "trace_gen/mcf=10")]);
    let check = tdc(&["bench", "check", "--margin", "0.5"], &dir, &[]);
    assert_eq!(
        check.status.code(),
        Some(1),
        "handicapped check must exit 1:\n{}{}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );
    let table = String::from_utf8_lossy(&check.stdout);
    let flagged = table
        .lines()
        .filter(|l| l.contains("REGRESSION"))
        .collect::<Vec<_>>();
    assert_eq!(flagged.len(), 1, "exactly one regression expected:\n{table}");
    assert!(flagged[0].contains("trace_gen/mcf"), "wrong bench flagged:\n{table}");
    assert!(table.contains("1 regressed"), "summary line missing:\n{table}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dirty_tree_is_stamped_and_baseline_update_refuses() {
    let (dir, sha) = setup_repo("dirty");
    fs::write(dir.join("tracked.txt"), "v2: modified, not committed\n")
        .expect("dirty the tree");
    bench_run(&dir, &[]);
    let records = history_records(&dir);
    assert_eq!(records[0].get("dirty"), Some(&Json::Bool(true)), "dirty tree not stamped");

    let refuse = tdc(&["bench", "check", "--update"], &dir, &[]);
    assert_eq!(refuse.status.code(), Some(1), "dirty --update must fail");
    assert!(!dir.join("baselines/bench-baseline.json").exists());
    let stderr = String::from_utf8_lossy(&refuse.stderr).replace(&sha, "<SHA>");
    let rendered = format!("exit: {}\n{stderr}", refuse.status.code().unwrap_or(-1));
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/bench_update_dirty_refusal.txt");
    if std::env::var("TDC_UPDATE_GOLDEN").is_ok() {
        fs::write(&golden, &rendered).expect("golden written");
    } else {
        let want = fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!(
                "cannot read {} (set TDC_UPDATE_GOLDEN=1 to create): {e}",
                golden.display()
            )
        });
        assert_eq!(
            rendered, want,
            "dirty-refusal message drifted (TDC_UPDATE_GOLDEN=1 regenerates)"
        );
    }

    // The escape hatch for bootstrap and intentional refreshes.
    let forced = tdc(&["bench", "check", "--update", "--allow-dirty"], &dir, &[]);
    assert!(
        forced.status.success(),
        "--allow-dirty failed: {}",
        String::from_utf8_lossy(&forced.stderr)
    );
    assert!(dir.join("baselines/bench-baseline.json").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn untracked_files_do_not_dirty_the_stamp() {
    let (dir, _sha) = setup_repo("untracked");
    // The stamp and history themselves are untracked artifacts; if
    // they counted as dirt, every second run would be "dirty".
    fs::write(dir.join("untracked.txt"), "scratch\n").expect("untracked file");
    bench_run(&dir, &[]);
    let records = history_records(&dir);
    assert_eq!(
        records[0].get("dirty"),
        Some(&Json::Bool(false)),
        "untracked files must not dirty the record"
    );
    let _ = fs::remove_dir_all(&dir);
}
