//! End-to-end contract of the result store (`--cache-dir`), the one
//! path by which reports leave a harness and come back:
//!
//! * `tdc shard K/N --cache-dir` stores are byte-identical across
//!   `--jobs`;
//! * `tdc all --cache-dir` over the union of every shard's store
//!   simulates nothing and reproduces a direct `tdc all`
//!   byte-for-byte (`metrics.json` and the pool trace excepted — both
//!   are machine-local telemetry);
//! * a union missing a shard is not an error: its cells are simulated
//!   and the artifacts still match;
//! * a figure run warm-starts from the store its previous run wrote;
//! * every entry carries the model fingerprint compiled into `tdc`,
//!   wherever `tdc` runs.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use tdc_harness::store::MODEL_FINGERPRINT;
use tdc_util::Json;

fn temp_base(tag: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!("tdc-store-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).expect("temp base");
    base
}

/// Runs `tdc <args>` (whitespace-separated) at `--scale 0.001` in
/// `cwd` and asserts it succeeds.
fn tdc(args: &str, cwd: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_tdc"))
        .args(args.split_whitespace())
        .args(["--scale", "0.001", "--quiet"])
        .current_dir(cwd)
        .output()
        .expect("tdc runs");
    assert!(
        out.status.success(),
        "tdc {args} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read_tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                files.insert(rel, fs::read(&path).expect("readable file"));
            }
        }
    }
    files
}

/// The harness `executed` counter a run wrote to `<out>/metrics.json`.
fn executed(out: &Path) -> u64 {
    let text = fs::read_to_string(out.join("metrics.json")).expect("metrics.json exists");
    Json::parse(&text)
        .expect("metrics.json parses")
        .get("executed")
        .and_then(Json::as_u64)
        .expect("executed counter")
}

/// Copies every `cell-*.json` of the `from` stores into `to`.
fn union(from: &[&Path], to: &Path) {
    fs::create_dir_all(to).expect("union dir");
    for store in from {
        for entry in fs::read_dir(store).expect("readable store") {
            let path = entry.expect("store entry").path();
            let name = path.file_name().expect("file name").to_owned();
            if name.to_string_lossy().starts_with("cell-") {
                fs::copy(&path, to.join(name)).expect("copy entry");
            }
        }
    }
}

/// Asserts two `results/` trees hold the same files with the same
/// bytes, apart from the machine-local telemetry.
fn assert_same_artifacts(want: &Path, got: &Path) {
    let strip = |dir: &Path| {
        let mut tree = read_tree(dir);
        assert!(
            tree.remove("metrics.json").is_some(),
            "{} has no metrics.json",
            dir.display()
        );
        tree.remove("trace/pool.trace.json");
        tree
    };
    let (want, got) = (strip(want), strip(got));
    assert!(!want.is_empty(), "no artifacts written");
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "artifact sets differ"
    );
    for (name, bytes) in &want {
        assert_eq!(bytes, &got[name], "results/{name} differs");
    }
}

#[test]
fn union_of_shard_stores_reproduces_direct_all_without_simulating() {
    let base = temp_base("union");
    tdc("all --out direct", &base);
    tdc("shard 1/2 --jobs 2 --cache-dir s1", &base);
    tdc("shard 2/2 --jobs 3 --cache-dir s2", &base);

    // Shard stores never depend on --jobs.
    tdc("shard 1/2 --jobs 1 --cache-dir s1-again", &base);
    assert_eq!(
        read_tree(&base.join("s1")),
        read_tree(&base.join("s1-again")),
        "a shard's store depends on --jobs or is unstable across runs"
    );

    union(&[&base.join("s1"), &base.join("s2")], &base.join("both"));
    tdc("all --cache-dir both --out from-both", &base);
    assert_eq!(
        executed(&base.join("from-both")),
        0,
        "a complete union must simulate nothing"
    );
    assert!(
        read_tree(&base.join("direct")).contains_key("trace/pool.trace.json"),
        "direct tdc all wrote no pool scheduler trace"
    );
    assert_same_artifacts(&base.join("direct"), &base.join("from-both"));

    // A missing shard only costs its cells.
    union(&[&base.join("s1")], &base.join("half"));
    tdc("all --cache-dir half --out from-half", &base);
    assert!(
        executed(&base.join("from-half")) > 0,
        "shard 2's cells must be simulated"
    );
    assert_same_artifacts(&base.join("direct"), &base.join("from-half"));
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn batch_cache_dir_warm_starts_from_the_same_store() {
    let base = temp_base("batch");
    tdc("amat --jobs 2 --cache-dir store --out cold", &base);
    assert!(executed(&base.join("cold")) > 0, "cold run must simulate");

    tdc("amat --jobs 2 --cache-dir store --out warm", &base);
    assert_eq!(
        executed(&base.join("warm")),
        0,
        "warm run must load every cell from the store"
    );
    assert_eq!(
        fs::read(base.join("cold/amat.json")).expect("cold amat.json"),
        fs::read(base.join("warm/amat.json")).expect("warm amat.json"),
        "warm start must reproduce the figure byte-for-byte"
    );
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn entries_carry_the_model_fingerprint_wherever_tdc_runs() {
    let base = temp_base("fingerprint");
    let checkout = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (cwd, name) in [(base.as_path(), "outside"), (checkout, "inside")] {
        let (store, out) = (base.join(format!("{name}-store")), base.join(format!("{name}-out")));
        tdc(&format!("table1 --cache-dir {} --out {}", store.display(), out.display()), cwd);
        let entries = read_tree(&store);
        assert!(!entries.is_empty(), "the run {name} the checkout persisted no cells");
        for (file, bytes) in &entries {
            let entry = Json::parse(&String::from_utf8_lossy(bytes)).expect("entry parses");
            let stamp = entry.get("model_fingerprint").and_then(Json::as_str);
            assert_eq!(stamp, Some(MODEL_FINGERPRINT), "{file}, written {name} the checkout");
        }
    }
    let _ = fs::remove_dir_all(&base);
}
