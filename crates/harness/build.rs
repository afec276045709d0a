//! Compiles the model fingerprint into `tdc`: an FNV-1a hash (as
//! `tdc_util::fnv1a_64`) over the `Cargo.toml` and every `src/` file of
//! each crate a `RunReport` depends on. Result-store entries stamped
//! with another fingerprint are skipped on load (DESIGN.md §12), so any
//! edit to those crates, a comment included, re-simulates their cells.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates under `crates/` whose sources determine a `RunReport`.
const MODEL_CRATES: [&str; 7] = ["util", "trace", "dram", "sram-cache", "tlb", "dram-cache", "core"];

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest_dir = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates = manifest_dir.parent().expect("the harness lives in crates/");
    let mut hash: u64 = 0xcbf29ce484222325;
    for name in MODEL_CRATES {
        let (manifest, src) = (crates.join(name).join("Cargo.toml"), crates.join(name).join("src"));
        println!("cargo:rerun-if-changed={}", manifest.display());
        println!("cargo:rerun-if-changed={}", src.display());
        let mut files = vec![manifest];
        collect_files(&src, &mut files);
        files.sort();
        for file in files {
            // The path from `crates/`, so a renamed file changes the hash.
            let rel = file.strip_prefix(crates).expect("under crates/").to_string_lossy();
            let text = fs::read(&file).expect("readable source file");
            for &b in [rel.replace('\\', "/").as_bytes(), b"\n", &text[..], b"\n"].concat().iter() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x100000001b3);
            }
        }
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    let code = format!(
        "/// Fingerprint of the simulator model this `tdc` was built from\n\
         /// (`build.rs`); stamped on every result-store entry.\n\
         pub const MODEL_FINGERPRINT: &str = \"fnv:{hash:016x}\";\n"
    );
    fs::write(out.join("model_fingerprint.rs"), code).expect("writable OUT_DIR");
}
