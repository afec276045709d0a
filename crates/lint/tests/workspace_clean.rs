//! The real workspace must lint clean: zero findings beyond the
//! checked-in `lint.ratchet`. This is the same gate `scripts/ci.sh`
//! runs via `tdc lint`, kept as a test so `cargo test` alone catches a
//! regression.

use std::path::PathBuf;
use tdc_lint::{find_workspace_root, run, Config, Status};

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(&manifest).expect("lint crate lives inside the workspace")
}

#[test]
fn workspace_has_no_new_findings() {
    let report = run(&Config::new(workspace_root())).expect("lint runs");
    let new: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.status == Status::New)
        .map(|f| format!("{}:{}: [{}]", f.raw.file, f.raw.line, f.raw.rule))
        .collect();
    assert!(
        new.is_empty(),
        "new lint findings (fix them or, for accepted debt, run \
         `tdc lint --update-ratchet`):\n{}",
        new.join("\n")
    );
    assert!(
        report.stale.is_empty(),
        "stale ratchet entries; tighten with `tdc lint --update-ratchet`"
    );
}

#[test]
fn workspace_scan_is_not_vacuous() {
    let report = run(&Config::new(workspace_root())).expect("lint runs");
    // The scan must actually cover the workspace's crates...
    assert!(
        report.files_scanned > 50,
        "only {} files scanned",
        report.files_scanned
    );
    // ...and the cross-file rules must have parsed their anchors: the
    // probe enum and figure list exist, so an empty finding set must
    // mean "checked and passed", not "anchor not found".
    let probe = std::fs::read_to_string(
        workspace_root().join("crates/util/src/probe.rs"),
    )
    .expect("probe.rs readable");
    let variant_count = probe.matches("ProbeEvent::").count();
    assert!(
        variant_count > 0 || probe.contains("pub enum ProbeEvent"),
        "probe.rs no longer declares ProbeEvent; update the lint rule"
    );
    // The DESIGN.md rules run only when DESIGN.md exists; given it, a
    // vanished schema anchor is itself a schema-sync finding.
    assert!(
        workspace_root().join("DESIGN.md").is_file(),
        "DESIGN.md is gone, so design-constants and schema-sync never ran"
    );
    // The call-graph pass must be non-vacuous too: a clean
    // hot-path-alloc run has to mean "traversed and passed", not
    // "found no roots to start from".
    assert!(
        report.graph.functions > 100 && report.graph.edges > 100,
        "call graph shrank to {} fns / {} edges — did the parser break?",
        report.graph.functions,
        report.graph.edges
    );
    assert!(
        report.graph.hot_roots > 0,
        "no hot-path roots: the bench registry or closure synthesis broke"
    );
    // Grandfathered debt is expected to exist for now; if it ever hits
    // zero, delete lint.ratchet rather than loosening this test.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.status == Status::Grandfathered)
            || !workspace_root().join("lint.ratchet").exists(),
        "ratchet file present but nothing grandfathered"
    );
}
