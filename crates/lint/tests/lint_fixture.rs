//! Integration tests over the checked-in fixture workspace
//! (`tests/fixtures/mini`): every rule must flag its seeded violation,
//! pragmas and the ratchet must filter as documented, and the
//! `lint.json` document is pinned byte-for-byte as a golden file
//! (regenerate with `TDC_UPDATE_GOLDEN=1 cargo test -p tdc-lint --test
//! lint_fixture`).

use std::fs;
use std::path::PathBuf;
use tdc_lint::{run, Config, LintReport, Status};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

fn lint_fixture() -> LintReport {
    let mut cfg = Config::new(fixture_root());
    cfg.jobs = 2;
    run(&cfg).expect("fixture lint runs")
}

#[test]
fn every_rule_flags_its_seeded_violation() {
    let report = lint_fixture();
    let hits: Vec<(&str, &str, usize, Status)> = report
        .findings
        .iter()
        .map(|f| (f.raw.rule, f.raw.file.as_str(), f.raw.line, f.status))
        .collect();
    let expected: [(&str, &str, usize, Status); 14] = [
        ("design-constants", "DESIGN.md", 3, Status::New),
        ("schema-sync", "DESIGN.md", 6, Status::New),
        ("schema-sync", "DESIGN.md", 10, Status::New),
        ("schema-sync", "DESIGN.md", 18, Status::New),
        ("schema-sync", "DESIGN.md", 22, Status::New),
        ("hash-collections", "crates/a/src/lib.rs", 4, Status::New),
        ("time-source", "crates/a/src/lib.rs", 7, Status::New),
        ("cast-truncation", "crates/a/src/lib.rs", 8, Status::New),
        ("panic-in-lib", "crates/a/src/lib.rs", 9, Status::Grandfathered),
        ("panic-in-lib", "crates/a/src/lib.rs", 11, Status::New),
        ("hash-collections", "crates/a/src/lib.rs", 14, Status::Allowed),
        ("figure-baselines", "crates/harness/src/figures.rs", 3, Status::New),
        ("hot-path-alloc", "crates/harness/src/kernels.rs", 22, Status::New),
        ("probe-coverage", "crates/util/src/probe.rs", 8, Status::New),
    ];
    assert_eq!(hits, expected, "fixture findings drifted");
    assert_eq!(report.new_count(), 12);
    assert!(report.stale.is_empty());
}

#[test]
fn fixture_messages_name_the_offender() {
    let report = lint_fixture();
    let msg = |rule: &str| {
        &report
            .findings
            .iter()
            .find(|f| f.raw.rule == rule)
            .unwrap_or_else(|| panic!("{rule} missing"))
            .raw
            .message
    };
    assert!(msg("probe-coverage").contains("Orphan"));
    assert!(msg("figure-baselines").contains("figB"));
    assert!(msg("design-constants").contains("tFAW"));
    assert!(msg("cast-truncation").contains("end_cycle"));
    // One schema-sync finding per seeded schema, in DESIGN.md order.
    let schema: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.raw.rule == "schema-sync")
        .map(|f| f.raw.message.as_str())
        .collect();
    let seeded = [
        "missing_field",
        "stale_field",
        "stale_graph_field",
        "missing_pool_field",
    ];
    assert_eq!(schema.len(), seeded.len(), "{schema:?}");
    for (message, field) in schema.iter().zip(seeded) {
        assert!(message.contains(&format!("`{field}`")), "{message}");
    }
    // Graph-rule messages carry the root -> sink witness chain.
    assert!(msg("hot-path-alloc").contains("k_hot::{closure}"));
}

#[test]
fn lint_json_matches_golden() {
    let text = lint_fixture().to_json().pretty();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint.json");
    if std::env::var_os("TDC_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        fs::write(&path, &text).expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); regenerate with TDC_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        want, text,
        "lint.json drifted from golden; if intentional, regenerate with \
         TDC_UPDATE_GOLDEN=1 cargo test -p tdc-lint --test lint_fixture"
    );
}

#[test]
fn lint_json_is_parseable_and_self_consistent() {
    let report = lint_fixture();
    let doc = tdc_util::Json::parse(&report.to_json().pretty()).expect("valid JSON");
    let counts = doc.get("counts").expect("counts object");
    assert_eq!(
        counts.get("new").and_then(|j| j.as_u64()),
        Some(report.new_count() as u64)
    );
    let findings = match doc.get("findings").expect("findings array") {
        tdc_util::Json::Arr(items) => items.len(),
        other => panic!("findings must be an array, got {other:?}"),
    };
    assert_eq!(findings, report.findings.len());
}

#[test]
fn regenerated_ratchet_covers_all_non_pragma_findings() {
    let report = lint_fixture();
    let content = report.ratchet_content();
    // 13 non-pragma findings across 9 (rule, file) groups.
    assert!(content.contains("panic-in-lib crates/a/src/lib.rs 2"));
    assert!(content.contains("schema-sync DESIGN.md 4"));
    assert!(content.contains("hot-path-alloc crates/harness/src/kernels.rs 1"));
    assert!(content.contains("hash-collections crates/a/src/lib.rs 1"));
    assert!(content.contains("design-constants DESIGN.md 1"));
    assert!(content.contains("probe-coverage crates/util/src/probe.rs 1"));
    // Pragma-allowed findings never enter the ratchet.
    assert!(!content.contains("hash-collections crates/a/src/lib.rs 2"));
}
