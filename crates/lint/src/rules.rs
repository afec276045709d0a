//! The rule set: per-line determinism hazards and cross-file checks.
//!
//! Every rule has a stable kebab-case id (used in pragmas and the
//! ratchet file) and a one-line summary. Per-line rules run against the
//! comment/string-blanked code shadow from [`crate::lexer`]; cross-file
//! rules see the whole scanned workspace.

use crate::lexer::{identifiers, ScannedFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// A raw rule hit, before pragma/ratchet filtering.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id.
    pub rule: &'static str,
    /// Human-readable explanation of this hit.
    pub message: String,
}

/// `(id, summary)` for every rule, in report order.
pub const RULES: [(&str, &str); 9] = [
    (
        "hash-collections",
        "HashMap/HashSet in library code: iteration order is nondeterministic and can leak into artifacts",
    ),
    (
        "time-source",
        "Instant/SystemTime without an allow pragma: wall-clock must never influence simulated results",
    ),
    (
        "cast-truncation",
        "narrowing `as` cast on a cycle/address-typed value can silently wrap",
    ),
    (
        "panic-in-lib",
        "unwrap()/panic! in library code: prefer expect(\"why\") or Result",
    ),
    (
        "probe-coverage",
        "every ProbeEvent/Phase variant declared in tdc-util must be used by some crate outside it",
    ),
    (
        "figure-baselines",
        "every figure id in harness::figures::ALL_IDS needs a baselines/scale-0.25/<id>.json",
    ),
    (
        "design-constants",
        "every DRAM timing constant referenced in DESIGN.md (tXXX) must exist in tdc-dram",
    ),
    (
        "schema-sync",
        "every artifact schema documented in DESIGN.md must match its *_FIELDS/*_VERSION constants in code",
    ),
    (
        "hot-path-alloc",
        "no allocation (push/insert/collect/format!/clone/Box::new/...) reachable from a bench-registry kernel or `tdc-lint: hot` fn; `tdc-lint: cold` cuts traversal",
    ),
];

/// A longer explanation per rule id, for `tdc lint --explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "hash-collections" => {
            "Artifacts must be byte-identical across runs and thread counts. \
             HashMap/HashSet iteration order depends on a randomized hasher, so any \
             ordered output derived from one is nondeterministic. Use BTreeMap/BTreeSet \
             in library code; `// tdc-lint: allow(hash-collections)` only where order \
             provably never escapes."
        }
        "time-source" => {
            "Simulated results must depend only on the model, never on wall-clock. \
             Instant/SystemTime are allowed only behind explicit \
             `// tdc-lint: allow(time-source)` pragmas (bench timing loops, \
             wall-clock telemetry), nowhere else."
        }
        "cast-truncation" => {
            "`as` casts silently wrap. On cycle counters and physical/virtual \
             addresses that is data corruption, not a type error. Use try_into() or \
             widen the target type."
        }
        "panic-in-lib" => {
            "Library code should return Result or use expect(\"why\") so a failure \
             names its invariant. Bare unwrap()/panic! in a library turns a bad input \
             into an abort. Counts are ratcheted down over time via lint.ratchet."
        }
        "probe-coverage" => {
            "Every ProbeEvent/Phase variant declared in tdc-util must be \
             emitted or consumed by some crate outside it; a dead variant means the \
             observability surface and the simulator have drifted apart."
        }
        "figure-baselines" => {
            "Every figure id in harness::figures::ALL_IDS needs a checked-in \
             baselines/scale-0.25/<id>.json so `tdc diff` can gate regressions."
        }
        "design-constants" => {
            "Every DRAM timing token (tRCD, tFAW, ...) referenced in DESIGN.md must \
             exist as a constant in tdc-dram, keeping prose and model in sync."
        }
        "schema-sync" => {
            "Each artifact schema has two sources of truth: a *_FIELDS/*_VERSION \
             constant pair in code and a DESIGN.md block anchored by the schema's \
             name. The spec table covers bench-history.jsonl (harness::bench, \
             §11), result-store (harness::store, §12), histogram-summary \
             (util::obs, §13), lint-graph (lint::graph, §14) and pool-telemetry \
             (util::obs, §16). Both directions are checked: documented fields must \
             exist in code, code fields must be documented, and format_version must \
             match. A spec whose source file or constants have vanished is a finding \
             too, so a rename cannot switch the check off."
        }
        "hot-path-alloc" => {
            "The paper's access path is supposed to be a single cTLB step; an \
             allocation inside a measured kernel is either a perf bug or an unmeasured \
             design decision. Roots are every bench-registry kernel (the boxed closure \
             body, so factory setup is exempt) plus `// tdc-lint: hot` fns. The rule \
             flags growth calls (push/insert/extend/collect/...), owned copies \
             (to_string/to_vec/clone), allocating constructors (Box::new/Arc::new/\
             Vec::with_capacity/...) and format!/vec! reachable in the call graph. \
             Mark intentionally-allocating paths `// tdc-lint: cold` (cuts traversal) \
             or suppress a single site with `// tdc-lint: allow(hot-path-alloc)`."
        }
        _ => return None,
    })
}

/// Identifier words that mark a value as cycle- or address-typed for the
/// `cast-truncation` rule. Matched word-exact against `_`-split pieces
/// of each identifier left of the cast.
const CYCLE_ADDR_WORDS: [&str; 9] = [
    "cycle", "cycles", "now", "addr", "address", "vpn", "ppn", "cpn", "epoch",
];

/// Narrowing cast targets the `cast-truncation` rule worries about.
const NARROW_TARGETS: [&str; 4] = ["u8", "u16", "u32", "i32"];

// ---------------------------------------------------------------------------
// Per-line rules
// ---------------------------------------------------------------------------

/// Runs all per-line rules over one scanned file. `path` is the
/// workspace-relative path (forward slashes).
pub fn line_rules(path: &str, file: &ScannedFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let in_bin = path.contains("/bin/");
    for (idx, line) in file.lines.iter().enumerate() {
        if file.is_test_code(idx) {
            continue;
        }
        let code = &line.code;
        let mut hit = |rule: &'static str, message: String| {
            out.push(RawFinding {
                file: path.to_string(),
                line: idx + 1,
                rule,
                message,
            });
        };

        let ids = identifiers(code);
        if ids.iter().any(|&w| w == "HashMap" || w == "HashSet") {
            hit(
                "hash-collections",
                "HashMap/HashSet has nondeterministic iteration order; use BTreeMap/BTreeSet \
                 or sort before iterating"
                    .into(),
            );
        }
        if ids.iter().any(|&w| w == "Instant" || w == "SystemTime") {
            hit(
                "time-source",
                "wall-clock time source in simulator code; results must depend only on the seed"
                    .into(),
            );
        }
        if !in_bin {
            if code.contains(".unwrap()") {
                hit(
                    "panic-in-lib",
                    "unwrap() in library code; use expect(\"reason\") or propagate the error"
                        .into(),
                );
            }
            if has_bare_panic(code) {
                hit(
                    "panic-in-lib",
                    "panic! in library code; return an error or use an assert with a message"
                        .into(),
                );
            }
        }
        for msg in truncating_casts(code) {
            hit("cast-truncation", msg);
        }
    }
    out
}

/// Whether `code` invokes `panic!` (not `unreachable!`/`debug_assert!`
/// etc., whose names do not contain `panic`).
fn has_bare_panic(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("panic!") {
        let before_ok = pos == 0
            || !rest.as_bytes()[pos - 1].is_ascii_alphanumeric()
                && rest.as_bytes()[pos - 1] != b'_';
        if before_ok {
            return true;
        }
        rest = &rest[pos + "panic!".len()..];
    }
    false
}

/// Finds `<expr> as u8/u16/u32/i32` where an identifier left of the cast
/// carries a cycle/address word.
fn truncating_casts(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut search_from = 0;
    while let Some(rel) = code[search_from..].find(" as ") {
        let pos = search_from + rel;
        let after = &code[pos + 4..];
        search_from = pos + 4;
        let target = after
            .split(|c: char| !c.is_ascii_alphanumeric())
            .next()
            .unwrap_or("");
        if !NARROW_TARGETS.contains(&target) {
            continue;
        }
        let tainted: Vec<&str> = identifiers(&code[..pos])
            .into_iter()
            .filter(|id| {
                id.split('_')
                    .any(|w| CYCLE_ADDR_WORDS.contains(&w.to_ascii_lowercase().as_str()))
            })
            .collect();
        if let Some(&id) = tainted.last() {
            out.push(format!(
                "`{id} ... as {target}` truncates a cycle/address-typed value; \
                 keep u64 or use try_into with a bounds check"
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Cross-file rules
// ---------------------------------------------------------------------------

/// The instrumentation enums `tdc-util` declares and the rest of the
/// workspace must exercise: probe events and phases in `probe.rs`.
const COVERED_ENUMS: [(&str, &str); 2] = [
    ("crates/util/src/probe.rs", "ProbeEvent"),
    ("crates/util/src/probe.rs", "Phase"),
];

/// Every variant of the `COVERED_ENUMS` instrumentation enums must be
/// constructed somewhere outside `crates/util` (an actual emission site
/// in the simulator or service code).
pub fn probe_coverage(files: &BTreeMap<String, ScannedFile>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (src, enum_name) in COVERED_ENUMS {
        let Some(decl) = files.get(src) else {
            continue;
        };
        let variants = enum_variants(decl, enum_name);
        let needle = format!("{enum_name}::");
        let mut used: BTreeSet<String> = BTreeSet::new();
        for (path, file) in files {
            if path.starts_with("crates/util/") {
                continue;
            }
            for line in &file.lines {
                let code = &line.code;
                let mut rest = code.as_str();
                while let Some(pos) = rest.find(&needle) {
                    // Word boundary: `Phase::` must not match `MyPhase::`.
                    let bounded = pos == 0 || {
                        let b = rest.as_bytes()[pos - 1];
                        !(b.is_ascii_alphanumeric() || b == b'_')
                    };
                    let after = &rest[pos + needle.len()..];
                    if bounded {
                        let name: String = after
                            .chars()
                            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                            .collect();
                        if !name.is_empty() {
                            used.insert(name);
                        }
                    }
                    rest = after;
                }
            }
        }
        out.extend(
            variants
                .into_iter()
                .filter(|(name, _)| !used.contains(name))
                .map(|(name, line)| RawFinding {
                    file: src.to_string(),
                    line,
                    rule: "probe-coverage",
                    message: format!(
                        "{enum_name}::{name} is declared but never used outside tdc-util; \
                         dead instrumentation hooks hide lost coverage"
                    ),
                }),
        );
    }
    out
}

/// Extracts `(variant, 1-based line)` pairs of `pub enum <name>`.
fn enum_variants(file: &ScannedFile, name: &str) -> Vec<(String, usize)> {
    let open = format!("enum {name}");
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut inside = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        if !inside {
            if code.contains(&open) {
                inside = true;
                depth = 0;
            } else {
                continue;
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if inside && depth <= 0 && code.contains('}') {
            break;
        }
        // A variant line: first identifier at depth 1, uppercase start.
        // (After processing this line's braces, a `Variant {` line sits
        // at depth 2, so test the depth before its own open brace.)
        let line_opens = code.matches('{').count() as i32;
        let line_closes = code.matches('}').count() as i32;
        let depth_before = depth - line_opens + line_closes;
        if depth_before == 1 {
            let trimmed = code.trim_start();
            if let Some(first) = identifiers(trimmed).first() {
                if trimmed.starts_with(first)
                    && first.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                {
                    out.push((first.to_string(), idx + 1));
                }
            }
        }
    }
    out
}

/// Every figure id listed in `harness::figures::ALL_IDS` needs a
/// checked-in `baselines/scale-0.25/<id>.json`.
pub fn figure_baselines(files: &BTreeMap<String, ScannedFile>, root: &Path) -> Vec<RawFinding> {
    const FIGURES: &str = "crates/harness/src/figures.rs";
    let Some(figures) = files.get(FIGURES) else {
        return Vec::new();
    };
    let Some(start) = figures
        .lines
        .iter()
        .position(|l| l.code.contains("ALL_IDS"))
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (idx, line) in figures.lines.iter().enumerate().skip(start) {
        // String contents are blanked in `code`, so read ids from `raw`
        // — but only on lines that are part of the array literal.
        for id in quoted_strings(&line.raw) {
            let baseline = root
                .join("baselines")
                .join("scale-0.25")
                .join(format!("{id}.json"));
            if !baseline.exists() {
                out.push(RawFinding {
                    file: FIGURES.to_string(),
                    line: idx + 1,
                    rule: "figure-baselines",
                    message: format!(
                        "figure id \"{id}\" has no baselines/scale-0.25/{id}.json; \
                         `tdc diff` cannot gate it"
                    ),
                });
            }
        }
        if line.code.contains("];") {
            break;
        }
    }
    out
}

/// Extracts `"..."` literals from a raw line (naive: no escape handling,
/// which the id arrays never need).
fn quoted_strings(raw: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut parts = raw.split('"');
    parts.next(); // before the first quote
    while let (Some(inside), Some(_)) = (parts.next(), parts.next()) {
        out.push(inside);
    }
    out
}

/// Every DRAM timing token in DESIGN.md (`tRCD`, `tCCD`, ...) must have
/// a matching snake_case identifier (`t_rcd`) somewhere in
/// `crates/dram/src`.
pub fn design_constants(
    files: &BTreeMap<String, ScannedFile>,
    design_md: &str,
) -> Vec<RawFinding> {
    // token -> first 1-based line where DESIGN.md mentions it.
    let mut tokens: BTreeMap<String, usize> = BTreeMap::new();
    for (idx, line) in design_md.lines().enumerate() {
        for token in timing_tokens(line) {
            tokens.entry(token).or_insert(idx + 1);
        }
    }
    let mut defined: BTreeSet<String> = BTreeSet::new();
    for (path, file) in files {
        if !path.starts_with("crates/dram/src/") {
            continue;
        }
        for line in &file.lines {
            for id in identifiers(&line.code) {
                defined.insert(id.to_ascii_lowercase());
            }
        }
    }
    tokens
        .into_iter()
        .filter_map(|(token, line)| {
            // tRCD -> t_rcd; accept either the bare accessor name or the
            // _ns field (t_rcd_ns) via prefix match on '_'-joined ids.
            let snake = format!("t_{}", token[1..].to_ascii_lowercase());
            let found = defined
                .iter()
                .any(|id| id == &snake || id.starts_with(&format!("{snake}_")));
            if found {
                None
            } else {
                Some(RawFinding {
                    file: "DESIGN.md".to_string(),
                    line,
                    rule: "design-constants",
                    message: format!(
                        "DESIGN.md references {token} but tdc-dram defines no `{snake}`"
                    ),
                })
            }
        })
        .collect()
}

/// One code-constants-versus-DESIGN.md schema pairing checked by
/// [`schema_sync`].
struct SchemaSpec {
    /// Workspace-relative source file declaring the constants.
    src: &'static str,
    /// Name of the `[&str; N]` fields constant.
    fields_const: &'static str,
    /// Name of the `u64` version constant.
    version_const: &'static str,
    /// Literal anchoring the DESIGN.md block (and excluded from its
    /// backticked field names).
    anchor: &'static str,
    /// Module path used in the "never documents it" message.
    code_home: &'static str,
    /// Short subject for the version-drift message.
    subject: &'static str,
    /// Noun for the documented-but-missing-in-code message.
    field_noun: &'static str,
}

/// Every artifact schema with two sources of truth — a
/// `*_FIELDS`/`*_VERSION` constant pair in code and a DESIGN.md block —
/// in DESIGN.md section order. A new schema is one row here.
const SCHEMA_SPECS: [SchemaSpec; 5] = [
    // §11: one `tdc bench run` history record.
    SchemaSpec {
        src: "crates/harness/src/bench.rs",
        fields_const: "RECORD_FIELDS",
        version_const: "RECORD_VERSION",
        anchor: "bench-history.jsonl",
        code_home: "harness::bench",
        subject: "bench-record",
        field_noun: "bench record field",
    },
    // §12: one result-store entry.
    SchemaSpec {
        src: "crates/harness/src/store.rs",
        fields_const: "STORE_FIELDS",
        version_const: "STORE_VERSION",
        anchor: "result-store",
        code_home: "harness::store",
        subject: "result-store",
        field_noun: "store entry field",
    },
    // §13: the histogram summary object.
    SchemaSpec {
        src: "crates/util/src/obs.rs",
        fields_const: "HIST_FIELDS",
        version_const: "HIST_VERSION",
        anchor: "histogram-summary",
        code_home: "util::obs",
        subject: "histogram-summary",
        field_noun: "histogram summary field",
    },
    // §14: the `graph` section of `results/lint.json`.
    SchemaSpec {
        src: "crates/lint/src/graph.rs",
        fields_const: "GRAPH_FIELDS",
        version_const: "GRAPH_VERSION",
        anchor: "lint-graph",
        code_home: "lint::graph",
        subject: "lint-graph",
        field_noun: "graph summary field",
    },
    // §16: the scheduler telemetry each pool batch writes.
    SchemaSpec {
        src: "crates/util/src/obs.rs",
        fields_const: "POOL_FIELDS",
        version_const: "POOL_VERSION",
        anchor: "pool-telemetry",
        code_home: "util::obs",
        subject: "pool-telemetry",
        field_noun: "pool telemetry field",
    },
];

/// The `schema-sync` rule: every schema in the spec table must agree
/// with its DESIGN.md block in both directions (see `check_schema`).
pub fn schema_sync(files: &BTreeMap<String, ScannedFile>, design_md: &str) -> Vec<RawFinding> {
    SCHEMA_SPECS
        .iter()
        .flat_map(|spec| check_schema(spec, files, design_md))
        .collect()
}

/// The both-directions check for one spec: every documented field
/// exists in the code constant, every code field is documented, and the
/// documented `format_version` matches the version constant. The
/// documented block is anchored by the first DESIGN.md line containing
/// `spec.anchor`; that line carries `format_version N`, and the
/// backtick-quoted names on it and the following lines (up to the
/// first blank line) are the documented fields. A source file or
/// constant that has gone missing is itself a finding: otherwise a
/// rename would switch the check off silently.
fn check_schema(
    spec: &SchemaSpec,
    files: &BTreeMap<String, ScannedFile>,
    design_md: &str,
) -> Vec<RawFinding> {
    let vanished = |why: String| {
        vec![RawFinding {
            file: spec.src.to_string(),
            line: 1,
            rule: "schema-sync",
            message: format!(
                "{why}, so the {} schema cannot be checked against DESIGN.md \
                 (restore it, or repoint the schema-sync spec table)",
                spec.anchor
            ),
        }]
    };
    let Some(src) = files.get(spec.src) else {
        return vanished(format!("{} is missing", spec.src));
    };
    let Some((code_fields, code_version)) = schema_constants(src, spec) else {
        return vanished(format!(
            "{} declares no `{}`/`{}` pair",
            spec.src, spec.fields_const, spec.version_const
        ));
    };

    let anchor = design_md.lines().position(|l| l.contains(spec.anchor));
    let Some(anchor) = anchor else {
        return vec![RawFinding {
            file: "DESIGN.md".to_string(),
            line: 1,
            rule: "schema-sync",
            message: format!(
                "{} defines the {} schema ({} fields) but DESIGN.md never documents it",
                spec.code_home,
                spec.anchor,
                code_fields.len()
            ),
        }];
    };
    let hit = |message: String| RawFinding {
        file: "DESIGN.md".to_string(),
        line: anchor + 1,
        rule: "schema-sync",
        message,
    };
    let mut out = Vec::new();

    let lines: Vec<&str> = design_md.lines().collect();
    let anchor_line = lines[anchor];
    match trailing_number(anchor_line, "format_version") {
        Some(v) if v == code_version => {}
        Some(v) => out.push(hit(format!(
            "DESIGN.md documents {} format_version {v} but {} is {code_version}",
            spec.subject, spec.version_const
        ))),
        None => out.push(hit(format!(
            "the {} line must state `format_version N`",
            spec.anchor
        ))),
    }

    let mut doc_fields: Vec<String> = Vec::new();
    for line in lines.iter().skip(anchor).take_while(|l| !l.trim().is_empty()) {
        doc_fields.extend(
            backticked(line)
                .into_iter()
                .filter(|t| *t != spec.anchor)
                .map(str::to_string),
        );
    }
    for field in &doc_fields {
        if !code_fields.contains(field) {
            out.push(hit(format!(
                "DESIGN.md documents {} `{field}` but {} does not include it",
                spec.field_noun, spec.fields_const
            )));
        }
    }
    for field in &code_fields {
        if !doc_fields.contains(field) {
            out.push(hit(format!(
                "{} includes `{field}` but DESIGN.md's {} schema does not document it",
                spec.fields_const, spec.anchor
            )));
        }
    }
    out
}

/// Extracts `(fields-constant entries, version constant)` from the
/// scanned source module. `None` when either constant is absent.
fn schema_constants(src: &ScannedFile, spec: &SchemaSpec) -> Option<(Vec<String>, u64)> {
    let fields_decl = format!("const {}", spec.fields_const);
    let version_decl = format!("const {}", spec.version_const);
    let mut fields: Option<Vec<String>> = None;
    let mut version: Option<u64> = None;
    let mut in_fields = false;
    for (idx, line) in src.lines.iter().enumerate() {
        if src.is_test_code(idx) {
            break;
        }
        if version.is_none() && line.code.contains(&version_decl) && line.code.contains('=') {
            version = trailing_number(&line.code, "=");
        }
        // Anchor on the declaration, not later mentions of the name.
        if fields.is_none() && line.code.contains(&fields_decl) {
            in_fields = true;
            fields = Some(Vec::new());
        }
        if in_fields {
            // Strings are blanked in `code`; read names from `raw`.
            if let Some(f) = fields.as_mut() {
                f.extend(quoted_strings(&line.raw).into_iter().map(str::to_string));
            }
            if line.code.contains("];") {
                in_fields = false;
            }
        }
    }
    Some((fields?, version?))
}

/// The first unsigned integer after the last occurrence of `after` in
/// `line`.
fn trailing_number(line: &str, after: &str) -> Option<u64> {
    let pos = line.rfind(after)?;
    let rest = &line[pos + after.len()..];
    let digits: String = rest
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Backtick-quoted tokens on one line: `` `name` `` pieces.
fn backticked(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut parts = line.split('`');
    parts.next();
    while let (Some(inside), Some(_)) = (parts.next(), parts.next()) {
        out.push(inside);
    }
    out
}

/// DRAM timing tokens on one line: `t` followed by 2-4 uppercase
/// letters, word-bounded (tRCD, tAA, tRAS, tRP, tCCD, ...).
fn timing_tokens(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b't'
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
        {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_uppercase() {
                j += 1;
            }
            let caps = j - i - 1;
            let bounded = j >= bytes.len()
                || !(bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_');
            if (2..=4).contains(&caps) && bounded {
                out.push(line[i..j].to_string());
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn findings(path: &str, src: &str) -> Vec<RawFinding> {
        line_rules(path, &scan(src))
    }

    #[test]
    fn hash_collections_flags_lib_not_comments() {
        let hits = findings(
            "crates/x/src/a.rs",
            "use std::collections::HashMap;\n// HashMap in a comment\nlet s = \"HashSet\";",
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "hash-collections");
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn time_source_flags_wall_clock() {
        for src in ["let t = Instant::now();", "let t = SystemTime::now();"] {
            let hits = findings("crates/harness/src/b.rs", src);
            assert_eq!(hits.len(), 1, "{hits:?}");
            assert_eq!(hits[0].rule, "time-source");
        }
    }

    #[test]
    fn panic_rule_spares_bins_and_unreachable() {
        assert!(findings("crates/x/src/bin/t.rs", "x.unwrap();").is_empty());
        assert!(findings("crates/x/src/a.rs", "unreachable!()").is_empty());
        let hits = findings("crates/x/src/a.rs", "x.unwrap() + panic!(\"no\")");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn cast_rule_needs_tainted_identifier() {
        assert!(findings("crates/x/src/a.rs", "let b = idx as u32;").is_empty());
        // "known" must not match the word "now".
        assert!(findings("crates/x/src/a.rs", "let b = known as u32;").is_empty());
        let hits = findings("crates/x/src/a.rs", "let c = done_cycles as u32;");
        assert_eq!(hits[0].rule, "cast-truncation");
        // Widening casts are fine.
        assert!(findings("crates/x/src/a.rs", "let c = cycles as u64;").is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn a() {}\n#[cfg(test)]\nmod t { use std::collections::HashMap; }";
        assert!(findings("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn enum_variant_extraction() {
        let probe = scan(
            "pub enum ProbeEvent {\n    /// doc\n    Retire {\n        core: u8,\n    },\n    TlbStall { core: u8 },\n    Plain,\n}\nfn after() {}",
        );
        let vars: Vec<String> = enum_variants(&probe, "ProbeEvent")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(vars, vec!["Retire", "TlbStall", "Plain"]);
    }

    #[test]
    fn probe_coverage_reports_unused_variants() {
        let mut files = BTreeMap::new();
        files.insert(
            "crates/util/src/probe.rs".to_string(),
            scan("pub enum ProbeEvent {\n    Used { n: u8 },\n    Orphan { n: u8 },\n}"),
        );
        files.insert(
            "crates/core/src/a.rs".to_string(),
            scan("p.emit(ProbeEvent::Used { n: 1 });"),
        );
        let hits = probe_coverage(&files);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("Orphan"));
    }

    #[test]
    fn timing_token_scan() {
        assert_eq!(
            timing_tokens("pipeline at the burst rate (tCCD) rather than tAA; not tX or table"),
            vec!["tCCD".to_string(), "tAA".to_string()]
        );
        assert!(timing_tokens("instant").is_empty());
    }

    #[test]
    fn probe_coverage_checks_the_phase_enum() {
        let mut files = BTreeMap::new();
        files.insert(
            "crates/util/src/probe.rs".to_string(),
            scan("pub enum ProbeEvent {\n    Used { n: u8 },\n}\npub enum Phase {\n    Dram,\n    Idle,\n}"),
        );
        files.insert(
            "crates/core/src/a.rs".to_string(),
            scan("p.emit(ProbeEvent::Used { n: 1 });\np.phase_begin(Phase::Dram);\nMyPhase::Idle;"),
        );
        let hits = probe_coverage(&files);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("Phase::Idle"));
    }

    /// Source text declaring `spec`'s constants.
    fn spec_src(spec: &SchemaSpec, fields: &[&str], version: u64) -> String {
        let list = fields
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "pub const {}: u64 = {version};\npub const {}: [&str; {}] = [{list}];\n",
            spec.version_const,
            spec.fields_const,
            fields.len()
        )
    }

    /// A DESIGN.md documenting `spec` on line 3.
    fn spec_doc(spec: &SchemaSpec, fields: &[&str], version: u64) -> String {
        let list = fields
            .iter()
            .map(|f| format!("`{f}`"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "## Notes\n\nThe `{}` schema (format_version {version}) carries\n{list}.\n\nmore prose\n",
            spec.anchor
        )
    }

    #[test]
    fn schema_sync_checks_every_spec_both_ways() {
        const AGREED: [&str; 2] = ["format_version", "count"];
        for spec in &SCHEMA_SPECS {
            let files = |src: String| BTreeMap::from([(spec.src.to_string(), scan(&src))]);
            let in_sync = files(spec_src(spec, &AGREED, 1));
            let doc = spec_doc(spec, &AGREED, 1);
            let hits = check_schema(spec, &in_sync, &doc);
            assert!(hits.is_empty(), "{}: {hits:?}", spec.anchor);

            // Documents a bogus field, omits `count`, and claims version 1.
            let hits = check_schema(
                spec,
                &files(spec_src(spec, &AGREED, 2)),
                &spec_doc(spec, &["format_version", "bogus_field"], 1),
            );
            assert_eq!(hits.len(), 3, "{}: {hits:?}", spec.anchor);
            assert!(hits
                .iter()
                .all(|h| h.rule == "schema-sync" && h.file == "DESIGN.md" && h.line == 3));
            let drift = format!("{} is 2", spec.version_const);
            assert!(hits
                .iter()
                .any(|h| h.message.contains("format_version 1") && h.message.contains(&drift)));
            assert!(hits
                .iter()
                .any(|h| h.message.contains("`bogus_field`")
                    && h.message.contains(spec.fields_const)));
            assert!(hits.iter().any(|h| h.message.starts_with(spec.fields_const)
                && h.message.contains("`count`")
                && h.message.contains("does not document")));

            let hits = check_schema(spec, &in_sync, "# DESIGN\n\nno schema here\n");
            assert_eq!(hits.len(), 1, "{}: {hits:?}", spec.anchor);
            assert!(hits[0].message.contains(spec.code_home));
            assert!(hits[0].message.contains("never documents"));

            // A vanished source file or fields constant is a finding,
            // not a silent pass.
            let renamed = files(format!("pub const {}: u64 = 1;\n", spec.version_const));
            for files in [BTreeMap::new(), renamed] {
                let hits = check_schema(spec, &files, &doc);
                assert_eq!(hits.len(), 1, "{}: {hits:?}", spec.anchor);
                assert_eq!(
                    (hits[0].rule, hits[0].file.as_str()),
                    ("schema-sync", spec.src)
                );
                assert!(hits[0].message.contains(spec.anchor));
            }
        }
        assert_eq!(
            schema_sync(&BTreeMap::new(), "anything").len(),
            SCHEMA_SPECS.len()
        );
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for (id, _) in RULES {
            assert!(explain(id).is_some(), "no --explain text for {id}");
        }
        assert!(explain("no-such-rule").is_none());
    }

    #[test]
    fn design_constants_match_snake_case() {
        let mut files = BTreeMap::new();
        files.insert(
            "crates/dram/src/timing.rs".to_string(),
            scan("pub t_rcd_ns: f64, pub fn t_aa(&self) {}"),
        );
        let hits = design_constants(&files, "uses tRCD and tAA but also tFAW here");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("tFAW"));
        assert!(hits[0].message.contains("t_faw"));
    }
}
