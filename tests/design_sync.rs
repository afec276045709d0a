//! Cross-file checks (DESIGN.md §9): DESIGN.md, the checked-in figure
//! baselines and the simulator's instrumentation must agree with the
//! code. Every check imports the real constants and types, so a rename
//! breaks this file's build instead of slipping past a text scan.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use tagless_dram_cache::core::experiment::{run_job_probed, Job, Workload};
use tagless_dram_cache::dram::DramTiming;
use tagless_dram_cache::prelude::*;
use tagless_dram_cache::util::obs::{HIST_FIELDS, HIST_VERSION, POOL_FIELDS, POOL_VERSION};
use tagless_dram_cache::util::{Json, Phase, Probe, ProbeEvent};
use tdc_harness::bench::{RECORD_FIELDS, RECORD_VERSION};
use tdc_harness::store::{STORE_FIELDS, STORE_VERSION};
use tdc_harness::ALL_IDS;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn baseline_index_lists_exactly_the_figures() {
    // `tdc diff` gates only what the baseline holds, so a figure
    // without a baseline file would silently go ungated.
    let dir = root().join("baselines/scale-0.25");
    let index = Json::parse(&read(&dir.join("index.json"))).expect("index.json parses");
    let Some(Json::Arr(figures)) = index.get("figures") else {
        panic!("index.json has no figures array");
    };
    let field = |f: &Json, key: &str| {
        f.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("index.json figure entry without `{key}`"))
            .to_string()
    };
    let ids: Vec<String> = figures.iter().map(|f| field(f, "id")).collect();
    assert_eq!(
        ids, ALL_IDS,
        "index.json must list figures::ALL_IDS in `tdc all` order"
    );
    for f in figures {
        let file = field(f, "file");
        assert!(
            dir.join(&file).is_file(),
            "baselines/scale-0.25/{file} is missing"
        );
    }
}

/// DRAM timing tokens on one line: `t` followed by 2-4 uppercase
/// letters, word-bounded (`tRCD`, `tAA`, `tCCD`, ...).
fn timing_tokens(line: &str) -> Vec<&str> {
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b't' || (i > 0 && word(bytes[i - 1])) {
            continue;
        }
        let end = i
            + 1
            + bytes[i + 1..]
                .iter()
                .take_while(|c| c.is_ascii_uppercase())
                .count();
        if (3..=5).contains(&(end - i)) && !bytes.get(end).is_some_and(|&c| word(c)) {
            out.push(&line[i..end]);
        }
    }
    out
}

#[test]
fn design_timing_constants_are_dram_timing_fields() {
    // `DramTiming { t_rcd_ns: 8.0, t_aa_ns: 10.0, ... }`
    let debug = format!("{:?}", DramTiming::in_package());
    let body = debug
        .strip_prefix("DramTiming { ")
        .and_then(|s| s.strip_suffix(" }"))
        .expect("DramTiming's Debug output is a braced struct");
    let fields: Vec<&str> = body
        .split(", ")
        .filter_map(|f| f.split(':').next())
        .collect();
    let design = read(&root().join("DESIGN.md"));
    let tokens: BTreeSet<&str> = design.lines().flat_map(timing_tokens).collect();
    assert!(
        !tokens.is_empty(),
        "DESIGN.md names no DRAM timing constant"
    );
    for token in tokens {
        let snake = format!("t_{}", token[1..].to_ascii_lowercase());
        assert!(
            fields
                .iter()
                .any(|f| *f == snake || f.starts_with(&format!("{snake}_"))),
            "DESIGN.md references {token} but DramTiming has no `{snake}` field ({fields:?})"
        );
    }
}

/// One artifact schema documented in DESIGN.md: its block is the
/// paragraph opened by the line naming `` `anchor` `` and its
/// `format_version`.
struct Schema {
    anchor: &'static str,
    version: u64,
    fields: &'static [&'static str],
}

/// Every artifact schema with a version and field list in code, in
/// DESIGN.md section order (§11, §12, §13, §16).
const SCHEMAS: [Schema; 4] = [
    Schema {
        anchor: "bench-record",
        version: RECORD_VERSION,
        fields: &RECORD_FIELDS,
    },
    Schema {
        anchor: "result-store",
        version: STORE_VERSION,
        fields: &STORE_FIELDS,
    },
    Schema {
        anchor: "histogram-summary",
        version: HIST_VERSION,
        fields: &HIST_FIELDS,
    },
    Schema {
        anchor: "pool-telemetry",
        version: POOL_VERSION,
        fields: &POOL_FIELDS,
    },
];

/// Backtick-quoted names on one line.
fn backticked(line: &str) -> impl Iterator<Item = &str> {
    line.split('`').skip(1).step_by(2)
}

#[test]
fn design_schemas_match_the_code_both_ways() {
    let design = read(&root().join("DESIGN.md"));
    let lines: Vec<&str> = design.lines().collect();
    for s in &SCHEMAS {
        let quoted = format!("`{}`", s.anchor);
        let start = lines
            .iter()
            .position(|l| l.contains(&quoted) && l.contains("format_version"))
            .unwrap_or_else(|| panic!("DESIGN.md documents no {} schema", s.anchor));
        let version = lines[start]
            .split("format_version")
            .nth(1)
            .and_then(|rest| {
                let digits: String = rest
                    .chars()
                    .skip_while(|c| !c.is_ascii_digit())
                    .take_while(char::is_ascii_digit)
                    .collect();
                digits.parse::<u64>().ok()
            });
        assert_eq!(
            version,
            Some(s.version),
            "DESIGN.md's {} format_version differs from the code's",
            s.anchor
        );
        let documented: BTreeSet<&str> = lines[start..]
            .iter()
            .take_while(|l| !l.trim().is_empty())
            .flat_map(|l| backticked(l))
            .filter(|name| *name != s.anchor)
            .collect();
        let code: BTreeSet<&str> = s.fields.iter().copied().collect();
        assert_eq!(
            documented, code,
            "DESIGN.md's {} fields (left) differ from the code's (right)",
            s.anchor
        );
    }
}

/// The variant names of `$ty` as an array, and a closure naming the
/// variant of a value. The match is exhaustive, so a new variant
/// breaks this file's build until it is listed here, and listing it
/// makes the coverage test require it.
macro_rules! variants {
    ($ty:ident { $($v:ident),+ $(,)? }) => {
        (
            [$(stringify!($v)),+],
            |x: &$ty| match x {
                $($ty::$v { .. } => stringify!($v)),+
            },
        )
    };
}

/// A probe that records which events and phases fired. Clones share
/// one set, as the cores, MMUs and DRAM devices each hold a clone.
#[derive(Clone, Default)]
struct Tally(Rc<RefCell<BTreeSet<&'static str>>>);

impl Probe for Tally {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, _now: Cycle, event: ProbeEvent) {
        let (_, name) = events();
        self.0.borrow_mut().insert(name(&event));
    }

    fn prof_enabled(&self) -> bool {
        true
    }

    fn phase_begin(&mut self, phase: Phase) {
        let (_, name) = phases();
        self.0.borrow_mut().insert(name(&phase));
    }
}

fn events() -> ([&'static str; 17], fn(&ProbeEvent) -> &'static str) {
    variants!(ProbeEvent {
        Retire,
        MemStall,
        TlbStall,
        TlbLookup,
        TlbInsert,
        PageWalk,
        CtlbHit,
        CtlbMiss,
        PageFill,
        FillBypass,
        Rescue,
        GiptInsert,
        GiptEvict,
        FreeQueueDepth,
        DirtyWriteback,
        StaleWriteback,
        DramAccess,
    })
}

fn phases() -> ([&'static str; 6], fn(&Phase) -> &'static str) {
    variants!(Phase {
        Translation,
        Ctlb,
        Gipt,
        CacheAccess,
        Dram,
        Bookkeeping,
    })
}

fn params(slots: u64) -> SystemParams {
    let mut p = SystemParams::with_cache_capacity(slots * 4096);
    p.cores = 1;
    p.core_asid = vec![0];
    p
}

/// Drives the tagless cache's rare paths, which a short cell seldom
/// reaches: a bypassed fill, a dirty eviction, a stale write-back and a
/// rescued victim.
fn drive_rare_tagless_paths(probe: &Tally) {
    // Every cached page stays TLB-resident in a 4-slot cache, so the
    // later fills bypass it.
    let mut small = TaglessCache::with_probe(&params(4), VictimPolicy::Fifo, probe.clone());
    let mut now = 0;
    for v in 0..8 {
        now += small.translate(now, 0, Vpn(v), false).penalty + 100;
    }
    assert!(
        small.bypassed_fills() > 0,
        "no fill bypassed the full cache"
    );

    // A cache wider than the TLB's reach: streaming pages through it
    // evicts the oldest, which no TLB maps any more.
    let slots = 1024;
    let mut l3 = TaglessCache::with_probe(&params(slots), VictimPolicy::Fifo, probe.clone());
    let first = l3.translate(now, 0, Vpn(0), false);
    now += first.penalty;
    l3.writeback(now, 0, first.frame, false, 0); // page 0 leaves dirty
    for v in 1..3 * slots {
        now += l3.translate(now, 0, Vpn(v), false).penalty + 100;
    }
    assert!(
        l3.stats().dirty_page_writebacks > 0,
        "page 0 was not written back"
    );
    // A write-back into a free slot finds no page there.
    let free = (0..slots)
        .map(Cpn)
        .find(|&c| l3.gipt().get(c).is_none())
        .expect("the free queue keeps α slots free");
    l3.writeback(now, 0, Frame::Cache(free), false, 0);
    assert_eq!(l3.stats().stale_writebacks, 1);
    // The oldest cached page is the victim queued for eviction; a
    // victim hit on it rescues it.
    let oldest = (0..slots)
        .filter_map(|c| l3.gipt().get(Cpn(c)))
        .map(|e| e.vpn)
        .min()
        .expect("the cache holds pages");
    l3.translate(now, 0, oldest, false);
    assert_eq!(l3.rescues(), 1, "the queued victim was not rescued");
}

#[test]
fn every_probe_event_and_phase_is_emitted() {
    let tally = Tally::default();
    // A short probed cell emits the common events and every phase.
    let cfg = RunConfig {
        seed: 7,
        cache_bytes: 1 << 30,
        warmup_refs: 1_000,
        measured_refs: 20_000,
    };
    let job = Job::new(Workload::Spec("mcf".into()), OrgKind::Tagless, cfg);
    run_job_probed(&job, tally.clone()).expect("mcf is a known workload");
    drive_rare_tagless_paths(&tally);

    let seen = tally.0.borrow();
    let (all_events, _) = events();
    let (all_phases, _) = phases();
    let missing: Vec<&str> = all_events
        .iter()
        .chain(&all_phases)
        .filter(|name| !seen.contains(*name))
        .copied()
        .collect();
    assert!(missing.is_empty(), "never emitted: {missing:?}");
}
