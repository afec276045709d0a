//! The probe layer's two external contracts:
//!
//! 1. **Observation does not perturb the simulation.** A probed run
//!    must produce a `RunReport` whose JSON serialization is
//!    byte-identical to the unprobed run's — probes read timing, they
//!    never create it.
//! 2. **The Perfetto sink is stable.** The Chrome trace-event export of
//!    a tiny fixed run is pinned as a golden file; any change to event
//!    naming, stamping, or JSON layout must be deliberate (regenerate
//!    with `TDC_UPDATE_GOLDEN=1 cargo test -p tdc-harness --test probes`).

use std::fs;
use std::path::PathBuf;
use tdc_core::experiment::{run_job_probed, Job, OrgKind, Workload};
use tdc_core::RunConfig;
use tdc_harness::sink::report_json;
use tdc_util::obs::ProfProbe;
use tdc_util::probe::{EventGroup, Recorder, SharedProbe};
use tdc_util::Json;

fn tiny() -> RunConfig {
    RunConfig {
        seed: 2015,
        cache_bytes: 1 << 30,
        warmup_refs: 1_000,
        measured_refs: 2_000,
    }
}

fn job(workload: Workload, org: OrgKind) -> Job {
    Job::new(workload, org, tiny())
}

#[test]
fn probed_runs_match_unprobed_runs_byte_for_byte() {
    let cells = [
        job(Workload::Spec("mcf".into()), OrgKind::Tagless),
        job(Workload::Spec("milc".into()), OrgKind::TaglessLru),
        job(Workload::Mix("MIX1".into()), OrgKind::Tagless),
        job(Workload::Spec("mcf".into()), OrgKind::SramTag),
        job(Workload::Parsec("swaptions".into()), OrgKind::Tagless),
        Job::spec_nc("GemsFDTD", 32, tiny()),
    ];
    for cell in &cells {
        let plain = cell.execute().expect("unprobed run");
        let probe = SharedProbe::new(Recorder::new(10_000));
        let probed = run_job_probed(cell, probe.clone()).expect("probed run");
        let key = cell.cache_key();
        assert_eq!(
            report_json(&key, &plain).pretty(),
            report_json(&key, &probed).pretty(),
            "probes perturbed the simulation for {}",
            cell.label()
        );
        // And the probe actually saw the run, so the comparison is not
        // vacuous (the non-tagless org still emits core-side events).
        assert!(
            probe.with(|r| r.total_events()) > 0,
            "no events recorded for {}",
            cell.label()
        );
    }
}

#[test]
fn profiled_runs_match_unprobed_runs_byte_for_byte() {
    // The phase profiler reads the wall clock between simulator phases
    // but must never leak it into simulated state: a profiled run's
    // report is byte-identical to the unprobed run's.
    let cells = [
        job(Workload::Spec("mcf".into()), OrgKind::Tagless),
        job(Workload::Spec("milc".into()), OrgKind::NoL3),
        job(Workload::Parsec("swaptions".into()), OrgKind::Tagless),
        Job::spec_nc("GemsFDTD", 32, tiny()),
    ];
    for cell in &cells {
        let plain = cell.execute().expect("unprobed run");
        let probe = ProfProbe::new();
        let profiled = run_job_probed(cell, probe.clone()).expect("profiled run");
        let key = cell.cache_key();
        assert_eq!(
            report_json(&key, &plain).pretty(),
            report_json(&key, &profiled).pretty(),
            "phase profiling perturbed the simulation for {}",
            cell.label()
        );
        let rec = probe.into_recorder();
        assert!(
            rec.attributed_ns() > 0,
            "profiler attributed no time for {}",
            cell.label()
        );
    }
}

#[test]
fn timeseries_has_nonempty_ctlb_and_free_queue_series() {
    let cell = job(Workload::Spec("mcf".into()), OrgKind::Tagless);
    let probe = SharedProbe::new(Recorder::new(5_000));
    run_job_probed(&cell, probe.clone()).expect("probed run");
    let ts = probe.into_recorder().timeseries_json();
    let series = ts.get("series").expect("series object");
    let sum = |name: &str| -> u64 {
        match series.get(name) {
            Some(Json::Arr(vals)) => vals.iter().filter_map(Json::as_u64).sum(),
            other => panic!("series '{name}' missing or not an array: {other:?}"),
        }
    };
    assert!(sum("ctlb_misses") > 0, "no cTLB misses observed");
    assert!(sum("ctlb_hits") > 0, "no cTLB hits observed");
    assert!(sum("page_fills") > 0, "no page fills observed");
    let free = match series.get("free_queue_free") {
        Some(Json::Arr(vals)) => vals.clone(),
        other => panic!("free_queue_free missing: {other:?}"),
    };
    assert!(!free.is_empty(), "free-queue series empty");
    assert!(
        free.iter().any(|v| v.as_u64().is_some()),
        "free-queue series never sampled"
    );
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/mcf_ctlb.trace.json")
}

#[test]
fn perfetto_export_matches_golden_file() {
    // Fixed cell, epoch, and event groups: the mgmt-side fill pipeline.
    // Restricting groups keeps the golden reviewable (~hundreds of
    // events) while still exercising slices, instants, counters, and
    // metadata records.
    let cell = job(Workload::Spec("mcf".into()), OrgKind::Tagless);
    let recorder = Recorder::new(5_000).with_groups(&[
        EventGroup::Fill,
        EventGroup::Queue,
        EventGroup::Gipt,
        EventGroup::Writeback,
    ]);
    let probe = SharedProbe::new(recorder);
    run_job_probed(&cell, probe.clone()).expect("probed run");
    let trace = probe.into_recorder().chrome_trace_json();

    // Structural validity first: parses back, has the Chrome shape.
    let text = format!("{}\n", trace.to_compact());
    let back = Json::parse(&text).expect("trace JSON parses");
    let events = match back.get("traceEvents") {
        Some(Json::Arr(evs)) => evs.clone(),
        other => panic!("no traceEvents array: {other:?}"),
    };
    assert!(events.len() > 10, "suspiciously few trace events");
    assert!(events.iter().all(|e| e.get("ph").is_some()));

    let path = golden_path();
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
        want,
        text,
        "Perfetto export drifted from golden; if intentional, regenerate with \
         TDC_UPDATE_GOLDEN=1 cargo test -p tdc-harness --test probes"
    );
}
