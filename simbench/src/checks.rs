//! Output checks. At the reference seed every workload is anchored to
//! the checked-in baselines; at every seed each workload must stay in
//! the regime it was chosen for, and every repetition of a cell must
//! reproduce the first one exactly.

use std::path::PathBuf;
use tdc_core::{CoreResult, DramStats, L3Stats, RunReport};
use tdc_harness::{FigureData, HarnessStats};
use tdc_util::Json;

use crate::cells::{Bench, REFERENCE_SEED, SWEEP_FIGURES};

/// Ceiling on L2 misses per simulated reference in `resident_swaptions`,
/// about 1.5x what both of its cells measure (0.020 at seed 2015). Above
/// it the program no longer fits the on-die caches and L3 work starts
/// to matter.
const RESIDENT_L2_MISSES_PER_REF: f64 = 0.03;

/// Cells `sweep_fig7` simulates per fresh harness, and requests the
/// harness answers from its cache instead.
const SWEEP_EXECUTED: usize = 55;
/// See [`SWEEP_EXECUTED`].
const SWEEP_CACHE_HITS: usize = 24;

/// What a workload's results must equal at the reference seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Anchor {
    /// Each generated figure's JSON, byte for byte: `(id, file text)`.
    Figures(Vec<(&'static str, String)>),
    /// The normalized IPC of the workload's second cell over its first.
    Ratio(f64),
}

/// Directory of the baselines generated at [`REFERENCE_SEED`] and scale
/// 0.25.
fn baseline_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../baselines/scale-0.25"
    ))
}

/// The anchor for `bench` at `seed`: `None` away from the reference seed,
/// where no baseline exists.
///
/// # Errors
///
/// A baseline file that is missing or lacks the anchored value.
pub fn anchor(bench: Bench, seed: u64) -> Result<Option<Anchor>, String> {
    if seed != REFERENCE_SEED {
        return Ok(None);
    }
    let read = |id: &str| {
        let path = baseline_dir().join(format!("{id}.json"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok(Some(match bench {
        Bench::Sweep => Anchor::Figures(
            SWEEP_FIGURES
                .into_iter()
                .map(|id| Ok((id, read(id)?)))
                .collect::<Result<_, String>>()?,
        ),
        Bench::Thrash => Anchor::Ratio(figure_value(
            &read("fig11")?,
            "mixes",
            "MIX5",
            "lru_over_fifo_512mb",
        )?),
        Bench::Resident => Anchor::Ratio(figure_value(
            &read("fig12")?,
            "benchmarks",
            "swaptions",
            "ctlb_ipc",
        )?),
    }))
}

/// `row[key]` of the row named `name` in the `table` array of a figure
/// file.
fn figure_value(text: &str, table: &str, name: &str, key: &str) -> Result<f64, String> {
    let doc = Json::parse(text).map_err(|e| format!("baseline parse: {e:?}"))?;
    let Some(Json::Arr(rows)) = doc.get(table) else {
        return Err(format!("baseline has no {table:?} array"));
    };
    rows.iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|r| r.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("baseline has no {name}.{key}"))
}

/// The statistics two runs of one cell must agree on: per-core results,
/// the organization's counters and both DRAM devices' counters.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats {
    pub cores: Vec<CoreResult>,
    pub l3: L3Stats,
    pub in_pkg: Option<DramStats>,
    pub off_pkg: DramStats,
}

impl From<&RunReport> for Stats {
    fn from(r: &RunReport) -> Self {
        Stats {
            cores: r.cores.clone(),
            l3: r.l3.clone(),
            in_pkg: r.in_pkg,
            off_pkg: r.off_pkg,
        }
    }
}

/// Whether two runs of one cell produced identical statistics.
pub fn same_stats(a: &RunReport, b: &RunReport) -> bool {
    Stats::from(a) == Stats::from(b)
}

/// Checks the generated figures against the anchor's files, if any.
pub fn check_figures(figures: &[FigureData], anchor: Option<&Anchor>) -> Result<(), String> {
    let Some(Anchor::Figures(files)) = anchor else {
        return Ok(());
    };
    for (id, text) in files {
        let fig = figures
            .iter()
            .find(|f| f.id == *id)
            .ok_or_else(|| format!("{id} was not generated"))?;
        if fig.json.pretty() != *text {
            return Err(format!("{id} differs from baselines/scale-0.25/{id}.json"));
        }
    }
    Ok(())
}

/// Checks a two-cell workload's IPC ratio against the anchor, if any.
pub fn check_ratio(
    base: &RunReport,
    other: &RunReport,
    anchor: Option<&Anchor>,
) -> Result<(), String> {
    let Some(Anchor::Ratio(want)) = anchor else {
        return Ok(());
    };
    let got = other.normalized_ipc(base);
    if got == *want {
        Ok(())
    } else {
        Err(format!("normalized IPC {got} != baseline {want}"))
    }
}

/// The regime `bench` was chosen for, checked on one cell's report.
pub fn check_regime(bench: Bench, report: &RunReport) -> Result<(), String> {
    let l3 = &report.l3;
    match bench {
        Bench::Thrash if l3.page_fills == 0 || l3.page_evictions != l3.page_fills => Err(format!(
            "{}: {} fills and {} evictions; the cache was not full when measurement began",
            report.org, l3.page_fills, l3.page_evictions
        )),
        Bench::Resident => {
            let refs: u64 = report.cores.iter().map(|c| c.refs).sum();
            let misses: u64 = report.cores.iter().map(|c| c.l2_misses).sum();
            let per_ref = misses as f64 / refs.max(1) as f64;
            if l3.page_evictions != 0 {
                Err(format!(
                    "{}: {} evictions in a resident run",
                    report.org, l3.page_evictions
                ))
            } else if per_ref > RESIDENT_L2_MISSES_PER_REF {
                Err(format!(
                    "{}: {per_ref:.4} L2 misses per reference exceeds {RESIDENT_L2_MISSES_PER_REF}",
                    report.org
                ))
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

/// The sweep's harness must have simulated every distinct cell once,
/// served the rest from its cache, and covered all five organizations.
pub fn check_sweep_harness(
    stats: &HarnessStats,
    results: &[(String, std::sync::Arc<RunReport>)],
) -> Result<(), String> {
    let mut orgs: Vec<&str> = results.iter().map(|(_, r)| r.org.as_str()).collect();
    orgs.sort_unstable();
    orgs.dedup();
    if stats.executed != SWEEP_EXECUTED || stats.cache_hits != SWEEP_CACHE_HITS {
        Err(format!(
            "harness executed {} cells with {} cache hits, expected {SWEEP_EXECUTED} and {SWEEP_CACHE_HITS}",
            stats.executed, stats.cache_hits
        ))
    } else if orgs.len() != 5 {
        Err(format!("organizations {orgs:?}, expected five"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_core::experiment::{Job, OrgKind, RunConfig, Workload};

    fn tiny() -> RunConfig {
        RunConfig {
            seed: 7,
            cache_bytes: 64 << 20,
            warmup_refs: 2_000,
            measured_refs: 6_000,
        }
    }

    fn report(workload: Workload, org: OrgKind) -> RunReport {
        Job::new(workload, org, tiny())
            .execute()
            .expect("known workload")
    }

    fn bump(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn reference_anchors_are_the_published_values() {
        assert_eq!(
            anchor(Bench::Thrash, REFERENCE_SEED),
            Ok(Some(Anchor::Ratio(1.165101082179362)))
        );
        assert_eq!(
            anchor(Bench::Resident, REFERENCE_SEED),
            Ok(Some(Anchor::Ratio(0.9787704204800937)))
        );
        let Ok(Some(Anchor::Figures(files))) = anchor(Bench::Sweep, REFERENCE_SEED) else {
            panic!("sweep anchor must be the figure files");
        };
        assert_eq!(
            files.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            SWEEP_FIGURES
        );
    }

    #[test]
    fn ratio_check_rejects_a_perturbed_reference_value() {
        let base = report(Workload::Parsec("swaptions".into()), OrgKind::NoL3);
        let ctlb = report(Workload::Parsec("swaptions".into()), OrgKind::Tagless);
        let exact = ctlb.normalized_ipc(&base);
        assert_eq!(
            check_ratio(&base, &ctlb, Some(&Anchor::Ratio(exact))),
            Ok(())
        );
        assert!(check_ratio(&base, &ctlb, Some(&Anchor::Ratio(bump(exact)))).is_err());
    }

    #[test]
    fn figure_check_rejects_a_perturbed_file() {
        let Ok(Some(Anchor::Figures(files))) = anchor(Bench::Sweep, REFERENCE_SEED) else {
            panic!("sweep anchor must be the figure files");
        };
        let (id, text) = files[0].clone();
        let fig = FigureData {
            id,
            title: String::new(),
            text: String::new(),
            json: Json::parse(&text).expect("baseline parses"),
        };
        assert_eq!(
            check_figures(
                std::slice::from_ref(&fig),
                Some(&Anchor::Figures(vec![(id, text.clone())]))
            ),
            Ok(())
        );
        let digit = text
            .find(|c: char| c.is_ascii_digit())
            .expect("figure has numbers");
        let mut perturbed = text.clone();
        let d = perturbed.as_bytes()[digit];
        perturbed.replace_range(digit..=digit, if d == b'9' { "8" } else { "9" });
        assert!(check_figures(&[fig], Some(&Anchor::Figures(vec![(id, perturbed)]))).is_err());
    }

    #[test]
    fn other_seeds_skip_anchors_but_keep_regime_and_determinism_checks() {
        for bench in Bench::ALL {
            assert_eq!(anchor(bench, REFERENCE_SEED + 1), Ok(None));
        }
        let fifo = report(Workload::Mix("MIX5".into()), OrgKind::Tagless);
        let lru = report(Workload::Mix("MIX5".into()), OrgKind::TaglessLru);
        assert_eq!(check_ratio(&fifo, &lru, None), Ok(()));
        assert_eq!(check_figures(&[], None), Ok(()));

        let mut not_full = fifo.clone();
        not_full.l3.page_evictions = not_full.l3.page_fills - 1;
        assert!(check_regime(Bench::Thrash, &not_full).is_err());
        let mut evicting = fifo.clone();
        evicting.l3.page_evictions = 1;
        assert!(check_regime(Bench::Resident, &evicting).is_err());

        assert!(same_stats(&fifo, &fifo.clone()));
        let mut drifted = fifo.clone();
        drifted.cores[0].instrs += 1;
        assert!(!same_stats(&fifo, &drifted));
    }
}
