//! Every figure and table of the paper's evaluation, expressed as job
//! sets over the [`Harness`].
//!
//! Each generator builds the full list of simulation cells it needs,
//! requests them in **one batch** (so the worker pool can run them
//! concurrently and the shared cache can dedupe against other figures —
//! in particular the No-L3 baseline each figure normalizes against is
//! simulated once per harness, not once per figure), then formats its
//! stdout table plus a JSON summary for `results/`.

use std::fmt::Write as _;
use std::sync::Arc;
use tdc_core::experiment::{Job, OrgKind, Workload};
use tdc_core::{AmatInputs, AmatModel, RunConfig, RunReport};
use tdc_sram_cache::TagArrayModel;
use tdc_trace::profiles::{MIXES, PARSEC_NAMES, SPEC_NAMES};
use tdc_util::{geomean, Json};

use crate::harness::Harness;
use crate::sink::config_json;

/// One generated figure/table: identity, the human-readable text the
/// serial harness printed, and the machine-readable summary.
pub struct FigureData {
    /// Stable artifact id (`"fig07"`, `"table1"`, `"amat"`, …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// The stdout rendering (exactly the historical format).
    pub text: String,
    /// The `results/<id>.json` summary.
    pub json: Json,
}

impl FigureData {
    /// Prints the stdout rendering.
    pub fn print(&self) {
        print!("{}", self.text);
    }
}

/// Every figure id `tdc` can generate, in `tdc all` order.
pub const ALL_IDS: [&str; 10] = [
    "table6", "amat", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "table1",
];

/// The comparison organizations of Fig. 7, column order.
const FIG07_ORGS: [OrgKind; 4] = [
    OrgKind::BankInterleave,
    OrgKind::SramTag,
    OrgKind::Tagless,
    OrgKind::Ideal,
];

/// The comparison organizations of Fig. 9, column order.
const FIG09_ORGS: [OrgKind; 3] = [OrgKind::BankInterleave, OrgKind::SramTag, OrgKind::Tagless];

/// The cache sizes Fig. 10 sweeps, column order.
const FIG10_SIZES: [u64; 3] = [256 << 20, 512 << 20, 1 << 30];

/// The organizations Fig. 10 runs at each size.
const FIG10_ORGS: [OrgKind; 3] = [OrgKind::BankInterleave, OrgKind::SramTag, OrgKind::Tagless];

/// The cache sizes Fig. 11 compares FIFO vs LRU at, column order.
const FIG11_SIZES: [u64; 2] = [1 << 30, 512 << 20];

/// The organizations of Fig. 12, column order (baseline first).
const FIG12_ORGS: [OrgKind; 4] = [
    OrgKind::NoL3,
    OrgKind::BankInterleave,
    OrgKind::SramTag,
    OrgKind::Tagless,
];

/// The exact simulation cells figure `id` requests, in request order.
/// `None` for unknown ids.
///
/// This is the **single source of truth** shared by the generators
/// below (which feed the list to [`Harness::run_all`] and consume the
/// results positionally) and by the shard planner
/// ([`crate::shard::plan`], which unions the lists over [`ALL_IDS`] to
/// partition the sweep across machines). A figure added here is
/// automatically part of the sharded sweep.
pub fn jobs_for(id: &str, cfg: &RunConfig) -> Option<Vec<Job>> {
    let spec = |b: &str, org: OrgKind| Job::new(Workload::Spec(b.to_string()), org, *cfg);
    let mix = |m: &str, org: OrgKind| Job::new(Workload::Mix(m.to_string()), org, *cfg);
    let jobs = match id {
        "fig07" => SPEC_NAMES
            .iter()
            .flat_map(|b| {
                std::iter::once(spec(b, OrgKind::NoL3))
                    .chain(FIG07_ORGS.iter().map(|o| spec(b, *o)))
            })
            .collect(),
        "fig08" => SPEC_NAMES
            .iter()
            .flat_map(|b| [spec(b, OrgKind::SramTag), spec(b, OrgKind::Tagless)])
            .collect(),
        "fig09" => MIXES
            .iter()
            .flat_map(|(m, _)| {
                std::iter::once(mix(m, OrgKind::NoL3))
                    .chain(FIG09_ORGS.iter().map(|o| mix(m, *o)))
            })
            .collect(),
        "fig10" => {
            let mut jobs = Vec::new();
            for (m, _) in MIXES {
                for &size in &FIG10_SIZES {
                    let cfg = cfg.with_cache_bytes(size);
                    for org in FIG10_ORGS {
                        jobs.push(Job::new(Workload::Mix(m.to_string()), org, cfg));
                    }
                }
            }
            jobs
        }
        "fig11" => {
            let mut jobs = Vec::new();
            for (m, _) in MIXES {
                for &size in &FIG11_SIZES {
                    let cfg = cfg.with_cache_bytes(size);
                    jobs.push(Job::new(Workload::Mix(m.to_string()), OrgKind::Tagless, cfg));
                    jobs.push(Job::new(Workload::Mix(m.to_string()), OrgKind::TaglessLru, cfg));
                }
            }
            jobs
        }
        "fig12" => PARSEC_NAMES
            .iter()
            .flat_map(|b| {
                FIG12_ORGS
                    .iter()
                    .map(|o| Job::new(Workload::Parsec(b.to_string()), *o, *cfg))
            })
            .collect(),
        "fig13" => vec![
            spec("GemsFDTD", OrgKind::NoL3),
            spec("GemsFDTD", OrgKind::Tagless),
            Job::spec_nc("GemsFDTD", 32, *cfg),
        ],
        "table1" => vec![Job::spec_nc("GemsFDTD", 32, *cfg)],
        "table6" => Vec::new(), // analytic; runs no simulations
        "amat" => vec![spec("milc", OrgKind::SramTag), spec("milc", OrgKind::Tagless)],
        _ => return None,
    };
    Some(jobs)
}

/// Generates one figure by id. `None` for unknown ids.
pub fn generate(id: &str, h: &Harness) -> Option<FigureData> {
    match id {
        "fig07" => Some(fig07(h)),
        "fig08" => Some(fig08(h)),
        "fig09" => Some(fig09(h)),
        "fig10" => Some(fig10(h)),
        "fig11" => Some(fig11(h)),
        "fig12" => Some(fig12(h)),
        "fig13" => Some(fig13(h)),
        "table1" => Some(table1(h)),
        "table6" => Some(table6(h)),
        "amat" => Some(amat(h)),
        _ => None,
    }
}

fn fmt_pct(x: f64) -> String {
    format!("{:+.1}%", (x - 1.0) * 100.0)
}

fn figure_json(id: &str, title: &str, h: &Harness) -> Json {
    Json::obj([
        ("figure", Json::from(id)),
        ("title", Json::from(title)),
        ("config", config_json(&h.cfg)),
    ])
}

/// Figure 7: IPC and EDP of the 11 memory-bound SPEC programs under
/// BI / SRAM / cTLB / Ideal, normalized to the no-L3 baseline.
pub fn fig07(h: &Harness) -> FigureData {
    let title = "Figure 7: single-programmed IPC and EDP (normalized to No L3)";
    let orgs = FIG07_ORGS;
    let jobs = jobs_for("fig07", &h.cfg).expect("known id");
    let results = h.run_all(&jobs);

    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(text, "{:<12} {:>35} | {:>35}", "", "normalized IPC", "normalized EDP").unwrap();
    writeln!(
        text,
        "{:<12} {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "BI", "SRAM", "cTLB", "Ideal", "BI", "SRAM", "cTLB", "Ideal"
    )
    .unwrap();
    let mut ipc_cols: Vec<Vec<f64>> = vec![Vec::new(); orgs.len()];
    let mut edp_cols: Vec<Vec<f64>> = vec![Vec::new(); orgs.len()];
    let mut rows = Vec::new();
    for (bi, bench) in SPEC_NAMES.iter().enumerate() {
        let group = &results[bi * (orgs.len() + 1)..(bi + 1) * (orgs.len() + 1)];
        let base = &group[0];
        let mut ipc_row = Vec::new();
        let mut edp_row = Vec::new();
        for (i, r) in group[1..].iter().enumerate() {
            let ni = r.normalized_ipc(base);
            let ne = r.normalized_edp(base);
            ipc_cols[i].push(ni);
            edp_cols[i].push(ne);
            ipc_row.push(ni);
            edp_row.push(ne);
        }
        writeln!(
            text,
            "{:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            bench,
            ipc_row[0], ipc_row[1], ipc_row[2], ipc_row[3],
            edp_row[0], edp_row[1], edp_row[2], edp_row[3]
        )
        .unwrap();
        rows.push(Json::obj([
            ("name", Json::from(*bench)),
            (
                "normalized_ipc",
                Json::obj(orgs.iter().zip(&ipc_row).map(|(o, v)| (o.label(), Json::from(*v)))),
            ),
            (
                "normalized_edp",
                Json::obj(orgs.iter().zip(&edp_row).map(|(o, v)| (o.label(), Json::from(*v)))),
            ),
        ]));
    }
    let g: Vec<f64> = ipc_cols.iter().map(|c| geomean(c)).collect();
    let ge: Vec<f64> = edp_cols.iter().map(|c| geomean(c)).collect();
    writeln!(
        text,
        "{:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
        "geomean", g[0], g[1], g[2], g[3], ge[0], ge[1], ge[2], ge[3]
    )
    .unwrap();
    writeln!(
        text,
        "IPC gains: BI {} SRAM {} cTLB {} Ideal {}   (paper: +4.0% / +16.4% / +24.9% / cTLB within 11.8% of Ideal)",
        fmt_pct(g[0]), fmt_pct(g[1]), fmt_pct(g[2]), fmt_pct(g[3])
    )
    .unwrap();

    let mut json = figure_json("fig07", title, h);
    json.push("benchmarks", Json::Arr(rows));
    json.push(
        "geomean",
        Json::obj([
            (
                "normalized_ipc",
                Json::obj(orgs.iter().zip(&g).map(|(o, v)| (o.label(), Json::from(*v)))),
            ),
            (
                "normalized_edp",
                Json::obj(orgs.iter().zip(&ge).map(|(o, v)| (o.label(), Json::from(*v)))),
            ),
        ]),
    );
    FigureData {
        id: "fig07",
        title: title.to_string(),
        text,
        json,
    }
}

/// Figure 8: average L3 access latency of the SRAM-tag and tagless
/// caches (TLB access time included), per SPEC program.
pub fn fig08(h: &Harness) -> FigureData {
    let title = "Figure 8: average L3 access latency (cycles; lower is better)";
    let jobs = jobs_for("fig08", &h.cfg).expect("known id");
    let results = h.run_all(&jobs);

    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(text, "{:<12} {:>8} {:>8} {:>10}", "benchmark", "SRAM", "cTLB", "reduction").unwrap();
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    for (bi, bench) in SPEC_NAMES.iter().enumerate() {
        let (sram, ctlb) = (&results[bi * 2], &results[bi * 2 + 1]);
        let (ls, lt) = (sram.avg_l3_latency(), ctlb.avg_l3_latency());
        ratios.push(lt / ls);
        writeln!(
            text,
            "{:<12} {:>8.1} {:>8.1} {:>9.1}%",
            bench, ls, lt, (1.0 - lt / ls) * 100.0
        )
        .unwrap();
        rows.push(Json::obj([
            ("name", Json::from(*bench)),
            ("sram_latency", Json::from(ls)),
            ("ctlb_latency", Json::from(lt)),
            ("reduction", Json::from(1.0 - lt / ls)),
        ]));
    }
    let geo_reduction = 1.0 - geomean(&ratios);
    writeln!(
        text,
        "geomean latency reduction: {:.1}%   (paper: 9.9% geomean, up to 16.7% for libquantum)",
        geo_reduction * 100.0
    )
    .unwrap();

    let mut json = figure_json("fig08", title, h);
    json.push("benchmarks", Json::Arr(rows));
    json.push("geomean_reduction", geo_reduction);
    FigureData {
        id: "fig08",
        title: title.to_string(),
        text,
        json,
    }
}

/// Figure 9: IPC and EDP of the eight Table 5 multi-programmed mixes,
/// normalized to the no-L3 baseline.
pub fn fig09(h: &Harness) -> FigureData {
    let title = "Figure 9: multi-programmed IPC and EDP (normalized to No L3)";
    let orgs = FIG09_ORGS;
    let jobs = jobs_for("fig09", &h.cfg).expect("known id");
    let results = h.run_all(&jobs);

    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(
        text,
        "{:<6} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "mix", "BI", "SRAM", "cTLB", "BI", "SRAM", "cTLB"
    )
    .unwrap();
    let mut ipc_cols: Vec<Vec<f64>> = vec![Vec::new(); orgs.len()];
    let mut rows = Vec::new();
    for (mi, (m, _)) in MIXES.iter().enumerate() {
        let group = &results[mi * (orgs.len() + 1)..(mi + 1) * (orgs.len() + 1)];
        let base = &group[0];
        let mut row = Vec::new();
        for (i, r) in group[1..].iter().enumerate() {
            ipc_cols[i].push(r.normalized_ipc(base));
            row.push((r.normalized_ipc(base), r.normalized_edp(base)));
        }
        writeln!(
            text,
            "{:<6} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3}",
            m, row[0].0, row[1].0, row[2].0, row[0].1, row[1].1, row[2].1
        )
        .unwrap();
        rows.push(Json::obj([
            ("name", Json::from(*m)),
            (
                "normalized_ipc",
                Json::obj(orgs.iter().zip(&row).map(|(o, v)| (o.label(), Json::from(v.0)))),
            ),
            (
                "normalized_edp",
                Json::obj(orgs.iter().zip(&row).map(|(o, v)| (o.label(), Json::from(v.1)))),
            ),
        ]));
    }
    let g: Vec<f64> = ipc_cols.iter().map(|c| geomean(c)).collect();
    writeln!(
        text,
        "geomean IPC gains: BI {} SRAM {} cTLB {}   (paper: +11.2% / +34.9% / +38.4%)",
        fmt_pct(g[0]), fmt_pct(g[1]), fmt_pct(g[2])
    )
    .unwrap();

    let mut json = figure_json("fig09", title, h);
    json.push("mixes", Json::Arr(rows));
    json.push(
        "geomean_normalized_ipc",
        Json::obj(orgs.iter().zip(&g).map(|(o, v)| (o.label(), Json::from(*v)))),
    );
    FigureData {
        id: "fig09",
        title: title.to_string(),
        text,
        json,
    }
}

/// Figure 10: sensitivity to DRAM cache size. IPC normalized to the
/// bank-interleaving baseline at each size.
pub fn fig10(h: &Harness) -> FigureData {
    let title = "Figure 10: cache-size sensitivity (IPC normalized to BI)";
    let sizes = FIG10_SIZES;
    let jobs = jobs_for("fig10", &h.cfg).expect("known id");
    let results = h.run_all(&jobs);

    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(
        text,
        "{:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "mix", "S 256MB", "T 256MB", "S 512MB", "T 512MB", "S 1GB", "T 1GB"
    )
    .unwrap();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 6];
    let mut rows = Vec::new();
    for (mi, (m, _)) in MIXES.iter().enumerate() {
        let mut row = Vec::new();
        let mut sizes_json = Vec::new();
        for (si, &size) in sizes.iter().enumerate() {
            let at = mi * sizes.len() * 3 + si * 3;
            let (bi, sram, ctlb) = (&results[at], &results[at + 1], &results[at + 2]);
            let (s, t) = (sram.normalized_ipc(bi), ctlb.normalized_ipc(bi));
            row.push(s);
            row.push(t);
            sizes_json.push(Json::obj([
                ("size_mb", Json::from(size >> 20)),
                ("sram_over_bi", Json::from(s)),
                ("ctlb_over_bi", Json::from(t)),
            ]));
        }
        for (i, v) in row.iter().enumerate() {
            cols[i].push(*v);
        }
        writeln!(
            text,
            "{:<6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            m, row[0], row[1], row[2], row[3], row[4], row[5]
        )
        .unwrap();
        rows.push(Json::obj([
            ("name", Json::from(*m)),
            ("sizes", Json::Arr(sizes_json)),
        ]));
    }
    let g: Vec<f64> = cols.iter().map(|c| geomean(c)).collect();
    writeln!(
        text,
        "{:<6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
        "geo", g[0], g[1], g[2], g[3], g[4], g[5]
    )
    .unwrap();
    writeln!(text, "(paper: severe degradation below BI at 256MB, tagless ahead at large sizes)")
        .unwrap();

    let mut json = figure_json("fig10", title, h);
    json.push("mixes", Json::Arr(rows));
    json.push(
        "geomean",
        Json::Arr(
            sizes
                .iter()
                .enumerate()
                .map(|(si, &size)| {
                    Json::obj([
                        ("size_mb", Json::from(size >> 20)),
                        ("sram_over_bi", Json::from(g[si * 2])),
                        ("ctlb_over_bi", Json::from(g[si * 2 + 1])),
                    ])
                })
                .collect(),
        ),
    );
    FigureData {
        id: "fig10",
        title: title.to_string(),
        text,
        json,
    }
}

/// Figure 11: FIFO vs LRU replacement for the tagless cache.
pub fn fig11(h: &Harness) -> FigureData {
    let title = "Figure 11: replacement policy (LRU IPC normalized to FIFO)";
    let sizes = FIG11_SIZES;
    let jobs = jobs_for("fig11", &h.cfg).expect("known id");
    let results = h.run_all(&jobs);

    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(text, "{:<6} {:>10} {:>10}", "mix", "1GB", "512MB").unwrap();
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for (mi, (m, _)) in MIXES.iter().enumerate() {
        let mut row = Vec::new();
        for si in 0..sizes.len() {
            let at = mi * sizes.len() * 2 + si * 2;
            let (fifo, lru) = (&results[at], &results[at + 1]);
            row.push(lru.normalized_ipc(fifo));
        }
        all.push(row[0]);
        writeln!(text, "{:<6} {:>10.3} {:>10.3}", m, row[0], row[1]).unwrap();
        rows.push(Json::obj([
            ("name", Json::from(*m)),
            ("lru_over_fifo_1gb", Json::from(row[0])),
            ("lru_over_fifo_512mb", Json::from(row[1])),
        ]));
    }
    let g = geomean(&all);
    writeln!(
        text,
        "geomean LRU/FIFO at 1GB: {:.3}   (paper: LRU ahead by only 1.6% — FIFO suffices)",
        g
    )
    .unwrap();

    let mut json = figure_json("fig11", title, h);
    json.push("mixes", Json::Arr(rows));
    json.push("geomean_lru_over_fifo_1gb", g);
    FigureData {
        id: "fig11",
        title: title.to_string(),
        text,
        json,
    }
}

/// Figure 12: IPC speedup and EDP of the four PARSEC programs.
pub fn fig12(h: &Harness) -> FigureData {
    let title = "Figure 12: multi-threaded (PARSEC) IPC and EDP (normalized to No L3)";
    let orgs = FIG12_ORGS;
    let jobs = jobs_for("fig12", &h.cfg).expect("known id");
    let results = h.run_all(&jobs);

    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(
        text,
        "{:<14} {:>8} {:>8} {:>8} | {:>8} {:>8}",
        "benchmark", "BI", "SRAM", "cTLB", "SRAM", "cTLB"
    )
    .unwrap();
    let mut rows = Vec::new();
    for (bi_idx, bench) in PARSEC_NAMES.iter().enumerate() {
        let group = &results[bi_idx * orgs.len()..(bi_idx + 1) * orgs.len()];
        let (base, bi, sram, ctlb) = (&group[0], &group[1], &group[2], &group[3]);
        writeln!(
            text,
            "{:<14} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3}",
            bench,
            bi.normalized_ipc(base),
            sram.normalized_ipc(base),
            ctlb.normalized_ipc(base),
            sram.normalized_edp(base),
            ctlb.normalized_edp(base)
        )
        .unwrap();
        rows.push(Json::obj([
            ("name", Json::from(*bench)),
            ("bi_ipc", Json::from(bi.normalized_ipc(base))),
            ("sram_ipc", Json::from(sram.normalized_ipc(base))),
            ("ctlb_ipc", Json::from(ctlb.normalized_ipc(base))),
            ("sram_edp", Json::from(sram.normalized_edp(base))),
            ("ctlb_edp", Json::from(ctlb.normalized_edp(base))),
        ]));
    }
    writeln!(text, "(paper: streamcluster/facesim gain; swaptions/fluidanimate flat or slightly down)")
        .unwrap();

    let mut json = figure_json("fig12", title, h);
    json.push("benchmarks", Json::Arr(rows));
    FigureData {
        id: "fig12",
        title: title.to_string(),
        text,
        json,
    }
}

/// Figure 13: the §5.4 non-cacheable case study on 459.GemsFDTD.
pub fn fig13(h: &Harness) -> FigureData {
    let title = "Figure 13: non-cacheable pages on GemsFDTD (IPC normalized to No L3)";
    let jobs = jobs_for("fig13", &h.cfg).expect("known id");
    let results = h.run_all(&jobs);
    let (base, plain, nc) = (&results[0], &results[1], &results[2]);

    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(
        text,
        "{:<10} {:>8.3}\n{:<10} {:>8.3}\n{:<10} {:>8.3}",
        "cTLB",
        plain.normalized_ipc(base),
        "cTLB+NC",
        nc.normalized_ipc(base),
        "NC gain",
        nc.ipc_total() / plain.ipc_total()
    )
    .unwrap();
    writeln!(
        text,
        "off-package demand fraction: cTLB {:.3} -> cTLB+NC {:.3}",
        1.0 - plain.in_package_fraction(),
        1.0 - nc.in_package_fraction()
    )
    .unwrap();
    writeln!(text, "(paper: +7.1% IPC from flagging pages with access count < 32)").unwrap();

    let mut json = figure_json("fig13", title, h);
    json.push("ctlb_ipc", plain.normalized_ipc(base));
    json.push("ctlb_nc_ipc", nc.normalized_ipc(base));
    json.push("nc_gain", nc.ipc_total() / plain.ipc_total());
    json.push("off_pkg_fraction_ctlb", 1.0 - plain.in_package_fraction());
    json.push("off_pkg_fraction_ctlb_nc", 1.0 - nc.in_package_fraction());
    FigureData {
        id: "fig13",
        title: title.to_string(),
        text,
        json,
    }
}

/// Table 1: occurrence of the four (TLB, DRAM-cache) hit/miss cases of
/// the tagless design, measured directly from the simulator.
pub fn table1(h: &Harness) -> FigureData {
    let title = "Table 1: the four access cases (measured on GemsFDTD+NC)";
    let jobs = jobs_for("table1", &h.cfg).expect("known id");
    let nc: Arc<RunReport> = h.run_all(&jobs).pop().expect("one job in, one out");
    let s = &nc.l3;
    let total =
        (s.case_hit_hit + s.case_hit_miss + s.case_miss_hit + s.case_miss_miss).max(1) as f64;

    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(
        text,
        "(Hit, Hit)   cache hit, zero penalty:            {:>10} ({:.2}%)",
        s.case_hit_hit,
        s.case_hit_hit as f64 / total * 100.0
    )
    .unwrap();
    writeln!(
        text,
        "(Hit, Miss)  non-cacheable page:                 {:>10} ({:.2}%)",
        s.case_hit_miss,
        s.case_hit_miss as f64 / total * 100.0
    )
    .unwrap();
    writeln!(
        text,
        "(Miss, Hit)  in-package victim hit:              {:>10} ({:.2}%)",
        s.case_miss_hit,
        s.case_miss_hit as f64 / total * 100.0
    )
    .unwrap();
    writeln!(
        text,
        "(Miss, Miss) off-package miss (fill/GIPT/NC):    {:>10} ({:.2}%)",
        s.case_miss_miss,
        s.case_miss_miss as f64 / total * 100.0
    )
    .unwrap();
    writeln!(
        text,
        "page fills: {}   GIPT updates: {}   PU-suppressed duplicate fills: {}",
        s.page_fills, s.gipt_updates, s.pu_suppressed_fills
    )
    .unwrap();

    let mut json = figure_json("table1", title, h);
    json.push(
        "cases",
        Json::obj([
            ("hit_hit", Json::from(s.case_hit_hit)),
            ("hit_miss", Json::from(s.case_hit_miss)),
            ("miss_hit", Json::from(s.case_miss_hit)),
            ("miss_miss", Json::from(s.case_miss_miss)),
        ]),
    );
    json.push("page_fills", s.page_fills);
    json.push("gipt_updates", s.gipt_updates);
    json.push("pu_suppressed_fills", s.pu_suppressed_fills);
    FigureData {
        id: "table1",
        title: title.to_string(),
        text,
        json,
    }
}

/// Table 6: SRAM tag size and latency vs DRAM cache size (the CACTI-6.5
/// substitute model). Analytic; runs no simulations.
pub fn table6(h: &Harness) -> FigureData {
    let title = "Table 6: SRAM tag array vs cache size";
    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(
        text,
        "{:<12} {:>10} {:>10} {:>12}",
        "cache size", "tag size", "latency", "probe energy"
    )
    .unwrap();
    let mut rows = Vec::new();
    for (label, bytes) in [
        ("128MB", 128u64 << 20),
        ("256MB", 256 << 20),
        ("512MB", 512 << 20),
        ("1GB", 1 << 30),
    ] {
        let m = TagArrayModel::new(bytes);
        writeln!(
            text,
            "{:<12} {:>8.1}MB {:>8}cyc {:>10.0}pJ",
            label,
            m.tag_mb(),
            m.latency_cycles(),
            m.probe_energy_pj()
        )
        .unwrap();
        rows.push(Json::obj([
            ("cache_size", Json::from(label)),
            ("cache_bytes", Json::from(bytes)),
            ("tag_mb", Json::from(m.tag_mb())),
            ("latency_cycles", Json::from(m.latency_cycles())),
            ("probe_energy_pj", Json::from(m.probe_energy_pj())),
        ]));
    }
    writeln!(text, "(paper: 0.5/1/2/4 MB and 5/6/9/11 cycles)").unwrap();

    let mut json = figure_json("table6", title, h);
    json.push("rows", Json::Arr(rows));
    FigureData {
        id: "table6",
        title: title.to_string(),
        text,
        json,
    }
}

/// The analytic AMAT model (Equations 1–5) at the paper-representative
/// operating point, next to measured simulator latencies.
pub fn amat(h: &Harness) -> FigureData {
    let title = "AMAT model (Equations 1-5)";
    let i = AmatInputs::paper_representative();
    let jobs = jobs_for("amat", &h.cfg).expect("known id");
    let results = h.run_all(&jobs);
    let (sram, ctlb) = (&results[0], &results[1]);

    let mut text = String::new();
    writeln!(text, "== {title} ==").unwrap();
    writeln!(
        text,
        "analytic:  AMAT_SRAM-tag = {:.1} cycles, AMAT_Tagless = {:.1} cycles ({:.1}% lower)",
        AmatModel::amat_sram_tag(&i),
        AmatModel::amat_tagless(&i),
        (1.0 - AmatModel::amat_tagless(&i) / AmatModel::amat_sram_tag(&i)) * 100.0
    )
    .unwrap();
    writeln!(
        text,
        "measured (milc): SRAM {:.1} cycles, cTLB {:.1} cycles ({:.1}% lower)",
        sram.avg_l3_latency(),
        ctlb.avg_l3_latency(),
        (1.0 - ctlb.avg_l3_latency() / sram.avg_l3_latency()) * 100.0
    )
    .unwrap();

    let mut json = figure_json("amat", title, h);
    json.push(
        "analytic",
        Json::obj([
            ("amat_sram_tag", Json::from(AmatModel::amat_sram_tag(&i))),
            ("amat_tagless", Json::from(AmatModel::amat_tagless(&i))),
        ]),
    );
    json.push(
        "measured_milc",
        Json::obj([
            ("sram_latency", Json::from(sram.avg_l3_latency())),
            ("ctlb_latency", Json::from(ctlb.avg_l3_latency())),
        ]),
    );
    FigureData {
        id: "amat",
        title: title.to_string(),
        text,
        json,
    }
}
