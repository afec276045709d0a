//! Host-time benchmark of the tagless DRAM cache simulator.
//!
//! ```text
//! simbench --workload <sweep_fig7|thrash_mix5|resident_swaptions>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures end-to-end throughput, set-up time and
//! peak memory for `--seconds`; with `--trace 1` it runs every distinct
//! cell once through timing wrappers and prints per-layer metrics. Both
//! check every simulated result. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` for the workloads and metrics.

mod cells;
mod checks;
mod traced;
mod untraced;

use std::process::ExitCode;

use tdc_util::Json;

use crate::cells::Bench;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Cells attempted and failed, across every repetition.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench = Some(
                    Bench::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value:?}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = cells::config(args.seed);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced::run(args.bench, &cfg, &mut tally)
    } else {
        untraced::run(args.bench, &cfg, args.seconds, &mut tally)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics {
        eprintln!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let result = Json::obj([
        (
            "correct",
            Json::from(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|m| {
                        (
                            m.name,
                            Json::obj([
                                ("value", Json::from(m.value)),
                                ("unit", Json::from(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}
