//! The `tdc lint` subcommand.

use crate::engine::{self, Config};
use crate::rules::{explain, RULES};
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

#[derive(Debug)]
struct Options {
    root: Option<PathBuf>,
    jobs: Option<usize>,
    out: Option<PathBuf>,
    ratchet: Option<PathBuf>,
    update_ratchet: bool,
    quiet: bool,
    only: Option<BTreeSet<String>>,
    explain: Option<String>,
}

const USAGE: &str = "\
tdc lint — determinism & invariant static analysis for the workspace

USAGE:
    tdc lint [OPTIONS]

Scans crates/*/src and src/ for determinism hazards (HashMap/HashSet,
wall-clock time sources, truncating cycle/address casts, unwrap/panic in
libraries) and cross-file invariants (probe hooks emitted, figure ids
baselined, DESIGN.md timing constants defined). Suppress a finding with
`// tdc-lint: allow(<rule>)` on or above the line; pre-existing debt
lives in the lint.ratchet file, whose counts may only decrease.

Exits non-zero if any finding is neither pragma-allowed nor within the
ratchet.

OPTIONS:
    --root DIR       Workspace root (default: walk up from the cwd)
    --jobs N         Worker threads (default: available CPU parallelism)
    --out DIR        Artifact directory for lint.json (default: results)
    --no-out         Skip writing lint.json
    --ratchet FILE   Ratchet file (default: <root>/lint.ratchet)
    --update-ratchet Rewrite the ratchet to current findings and exit 0
    --only RULE[,..] Report only these rules (repeatable); stale-ratchet
                     checks are restricted to them too
    --explain RULE   Print the long explanation for one rule and exit
    --quiet          Suppress the summary line on success
    -h, --help       Show this help";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        jobs: None,
        out: Some(PathBuf::from("results")),
        ratchet: None,
        update_ratchet: false,
        quiet: false,
        only: None,
        explain: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--root" => opts.root = Some(PathBuf::from(value("--root")?)),
            "--jobs" => {
                opts.jobs = Some(
                    value("--jobs")?
                        .parse::<usize>()
                        .map_err(|_| "--jobs needs a positive integer".to_string())?
                        .max(1),
                )
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--no-out" => opts.out = None,
            "--ratchet" => opts.ratchet = Some(PathBuf::from(value("--ratchet")?)),
            "--update-ratchet" => opts.update_ratchet = true,
            "--only" => {
                let set = opts.only.get_or_insert_with(BTreeSet::new);
                for rule in value("--only")?.split(',') {
                    let rule = rule.trim();
                    if rule.is_empty() {
                        continue;
                    }
                    known_rule(rule)?;
                    set.insert(rule.to_string());
                }
            }
            "--explain" => {
                let rule = value("--explain")?;
                known_rule(&rule)?;
                opts.explain = Some(rule);
            }
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}' (try 'tdc lint -h')")),
        }
    }
    if opts.update_ratchet && opts.only.is_some() {
        // A partial run would rewrite the ratchet with only the
        // selected rules' counts, silently dropping everything else.
        return Err("--update-ratchet cannot be combined with --only".to_string());
    }
    Ok(opts)
}

/// Rejects rule ids that are not in the catalogue, listing what is.
fn known_rule(rule: &str) -> Result<(), String> {
    if RULES.iter().any(|(id, _)| *id == rule) {
        return Ok(());
    }
    let ids: Vec<&str> = RULES.iter().map(|(id, _)| *id).collect();
    Err(format!("unknown rule '{rule}' (rules: {})", ids.join(", ")))
}

/// Runs `tdc lint` with `args` (without the subcommand name). Returns
/// the process exit code.
pub fn run(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if let Some(rule) = &opts.explain {
        let summary = RULES
            .iter()
            .find(|(id, _)| id == rule)
            .map(|(_, s)| *s)
            .unwrap_or_default();
        let text = explain(rule).unwrap_or_default();
        println!("{rule}: {summary}\n\n{text}");
        return 0;
    }
    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| engine::find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("tdc lint: no workspace root found (pass --root)");
            return 2;
        }
    };

    let mut cfg = Config::new(root);
    if let Some(jobs) = opts.jobs {
        cfg.jobs = jobs;
    }
    cfg.ratchet = opts.ratchet.clone();
    cfg.only = opts.only.clone();

    let report = match engine::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tdc lint: {e}");
            return 1;
        }
    };

    if opts.update_ratchet {
        let path = opts
            .ratchet
            .clone()
            .unwrap_or_else(|| cfg.root.join("lint.ratchet"));
        if let Err(e) = fs::write(&path, report.ratchet_content()) {
            eprintln!("tdc lint: failed to write {}: {e}", path.display());
            return 1;
        }
        eprintln!("tdc lint: wrote {}", path.display());
    }

    if let Some(dir) = &opts.out {
        let path = dir.join("lint.json");
        let write = fs::create_dir_all(dir)
            .and_then(|()| fs::write(&path, report.to_json().pretty()));
        match write {
            Ok(()) => eprintln!("tdc lint: wrote {}", path.display()),
            Err(e) => {
                eprintln!("tdc lint: failed to write {}: {e}", path.display());
                return 1;
            }
        }
    }

    if !(opts.quiet && report.new_count() == 0 && report.stale.is_empty()) {
        print!("{}", report.render());
    }
    if opts.update_ratchet || report.new_count() == 0 {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let args: Vec<String> = ["--jobs", "3", "--no-out", "--update-ratchet", "--quiet"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse(&args).expect("valid flags");
        assert_eq!(o.jobs, Some(3));
        assert!(o.out.is_none());
        assert!(o.update_ratchet);
        assert!(o.quiet);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse(&["--frob".to_string()]).is_err());
        assert!(parse(&["--jobs".to_string()]).is_err());
        assert!(parse(&["-h".to_string()]).is_err());
    }

    #[test]
    fn parse_only_accumulates_and_validates() {
        let args: Vec<String> = ["--only", "hot-path-alloc,schema-sync", "--only", "probe-coverage"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse(&args).expect("valid rules");
        let only = o.only.expect("set");
        assert_eq!(only.len(), 3);
        assert!(only.contains("schema-sync"));

        let bad = parse(&["--only".to_string(), "no-such-rule".to_string()]);
        assert!(bad.unwrap_err().contains("unknown rule"));
    }

    #[test]
    fn parse_explain_validates_rule() {
        let o = parse(&["--explain".to_string(), "schema-sync".to_string()]).expect("known");
        assert_eq!(o.explain.as_deref(), Some("schema-sync"));
        assert!(parse(&["--explain".to_string(), "bogus".to_string()]).is_err());
    }

    #[test]
    fn parse_rejects_partial_ratchet_update() {
        let args: Vec<String> = ["--update-ratchet", "--only", "schema-sync"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&args).unwrap_err().contains("cannot be combined"));
    }
}
