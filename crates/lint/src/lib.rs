//! Determinism and invariant static analysis for the tagless DRAM
//! cache workspace (`tdc lint`).
//!
//! The simulator's contract is bit-exact reproducibility: every
//! `results/*.json` artifact depends only on the figure set, seed,
//! scale, and cache size — never on thread count, scheduling, or
//! wall-clock. This crate enforces the source-level discipline behind
//! that contract with a hand-rolled, dependency-free pass:
//!
//! * [`lexer`] — a minimal Rust scanner that blanks comments, strings,
//!   raw strings, and char literals so rules never match inside them,
//!   and extracts `// tdc-lint: allow(<rule>)` pragmas.
//! * [`parser`] — an item-level parser over the code shadow (fns,
//!   impls, traits, use-paths, call expressions) feeding the call
//!   graph; no full grammar, just enough structure for reachability.
//! * [`graph`] — the workspace symbol table and call graph plus the
//!   graph rule: no allocation reachable from a hot path.
//! * [`rules`] — the rule set: determinism hazards (`HashMap`/`HashSet`
//!   in library code, wall-clock time sources, truncating casts on
//!   cycle/address values, `unwrap()`/`panic!` in libraries) and
//!   cross-file semantic checks (probe hooks all emitted, figure ids
//!   all baselined, DESIGN.md timing constants all defined, schema
//!   constants in sync with DESIGN.md prose).
//! * [`engine`] — file discovery, parallel scanning through
//!   [`tdc_util::pool`], the two-pass flow (scan+parse every file,
//!   then resolve the graph and run graph rules), pragma/ratchet
//!   filtering, and the human and `results/lint.json` reports.
//! * [`cli`] — the `tdc lint` subcommand (`--only`, `--explain`,
//!   `--update-ratchet`, ...).
//!
//! Existing debt is held by a checked-in ratchet file (`lint.ratchet`)
//! whose per-`(rule, file)` counts may only decrease; any finding
//! beyond the ratchet fails the run, which is the CI gate.

pub mod cli;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use engine::{find_workspace_root, run, Config, Finding, LintReport, Status};
pub use rules::{RawFinding, RULES};
