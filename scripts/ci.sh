#!/usr/bin/env bash
# Local CI gate: build, lint, test, a scaled-down end-to-end sweep, a
# probed trace export, regression gating against the checked-in figure
# baseline, and a same-host bench comparison.
#
# Usage: scripts/ci.sh
# The smoke runs write artifacts to a throwaway directory; nothing in
# the repo is modified.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, all crates) =="
cargo build --release --workspace

echo "== lint (clippy: the determinism rules of DESIGN.md §9, warnings are errors) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== docs (rustdoc, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== tests (unit + property + integration) =="
cargo test -q --workspace

echo "== tests: differential suites in release (overflow wraps, debug_assert! is off) =="
# The packed tag lanes, stamp renumbering and set-index masks must match
# their reference models in the build the simulator actually runs.
cargo test --release -q -p tdc-sram-cache -p tdc-dram-cache -p tdc-util

echo "== smoke: ablation example at 2% scale =="
ablation_out="$(TDC_SCALE=0.02 cargo run --release --offline -q --example ablation)"
grep -q '^== Ablation 4' <<<"$ablation_out" \
    || { echo "ablation example did not reach its last study" >&2; exit 1; }

echo "== tests: simbench (its own workspace, built on the crates' public API) =="
cargo test --release --offline -q --manifest-path simbench/Cargo.toml

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

echo "== smoke: tdc all --jobs 2 at 5% scale (cold, populating the store) =="
./target/release/tdc all --jobs 2 --scale 0.05 --quiet --out "$out" \
    --cache-dir "$out/store"
test -s "$out/index.json" || { echo "smoke run wrote no index.json" >&2; exit 1; }
test -s "$out/metrics.json" || { echo "smoke run wrote no metrics.json" >&2; exit 1; }
ls "$out/store"/cell-*.json >/dev/null || { echo "smoke run persisted no cells" >&2; exit 1; }
echo "ok: $(find "$out" -name '*.json' | wc -l) artifacts"

echo "== smoke: tdc all warm-started from the store (zero executions) =="
./target/release/tdc all --jobs 2 --scale 0.05 --quiet --out "$out/warm" \
    --cache-dir "$out/store"
grep -q '"executed": 0' "$out/warm/metrics.json" \
    || { echo "warm run re-executed jobs instead of loading the store" >&2; exit 1; }
diff -q "$out/index.json" "$out/warm/index.json" >/dev/null \
    || { echo "warm run diverged from the cold run" >&2; exit 1; }

echo "== smoke: tdc all --jobs 16 (steal path, byte-identical to --jobs 2) =="
# Oversubscribed on purpose: with more workers than most batches have
# tasks, every non-trivial batch exercises the pass over the other
# workers' slice cursors (DESIGN.md §16). No store, so every cell
# actually executes.
./target/release/tdc all --jobs 16 --scale 0.05 --quiet --out "$out/steal"
for f in "$out/steal"/*.json; do
    base="$(basename "$f")"
    [ "$base" = metrics.json ] && continue # wall-clock telemetry, not gated
    diff -q "$out/$base" "$f" >/dev/null \
        || { echo "--jobs 16 run diverged from --jobs 2 on $base" >&2; exit 1; }
done
grep -q '"steal_attempts"' "$out/steal/metrics.json" \
    || { echo "--jobs 16 run recorded no scheduler telemetry" >&2; exit 1; }

# One cell per builder arm: SPEC on the probed tagless cache, a mix
# with private address spaces on an unprobed organization, and PARSEC
# threads sharing one address space.
for cell in mcf/ctlb MIX1/sram swaptions/ctlb; do
    stem="$(tr '[:upper:]/' '[:lower:]_' <<<"$cell")"

    echo "== smoke: tdc trace $cell (probed run, Perfetto export) =="
    ./target/release/tdc trace "$cell" --scale 0.02 --out "$out"
    test -s "$out/runs/$stem.timeseries.json" || { echo "trace wrote no timeseries" >&2; exit 1; }
    test -s "$out/trace/$stem.trace.json" || { echo "trace wrote no trace.json" >&2; exit 1; }

    echo "== smoke: tdc prof $cell (phase attribution, >= 95% of wall accounted) =="
    rm -f "$out/prof.json"
    ./target/release/tdc prof "$cell" --scale 0.02 --out "$out" --min-attributed 95
    test -s "$out/prof.json" || { echo "prof wrote no prof.json" >&2; exit 1; }
done

echo "== smoke: 2-way shard stores + their union at 25% scale =="
# Each shard persists its slice to its own store; the union of the two
# stores must cover the whole plan, so the final run simulates nothing
# and reproduces the checked-in figures byte for byte.
./target/release/tdc shard 1/2 --scale 0.25 --jobs 2 --quiet --cache-dir "$out/s1"
./target/release/tdc shard 2/2 --scale 0.25 --jobs 2 --quiet --cache-dir "$out/s2"
mkdir -p "$out/union"
cp "$out"/s1/cell-*.json "$out"/s2/cell-*.json "$out/union/"
./target/release/tdc all --scale 0.25 --jobs 2 --quiet --out "$out/unioned" \
    --cache-dir "$out/union"
grep -q '"executed": 0' "$out/unioned/metrics.json" \
    || { echo "the union of the shard stores left cells to simulate" >&2; exit 1; }
for f in baselines/scale-0.25/*.json; do
    base="$(basename "$f")"
    [ "$base" = index.json ] && continue # same content, different layout
    cmp "$f" "$out/unioned/$base" \
        || { echo "union run's $base differs from baselines/scale-0.25" >&2; exit 1; }
done

echo "== regression: tdc diff vs baselines/scale-0.25 =="
./target/release/tdc diff baselines/scale-0.25 --jobs 2 --quiet

echo "== perf: two tdc bench records from this build + noise-aware check =="
# Two back-to-back records from one binary on one host exercise the
# record format and the gate, not cross-commit performance (BENCHMARKS.md
# has the parent-vs-change recipe). A reduced iteration budget and a
# capped run count keep it fast; the loose margin absorbs the second
# record landing on a machine still hot from the smoke sweeps above.
bench_env=(env TDC_BENCH_ITERS_SCALE=0.02 TDC_BENCH_MAX_RUNS=3)
"${bench_env[@]}" ./target/release/tdc bench run \
    --out "$out/base.json" --scale 0.01 --jobs 2 --quiet
"${bench_env[@]}" ./target/release/tdc bench run \
    --out "$out/cur.json" --scale 0.01 --jobs 2 --quiet
./target/release/tdc bench check "$out/base.json" "$out/cur.json" --margin 0.75

echo "== bench artifact (upload-or-print) =="
# No artifact store is configured for the local gate, so print the
# record; a CI provider would upload this file instead.
cat "$out/cur.json"

if [ "${TDC_FULL_SCALE:-0}" = "1" ]; then
    echo "== nightly: tdc all --scale 1.0 (full-scale smoke, TDC_FULL_SCALE=1) =="
    ./target/release/tdc all --jobs 2 --scale 1.0 --quiet --out "$out/full"
    test -s "$out/full/index.json" \
        || { echo "full-scale run wrote no index.json" >&2; exit 1; }
    echo "ok: $(find "$out/full" -name '*.json' | wc -l) artifacts at scale 1.0"
fi
