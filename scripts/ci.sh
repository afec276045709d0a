#!/usr/bin/env bash
# Local CI gate: build, lint, test, a scaled-down end-to-end sweep, a
# probed trace export, and regression gating against the checked-in
# baseline.
#
# Usage: scripts/ci.sh
# The smoke runs write artifacts to a throwaway directory; nothing in
# the repo is modified.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, all crates) =="
cargo build --release --workspace

echo "== lint (clippy, warnings are errors) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== docs (rustdoc, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== tests (unit + property + integration) =="
cargo test -q --workspace

echo "== tests: simbench (its own workspace, built on the crates' public API) =="
cargo test --release --offline -q --manifest-path simbench/Cargo.toml

echo "== lint: tdc lint (determinism & invariant static analysis) =="
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
./target/release/tdc lint --out "$out"
test -s "$out/lint.json" || { echo "lint wrote no lint.json" >&2; exit 1; }

echo "== lint: hot-path allocation gate (--only filter smoke) =="
./target/release/tdc lint --only hot-path-alloc --no-out

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

echo "== smoke: tdc trace (probed run, Perfetto export) =="
./target/release/tdc trace mcf/ctlb --scale 0.02 --out "$out"
test -s "$out/runs/mcf_ctlb.timeseries.json" || { echo "trace wrote no timeseries" >&2; exit 1; }
test -s "$out/trace/mcf_ctlb.trace.json" || { echo "trace wrote no trace.json" >&2; exit 1; }

echo "== smoke: tdc prof (phase attribution, >= 95% of wall accounted) =="
./target/release/tdc prof mcf/ctlb --scale 0.02 --out "$out" --min-attributed 95
test -s "$out/prof.json" || { echo "prof wrote no prof.json" >&2; exit 1; }

echo "== smoke: 2-way shard + merge + diff gate at 25% scale =="
./target/release/tdc shard 1/2 --scale 0.25 --jobs 2 --quiet --out "$out/s1"
./target/release/tdc shard 2/2 --scale 0.25 --jobs 2 --quiet --out "$out/s2"
test -s "$out/s1/shard-manifest.json" || { echo "shard 1 wrote no manifest" >&2; exit 1; }
test -s "$out/s2/shard-manifest.json" || { echo "shard 2 wrote no manifest" >&2; exit 1; }
./target/release/tdc merge "$out/s1" "$out/s2" --quiet --out "$out/merged" \
    --diff baselines/scale-0.25
test -s "$out/merged/index.json" || { echo "merge wrote no index.json" >&2; exit 1; }

echo "== regression: tdc diff vs baselines/scale-0.25 =="
./target/release/tdc diff baselines/scale-0.25 --jobs 2 --quiet

echo "== smoke: tdc serve daemon + bench load generator + dedup gate =="
serve_log="$out/serve.log"
./target/release/tdc serve --addr 127.0.0.1:0 --scale 0.01 --jobs 2 \
    --cache-dir "$out/serve-store" --events "$out/events.jsonl" \
    --quiet >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^tdc serve: listening on //p' "$serve_log" | head -n1)"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve daemon never reported its address" >&2
                    kill "$serve_pid" 2>/dev/null; exit 1; }

echo "== smoke: /metrics.prom scrape (Prometheus text exposition) =="
# One request per connection (Connection: close), so bash's /dev/tcp is
# scraper enough — no curl dependency.
prom="$out/metrics.prom"
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf 'GET /metrics.prom HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' "$addr" >&3
cat <&3 >"$prom"
exec 3<&- 3>&-
grep -q '# TYPE tdc_requests_total counter' "$prom" \
    || { echo "scrape missing tdc_requests_total" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
grep -q 'tdc_request_duration_us_bucket{le="+Inf"}' "$prom" \
    || { echo "scrape missing latency histogram" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }

bench_out="$(./target/release/tdc serve --bench --addr "$addr" \
    --requests 40 --clients 4 --scale 0.01 --expect-speedup 2 --shutdown)" \
    || { echo "serve bench failed" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
printf '%s\n' "$bench_out"
wait "$serve_pid" || { echo "serve daemon exited non-zero" >&2; exit 1; }
grep -q 'server work counters:' <<<"$bench_out" \
    || { echo "serve bench reported no work counters" >&2; exit 1; }
if grep -q 'server work counters: deduped=0 mem_hits=0' <<<"$bench_out"; then
    echo "serve bench saw no request deduplication" >&2; exit 1
fi
grep -q '"event":"request_begin"' "$out/events.jsonl" \
    || { echo "daemon wrote no structured events" >&2; exit 1; }

echo "== perf: tdc bench run twice + noise-aware gate =="
# Hermetic gate: record -> promote to a throwaway baseline -> record
# again -> check. A reduced iteration budget and a capped run count
# keep it fast; the checked-in baselines/bench-baseline.json is the
# cross-commit gate for the recording host (see BENCHMARKS.md).
bench_env=(env TDC_BENCH_ITERS_SCALE=0.02 TDC_BENCH_MAX_RUNS=3)
"${bench_env[@]}" ./target/release/tdc bench run \
    --out "$out/bench" --stamp-dir "$out" --scale 0.01 --jobs 2 --quiet
./target/release/tdc bench check --history "$out/bench/bench-history.jsonl" \
    --baseline "$out/bench-baseline.json" --update --allow-dirty
"${bench_env[@]}" ./target/release/tdc bench run \
    --out "$out/bench" --stamp-dir "$out" --scale 0.01 --jobs 2 --quiet
# The back-to-back hermetic check exercises the gate mechanism, not
# cross-commit performance (the checked-in baseline does that on the
# recording host), so it runs with a loose margin: the second record
# lands on a machine still hot from the smoke sweeps above, which
# shifts allocation-heavy kernels well past the default 25% band.
./target/release/tdc bench check --history "$out/bench/bench-history.jsonl" \
    --baseline "$out/bench-baseline.json" --margin 0.75

echo "== bench artifact (upload-or-print) =="
# No artifact store is configured for the local gate, so print the
# commit stamp; a CI provider would upload this file instead.
stamp="$(ls "$out"/BENCH_*.json | head -n1)"
cat "$stamp"

if [ "${TDC_FULL_SCALE:-0}" = "1" ]; then
    echo "== nightly: tdc all --scale 1.0 (full-scale smoke, TDC_FULL_SCALE=1) =="
    ./target/release/tdc all --jobs 2 --scale 1.0 --quiet --out "$out/full"
    test -s "$out/full/index.json" \
        || { echo "full-scale run wrote no index.json" >&2; exit 1; }
    echo "ok: $(find "$out/full" -name '*.json' | wc -l) artifacts at scale 1.0"
fi
