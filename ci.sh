#!/usr/bin/env bash
# Tier-1 gate: formatting, lints (when the toolchain ships clippy), and the
# full test suite. Run from the repo root; exits non-zero on first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "rustfmt not installed; skipping"
fi

echo "== cargo clippy -D warnings =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping"
fi

echo "== cargo test -q =="
cargo test --workspace -q

echo "== perfbench self-test (tiny scale: correctness gates, metric names and units) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== trace smoke (tiny workload, self-checked Chrome JSON + CSV) =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run -p bench --release -q --bin trace -- \
    --out "$TRACE_TMP/smoke" --records 400 --ops 200 --txns 60 --check \
    --telemetry-out "$TRACE_TMP/smoke_telemetry.json"
test -s "$TRACE_TMP/smoke.trace.json"
test -s "$TRACE_TMP/smoke.series.csv"
test -s "$TRACE_TMP/smoke_telemetry.json"

echo "== crash-campaign smoke (--check fails on any DuraSSD acked-lost) =="
cargo run -p bench --release -q --bin crashmatrix -- \
    --keys 300 --cuts 3 --seed 7 --json "$TRACE_TMP/crash.json" --check \
    >"$TRACE_TMP/crash.out"
test -s "$TRACE_TMP/crash.json"
test -s "$TRACE_TMP/crash.trace.json"
grep -q '"schema":"durassd.forensics.v1"' "$TRACE_TMP/crash.json"
grep -q '"name":"power_cut"' "$TRACE_TMP/crash.trace.json"

echo "== simtest campaign (fixed seeds, every target, shrunk repro on fail) =="
cargo run -p simtest --release -q -- --seeds 50 --ops 2000 --check --quiet

echo "== recovery smoke (crash + checkpoint-bounded replay, schema-validated) =="
# --check asserts the schema, ≥3 devices × ≥2 checkpoint intervals, and
# that the DuraSSD relational rows replayed ≥1 and skipped ≥1 records.
cargo run -p bench --release -q --bin recovery -- \
    --commits 600 --doc-ops 600 --out "$TRACE_TMP/recovery.json" --check \
    >"$TRACE_TMP/recovery.out"
test -s "$TRACE_TMP/recovery.json"
grep -q '"schema":"durassd.recovery.v1"' "$TRACE_TMP/recovery.json"

echo "== behaviour contract (observatory and recovery regenerate the checked-in BENCH files) =="
# observatory --check fails on schema drift, a write the per-cause attribution
# cannot explain, durable < volatile absorption, an anatomy conservation
# violation, flush-cache time in a durable tail, or a volatile tail that is not
# flush-dominated. The cmp then pins every figure of the checked-in documents.
cargo run -p bench --release -q --bin observatory -- \
    --check --out-dir "$TRACE_TMP" >"$TRACE_TMP/observatory.out"
cmp "$TRACE_TMP/BENCH_waf.json" BENCH_waf.json
cmp "$TRACE_TMP/BENCH_latency.json" BENCH_latency.json
# Recovery at default scale: everything but the host wall-clock field is pinned.
cargo run -p bench --release -q --bin recovery -- \
    --out "$TRACE_TMP/BENCH_recovery.json" --check >"$TRACE_TMP/recovery_full.out"
mask='s/"recovery_wall_ns":[0-9]*/"recovery_wall_ns":N/g'
cmp <(sed "$mask" "$TRACE_TMP/BENCH_recovery.json") <(sed "$mask" BENCH_recovery.json)

echo "== table3 smoke (group-commit engine run; an anatomy violation fails the bin) =="
# print_telemetry exits non-zero when the latency anatomy counted an op whose
# segments exceed its wall latency; this run exercises the deferred group flush.
cargo run -p bench --release -q --bin table3 -- --nodes 6000 --ops 3000 \
    >"$TRACE_TMP/table3.out"
grep -q 'segments' "$TRACE_TMP/table3.out"

echo "tier-1 gate: OK"
