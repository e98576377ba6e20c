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

echo "== perf smoke (tiny ops, schema-validated BENCH_perf.json) =="
# No absolute-speed gate: CI machines are noisy. --check fails on schema
# drift, NaN or zero throughput; that is the invariant worth pinning.
cargo run -p bench --release -q --bin perf -- \
    --fio-ops 2000 --ycsb-records 200 --ycsb-ops 400 --warehouses 1 --txns 20 \
    --out "$TRACE_TMP/perf.json" --check >"$TRACE_TMP/perf.out"
test -s "$TRACE_TMP/perf.json"
grep -q '"schema": *"durassd.perf.v2"' "$TRACE_TMP/perf.json"

echo "== waf smoke (write-provenance conservation, schema-validated BENCH_waf.json) =="
# --check fails on schema drift, any row whose per-cause counts do not sum
# to its totals (attribution leak), or durable < volatile absorption.
cargo run -p bench --release -q --bin waf -- \
    --fio-ops 4000 --fio-span 512 --ycsb-records 200 --ycsb-ops 800 \
    --warehouses 1 --txns 40 --out "$TRACE_TMP/waf.json" --check \
    >"$TRACE_TMP/waf.out"
test -s "$TRACE_TMP/waf.json"
grep -q '"schema":"durassd.waf.v1"' "$TRACE_TMP/waf.json"

echo "== latency smoke (per-op anatomy, schema-validated BENCH_latency.json) =="
# --check fails on schema drift, a conservation violation (segments exceed
# an op's wall latency), any flush-cache time in a durable tail, or a
# volatile tail that is not flush-dominated.
cargo run -p bench --release -q --bin latency -- \
    --fio-ops 4000 --fio-span 512 --ycsb-records 200 --ycsb-ops 1500 \
    --warehouses 1 --txns 100 --out "$TRACE_TMP/latency.json" --check \
    >"$TRACE_TMP/latency.out"
test -s "$TRACE_TMP/latency.json"
grep -q '"schema":"durassd.latency.v1"' "$TRACE_TMP/latency.json"

echo "== tail smoke (anatomy-backed tail claim: durable runs flush-free) =="
cargo run -p bench --release -q --bin tail -- \
    --ops 20000 --json "$TRACE_TMP/tail.json" --check >"$TRACE_TMP/tail.out"
test -s "$TRACE_TMP/tail.json"
grep -q '"schema":"durassd.latency.v1"' "$TRACE_TMP/tail.json"

echo "== table3 smoke (group-commit engine run; an anatomy violation fails the bin) =="
# print_telemetry exits non-zero when the latency anatomy counted an op whose
# segments exceed its wall latency; this run exercises the deferred group flush.
cargo run -p bench --release -q --bin table3 -- --nodes 6000 --ops 3000 \
    >"$TRACE_TMP/table3.out"
grep -q 'segments' "$TRACE_TMP/table3.out"

echo "tier-1 gate: OK"
