#!/usr/bin/env bash
# The repository's CI gate: formatting, lints as errors, full test suite.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== chaos suite (fixed seed matrix: 3 seeds x 3 fault rates)"
cargo test -q --offline --test chaos_transport

echo "== ingest overload chaos (3 seeds x 3 arrival profiles x chip-down storm)"
cargo test -q --offline --test ingest_overload

echo "== cargo test -q"
cargo test -q --workspace --offline

echo "== cargo build --release (warnings are errors)"
RUSTFLAGS="-D warnings" cargo build -q --release --offline --workspace

echo "== benchmark package builds against the current crates"
# benchmark/ is its own workspace (path deps on crates/*), so the
# workspace build above does not cover it; a public-API change in
# crates/* must not break it unnoticed.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== bench smoke (one iteration per workload, emitted JSON validates)"
BENCH_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_SMOKE_DIR"' EXIT
./target/release/bench --smoke --out "$BENCH_SMOKE_DIR"
# --check validates the fresh JSONs (cluster, ingest, and compile
# included) and
# compares medians against the committed BENCH_*.json at the repo root.
# The smoke tier gates fatally but with a generous threshold (smoke runs
# are single-iteration and noisy); the full-run tier stays warn-only at
# 0.25 for trend tracking.
./target/release/bench --check "$BENCH_SMOKE_DIR" --baseline . --check-threshold 1.0 --check-fatal

echo "== thread-matrix determinism (bench --digest at 1/2/8 threads, double-run)"
# The digest covers the fleet, sharded-NoC, acceptance, chaos,
# cluster_4x, ingest_open_loop, compile_corpus, soa_sweep, and
# staged_pipeline workloads — the cluster lines gate the inter-chip
# fabric, the ingest lines the admission front door, the compile lines
# pin the compiler's full artifact trail plus its executed output on
# both fleet and cluster sinks, and the staged_pipeline lines pin the
# Fig. 7(d) cross-dataset wavefront's outputs to one byte pattern at
# every thread count.
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t1" --threads 1 >/dev/null
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t1b" --threads 1 >/dev/null
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t2" --threads 2 >/dev/null
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t8" --threads 8 >/dev/null
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t8b" --threads 8 >/dev/null
cmp "$BENCH_SMOKE_DIR/digest.t1" "$BENCH_SMOKE_DIR/digest.t1b"
cmp "$BENCH_SMOKE_DIR/digest.t8" "$BENCH_SMOKE_DIR/digest.t8b"
cmp "$BENCH_SMOKE_DIR/digest.t1" "$BENCH_SMOKE_DIR/digest.t2"
cmp "$BENCH_SMOKE_DIR/digest.t1" "$BENCH_SMOKE_DIR/digest.t8"

echo "== per-AP vs SoA equivalence (soa_sweep digests must match)"
# The digest file carries one line per path; the region sweep must
# produce byte-identical reports and memory images to a loop of per-AP
# execute calls (one-lane runs), whose stored words the bench itself
# checks against the kernel's closed form.
perap="$(awk '/^soa_sweep_1024ap digest_perap/ {print $3}' "$BENCH_SMOKE_DIR/digest.t1")"
soa="$(awk '/^soa_sweep_1024ap digest_soa/ {print $3}' "$BENCH_SMOKE_DIR/digest.t1")"
test -n "$perap"
test "$perap" = "$soa"

echo "== sequential vs pipelined equivalence (staged_pipeline digests must match)"
# The pipelined wavefront must drain every dataset to byte-identical
# outputs against the N-sequential-runs walk.
seq="$(awk '/^staged_pipeline digest_seq/ {print $3}' "$BENCH_SMOKE_DIR/digest.t1")"
pipe="$(awk '/^staged_pipeline digest_pipe/ {print $3}' "$BENCH_SMOKE_DIR/digest.t1")"
test -n "$seq"
test "$seq" = "$pipe"
cargo test -q --offline --test parallel_determinism

echo "== telemetry determinism (same seed => byte-identical exports)"
cargo test -q --offline --test telemetry
cargo run -q --offline --example telemetry_trace >/dev/null
cp target/trace.json target/trace.first.json
cp target/telemetry.json target/telemetry.first.json
cargo run -q --offline --example telemetry_trace >/dev/null
cmp target/trace.first.json target/trace.json
cmp target/telemetry.first.json target/telemetry.json

echo "CI green."
