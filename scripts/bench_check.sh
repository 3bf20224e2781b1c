#!/usr/bin/env bash
# Benchmark regression gate: reruns the hotpath suite (full mode) and
# compares each benchmark's median against the committed baseline
# BENCH_hotpath.json with a tolerance band (default 1.6x; override with
# BENCH_TOLERANCE). Also enforces the server ring-vs-map ablation
# floors — the map-backed reference server of rts-check against the
# product server on the same stream (baseline >= 1.5x, live run
# >= 1.3x) — caps the smoothd telemetry-on/off overhead ratio at
# 1.5x, and keeps the offline fast
# paths fast: chain-vs-generic >= 5x baseline / 4x live, and
# warm-vs-cold sweeps >= 10x baseline / 8x live. It then reruns the smoothd
# capacity ramp (1/2-shard and skewed rungs up to 100k sessions) and
# gates each rung's slices/s against the committed BENCH_capacity.json
# with the same tolerance — admitted-sessions/s too, on the >=10k
# rungs with a 2.5x-wider band (one-shot measurements) — plus the
# absolute floors that hold on any machine: batched admission >= 5x the
# sequential path, the ingest soak greeting every socket with zero
# process-thread growth, and — only when the machine has >= 2 cores —
# the 2-shard skewed rung at >= 1.7x the 1-shard rung. Medians and
# rates are machine-relative, so only large relative regressions fail.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p rts-bench --bin hotpath --bin capacity
./target/release/hotpath --check "${1:-BENCH_hotpath.json}"
./target/release/capacity --check "${2:-BENCH_capacity.json}"
