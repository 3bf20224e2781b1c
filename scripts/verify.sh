#!/usr/bin/env bash
# Full offline verification: release build, the whole test suite, and
# clippy with warnings denied. This is exactly what CI runs; the
# workspace has no external dependencies, so it works with no network.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --all-targets --workspace -- -D warnings

# The server differential test in release mode: the product ring
# server against the map-backed reference server of rts-check, every
# slot's step, on 10k-frame streams for all four policies in both
# slicing modes. Then a smoke pass of the hotpath suite (including its
# server ring-vs-map-reference pair), so verification exercises the
# fast buffer path end to end.
cargo test -q --release --test buffer_diff
./target/release/hotpath --smoke --out /tmp/BENCH_hotpath_smoke.json
./target/release/hotpath --validate /tmp/BENCH_hotpath_smoke.json

# The property/fuzz catalog (rts-check): theorem-bound invariants and
# differential oracles with shrinking and CHECK_SEED replay. Run twice
# and compare byte-for-byte — the report must be a pure function of
# (cases, seed).
./target/release/smoothctl check --cases 200 --seed 1 > /tmp/rts_check_a.txt
./target/release/smoothctl check --cases 200 --seed 1 > /tmp/rts_check_b.txt
cmp /tmp/rts_check_a.txt /tmp/rts_check_b.txt

# Behaviour goldens: the check report, CI's fault-injection simulate
# and wfq/greedy mux outputs, and every all_figures output, regenerated
# and compared byte for byte with their committed copies.
./scripts/goldens.sh

echo "verify: build, tests, clippy, buffer differential, bench smoke, check catalog, and goldens all clean"
