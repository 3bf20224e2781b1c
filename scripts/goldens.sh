#!/usr/bin/env bash
# Behaviour goldens: regenerates a fixed set of outputs with the release
# binaries and compares each byte for byte with its committed copy, so
# a change in behaviour fails here unless the same diff updates the
# golden in plain sight.
#
#   tests/golden/check-200-seed1.txt  smoothctl check --cases 200 --seed 1
#   tests/golden/fault-events.jsonl   CI's fault-injection simulate run:
#   tests/golden/fault-slots.csv        its JSONL trace and slot CSV
#   tests/golden/mux-slots.csv        CI's wfq/greedy mux run: slot CSV,
#   tests/golden/mux-events.sha256      and the SHA-256 of its trace
#   results/                          every file all_figures writes
#
# Usage (after `cargo build --release --workspace`):
#   scripts/goldens.sh            compare; exits 1 on the first mismatch
#   scripts/goldens.sh --update   rewrite the goldens from this build
set -euo pipefail
cd "$(dirname "$0")/.."

bin=target/release
golden=tests/golden
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$bin/smoothctl" check --cases 200 --seed 1 > "$out/check-200-seed1.txt"
"$bin/smoothctl" generate --out "$out/faulty.trace" \
  --kind mpeg --frames 200 --seed 7 > /dev/null
RESULTS_DIR="$out" "$bin/smoothctl" simulate "$out/faulty.trace" \
  --buffer 4000 --rate 500 --delay 8 --client-buffer 16000 \
  --faults 'outage@20..40,dip@60..100=200,jitter@120..180+4' \
  --resync 24/1 --seed 7 \
  --trace-out fault-events.jsonl --metrics-out fault-slots.csv > /dev/null
RESULTS_DIR="$out" "$bin/smoothctl" mux --sessions 3 --frames 200 \
  --scheduler wfq --policy greedy \
  --trace-out mux-events.jsonl --metrics-out mux-slots.csv > /dev/null
(cd "$out" && sha256sum mux-events.jsonl) > "$out/mux-events.sha256"
mkdir "$out/figures"
RESULTS_DIR="$out/figures" "$bin/all_figures" > /dev/null 2> "$out/figures.log" ||
  { cat "$out/figures.log"; exit 1; }

files="check-200-seed1.txt fault-events.jsonl fault-slots.csv mux-slots.csv mux-events.sha256"
if [ "${1:-}" = "--update" ]; then
  mkdir -p "$golden"
  for f in $files; do cp "$out/$f" "$golden/$f"; done
  cp "$out"/figures/* results/
  echo "goldens: updated $golden/ and results/"
  exit 0
fi
for f in $files; do
  cmp "$golden/$f" "$out/$f"
done
n=0
for f in "$out"/figures/*; do
  cmp "results/$(basename "$f")" "$f"
  n=$((n + 1))
done
echo "goldens: all $(echo $files | wc -w) goldens and $n figure outputs match"
