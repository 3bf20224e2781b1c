#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload resident|wire|sweep \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build). `--trace`
picks the binary: 0 runs the untraced `perfbench` (end-to-end
metrics), 1 the traced `perfbench-traced` (per-layer metrics). The
benchmark's last line of standard output is its JSON result; the exit
code is the benchmark's own (non-zero when a correctness check fails or
the build does not succeed).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["resident", "wire", "sweep"])
    parser.add_argument("--seed", type=int, default=20000716)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    binary = "perfbench-traced" if args.trace else "perfbench"
    run = subprocess.run(
        [os.path.join(target, "release", binary),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        env=env, timeout=RUN_TIMEOUT_S, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
