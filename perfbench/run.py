#!/usr/bin/env python3
"""Builds and runs the OBIWAN real-clock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <walk|fanin|writeback> --seed <n> \
        --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own, with path dependencies on
the repository's crates) in release mode into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, then runs it with the same arguments.
Build output goes to standard error; the benchmark's last line of standard
output is its JSON result. The exit code is the benchmark's, or 1 when the
build fails or the run times out.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["walk", "fanin", "writeback"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    root = os.getcwd()
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        # subprocess.run kills the child on timeout and waits for it.
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
