#!/usr/bin/env python3
"""Build and run the Voltron benchmark.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. Builds the library, the
voltron-served daemon and the perfbench binary from source into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and prints the
binary's result object as the last line of standard output. Build output
goes to standard error. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_suite", "serve_mixed")
# A run is told to measure for --seconds; this is the margin for its
# set-up, its last round and its shutdown.
RUN_MARGIN_S = 150


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure (once) and build; False on failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", out, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="few, small inputs and one round (self-test)")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--served", os.path.join(out, "voltron-served")]
    if args.small:
        cmd.append("--small")
    # Set-up is timed from here, the moment the perfbench process is spawned
    # (time.monotonic and perfbench's steady clock are both
    # CLOCK_MONOTONIC).
    cmd += ["--spawn-time", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=args.seconds + RUN_MARGIN_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
