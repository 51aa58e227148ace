#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Run from the root of the checkout. It
  1. runs the perfbench binary's self-test, which shows that every output check
     passes on a real run and fails on a copy with one planted fault;
  2. runs every workload at a small size, untraced and traced, and checks
     that each run is correct with no failed operation, reports exactly
     the metrics BENCHMARK.json lists for its mode, and that the traced
     and untraced runs simulated identical quantities (same digest).
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own build helper)


def fail(message):
    print("FAIL:", message)
    sys.exit(1)


def run_small(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        fail("%s trace=%d exited %d: %s" % (workload, trace, proc.returncode,
                                          proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    digest = [l.split()[1] for l in lines if l.startswith("sim_digest ")]
    return json.loads(lines[-1]), digest[0] if digest else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build(run.build_dir()):
        fail("build")
    selftest = subprocess.run([os.path.join(run.build_dir(), "perfbench"),
                               "--selftest"], capture_output=True, text=True)
    print(selftest.stdout, end="")
    if selftest.returncode != 0:
        fail("self-test")

    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        digests = {}
        for trace in (0, 1):
            result, digests[trace] = run_small(workload, trace)
            if not result["correct"] or result["failed"] != 0:
                fail("%s trace=%d: correct=%s failed=%d" % (
                    workload, trace, result["correct"], result["failed"]))
            got = set(result["metrics"])
            if got != want[trace]:
                fail("%s trace=%d metrics differ from BENCHMARK.json: "
                     "missing %s, extra %s" % (workload, trace,
                                               sorted(want[trace] - got),
                                               sorted(got - want[trace])))
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                if zero:
                    fail("%s: end-to-end metrics not above 0: %s" % (
                        workload, zero))
        if digests[0] != digests[1]:
            fail("%s: traced run simulated different results (%s vs %s)" % (
                workload, digests[0], digests[1]))
        print("ok   %s: untraced and traced runs agree (digest %s)" % (
            workload, digests[0]))
    print("PASS")


if __name__ == "__main__":
    main()
