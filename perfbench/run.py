#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first form builds (incrementally) into .bench_build/perfbench and
prints the run's JSON result as the last line of standard output. The
second runs every workload briefly with a planted fault and exits 0 only
if each one reports its outputs incorrect.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["edit_stream", "registry_chains", "wire_mixed", "soundness_sweep"]
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds incrementally; output goes to stderr."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(args):
    """Runs the binary; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def selftest():
    failures = 0
    for workload in WORKLOADS:
        code, out = run(["--workload", workload, "--seed", "1", "--seconds",
                         "2", "--trace", "0", "--plant-fault"])
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if code == 0 and lines else None
        caught = result is not None and result["correct"] is False
        print("selftest %-16s planted fault %s" %
              (workload, "reported" if caught else "MISSED"))
        failures += not caught
    return 1 if failures else 0


def main():
    if not build():
        return 1
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    code, out = run(sys.argv[1:])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
