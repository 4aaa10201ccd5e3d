#!/usr/bin/env python3
"""Builds the serving stack from source and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The Release build goes to .bench_build/ (an
incremental no-op after the first run); the perfbench program then starts
the real servers, measures, and prints the result JSON as the last line
of stdout. Build output goes to stderr. Exits non-zero, without a result,
when the build or any check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("citeulike-history", "update-under-read")


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    # Compiler scratch files stay inside the checkout too.
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j4", "--target",
         "perfbench", "ocular_served", "ocular_fleet"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    cmake_dir = build()
    work = os.path.join(BUILD, "runs", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        proc = subprocess.run([
            os.path.join(cmake_dir, "perfbench"),
            "--workload=" + args.workload,
            "--seed=%d" % args.seed,
            "--seconds=%d" % args.seconds,
            "--trace=%d" % args.trace,
            "--served=" + os.path.join(cmake_dir, "ocular", "tools", "ocular_served"),
            "--fleet=" + os.path.join(cmake_dir, "ocular", "tools", "ocular_fleet"),
            "--work=" + work,
        ])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
