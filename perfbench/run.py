#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload batch_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
simulator from src/) in Release under $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only re-check the build. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("batch_sweep", "batch_xl", "serve_chaos")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the tests of the benchmark's own logic")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    try:
        out = build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
