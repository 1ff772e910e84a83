#!/usr/bin/env python3
"""Build the Read Until benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
the program's `sf` library plus the `sfbench` binary into
.bench_build/perfbench (CMake, Release); later calls only re-check the
build.  Build output goes to stderr, so stdout carries the benchmark's
own report, whose last line is the result JSON.

Digests recorded in perfbench/digests.json for the workload and seed are
passed to sfbench, which fails the run (exit 1, correct=false) when a
session's decision log no longer matches.  Extra arguments after the
four above are passed to sfbench unchanged (see perfbench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build sfbench; True on success."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} missing next to perfbench/; "
                  "run from a full checkout", file=sys.stderr)
            return False
    build_dir = os.path.join(ROOT, BUILD)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "sfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def recorded_digests(workload, seed):
    path = os.path.join(HERE, "digests.json")
    with open(path) as f:
        table = json.load(f)
    return table.get(workload, {}).get(str(seed), {})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args, extra = parser.parse_known_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(ROOT, BUILD, "sfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if "--tiny" not in extra:
        for session, digest in recorded_digests(args.workload,
                                                args.seed).items():
            cmd += ["--expect", f"{session}={digest}"]
    cmd += extra
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: sfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
