#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny scale (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that:
  1. every metric BENCHMARK.json names is printed, with its unit, by
     every workload, traced (per-layer) and untraced (end-to-end);
  2. a tampered recorded digest fails the run (exit 1, correct=false,
     the session's chunks counted failed);
  3. traced and untraced runs of one seed print identical digests;
  4. read simulation moved inside the set-up timer, here into the
     calibration span, is caught (exit 2, no result line);
  5. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    digests = {l.split()[1]: l.split()[2] for l in lines
               if l.startswith("digest ")}
    return out.returncode, result, digests


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        code0, r0, d0 = run(name, 0)
        code1, r1, d1 = run(name, 1)
        for code, r, key in ((code0, r0, "end_to_end"),
                             (code1, r1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {} if r is None else {
                k: v.get("unit") for k, v in r["metrics"].items()}
            check(code == 0 and r is not None and r["correct"]
                  and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{name} {key}: clean run")
            check(got == want, f"{name} {key}: every metric with its unit")
        check(d0 and d0 == d1,
              f"{name}: traced and untraced digests agree {d0} {d1}")

        session = next(iter(d0), "flowcell")
        wrong = "%016x" % (int(d0.get(session, "0"), 16) ^ 1)
        code, r, _ = run(name, 0, "--expect", f"{session}={wrong}")
        check(code == 1 and r is not None and not r["correct"]
              and r["failed"] > 0, f"{name}: tampered digest fails the run")

    code, r, _ = run(bench["workloads"][0]["name"], 0,
                     "--inject-setup-simulation")
    check(code == 2 and r is None,
          "read simulation inside the set-up timer is refused")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    code, r, _ = run(bench["workloads"][0]["name"], 0, root=bare)
    check(code != 0 and r is None,
          "a checkout without the program exits non-zero, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
