#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--seeds 1-10] [--workload NAME]... [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), from the root of a
checkout, with the run length fixed in BENCHMARK.json.  For each metric
it prints the median and the spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median,
next to the bound BENCHMARK.json fixes for the metric.  A spread should
stay under a third of its bound.  Raw result lines are appended to
.bench_out/spread.jsonl so two sets can be compared later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_out", "spread.jsonl"), "a")
    for workload in workloads:
        results = []
        for seed in args.seeds:
            r = run_once(workload, seed, bench["run_seconds"], args.trace)
            log.write(json.dumps({"workload": workload, "seed": seed,
                                  "trace": args.trace, "result": r}) + "\n")
            log.flush()
            if not r["correct"] or r["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {r}")
            results.append(r)
        print(f"{workload}: {len(results)} seeds")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound:
                verdict = "ok" if rel < bound / 3 else (
                    "within bound" if rel <= bound else "TOO NOISY")
            print(f"  {name:26s} median {med:14.6g}  spread {rel:7.2%}"
                  f"  bound {bound if bound else '-':>5}  {verdict}")


if __name__ == "__main__":
    main()
