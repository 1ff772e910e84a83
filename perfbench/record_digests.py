#!/usr/bin/env python3
"""Record decision-log digests for workloads and seeds.

    python3 perfbench/record_digests.py [--seeds 1,2] [--workload NAME]...

Run from the root of a checkout.  Runs one untraced round per
(workload, seed) and stores each session's log digest in
perfbench/digests.json, which run.py hands to every later run of that
seed.  Seeds already recorded are re-checked, not overwritten: a
mismatch stops the script (delete the entry to re-record on purpose).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    with open(DIGESTS) as f:
        table = json.load(f)
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                         + "\n".join(l for l in lines
                                     if l.startswith(("digest", "FAIL"))))
            got = {l.split()[1]: l.split()[2] for l in lines
                   if l.startswith("digest ")}
            table.setdefault(workload, {})[str(seed)] = got
            print(workload, seed, got)
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
