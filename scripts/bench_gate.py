#!/usr/bin/env python3
"""Performance gate: run the benches each BENCH_*.json declares, check them.

    python3 scripts/bench_gate.py              # measure and gate
    python3 scripts/bench_gate.py --record     # measure, rewrite every baseline
    python3 scripts/bench_gate.py --self-test  # canned data only, no bench run

Each BENCH_*.json at the root of the repo holds a "gate" list of runs.  A
run names a bench binary under build/, its arguments and environment, a
fixed repeat count and the key its median record is stored under; "vary"
repeats the run once per value of one environment variable and stores each
under "<record>.<value>".  Runs without a "tag" are google-benchmark
binaries, repeated with --benchmark_repetitions, whose record maps each
benchmark to its items_per_second; the others print one "<tag> {json}" line
per run.  The record is the median over the repeats (perfbench/spread.py),
and a boolean holds only if it held in every repeat.  SF_* variables of the
caller never reach a bench: it sees only what its run declares.

A check names a metric (a dotted path into the record), an op, a threshold
and a scope:

  host       measured <op> threshold x baseline.  Runs only when this
             host's fingerprint equals the file's recorded "host"; on any
             other host it prints [skip] and counts as skipped.
  ratio      metric / "over", both from the same run, <op> threshold.
  envelope   |measured / baseline - 1| <= threshold (deterministic models).
  invariant  measured <op> threshold.
  monotone   the rows at metric, sorted by "by", keep "value" in <op>
             order from each row to the next.
  info       a ratio or value printed for the record, never gated.

"simd" limits a check to hosts whose SIMD backend it lists, and "{simd}" in
a metric stands for that backend.  Every check runs; a bench that prints no
record, or a metric missing from it, fails.  The exit status is 1 if any
check failed.  The per-check table is written to build/bench_gate/summary.md
next to each run's raw output and median record.
"""

import argparse
import datetime
import json
import operator
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build"
REPORT = BUILD / "bench_gate"
FILES = ("BENCH_sdtw.json", "BENCH_stream.json", "BENCH_fleet.json")
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
       "<": operator.lt, "==": operator.eq}

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from spread import spread  # noqa: E402  (median, relative IQR)


# ---- host fingerprint (the fields of perfbench's hostFingerprintJson) #

def read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def cache_bytes(level):
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        if (read(index / "level") == str(level)
                and read(index / "type") != "Instruction"):
            size = re.match(r"(\d+)([KM]?)", read(index / "size"))
            return int(size[1]) << {"K": 10, "M": 20, "": 0}[size[2]] \
                if size else 0
    return 0


def fingerprint():
    info = dict(re.findall(r"^(model name|flags)\s*: (.*)$",
                           read("/proc/cpuinfo"), re.M))
    flags = set(info.get("flags", "").split())
    simd = ("avx512" if {"avx512f", "avx512bw", "avx512vl"} <= flags
            else "avx2" if "avx2" in flags
            else "sse2" if "sse2" in flags else "scalar")
    cmake = sorted(BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"))
    cxx = dict(re.findall(r'CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"',
                          read(cmake[-1]) if cmake else ""))
    return {"cores": os.cpu_count(), "cpu": info.get("model name", ""),
            "simd": simd, "l2_bytes": cache_bytes(2),
            "l3_bytes": cache_bytes(3),
            "compiler": f"{cxx.get('ID', '')} {cxx.get('VERSION', '')}"}


# ---- records -------------------------------------------------------- #

def lookup(record, path):
    for key in path.split("."):
        if not isinstance(record, dict) or key not in record:
            return None
        record = record[key]
    return record


def store(doc, path, value):
    *parents, last = path.split(".")
    for key in parents:
        doc = doc.setdefault(key, {})
    doc[last] = value


def median(values):
    m = spread(values)[0] if len(values) > 1 else values[0]
    return round(m) if all(isinstance(v, int) for v in values) \
        else float(f"{m:.6g}")


def iqr(samples, metric):
    """Relative IQR of one metric over the repeats (None under two)."""
    values = [v for v in (lookup(s, metric) for s in samples)
              if isinstance(v, (int, float)) and not isinstance(v, bool)]
    return round(spread(values)[1], 4) if len(values) > 1 else None


def aggregate(samples):
    """One record from several repeats: numbers take the median,
    booleans hold only if they held every time, the rest keep the first."""
    first = samples[0]
    if isinstance(first, bool):
        return all(samples)
    if isinstance(first, (int, float)):
        return median(samples)
    if isinstance(first, dict):
        keys = dict.fromkeys(k for s in samples for k in s)
        return {k: aggregate([s[k] for s in samples if k in s]) for k in keys}
    if isinstance(first, list) and all(len(s) == len(first) for s in samples):
        return [aggregate(list(column)) for column in zip(*samples)]
    return first


def variants(run):
    """(record key, env) for each variant of a run."""
    env = run.get("env", {})
    if "vary" not in run:
        return [(run["record"], env)]
    (name, values), = run["vary"].items()
    return [(f"{run['record']}.{v}", {**env, name: v}) for v in values]


# ---- measuring ------------------------------------------------------ #

def call(run, env, log_path):
    """The records one bench call prints (one per repetition for
    google-benchmark), and what went wrong with it, if anything."""
    tag, repeats = run.get("tag"), run["repeats"]
    cmd = [str(BUILD / run["bench"]), *run.get("args", [])] + (
        [] if tag else ["--benchmark_format=json",
                        f"--benchmark_repetitions={repeats}"])
    child = {k: v for k, v in os.environ.items() if not k.startswith("SF_")}
    try:
        out = subprocess.run(cmd, cwd=ROOT, env={**child, **env}, text=True,
                             capture_output=True, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        return [], f"{run['bench']}: {e}"
    with open(log_path, "a") as log:
        log.write(out.stdout + out.stderr)
    records = []
    if tag:
        lines = [l[len(tag) + 1:] for l in out.stdout.splitlines()
                 if l.startswith(tag + " ")]
        try:
            records = [json.loads(lines[-1])]
        except (ValueError, IndexError):
            pass
    else:
        try:
            rows = json.loads(out.stdout)["benchmarks"]
        except (ValueError, KeyError):
            rows = []
        reps = [{} for _ in range(repeats)]
        for r in rows:
            if r.get("run_type") == "iteration" and \
                    not r.get("error_occurred"):
                reps[r["repetition_index"]][r["run_name"]] = \
                    r["items_per_second"]
        records = [r for r in reps if r]
    if out.returncode or not records:
        return records, f"{run['bench']}: exit {out.returncode}" + (
            "" if records else f", no {tag or 'JSON'} record")
    return records, None


def measure(run, name):
    """{record key: per-repeat records} of one run, and its errors.  The
    variants take turns, so a burst of noise on the host hits them all."""
    keys = variants(run)
    samples, errors = {key: [] for key, _ in keys}, []
    for _ in range(run["repeats"] if "tag" in run else 1):
        for key, env in keys:
            records, error = call(run, env, REPORT / f"{name}.{key}.log")
            samples[key] += records
            errors += [error] if error else []
    return samples, errors


# ---- checking ------------------------------------------------------- #

def check(c, got, samples, base, same_host, simd):
    """(status, name, detail) of one check against one run's record."""
    metric = c["metric"].replace("{simd}", simd)
    over = c.get("over", "").replace("{simd}", simd)
    scope, op, t = c["scope"], c.get("op", "<="), c.get("threshold")
    name = f"{scope} {metric}" + (f" / {over}" if over else "")
    if simd not in c.get("simd", [simd]):
        return "skip", name, f"needs simd in {c['simd']}, host has {simd}"
    if scope == "host" and not same_host:
        return "skip", name, "host fingerprint differs from the recorded one"
    m, d = lookup(got, metric), lookup(got, over) if over else 1
    b = lookup(base, metric) if scope in ("host", "envelope") else 1
    if m is None or d is None:
        return ("info" if scope == "info" else "FAIL", name,
                "metric missing from the bench output")
    if not b or not d:
        return "FAIL", name, f"no recorded baseline ({b}) or zero {over}"
    if scope == "monotone":
        rows = sorted(m, key=lambda r: r[c["by"]])
        values = [r[c["value"]] for r in rows]
        ok = all(OPS[op](y, x) for x, y in zip(values, values[1:]))
        return ("OK" if ok else "FAIL", name,
                f"{c['value']} " + " -> ".join(f"{v:g}" for v in values) +
                f" over {c['by']} {[r[c['by']] for r in rows]}, each {op} "
                "the one before")
    if scope == "envelope":
        ok = abs(m / b - 1) <= t
        return ("OK" if ok else "FAIL", name,
                f"{m:g} vs baseline {b:g}, envelope +-{t:.0%}")
    value = m / d if over else m
    shown = f"{value:.4g}" if isinstance(value, float) else str(value)
    if scope == "info":
        return "info", name, shown
    if scope != "host":
        return ("OK" if OPS[op](value, t) else "FAIL", name,
                f"{shown}, need {op} {t}")
    rel = iqr(samples, metric)
    return ("OK" if OPS[op](value, t * b) else "FAIL", name,
            f"{shown}, need {op} {t * b:.4g} (baseline {b:.4g}, IQR "
            f"{'-' if rel is None else f'{rel:.1%}'})")


def evaluate(doc, measured, host):
    """Every check of every run variant of one BENCH file."""
    same_host = doc.get("host") == host
    for run in doc["gate"]:
        for key, _ in variants(run):
            got, samples = measured.get(key, (None, []))
            for c in run["checks"]:
                status, name, detail = check(c, got, samples,
                                             lookup(doc, key), same_host,
                                             host["simd"])
                yield status, f"{key}: {name}", detail


# ---- files and report ----------------------------------------------- #

def dump(value, indent=""):
    """JSON that keeps a container on one line when it holds no dict and
    fits in 200 characters."""
    text = json.dumps(value, ensure_ascii=False)
    items = value.values() if isinstance(value, dict) else value
    if not isinstance(value, (dict, list)) or len(text) <= 200 and not any(
            isinstance(v, dict) for v in items):
        return text
    inner = indent + "  "
    if isinstance(value, list):
        return "[\n" + ",\n".join(inner + dump(v, inner) for v in value) + \
            f"\n{indent}]"
    return "{\n" + ",\n".join(f"{inner}{json.dumps(k)}: {dump(v, inner)}"
                              for k, v in value.items()) + f"\n{indent}}}"


def gate(record):
    shutil.rmtree(REPORT, ignore_errors=True)
    REPORT.mkdir(parents=True)
    subprocess.run(["cmake", "-B", str(BUILD), "-S", str(ROOT)], check=True,
                   stdout=subprocess.DEVNULL)
    host, results = fingerprint(), []
    print(f"host: {json.dumps(host)}")
    for file in FILES:
        doc = json.loads((ROOT / file).read_text())
        measured = {}
        for run in doc["gate"]:
            built = subprocess.run(
                ["cmake", "--build", str(BUILD), "-j", "--target",
                 run["bench"]], stdout=subprocess.DEVNULL).returncode == 0
            samples, errors = measure(run, file[:-5]) if built else (
                {key: [] for key, _ in variants(run)},
                [f"{run['bench']}: build failed"])
            results += [("FAIL", f"{file} run", e) for e in errors]
            for key, got in samples.items():
                measured[key] = (aggregate(got) if got else None, got)
                (REPORT / f"{file[:-5]}.{key}.json").write_text(dump(
                    {"median": measured[key][0], "samples": got}) + "\n")
                if record and got:
                    store(doc, key, measured[key][0])
                    doc.setdefault("iqr", {}).update(
                        {f"{key}.{c['metric']}": iqr(got, c["metric"])
                         for c in run["checks"] if c["scope"] == "host"})
        if record:
            doc.update(recorded=str(datetime.date.today()), host=host)
            (ROOT / file).write_text(dump(doc) + "\n")
        results += [(s, f"{file} {n}", d)
                    for s, n, d in evaluate(doc, measured, host)]
    return report(results, REPORT / "summary.md")


def report(results, path=None):
    counts = {s: sum(r[0] == s for r in results)
              for s in ("OK", "FAIL", "skip", "info")}
    table = ["| status | check | measured |", "| --- | --- | --- |"]
    for status, name, detail in results:
        print(f"  [{status:4}] {name}: {detail}")
        table.append(f"| {status} | `{name}` | {detail} |")
    summary = (f"bench gate: {len(results)} checks, {counts['OK']} ok, "
               f"{counts['FAIL']} failed, {counts['skip']} skipped, "
               f"{counts['info']} info")
    print(summary)
    if path:
        path.write_text(
            f"### {summary}\n\n" + "\n".join(table) + "\n")
    return counts


# ---- self-test ------------------------------------------------------ #

def self_test():
    """Each check kind passes on a conforming record and fails on one
    that violates it; a foreign host skips the host-bound checks; a
    missing metric or record fails."""
    host = {"cores": 4, "cpu": "cpu", "simd": "avx512", "l2_bytes": 1,
            "l3_bytes": 2, "compiler": "GNU 12"}
    checks = [
        {"scope": "host", "metric": "v", "op": ">=", "threshold": 0.85},
        {"scope": "host", "metric": "tail", "op": "<=", "threshold": 1.3},
        {"scope": "ratio", "metric": "v", "over": "w", "op": ">=",
         "threshold": 0.85},
        {"scope": "envelope", "metric": "p", "threshold": 0.15},
        {"scope": "invariant", "metric": "ok", "op": "==",
         "threshold": True},
        {"scope": "monotone", "metric": "sweep", "by": "n", "value": "p",
         "op": "<="},
        {"scope": "ratio", "metric": "x<{simd}>", "over": "v", "op": ">",
         "threshold": 1.0, "simd": ["avx2", "avx512"]}]
    good = {"v": 90.0, "w": 95.0, "tail": 120.0, "p": 11.0, "ok": True,
            "x<avx512>": 91.0, "x<sse2>": 1.0,
            "sweep": [{"n": 1, "p": 3.0}, {"n": 2, "p": 2.0}, {"n": 4, "p": 2.0}]}
    bad = [{"v": 84.0}, {"tail": 131.0}, {"w": 106.0}, {"p": 12.7},
           {"ok": False}, {"sweep": [{"n": 4, "p": 2.5}, {"n": 2, "p": 2.0}]},
           {"x<avx512>": 90.0}]
    doc = {"host": host, "base": {"v": 100.0, "tail": 100.0, "p": 11.0},
           "gate": [{"record": "base", "checks": checks}]}

    def statuses(record, on=host):
        return [s for s, _, _ in evaluate(doc, {"base": (record, [])}, on)]
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got}, want {want}")
    n = len(checks)
    expect("conforming record", statuses(good), ["OK"] * n)
    for i, change in enumerate(bad):
        want = ["OK"] * n
        want[i] = "FAIL"
        expect(f"violating {checks[i]['scope']} check {i}",
               statuses({**good, **change}), want)
    foreign = statuses(good, {**host, "cores": 64})
    expect("foreign host", foreign, ["skip", "skip"] + ["OK"] * (n - 2))
    counts = report(list(evaluate(doc, {"base": (good, [])},
                                  {**host, "simd": "sse2"})))
    expect("foreign host summary", (counts["skip"], counts["FAIL"]), (3, 0))
    expect("missing metric", statuses({k: good[k] for k in good if k != "v"}),
           ["FAIL", "OK", "FAIL", "OK", "OK", "OK", "FAIL"])
    expect("missing record", statuses(None), ["FAIL"] * n)
    expect("median of repeats", aggregate([{"a": 1, "b": True},
                                           {"a": 5, "b": False},
                                           {"a": 2, "b": True}]),
           {"a": 2, "b": False})
    print("\n".join(failures) or f"bench gate self-test: {n} check kinds ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite every baseline from this run")
    parser.add_argument("--self-test", action="store_true",
                        help="check the evaluator on canned data")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return 1 if gate(args.record)["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main())
