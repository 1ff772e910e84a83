#!/usr/bin/env bash
# Performance regression gate for CI.
#
# 1. Runs bench_micro_sdtw (google-benchmark) and fails when
#    - the specialised single-read kernel's cells/s drops more than
#      SF_BENCH_GATE_MARGIN percent (default 15) below the baseline in
#      BENCH_sdtw.json, or
#    - the lane-batched kernel's aggregate cells/s drops the same way
#      below the 'batched' baselines (only shapes/backends this host
#      can measure are checked), or
#    - the best batched backend stops beating the same-run serial
#      kernel (ratio floor 1.1: lane batching must never be a loss), or
#    - a genome-scale batched row (reference >= 48k columns) falls
#      more than the margin below the same-run 10k-column row at the
#      same backend/lanes (the column-tiling locality promise).  The
#      BM_BatchSdtwUntiled A/B rows are reported alongside, ungated.
# 2. Runs the streaming session section of bench_fig17_read_until and
#    fails when chunks/s regresses the same way against
#    BENCH_stream.json, or when the checkpointed-DP work advantage
#    falls below 5x.
# 3. Runs bench_backend (the same streaming session on the measured
#    software backend and on the modelled-ASIC backend, plus a PE-count
#    design-space sweep) and fails when
#    - the two backends' decision logs are not bit-identical (the
#      backend seam's first law, gated at any sweep point),
#    - the modelled asic p50 leaves the +-margin envelope around the
#      BENCH_stream.json "backend" baseline (the cycle model is
#      deterministic; drift means the model or decision stream moved),
#    - software chunks/s drops below the usual margin floor,
#    - the sweep is not monotone (more PEs must never slow the chip).
# 4. Runs bench_fleet (N sessions on one shared worker pool vs the
#    same sessions isolated) and fails when
#    - aggregate fleet chunks/s drops more than the margin below
#      BENCH_fleet.json,
#    - the worst per-session decision p99 rises more than twice the
#      margin above the baseline (tails are noisier than throughput;
#      real QoS regressions move them far more than 2x margin),
#    - the same-run fold speedup (fleet vs isolated chunks/s) falls
#      below the 1.2x acceptance floor (enforced on avx2/avx512 hosts,
#      scaled by the margin like the batched/serial ratio above),
#    - fleet SIMD lane occupancy fails to beat the isolated sessions'
#      occupancy (the whole point of cross-session folding), or
#    - any session's fleet decision log differs from its isolated log
#      (determinism is gated, not just benched).
#
# Every run writes an inspectable report to ${build_dir}/bench_gate/
# (raw google-benchmark JSON, the measured stream line, and a rendered
# text trend vs the baselines); CI uploads that directory as a
# workflow artifact.
#
# Usage:
#   scripts/bench_gate.sh             # gate against both baselines
#   scripts/bench_gate.sh --record    # refresh the measured/backend
#                                     # blocks of BENCH_stream.json and
#                                     # BENCH_fleet.json instead of
#                                     # gating
#
# Absolute throughput is host-dependent; on shared CI runners widen
# the margin with SF_BENCH_GATE_MARGIN rather than skipping the gate.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"
margin="${SF_BENCH_GATE_MARGIN:-15}"
record=0
if [[ "${1:-}" == "--record" ]]; then
    record=1
elif [[ -n "${1:-}" ]]; then
    echo "usage: $0 [--record]" >&2
    exit 2
fi

cd "${repo_root}"
cmake -B "${build_dir}" -S . >/dev/null
cmake --build "${build_dir}" -j --target bench_fig17_read_until >/dev/null

report_dir="${build_dir}/bench_gate"
mkdir -p "${report_dir}"
summary="${report_dir}/summary.txt"
: >"${summary}"

# ---- 1. sDTW kernel gate (serial + lane-batched) ------------------ #
# Skip only when google-benchmark was genuinely absent at configure
# time; a bench_micro_sdtw *build failure* must fail the gate, not
# silently disable it.
if grep -q '^benchmark_DIR:PATH=.*-NOTFOUND' \
    "${build_dir}/CMakeCache.txt" 2>/dev/null; then
    echo "sdtw kernel gate: SKIPPED (google-benchmark not available)" |
        tee -a "${summary}"
else
    cmake --build "${build_dir}" -j --target bench_micro_sdtw >/dev/null
    "${build_dir}/bench_micro_sdtw" --benchmark_format=json \
        --benchmark_min_time=0.2 >"${report_dir}/micro_sdtw.json"
    python3 - "$margin" "${report_dir}/micro_sdtw.json" <<'EOF' |
import json, re, sys

margin = float(sys.argv[1])
with open("BENCH_sdtw.json") as f:
    baseline = json.load(f)
with open(sys.argv[2]) as f:
    measured = json.load(f)

failures = []

# --- serial rows: BM_QuantSdtw/<q>/<m> vs 'specialized' baselines ---
base = {f"{r['query_len']}x{r['reference_len']}": r["cells_per_s"]
        for r in baseline["results"] if r["variant"] == "specialized"}
serial_measured = {}
checked = 0
for bench in measured["benchmarks"]:
    m = re.fullmatch(r"BM_QuantSdtw/(\d+)/(\d+)", bench["name"])
    if not m:
        continue
    key = f"{m.group(1)}x{m.group(2)}"
    serial_measured[key] = bench["items_per_second"]
    if key not in base:
        continue
    cells = bench["items_per_second"]
    floor = base[key] * (1.0 - margin / 100.0)
    status = "OK " if cells >= floor else "FAIL"
    print(f"  [{status}] sdtw {key}: {cells/1e9:.2f} G cells/s "
          f"(baseline {base[key]/1e9:.2f}, floor {floor/1e9:.2f})")
    checked += 1
    if cells < floor:
        failures.append(key)
if checked == 0:
    sys.exit("bench gate matched no sdtw benchmarks against the baseline")

# --- batched rows: BM_BatchSdtw<simd>/<lanes>/<m> ------------------ #
bbase = {(r["simd"], r["lanes"], r["reference_len"]): r["cells_per_s"]
         for r in baseline.get("batched", {}).get("results", [])}
best_batched = 0.0
bchecked = 0
batched_measured = {}
for bench in measured["benchmarks"]:
    if bench.get("error_occurred"):
        print(f"  [inf] {bench['name']}: skipped "
              f"({bench.get('error_message', 'no reason')})")
        continue
    m = re.fullmatch(r"BM_BatchSdtw<(\w+)>/(\d+)/(\d+)", bench["name"])
    if not m:
        continue
    key = (m.group(1), int(m.group(2)), int(m.group(3)))
    cells = bench["items_per_second"]
    best_batched = max(best_batched, cells)
    batched_measured[key] = cells
    if key not in bbase:
        continue
    floor = bbase[key] * (1.0 - margin / 100.0)
    status = "OK " if cells >= floor else "FAIL"
    print(f"  [{status}] batched {key[0]} {key[1]}x2000x{key[2]}: "
          f"{cells/1e9:.2f} G cells/s aggregate "
          f"(baseline {bbase[key]/1e9:.2f}, floor {floor/1e9:.2f})")
    bchecked += 1
    if cells < floor:
        failures.append(f"batched-{key[0]}-{key[1]}")
if bchecked == 0:
    sys.exit("bench gate matched no batched benchmarks against the "
             "baseline (BM_BatchSdtw rows missing?)")

# --- genome-scale locality: column tiling must keep the batched     #
# --- kernel's cells/s flat as the reference outgrows the cache.     #
# For every wide-SIMD genome row (ref >= 48k) measured alongside a
# same-backend same-lanes 10k row, the genome figure must stay within
# the margin of the 10k figure — same-run, so host speed cancels out.
gchecked = 0
for (simd, lanes, ref), cells in sorted(batched_measured.items()):
    if simd not in ("avx2", "avx512") or ref < 48000:
        continue
    short = batched_measured.get((simd, lanes, 10000))
    if not short:
        continue
    floor = short * (1.0 - margin / 100.0)
    status = "OK " if cells >= floor else "FAIL"
    print(f"  [{status}] locality {simd} {lanes}x2000x{ref}: "
          f"{cells/1e9:.2f} G cells/s vs 10k row "
          f"{short/1e9:.2f} (floor {floor/1e9:.2f})")
    gchecked += 1
    if cells < floor:
        failures.append(f"genome-locality-{simd}-{lanes}x{ref}")
if gchecked == 0 and any(k[0] in ("avx2", "avx512")
                         for k in batched_measured):
    sys.exit("bench gate matched no genome-scale batched rows "
             "(BM_BatchSdtw ref>=48000 missing?)")

# Untiled A/B controls (informational): how much the genome rows
# would decay with tiling forced off on THIS host.  Small hosts with
# huge L3s show little decay; the ratio is recorded, not gated.
for bench in measured["benchmarks"]:
    m = re.fullmatch(r"BM_BatchSdtwUntiled<(\w+)>/(\d+)/(\d+)",
                     bench["name"])
    if not m or bench.get("error_occurred"):
        continue
    key = (m.group(1), int(m.group(2)), int(m.group(3)))
    tiled = batched_measured.get(key)
    if not tiled:
        continue
    untiled = bench["items_per_second"]
    print(f"  [inf] untiled A/B {key[0]} {key[1]}x2000x{key[2]}: "
          f"{untiled/1e9:.2f} G cells/s untiled vs "
          f"{tiled/1e9:.2f} tiled ({tiled/untiled:.2f}x)")

# Lane batching must beat the same-run serial kernel at full
# occupancy, whatever this host's absolute speed is.  Only enforced
# when an AVX2-or-wider backend ran: the checked-in baselines show
# lane batching is (expectedly) a loss on SSE2/scalar-only hosts,
# where the dispatch cutover keeps it disabled in production paths.
wide = {m.group(1)
        for b in measured["benchmarks"]
        if (m := re.fullmatch(r"BM_BatchSdtw<(\w+)>/.*", b["name"]))}
serial_ctl = serial_measured.get("2000x10000")
if serial_ctl and best_batched > 0.0 and wide & {"avx2", "avx512"}:
    ratio = best_batched / serial_ctl
    # Scale the floor with the gate margin: shared CI runners are
    # heterogeneous (AVX2-only vs AVX-512) and noisy, and the margin
    # is the single knob for that.
    floor_ratio = 1.1 * (1.0 - margin / 100.0)
    status = "OK " if ratio >= floor_ratio else "FAIL"
    print(f"  [{status}] batched/serial same-run ratio: {ratio:.2f}x "
          f"(floor {floor_ratio:.2f})")
    if ratio < floor_ratio:
        failures.append("batched-vs-serial-ratio")

if failures:
    sys.exit(f"sdtw kernel regressed >{margin}% on: "
             f"{', '.join(str(f) for f in failures)}")
EOF
        tee -a "${summary}"
    echo "sdtw kernel gate: green (margin ${margin}%)" |
        tee -a "${summary}"
fi

# ---- 2. streaming session gate ------------------------------------ #
# `|| true` keeps the guard below reachable under set -e/pipefail when
# the bench crashes or stops printing the tagged line.
stream_line="$({ SF_FIG17_SECTION=stream \
    "${build_dir}/bench_fig17_read_until" |
    grep '^BENCH_STREAM_JSON ' |
    sed 's/^BENCH_STREAM_JSON //'; } || true)"
if [[ -z "${stream_line}" ]]; then
    echo "bench_fig17_read_until produced no BENCH_STREAM_JSON line" >&2
    exit 1
fi
echo "measured stream: ${stream_line}" | tee -a "${summary}"
printf '%s\n' "${stream_line}" >"${report_dir}/stream.json"

if [[ "${record}" == "1" ]]; then
    python3 - "$stream_line" <<'EOF'
import json, sys

measured = json.loads(sys.argv[1])
with open("BENCH_stream.json") as f:
    doc = json.load(f)
doc["measured"] = measured
with open("BENCH_stream.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("BENCH_stream.json measured block refreshed")
EOF
else
    python3 - "$stream_line" "$margin" <<'EOF' | tee -a "${summary}"
import json, sys

measured = json.loads(sys.argv[1])
margin = float(sys.argv[2])
with open("BENCH_stream.json") as f:
    baseline = json.load(f)["measured"]

floor = baseline["chunks_per_s"] * (1.0 - margin / 100.0)
if measured["chunks_per_s"] < floor:
    sys.exit(f"streaming chunks/s regressed >{margin}%: "
             f"{measured['chunks_per_s']:.1f} < floor {floor:.1f} "
             f"(baseline {baseline['chunks_per_s']:.1f})")
if measured["dp_work_ratio"] < 5.0:
    sys.exit(f"checkpointed DP work advantage fell below 5x: "
             f"{measured['dp_work_ratio']:.2f}")
print(f"  [OK ] chunks/s {measured['chunks_per_s']:.1f} "
      f"(baseline {baseline['chunks_per_s']:.1f}, floor {floor:.1f})")
print(f"  [OK ] DP work ratio {measured['dp_work_ratio']:.2f} (>= 5)")
print(f"  [inf] p50 {measured['p50_us']:.0f} us, "
      f"p99 {measured['p99_us']:.0f} us, "
      f"enrichment {measured['enrichment']:.2f}x, "
      f"lane batching {measured.get('lane_batching')} "
      f"({measured.get('simd', '?')})")
EOF
    echo "streaming session gate: green (margin ${margin}%)" |
        tee -a "${summary}"
fi

# ---- 3. decision-backend gate (software vs modelled ASIC) --------- #
cmake --build "${build_dir}" -j --target bench_backend >/dev/null
backend_line="$({ "${build_dir}/bench_backend" |
    grep '^BENCH_BACKEND_JSON ' |
    sed 's/^BENCH_BACKEND_JSON //'; } || true)"
if [[ -z "${backend_line}" ]]; then
    echo "bench_backend produced no BENCH_BACKEND_JSON line" >&2
    exit 1
fi
echo "measured backend: ${backend_line}" | tee -a "${summary}"
printf '%s\n' "${backend_line}" >"${report_dir}/backend.json"

if [[ "${record}" == "1" ]]; then
    python3 - "$backend_line" <<'EOF'
import json, sys

measured = json.loads(sys.argv[1])
with open("BENCH_stream.json") as f:
    doc = json.load(f)
doc["backend"] = measured
with open("BENCH_stream.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("BENCH_stream.json backend block refreshed")
EOF
else
    python3 - "$backend_line" "$margin" <<'EOF' | tee -a "${summary}"
import json, sys

measured = json.loads(sys.argv[1])
margin = float(sys.argv[2])
with open("BENCH_stream.json") as f:
    baseline = json.load(f)["backend"]

failures = []

# First law of the backend seam: the modelled-ASIC run's decision log
# is bit-identical to the software run's (all sweep points included).
if not measured["logs_match"]:
    failures.append("asic/software decision logs DIFFER")
status = "OK " if measured["logs_match"] else "FAIL"
print(f"  [{status}] asic decision logs bit-identical to software")

# The cycle model is deterministic given (dataset, config): the
# modelled p50 moves only when the model or the decision stream
# changes, so it gates against the recorded baseline with the shared
# margin as slack for intentional model evolution.
base_p50 = baseline["asic"]["p50_us"]
ceil = base_p50 * (1.0 + margin / 100.0)
floor = base_p50 * (1.0 - margin / 100.0)
p50 = measured["asic"]["p50_us"]
status = "OK " if floor <= p50 <= ceil else "FAIL"
print(f"  [{status}] modelled asic p50 {p50:.2f} us "
      f"(baseline {base_p50:.2f}, envelope "
      f"[{floor:.2f}, {ceil:.2f}])")
if not floor <= p50 <= ceil:
    failures.append("modelled asic p50 left the baseline envelope")

# The measured software side keeps the usual host-relative floor.
sw_floor = baseline["software"]["chunks_per_s"] * (1.0 - margin / 100.0)
sw = measured["software"]["chunks_per_s"]
status = "OK " if sw >= sw_floor else "FAIL"
print(f"  [{status}] software chunks/s {sw:.1f} "
      f"(baseline {baseline['software']['chunks_per_s']:.1f}, "
      f"floor {sw_floor:.1f})")
if sw < sw_floor:
    failures.append("software chunks/s")

# Sweep sanity (same-run, host-independent): more PEs must never make
# the chip slower.
rows = sorted(measured["sweep"], key=lambda r: r["pes"])
mono = all(a["p50_us"] >= b["p50_us"] - 1e-9
           for a, b in zip(rows, rows[1:]))
status = "OK " if mono else "FAIL"
trend = " -> ".join(f"{r['p50_us']:.2f}" for r in rows)
print(f"  [{status}] sweep: p50 {trend} us over PEs "
      f"{[r['pes'] for r in rows]}")
if not mono:
    failures.append("sweep p50 not monotone")

print(f"  [inf] modelled {measured['asic']['array_dim']}-PE chip: "
      f"{measured['asic']['cycles_per_decision']:.0f} cycles, "
      f"{measured['asic']['energy_uj_per_decision']:.2f} uJ, "
      f"{measured['asic']['checkpoint_kib_per_decision']:.1f} KiB "
      f"ckpt per decision; software p50 "
      f"{measured['software']['p50_us']:.0f} us ({measured['simd']})")

if failures:
    sys.exit("backend gate failed on: " + "; ".join(failures))
EOF
    echo "decision-backend gate: green (margin ${margin}%)" |
        tee -a "${summary}"
fi

# ---- 4. fleet serving gate ---------------------------------------- #
cmake --build "${build_dir}" -j --target bench_fleet >/dev/null
fleet_line="$({ "${build_dir}/bench_fleet" |
    grep '^BENCH_FLEET_JSON ' |
    sed 's/^BENCH_FLEET_JSON //'; } || true)"
if [[ -z "${fleet_line}" ]]; then
    echo "bench_fleet produced no BENCH_FLEET_JSON line" >&2
    exit 1
fi
echo "measured fleet: ${fleet_line}" | tee -a "${summary}"
printf '%s\n' "${fleet_line}" >"${report_dir}/fleet.json"

if [[ "${record}" == "1" ]]; then
    python3 - "$fleet_line" <<'EOF'
import json, sys

measured = json.loads(sys.argv[1])
with open("BENCH_fleet.json") as f:
    doc = json.load(f)
doc["measured"] = measured
with open("BENCH_fleet.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("BENCH_fleet.json measured block refreshed")
EOF
    exit 0
fi

python3 - "$fleet_line" "$margin" <<'EOF' | tee -a "${summary}"
import json, sys

measured = json.loads(sys.argv[1])
margin = float(sys.argv[2])
with open("BENCH_fleet.json") as f:
    baseline = json.load(f)["measured"]

failures = []

# Determinism is a gate, not an observation: every session's fleet
# decision log must be bit-identical to its isolated log.
if not measured["logs_match"]:
    failures.append("fleet/isolated decision logs DIFFER")
status = "OK " if measured["logs_match"] else "FAIL"
print(f"  [{status}] fleet decision logs bit-identical to isolated")

floor = baseline["chunks_per_s"] * (1.0 - margin / 100.0)
status = "OK " if measured["chunks_per_s"] >= floor else "FAIL"
print(f"  [{status}] fleet chunks/s {measured['chunks_per_s']:.1f} "
      f"(baseline {baseline['chunks_per_s']:.1f}, floor {floor:.1f})")
if measured["chunks_per_s"] < floor:
    failures.append("aggregate chunks/s")

# Tail percentiles are far noisier than throughput: worst_p99_us is a
# max over per-session p99s of wall-clock latencies on a loaded host,
# and run-to-run swings of +-20% are normal where chunks/s moves <5%.
# Give the ceiling twice the margin share — a real QoS regression
# (starvation, queue blowup) moves the tail by 2x or more, so the
# wider ceiling still catches it without flaking on scheduler jitter.
ceil = baseline["worst_p99_us"] * (1.0 + 2.0 * margin / 100.0)
status = "OK " if measured["worst_p99_us"] <= ceil else "FAIL"
print(f"  [{status}] worst-session p99 "
      f"{measured['worst_p99_us']/1e3:.0f} ms (baseline "
      f"{baseline['worst_p99_us']/1e3:.0f}, ceiling {ceil/1e3:.0f})")
if measured["worst_p99_us"] > ceil:
    failures.append("worst-session p99")

# Cross-session folding must pay for itself on wide-SIMD hosts: the
# same-run fleet/isolated chunks/s ratio carries the 1.2x acceptance
# floor.  Like the batched/serial ratio in the kernel gate, the floor
# scales with the margin (heterogeneous shared CI runners), and is
# skipped where the serial cutover keeps batching out of play anyway.
if measured.get("lane_batching") and \
        measured.get("simd") in ("avx2", "avx512"):
    floor_ratio = 1.2 * (1.0 - margin / 100.0)
    ratio = measured["fold_speedup"]
    status = "OK " if ratio >= floor_ratio else "FAIL"
    print(f"  [{status}] fleet/isolated fold speedup {ratio:.2f}x "
          f"(floor {floor_ratio:.2f})")
    if ratio < floor_ratio:
        failures.append("fold speedup")

    # Same-run occupancy comparison: pooling exists to raise SIMD
    # lane occupancy, so the fleet must beat its own isolated runs.
    occ = measured["lane_occupancy"]
    iso = measured["isolated_occupancy"]
    status = "OK " if occ > iso else "FAIL"
    print(f"  [{status}] lane occupancy {occ:.3f} fleet vs "
          f"{iso:.3f} isolated")
    if occ <= iso:
        failures.append("lane occupancy")
else:
    print(f"  [inf] fold-speedup/occupancy floors skipped "
          f"(simd={measured.get('simd', '?')}, lane batching "
          f"{measured.get('lane_batching')})")

print(f"  [inf] mean batch {measured['mean_batch']:.1f} req/dispatch, "
      f"stat dispatch share {measured['stat_share']:.2f}, "
      f"{measured['sessions']} sessions x {measured['workers']} "
      f"worker(s)")

if failures:
    sys.exit("fleet gate failed on: " + ", ".join(failures))
EOF
echo "fleet serving gate: green (margin ${margin}%)" |
    tee -a "${summary}"
echo "bench gate report written to ${report_dir}" | tee -a "${summary}"
