#!/usr/bin/env python3
"""Project-specific lint for invariants no generic tool knows.

Eleven rules, each encoding a correctness contract of this codebase:

  simd-backend-integrity   Every SIMD backend TU (src/sdtw/
                           batch_{avx2,avx512}.cpp) keeps its
                           ISA-flag guard block, its CMake per-TU ISA
                           flags, and its golden-pin test registration
                           in tests/test_batch.cpp.  A backend that
                           silently drops out of the build or out of
                           the pin loop would ship unverified SIMD.
                           Any other src/sdtw/batch_<isa>.cpp is a
                           finding: a backend the rule does not list
                           would skip all three checks.  The golden-
                           pin test and the columns kernel's
                           differential test must each exist and
                           iterate availableBackends() in their own
                           body, so neither kernel loses its oracle.

  concurrency-containment  No raw concurrency primitives
                           (std::mutex, std::thread, std::atomic,
                           std::condition_variable, ...) outside
                           src/common/, src/stream/ and src/fleet/.
                           Everything else must go through the
                           sanctioned wrappers (parallelFor, Memo,
                           BoundedQueue) so the TSan-audited surface
                           stays small.
                           std::thread::hardware_concurrency() is
                           allowed anywhere: it is a query, not a
                           primitive.

  pool-wait-discipline     The decision pool and its queue
                           (src/stream/chunk_queue.hpp,
                           src/stream/decision_pool.*) and src/fleet/
                           may use concurrency primitives, but every
                           blocking condition_variable wait there must
                           be woken by close()/shutdown: its predicate
                           has to consult the closed/shutdown flag (or
                           the wait must carry a deadline via
                           wait_for/wait_until).  A wait without a
                           close edge can deadlock pool teardown when
                           a session stops mid-load.  The rest of
                           src/stream/ is out of scope for now:
                           CompletionBoard::await() has no shutdown
                           edge yet (ROADMAP, failure containment).

  loop-wait-site           In src/stream/session.cpp, .await( and
                           .help( each occur exactly once, inside
                           FlowcellLoop::awaitDecision: the event
                           loop's one blocking wait.  A shutdown edge
                           for CompletionBoard::await() and an
                           await-return timestamp then each have one
                           call site to change, not one per handler.

  stage-walk-site          In src/sdtw/filter.cpp, the stage-boundary
                           read stages_[...].prefixSamples and
                           pending.insert( occur only inside
                           SquiggleFilterClassifier::nextSlice, the
                           one stage walk the serial and lane-batched
                           feeds share.  A feed that sliced its own
                           stages would be a second copy of the §4.6
                           rule that only the bit-exactness tests
                           could catch drifting.

  hw-layering              No file under src/stream/ or src/fleet/
                           includes an hw/ header, except
                           src/stream/decision_service.cpp, whose
                           makeDecisionBackend() is the one place the
                           stream layer reaches down into the
                           modelled hardware (hw/ includes stream/,
                           never the reverse).

  hw-oracle-containment    No file under src/ other than
                           src/hw/systolic.* includes hw/systolic.hpp
                           or hw/pe.hpp.  The event-level PE array is
                           the test oracle of the one closed-form
                           cycle model (hw::modelDecision); src/ code
                           that timed itself with the simulator would
                           grow a second cycle model nothing checks.

  quantized-hot-path-purity  The quantized sDTW hot path (the lane-
                           batched kernel TUs) must stay integer-only:
                           no float/double tokens.  A stray double
                           would silently break the saturating-int
                           bit-exactness contract the golden pins and
                           the ASIC model depend on.

  tiling-containment       Column-tile plumbing (SF_SDTW_TILE_COLS,
                           tileCols/tile_cols) stays inside src/sdtw/
                           and src/common/ — stream/fleet/pipeline
                           code must not grow per-call-site tile
                           knowledge; they see one kernel API.
                           CPU-affinity calls (pthread_setaffinity_np,
                           sched_setaffinity, cpu_set_t, CPU_SET) are
                           forbidden everywhere in src/: worker
                           threads run where the OS schedules them,
                           and thread placement is not a mechanism
                           this tree keeps.

  env-knob-docs            Every SF_* environment knob read anywhere
                           in the tree must be documented in
                           README.md or docs/OPERATIONS.md (the knob
                           reference table), so no behaviour switch
                           exists only in the code.  Wrapper reads
                           (envSize("SF_..."), getenv("SF_...")),
                           ${SF_...} in scripts/*.sh and any
                           environment read by name in scripts/*.py
                           (os.getenv, os.environ.get, os.environ[])
                           count as reads; a Python script must not
                           read even a non-SF_ variable undocumented.
                           The other direction too: each SF_* knob in
                           the first column of a docs/OPERATIONS.md
                           table, or opening a README "- `SF_...` —"
                           bullet, must be read at one of those sites,
                           so a deleted knob cannot stay documented.

  env-knob-strict-parse    Every knob read goes through the strict
                           helpers in src/common/env.{hpp,cpp}
                           (envString/envSize/envDouble/envFlag/
                           envUnsignedCsv), which fatal() on malformed
                           values instead of silently truncating
                           ("1024abc" -> 1024).  Raw getenv() anywhere
                           else bypasses that validation.

Adding a rule: write a function taking (root, findings) that appends
Finding tuples, give it a one-line DOC string, and register it in
RULES at the bottom.  Rules must be pure text analysis — this script
runs before any build exists.

Exit status: 0 when clean, 1 with one line per violation otherwise.
--report FILE additionally writes the full text (pass or fail) there.
"""

import argparse
import re
import sys
from pathlib import Path
from typing import List, NamedTuple


class Finding(NamedTuple):
    rule: str
    path: str  # repo-relative, possibly with :line
    message: str


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments and string literals from C++ text.

    Line numbers are preserved (newlines inside block comments are
    kept) so offsets computed on the result map back to the file.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            seg = text[i : n if j < 0 else j + 2]
            out.append("\n" * seg.count("\n"))
            i = n if j < 0 else j + 2
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('""')
            i = min(j + 1, n)
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            out.append("''")
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ------------------------------------------------------------------ #
# Rule: simd-backend-integrity                                        #
# ------------------------------------------------------------------ #

# backend -> (ISA macros that must appear in the TU's guard,
#             compiler flags CMake must hand that TU)
BACKENDS = {
    "avx2": (["__AVX2__"], ["-mavx2"]),
    "avx512": (
        ["__AVX512F__", "__AVX512BW__", "__AVX512VL__"],
        ["-mavx512f", "-mavx512bw", "-mavx512vl"],
    ),
}

# Enumerator each backend registers golden pins under (test_batch.cpp
# iterates availableBackends() inside the pin test, and the helpers
# behind it must enumerate every backend).
BACKEND_ENUMERATORS = {
    "avx2": "SimdBackend::Avx2",
    "avx512": "SimdBackend::Avx512",
}

# Tests that must run every available backend against an oracle:
# test name -> what goes unchecked without it.
ORACLE_TESTS = {
    "GoldenCostsMatchSeedImplementation":
        "the SIMD backends are no longer pinned to the seed costs",
    "ColumnsDifferentialAgainstPlainDp":
        "the columns kernel is no longer checked against the plain DP",
    "DifferentialAgainstPlainDpRandomConfigs":
        "the routing of every config (lane kernel or serial engine) is "
        "no longer checked against the plain DP",
}


def test_body(text: str, name: str):
    """Text of TEST(..., name) up to the next TEST, or None."""
    m = re.search(r"\bTEST(?:_F|_P)?\(\s*\w+\s*,\s*%s\s*\)" % name,
                  text)
    if m is None:
        return None
    end = re.search(r"^TEST(?:_F|_P)?\(", text[m.end():], re.M)
    return text[m.end():m.end() + end.start() if end else len(text)]


def rule_simd_backend_integrity(root: Path, findings: List[Finding]):
    rule = "simd-backend-integrity"
    cmake = (root / "CMakeLists.txt").read_text()
    test_path = root / "tests" / "test_batch.cpp"
    test_text = test_path.read_text() if test_path.exists() else ""

    for name, loss in ORACLE_TESTS.items():
        body = test_body(test_text, name)
        if body is None:
            findings.append(
                Finding(rule, "tests/test_batch.cpp",
                        f"test {name} is gone; {loss}"))
        elif "availableBackends()" not in body:
            findings.append(
                Finding(rule, "tests/test_batch.cpp",
                        f"{name} no longer iterates availableBackends(); "
                        "backends can skip it"))

    for tu in sorted((root / "src" / "sdtw").glob("batch_*.cpp")):
        backend = tu.stem[len("batch_"):]
        if backend not in BACKENDS:
            findings.append(
                Finding(rule, tu.relative_to(root).as_posix(),
                        f"backend TU '{backend}' is not listed in "
                        "BACKENDS in scripts/sf_lint.py; its guard, "
                        "flags and golden pins go unchecked"))

    for backend, (macros, flags) in BACKENDS.items():
        rel = f"src/sdtw/batch_{backend}.cpp"
        tu = root / rel
        if not tu.exists():
            findings.append(Finding(rule, rel, "backend TU is missing"))
            continue
        text = tu.read_text()
        guard = next((ln for ln in text.splitlines()
                      if ln.lstrip().startswith("#if")
                      and all(m in ln for m in macros)), None)
        if guard is None:
            findings.append(
                Finding(rule, rel,
                        "ISA guard block (#if defined(%s)) is missing; "
                        "the TU would break non-%s builds"
                        % (" && ".join(macros), backend)))
        for flag in flags:
            # The flag must be granted in the same CMake statement
            # that names this TU.
            granted = any(rel.split("/")[-1] in stmt and flag in stmt
                          for stmt in cmake.split("set_source_files_properties"))
            if not granted:
                findings.append(
                    Finding(rule, "CMakeLists.txt",
                            f"{rel} lost its {flag} compile flag; the "
                            "backend would silently drop out of the "
                            "build"))
        enum = BACKEND_ENUMERATORS[backend]
        if test_text and enum not in test_text:
            findings.append(
                Finding(rule, "tests/test_batch.cpp",
                        f"{enum} never appears; the {backend} backend "
                        "is not registered for the golden pins"))


# ------------------------------------------------------------------ #
# Rule: concurrency-containment                                       #
# ------------------------------------------------------------------ #

CONCURRENCY_ALLOWED_DIRS = ("src/common/", "src/stream/", "src/fleet/")

CONCURRENCY_TOKENS = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|thread|jthread|atomic\w*|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|future|promise|"
    r"async|call_once|once_flag)\b")

# A query about the machine, not a synchronization primitive.
CONCURRENCY_EXEMPT = re.compile(r"std::thread::hardware_concurrency")


def rule_concurrency_containment(root: Path, findings: List[Finding]):
    rule = "concurrency-containment"
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel.startswith(CONCURRENCY_ALLOWED_DIRS):
            continue
        text = CONCURRENCY_EXEMPT.sub("", strip_comments(path.read_text()))
        for m in CONCURRENCY_TOKENS.finditer(text):
            findings.append(
                Finding(rule, f"{rel}:{line_of(text, m.start())}",
                        f"raw {m.group(0)} outside src/common//"
                        "src/stream//src/fleet/; use the wrappers "
                        "there (parallelFor, Memo, BoundedQueue) so "
                        "the TSan-audited surface stays contained"))


# ------------------------------------------------------------------ #
# Rule: pool-wait-discipline                                          #
# ------------------------------------------------------------------ #

WAIT_SCOPE = (
    "src/stream/chunk_queue.hpp",
    "src/stream/decision_pool.hpp",
    "src/stream/decision_pool.cpp",
)

WAIT_CALL = re.compile(r"\.wait(_for|_until)?\s*\(")


def _matching_close(text: str, open_at: int) -> int:
    """Offset of the bracket that closes the '(' or '{' at open_at
    (len(text) when it is never closed)."""
    opener = text[open_at]
    closer = {"(": ")", "{": "}"}[opener]
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def _balanced_call_args(text: str, open_paren: int) -> str:
    """Return the argument text of a call whose '(' is at open_paren."""
    return text[open_paren + 1 : _matching_close(text, open_paren)]


def rule_pool_wait_discipline(root: Path, findings: List[Finding]):
    rule = "pool-wait-discipline"
    paths = []
    for rel in WAIT_SCOPE:
        if (root / rel).exists():
            paths.append(root / rel)
        else:
            findings.append(
                Finding(rule, rel, "scoped file is missing; point "
                        "WAIT_SCOPE at where the pool or queue moved"))
    fleet = root / "src" / "fleet"
    if fleet.exists():
        paths += sorted(fleet.rglob("*"))
    for path in paths:
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())
        for m in WAIT_CALL.finditer(text):
            if m.group(1):
                continue  # wait_for/wait_until carry a deadline
            args = _balanced_call_args(text, m.end() - 1)
            if "closed" in args or "shutdown" in args:
                continue  # predicate consults the close flag
            findings.append(
                Finding(rule, f"{rel}:{line_of(text, m.start())}",
                        "blocking wait without a close()/shutdown "
                        "wake-up in its predicate (and no deadline); "
                        "pool teardown could deadlock on it"))


# ------------------------------------------------------------------ #
# Rule: loop-wait-site                                                #
# ------------------------------------------------------------------ #

LOOP_FILE = "src/stream/session.cpp"
LOOP_WAIT_METHOD = "awaitDecision"
LOOP_WAIT_CALLS = {
    "await": re.compile(r"(?:\.|->)await\s*\("),
    "help": re.compile(r"(?:\.|->)help\s*\("),
}
LOOP_WAIT_DEF = re.compile(r"\b" + LOOP_WAIT_METHOD + r"\s*\([^)]*\)\s*\{")


def rule_loop_wait_site(root: Path, findings: List[Finding]):
    rule = "loop-wait-site"
    path = root / LOOP_FILE
    if not path.exists():
        findings.append(
            Finding(rule, LOOP_FILE, "event-loop file is missing; point "
                    "LOOP_FILE at where FlowcellLoop moved"))
        return
    text = strip_comments(path.read_text())
    defs = list(LOOP_WAIT_DEF.finditer(text))
    if len(defs) != 1:
        findings.append(
            Finding(rule, LOOP_FILE,
                    f"expected one definition of {LOOP_WAIT_METHOD}(), "
                    f"found {len(defs)}"))
        return
    open_brace = defs[0].end() - 1
    body = range(open_brace, _matching_close(text, open_brace) + 1)
    for name, pattern in LOOP_WAIT_CALLS.items():
        sites = [m.start() for m in pattern.finditer(text)]
        for offset in sites:
            if offset not in body:
                findings.append(
                    Finding(rule, f"{LOOP_FILE}:{line_of(text, offset)}",
                            f".{name}( outside {LOOP_WAIT_METHOD}(); the "
                            "event loop waits at one site"))
        inside = [o for o in sites if o in body]
        if len(inside) != 1:
            findings.append(
                Finding(rule, f"{LOOP_FILE}:{line_of(text, body.start)}",
                        f"{LOOP_WAIT_METHOD}() must call .{name}( exactly "
                        f"once, found {len(inside)}"))


# ------------------------------------------------------------------ #
# Rule: stage-walk-site                                               #
# ------------------------------------------------------------------ #

WALK_FILE = "src/sdtw/filter.cpp"
WALK_METHOD = "nextSlice"
WALK_SITES = {
    "stages_[...].prefixSamples":
        re.compile(r"\bstages_\s*\[[^\]]*\]\s*\.\s*prefixSamples\b"),
    "pending.insert(": re.compile(r"\bpending\s*\.\s*insert\s*\("),
}
WALK_DEF = re.compile(r"::\s*" + WALK_METHOD +
                      r"\s*\([^)]*\)\s*(?:const\s*)?\{")


def rule_stage_walk_site(root: Path, findings: List[Finding]):
    rule = "stage-walk-site"
    path = root / WALK_FILE
    if not path.exists():
        findings.append(
            Finding(rule, WALK_FILE, "classifier file is missing; point "
                    "WALK_FILE at where the stage walk moved"))
        return
    text = strip_comments(path.read_text())
    defs = list(WALK_DEF.finditer(text))
    if len(defs) != 1:
        findings.append(
            Finding(rule, WALK_FILE,
                    f"expected one definition of {WALK_METHOD}(), "
                    f"found {len(defs)}"))
        return
    open_brace = defs[0].end() - 1
    body = range(open_brace, _matching_close(text, open_brace) + 1)
    for name, pattern in WALK_SITES.items():
        for m in pattern.finditer(text):
            if m.start() not in body:
                findings.append(
                    Finding(rule, f"{WALK_FILE}:{line_of(text, m.start())}",
                            f"{name} outside {WALK_METHOD}(); every feed "
                            "takes its stage slices from the one walk"))


# ------------------------------------------------------------------ #
# Rule: hw-layering                                                   #
# ------------------------------------------------------------------ #

HW_LAYERING_DIRS = ("src/stream", "src/fleet")

# The one stream -> hw reach-down: makeDecisionBackend().
HW_LAYERING_EXEMPT = ("src/stream/decision_service.cpp",)

# Anchored at the line start, so a commented-out include never counts
# (string literals must survive, so strip_comments is not used here).
HW_INCLUDE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*[<"]hw/', re.M)


def rule_hw_layering(root: Path, findings: List[Finding]):
    rule = "hw-layering"
    for rel in HW_LAYERING_EXEMPT:
        if not (root / rel).exists():
            findings.append(
                Finding(rule, rel, "exempt file is missing; point "
                        "HW_LAYERING_EXEMPT at where "
                        "makeDecisionBackend() moved"))
    for sub in HW_LAYERING_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            rel = path.relative_to(root).as_posix()
            if rel in HW_LAYERING_EXEMPT:
                continue
            text = path.read_text()
            for m in HW_INCLUDE.finditer(text):
                findings.append(
                    Finding(rule, f"{rel}:{line_of(text, m.start())}",
                            "hw/ include outside "
                            "src/stream/decision_service.cpp; the "
                            "stream and fleet layers reach the "
                            "modelled hardware only through "
                            "makeDecisionBackend()"))


# ------------------------------------------------------------------ #
# Rule: hw-oracle-containment                                         #
# ------------------------------------------------------------------ #

HW_ORACLE_HEADERS = re.compile(
    r'^[ \t]*#[ \t]*include[ \t]*[<"]hw/(systolic|pe)\.hpp[>"]', re.M)

# The simulator itself: systolic.{hpp,cpp} (pe.hpp is header-only).
HW_ORACLE_EXEMPT = ("src/hw/systolic.hpp", "src/hw/systolic.cpp")


def rule_hw_oracle_containment(root: Path, findings: List[Finding]):
    rule = "hw-oracle-containment"
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel in HW_ORACLE_EXEMPT:
            continue
        text = path.read_text()
        for m in HW_ORACLE_HEADERS.finditer(text):
            findings.append(
                Finding(rule, f"{rel}:{line_of(text, m.start())}",
                        "the event-level systolic array is a test "
                        "oracle; time the hardware with "
                        "hw::modelDecision (hw/asic_model.hpp) "
                        "instead"))


# ------------------------------------------------------------------ #
# Rule: quantized-hot-path-purity                                     #
# ------------------------------------------------------------------ #

HOT_PATH_FILES = [
    "src/sdtw/batch_kernel.hpp",
    "src/sdtw/batch.cpp",
    "src/sdtw/batch_avx2.cpp",
    "src/sdtw/batch_avx512.cpp",
]

FLOATING_TOKEN = re.compile(r"\b(float|double|long double)\b")


def rule_quantized_hot_path_purity(root: Path, findings: List[Finding]):
    rule = "quantized-hot-path-purity"
    for rel in HOT_PATH_FILES:
        path = root / rel
        if not path.exists():
            findings.append(
                Finding(rule, rel,
                        "hot-path TU is missing (update HOT_PATH_FILES "
                        "in scripts/sf_lint.py if it moved)"))
            continue
        text = strip_comments(path.read_text())
        for m in FLOATING_TOKEN.finditer(text):
            findings.append(
                Finding(rule, f"{rel}:{line_of(text, m.start())}",
                        f"floating-point type '{m.group(0)}' in the "
                        "quantized sDTW hot path; the kernel contract "
                        "is saturating integer arithmetic, bit-exact "
                        "across backends"))


# ------------------------------------------------------------------ #
# Rule: tiling-containment                                            #
# ------------------------------------------------------------------ #

TILING_ALLOWED_DIRS = ("src/sdtw/", "src/common/")

TILING_TOKENS = re.compile(r"SF_SDTW_TILE_COLS|[Tt]ileCols|tile_cols")

AFFINITY_TOKENS = re.compile(
    r"pthread_setaffinity\w*|sched_setaffinity|cpu_set_t|"
    r"CPU_ZERO\b|CPU_SET\b")


def rule_tiling_containment(root: Path, findings: List[Finding]):
    rule = "tiling-containment"
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())
        if not rel.startswith(TILING_ALLOWED_DIRS):
            for m in TILING_TOKENS.finditer(text):
                findings.append(
                    Finding(rule, f"{rel}:{line_of(text, m.start())}",
                            f"tile-size plumbing '{m.group(0)}' "
                            "outside src/sdtw//src/common/; layers "
                            "above the kernel must not carry "
                            "per-call-site tile knowledge"))
        for m in AFFINITY_TOKENS.finditer(text):
            findings.append(
                Finding(rule, f"{rel}:{line_of(text, m.start())}",
                        f"affinity token '{m.group(0)}' in src/; "
                        "worker threads are not pinned, so no layer "
                        "sets thread placement"))


# ------------------------------------------------------------------ #
# Rule: env-knob-docs                                                 #
# ------------------------------------------------------------------ #

# getenv("SF_X") plus env-reading helpers like envSize("SF_X", ...):
# any call whose first argument is an SF_ string literal and whose
# callee name contains "env" is a knob read.  setenv/unsetenv in
# tests pass the same literals — those knobs are read elsewhere
# anyway, so the over-match only ever demands real documentation.
GETENV_RE = re.compile(r'\w*[Ee]nv\w*\(\s*"(SF_[A-Z0-9_]+)"')
SHELL_ENV_RE = re.compile(r"\$\{(SF_[A-Z0-9_]+)")
PY_ENV_RE = re.compile(
    r"os\.(?:getenv\(|environ\.get\(|environ\[)\s*['\"]([A-Za-z0-9_]+)")

KNOB_DOC_FILES = ("README.md", "docs/OPERATIONS.md")
# Where a knob is documented as a knob, not just mentioned: the first
# column of an OPERATIONS.md table row, or a README bullet's lead.
KNOB_DOC_ENTRY_RES = (
    ("docs/OPERATIONS.md", re.compile(r"^\| `(SF_[A-Z0-9_]+)` \|", re.M)),
    ("README.md", re.compile(r"^- `(SF_[A-Z0-9_]+)` —", re.M)),
)


def rule_env_knob_docs(root: Path, findings: List[Finding]):
    rule = "env-knob-docs"
    docs = "\n".join((root / rel).read_text()
                     for rel in KNOB_DOC_FILES if (root / rel).exists())
    knobs = {}  # name -> first reference site
    for sub in ("src", "bench", "examples", "tests"):
        for path in sorted((root / sub).rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            text = path.read_text()
            for m in GETENV_RE.finditer(text):
                knobs.setdefault(
                    m.group(1),
                    f"{path.relative_to(root).as_posix()}:"
                    f"{line_of(text, m.start())}")
    for path in sorted((root / "scripts").glob("*.[ps][yh]")):
        text = path.read_text()
        pattern = PY_ENV_RE if path.suffix == ".py" else SHELL_ENV_RE
        for m in pattern.finditer(text):
            knobs.setdefault(
                m.group(1),
                f"{path.relative_to(root).as_posix()}:"
                f"{line_of(text, m.start())}")
    for name, site in sorted(knobs.items()):
        if name not in docs:
            findings.append(
                Finding(rule, site,
                        f"env knob {name} is read here but never "
                        "documented in README.md or "
                        "docs/OPERATIONS.md"))
    for rel, entry_re in KNOB_DOC_ENTRY_RES:
        path = root / rel
        if not path.exists():
            continue
        text = path.read_text()
        for m in entry_re.finditer(text):
            if m.group(1) not in knobs:
                findings.append(
                    Finding(rule, f"{rel}:{line_of(text, m.start())}",
                            f"env knob {m.group(1)} is documented here "
                            "but read nowhere in src/, bench/, "
                            "examples/, tests/ or scripts/"))


# ------------------------------------------------------------------ #
# Rule: env-knob-strict-parse                                          #
# ------------------------------------------------------------------ #

RAW_GETENV_RE = re.compile(r"\bgetenv\s*\(")

# The single sanctioned raw-getenv site: the strict helpers themselves.
ENV_HELPER_FILES = ("src/common/env.cpp",)


def rule_env_knob_strict_parse(root: Path, findings: List[Finding]):
    rule = "env-knob-strict-parse"
    for sub in ("src", "bench", "examples", "tests"):
        base = root / sub
        if not base.exists():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            rel = path.relative_to(root).as_posix()
            if rel in ENV_HELPER_FILES:
                continue
            text = strip_comments(path.read_text())
            for m in RAW_GETENV_RE.finditer(text):
                findings.append(
                    Finding(rule, f"{rel}:{line_of(text, m.start())}",
                            "raw getenv() outside src/common/env.cpp; "
                            "read knobs through the strict sf::env* "
                            "helpers (common/env.hpp) so malformed "
                            "values fail loudly instead of parsing as "
                            "trailing-garbage prefixes"))


# ------------------------------------------------------------------ #

RULES = [
    rule_simd_backend_integrity,
    rule_concurrency_containment,
    rule_pool_wait_discipline,
    rule_loop_wait_site,
    rule_stage_walk_site,
    rule_hw_layering,
    rule_hw_oracle_containment,
    rule_quantized_hot_path_purity,
    rule_tiling_containment,
    rule_env_knob_docs,
    rule_env_knob_strict_parse,
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path(__file__).parent.parent,
                        help="repository root (default: the checkout)")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the result text to this file")
    args = parser.parse_args()
    root = args.root.resolve()

    findings: List[Finding] = []
    for rule in RULES:
        rule(root, findings)

    lines = []
    if findings:
        for f in findings:
            lines.append(f"sf-lint [{f.rule}] {f.path}: {f.message}")
        lines.append(f"sf-lint: {len(findings)} violation(s) in "
                     f"{len(RULES)} rules")
    else:
        lines.append(f"sf-lint: clean ({len(RULES)} rules)")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.report:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(text)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
