/**
 * @file
 * sfbench: one benchmark run of one workload.
 *
 *   sfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
 *           [--expect SESSION=HEX]... [--tiny]
 *           [--inject-setup-simulation]
 *
 * Generates the workload's reads from the seed, times three set-ups, then
 * runs closed-loop rounds for S seconds.  With --trace 0 the rounds go
 * through the program's own run() and the end-to-end metrics are
 * printed; with --trace 1 half the time runs untraced (counters and the
 * overhead baseline) and half through the traced service (per-layer
 * metrics).  Every round's decision logs are checked: chunk
 * conservation, identical digests across rounds and across traced and
 * untraced runs, recorded digests (--expect), and a sample replayed
 * against the offline classifier.  The last stdout line is the result
 * JSON; exit status 1 means a correctness failure, 2 a usage error or
 * a set-up that simulated reads.
 */

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using namespace sfb;

/** Results, noise records and trace exports, under the checkout root. */
const std::string kOutDir = ".bench_out";

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool haveSeed = false;
    double seconds = 20.0;
    bool trace = false;
    bool tiny = false;
    bool injectSetupSimulation = false;
    std::map<std::string, std::uint64_t> expect;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "sfbench: %s\n", why);
    std::fprintf(stderr,
                 "usage: sfbench --workload NAME --seed N [--seconds S] "
                 "[--trace 0|1] [--expect SESSION=HEX]... [--tiny] "
                 "[--inject-setup-simulation]\n");
    std::exit(2);
}

bool
parseU64(const char *s, std::uint64_t &out, int base = 10)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, base);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        std::uint64_t n = 0;
        if (flag == "--workload") {
            a.workload = value();
        } else if (flag == "--seed") {
            if (!parseU64(value(), a.seed))
                usage("--seed takes a non-negative integer");
            a.haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseU64(value(), n) || n == 0 || n > 600)
                usage("--seconds takes an integer in [1, 600]");
            a.seconds = double(n);
        } else if (flag == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--tiny") {
            a.tiny = true;
        } else if (flag == "--inject-setup-simulation") {
            a.injectSetupSimulation = true;
        } else if (flag == "--expect") {
            const std::string v = value();
            const auto eq = v.find('=');
            if (eq == std::string::npos ||
                !parseU64(v.c_str() + eq + 1, n, 16))
                usage("--expect takes SESSION=HEX");
            a.expect[v.substr(0, eq)] = n;
        } else {
            usage(("unknown argument " + flag).c_str());
        }
    }
    if (a.workload.empty() || !a.haveSeed)
        usage("--workload and --seed are required");
    return a;
}

/** JSON object body {"name": {"value": v, "unit": u}, ...}. */
class MetricSet
{
  public:
    void
    add(const char *name, double value, const char *unit)
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                      body_.empty() ? "" : ",", name, value, unit);
        body_ += buf;
    }

    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/**
 * Run rounds until @p seconds of wall time are used, and at least
 * @p min_rounds, so that a median over rounds is a median of three on a
 * slow host too.
 */
template <typename RoundFn>
std::vector<RoundResult>
runFor(double seconds, std::size_t min_rounds, RoundFn round)
{
    std::vector<RoundResult> rounds;
    const auto start = Clock::now();
    double used = 0.0;
    do {
        rounds.push_back(round());
        used = secondsBetween(start, Clock::now());
        // Start another round only if it is expected to end inside
        // the budget (10% grace): rounds are whole run() calls.
    } while (rounds.size() < min_rounds ||
             used + used / double(rounds.size()) <= 1.1 * seconds);
    return rounds;
}

std::vector<double>
collect(const std::vector<RoundResult> &rounds,
        double (*fn)(const RoundResult &))
{
    std::vector<double> v;
    for (const RoundResult &r : rounds)
        v.push_back(fn(r));
    return v;
}

/** Correctness ledger over every round of the run. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
};

void
judgeRounds(const std::vector<RoundResult> &rounds,
            const std::vector<std::uint64_t> &reference,
            const std::vector<bool> &sessionBad, const char *kind,
            Verdict &v)
{
    for (std::size_t i = 0; i < rounds.size(); ++i)
        for (std::size_t s = 0; s < rounds[i].sessions.size(); ++s) {
            const SessionOutcome &o = rounds[i].sessions[s];
            v.attempted += o.chunksEmitted;
            bool bad = sessionBad[s];
            const auto problem = [&](const std::string &what) {
                v.problems.push_back(std::string(kind) + " round " +
                                     std::to_string(i + 1) + " session " +
                                     o.name + ": " + what);
                bad = true;
            };
            if (o.chunksAborted != 0 || o.chunksEmitted != o.chunksFolded)
                problem("chunk conservation: " +
                        std::to_string(o.chunksEmitted) + " emitted, " +
                        std::to_string(o.chunksFolded) + " folded, " +
                        std::to_string(o.chunksAborted) + " aborted");
            if (o.digest != reference[s])
                problem("log digest " + hex64(o.digest) +
                        " differs from the first untraced round's " +
                        hex64(reference[s]));
            v.failed += bad ? o.chunksEmitted : o.chunksAborted;
        }
}

void
ensureDir(const std::string &dir)
{
    ::mkdir(dir.c_str(), 0755); // EEXIST is fine; fopen reports the rest
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *found = findWorkload(args.workload);
    if (found == nullptr)
        usage(("unknown workload " + args.workload).c_str());
    const WorkloadSpec spec = args.tiny ? tinyScale(*found) : *found;
    for (const auto &[name, hex] : args.expect) {
        bool known = false;
        for (std::size_t s = 0; s < spec.sessions; ++s)
            known = known || name == sessionName(spec, s);
        if (!known)
            usage(("--expect names no session of this workload: " + name)
                      .c_str());
    }
    const std::string host = hostFingerprintJson();
    std::printf("host %s\n", host.c_str());

    // ---- load generation: before any timer ------------------------
    const Inputs inputs = makeInputs(spec, args.seed);

    // ---- set-up, timed three times; the last one serves the run ---
    constexpr std::size_t kSetups = 3;
    std::vector<double> setupSec, referenceSec, calibrationSec;
    std::string setupNoise;
    Prepared prepared;
    for (std::size_t k = 0; k < kSetups; ++k) {
        prepared = Prepared{}; // free the previous set-up before timing
        const double cpu0 = processCpuSec();
        const std::uint64_t steal0 = stealTicks();
        const std::size_t reads0 = readsSimulated();
        prepared = setUp(spec, inputs, args.injectSetupSimulation);
        const SetupTiming &t = prepared.timing;
        // Guard: load generation belongs before the timer.  Any read
        // simulated during set-up, in whichever part, refuses the run.
        if (readsSimulated() != reads0) {
            std::fprintf(stderr,
                         "sfbench: set-up simulated %zu reads inside its "
                         "timer; refusing the run\n",
                         readsSimulated() - reads0);
            return 2;
        }
        setupSec.push_back(t.totalSec);
        referenceSec.push_back(t.referenceSec);
        calibrationSec.push_back(t.calibrationSec);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s{\"wall_s\":%.6f,\"cpu_s\":%.6f,\"steal\":%llu}",
                      setupNoise.empty() ? "" : ",", t.totalSec,
                      processCpuSec() - cpu0,
                      (unsigned long long)(stealTicks() - steal0));
        setupNoise += buf;
    }

    // ---- closed-loop rounds ----------------------------------------
    // The end-to-end metrics are medians over at least three rounds; a
    // traced run's untraced half only reads counters and a baseline.
    const double untracedBudget = args.trace ? args.seconds / 2 : args.seconds;
    const std::vector<RoundResult> rounds =
        runFor(untracedBudget, args.trace ? 1 : 3, [&] {
            return runRound(spec, inputs, prepared);
        });
    TraceRecorder trace;
    std::vector<RoundResult> traced;
    if (args.trace)
        traced = runFor(args.seconds / 2, 1, [&] {
            return runTracedRound(spec, inputs, prepared, trace);
        });

    // ---- correctness -----------------------------------------------
    Verdict verdict;
    std::vector<std::uint64_t> reference;
    std::vector<bool> sessionBad;
    for (const SessionOutcome &o : rounds.front().sessions) {
        reference.push_back(o.digest);
        bool bad = false;
        const auto it = args.expect.find(o.name);
        if (it != args.expect.end() && it->second != o.digest) {
            verdict.problems.push_back(
                "session " + o.name + ": log digest " + hex64(o.digest) +
                " does not match the recorded " + hex64(it->second));
            bad = true;
        }
        const std::size_t s = reference.size() - 1;
        const std::size_t wrong = oracleMismatches(
            *prepared.classifier, inputs.sessionReads[s], o.log, 16);
        if (wrong != 0) {
            verdict.problems.push_back(
                "session " + o.name + ": " + std::to_string(wrong) +
                " sampled decisions differ from the offline classifier");
            bad = true;
        }
        sessionBad.push_back(bad);
        std::printf("digest %s %s recorded=%s %s\n", o.name.c_str(),
                    hex64(o.digest).c_str(),
                    it == args.expect.end() ? "none"
                                            : hex64(it->second).c_str(),
                    bad ? "MISMATCH" : "ok");
    }
    judgeRounds(rounds, reference, sessionBad, "untraced", verdict);
    judgeRounds(traced, reference, sessionBad, "traced", verdict);
    for (const std::string &p : verdict.problems)
        std::printf("FAIL %s\n", p.c_str());
    const bool correct = verdict.problems.empty();

    // ---- metrics ---------------------------------------------------
    const double chunksPerSec =
        median(collect(rounds, [](const RoundResult &r) {
            return r.chunksPerSec();
        }));
    double enrichment = 0.0;
    for (const SessionOutcome &o : rounds.front().sessions)
        enrichment = enrichment == 0.0 ? o.enrichment
                                       : std::min(enrichment, o.enrichment);
    MetricSet e2e;
    e2e.add("chunks_per_s", chunksPerSec, "chunks/s");
    e2e.add("decision_p50_us",
            median(collect(rounds,
                           [](const RoundResult &r) { return r.worstP50(); })),
            "us");
    e2e.add("decision_p99_us",
            median(collect(rounds,
                           [](const RoundResult &r) { return r.worstP99(); })),
            "us");
    e2e.add("stat_p99_us",
            median(collect(rounds,
                           [](const RoundResult &r) { return r.statP99(); })),
            "us");
    e2e.add("cpu_ms_per_chunk",
            median(collect(rounds,
                           [](const RoundResult &r) {
                               return 1e3 * r.cpuSec / double(r.chunks());
                           })),
            "ms/chunk");
    e2e.add("peak_rss_mb", peakRssMb(), "MiB");
    e2e.add("setup_s", median(setupSec), "s");
    e2e.add("enrichment", enrichment, "x");

    MetricSet layers;
    if (args.trace) {
        const bool fleet = spec.entry == Entry::Fleet;
        const RoundResult &ctr = rounds.front();
        const LayerMetrics m = layerMetrics(trace);
        const double tracedCps = median(collect(
            traced, [](const RoundResult &r) { return r.chunksPerSec(); }));
        std::uint64_t decisions = 0;
        double dpWork = 0.0;
        for (const SessionOutcome &o : ctr.sessions) {
            decisions += o.decisions;
            dpWork = dpWork == 0.0 ? o.dpWorkRatio
                                   : std::min(dpWork, o.dpWorkRatio);
        }
        layers.add("sdtw.cells_per_s", m.cellsPerSec, "cells/s");
        layers.add("sdtw.fold_us.p50", m.foldP50us, "us");
        layers.add("sdtw.fold_us.p99", m.foldP99us, "us");
        layers.add("sdtw.serial_share", m.serialShare, "ratio");
        layers.add("sdtw.lane_occupancy", m.laneOccupancy, "ratio");
        layers.add("sdtw.busy_frac", m.busyFrac, "ratio");
        layers.add("stream.queue_wait_us.p50", m.waitP50us, "us");
        layers.add("stream.queue_wait_us.p99", m.waitP99us, "us");
        layers.add("stream.mean_batch", ctr.pool.meanBatch, "requests");
        layers.add("stream.loop_gap_frac", m.loopGapFrac, "ratio");
        layers.add("stream.submit_us.p99", m.submitP99us, "us");
        layers.add("stream.dp_work_ratio", dpWork, "x");
        layers.add("stream.decisions", double(decisions), "count");
        // Fleet-only layers read 0 on a single-session workload.
        layers.add("fleet.queue_wait_us.p50", fleet ? m.statWaitP50us : 0,
                   "us");
        layers.add("fleet.queue_wait_us.p99", fleet ? m.statWaitP99us : 0,
                   "us");
        layers.add("fleet.mean_batch", fleet ? ctr.pool.meanBatch : 0,
                   "requests");
        layers.add("fleet.lane_occupancy", ctr.pool.laneOccupancy, "ratio");
        layers.add("fleet.stat_dispatch_share", ctr.pool.statDispatchShare,
                   "ratio");
        layers.add("fleet.backpressure_stalls", ctr.pool.backpressureStalls,
                   "count");
        layers.add("pipeline.reference_s", median(referenceSec), "s");
        layers.add("pipeline.calibration_s", median(calibrationSec), "s");
        layers.add("trace.overhead_frac",
                   chunksPerSec > 0.0 ? 1.0 - tracedCps / chunksPerSec : 0.0,
                   "ratio");
        constexpr double kWaterfallTolerance = 0.15;
        printTraceReport(trace, kWaterfallTolerance);
        ensureDir(kOutDir);
        const std::string path = kOutDir + "/trace-" + spec.name +
                                 "-" + std::to_string(args.seed) + ".json";
        if (writeChromeTrace(trace, path))
            std::printf("trace written to %s\n", path.c_str());
        else
            std::printf("trace NOT written: cannot open %s\n", path.c_str());
    }

    // ---- noise record, saved with the result -----------------------
    std::string roundNoise;
    const auto noteRounds = [&](const std::vector<RoundResult> &rs,
                                bool isTraced) {
        for (const RoundResult &r : rs) {
            std::uint64_t fewest = 0;
            for (const SessionOutcome &o : r.sessions)
                fewest = fewest == 0 ? o.decisions
                                     : std::min(fewest, o.decisions);
            char buf[320];
            std::snprintf(buf, sizeof buf,
                          "%s{\"traced\":%s,\"wall_s\":%.6f,\"cpu_s\":%.6f,"
                          "\"steal\":%llu,\"chunks\":%llu,"
                          "\"min_session_decisions\":%llu,\"p50_us\":%.1f,"
                          "\"p99_us\":%.1f,\"stat_p99_us\":%.1f}",
                          roundNoise.empty() ? "" : ",",
                          isTraced ? "true" : "false", r.wallSec, r.cpuSec,
                          (unsigned long long)r.steal,
                          (unsigned long long)r.chunks(),
                          (unsigned long long)fewest, r.worstP50(),
                          r.worstP99(), r.statP99());
            roundNoise += buf;
        }
    };
    noteRounds(rounds, false);
    noteRounds(traced, true);
    char gen[64];
    std::snprintf(gen, sizeof gen, "%.6f", inputs.generateSec);
    const std::string noise = "{\"generate_s\":" + std::string(gen) +
                              ",\"setups\":[" + setupNoise +
                              "],\"rounds\":[" + roundNoise + "]}";
    std::printf("noise %s\n", noise.c_str());

    std::string digests;
    for (const SessionOutcome &o : rounds.front().sessions)
        digests += (digests.empty() ? "\"" : ",\"") + o.name + "\":\"" +
                   hex64(o.digest) + "\"";
    const std::string metrics = args.trace ? layers.json() : e2e.json();
    ensureDir(kOutDir);
    if (std::FILE *f = std::fopen((kOutDir + "/results.jsonl").c_str(),
                                  "a")) {
        std::fprintf(f,
                     "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
                     "\"tiny\":%s,\"correct\":%s,\"host\":%s,\"noise\":%s,"
                     "\"digests\":{%s},\"end_to_end\":%s,\"metrics\":%s}\n",
                     spec.name, (unsigned long long)args.seed,
                     args.trace ? 1 : 0, args.tiny ? "true" : "false",
                     correct ? "true" : "false", host.c_str(), noise.c_str(),
                     digests.c_str(), e2e.json().c_str(), metrics.c_str());
        std::fclose(f);
    }

    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                (unsigned long long)verdict.attempted,
                (unsigned long long)verdict.failed, metrics.c_str());
    return correct ? 0 : 1;
}
