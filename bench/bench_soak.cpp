/**
 * @file
 * Hostile-conditions soak harness: an 8-session fleet driven through
 * a scripted fault schedule — channel dropouts (some permanent),
 * capture storms against a deliberately small shared queue, hot pore
 * wear with a mid-run nuclease wash, and a mid-session reference
 * hot-swap — repeated at every worker count under test.
 *
 * The gate (scripts/soak_gate.sh) holds the run to three invariants:
 *
 *  1. never drops a chunk: per session and per run,
 *     chunksEmitted == chunksFolded + chunksAborted (the engine also
 *     panics internally on violation);
 *  2. never deadlocks: the whole sweep finishes inside
 *     SF_SOAK_BUDGET_SEC (enforced by the gate script via timeout);
 *  3. bit-identical decisions: for a fixed (seed, fault plan) every
 *     session's decision log and DegradationStats are identical at
 *     every worker count.
 *
 * Environment knobs (documented in docs/OPERATIONS.md):
 *   SF_SOAK_SESSIONS  fleet size (default 8)
 *   SF_SOAK_WORKERS   comma-separated worker counts (default 1,4,8)
 *   SF_SOAK_READS     reads per session (default 24)
 *   SF_SOAK_CHANNELS  pores per session (default 8)
 *
 * Emits one BENCH_SOAK_JSON line consumed by scripts/soak_gate.sh.
 * Exit status is non-zero when any invariant fails in-process.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "fleet/orchestrator.hpp"
#include "stream/fault_plan.hpp"
#include "stream/session.hpp"

using namespace sf;

namespace {

constexpr std::size_t kChunkSamples = 1600; // 0.4 s at 4 kHz
constexpr std::size_t kStages = 9;

} // namespace

int
main()
{
    bench::banner("Hostile-conditions soak: faulted fleet across "
                  "worker counts",
                  "degradation contract, docs/OPERATIONS.md");

    const std::size_t sessions = envSize("SF_SOAK_SESSIONS", 8);
    const std::size_t reads_per_session = envSize("SF_SOAK_READS", 24);
    const int channels = int(envSize("SF_SOAK_CHANNELS", 8));
    const std::vector<unsigned> worker_counts =
        envUnsignedCsv("SF_SOAK_WORKERS", {1, 4, 8});

    // Primary classifier, and a kernel-identical hot-swap target with
    // a deliberately different operating point (keep-everything) so a
    // swap that silently failed to apply would flip decisions.
    sdtw::SquiggleFilterClassifier classifier(
        pipeline::streamVirusSquiggle());
    classifier.setStages(sdtw::uniformStageSchedule(
        kChunkSamples, kStages,
        pipeline::calibratedStreamThreshold(pipeline::scaledReads(40),
                                            0.5, 11)));
    sdtw::SquiggleFilterClassifier swap_target(
        pipeline::streamVirusSquiggle());
    swap_target.setSingleStage(kChunkSamples,
                               std::numeric_limits<Cost>::max());

    // The scripted fault schedule, one plan per session: staggered
    // dropouts (one permanent per session), two storm windows wide
    // enough to slam the small shared queue, hot wear with one wash,
    // and a mid-run reference hot-swap on the even sessions.
    readuntil::PoreWearModel wear;
    wear.deathRatePerHour = 900.0; // mean pore lifetime: 4 s sequencing
    wear.reversalWearFactor = 1.2;
    wear.remuxRecovery = 0.6;
    std::vector<stream::FaultPlan> plans(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
        stream::FaultPlan &plan = plans[i];
        plan.dropout(int(i) % channels, 0.7 + 0.2 * double(i), 2.5)
            .dropout(int(i + 1) % channels, 4.0, 0.0) // permanent
            .storm(0.5, 3.0, 12.0)
            .storm(6.0, 2.0, 6.0)
            .enableWear(wear, 0x3ea6 + i)
            .wash(8.0);
        if (i % 2 == 0)
            plan.hotSwap(5.0, &swap_target);
    }

    const auto sessionConfig = [&](std::size_t i) {
        stream::SessionConfig cfg;
        cfg.channels = channels;
        cfg.chunkSeconds = double(kChunkSamples) / cfg.sampleRateHz;
        // Software-class decision budget of one chunk period keeps
        // every channel's request in flight while its next chunk
        // surfaces — the storm bursts then genuinely pile into the
        // small shared queue and must be absorbed by backpressure.
        cfg.decisionLatencySec = cfg.chunkSeconds;
        cfg.captureDelayMeanSec = 0.5; // busy pores: storms bite
        cfg.seed = 0x50a4 + i;
        cfg.faults = &plans[i];
        return cfg;
    };

    // One soak pass per worker count; pass 0 is the oracle.
    struct Pass
    {
        unsigned workers = 0;
        fleet::FleetResult result;
    };
    std::vector<Pass> passes;
    for (unsigned workers : worker_counts) {
        fleet::FleetConfig cfg;
        cfg.workers = workers;
        cfg.queueCapacity = 16; // small on purpose: storms must block
        cfg.dispatchBatch = 8;
        cfg.statBurst = 4;
        fleet::FleetOrchestrator fleet(cfg);
        for (std::size_t i = 0; i < sessions; ++i) {
            fleet::SessionSpec spec;
            spec.name = "cell-" + std::to_string(i);
            spec.classifier = &classifier;
            spec.config = sessionConfig(i);
            spec.qos = i % 2 == 0 ? fleet::QosClass::Stat
                                  : fleet::QosClass::Research;
            spec.reads = pipeline::makeStreamDataset(
                             reads_per_session, 0.5,
                             41 + std::uint64_t(i))
                             .reads;
            fleet.addSession(std::move(spec));
        }
        passes.push_back(Pass{workers, fleet.run()});
    }

    // ---- invariant 1: chunk conservation, every session, every pass.
    bool conserved = true;
    std::uint64_t total_emitted = 0, total_folded = 0,
                  total_aborted = 0;
    for (const Pass &pass : passes) {
        for (const auto &session : pass.result.sessions) {
            const auto &stats = session.result.stats;
            const auto &deg = stats.degradation;
            if (stats.chunksEmitted !=
                deg.chunksFolded + deg.chunksAborted) {
                conserved = false;
                std::fprintf(stderr,
                             "CONSERVATION VIOLATED %s workers=%u: "
                             "%llu emitted vs %llu folded + %llu "
                             "aborted\n",
                             session.name.c_str(), pass.workers,
                             (unsigned long long)stats.chunksEmitted,
                             (unsigned long long)deg.chunksFolded,
                             (unsigned long long)deg.chunksAborted);
            }
        }
    }
    for (const auto &session : passes.front().result.sessions) {
        const auto &stats = session.result.stats;
        total_emitted += stats.chunksEmitted;
        total_folded += stats.degradation.chunksFolded;
        total_aborted += stats.degradation.chunksAborted;
    }

    // ---- invariant 3: logs and ledgers identical across workers.
    bool logs_match = true;
    const Pass &oracle = passes.front();
    for (std::size_t p = 1; p < passes.size(); ++p) {
        for (std::size_t i = 0; i < sessions; ++i) {
            const auto &a = oracle.result.sessions[i].result;
            const auto &b = passes[p].result.sessions[i].result;
            if (a.log != b.log ||
                a.stats.degradation != b.stats.degradation) {
                logs_match = false;
                std::fprintf(
                    stderr,
                    "DETERMINISM VIOLATED cell-%zu: workers=%u "
                    "diverges from workers=%u\n",
                    i, passes[p].workers, oracle.workers);
            }
        }
    }

    // ---- degradation ledger of the oracle pass (deterministic part
    // is identical in every pass; backpressure stalls are wall-clock
    // and legitimately vary).
    const fleet::FaultLedger &ledger = oracle.result.snapshot.faults;
    double wall_total = 0.0;
    std::uint64_t stalls_total = 0;
    for (const Pass &pass : passes) {
        wall_total += pass.result.snapshot.wallSeconds;
        stalls_total += pass.result.snapshot.faults.backpressureStalls;
    }

    std::string workers_str;
    for (unsigned w : worker_counts)
        workers_str += (workers_str.empty() ? "" : ",") +
                       std::to_string(w);

    Table table("Soak: " + std::to_string(sessions) + " flowcells x " +
                    std::to_string(channels) +
                    " channels, workers {" + workers_str + "}",
                {"Invariant / metric", "Value"});
    table.addRow({"chunks emitted (per pass)",
                  std::to_string(total_emitted)});
    table.addRow({"chunks folded + aborted",
                  std::to_string(total_folded) + " + " +
                      std::to_string(total_aborted)});
    table.addRow({"conservation (never drops)",
                  conserved ? "HOLDS" : "VIOLATED"});
    table.addRow({"logs bit-identical across workers",
                  logs_match ? "HOLDS" : "VIOLATED"});
    table.addRow({"dropouts / recoveries",
                  std::to_string(ledger.dropouts) + " / " +
                      std::to_string(ledger.recoveries)});
    table.addRow({"reads aborted",
                  std::to_string(ledger.abortedReads)});
    table.addRow({"pores worn / revived",
                  std::to_string(ledger.poresWorn) + " / " +
                      std::to_string(ledger.poresRevived)});
    table.addRow({"storm windows / hot swaps / washes",
                  std::to_string(ledger.stormWindows) + " / " +
                      std::to_string(ledger.hotSwapEpochs) + " / " +
                      std::to_string(ledger.washes)});
    table.addRow({"dead channels at end",
                  std::to_string(ledger.deadChannels)});
    table.addRow({"backpressure stalls (all passes)",
                  std::to_string(stalls_total)});
    table.addRow({"wall seconds (all passes)", fmt(wall_total, 2)});
    table.print();

    std::printf("Final fleet snapshot (oracle pass, workers=%u):\n%s\n",
                oracle.workers,
                oracle.result.snapshot.toJson().c_str());

    // Machine-readable line consumed by scripts/soak_gate.sh.
    std::printf(
        "BENCH_SOAK_JSON {\"sessions\": %zu, \"channels\": %d, "
        "\"reads_per_session\": %zu, \"worker_counts\": [%s], "
        "\"chunks_emitted\": %llu, \"chunks_folded\": %llu, "
        "\"chunks_aborted\": %llu, \"conserved\": %s, "
        "\"logs_match\": %s, \"dropouts\": %llu, "
        "\"recoveries\": %llu, \"aborted_reads\": %llu, "
        "\"worn_pores\": %llu, \"revived_pores\": %llu, "
        "\"washes\": %llu, \"hot_swap_epochs\": %llu, "
        "\"storm_windows\": %llu, \"dead_channels\": %llu, "
        "\"backpressure_stalls\": %llu, \"wall_s\": %.2f}\n",
        sessions, channels, reads_per_session, workers_str.c_str(),
        (unsigned long long)total_emitted,
        (unsigned long long)total_folded,
        (unsigned long long)total_aborted,
        conserved ? "true" : "false", logs_match ? "true" : "false",
        (unsigned long long)ledger.dropouts,
        (unsigned long long)ledger.recoveries,
        (unsigned long long)ledger.abortedReads,
        (unsigned long long)ledger.poresWorn,
        (unsigned long long)ledger.poresRevived,
        (unsigned long long)ledger.washes,
        (unsigned long long)ledger.hotSwapEpochs,
        (unsigned long long)ledger.stormWindows,
        (unsigned long long)ledger.deadChannels,
        (unsigned long long)stalls_total, wall_total);

    return conserved && logs_match ? 0 : 1;
}
