/**
 * @file
 * Fleet serving bench: N flowcell sessions on one shared worker pool
 * (fleet::FleetOrchestrator) versus the same N sessions run isolated,
 * one at a time, each with a pool of its own.
 *
 * The point under measurement is cross-session SIMD lane folding.  A
 * half-loaded flowcell (8 channels here) never has enough concurrent
 * decision requests to reach the lane kernel's serial cutover, so an
 * isolated session folds every dispatch through the serial engine.
 * The shared pool sees all sessions' requests in one queue, and one
 * worker dispatch folds them together at full SIMD width.  Decisions
 * are bit-identical either way (verified below); only wall-clock
 * throughput moves.
 *
 * Environment knobs (documented in the README):
 *   SF_FLEET_SESSIONS    fleet size (default 8)
 *   SF_FLEET_WORKERS     shared-pool worker threads (default 1, same
 *                        for the isolated control runs)
 *
 * Emits one BENCH_FLEET_JSON line consumed by scripts/bench_gate.py
 * and tracked in BENCH_fleet.json.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "fleet/orchestrator.hpp"
#include "sdtw/batch.hpp"
#include "stream/session.hpp"

using namespace sf;

namespace {

constexpr std::size_t kChunkSamples = 1600; // 0.4 s at 4 kHz
constexpr std::size_t kStages = 9;
// Half-loaded flowcell: with the short-read stream dataset (~1-2
// chunks per read) and the capture/recovery gaps below, a session
// averages a handful of concurrent in-flight decisions — below the
// SIMD serial cutover of every backend, so an isolated session folds
// serially while the fleet's pooled requests cross the cutover.
constexpr int kChannelsPerSession = 8;

stream::SessionConfig
sessionConfig(std::size_t i)
{
    stream::SessionConfig cfg;
    cfg.channels = kChannelsPerSession;
    cfg.chunkSeconds = double(kChunkSamples) / cfg.sampleRateHz;
    // Software-class decision budget of one full chunk period: each
    // decision is still in flight when the channel's next chunk
    // surfaces, so every channel keeps one request in the pool at all
    // times and a session continuously offers kChannelsPerSession
    // concurrent requests — enough for the FLEET to cross the SIMD
    // serial cutover while one isolated session stays below it.
    cfg.decisionLatencySec = cfg.chunkSeconds;
    // Busy pores: short capture and recovery gaps keep the duty
    // cycle high enough that the channel count above, not pore
    // idleness, sets the offered decision concurrency.
    cfg.captureDelayMeanSec = 0.25;
    cfg.ejectLatencySec = 0.2;
    cfg.poreRecoverySec = 0.2;
    cfg.seed = 0xf1ee7 + i;
    return cfg;
}

const signal::Dataset &
sessionReads(std::size_t i)
{
    return pipeline::makeStreamDataset(pipeline::scaledReads(32), 0.5,
                                       31 + std::uint64_t(i));
}

fleet::FleetConfig
fleetConfig(unsigned workers)
{
    fleet::FleetConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = 256;
    cfg.dispatchBatch = 16;
    cfg.statBurst = 4;
    return cfg;
}

fleet::SessionSpec
sessionSpec(const sdtw::SquiggleFilterClassifier &classifier,
            std::size_t i)
{
    fleet::SessionSpec spec;
    spec.name = "cell-" + std::to_string(i);
    spec.classifier = &classifier;
    spec.config = sessionConfig(i);
    spec.qos = i % 2 == 0 ? fleet::QosClass::Stat
                          : fleet::QosClass::Research;
    spec.reads = sessionReads(i).reads;
    return spec;
}

} // namespace

int
main()
{
    bench::banner("Fleet serving: N flowcells, one shared worker pool",
                  "fleet orchestrator");

    // One worker by default: each dispatch then drains the whole
    // queue, so the fleet's cross-session requests meet in one pull
    // (raise SF_FLEET_WORKERS on hosts with cores to spare).  Eight
    // half-loaded flowcells offer ~4 concurrent decisions each, so
    // one QoS class's four sessions together cross the widest SIMD
    // serial cutover (12 lanes for AVX-512) that a lone session
    // never reaches.
    const std::size_t sessions = envSize("SF_FLEET_SESSIONS", 8);
    const unsigned workers = unsigned(envSize("SF_FLEET_WORKERS", 1));
    const char *simd = sdtw::simdBackendName(sdtw::detectSimdBackend());

    sdtw::SquiggleFilterClassifier classifier(
        pipeline::streamVirusSquiggle());
    classifier.setStages(sdtw::uniformStageSchedule(
        kChunkSamples, kStages,
        pipeline::calibratedStreamThreshold(pipeline::scaledReads(40),
                                            0.5, 11)));

    // ---- isolated control: one orchestrator per session, run
    // sequentially.  Same worker count, same queue, same dispatch
    // width — the ONLY delta vs the fleet run is that requests of
    // different sessions can never share a lane batch.
    std::vector<stream::SessionResult> isolated_results;
    double isolated_wall = 0.0;
    std::uint64_t isolated_chunks = 0;
    std::uint64_t isolated_lane_jobs = 0;
    std::uint64_t isolated_lane_slots = 0;
    for (std::size_t i = 0; i < sessions; ++i) {
        fleet::FleetOrchestrator solo(fleetConfig(workers));
        solo.addSession(sessionSpec(classifier, i));
        fleet::FleetResult result = solo.run();
        isolated_wall += result.snapshot.wallSeconds;
        isolated_chunks += result.snapshot.chunksEmitted;
        isolated_lane_jobs += result.snapshot.laneJobs;
        isolated_lane_slots += result.snapshot.laneSlots;
        isolated_results.push_back(
            std::move(result.sessions.front().result));
    }
    const double isolated_cps =
        isolated_wall > 0.0 ? double(isolated_chunks) / isolated_wall
                            : 0.0;
    const double isolated_occ =
        isolated_lane_slots > 0
            ? double(isolated_lane_jobs) / double(isolated_lane_slots)
            : 0.0;

    // ---- fleet run: all sessions sharing one pool.
    fleet::FleetOrchestrator orchestrator(fleetConfig(workers));
    for (std::size_t i = 0; i < sessions; ++i)
        orchestrator.addSession(sessionSpec(classifier, i));
    const fleet::FleetResult result = orchestrator.run();
    const fleet::FleetSnapshot &snap = result.snapshot;

    // Determinism cross-check: every session's fleet log must be
    // bit-identical to its isolated log.
    bool logs_match = true;
    for (std::size_t i = 0; i < sessions; ++i)
        logs_match = logs_match &&
                     result.sessions[i].result.log == isolated_results[i].log;

    double worst_p99 = 0.0;
    for (const auto &session : result.sessions)
        worst_p99 = std::max(worst_p99,
                             session.result.stats.latency.p99us);
    const std::uint64_t stat_dispatches =
        snap.dispatchesByClass[std::size_t(fleet::QosClass::Stat)];
    const double stat_share =
        snap.dispatches > 0
            ? double(stat_dispatches) / double(snap.dispatches)
            : 0.0;
    const double fold_speedup =
        isolated_cps > 0.0 ? snap.chunksPerSec / isolated_cps : 0.0;

    Table table("Fleet vs isolated sessions (" +
                    std::to_string(sessions) + " flowcells x " +
                    std::to_string(kChannelsPerSession) +
                    " channels, shared pool of " +
                    std::to_string(workers) + ")",
                {"Metric", "Isolated", "Fleet"});
    table.addRow({"aggregate chunks/s", fmt(isolated_cps, 2),
                  fmt(snap.chunksPerSec, 2)});
    table.addRow({"wall seconds", fmt(isolated_wall, 2),
                  fmt(snap.wallSeconds, 2)});
    table.addRow({"SIMD lane occupancy", fmt(isolated_occ, 3),
                  fmt(snap.laneOccupancy, 3)});
    table.addRow({"mean requests per dispatch", "-",
                  fmt(snap.meanBatchSize, 2)});
    table.addRow({"worst-session p99 (us)", "-", fmt(worst_p99, 1)});
    table.addRow({"stat dispatch share", "-", fmt(stat_share, 3)});
    table.addRow({"decision logs bit-identical", "-",
                  logs_match ? "yes" : "NO"});
    table.addRow({"worker sDTW path",
                  std::string("lane-batched (") + simd + ")", ""});
    table.print();

    std::printf("Cross-session folding: %.2fx aggregate chunks/s over "
                "isolated sessions (lane occupancy %.3f -> %.3f).\n",
                fold_speedup, isolated_occ, snap.laneOccupancy);

    // Machine-readable line consumed by scripts/bench_gate.py.
    std::printf("BENCH_FLEET_JSON {\"sessions\": %zu, \"workers\": %u, "
                "\"chunks_per_s\": %.2f, \"wall_s\": %.2f, "
                "\"lane_occupancy\": %.4f, \"mean_batch\": %.2f, "
                "\"worst_p99_us\": %.1f, \"stat_share\": %.3f, "
                "\"isolated_chunks_per_s\": %.2f, "
                "\"isolated_occupancy\": %.4f, "
                "\"fold_speedup\": %.3f, \"logs_match\": %s, "
                "\"simd\": \"%s\"}\n",
                sessions, workers, snap.chunksPerSec,
                snap.wallSeconds, snap.laneOccupancy,
                snap.meanBatchSize, worst_p99, stat_share,
                isolated_cps, isolated_occ, fold_speedup,
                logs_match ? "true" : "false", simd);
    return logs_match ? 0 : 1;
}
