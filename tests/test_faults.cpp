/**
 * @file
 * Tests for the fault-injection and degradation layer: scripted
 * channel dropouts, capture storms, per-pore wear + wash revival, and
 * mid-session reference hot-swap (stream::FaultPlan).  The anchor
 * invariant mirrors the clean engine's: for a fixed (seed, config,
 * reads, FaultPlan) the decision log is bit-identical across worker
 * counts and queue capacities — faults fire on the virtual clock, so
 * hostile conditions must not cost one bit of determinism.  Chunk
 * conservation (emitted == folded + aborted, the "never drops a
 * chunk" ledger) is asserted on every run here and panics inside the
 * engine if it ever breaks.
 *
 * Runs under the `stream` label (one process under TSan, where the
 * fault paths are exercised against the real worker pool).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "pipeline/experiments.hpp"
#include "sdtw/filter.hpp"
#include "stream/decision_pool.hpp"
#include "stream/fault_plan.hpp"
#include "stream/session.hpp"

namespace sf::stream {
namespace {

// Same TSan compute-shrink policy as tests/test_stream.cpp: shrink
// the fixture compute, keep the concurrency at full strength.
#if defined(__SANITIZE_THREAD__)
constexpr std::size_t kCalibrationReads = 8;
constexpr std::size_t kDatasetReads = 10;
constexpr int kChannels = 4;
constexpr std::size_t kStages = 4;
const std::vector<unsigned> kWorkerCounts = {4};
#else
constexpr std::size_t kCalibrationReads = 40;
constexpr std::size_t kDatasetReads = 24;
constexpr int kChannels = 4;
constexpr std::size_t kStages = 6;
const std::vector<unsigned> kWorkerCounts = {1, 4, 8};
#endif

/** Each fault event's ledger field and the live gauge that mirrors it. */
const std::pair<std::uint64_t DegradationStats::*,
                std::atomic<std::uint64_t> LiveDegradation::*>
    kFaultGauges[] = {
        {&DegradationStats::dropouts, &LiveDegradation::dropouts},
        {&DegradationStats::recoveries, &LiveDegradation::recoveries},
        {&DegradationStats::readsAborted, &LiveDegradation::abortedReads},
        {&DegradationStats::poresWorn, &LiveDegradation::poresWorn},
        {&DegradationStats::poresRevived, &LiveDegradation::poresRevived},
        {&DegradationStats::washes, &LiveDegradation::washes},
        {&DegradationStats::hotSwapEpochs, &LiveDegradation::hotSwapEpochs},
        {&DegradationStats::stormWindows, &LiveDegradation::stormWindows},
};

class FaultTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kChunk = 1600; // 0.4 s at 4 kHz

    static const sdtw::SquiggleFilterClassifier &
    classifier()
    {
        static const sdtw::SquiggleFilterClassifier instance = [] {
            sdtw::SquiggleFilterClassifier c(
                pipeline::streamVirusSquiggle());
            c.setStages(sdtw::uniformStageSchedule(
                kChunk, kStages,
                pipeline::calibratedStreamThreshold(kCalibrationReads,
                                                    0.5, 11)));
            return c;
        }();
        return instance;
    }

    /** Same reference, keep-everything thresholds: a valid hot-swap
        target (kernel config identical) with an unmissable effect on
        the log — every read captured under it is kept. */
    static const sdtw::SquiggleFilterClassifier &
    keepAllClassifier()
    {
        static const sdtw::SquiggleFilterClassifier instance = [] {
            sdtw::SquiggleFilterClassifier c(
                pipeline::streamVirusSquiggle());
            c.setSingleStage(kChunk,
                             std::numeric_limits<Cost>::max());
            return c;
        }();
        return instance;
    }

    static SessionConfig
    config(unsigned workers = 2)
    {
        SessionConfig cfg;
        cfg.channels = kChannels;
        cfg.chunkSeconds = double(kChunk) / cfg.sampleRateHz;
        cfg.workers = workers;
        cfg.queueCapacity = 32;
        cfg.dispatchBatch = 4;
        cfg.seed = 0xfa01;
        return cfg;
    }

    static const signal::Dataset &
    reads()
    {
        return pipeline::makeStreamDataset(kDatasetReads, 0.5, 31);
    }

    static SessionResult
    run(const SessionConfig &cfg,
        const sdtw::SquiggleFilterClassifier &cls = classifier())
    {
        return ReadUntilSession(cls, cfg).run(reads().reads);
    }

    static void
    expectLogsEqual(const SessionResult &a, const SessionResult &b,
                    const std::string &context)
    {
        ASSERT_EQ(a.log.size(), b.log.size()) << context;
        for (std::size_t i = 0; i < a.log.size(); ++i) {
            EXPECT_EQ(a.log[i].channel, b.log[i].channel) << context;
            EXPECT_EQ(a.log[i].readId, b.log[i].readId) << context;
            EXPECT_EQ(a.log[i].keep, b.log[i].keep) << context;
            EXPECT_EQ(a.log[i].cost, b.log[i].cost) << context;
            EXPECT_EQ(a.log[i].samplesUsed, b.log[i].samplesUsed)
                << context;
            EXPECT_DOUBLE_EQ(a.log[i].virtualSec, b.log[i].virtualSec)
                << context;
        }
    }

    /** The "never drops a chunk" ledger must balance on every run
        (the engine also panics internally if it cannot). */
    static void
    expectChunksConserved(const SessionResult &r,
                          const std::string &context)
    {
        EXPECT_EQ(r.stats.chunksEmitted,
                  r.stats.degradation.chunksFolded +
                      r.stats.degradation.chunksAborted)
            << context;
    }
};

// ---------------------------------------------------------------- //
//                  plan validation and clean no-op                  //
// ---------------------------------------------------------------- //

TEST_F(FaultTest, InvalidPlansAreFatal)
{
    {
        FaultPlan plan;
        plan.dropout(kChannels, 1.0, 1.0); // channel out of range
        SessionConfig cfg = config();
        cfg.faults = &plan;
        EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);
    }
    {
        FaultPlan plan;
        plan.storm(1.0, -1.0, 2.0); // non-positive duration
        SessionConfig cfg = config();
        cfg.faults = &plan;
        EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);
    }
    {
        FaultPlan plan;
        plan.hotSwap(1.0, nullptr);
        SessionConfig cfg = config();
        cfg.faults = &plan;
        EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);
    }
    {
        // A hot-swap target that disagrees on the kernel config would
        // invalidate shared worker kernels: rejected up front.
        static const sdtw::SquiggleFilterClassifier vanilla(
            pipeline::streamVirusSquiggle(), sdtw::vanillaConfig());
        FaultPlan plan;
        plan.hotSwap(1.0, &vanilla);
        SessionConfig cfg = config();
        cfg.faults = &plan;
        EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);
    }

    // NaN passes every ordered comparison: each time, duration, factor
    // and wear parameter is rejected as non-finite first.
    const double nan = std::nan("");
    const auto wear_with = [](double readuntil::PoreWearModel::*field,
                              double value) {
        readuntil::PoreWearModel model;
        model.*field = value;
        return FaultPlan().enableWear(model, 1);
    };
    const std::pair<const char *, FaultPlan> nan_plans[] = {
        {"dropout at", FaultPlan().dropout(0, nan, 1.0)},
        {"dropout down", FaultPlan().dropout(0, 1.0, nan)},
        {"storm at", FaultPlan().storm(nan, 1.0, 2.0)},
        {"storm duration", FaultPlan().storm(1.0, nan, 2.0)},
        {"storm factor", FaultPlan().storm(1.0, 1.0, nan)},
        {"hot-swap at", FaultPlan().hotSwap(nan, &classifier())},
        {"wash at", FaultPlan().wash(nan)},
        {"wear death rate",
         wear_with(&readuntil::PoreWearModel::deathRatePerHour, nan)},
        {"wear reversal factor",
         wear_with(&readuntil::PoreWearModel::reversalWearFactor, nan)},
        {"wear remux recovery",
         wear_with(&readuntil::PoreWearModel::remuxRecovery, nan)},
    };
    for (const auto &[name, plan] : nan_plans) {
        SessionConfig cfg = config();
        cfg.faults = &plan;
        EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError)
            << name;
    }
}

TEST_F(FaultTest, EmptyPlanMatchesCleanRunBitExactly)
{
    const SessionResult clean = run(config());
    FaultPlan plan; // attached but empty: must change nothing
    SessionConfig cfg = config();
    cfg.faults = &plan;
    const SessionResult faulted = run(cfg);
    expectLogsEqual(faulted, clean, "empty plan");
    expectChunksConserved(faulted, "empty plan");
    EXPECT_EQ(faulted.stats.degradation.dropouts, 0u);
    EXPECT_EQ(faulted.stats.degradation.deadChannelsAtEnd, 0u);
    // Every channel pristine: the histogram holds them all in bin 0.
    EXPECT_EQ(faulted.stats.degradation.wearHistogram[0],
              std::uint64_t(kChannels));
}

// ---------------------------------------------------------------- //
//                       dropout and recovery                        //
// ---------------------------------------------------------------- //

TEST_F(FaultTest, DropoutRecoveryIsDeterministicAcrossWorkerCounts)
{
    FaultPlan plan;
    plan.dropout(1, 0.8, 3.0).dropout(2, 1.5, 2.0);
    SessionConfig cfg = config();
    cfg.faults = &plan;

    const SessionResult oracle = run(cfg);
    expectChunksConserved(oracle, "dropout oracle");
    EXPECT_EQ(oracle.stats.degradation.dropouts, 2u);
    EXPECT_EQ(oracle.stats.degradation.recoveries, 2u);
    EXPECT_EQ(oracle.stats.degradation.deadChannelsAtEnd, 0u);
    // Recovered channels sequence on: every read is eventually either
    // decided or accounted aborted, none stranded.
    EXPECT_EQ(oracle.log.size() + oracle.stats.degradation.readsAborted,
              reads().reads.size());

    for (unsigned workers : kWorkerCounts) {
        SessionConfig wcfg = cfg;
        wcfg.workers = workers;
        wcfg.queueCapacity = workers == 1 ? 4 : 32;
        const SessionResult r = run(wcfg);
        expectLogsEqual(r, oracle,
                        "dropout workers=" + std::to_string(workers));
        expectChunksConserved(
            r, "dropout workers=" + std::to_string(workers));
        EXPECT_EQ(r.stats.degradation.readsAborted,
                  oracle.stats.degradation.readsAborted);
    }
}

TEST_F(FaultTest, PermanentDropoutParksTheChannelForGood)
{
    FaultPlan plan;
    plan.dropout(0, 1.0, 0.0); // downSec <= 0: never recovers
    SessionConfig cfg = config();
    cfg.faults = &plan;

    const SessionResult r = run(cfg);
    expectChunksConserved(r, "permanent dropout");
    EXPECT_EQ(r.stats.degradation.dropouts, 1u);
    EXPECT_EQ(r.stats.degradation.recoveries, 0u);
    EXPECT_EQ(r.stats.degradation.deadChannelsAtEnd, 1u);
    // The surviving channels absorb the work: nothing is stranded.
    EXPECT_EQ(r.log.size() + r.stats.degradation.readsAborted,
              reads().reads.size());
    // No decision on the dead channel after the outage moment.
    for (const DecisionRecord &rec : r.log) {
        if (rec.channel == 0) {
            EXPECT_LT(rec.virtualSec, 1.0 + 1e-9);
        }
    }
}

// ---------------------------------------------------------------- //
//                          capture storms                           //
// ---------------------------------------------------------------- //

TEST_F(FaultTest, StormThroughTinyQueueConservesChunksDeterministically)
{
    // A 20x capture storm against a 2-slot queue: the burst outruns
    // the pool, backpressure blocks the capture clocks in wall time,
    // and the log must come out bit-identical to an uncontended run
    // of the same plan — with every chunk accounted for.
    FaultPlan plan;
    plan.storm(0.0, 60.0, 20.0);
    SessionConfig roomy = config(/*workers=*/8);
    roomy.faults = &plan;
    roomy.queueCapacity = 256;
    const SessionResult oracle = run(roomy);
    EXPECT_EQ(oracle.stats.degradation.stormWindows, 1u);
    expectChunksConserved(oracle, "storm oracle");

    SessionConfig tiny = config(/*workers=*/2);
    tiny.faults = &plan;
    tiny.queueCapacity = 2;
    tiny.dispatchBatch = 2;
    const SessionResult r = run(tiny);
    expectLogsEqual(r, oracle, "storm tiny queue");
    expectChunksConserved(r, "storm tiny queue");

    // The storm compresses the capture timeline relative to a clean
    // run: same decisions, earlier virtual clock.
    const SessionResult clean = run(config());
    ASSERT_FALSE(oracle.log.empty());
    ASSERT_FALSE(clean.log.empty());
    EXPECT_LT(oracle.log.front().virtualSec,
              clean.log.front().virtualSec);
}

// ---------------------------------------------------------------- //
//                    pore wear and wash revival                     //
// ---------------------------------------------------------------- //

/** Aggressive wear so pores die within seconds of virtual time. */
readuntil::PoreWearModel
hotWear(double remux_recovery)
{
    readuntil::PoreWearModel model;
    model.deathRatePerHour = 2400.0; // mean lifetime: 1.5 s sequencing
    model.reversalWearFactor = 1.5;
    model.remuxRecovery = remux_recovery;
    return model;
}

TEST_F(FaultTest, WearParksPoresAndWashRevivesThem)
{
    FaultPlan plan;
    plan.enableWear(hotWear(/*remux_recovery=*/1.0), 0x3ea6)
        .wash(6.0)
        .wash(12.0);
    SessionConfig cfg = config();
    cfg.faults = &plan;

    const SessionResult oracle = run(cfg);
    expectChunksConserved(oracle, "wear oracle");
    const DegradationStats &deg = oracle.stats.degradation;
    EXPECT_GT(deg.poresWorn, 0u) << "wear this hot must kill pores";
    EXPECT_EQ(deg.washes, 2u);
    // remuxRecovery = 1.0: every pore worn before a wash is revived.
    EXPECT_GT(deg.poresRevived, 0u);
    // The histogram always accounts every channel exactly once.
    std::uint64_t hist_total = 0;
    for (std::uint64_t bin : deg.wearHistogram)
        hist_total += bin;
    EXPECT_EQ(hist_total, std::uint64_t(kChannels));
    // Worn pores accumulated real hazard: someone left bin 0.
    EXPECT_LT(deg.wearHistogram[0], std::uint64_t(kChannels));

    for (unsigned workers : kWorkerCounts) {
        SessionConfig wcfg = cfg;
        wcfg.workers = workers;
        const SessionResult r = run(wcfg);
        expectLogsEqual(r, oracle,
                        "wear workers=" + std::to_string(workers));
        EXPECT_EQ(r.stats.degradation.poresWorn, deg.poresWorn);
        EXPECT_EQ(r.stats.degradation.poresRevived, deg.poresRevived);
    }
}

TEST_F(FaultTest, WashWithZeroRecoveryRevivesNothing)
{
    FaultPlan plan;
    plan.enableWear(hotWear(/*remux_recovery=*/0.0), 0x3ea6).wash(6.0);
    SessionConfig cfg = config();
    cfg.faults = &plan;

    const SessionResult r = run(cfg);
    expectChunksConserved(r, "wash zero recovery");
    EXPECT_GT(r.stats.degradation.poresWorn, 0u);
    EXPECT_EQ(r.stats.degradation.poresRevived, 0u);
    EXPECT_EQ(r.stats.degradation.deadChannelsAtEnd,
              r.stats.degradation.poresWorn);
}

// ---------------------------------------------------------------- //
//                       reference hot-swap                          //
// ---------------------------------------------------------------- //

TEST_F(FaultTest, HotSwapQuiescesAtReadBoundaries)
{
    constexpr double kSwapAt = 2.0;
    FaultPlan plan;
    plan.hotSwap(kSwapAt, &keepAllClassifier());
    SessionConfig cfg = config();
    cfg.faults = &plan;

    const SessionResult swapped = run(cfg);
    const SessionResult baseline = run(config());
    expectChunksConserved(swapped, "hot swap");
    EXPECT_EQ(swapped.stats.degradation.hotSwapEpochs, 1u);

    // Quiesce contract, side 1: nothing BEFORE the swap moves — the
    // two runs share every decision applied before kSwapAt.
    std::size_t prefix = 0;
    while (prefix < swapped.log.size() &&
           prefix < baseline.log.size() &&
           baseline.log[prefix].virtualSec < kSwapAt)
        ++prefix;
    for (std::size_t i = 0; i < prefix; ++i) {
        EXPECT_EQ(swapped.log[i].readId, baseline.log[i].readId);
        EXPECT_EQ(swapped.log[i].keep, baseline.log[i].keep);
        EXPECT_EQ(swapped.log[i].cost, baseline.log[i].cost);
    }

    // Side 2: reads captured AFTER the swap run under the keep-all
    // reference.  Three structural consequences, none dependent on
    // the dataset outlasting a drain horizon:
    //  (a) stragglers are bounded — at the swap each channel holds at
    //      most one in-flight read (which finishes under the old
    //      classifier), and every later capture binds keep-all, so at
    //      most kChannels ejects can ever apply after kSwapAt;
    //  (b) beyond the longest-read drain horizon no pre-swap capture
    //      can still be deciding, so every decision keeps;
    //  (c) the swap visibly changed the log: stragglers were captured
    //      before any divergence, so their decisions equal the
    //      baseline's — a post-kSwapAt keep the baseline ejected can
    //      only come from a read captured under the new reference.
    std::map<std::uint64_t, bool> baseline_keep;
    for (const DecisionRecord &rec : baseline.log)
        baseline_keep[rec.readId] = rec.keep;
    const double max_read_sec =
        [&] {
            std::size_t longest = 0;
            for (const auto &read : reads().reads)
                longest = std::max(longest, read.raw.size());
            return double(longest) / cfg.sampleRateHz;
        }() +
        2.0 * cfg.chunkSeconds;
    std::size_t stragglers = 0;
    std::size_t flipped = 0;
    for (const DecisionRecord &rec : swapped.log) {
        if (rec.virtualSec <= kSwapAt)
            continue;
        if (!rec.keep)
            ++stragglers;
        const auto base = baseline_keep.find(rec.readId);
        if (rec.keep && base != baseline_keep.end() && !base->second)
            ++flipped;
        if (rec.virtualSec > kSwapAt + max_read_sec) {
            EXPECT_TRUE(rec.keep)
                << "read decided at t=" << rec.virtualSec
                << " ignored the swapped-in keep-all reference";
        }
    }
    EXPECT_LE(stragglers, std::size_t(kChannels))
        << "more post-swap ejects than channels: a read captured "
           "after the swap decided under the old reference";
    EXPECT_GT(flipped, 0u)
        << "the swap left no trace: no post-swap read was kept where "
           "the baseline ejected it";

    // Determinism under faults extends to the swap.
    for (unsigned workers : kWorkerCounts) {
        SessionConfig wcfg = cfg;
        wcfg.workers = workers;
        expectLogsEqual(run(wcfg), swapped,
                        "hot swap workers=" + std::to_string(workers));
    }
}

// ---------------------------------------------------------------- //
//               everything at once, deterministically               //
// ---------------------------------------------------------------- //

TEST_F(FaultTest, CombinedHostilePlanStaysDeterministic)
{
    // All four fault classes in one schedule — the standalone
    // equivalent of the soak gate's scripted hostile run.
    FaultPlan plan;
    plan.dropout(0, 0.9, 2.5)
        .dropout(3, 2.0, 0.0)
        .storm(1.0, 4.0, 10.0)
        .hotSwap(6.0, &keepAllClassifier())
        .enableWear(hotWear(0.8), 0x5eed)
        .wash(8.0);
    SessionConfig cfg = config();
    cfg.faults = &plan;

    const SessionResult oracle = run(cfg);
    expectChunksConserved(oracle, "combined oracle");
    const DegradationStats &deg = oracle.stats.degradation;
    // A channel already parked by wear skips its scripted dropout, so
    // only the schedule bounds the count — the cross-worker EXPECTs
    // below pin the exact value.
    EXPECT_LE(deg.dropouts, 2u);
    EXPECT_EQ(deg.stormWindows, 1u);
    EXPECT_EQ(deg.hotSwapEpochs, 1u);
    EXPECT_EQ(deg.washes, 1u);

    for (unsigned workers : kWorkerCounts) {
        SessionConfig wcfg = cfg;
        wcfg.workers = workers;
        wcfg.queueCapacity = workers == 1 ? 2 : 32;
        const SessionResult r = run(wcfg);
        expectLogsEqual(
            r, oracle,
            "combined workers=" + std::to_string(workers));
        expectChunksConserved(
            r, "combined workers=" + std::to_string(workers));
        EXPECT_EQ(r.stats.degradation.readsAborted, deg.readsAborted);
        EXPECT_EQ(r.stats.degradation.poresWorn, deg.poresWorn);
    }

    // Stopped early on the faulted flowcell, the teardown leaves the
    // full run's log up to the stop and a balanced ledger, and no
    // fault is counted more often than in the full run.  At 3 virtual
    // seconds — after channel 0's dropout, inside the storm — the
    // 43 us decision latency leaves nothing in flight, so a second
    // input holds each decision for a chunk period and stops at
    // 2.25 s, after both dropouts, where one is still in flight.
    SessionConfig at3 = cfg;
    at3.maxVirtualHours = 3.0 / 3600.0;
    SessionConfig slow = cfg;
    slow.decisionLatencySec = slow.chunkSeconds;
    const SessionResult slow_full = run(slow);
    slow.maxVirtualHours = 2.25 / 3600.0;
    const std::pair<SessionConfig, const SessionResult *> stops[] = {
        {at3, &oracle}, {slow, &slow_full}};
    for (const auto &[stop_cfg, full] : stops)
        for (unsigned workers : {1u, 4u}) {
            SessionConfig scfg = stop_cfg;
            scfg.workers = workers;
            scfg.queueCapacity = 2;
            const double stop_sec = scfg.maxVirtualHours * 3600.0;
            const SessionResult s = run(scfg);
            const std::string context =
                "stopped at " + std::to_string(stop_sec) +
                " s workers=" + std::to_string(workers);
            ASSERT_LE(s.log.size(), full->log.size()) << context;
            for (std::size_t i = 0; i < s.log.size(); ++i) {
                const DecisionRecord &a = full->log[i];
                const DecisionRecord &b = s.log[i];
                EXPECT_EQ(a.order, b.order) << context;
                EXPECT_EQ(a.channel, b.channel) << context;
                EXPECT_EQ(a.readId, b.readId) << context;
                EXPECT_EQ(a.isTarget, b.isTarget) << context;
                EXPECT_EQ(a.keep, b.keep) << context;
                EXPECT_EQ(a.cost, b.cost) << context;
                EXPECT_EQ(a.samplesUsed, b.samplesUsed) << context;
                EXPECT_EQ(a.stagesRun, b.stagesRun) << context;
                EXPECT_EQ(a.virtualSec, b.virtualSec) << context;
            }
            if (s.log.size() < full->log.size()) {
                EXPECT_GT(full->log[s.log.size()].virtualSec, stop_sec)
                    << context;
            }
            expectChunksConserved(s, context);
            for (const auto &[ledger, gauge] : kFaultGauges)
                EXPECT_LE(s.stats.degradation.*ledger,
                          full->stats.degradation.*ledger)
                    << context;
        }

    // The same plan through runShared on a caller-owned pool and live
    // counters.  Its permanent dropout, recoverable outage and worn
    // pores move the dead and recovering gauges on paths no fleet test
    // plan reaches; once the run finishes every gauge equals its
    // ledger field.
    PoolConfig pool_config;
    pool_config.workers = cfg.workers;
    pool_config.queueCapacity = cfg.queueCapacity;
    pool_config.dispatchBatch = cfg.dispatchBatch;
    pool_config.statBurst = 1;
    pool_config.dispatchLingerUs = 0;
    DecisionPool pool(pool_config);
    const std::uint32_t id =
        pool.registerSession(QosClass::Stat, cfg.backend);
    pool.start(classifier().config());
    SessionLiveCounters live;
    const SessionResult shared = ReadUntilSession(classifier(), cfg)
                                     .runShared(pool, reads().reads, id,
                                                &live);
    pool.shutdown();
    expectLogsEqual(shared, oracle, "combined runShared");
    const DegradationStats &sdeg = shared.stats.degradation;
    const LiveDegradation &gauges = live.degradation;
    EXPECT_TRUE(live.finished.load());
    for (const auto &[ledger, gauge] : kFaultGauges)
        EXPECT_EQ((gauges.*gauge).load(), sdeg.*ledger);
    EXPECT_EQ(gauges.deadChannels.load(), sdeg.deadChannelsAtEnd);
    EXPECT_EQ(gauges.recoveringChannels.load(), 0u);
    for (std::size_t b = 0; b < kWearBuckets; ++b)
        EXPECT_EQ(gauges.wearBuckets[b].load(), sdeg.wearHistogram[b])
            << "wear bucket " << b;
}

} // namespace
} // namespace sf::stream
