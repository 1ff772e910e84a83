/**
 * @file
 * Tests for the streaming Read Until engine: the chunk source and
 * the multi-channel ReadUntilSession — above all that streaming
 * decisions pin bit-identically to the offline classifier and that
 * the decision log is deterministic regardless of worker count,
 * queue capacity, or scheduling contention.  (BoundedQueue itself is
 * covered by tests/test_queue.cpp, in the quick suite.)
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "pipeline/experiments.hpp"
#include "sdtw/filter.hpp"
#include "signal/chunk_source.hpp"
#include "stream/decision_pool.hpp"
#include "stream/session.hpp"

namespace sf::stream {
namespace {

// The BoundedQueue unit and contention tests live in
// tests/test_queue.cpp (quick label) so they run in every check.sh
// mode; this suite covers the engine built on top of it.

// Under ThreadSanitizer every DP-cell access in the sDTW fold is
// instrumented (~100x on the quantised kernels), so the fixture
// compute — threshold calibration, dataset synthesis, session reruns
// — dominates the TSan leg's wall clock.  Shrink the *compute*
// (calibration reads, dataset size, stages per read) while keeping
// the *concurrency* (worker counts, queue capacities, dispatch
// widths) at full strength: every assertion in this suite is an
// internal-consistency pin (streaming vs offline, contended vs
// uncontended), not an absolute number, so it holds at any scale.
#if defined(__SANITIZE_THREAD__)
constexpr std::size_t kCalibrationReads = 8;
constexpr std::size_t kDatasetReads = 12;
constexpr unsigned kChannels = 4;
constexpr std::size_t kStages = 4;
// The offline cross-check in EveryDecisionMatchesOfflineClassify...
// re-aligns full reads serially; cap how many log records it
// replays under TSan (the Release and ASan legs replay them all).
constexpr std::size_t kMaxOfflineReplays = 6;
#else
constexpr std::size_t kCalibrationReads = 40;
constexpr std::size_t kDatasetReads = 48;
constexpr unsigned kChannels = 16;
constexpr std::size_t kStages = 9;
constexpr std::size_t kMaxOfflineReplays = std::size_t(-1);
#endif

// ---------------------------------------------------------------- //
//                           chunk source                            //
// ---------------------------------------------------------------- //

TEST(ChunkSource, EmitsFixedChunksWithShortTail)
{
    signal::ReadRecord read;
    read.raw.resize(2500);
    for (std::size_t i = 0; i < read.raw.size(); ++i)
        read.raw[i] = RawSample(i);

    signal::ChunkSource source(read, 1000);
    ASSERT_FALSE(source.exhausted());
    auto a = source.next();
    EXPECT_EQ(a.size(), 1000u);
    EXPECT_EQ(a.front(), 0u);
    auto b = source.next();
    EXPECT_EQ(b.size(), 1000u);
    EXPECT_EQ(b.front(), 1000u);
    auto c = source.next();
    EXPECT_EQ(c.size(), 500u);
    EXPECT_TRUE(source.exhausted());
    EXPECT_EQ(source.emitted(), 2500u);
    EXPECT_THROW(source.next(), FatalError);
}

// ---------------------------------------------------------------- //
//                        session fixtures                           //
// ---------------------------------------------------------------- //

class SessionTest : public ::testing::Test
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
                kChunk, kStages, calibratedThreshold()));
            return c;
        }();
        return instance;
    }

    static Cost
    calibratedThreshold()
    {
        static const Cost threshold =
            pipeline::calibratedStreamThreshold(kCalibrationReads, 0.5, 11);
        return threshold;
    }

    static SessionConfig
    config()
    {
        SessionConfig cfg;
        cfg.channels = kChannels;
        cfg.chunkSeconds = double(kChunk) / cfg.sampleRateHz;
        cfg.workers = 2;
        cfg.queueCapacity = 32;
        cfg.dispatchBatch = 4;
        cfg.seed = 0xbeef;
        return cfg;
    }

    static const SessionResult &
    baselineRun()
    {
        static const SessionResult result = [] {
            const auto &data =
                pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
            return ReadUntilSession(classifier(), config())
                .run(data.reads);
        }();
        return result;
    }

    /** config() with near-instant captures and every decision held
        for one chunk period: each busy channel always has a decision
        in flight, and its chunks surface with every other channel's. */
    static SessionConfig
    heldConfig()
    {
        SessionConfig cfg = config();
        cfg.captureDelayMeanSec = 1e-3;
        cfg.decisionLatencySec = cfg.chunkSeconds;
        return cfg;
    }

    static const SessionResult &
    heldRun()
    {
        static const SessionResult result = [] {
            const auto &data =
                pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
            return ReadUntilSession(classifier(), heldConfig())
                .run(data.reads);
        }();
        return result;
    }
};

// ---------------------------------------------------------------- //
//              streaming pins to the offline classifier             //
// ---------------------------------------------------------------- //

TEST_F(SessionTest, EveryDecisionMatchesOfflineClassifyBitExactly)
{
    const auto &data = pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
    const auto &result = baselineRun();
    ASSERT_EQ(result.log.size(), data.reads.size());

    std::size_t replayed = 0;
    for (const DecisionRecord &rec : result.log) {
        if (replayed++ == kMaxOfflineReplays)
            break;
        const auto &read = data.reads[std::size_t(rec.readId)];
        ASSERT_EQ(read.id, rec.readId);
        // Offline path over the full read: identical decision, cost,
        // consumed prefix and stage count.
        const auto offline = classifier().classify(read.raw);
        EXPECT_EQ(rec.keep, offline.keep);
        EXPECT_EQ(rec.cost, offline.cost);
        EXPECT_EQ(rec.samplesUsed, offline.samplesUsed);
        EXPECT_EQ(rec.stagesRun, offline.stagesRun);
        // And over exactly the prefix the session consumed.
        const auto prefix = read.prefix(rec.samplesUsed);
        const auto on_prefix = classifier().classify(prefix);
        EXPECT_EQ(rec.keep, on_prefix.keep);
        EXPECT_EQ(rec.cost, on_prefix.cost);
    }
}

TEST_F(SessionTest, DecisionLogDeterministicAcrossWorkerCounts)
{
    const auto &data = pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
    const auto &reference_run = baselineRun();

    for (const unsigned workers : {1u, 3u}) {
        SessionConfig cfg = config();
        cfg.workers = workers;
        const auto rerun =
            ReadUntilSession(classifier(), cfg).run(data.reads);
        ASSERT_EQ(rerun.log.size(), reference_run.log.size())
            << "workers=" << workers;
        for (std::size_t i = 0; i < rerun.log.size(); ++i) {
            const auto &a = reference_run.log[i];
            const auto &b = rerun.log[i];
            EXPECT_EQ(a.order, b.order);
            EXPECT_EQ(a.channel, b.channel);
            EXPECT_EQ(a.readId, b.readId);
            EXPECT_EQ(a.keep, b.keep);
            EXPECT_EQ(a.cost, b.cost);
            EXPECT_EQ(a.samplesUsed, b.samplesUsed);
            EXPECT_EQ(a.stagesRun, b.stagesRun);
            EXPECT_DOUBLE_EQ(a.virtualSec, b.virtualSec);
        }
        EXPECT_EQ(rerun.stats.chunksEmitted,
                  reference_run.stats.chunksEmitted);
        EXPECT_EQ(rerun.stats.decisions, reference_run.stats.decisions);
    }
}

TEST_F(SessionTest, LaneBatchedWorkersMatchOfflineClassifyBitExactly)
{
    // Held decisions keep each wave of chunks queued together, so
    // 16-wide dispatches reach the lane kernel, while heldRun()'s
    // 4-wide ones stay below every backend's serial cutover and fold
    // on the serial engine.  Both logs must equal the offline
    // classifier's calls, costs and DP work included — the fold width
    // may only change wall-clock throughput.
    const auto &data = pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
    const auto &thin_run = heldRun();
    SessionConfig cfg = heldConfig();
    cfg.dispatchBatch = 16;
    const auto wide_run =
        ReadUntilSession(classifier(), cfg).run(data.reads);
    ASSERT_EQ(wide_run.log.size(), thin_run.log.size());
    std::uint64_t offline_rows = 0;
    for (std::size_t i = 0; i < wide_run.log.size(); ++i) {
        const auto &a = thin_run.log[i];
        const auto &b = wide_run.log[i];
        EXPECT_EQ(a.readId, b.readId);
        EXPECT_EQ(a.channel, b.channel);
        const auto &read = data.reads[std::size_t(b.readId)];
        ASSERT_EQ(read.id, b.readId);
        // classify(read.raw), spelled out so its DP rows can be summed.
        sdtw::ClassifierStream stream = classifier().beginStream();
        classifier().feedChunk(stream, read.raw);
        const auto offline = classifier().finishStream(stream);
        offline_rows += stream.consumed;
        for (const DecisionRecord *rec : {&a, &b}) {
            EXPECT_EQ(rec->keep, offline.keep) << "record " << i;
            EXPECT_EQ(rec->cost, offline.cost) << "record " << i;
            EXPECT_EQ(rec->samplesUsed, offline.samplesUsed)
                << "record " << i;
            EXPECT_EQ(rec->stagesRun, offline.stagesRun)
                << "record " << i;
        }
    }
    EXPECT_EQ(wide_run.stats.dpRowsFolded, offline_rows);
    EXPECT_EQ(thin_run.stats.dpRowsFolded, offline_rows);
}

TEST_F(SessionTest, DecisionLogDeterministicUnderTightBackpressure)
{
    const auto &data = pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
    const auto &reference_run = baselineRun();

    SessionConfig cfg = config();
    cfg.queueCapacity = 1; // worst-case backpressure
    cfg.dispatchBatch = 1;
    const auto rerun =
        ReadUntilSession(classifier(), cfg).run(data.reads);
    ASSERT_EQ(rerun.log.size(), reference_run.log.size());
    for (std::size_t i = 0; i < rerun.log.size(); ++i) {
        EXPECT_EQ(reference_run.log[i].readId, rerun.log[i].readId);
        EXPECT_EQ(reference_run.log[i].keep, rerun.log[i].keep);
        EXPECT_EQ(reference_run.log[i].cost, rerun.log[i].cost);
    }
}

TEST_F(SessionTest, DecisionSlowerThanAChunkConservesChunks)
{
    // A decision that takes longer than a chunk period leaves chunks
    // in the channel's backlog when it ends the read.  They die with
    // the read and must be accounted aborted, or the conservation
    // check panics once the pore captures its next strand.
    const auto &data = pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
    SessionConfig cfg = config();
    cfg.decisionLatencySec = 2.5 * cfg.chunkSeconds;
    cfg.workers = 4;
    cfg.queueCapacity = 2;
    const auto result = ReadUntilSession(classifier(), cfg).run(data.reads);
    const DegradationStats &deg = result.stats.degradation;
    EXPECT_EQ(result.stats.chunksEmitted,
              deg.chunksFolded + deg.chunksAborted);
    EXPECT_GT(deg.chunksAborted, 0u);
    EXPECT_EQ(result.log.size(), data.reads.size());
}

TEST_F(SessionTest, EventLoopHelpsWithWhateverIsQueued)
{
    // One worker and a deep queue: while the event loop awaits a
    // decision or faces a full queue it folds queued dispatches
    // itself, each up to a dispatch batch, and the log stays
    // bit-identical to a 3-worker run.  Near-instant captures line
    // every channel's chunks up on the same virtual instants, and a
    // virtual decision latency of one chunk keeps each request in
    // flight until the next wave is submitted, so the event loop
    // awaits its first decision with the whole wave queued behind it.
    const auto &data = pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
    SessionConfig cfg = config();
    cfg.captureDelayMeanSec = 1e-3;
    cfg.decisionLatencySec = cfg.chunkSeconds;
    cfg.queueCapacity = 256;
    cfg.dispatchBatch = kChannels / 4;

    // The pool run() builds, driven here so its counters stay
    // readable after the run.
    cfg.workers = 1;
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
    const SessionResult helped = ReadUntilSession(classifier(), cfg)
                                     .runShared(pool, data.reads, id);
    pool.shutdown();

    const PoolCounters &counters = pool.counters();
    EXPECT_GT(counters.helpedDispatches.load(), 0u);
    EXPECT_GE(counters.helpedRequests.load(),
              counters.helpedDispatches.load());
    EXPECT_LE(counters.helpedRequests.load(),
              counters.helpedDispatches.load() * cfg.dispatchBatch);
    EXPECT_EQ(pool.helpedDispatches(id), counters.helpedDispatches.load());

    cfg.workers = 3;
    const SessionResult wide =
        ReadUntilSession(classifier(), cfg).run(data.reads);
    ASSERT_EQ(helped.log.size(), wide.log.size());
    for (std::size_t i = 0; i < helped.log.size(); ++i) {
        const auto &a = wide.log[i];
        const auto &b = helped.log[i];
        EXPECT_EQ(a.order, b.order);
        EXPECT_EQ(a.channel, b.channel);
        EXPECT_EQ(a.readId, b.readId);
        EXPECT_EQ(a.keep, b.keep);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.samplesUsed, b.samplesUsed);
        EXPECT_EQ(a.stagesRun, b.stagesRun);
        EXPECT_DOUBLE_EQ(a.virtualSec, b.virtualSec);
    }
    EXPECT_EQ(helped.stats.chunksEmitted, wide.stats.chunksEmitted);
    EXPECT_EQ(helped.stats.decisions, wide.stats.decisions);
    EXPECT_EQ(helped.stats.dpRowsFolded, wide.stats.dpRowsFolded);
}

// ---------------------------------------------------------------- //
//                     session behaviour and stats                   //
// ---------------------------------------------------------------- //

TEST_F(SessionTest, ProcessesEveryReadExactlyOnce)
{
    const auto &data = pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
    const auto &result = baselineRun();

    EXPECT_EQ(result.stats.readsProcessed, data.reads.size());
    EXPECT_EQ(result.stats.readsKept + result.stats.readsEjected,
              data.reads.size());
    std::vector<bool> seen(data.reads.size(), false);
    for (const auto &rec : result.log) {
        ASSERT_LT(rec.readId, seen.size());
        EXPECT_FALSE(seen[std::size_t(rec.readId)]);
        seen[std::size_t(rec.readId)] = true;
    }
    EXPECT_GT(result.stats.chunksEmitted, 0u);
    EXPECT_GT(result.stats.decisions, 0u);
    EXPECT_GT(result.stats.virtualSeconds, 0.0);
    EXPECT_GT(result.stats.latency.p99us, 0.0);
    EXPECT_GE(result.stats.latency.p99us, result.stats.latency.p50us);
    EXPECT_GE(result.stats.meanBatchSize, 1.0);
}

TEST_F(SessionTest, ClassifiesAccuratelyAndEnriches)
{
    const auto &result = baselineRun();
    // The calibrated schedule must still separate the classes when
    // driven chunk-by-chunk through the session.
    EXPECT_GT(result.stats.confusion.f1(), 0.8);
    // Ejecting background early concentrates pore time on targets.
    EXPECT_GT(result.stats.enrichmentFactor, 1.05);
    EXPECT_GT(result.stats.readsEjected, 0u);
}

TEST_F(SessionTest, CheckpointingBeatsRealignmentOnDpWork)
{
    const auto &result = baselineRun();
    // Re-aligning the whole prefix at every per-chunk decision does
    // quadratic work; the checkpointed stream is linear.  The margin
    // here is loose — the bench records the exact ratio.
    EXPECT_GE(result.stats.dpWorkRatio(), 2.0);
    EXPECT_GT(result.stats.dpRowsFolded, 0u);
}

TEST_F(SessionTest, VirtualTimelineOrdersTheLog)
{
    const auto &result = baselineRun();
    for (std::size_t i = 1; i < result.log.size(); ++i)
        EXPECT_GE(result.log[i].virtualSec, result.log[i - 1].virtualSec);
}

TEST_F(SessionTest, EmptyReadListIsANoop)
{
    const auto result = ReadUntilSession(classifier(), config())
                            .run(std::span<const signal::ReadRecord>{});
    EXPECT_TRUE(result.log.empty());
    EXPECT_EQ(result.stats.readsProcessed, 0u);
}

TEST_F(SessionTest, MoreReadsThanChannelsRotatesPores)
{
    // 3x more reads than channels: every channel must turn over.
    const auto &result = baselineRun();
    std::vector<std::size_t> per_channel(kChannels, 0);
    for (const auto &rec : result.log)
        per_channel[std::size_t(rec.channel)]++;
    for (std::size_t c = 0; c < per_channel.size(); ++c)
        EXPECT_GE(per_channel[c], 1u) << "channel " << c;
}

// ---------------------------------------------------------------- //
//              contention and teardown (TSan stress)                //
// ---------------------------------------------------------------- //

TEST_F(SessionTest, MidStreamTeardownUnderLoadShutsDownCleanly)
{
    // Stop the virtual clock mid-read while decisions are still in
    // flight: the safety limit breaks the event loop with requests
    // queued and workers folding.  Teardown must drain, join, and
    // report consistent partial statistics — under TSan this pins
    // the close()/join() ordering against the worker pool.  Held
    // decisions leave every busy channel one in flight at the stop.
    const auto &data = pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
    SessionConfig cfg = heldConfig();
    cfg.workers = 4;
    cfg.queueCapacity = 2; // keep the event source blocked on push
    cfg.maxVirtualHours = 2.0 / 3600.0; // 2 virtual seconds

    // The pool run() builds, driven here so its counters stay
    // readable after the run.
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
    const auto result = ReadUntilSession(classifier(), cfg)
                            .runShared(pool, data.reads, id);
    pool.shutdown();
    // The teardown drained at least one folded decision that the stop
    // kept out of the log.
    EXPECT_GT(pool.counters().dispatchedRequests.load(),
              result.stats.decisions);
    // Only a fraction of the flowcell run fits in two virtual
    // seconds: the session must stop early, not finish the dataset.
    EXPECT_LT(result.log.size(), data.reads.size());
    EXPECT_LE(result.stats.virtualSeconds, 2.5);
    // What was decided is still fully accounted.
    EXPECT_EQ(result.stats.readsKept + result.stats.readsEjected,
              result.log.size());
    for (std::size_t i = 1; i < result.log.size(); ++i)
        EXPECT_GE(result.log[i].virtualSec,
                  result.log[i - 1].virtualSec);

    // Stopping early only cuts the log: it is the full run's log up to
    // the stop, field for field, and the teardown that awaited the
    // in-flight decisions left every emitted chunk accounted.  Workers
    // and queue capacity never change a log, so heldRun() is this
    // configuration's full run.
    const auto &full = heldRun();
    const double stop_sec = cfg.maxVirtualHours * 3600.0;
    ASSERT_GT(result.log.size(), 0u);
    ASSERT_LT(result.log.size(), full.log.size());
    for (std::size_t i = 0; i < result.log.size(); ++i) {
        const auto &a = full.log[i];
        const auto &b = result.log[i];
        EXPECT_EQ(a.order, b.order) << "record " << i;
        EXPECT_EQ(a.channel, b.channel) << "record " << i;
        EXPECT_EQ(a.readId, b.readId) << "record " << i;
        EXPECT_EQ(a.isTarget, b.isTarget) << "record " << i;
        EXPECT_EQ(a.keep, b.keep) << "record " << i;
        EXPECT_EQ(a.cost, b.cost) << "record " << i;
        EXPECT_EQ(a.samplesUsed, b.samplesUsed) << "record " << i;
        EXPECT_EQ(a.stagesRun, b.stagesRun) << "record " << i;
        EXPECT_EQ(a.virtualSec, b.virtualSec) << "record " << i;
    }
    EXPECT_GT(full.log[result.log.size()].virtualSec, stop_sec);
    const DegradationStats &deg = result.stats.degradation;
    EXPECT_EQ(result.stats.chunksEmitted,
              deg.chunksFolded + deg.chunksAborted);
}

TEST_F(SessionTest, RaggedLaneRefillUnderContentionStaysDeterministic)
{
    // Many channels deciding at staggered stages feed ragged fold
    // calls while four workers fight over a small request queue.
    // Captures are near-instant and decisions are held one chunk, so
    // each chunk period every busy channel surfaces at once and the
    // queue fills past the workers.  Dispatches of 16 can fill the
    // lane kernel's cutover (one full 16-lane AVX-512 group) and
    // retire and refill lanes mid-call; dispatches of 8 stay below it
    // and fold on the columns kernel.  Either way the decision
    // log must be bit-identical to the uncontended single-worker run
    // of the same configuration.
    const auto &data = pipeline::makeStreamDataset(kDatasetReads, 0.5, 12);
    for (const std::size_t width : {std::size_t(16), std::size_t(8)}) {
        SessionConfig cfg = heldConfig();
        cfg.channels = 2 * kChannels;
        cfg.workers = 4;
        cfg.queueCapacity = width; // constant backpressure
        cfg.dispatchBatch = width;
        const auto contended =
            ReadUntilSession(classifier(), cfg).run(data.reads);

        SessionConfig serial_cfg = cfg;
        serial_cfg.workers = 1;
        serial_cfg.queueCapacity = 256; // no backpressure
        const auto uncontended =
            ReadUntilSession(classifier(), serial_cfg).run(data.reads);

        ASSERT_EQ(contended.log.size(), uncontended.log.size());
        for (std::size_t i = 0; i < contended.log.size(); ++i) {
            const auto &a = contended.log[i];
            const auto &b = uncontended.log[i];
            EXPECT_EQ(a.channel, b.channel) << "width " << width;
            EXPECT_EQ(a.readId, b.readId) << "width " << width;
            EXPECT_EQ(a.keep, b.keep) << "width " << width;
            EXPECT_EQ(a.cost, b.cost) << "width " << width;
            EXPECT_EQ(a.samplesUsed, b.samplesUsed) << "width " << width;
            EXPECT_EQ(a.stagesRun, b.stagesRun) << "width " << width;
        }
        EXPECT_EQ(contended.stats.dpRowsFolded,
                  uncontended.stats.dpRowsFolded)
            << "width " << width;
    }
}

TEST_F(SessionTest, InvalidConfigIsFatal)
{
    SessionConfig cfg = config();
    cfg.channels = 0;
    EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);
    cfg = config();
    cfg.chunkSeconds = 0.0;
    EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);
    cfg = config();
    cfg.queueCapacity = 0;
    EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);

    // Every virtual-time field is checked before its first use: a
    // negative or NaN one fatals instead of sizing chunks out of
    // range, running the clock backwards or disarming the safety stop.
    const std::pair<const char *, double SessionConfig::*> fields[] = {
        {"sampleRateHz", &SessionConfig::sampleRateHz},
        {"chunkSeconds", &SessionConfig::chunkSeconds},
        {"captureDelayMeanSec", &SessionConfig::captureDelayMeanSec},
        {"ejectLatencySec", &SessionConfig::ejectLatencySec},
        {"poreRecoverySec", &SessionConfig::poreRecoverySec},
        {"decisionLatencySec", &SessionConfig::decisionLatencySec},
        {"maxVirtualHours", &SessionConfig::maxVirtualHours},
    };
    for (const auto &[name, field] : fields)
        for (double bad : {-1.0, std::nan("")}) {
            cfg = config();
            cfg.*field = bad;
            EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError)
                << name << " = " << bad;
        }
    cfg = config();
    cfg.maxVirtualHours = 0.0;
    EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);

    // An Asic session the modelled hardware cannot implement fatals
    // at construction, on the caller's thread, not inside run().
    cfg = config();
    cfg.backend = DecisionBackendKind::Asic;
    EXPECT_NO_THROW(ReadUntilSession(classifier(), cfg));
    cfg.asic.arrayDim = 0;
    EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);
    cfg.asic = AsicSpec{};
    cfg.asic.clockGhz = 0.0;
    EXPECT_THROW(ReadUntilSession(classifier(), cfg), FatalError);
    cfg.asic = AsicSpec{};
    const sdtw::SquiggleFilterClassifier vanilla(
        pipeline::streamVirusSquiggle(), sdtw::vanillaConfig());
    EXPECT_THROW(ReadUntilSession(vanilla, cfg), FatalError);
    sdtw::SdtwConfig refdel = sdtw::hardwareConfig();
    refdel.allowReferenceDeletion = true;
    const sdtw::SquiggleFilterClassifier with_refdel(
        pipeline::streamVirusSquiggle(), refdel);
    EXPECT_THROW(ReadUntilSession(with_refdel, cfg), FatalError);
}

} // namespace
} // namespace sf::stream
