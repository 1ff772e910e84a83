/**
 * @file
 * Tests for the hardware model: bit-exact equivalence between the
 * cycle-accurate systolic array and the software engine, the
 * closed-form cycle model against that array, tile/chip behaviour,
 * and the ASIC area/power/timing model against the paper's published
 * numbers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "fleet/orchestrator.hpp"
#include "genome/synthetic.hpp"
#include "hw/accelerator.hpp"
#include "hw/asic_model.hpp"
#include "hw/systolic.hpp"
#include "hw/tile.hpp"
#include "pipeline/experiments.hpp"
#include "pore/kmer_model.hpp"
#include "pore/reference_squiggle.hpp"
#include "sdtw/batch.hpp"
#include "sdtw/filter.hpp"
#include "signal/dataset.hpp"
#include "stream/session.hpp"

namespace sf::hw {
namespace {

const pore::KmerModel &
model()
{
    static const pore::KmerModel m = pore::KmerModel::makeR941();
    return m;
}

std::vector<NormSample>
randomQuantSignal(std::size_t n, Rng &rng)
{
    std::vector<NormSample> out(n);
    for (auto &s : out)
        s = NormSample(rng.uniformInt(-128, 127));
    return out;
}

// ---------------------------------------------------------------- //
//             systolic array == software engine (exact)             //
// ---------------------------------------------------------------- //

class SystolicEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SystolicEquivalenceTest, MatchesQuantEngineBitExact)
{
    Rng rng(GetParam());
    const auto n = std::size_t(rng.uniformInt(1, 64));
    const auto m = std::size_t(rng.uniformInt(1, 160));
    const auto query = randomQuantSignal(n, rng);
    const auto ref = randomQuantSignal(m, rng);

    sdtw::SdtwConfig config = sdtw::hardwareConfig();
    if (rng.bernoulli(0.5))
        config.matchBonus = 0.0; // exercise both bonus paths

    const sdtw::QuantSdtw engine(config);
    const auto want = engine.align(query, ref);

    SystolicArray array(n, config);
    const auto got = array.run(query, ref);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.refEnd, want.refEnd);
    EXPECT_EQ(got.cycles, SystolicArray::passCycles(n, m));
    EXPECT_EQ(got.cellsComputed, std::uint64_t(n) * std::uint64_t(m));
}

TEST_P(SystolicEquivalenceTest, ResumedPassesMatchChunkedEngine)
{
    Rng rng(GetParam() ^ 0x77ULL);
    const auto m = std::size_t(rng.uniformInt(8, 140));
    const auto chunk1 = std::size_t(rng.uniformInt(2, 32));
    const auto chunk2 = std::size_t(rng.uniformInt(2, 32));
    const auto ref = randomQuantSignal(m, rng);
    const auto q1 = randomQuantSignal(chunk1, rng);
    const auto q2 = randomQuantSignal(chunk2, rng);

    const sdtw::SdtwConfig config = sdtw::hardwareConfig();
    const sdtw::QuantSdtw engine(config);
    sdtw::QuantSdtw::State engine_state;
    engine.process(q1, ref, engine_state);
    const auto want = engine.process(q2, ref, engine_state);

    SystolicArray array(std::max(chunk1, chunk2), config);
    sdtw::QuantSdtw::State hw_state;
    array.run(q1, ref, &hw_state, true); // checkpoint to "DRAM"
    const auto got = array.run(q2, ref, &hw_state, false);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.refEnd, want.refEnd);
}

TEST_P(SystolicEquivalenceTest, LaneBatchedKernelMatchesSystolicArray)
{
    // Transitivity made explicit: the lane-batched SIMD kernel must
    // agree with the cycle-accurate systolic array (both are pinned
    // to QuantSdtw, but this closes the triangle directly), on every
    // available backend, with several reads sharing the batch.
    Rng rng(GetParam() ^ 0xb47cULL);
    const auto m = std::size_t(rng.uniformInt(4, 160));
    const auto ref = randomQuantSignal(m, rng);
    const sdtw::SdtwConfig config = sdtw::hardwareConfig();

    constexpr std::size_t kReads = 6;
    std::vector<std::vector<NormSample>> queries(kReads);
    for (auto &q : queries)
        q = randomQuantSignal(std::size_t(rng.uniformInt(1, 64)), rng);

    for (sdtw::SimdBackend backend :
         {sdtw::SimdBackend::Serial, sdtw::SimdBackend::Avx2,
          sdtw::SimdBackend::Avx512}) {
        if (!sdtw::simdBackendAvailable(backend))
            continue;
        std::vector<sdtw::QuantSdtw::State> states(kReads);
        std::vector<sdtw::BatchLane> lanes(kReads);
        for (std::size_t i = 0; i < kReads; ++i) {
            lanes[i].state = &states[i];
            lanes[i].query = queries[i];
        }
        sdtw::BatchSdtw kernel(config, 8, backend);
        kernel.setSerialCutover(0);
        kernel.processMany(lanes, ref);

        for (std::size_t i = 0; i < kReads; ++i) {
            SystolicArray array(queries[i].size(), config);
            const auto hw = array.run(queries[i], ref);
            EXPECT_EQ(lanes[i].result.cost, hw.cost)
                << sdtw::simdBackendName(backend) << " read " << i;
            EXPECT_EQ(lanes[i].result.refEnd, hw.refEnd);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystolicEquivalenceTest,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(Systolic, CheckpointRowEqualsEngineRow)
{
    Rng rng(5);
    const auto query = randomQuantSignal(24, rng);
    const auto ref = randomQuantSignal(80, rng);
    const sdtw::SdtwConfig config = sdtw::hardwareConfig();

    sdtw::QuantSdtw::State engine_state;
    sdtw::QuantSdtw(config).process(
        std::span<const NormSample>(query), ref, engine_state);

    SystolicArray array(query.size(), config);
    sdtw::QuantSdtw::State hw_state;
    const auto result = array.run(query, ref, &hw_state, true);
    ASSERT_EQ(hw_state.row.size(), engine_state.row.size());
    EXPECT_EQ(hw_state.row, engine_state.row);
    EXPECT_EQ(hw_state.dwell, engine_state.dwell);
    EXPECT_EQ(result.checkpointBytes,
              ref.size() * kCheckpointBytesPerCell);
    EXPECT_EQ(result.checkpointBytesRead, 0u); // fresh: nothing in
}

TEST(Systolic, RejectsUnsupportedConfigurations)
{
    sdtw::SdtwConfig squared = sdtw::hardwareConfig();
    squared.metric = sdtw::CostMetric::SquaredDifference;
    EXPECT_THROW(SystolicArray(16, squared), FatalError);

    sdtw::SdtwConfig refdel = sdtw::hardwareConfig();
    refdel.allowReferenceDeletion = true;
    EXPECT_THROW(SystolicArray(16, refdel), FatalError);
}

TEST(Systolic, RejectsOversizedQuery)
{
    SystolicArray array(8);
    Rng rng(6);
    const auto query = randomQuantSignal(9, rng);
    const auto ref = randomQuantSignal(16, rng);
    EXPECT_THROW(array.run(query, ref), FatalError);
}

// ---------------------------------------------------------------- //
//     closed-form cycle model == event-level array (the oracle)     //
// ---------------------------------------------------------------- //

TEST(SystolicOracle, ModelMatchesEventLevelArrayOverRandomShapes)
{
    // modelDecision is the only place src/ computes the array's timing
    // and checkpoint traffic; the event-level array checks it.  Fold L
    // rows as the chip does -- passes of at most D rows chained
    // through the checkpoint row -- and count what the simulation did.
    Rng rng(0x0a11ce);
    const sdtw::SdtwConfig config = sdtw::hardwareConfig();
    const sdtw::QuantSdtw engine(config);
    std::size_t multi_pass = 0;
    for (int trial = 0; trial < 240; ++trial) {
        const bool resumed = (trial & 1) != 0;
        const bool last_fold = (trial & 2) != 0;
        const auto d = std::size_t(rng.uniformInt(1, 16));
        const auto l = std::size_t(rng.uniformInt(1, std::int64_t(3 * d)));
        const auto m = std::size_t(rng.uniformInt(1, 64));
        const auto ref = randomQuantSignal(m, rng);
        const auto query = randomQuantSignal(l, rng);

        // A resumed fold continues an earlier fold's checkpoint row.
        sdtw::QuantSdtw::State want_state;
        if (resumed) {
            const auto earlier = randomQuantSignal(
                std::size_t(rng.uniformInt(1, 8)), rng);
            engine.process(earlier, ref, want_state);
        }
        sdtw::QuantSdtw::State hw_state = want_state;
        const auto want = engine.process(query, ref, want_state);

        SystolicArray array(d, config);
        SystolicResult pass;
        std::uint64_t cycles = 2 * l; // normaliser: stats + transform
        std::uint64_t passes = 0;
        std::uint64_t bytes_read = 0;
        std::uint64_t bytes_written = 0;
        for (std::size_t offset = 0; offset < l; offset += d) {
            const std::size_t len = std::min(d, l - offset);
            const bool more = offset + len < l;
            pass = array.run(
                std::span<const NormSample>(query).subspan(offset, len),
                ref, &hw_state, more || !last_fold);
            cycles += pass.cycles;
            passes += 1;
            bytes_read += pass.checkpointBytesRead;
            bytes_written += pass.checkpointBytes;
        }
        multi_pass += passes > 1 ? 1 : 0;

        const AsicDecisionModel model =
            modelDecision(d, l, m, resumed, last_fold);
        SCOPED_TRACE("L=" + std::to_string(l) + " M=" +
                     std::to_string(m) + " D=" + std::to_string(d) +
                     " resumed=" + std::to_string(resumed) +
                     " last=" + std::to_string(last_fold));
        EXPECT_EQ(model.cycles, cycles);
        EXPECT_EQ(model.passes, passes);
        EXPECT_EQ(model.dramBytesRead, bytes_read);
        EXPECT_EQ(model.dramBytesWritten, bytes_written);
        EXPECT_EQ(pass.cost, want.cost);
        EXPECT_EQ(pass.refEnd, want.refEnd);
        if (!last_fold) {
            EXPECT_EQ(hw_state.row, want_state.row);
            EXPECT_EQ(hw_state.dwell, want_state.dwell);
        }
    }
    EXPECT_GT(multi_pass, 60u);
}

// ---------------------------------------------------------------- //
//                              tile                                 //
// ---------------------------------------------------------------- //

class TileTest : public ::testing::Test
{
  protected:
    TileTest()
        : virus_(genome::makeSynthetic("virus", {.length = 9000,
                                                 .seed = 81})),
          host_(genome::makeSynthetic("host", {.length = 150000,
                                               .seed = 82})),
          reference_(virus_, model()), sim_(model()),
          generator_(virus_, host_, sim_)
    {}

    signal::Dataset
    makeData(std::size_t reads, std::uint64_t seed)
    {
        signal::DatasetSpec spec;
        spec.numReads = reads;
        spec.targetFraction = 0.5;
        spec.targetLengths = {1200.0, 0.3, 500, 4000};
        spec.backgroundLengths = {1200.0, 0.3, 500, 4000};
        spec.seed = seed;
        return generator_.generate(spec);
    }

    genome::Genome virus_;
    genome::Genome host_;
    pore::ReferenceSquiggle reference_;
    signal::SignalSimulator sim_;
    signal::DatasetGenerator generator_;
};

TEST_F(TileTest, FunctionalTileMatchesSoftwareClassifier)
{
    const auto data = makeData(8, 83);

    // Thresholds sit at each prefix's median cost so every schedule
    // both ejects and keeps reads.
    const sdtw::SquiggleFilterClassifier scorer(reference_);
    const auto median = [&](std::size_t prefix) {
        std::vector<Cost> costs;
        for (const auto &read : data.reads)
            costs.push_back(scorer.score(read.raw, prefix).cost);
        std::nth_element(costs.begin(), costs.begin() + 4, costs.end());
        return costs[4];
    };
    // Single-stage, multi-stage (early ejects, final keeps) and
    // stages longer than the 2000-PE array (multi-pass folds).
    const std::vector<std::vector<sdtw::FilterStage>> schedules{
        {{2000, median(2000)}},
        {{1000, 2 * median(1000)}, {2000, median(2000)}},
        {{500, kCostMax - 1}, {1500, median(1500)}, {4500, median(4500)}},
        {{3000, median(3000)}, {6000, kCostMax - 1}},
        sdtw::uniformStageSchedule(800, 5, median(2000)),
    };

    Tile tile(reference_, TileConfig{});

    std::size_t kept = 0;
    std::size_t ejected = 0;
    for (const auto &stages : schedules) {
        sdtw::SquiggleFilterClassifier classifier(reference_);
        classifier.setStages(stages);
        for (const auto &read : data.reads) {
            // The full read, plus prefixes that end inside a stage
            // (truncated, scaled threshold) and on a stage boundary.
            for (std::size_t len : {read.raw.size(), std::size_t(1700),
                                    std::size_t(1000)}) {
                const std::span<const RawSample> raw =
                    std::span<const RawSample>(read.raw).first(
                        std::min(len, read.raw.size()));
                const auto sw = classifier.classify(raw);
                const auto hw = tile.processRead(raw, stages);
                EXPECT_EQ(hw.classification.keep, sw.keep);
                EXPECT_EQ(hw.classification.cost, sw.cost);
                EXPECT_EQ(hw.classification.refEnd, sw.refEnd);
                EXPECT_EQ(hw.classification.samplesUsed, sw.samplesUsed);
                EXPECT_EQ(hw.classification.stagesRun, sw.stagesRun);
                ++(sw.keep ? kept : ejected);
            }
        }
    }
    EXPECT_GT(kept, 0u);
    EXPECT_GT(ejected, 0u);
}

TEST_F(TileTest, CycleCountMatchesPaperFormula)
{
    Tile tile(reference_, TileConfig{});

    const auto data = makeData(6, 85);
    for (const auto &read : data.reads) {
        if (read.raw.size() < 2000)
            continue;
        const auto result =
            tile.processRead(read.raw, {{2000, kCostMax}});
        // 2L normalise + L + M - 1 array pass.
        EXPECT_EQ(result.cycles,
                  2 * 2000 + 2000 + reference_.size() - 1);
        EXPECT_EQ(result.cycles,
                  AsicModel().classifyCycles(2000, reference_.size()));
        EXPECT_EQ(result.dramBytesWritten, 0u);
        EXPECT_EQ(result.dramBytesRead, 0u);
    }
}

TEST_F(TileTest, MultiStageGeneratesDramTraffic)
{
    Tile tile(reference_, TileConfig{});

    const auto data = makeData(8, 86);
    const std::vector<sdtw::FilterStage> stages{{1000, kCostMax - 1},
                                                {2000, kCostMax - 1}};
    bool saw_two_stages = false;
    for (const auto &read : data.reads) {
        if (read.raw.size() < 2000)
            continue;
        const auto result = tile.processRead(read.raw, stages);
        if (result.classification.stagesRun == 2) {
            saw_two_stages = true;
            EXPECT_EQ(result.dramBytesWritten,
                      reference_.size() * kCheckpointBytesPerCell);
            EXPECT_EQ(result.dramBytesRead, result.dramBytesWritten);
        }
    }
    EXPECT_TRUE(saw_two_stages);
}

TEST_F(TileTest, OversizedReferenceIsFatal)
{
    TileConfig config;
    config.referenceBufferBytes = 100; // far too small
    EXPECT_THROW(Tile(reference_, config), FatalError);
}

// ---------------------------------------------------------------- //
//                           accelerator                             //
// ---------------------------------------------------------------- //

TEST_F(TileTest, AcceleratorBatchAccounting)
{
    AcceleratorConfig config;
    config.numTiles = 5;
    Accelerator accel(reference_, config);

    const auto data = makeData(20, 87);
    std::vector<DispatchedRead> outcomes;
    const auto stats =
        accel.processBatch(data.reads, {{2000, 50000}}, &outcomes);

    EXPECT_EQ(stats.reads, data.reads.size());
    EXPECT_EQ(stats.kept + stats.ejected, stats.reads);
    EXPECT_EQ(outcomes.size(), data.reads.size());
    EXPECT_GT(stats.throughputSamplesPerSec, 0.0);
    EXPECT_GT(stats.utilization, 0.0);
    EXPECT_LE(stats.utilization, 1.0 + 1e-9);
    for (const auto &o : outcomes)
        EXPECT_LT(o.tile, config.numTiles);
}

TEST_F(TileTest, MoreTilesShrinkMakespan)
{
    const auto data = makeData(20, 88);
    AcceleratorConfig config;
    config.numTiles = 5;

    Accelerator accel(reference_, config);
    accel.setActiveTiles(1);
    const auto one = accel.processBatch(data.reads, {{2000, 50000}});
    accel.setActiveTiles(5);
    const auto five = accel.processBatch(data.reads, {{2000, 50000}});

    EXPECT_LT(five.makespanCycles, one.makespanCycles);
    // Identical work, so busy cycles match exactly.
    EXPECT_EQ(five.totalBusyCycles, one.totalBusyCycles);
    EXPECT_GT(five.throughputSamplesPerSec,
              3.0 * one.throughputSamplesPerSec);
}

TEST_F(TileTest, ActiveTileCountClamped)
{
    AcceleratorConfig config;
    config.numTiles = 3;
    Accelerator accel(reference_, config);
    accel.setActiveTiles(100);
    EXPECT_EQ(accel.activeTiles(), 3);
    accel.setActiveTiles(0);
    EXPECT_EQ(accel.activeTiles(), 1);
}

// ---------------------------------------------------------------- //
//                       ASIC area/power model                       //
// ---------------------------------------------------------------- //

TEST(AsicModel, Table4HeadlineNumbers)
{
    const AsicModel asic(2000, 5);
    // Paper Table 4: 2.423 mm^2 / 2.78 W tile core; 13.25 mm^2 /
    // 14.31 W complete 5-tile ASIC.
    EXPECT_NEAR(asic.tileCoreAreaMm2(), 2.423, 0.01);
    EXPECT_NEAR(asic.tileCorePowerW(), 2.78, 0.03);
    EXPECT_NEAR(asic.oneTileAreaMm2(), 2.65, 0.02);
    EXPECT_NEAR(asic.oneTilePowerW(), 2.86, 0.03);
    EXPECT_NEAR(asic.chipAreaMm2(), 13.25, 0.1);
    EXPECT_NEAR(asic.chipPowerW(5), 14.31, 0.15);
}

TEST(AsicModel, PowerGatingScalesPower)
{
    const AsicModel asic(2000, 5);
    EXPECT_LT(asic.chipPowerW(1), asic.chipPowerW(5) / 3.0);
    EXPECT_GT(asic.chipPowerW(1), asic.oneTilePowerW() * 0.99);
}

TEST(AsicModel, LatencyMatchesPaperSection71)
{
    const pore::ReferenceSquiggle sars(genome::makeSarsCov2(), model());
    const pore::ReferenceSquiggle lambda(genome::makeLambdaPhage(),
                                         model());
    // Paper: 0.027 ms for SARS-CoV-2, 0.043 ms for lambda phage.
    const AsicModel asic(2000, 5);
    EXPECT_NEAR(asic.classifyLatencyMs(2000, sars.size()), 0.027, 0.003);
    EXPECT_NEAR(asic.classifyLatencyMs(2000, lambda.size()), 0.043,
                0.004);
}

TEST(AsicModel, ThroughputMatchesPaperSection71)
{
    const pore::ReferenceSquiggle sars(genome::makeSarsCov2(), model());
    const pore::ReferenceSquiggle lambda(genome::makeLambdaPhage(),
                                         model());
    // Paper: 74.63 M (SARS-CoV-2) and 46.73 M (lambda) samples/s per
    // tile; 233.65 M samples/s for the 5-tile chip on lambda.
    const AsicModel asic(2000, 5);
    const double sars_tile =
        asic.tileThroughputSamplesPerSec(2000, sars.size());
    const double lambda_tile =
        asic.tileThroughputSamplesPerSec(2000, lambda.size());
    EXPECT_NEAR(sars_tile / 1e6, 74.63, 4.0);
    EXPECT_NEAR(lambda_tile / 1e6, 46.73, 4.0);

    EXPECT_NEAR(
        asic.chipThroughputSamplesPerSec(2000, lambda.size(), 5) / 1e6,
        233.65, 20.0);
}

TEST(AsicModel, ThroughputHeadroomOverMinion)
{
    // Paper: adequate for a ~114x increase in MinION throughput.
    const pore::ReferenceSquiggle sars(genome::makeSarsCov2(), model());
    const AsicModel asic(2000, 5);
    const double headroom =
        asic.chipThroughputSamplesPerSec(2000, sars.size(), 5) /
        kMinionMaxSamplesPerSec;
    EXPECT_GT(headroom, 100.0);
    EXPECT_LT(headroom, 250.0);
}

TEST(AsicModel, CheckpointBandwidthNearTenGBs)
{
    EXPECT_NEAR(AsicModel::checkpointBandwidthGBsPerTile(), 10.0, 0.5);
}

TEST(AsicModel, Table4HasAllComponents)
{
    const AsicModel asic(2000, 5);
    const auto rows = asic.breakdown();
    EXPECT_EQ(rows.size(), 7u);
    const std::string rendered = asic.table4().render();
    EXPECT_NE(rendered.find("Normalizer"), std::string::npos);
    EXPECT_NE(rendered.find("5-Tile"), std::string::npos);
}

TEST(AsicModel, InvalidConfigIsFatal)
{
    EXPECT_THROW(AsicModel(0, 5), FatalError);
    EXPECT_THROW(AsicModel(2000, 0), FatalError);
}

// ---------------------------------------------------------------- //
//            modelled-ASIC decision charge: cycle model             //
// ---------------------------------------------------------------- //

TEST(AsicBackendModel, SinglePassQueryStationaryMeetsPaperBudget)
{
    // One 0.4 s chunk (1600 samples at 4 kHz) against the ~97k-sample
    // SARS-CoV-2 reference on the Table 4 design point: 2L normalise
    // + one (L + M - 1)-cycle pass, inside the paper's 43 us budget.
    const stream::AsicSpec spec; // D = 2000, 2.5 GHz
    const auto m = modelDecision(spec.arrayDim, 1600, 97000,
                                 /*resumed=*/false,
                                 /*last_fold=*/true);
    EXPECT_EQ(m.passes, 1u);
    EXPECT_EQ(m.cycles, 2 * 1600 + 1600 + (97000 - 1));
    EXPECT_EQ(m.checkpointBytes(), 0u);
    const double us = double(m.cycles) / (spec.clockGhz * 1e3);
    EXPECT_LT(us, 43.0);
    EXPECT_GT(us, 35.0);
}

TEST(AsicBackendModel, QueryLongerThanArrayTakesMultiplePasses)
{
    const auto m = modelDecision(2000, 4500, 10000, false, true);
    EXPECT_EQ(m.passes, 3u); // ceil(4500 / 2000)
    EXPECT_EQ(m.cycles, 2 * 4500 + 4500 + 3 * (10000 - 1));
    // The 10000-cell DP row round-trips DRAM between passes.
    EXPECT_EQ(m.dramBytesWritten, 2u * 10000 * kCheckpointBytesPerCell);
    EXPECT_EQ(m.dramBytesRead, m.dramBytesWritten);
}

TEST(AsicBackendModel, MultiStageCheckpointTrafficAndZeroWork)
{
    // A chunk that crossed no stage boundary folds nothing and costs
    // no modelled cycles.
    const auto idle = modelDecision(2000, 0, 97000, true, false);
    EXPECT_EQ(idle.cycles, 0u);
    EXPECT_EQ(idle.checkpointBytes(), 0u);

    // Resume reads the saved M-cell row; a fold that is not the
    // read's last writes it back (paper §4.6).
    const auto fresh = modelDecision(2000, 1600, 97000, false, true);
    const auto mid = modelDecision(2000, 1600, 97000, true, false);
    EXPECT_EQ(fresh.checkpointBytes(), 0u);
    EXPECT_EQ(mid.cycles, fresh.cycles);
    EXPECT_EQ(mid.dramBytesRead, 97000u * kCheckpointBytesPerCell);
    EXPECT_EQ(mid.dramBytesWritten, 97000u * kCheckpointBytesPerCell);
}

TEST(AsicBackendModel, NonFinalEjectWritesItsRowBack)
{
    // A pass streams its DP row out to DRAM before the row's minimum
    // decides the read, so an eject at a non-final stage is charged
    // the M-cell write-back; the read's last fold is not.  Each
    // classifier runs the same read through a one-channel Asic
    // session, whose event loop charges the decision.
    constexpr std::size_t kChunk = 1600;
    const pore::ReferenceSquiggle &reference =
        pipeline::streamVirusSquiggle();
    sdtw::SquiggleFilterClassifier ejects_early(reference);
    ejects_early.setStages({{kChunk, 0}, {2 * kChunk, kCostMax}});
    sdtw::SquiggleFilterClassifier keeps_at_end(reference);
    keeps_at_end.setSingleStage(kChunk, kCostMax);

    const auto &read = pipeline::makeStreamDataset(2, 0.5, 91).reads.front();
    // Longer than one chunk, so the first chunk does not end the read.
    ASSERT_GT(read.raw.size(), kChunk);
    stream::SessionConfig cfg;
    cfg.channels = 1;
    cfg.chunkSeconds = double(kChunk) / cfg.sampleRateHz;
    cfg.backend = stream::DecisionBackendKind::Asic;
    const auto run = [&](const sdtw::SquiggleFilterClassifier &cls) {
        return stream::ReadUntilSession(cls, cfg).run({&read, 1});
    };
    const stream::SessionResult early = run(ejects_early);
    const stream::SessionResult late = run(keeps_at_end);

    ASSERT_EQ(early.log.size(), 1u);
    EXPECT_FALSE(early.log[0].keep);
    EXPECT_EQ(early.log[0].stagesRun, 1u);
    EXPECT_EQ(early.stats.hwModel.decisions, 1u);
    EXPECT_EQ(early.stats.hwModel.checkpointBytes,
              reference.size() * kCheckpointBytesPerCell);

    ASSERT_EQ(late.log.size(), 1u);
    EXPECT_TRUE(late.log[0].keep);
    EXPECT_EQ(late.log[0].stagesRun, 1u);
    EXPECT_EQ(late.stats.hwModel.decisions, 1u);
    EXPECT_EQ(late.stats.hwModel.checkpointBytes, 0u);
    EXPECT_EQ(early.stats.hwModel.cycles, late.stats.hwModel.cycles);
}

TEST(AsicBackendModel, ResumedFoldIsChargedOnlyItsNewRows)
{
    // Two chunks, two decisions: the first folds the first stage and
    // continues (a checkpoint write-back), the second resumes from the
    // saved row and folds only the second chunk's rows as the read's
    // last fold.  The session's ledger is exactly those two charges.
    constexpr std::size_t kChunk = 1600;
    const pore::ReferenceSquiggle &reference =
        pipeline::streamVirusSquiggle();
    sdtw::SquiggleFilterClassifier two_stages(reference);
    two_stages.setStages({{kChunk, kCostMax}, {2 * kChunk, kCostMax}});

    const auto &read = pipeline::makeStreamDataset(2, 0.5, 91).reads.front();
    ASSERT_GT(read.raw.size(), 2 * kChunk);
    stream::SessionConfig cfg;
    cfg.channels = 1;
    cfg.chunkSeconds = double(kChunk) / cfg.sampleRateHz;
    cfg.backend = stream::DecisionBackendKind::Asic;
    const stream::SessionResult run =
        stream::ReadUntilSession(two_stages, cfg).run({&read, 1});

    ASSERT_EQ(run.log.size(), 1u);
    EXPECT_TRUE(run.log[0].keep);
    EXPECT_EQ(run.log[0].stagesRun, 2u);
    const stream::AsicSpec spec;
    const AsicDecisionModel first = modelDecision(
        spec.arrayDim, kChunk, reference.size(), false, false);
    const AsicDecisionModel second = modelDecision(
        spec.arrayDim, kChunk, reference.size(), true, true);
    const stream::ModeledHwStats &hw = run.stats.hwModel;
    EXPECT_EQ(hw.decisions, 2u);
    EXPECT_EQ(hw.cycles, first.cycles + second.cycles);
    EXPECT_EQ(hw.arrayPasses, first.passes + second.passes);
    EXPECT_EQ(hw.checkpointBytes,
              first.checkpointBytes() + second.checkpointBytes());
    EXPECT_EQ(hw.checkpointBytes,
              2 * reference.size() * kCheckpointBytesPerCell);
}

TEST(AsicBackendModel, AbortedInFlightFoldIsChargedOnce)
{
    // A dropout while the read's first decision is in flight aborts
    // the read: the decision never applies, but its fold ran, and the
    // event loop's await in abortRead charges it once.
    constexpr std::size_t kChunk = 1600;
    const pore::ReferenceSquiggle &reference =
        pipeline::streamVirusSquiggle();
    sdtw::SquiggleFilterClassifier two_stages(reference);
    two_stages.setStages({{kChunk, kCostMax}, {2 * kChunk, kCostMax}});

    const auto &read = pipeline::makeStreamDataset(2, 0.5, 91).reads.front();
    ASSERT_GT(read.raw.size(), kChunk);
    // Capture within ~10 ms, the first chunk at ~0.4 s, its decision
    // applying ~0.3 s later; the pore goes dark for good in between.
    stream::FaultPlan plan;
    plan.dropouts.push_back({0, 0.55, 0.0});
    stream::SessionConfig cfg;
    cfg.channels = 1;
    cfg.chunkSeconds = double(kChunk) / cfg.sampleRateHz;
    cfg.captureDelayMeanSec = 1e-3;
    cfg.decisionLatencySec = 0.3;
    cfg.backend = stream::DecisionBackendKind::Asic;
    cfg.faults = &plan;
    const stream::SessionResult run =
        stream::ReadUntilSession(two_stages, cfg).run({&read, 1});

    EXPECT_TRUE(run.log.empty());
    EXPECT_EQ(run.stats.decisions, 0u);
    EXPECT_EQ(run.stats.degradation.readsAborted, 1u);
    const AsicDecisionModel fold = modelDecision(
        stream::AsicSpec{}.arrayDim, kChunk, reference.size(), false, false);
    const stream::ModeledHwStats &hw = run.stats.hwModel;
    EXPECT_EQ(hw.decisions, 1u);
    EXPECT_EQ(hw.cycles, fold.cycles);
    EXPECT_EQ(hw.checkpointBytes, fold.checkpointBytes());
    EXPECT_EQ(run.stats.latency.p50us, hw.modeledLatencyUsTotal);
}

TEST(AsicBackendModel, BackendRejectsUnimplementableConfigs)
{
    stream::AsicSpec spec;
    // The hardware implements |q - r| without reference deletions;
    // modelling it for any other recurrence would be a lie.
    EXPECT_THROW(stream::checkAsicImplementable(spec, sdtw::vanillaConfig()),
                 FatalError);
    sdtw::SdtwConfig refdel = sdtw::hardwareConfig();
    refdel.allowReferenceDeletion = true;
    EXPECT_THROW(stream::checkAsicImplementable(spec, refdel), FatalError);

    stream::AsicSpec zero_pes;
    zero_pes.arrayDim = 0;
    EXPECT_THROW(
        stream::checkAsicImplementable(zero_pes, sdtw::hardwareConfig()),
        FatalError);
    stream::AsicSpec bad_clock;
    bad_clock.clockGhz = 0.0;
    EXPECT_THROW(
        stream::checkAsicImplementable(bad_clock, sdtw::hardwareConfig()),
        FatalError);
}

TEST(AsicBackendModel, SerialFoldRequestIsFatal)
{
    // Every backend folds lane batches; the factory's last parameter
    // survives for one external caller and must be true.
    for (const auto kind : {stream::DecisionBackendKind::Software,
                            stream::DecisionBackendKind::Asic})
        EXPECT_THROW(stream::makeDecisionBackend(kind, stream::AsicSpec{},
                                                 sdtw::hardwareConfig(),
                                                 16, false),
                     FatalError);
}

// ---------------------------------------------------------------- //
//    backend parity: asic decision logs == software, bit for bit    //
// ---------------------------------------------------------------- //

// A smaller mirror of the tests/test_fleet.cpp determinism matrix:
// the backend seam must not move one bit of any decision log, so the
// software standalone run is the oracle for every (backend, worker
// count, fleet mix) cell.
#if defined(__SANITIZE_THREAD__)
constexpr std::size_t kParityReads = 4;
constexpr std::size_t kParityStages = 4;
const std::vector<std::size_t> kParityFleetSizes = {2};
const std::vector<unsigned> kParityWorkers = {4};
#else
constexpr std::size_t kParityReads = 12;
constexpr std::size_t kParityStages = 6;
const std::vector<std::size_t> kParityFleetSizes = {1, 2, 4};
const std::vector<unsigned> kParityWorkers = {1, 4};
#endif

class BackendParityTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kChunk = 1600; // 0.4 s at 4 kHz
    static constexpr std::size_t kMaxFleet = 4;
    static constexpr int kParityChannels = 4;

    static const sdtw::SquiggleFilterClassifier &
    classifier()
    {
        static const sdtw::SquiggleFilterClassifier instance = [] {
            sdtw::SquiggleFilterClassifier c(
                pipeline::streamVirusSquiggle());
            c.setStages(sdtw::uniformStageSchedule(
                kChunk, kParityStages,
                pipeline::calibratedStreamThreshold(8, 0.5, 11)));
            return c;
        }();
        return instance;
    }

    static stream::SessionConfig
    sessionConfig(std::size_t i, stream::DecisionBackendKind backend)
    {
        stream::SessionConfig cfg;
        cfg.channels = kParityChannels;
        cfg.chunkSeconds = double(kChunk) / cfg.sampleRateHz;
        cfg.seed = 0xa51c + i;
        cfg.backend = backend;
        return cfg;
    }

    static const signal::Dataset &
    sessionReads(std::size_t i)
    {
        return pipeline::makeStreamDataset(kParityReads, 0.5,
                                           91 + std::uint64_t(i));
    }

    /** Software standalone run of session @p i — the parity oracle. */
    static const stream::SessionResult &
    oracle(std::size_t i)
    {
        static std::vector<stream::SessionResult> cache = [] {
            std::vector<stream::SessionResult> runs;
            for (std::size_t s = 0; s < kMaxFleet; ++s)
                runs.push_back(
                    stream::ReadUntilSession(
                        classifier(),
                        sessionConfig(
                            s, stream::DecisionBackendKind::Software))
                        .run(sessionReads(s).reads));
            return runs;
        }();
        return cache.at(i);
    }

    /** Asic standalone run of session @p i at design point @p spec:
        the oracle of its modelled latency and hwModel in a fleet. */
    static stream::SessionResult
    asicStandalone(std::size_t i, const stream::AsicSpec &spec = {})
    {
        stream::SessionConfig cfg =
            sessionConfig(i, stream::DecisionBackendKind::Asic);
        cfg.asic = spec;
        return stream::ReadUntilSession(classifier(), cfg)
            .run(sessionReads(i).reads);
    }

    /** The modelled latency percentiles and ledger, bit for bit. */
    static void
    expectModelEqual(const stream::SessionStats &run,
                     const stream::SessionStats &want,
                     const std::string &context)
    {
        EXPECT_EQ(run.latency.p50us, want.latency.p50us) << context;
        EXPECT_EQ(run.latency.p99us, want.latency.p99us) << context;
        const stream::ModeledHwStats &a = run.hwModel;
        const stream::ModeledHwStats &b = want.hwModel;
        EXPECT_EQ(a.decisions, b.decisions) << context;
        EXPECT_EQ(a.cycles, b.cycles) << context;
        EXPECT_EQ(a.arrayPasses, b.arrayPasses) << context;
        EXPECT_EQ(a.checkpointBytes, b.checkpointBytes) << context;
        EXPECT_EQ(a.modeledLatencyUsTotal, b.modeledLatencyUsTotal)
            << context;
        EXPECT_EQ(a.energyJoules, b.energyJoules) << context;
    }

    static void
    expectLogsEqual(const stream::SessionResult &run,
                    const stream::SessionResult &want,
                    const std::string &context)
    {
        ASSERT_EQ(run.log.size(), want.log.size()) << context;
        for (std::size_t i = 0; i < run.log.size(); ++i) {
            const auto &a = want.log[i];
            const auto &b = run.log[i];
            EXPECT_EQ(a.order, b.order) << context;
            EXPECT_EQ(a.channel, b.channel) << context;
            EXPECT_EQ(a.readId, b.readId) << context;
            EXPECT_EQ(a.keep, b.keep) << context;
            EXPECT_EQ(a.cost, b.cost) << context;
            EXPECT_EQ(a.samplesUsed, b.samplesUsed) << context;
            EXPECT_EQ(a.stagesRun, b.stagesRun) << context;
            EXPECT_DOUBLE_EQ(a.virtualSec, b.virtualSec) << context;
        }
        EXPECT_EQ(run.stats.chunksEmitted, want.stats.chunksEmitted)
            << context;
        EXPECT_EQ(run.stats.decisions, want.stats.decisions) << context;
        EXPECT_EQ(run.stats.dpRowsFolded, want.stats.dpRowsFolded)
            << context;
    }
};

TEST_F(BackendParityTest, AsicSessionLogMatchesSoftwareAcrossWorkers)
{
    double first_p50 = -1.0;
    for (unsigned workers : kParityWorkers) {
        stream::SessionConfig cfg =
            sessionConfig(0, stream::DecisionBackendKind::Asic);
        cfg.workers = workers;
        const stream::SessionResult run =
            stream::ReadUntilSession(classifier(), cfg)
                .run(sessionReads(0).reads);
        expectLogsEqual(run, oracle(0),
                        "asic workers=" + std::to_string(workers));
        EXPECT_EQ(run.stats.backend,
                  stream::DecisionBackendKind::Asic);
        // Every decision was modelled, and the model actually ran.
        EXPECT_EQ(run.stats.hwModel.decisions, run.stats.decisions);
        EXPECT_GT(run.stats.hwModel.cycles, 0u);
        EXPECT_GT(run.stats.hwModel.modeledLatencyUsTotal, 0.0);
        EXPECT_GT(run.stats.hwModel.energyJoules, 0.0);
        // Latency percentiles are cycle-model outputs, not wall time:
        // they must be identical at every worker count.
        if (first_p50 < 0.0)
            first_p50 = run.stats.latency.p50us;
        else
            EXPECT_DOUBLE_EQ(run.stats.latency.p50us, first_p50)
                << "modelled latency moved with worker count";
        // The modelled chunk decision sits inside the paper's 43 us
        // budget (single-stage passes; longer accumulations may
        // exceed p50 but the median chunk must fit).
        EXPECT_LT(run.stats.latency.p50us, 43.0);
    }
}

TEST_F(BackendParityTest, HelpedAsicSessionLedgerMatchesFourWorkers)
{
    // One worker and a deep queue: the event loop folds queued
    // dispatches on its own engine while it waits.  The session
    // charges each decision where it awaits it, whichever thread
    // folded it, so it reports the same hwModel as a 4-worker run,
    // its doubles included.  Near-instant captures line every
    // channel's chunks up on the same virtual instants, and a virtual
    // decision latency of one chunk keeps each request in flight
    // until the next wave is submitted, so the event loop awaits its
    // first decision with the whole wave queued behind it.
    const auto run_with = [](unsigned workers) {
        stream::SessionConfig cfg =
            sessionConfig(0, stream::DecisionBackendKind::Asic);
        cfg.channels = 2 * kParityChannels;
        cfg.captureDelayMeanSec = 1e-3;
        cfg.decisionLatencySec = cfg.chunkSeconds;
        cfg.workers = workers;
        cfg.queueCapacity = 256;
        cfg.dispatchBatch = 2;
        return stream::ReadUntilSession(classifier(), cfg)
            .run(sessionReads(0).reads);
    };
    const stream::SessionResult helped = run_with(1);
    const stream::SessionResult wide = run_with(4);
    EXPECT_GT(helped.stats.helpedDispatches, 0u);
    expectLogsEqual(helped, wide, "asic helped vs 4 workers");

    const stream::ModeledHwStats &a = helped.stats.hwModel;
    const stream::ModeledHwStats &b = wide.stats.hwModel;
    EXPECT_EQ(a.decisions, helped.stats.decisions);
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.arrayPasses, b.arrayPasses);
    EXPECT_EQ(a.checkpointBytes, b.checkpointBytes);
    // Summed in the event loop's await order, which the virtual clock
    // fixes: equal bit for bit.
    EXPECT_EQ(a.modeledLatencyUsTotal, b.modeledLatencyUsTotal);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
}

TEST_F(BackendParityTest, SoftwareBackendIsTheDefaultAndUnmodelled)
{
    const stream::SessionResult &run = oracle(0);
    EXPECT_EQ(run.stats.backend,
              stream::DecisionBackendKind::Software);
    EXPECT_EQ(run.stats.hwModel.decisions, 0u);
    EXPECT_EQ(run.stats.hwModel.cycles, 0u);
}

TEST_F(BackendParityTest, MixedFleetLogsMatchOracleAcrossMatrix)
{
    // Alternate backends across the fleet: asic and software sessions
    // share the worker pool and every log must still equal the
    // software standalone oracle, at every fleet size and worker
    // count.  Each Asic session's modelled latency and ledger equal
    // its standalone Asic run's, bit for bit.
    std::vector<stream::SessionResult> asic_oracle;
    for (std::size_t i = 0; i < kMaxFleet; i += 2)
        asic_oracle.push_back(asicStandalone(i));
    for (std::size_t fleet_size : kParityFleetSizes) {
        for (unsigned workers : kParityWorkers) {
            fleet::FleetConfig cfg;
            cfg.workers = workers;
            cfg.queueCapacity = 32;
            cfg.dispatchBatch = 16;
            fleet::FleetOrchestrator fleet(cfg);
            for (std::size_t i = 0; i < fleet_size; ++i) {
                fleet::SessionSpec spec;
                spec.name = "cell-" + std::to_string(i);
                spec.classifier = &classifier();
                spec.config = sessionConfig(
                    i, i % 2 == 0
                           ? stream::DecisionBackendKind::Asic
                           : stream::DecisionBackendKind::Software);
                spec.reads = sessionReads(i).reads;
                fleet.addSession(std::move(spec));
            }
            const fleet::FleetResult result = fleet.run();
            const std::string context =
                "fleet=" + std::to_string(fleet_size) +
                " workers=" + std::to_string(workers);
            ASSERT_EQ(result.sessions.size(), fleet_size);
            for (std::size_t i = 0; i < fleet_size; ++i)
                expectLogsEqual(result.sessions[i].result, oracle(i),
                                context + " session=" +
                                    std::to_string(i));
            // Each session's modelled-hardware ledger covers exactly
            // its own decisions when it selected the Asic backend, and
            // a Software session keeps its wall latency.
            for (std::size_t i = 0; i < fleet_size; ++i) {
                const stream::SessionStats &stats =
                    result.sessions[i].result.stats;
                const std::string where =
                    context + " session=" + std::to_string(i);
                EXPECT_EQ(stats.hwModel.decisions,
                          i % 2 == 0 ? stats.decisions : 0u)
                    << where;
                if (i % 2 == 0)
                    expectModelEqual(stats, asic_oracle[i / 2].stats,
                                     where);
                else
                    EXPECT_EQ(stats.hwModel.cycles, 0u) << where;
            }
            // The dispatch share splits by backend and accounts for
            // every folded request.
            const auto &by_backend =
                result.snapshot.requestsByBackend;
            EXPECT_EQ(by_backend[std::size_t(
                          stream::DecisionBackendKind::Software)] +
                          by_backend[std::size_t(
                              stream::DecisionBackendKind::Asic)],
                      result.snapshot.dispatchedRequests)
                << context;
            EXPECT_GT(by_backend[std::size_t(
                          stream::DecisionBackendKind::Asic)],
                      0u)
                << context;
            if (fleet_size > 1) {
                EXPECT_GT(by_backend[std::size_t(
                              stream::DecisionBackendKind::Software)],
                          0u)
                    << context;
            }
        }
    }
}

TEST_F(BackendParityTest, MixedDispatchFoldsOnceAtWallLatency)
{
    // Asic and Software requests on one classifier share one lane
    // batch on an engine the factory built for an Asic session: one
    // kernel call, and every request completes with its wall latency
    // (the modelled charge is the event loop's, see
    // MixedFleetLogsMatchOracleAcrossMatrix).
    constexpr std::size_t kRequests = 4;
    const auto backend = stream::makeDecisionBackend(
        stream::DecisionBackendKind::Asic, stream::AsicSpec{},
        classifier().config(), 16);
    const auto &reads = sessionReads(0).reads;
    ASSERT_GE(reads.size(), kRequests);
    std::vector<sdtw::ClassifierStream> streams;
    for (std::size_t i = 0; i < kRequests; ++i)
        streams.push_back(classifier().beginStream());
    stream::CompletionBoard asic_board(kRequests);
    stream::CompletionBoard software_board(kRequests);
    // Enqueued a second ago: any wall latency is >= 1e6 us, far above
    // a modelled chunk decision.
    const auto enqueued =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    std::vector<stream::DecisionRequest> batch;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const bool asic = i % 2 == 0;
        const std::vector<RawSample> &raw = reads[i].raw;
        ASSERT_GE(raw.size(), kChunk);
        stream::DecisionRequest req;
        req.stream = &streams[i];
        req.classifier = &classifier();
        req.samples.assign(raw.begin(),
                           raw.begin() + std::ptrdiff_t(kChunk));
        req.board = asic ? &asic_board : &software_board;
        req.slot = i;
        req.sessionId = asic ? 0 : 1;
        req.backend = asic ? stream::DecisionBackendKind::Asic
                           : stream::DecisionBackendKind::Software;
        req.enqueued = enqueued;
        req.board->markPending(i);
        batch.push_back(std::move(req));
    }

    const sdtw::FoldStats before = backend->foldStats();
    backend->fold(batch);
    const sdtw::FoldStats &after = backend->foldStats();
    EXPECT_EQ(after.batchedCalls + after.serialCalls,
              before.batchedCalls + before.serialCalls + 1);
    for (stream::CompletionBoard *board : {&asic_board, &software_board}) {
        const std::vector<double> wall = board->takeLatencies();
        ASSERT_EQ(wall.size(), kRequests / 2);
        for (double us : wall)
            EXPECT_GE(us, 1e6);
    }
}

TEST_F(BackendParityTest, FleetChargesEachAsicSessionItsOwnDesignPoint)
{
    // Two Asic sessions of one fleet model different chips (D = 2000
    // and D = 1000): each session charges its own AsicSpec, so its
    // modelled latency and ledger equal its standalone run's.
    stream::AsicSpec half;
    half.arrayDim = 1000;
    const stream::AsicSpec specs[] = {stream::AsicSpec{}, half};
    fleet::FleetConfig cfg;
    cfg.workers = kParityWorkers.back();
    fleet::FleetOrchestrator fleet(cfg);
    for (std::size_t i = 0; i < 2; ++i) {
        fleet::SessionSpec spec;
        spec.name = "d" + std::to_string(specs[i].arrayDim);
        spec.classifier = &classifier();
        spec.config = sessionConfig(i, stream::DecisionBackendKind::Asic);
        spec.config.asic = specs[i];
        spec.reads = sessionReads(i).reads;
        fleet.addSession(std::move(spec));
    }
    const fleet::FleetResult result = fleet.run();
    ASSERT_EQ(result.sessions.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const stream::SessionResult alone = asicStandalone(i, specs[i]);
        const std::string context = result.sessions[i].name;
        expectLogsEqual(result.sessions[i].result, oracle(i), context);
        EXPECT_EQ(result.sessions[i].result.stats.hwModel.decisions,
                  alone.stats.decisions)
            << context;
        expectModelEqual(result.sessions[i].result.stats, alone.stats,
                         context);
    }
    // The design point is really charged: the 1600-row folds take two
    // passes of the 1000-PE array where the 2000-PE one takes one.
    EXPECT_GT(result.sessions[1].result.stats.hwModel.arrayPasses,
              asicStandalone(1).stats.hwModel.arrayPasses);
}

} // namespace
} // namespace sf::hw
