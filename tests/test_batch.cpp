/**
 * @file
 * Tests for the lane-batched SIMD sDTW kernel: BatchSdtw on every
 * backend must be bit-identical to the serial QuantSdtw engine for
 * every recurrence configuration (the lane kernels fold the
 * accelerator's shape, every other config is routed to QuantSdtw),
 * across ragged batches, lane refills, and checkpointed
 * enter/leave-the-batch streaming — plus the batched classifier
 * paths (feedChunkBatch, processBatch) that ride on it.
 * Result-equality tests run the Serial backend too, so a host without
 * a lane kernel still exercises BatchSdtw; tests of the batched path
 * itself run the lane backends only.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "genome/synthetic.hpp"
#include "pore/kmer_model.hpp"
#include "pore/reference_squiggle.hpp"
#include "sdtw/batch.hpp"
#include "sdtw/filter.hpp"
#include "signal/dataset.hpp"

namespace sf::sdtw {
namespace {

std::vector<NormSample>
randomQuantSignal(std::size_t n, Rng &rng)
{
    std::vector<NormSample> out(n);
    for (auto &s : out)
        s = NormSample(rng.uniformInt(-128, 127));
    return out;
}

/** The lane-kernel backends this host can execute. */
std::vector<SimdBackend>
laneBackends()
{
    std::vector<SimdBackend> out;
    for (SimdBackend backend : {SimdBackend::Avx2, SimdBackend::Avx512}) {
        if (simdBackendAvailable(backend))
            out.push_back(backend);
    }
    return out;
}

/** Serial plus every lane backend this host can execute. */
std::vector<SimdBackend>
availableBackends()
{
    std::vector<SimdBackend> out{SimdBackend::Serial};
    for (SimdBackend backend : laneBackends())
        out.push_back(backend);
    return out;
}

/**
 * Whether BatchSdtw folds @p config on its lane kernels: the
 * accelerator's datapath of absolute difference, no reference
 * deletions and a match bonus rounding to a power of two no larger
 * than 2^22.  Every other config is routed to the serial engine.
 */
bool
hasLaneShape(const SdtwConfig &config)
{
    const long long unit = std::llround(config.matchBonus);
    return config.metric == CostMetric::AbsoluteDifference &&
           !config.allowReferenceDeletion && unit >= 1 &&
           unit <= (1LL << 22) && (unit & (unit - 1)) == 0;
}

std::vector<SdtwConfig>
allConfigs()
{
    // All eight combinations of the recurrence switches, at the
    // hardware dwell cap, plus the non-power-of-two bonus variants.
    // Only the hardware config (abs, no ref-del, bonus 2) has the
    // lane kernels' shape; the other nine pin that BatchSdtw routes
    // them to the serial engine bit-exactly.
    std::vector<SdtwConfig> configs;
    for (int bits = 0; bits < 8; ++bits) {
        SdtwConfig config = hardwareConfig();
        if (bits & 1)
            config.metric = CostMetric::SquaredDifference;
        if (bits & 2)
            config.allowReferenceDeletion = true;
        if (bits & 4)
            config.matchBonus = 0.0;
        configs.push_back(config);
        if (config.matchBonus > 0.0) {
            config.matchBonus = 3.0; // not a power of two: routed
            configs.push_back(config);
        }
    }
    return configs;
}

/** Serial ground truth for a set of (state, query) lanes. */
void
expectMatchesSerial(const SdtwConfig &config,
                    std::span<BatchLane> lanes,
                    std::span<const NormSample> reference,
                    std::vector<QuantSdtw::State> serial_states,
                    const char *label)
{
    const QuantSdtw engine(config);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const auto want =
            engine.process(lanes[i].query, reference, serial_states[i]);
        const auto &got = lanes[i].result;
        ASSERT_EQ(got.cost, want.cost)
            << label << " lane " << i << " cfg " << config.describe();
        ASSERT_EQ(got.refEnd, want.refEnd) << label << " lane " << i;
        ASSERT_EQ(got.rows, want.rows) << label << " lane " << i;
        // The checkpointed state must match too, so the lane can be
        // resumed later from either path interchangeably.
        ASSERT_EQ(lanes[i].state->rowsDone, serial_states[i].rowsDone);
        ASSERT_EQ(lanes[i].state->row, serial_states[i].row)
            << label << " lane " << i << " row state";
        ASSERT_EQ(lanes[i].state->dwell, serial_states[i].dwell)
            << label << " lane " << i << " dwell state";
    }
}

// ---------------------------------------------------------------- //
//                      backend plumbing                             //
// ---------------------------------------------------------------- //

TEST(BatchSimd, SerialBackendFoldsEveryCallSerially)
{
    EXPECT_TRUE(simdBackendAvailable(SimdBackend::Serial));
    EXPECT_EQ(simdLaneWidth(SimdBackend::Serial), 1u);
    EXPECT_STREQ(simdBackendName(SimdBackend::Serial), "serial");

    // A full 16-lane call with the cutover forced to 0 still folds on
    // the serial engine: the Serial backend has no lane kernel.
    Rng rng(0x5e1aULL);
    const auto ref = randomQuantSignal(120, rng);
    constexpr std::size_t kLanes = 16;
    std::vector<std::vector<NormSample>> queries(kLanes);
    std::vector<QuantSdtw::State> states(kLanes);
    std::vector<BatchLane> lanes(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
        queries[i] =
            randomQuantSignal(std::size_t(rng.uniformInt(1, 80)), rng);
        lanes[i].state = &states[i];
        lanes[i].query = queries[i];
    }
    BatchSdtw kernel(hardwareConfig(), kLanes, SimdBackend::Serial);
    kernel.setSerialCutover(0);
    kernel.processMany(lanes, ref);
    const FoldStats &fs = kernel.foldStats();
    EXPECT_EQ(fs.serialCalls, 1u);
    EXPECT_EQ(fs.batchedCalls, 0u);
    EXPECT_EQ(fs.laneJobs, kLanes);
    EXPECT_EQ(fs.laneSlots, fs.laneJobs);
    expectMatchesSerial(hardwareConfig(), lanes, ref,
                        std::vector<QuantSdtw::State>(kLanes), "serial");
}

TEST(BatchSimd, DetectedBackendIsAvailable)
{
    const SimdBackend detected = detectSimdBackend();
    EXPECT_TRUE(simdBackendAvailable(detected));
    EXPECT_GE(simdLaneWidth(detected), 1u);
}

TEST(BatchSimd, LaneCapacityRoundsUpToWholeGroups)
{
    for (SimdBackend backend : availableBackends()) {
        const BatchSdtw kernel(hardwareConfig(), 5, backend);
        EXPECT_EQ(kernel.laneCapacity() % kernel.laneWidth(), 0u);
        EXPECT_GE(kernel.laneCapacity(), 5u);
        EXPECT_EQ(kernel.laneWidth(), simdLaneWidth(backend));
    }
}

TEST(BatchSimd, InvalidLaneCapacityIsFatal)
{
    EXPECT_THROW(BatchSdtw(hardwareConfig(), 0), FatalError);
}

// ---------------------------------------------------------------- //
//          bit-exactness: every backend, every config               //
// ---------------------------------------------------------------- //

class BatchBackendTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BatchBackendTest, RaggedBatchBitIdenticalToSerialAllConfigs)
{
    Rng rng(GetParam() ^ 0xba7c4ULL);
    const auto m = std::size_t(rng.uniformInt(1, 300));
    const auto ref = randomQuantSignal(m, rng);
    const auto n_lanes = std::size_t(rng.uniformInt(1, 33));

    std::vector<std::vector<NormSample>> queries(n_lanes);
    for (auto &q : queries)
        q = randomQuantSignal(std::size_t(rng.uniformInt(1, 200)), rng);

    for (const SdtwConfig &config : allConfigs()) {
        for (SimdBackend backend : availableBackends()) {
            std::vector<QuantSdtw::State> states(n_lanes);
            std::vector<BatchLane> lanes(n_lanes);
            for (std::size_t i = 0; i < n_lanes; ++i) {
                lanes[i].state = &states[i];
                lanes[i].query = queries[i];
            }
            BatchSdtw kernel(config, 16, backend);
            kernel.setSerialCutover(0); // always the batched path
            kernel.processMany(lanes, ref);
            expectMatchesSerial(config, lanes, ref,
                                std::vector<QuantSdtw::State>(n_lanes),
                                simdBackendName(backend));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchBackendTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(BatchSdtwTest, EdgeBatchWidthsAroundLaneWidth)
{
    // B = 1, lane_width - 1, lane_width, lane_width + 1: the exact
    // boundaries where group occupancy logic can go wrong.
    Rng rng(0xedfeULL);
    const auto ref = randomQuantSignal(120, rng);
    const SdtwConfig config = hardwareConfig();

    for (SimdBackend backend : availableBackends()) {
        const std::size_t w = simdLaneWidth(backend);
        std::vector<std::size_t> widths{1, w, w + 1};
        if (w > 1)
            widths.push_back(w - 1);
        for (std::size_t b : widths) {
            std::vector<std::vector<NormSample>> queries(b);
            for (auto &q : queries)
                q = randomQuantSignal(
                    std::size_t(rng.uniformInt(1, 80)), rng);
            std::vector<QuantSdtw::State> states(b);
            std::vector<BatchLane> lanes(b);
            for (std::size_t i = 0; i < b; ++i) {
                lanes[i].state = &states[i];
                lanes[i].query = queries[i];
            }
            BatchSdtw kernel(config, std::max<std::size_t>(b, 1),
                             backend);
            kernel.setSerialCutover(0);
            kernel.processMany(lanes, ref);
            expectMatchesSerial(config, lanes, ref,
                                std::vector<QuantSdtw::State>(b),
                                simdBackendName(backend));
        }
    }
}

TEST(BatchSdtwTest, AllLanesDifferentLengthsRetireRagged)
{
    // Query lengths 1, 2, ..., B: every row fold retires at most one
    // lane, exercising the retire-and-continue path maximally.
    Rng rng(0x1a9eULL);
    const auto ref = randomQuantSignal(200, rng);
    const std::size_t b = 24;
    std::vector<std::vector<NormSample>> queries(b);
    for (std::size_t i = 0; i < b; ++i)
        queries[i] = randomQuantSignal(i + 1, rng);

    for (SimdBackend backend : availableBackends()) {
        std::vector<QuantSdtw::State> states(b);
        std::vector<BatchLane> lanes(b);
        for (std::size_t i = 0; i < b; ++i) {
            lanes[i].state = &states[i];
            lanes[i].query = queries[i];
        }
        BatchSdtw kernel(hardwareConfig(), 8, backend);
        kernel.setSerialCutover(0);
        kernel.processMany(lanes, ref);
        expectMatchesSerial(hardwareConfig(), lanes, ref,
                            std::vector<QuantSdtw::State>(b),
                            simdBackendName(backend));
    }
}

TEST(BatchSdtwTest, LanesRefilledMidBatchFromPendingQueue)
{
    // Far more lanes than capacity with wildly mixed lengths: short
    // reads retire early and free slots that are refilled from the
    // pending queue while long reads are still in flight.
    Rng rng(0x5e71ULL);
    const auto ref = randomQuantSignal(150, rng);
    const std::size_t b = 40;
    std::vector<std::vector<NormSample>> queries(b);
    for (std::size_t i = 0; i < b; ++i) {
        const std::size_t len = (i % 3 == 0) ? 150 : (i % 3 == 1 ? 3 : 40);
        queries[i] = randomQuantSignal(len, rng);
    }

    for (SimdBackend backend : availableBackends()) {
        std::vector<QuantSdtw::State> states(b);
        std::vector<BatchLane> lanes(b);
        for (std::size_t i = 0; i < b; ++i) {
            lanes[i].state = &states[i];
            lanes[i].query = queries[i];
        }
        BatchSdtw kernel(hardwareConfig(), 8, backend); // forces refills
        kernel.setSerialCutover(0);
        kernel.processMany(lanes, ref);
        expectMatchesSerial(hardwareConfig(), lanes, ref,
                            std::vector<QuantSdtw::State>(b),
                            simdBackendName(backend));
    }
}

TEST(BatchSdtwTest, MixedFreshAndResumedStatesInOneBatch)
{
    // Half the lanes enter with a checkpoint from an earlier chunk
    // (resumed mid-read), half start fresh — in the same batch.
    Rng rng(0x317fULL);
    const auto ref = randomQuantSignal(180, rng);
    const QuantSdtw engine(hardwareConfig());
    const std::size_t b = 12;

    std::vector<std::vector<NormSample>> chunk1(b), chunk2(b);
    std::vector<QuantSdtw::State> states(b), serial(b);
    for (std::size_t i = 0; i < b; ++i) {
        chunk2[i] = randomQuantSignal(
            std::size_t(rng.uniformInt(1, 60)), rng);
        if (i % 2 == 0) {
            chunk1[i] = randomQuantSignal(
                std::size_t(rng.uniformInt(1, 60)), rng);
            engine.process(chunk1[i], ref, states[i]);
            engine.process(chunk1[i], ref, serial[i]);
        }
    }

    for (SimdBackend backend : availableBackends()) {
        auto batch_states = states;
        auto serial_states = serial;
        std::vector<BatchLane> lanes(b);
        for (std::size_t i = 0; i < b; ++i) {
            lanes[i].state = &batch_states[i];
            lanes[i].query = chunk2[i];
        }
        BatchSdtw kernel(hardwareConfig(), 16, backend);
        kernel.setSerialCutover(0);
        kernel.processMany(lanes, ref);
        expectMatchesSerial(hardwareConfig(), lanes, ref,
                            std::move(serial_states),
                            simdBackendName(backend));
    }
}

TEST(BatchSdtwTest, StateEntersAndLeavesBatchBetweenChunks)
{
    // Chunked streaming through *different* batches (and different
    // co-lanes each time) equals the serial one-shot alignment: the
    // checkpoint is a plain SdtwState either way.
    Rng rng(0x90c2ULL);
    const auto ref = randomQuantSignal(160, rng);
    const auto query = randomQuantSignal(100, rng);
    const QuantSdtw engine(hardwareConfig());
    const auto one_shot = engine.align(query, ref);

    for (SimdBackend backend : availableBackends()) {
        BatchSdtw kernel(hardwareConfig(), 8, backend);
        kernel.setSerialCutover(0);
        QuantSdtw::State state;
        QuantSdtw::Result last{};
        std::size_t offset = 0;
        std::uint64_t noise_seed = 0;
        while (offset < query.size()) {
            const auto len = std::min<std::size_t>(
                std::size_t(rng.uniformInt(1, 30)),
                query.size() - offset);
            // Fresh decoy lanes each round: the lane under test must
            // be unaffected by whoever shares the batch.
            Rng noise(++noise_seed);
            auto decoy_q = randomQuantSignal(20, noise);
            QuantSdtw::State decoy_state;
            std::vector<BatchLane> lanes(2);
            lanes[0].state = &state;
            lanes[0].query =
                std::span<const NormSample>(query).subspan(offset, len);
            lanes[1].state = &decoy_state;
            lanes[1].query = decoy_q;
            kernel.processMany(lanes, ref);
            last = lanes[0].result;
            offset += len;
        }
        EXPECT_EQ(last.cost, one_shot.cost) << simdBackendName(backend);
        EXPECT_EQ(last.refEnd, one_shot.refEnd);
        EXPECT_EQ(last.rows, query.size());
    }
}

TEST(BatchSdtwTest, EmptyQueryWithResumedStateReportsCurrentRow)
{
    Rng rng(0x44dULL);
    const auto ref = randomQuantSignal(90, rng);
    const auto chunk = randomQuantSignal(30, rng);
    const QuantSdtw engine(hardwareConfig());

    QuantSdtw::State serial_state;
    engine.process(chunk, ref, serial_state);
    const auto want = engine.process({}, ref, serial_state);

    for (SimdBackend backend : availableBackends()) {
        QuantSdtw::State state;
        engine.process(chunk, ref, state);
        std::vector<BatchLane> lanes(5);
        std::vector<QuantSdtw::State> others(5);
        std::vector<std::vector<NormSample>> other_q(5);
        for (std::size_t i = 1; i < 5; ++i) {
            other_q[i] = randomQuantSignal(10, rng);
            lanes[i].state = &others[i];
            lanes[i].query = other_q[i];
        }
        lanes[0].state = &state;
        lanes[0].query = {};
        BatchSdtw kernel(hardwareConfig(), 8, backend);
        kernel.setSerialCutover(0);
        kernel.processMany(lanes, ref);
        EXPECT_EQ(lanes[0].result.cost, want.cost);
        EXPECT_EQ(lanes[0].result.refEnd, want.refEnd);
        EXPECT_EQ(lanes[0].result.rows, want.rows);
    }
}

TEST(BatchSdtwTest, SerialCutoverPathIsAlsoBitIdentical)
{
    // Below the cutover processMany() delegates to the serial engine;
    // results must be indistinguishable from the batched path.
    Rng rng(0xc0feULL);
    const auto ref = randomQuantSignal(100, rng);
    const auto q = randomQuantSignal(50, rng);
    const QuantSdtw engine(hardwareConfig());
    QuantSdtw::State want_state;
    const auto want = engine.process(q, ref, want_state);

    BatchSdtw kernel(hardwareConfig());
    ASSERT_GE(BatchSdtw::kDefaultSerialCutover, 2u);
    QuantSdtw::State state;
    std::vector<BatchLane> lanes(1);
    lanes[0].state = &state;
    lanes[0].query = q;
    kernel.processMany(lanes, ref);
    EXPECT_EQ(lanes[0].result.cost, want.cost);
    EXPECT_EQ(state.row, want_state.row);
}

TEST(BatchSdtwTest, InvalidLanesAreFatal)
{
    Rng rng(0x3aaULL);
    const auto ref = randomQuantSignal(50, rng);
    const auto other_ref = randomQuantSignal(60, rng);
    const auto q = randomQuantSignal(10, rng);
    BatchSdtw kernel(hardwareConfig());
    kernel.setSerialCutover(0);

    { // empty reference
        QuantSdtw::State state;
        std::vector<BatchLane> lanes{{&state, q, {}}};
        EXPECT_THROW(kernel.processMany(lanes, {}), FatalError);
    }
    { // fresh state and empty query
        QuantSdtw::State state;
        std::vector<BatchLane> lanes{{&state, {}, {}}};
        EXPECT_THROW(kernel.processMany(lanes, ref), FatalError);
    }
    { // state/reference length mismatch
        QuantSdtw::State state;
        QuantSdtw(hardwareConfig()).process(q, other_ref, state);
        std::vector<BatchLane> lanes{{&state, q, {}}};
        EXPECT_THROW(kernel.processMany(lanes, ref), FatalError);
    }
    { // null state
        std::vector<BatchLane> lanes{{nullptr, q, {}}};
        EXPECT_THROW(kernel.processMany(lanes, ref), FatalError);
    }
    { // resumed state whose dwell is shorter than its row
        QuantSdtw::State state;
        QuantSdtw(hardwareConfig()).process(q, ref, state);
        state.dwell.resize(ref.size() - 1);
        std::vector<BatchLane> lanes{{&state, q, {}}};
        EXPECT_THROW(kernel.processMany(lanes, ref), FatalError);
    }
}

// ---------------------------------------------------------------- //
//          saturation ceiling: unprovable calls fold serially       //
// ---------------------------------------------------------------- //

TEST(BatchSdtwTest, CeilingRoutesUnprovableCallsSerially)
{
    // The batched kernel adds without saturating, so validate() must
    // send any call with a lane whose cost bound (resumed row max +
    // query length x widest cell) passes kCostMax to the saturating
    // serial engine.  Lane 0's row max sits at the ceiling less the
    // query's worth of widest cells (plus `over`), in column 0, where
    // a 127-vs-(-128) sample pair costs the widest cell every row and
    // only the vertical predecessor exists: at the bound the column
    // lands exactly on kCostMax, one past it the serial engine clamps
    // there (a plain add would wrap to 0).
    Rng rng(0xce11ULL);
    constexpr std::size_t kLanes = 5;
    constexpr std::size_t kQuery = 20;
    constexpr std::size_t kCols = 64;
    auto ref = randomQuantSignal(kCols, rng);
    ref[0] = NormSample(-128);

    for (const CostMetric metric :
         {CostMetric::AbsoluteDifference, CostMetric::SquaredDifference}) {
        SdtwConfig config = hardwareConfig();
        config.metric = metric;
        const Cost cell_max =
            metric == CostMetric::SquaredDifference ? 255 * 255 : 255;
        const Cost top = kCostMax - Cost(kQuery) * cell_max;

        for (const Cost over : {Cost(0), Cost(1)}) {
            std::vector<QuantSdtw::State> states(kLanes);
            std::vector<std::vector<NormSample>> queries(kLanes);
            for (std::size_t i = 0; i < kLanes; ++i) {
                QuantSdtw::State &s = states[i];
                s.rowsDone = 1000;
                s.row.resize(kCols);
                s.dwell.resize(kCols);
                for (std::size_t j = 0; j < kCols; ++j) {
                    s.row[j] = top - Cost(rng.uniformInt(0, 1 << 20));
                    s.dwell[j] = std::uint8_t(
                        rng.uniformInt(1, config.dwellCap));
                }
                queries[i] = randomQuantSignal(kQuery, rng);
            }
            states[0].row[0] = top + over;
            std::fill(queries[0].begin(), queries[0].end(),
                      NormSample(127));

            // Above the cutover a provable call folds batched; below
            // it, on the columns kernel.  An unprovable call folds on
            // the serial engine either way, as does every call of the
            // squared metric, which has no lane kernel.
            for (SimdBackend backend : laneBackends()) {
                for (const bool thin : {false, true}) {
                    std::vector<QuantSdtw::State> batch_states = states;
                    std::vector<BatchLane> lanes(kLanes);
                    for (std::size_t i = 0; i < kLanes; ++i) {
                        lanes[i].state = &batch_states[i];
                        lanes[i].query = queries[i];
                    }
                    BatchSdtw kernel(config, 16, backend);
                    kernel.setSerialCutover(thin ? SIZE_MAX : 0);
                    kernel.processMany(lanes, ref);
                    const FoldStats &fs = kernel.foldStats();
                    const std::string label =
                        std::string(simdBackendName(backend)) +
                        (thin ? " thin" : " wide") + " over " +
                        std::to_string(over);
                    const bool lane = hasLaneShape(config) && over == 0;
                    EXPECT_EQ(fs.serialCalls, thin || !lane ? 1u : 0u)
                        << label;
                    EXPECT_EQ(fs.batchedCalls, thin || !lane ? 0u : 1u)
                        << label;
                    EXPECT_EQ(fs.columnCalls, thin && lane ? 1u : 0u)
                        << label;
                    EXPECT_EQ(batch_states[0].row[0], kCostMax) << label;
                    expectMatchesSerial(config, lanes, ref, states,
                                        label.c_str());
                }
            }
        }
    }
}

// ---------------------------------------------------------------- //
//       differential property test against a plain O(nm) DP         //
// ---------------------------------------------------------------- //

/**
 * The sDTW recurrence written out plainly, one query sample at a
 * time: the independent oracle for the property test below.  Costs
 * saturate at kCostMax and the bonus-reduced diagonal clamps at 0;
 * the diagonal wins ties, and a reference deletion (left neighbour)
 * only a strict improvement.
 */
struct PlainSdtw
{
    SdtwConfig config;
    std::vector<Cost> row;
    std::vector<std::uint8_t> dwell;

    static Cost
    sat(std::uint64_t v)
    {
        return v > kCostMax ? kCostMax : Cost(v);
    }

    Cost
    cell(NormSample q, NormSample r) const
    {
        const std::uint64_t d = std::uint64_t(std::abs(int(q) - int(r)));
        return Cost(config.metric == CostMetric::SquaredDifference ? d * d
                                                                   : d);
    }

    void
    fold(NormSample q, std::span<const NormSample> ref)
    {
        const std::size_t m = ref.size();
        const auto cap = std::uint8_t(config.dwellCap);
        if (row.empty()) {
            for (std::size_t j = 0; j < m; ++j) {
                row.push_back(cell(q, ref[j]));
                dwell.push_back(1);
            }
            return;
        }
        const auto bonus = Cost(std::llround(config.matchBonus));
        std::vector<Cost> next(m);
        std::vector<std::uint8_t> next_dwell(m);
        for (std::size_t j = 0; j < m; ++j) {
            const auto bumped = std::uint8_t(std::min(dwell[j] + 1, +cap));
            Cost best = row[j];
            std::uint8_t dw = bumped;
            if (j > 0) {
                const Cost reward = bonus * std::min(dwell[j - 1], cap);
                const Cost diag =
                    row[j - 1] > reward ? row[j - 1] - reward : 0;
                if (diag <= best) {
                    best = diag;
                    dw = 1;
                }
                if (config.allowReferenceDeletion && next[j - 1] < best) {
                    best = next[j - 1];
                    dw = 1;
                }
            }
            next[j] = sat(std::uint64_t(best) + cell(q, ref[j]));
            next_dwell[j] = dw;
        }
        row.swap(next);
        dwell.swap(next_dwell);
    }
};

TEST(BatchSdtwTest, DifferentialAgainstPlainDpRandomConfigs)
{
    // Seeded draws over metric x ref-del x bonus x dwell cap x lane
    // count x tile width x chunk split: the serial engine and every
    // available backend, lane backends forced onto the batched path,
    // against the plain DP.  The bonus set covers off, the lane
    // kernels' shift reward (1, 2, 2^22 — the deepest pre-scaled
    // shift), a bonus that is not a power of two (3) and a power of
    // two too large to pre-scale (2^23: 256 << 23 overflows an
    // int32).  Draws outside the lane shape pin the routing: every
    // call folds on the serial engine, charged b * W slots.
    const std::vector<double> bonuses{0.0, 1.0, 2.0, 3.0, 4194304.0,
                                      8388608.0};
    const std::vector<int> caps{1, 10, 255};
    Rng rng(0xd1ffULL);
    for (int draw = 0; draw < 200; ++draw) {
        SdtwConfig config;
        config.metric = rng.uniformInt(0, 1) != 0
                            ? CostMetric::SquaredDifference
                            : CostMetric::AbsoluteDifference;
        config.allowReferenceDeletion = rng.uniformInt(0, 1) != 0;
        config.matchBonus =
            bonuses[std::size_t(rng.uniformInt(0, 5))];
        config.dwellCap = caps[std::size_t(rng.uniformInt(0, 2))];
        // Every large bonus meets cap 255 at least once, with queries
        // long enough for column 0's dwell to reach the cap.
        const bool deep = draw < 2;
        if (deep) {
            config.matchBonus = bonuses[std::size_t(4 + draw)];
            config.dwellCap = 255;
        }
        const auto m = std::size_t(rng.uniformInt(1, 160));
        const auto ref = randomQuantSignal(m, rng);
        const auto n_lanes = std::size_t(rng.uniformInt(1, 40));
        const std::size_t tile =
            rng.uniformInt(0, 2) == 0
                ? 0 // auto
                : std::size_t(rng.uniformInt(1, std::int64_t(m) + 4));

        // Per-lane query and ragged chunk cut points.
        std::vector<std::vector<NormSample>> queries(n_lanes);
        std::vector<std::vector<std::size_t>> cuts(n_lanes);
        std::size_t max_chunks = 0;
        for (std::size_t i = 0; i < n_lanes; ++i) {
            queries[i] = randomQuantSignal(
                std::size_t(rng.uniformInt(deep ? 260 : 1, deep ? 300 : 90)),
                rng);
            for (std::size_t at = 0; at < queries[i].size();) {
                at = std::min(queries[i].size(),
                              at + std::size_t(rng.uniformInt(1, 40)));
                cuts[i].push_back(at);
            }
            max_chunks = std::max(max_chunks, cuts[i].size());
        }

        std::vector<PlainSdtw> want(n_lanes, PlainSdtw{config, {}, {}});
        for (std::size_t i = 0; i < n_lanes; ++i)
            for (const NormSample s : queries[i])
                want[i].fold(s, ref);

        const QuantSdtw engine(config);
        for (std::size_t i = 0; i < n_lanes; ++i) {
            QuantSdtw::State state;
            std::size_t from = 0;
            for (const std::size_t to : cuts[i]) {
                engine.process(std::span<const NormSample>(queries[i])
                                   .subspan(from, to - from),
                               ref, state);
                from = to;
            }
            ASSERT_EQ(state.row, want[i].row) << "serial draw " << draw;
            ASSERT_EQ(state.dwell, want[i].dwell) << "serial draw " << draw;
        }

        for (SimdBackend backend : availableBackends()) {
            BatchSdtw kernel(config, 16, backend);
            kernel.setSerialCutover(0);
            kernel.setTileCols(tile);
            std::vector<QuantSdtw::State> states(n_lanes);
            std::vector<std::size_t> done(n_lanes, 0);
            for (std::size_t c = 0; c < max_chunks; ++c) {
                std::vector<BatchLane> lanes;
                for (std::size_t i = 0; i < n_lanes; ++i) {
                    if (c >= cuts[i].size())
                        continue;
                    lanes.push_back(
                        {&states[i],
                         std::span<const NormSample>(queries[i])
                             .subspan(done[i], cuts[i][c] - done[i]),
                         {}});
                    done[i] = cuts[i][c];
                }
                kernel.processMany(lanes, ref);
            }
            const FoldStats &fs = kernel.foldStats();
            if (backend == SimdBackend::Serial || !hasLaneShape(config)) {
                ASSERT_EQ(fs.batchedCalls, 0u) << "draw " << draw;
                ASSERT_EQ(fs.columnCalls, 0u) << "draw " << draw;
                ASSERT_EQ(fs.serialCalls, max_chunks) << "draw " << draw;
                ASSERT_EQ(fs.laneSlots, fs.laneJobs * kernel.laneWidth())
                    << "draw " << draw;
            } else {
                ASSERT_EQ(fs.serialCalls, 0u) << "draw " << draw;
            }
            for (std::size_t i = 0; i < n_lanes; ++i) {
                const std::string label =
                    std::string(simdBackendName(backend)) + " draw " +
                    std::to_string(draw) + " lane " + std::to_string(i) +
                    " " + config.describe() + " cap " +
                    std::to_string(config.dwellCap);
                ASSERT_EQ(states[i].rowsDone, queries[i].size()) << label;
                ASSERT_EQ(states[i].row, want[i].row) << label;
                ASSERT_EQ(states[i].dwell, want[i].dwell) << label;
            }
        }
    }
}

TEST(BatchSdtwTest, ColumnsDifferentialAgainstPlainDp)
{
    // Thin calls, forced below the cutover, against the plain DP on
    // every available backend (the lane backends fold them on the
    // columns kernel, the Serial backend on the serial engine).  Each
    // draw takes one of the twelve no-reference-deletion configs
    // (metric x bonus off / power of two / not pre-scalable, two
    // bonus units each; only abs with bonus 2 or 2^22 has a lane
    // kernel, the rest pin the routing to the serial engine) and
    // b = 1 .. 15 lanes of unequal query lengths, so strips of 8, 4,
    // 2 and 1 rows all run.  References of 1 .. 41 columns cover the
    // all-tail calls under one vector and every m mod 16; a few
    // longer ones cross many unrolled blocks.  Each lane joins at a
    // random call and folds its query in ragged chunks, so calls mix
    // fresh states (column 0 seeded from the free-start row) with
    // resumed ones.
    const std::vector<double> bonuses{0.0, 0.0, 2.0, 4194304.0, 3.0,
                                      8388608.0};
    const std::vector<int> caps{1, 10, 255};
    Rng rng(0xc01dULL);
    for (int draw = 0; draw < 180; ++draw) {
        SdtwConfig config;
        config.allowReferenceDeletion = false;
        config.metric = draw % 2 != 0 ? CostMetric::SquaredDifference
                                      : CostMetric::AbsoluteDifference;
        config.matchBonus = bonuses[std::size_t(draw / 2 % 6)];
        config.dwellCap = caps[std::size_t(rng.uniformInt(0, 2))];
        const auto m = draw < 160 ? std::size_t(draw % 41 + 1)
                                  : std::size_t(rng.uniformInt(41, 400));
        const auto ref = randomQuantSignal(m, rng);
        const auto n_lanes = std::size_t(draw % 15 + 1);

        std::vector<std::vector<NormSample>> queries(n_lanes);
        std::vector<std::vector<std::size_t>> cuts(n_lanes);
        std::vector<std::size_t> joins(n_lanes);
        std::size_t calls = 0;
        for (std::size_t i = 0; i < n_lanes; ++i) {
            queries[i] = randomQuantSignal(
                std::size_t(rng.uniformInt(1, 60)), rng);
            for (std::size_t at = 0; at < queries[i].size();) {
                at = std::min(queries[i].size(),
                              at + std::size_t(rng.uniformInt(1, 25)));
                cuts[i].push_back(at);
            }
            joins[i] = std::size_t(rng.uniformInt(0, 2));
            calls = std::max(calls, joins[i] + cuts[i].size());
        }
        std::vector<PlainSdtw> want(n_lanes, PlainSdtw{config, {}, {}});
        for (std::size_t i = 0; i < n_lanes; ++i)
            for (const NormSample s : queries[i])
                want[i].fold(s, ref);

        for (SimdBackend backend : availableBackends()) {
            BatchSdtw kernel(config, 16, backend);
            kernel.setSerialCutover(SIZE_MAX);
            std::vector<QuantSdtw::State> states(n_lanes);
            std::vector<std::size_t> done(n_lanes, 0);
            std::vector<QuantSdtw::Result> last(n_lanes);
            for (std::size_t c = 0; c < calls; ++c) {
                std::vector<BatchLane> lanes;
                std::vector<std::size_t> ids;
                for (std::size_t i = 0; i < n_lanes; ++i) {
                    if (c < joins[i] || c - joins[i] >= cuts[i].size())
                        continue;
                    const std::size_t to = cuts[i][c - joins[i]];
                    lanes.push_back(
                        {&states[i],
                         std::span<const NormSample>(queries[i])
                             .subspan(done[i], to - done[i]),
                         {}});
                    ids.push_back(i);
                    done[i] = to;
                }
                if (lanes.empty())
                    continue;
                kernel.processMany(lanes, ref);
                for (std::size_t k = 0; k < lanes.size(); ++k)
                    last[ids[k]] = lanes[k].result;
            }
            const FoldStats &fs = kernel.foldStats();
            ASSERT_EQ(fs.batchedCalls, 0u);
            ASSERT_EQ(fs.columnCalls,
                      backend != SimdBackend::Serial &&
                              hasLaneShape(config)
                          ? fs.serialCalls
                          : 0u);
            for (std::size_t i = 0; i < n_lanes; ++i) {
                const std::string label =
                    std::string(simdBackendName(backend)) + " draw " +
                    std::to_string(draw) + " lane " + std::to_string(i) +
                    " of " + std::to_string(n_lanes) + " m " +
                    std::to_string(m) + " " + config.describe() +
                    " cap " + std::to_string(config.dwellCap);
                ASSERT_EQ(states[i].rowsDone, queries[i].size()) << label;
                ASSERT_EQ(states[i].row, want[i].row) << label;
                ASSERT_EQ(states[i].dwell, want[i].dwell) << label;
                const auto best = std::min_element(want[i].row.begin(),
                                                   want[i].row.end());
                ASSERT_EQ(last[i].cost, *best) << label;
                ASSERT_EQ(last[i].refEnd,
                          std::size_t(best - want[i].row.begin()))
                    << label;
                ASSERT_EQ(last[i].rows, queries[i].size()) << label;
            }
        }
    }
}

// ---------------------------------------------------------------- //
//                golden pins (same table as test_sdtw)              //
// ---------------------------------------------------------------- //

TEST(BatchSdtwTest, GoldenCostsMatchSeedImplementation)
{
    // The same golden table that pins the serial engine to the seed
    // scalar implementation (see test_sdtw.cpp), evaluated through
    // the batched kernel on every available backend.
    struct Golden
    {
        std::uint64_t seed;
        int cfg;
        Cost cost;
        std::size_t refEnd;
    };
    const Golden golden[] = {
        {1, 0, 14214, 2778},  {1, 1, 962577, 2685},
        {1, 2, 12858, 2797},  {1, 3, 687020, 2258},
        {1, 4, 14993, 1502},  {1, 5, 963355, 2685},
        {1, 6, 13650, 2797},  {1, 7, 687808, 2258},
        {2, 0, 14117, 1607},  {2, 1, 970620, 1597},
        {2, 2, 12808, 1629},  {2, 3, 675287, 1704},
        {2, 4, 14908, 1606},  {2, 5, 971418, 1597},
        {2, 6, 13602, 1629},  {2, 7, 676085, 1704},
    };
    // tile 0 = the auto heuristic (one tile at this reference size);
    // tile 37 forces ~81 tiny tiles.  cfg 0 (the hardware config) is
    // the one lane-kernel shape, so its pinned costs are reproduced
    // through the tile-edge carry path; the other seven are routed
    // to the serial engine, and their pins hold through that route.
    for (const std::size_t tile : {std::size_t(0), std::size_t(37)}) {
        for (SimdBackend backend : availableBackends()) {
            for (const auto &g : golden) {
                Rng rng(g.seed);
                const auto query = randomQuantSignal(400, rng);
                const auto ref = randomQuantSignal(3000, rng);
                SdtwConfig config = hardwareConfig();
                if (g.cfg & 1)
                    config.metric = CostMetric::SquaredDifference;
                if (g.cfg & 2)
                    config.allowReferenceDeletion = true;
                if (g.cfg & 4)
                    config.matchBonus = 0.0;

                // Duplicate the read across several lanes; each must
                // reproduce the pinned cost independently.
                std::vector<QuantSdtw::State> states(6);
                std::vector<BatchLane> lanes(6);
                for (std::size_t i = 0; i < lanes.size(); ++i) {
                    lanes[i].state = &states[i];
                    lanes[i].query = query;
                }
                BatchSdtw kernel(config, 8, backend);
                kernel.setSerialCutover(0);
                kernel.setTileCols(tile);
                kernel.processMany(lanes, ref);
                for (const auto &lane : lanes) {
                    EXPECT_EQ(lane.result.cost, g.cost)
                        << simdBackendName(backend)
                        << " seed=" << g.seed << " cfg=" << g.cfg
                        << " tile=" << tile;
                    EXPECT_EQ(lane.result.refEnd, g.refEnd);
                }
            }
        }
    }
}

// ---------------------------------------------------------------- //
//           column tiling: carry state across tile edges            //
// ---------------------------------------------------------------- //

TEST(BatchTilingTest, TileBoundaryWidthsBitIdenticalAllConfigs)
{
    // Tile widths around the vector width W and the reference length:
    // one-column tiles maximise carry traffic (every column is a tile
    // edge), W-1/W/3W+1 misalign tile edges against vector groups,
    // and >= m collapses to the untiled walk.  Ragged lanes keep the
    // block scheduler honest while every config combo runs.
    Rng rng(0x711eULL);
    const std::size_t m = 97;
    const auto ref = randomQuantSignal(m, rng);
    const std::size_t b = 9;
    std::vector<std::vector<NormSample>> queries(b);
    for (auto &q : queries)
        q = randomQuantSignal(std::size_t(rng.uniformInt(1, 70)), rng);

    for (const SdtwConfig &config : allConfigs()) {
        for (SimdBackend backend : availableBackends()) {
            const std::size_t w = simdLaneWidth(backend);
            const std::size_t tile_sizes[] = {
                1, w > 1 ? w - 1 : 1, w, 3 * w + 1, m, m + 13};
            for (const std::size_t tile : tile_sizes) {
                std::vector<QuantSdtw::State> states(b);
                std::vector<BatchLane> lanes(b);
                for (std::size_t i = 0; i < b; ++i) {
                    lanes[i].state = &states[i];
                    lanes[i].query = queries[i];
                }
                BatchSdtw kernel(config, 8, backend);
                kernel.setSerialCutover(0);
                kernel.setTileCols(tile);
                kernel.processMany(lanes, ref);
                expectMatchesSerial(
                    config, lanes, ref,
                    std::vector<QuantSdtw::State>(b),
                    simdBackendName(backend));
            }
        }
    }
}

TEST(BatchTilingTest, CheckpointResumeOnAndStraddlingTileEdges)
{
    // Checkpointed chunked streaming under a forced 16-column tile,
    // with the reference length an exact tile multiple (the last tile
    // edge lands on the final column) and a non-multiple (the last
    // tile straddles it).  Each chunk's resume must reload the
    // checkpoint into a freshly tiled walk bit-exactly.
    Rng rng(0x7ed6eULL);
    const std::size_t tile = 16;
    for (const std::size_t m : {std::size_t(64), std::size_t(71)}) {
        const auto ref = randomQuantSignal(m, rng);
        const auto query = randomQuantSignal(90, rng);
        const QuantSdtw engine(hardwareConfig());
        const auto one_shot = engine.align(query, ref);

        for (SimdBackend backend : availableBackends()) {
            BatchSdtw kernel(hardwareConfig(), 8, backend);
            kernel.setSerialCutover(0);
            kernel.setTileCols(tile);
            QuantSdtw::State state, serial_state;
            QuantSdtw::Result last{};
            std::size_t offset = 0;
            std::uint64_t noise_seed = 0;
            while (offset < query.size()) {
                const auto len = std::min<std::size_t>(
                    std::size_t(rng.uniformInt(1, 25)),
                    query.size() - offset);
                const auto chunk =
                    std::span<const NormSample>(query).subspan(offset,
                                                               len);
                Rng noise(++noise_seed);
                auto decoy_q = randomQuantSignal(30, noise);
                QuantSdtw::State decoy_state;
                std::vector<BatchLane> lanes(2);
                lanes[0].state = &state;
                lanes[0].query = chunk;
                lanes[1].state = &decoy_state;
                lanes[1].query = decoy_q;
                kernel.processMany(lanes, ref);
                last = lanes[0].result;
                const auto want =
                    engine.process(chunk, ref, serial_state);
                ASSERT_EQ(last.cost, want.cost)
                    << simdBackendName(backend) << " m=" << m
                    << " offset=" << offset;
                ASSERT_EQ(state.row, serial_state.row);
                ASSERT_EQ(state.dwell, serial_state.dwell);
                offset += len;
            }
            EXPECT_EQ(last.cost, one_shot.cost)
                << simdBackendName(backend) << " m=" << m;
            EXPECT_EQ(last.refEnd, one_shot.refEnd);
            EXPECT_EQ(last.rows, query.size());
        }
    }
}

TEST(BatchTilingTest, MidBatchRefillInsideATile)
{
    // The refill stress test under a 7-column tile that divides
    // neither the 150-column reference nor any vector width: slots
    // freed at block edges are reloaded and their next block walks
    // the tiles from a fresh lead tile.
    Rng rng(0x5e71ULL);
    const auto ref = randomQuantSignal(150, rng);
    const std::size_t b = 40;
    std::vector<std::vector<NormSample>> queries(b);
    for (std::size_t i = 0; i < b; ++i) {
        const std::size_t len =
            (i % 3 == 0) ? 150 : (i % 3 == 1 ? 3 : 40);
        queries[i] = randomQuantSignal(len, rng);
    }

    for (SimdBackend backend : availableBackends()) {
        std::vector<QuantSdtw::State> states(b);
        std::vector<BatchLane> lanes(b);
        for (std::size_t i = 0; i < b; ++i) {
            lanes[i].state = &states[i];
            lanes[i].query = queries[i];
        }
        BatchSdtw kernel(hardwareConfig(), 8, backend);
        kernel.setSerialCutover(0);
        kernel.setTileCols(7);
        kernel.processMany(lanes, ref);
        expectMatchesSerial(hardwareConfig(), lanes, ref,
                            std::vector<QuantSdtw::State>(b),
                            simdBackendName(backend));
    }
}

TEST(BatchTilingTest, TileColsOverrideAndAutoPlan)
{
    BatchSdtw kernel(hardwareConfig());
    EXPECT_EQ(kernel.tileCols(), 0u); // auto heuristic
    kernel.setTileCols(9);
    EXPECT_EQ(kernel.tileCols(), 9u);
    EXPECT_EQ(kernel.planTileCols(100, 4), 9u);
    EXPECT_EQ(kernel.planTileCols(5, 4), 5u); // clamped to ref
    kernel.setTileCols(0);
    const std::size_t ref_len = std::size_t(1) << 20;
    const std::size_t t = kernel.planTileCols(ref_len, 16);
    EXPECT_GE(t, 1u);
    EXPECT_LE(t, ref_len);
    kernel.setTileCols(SIZE_MAX); // the benches' untiled A/B switch
    EXPECT_EQ(kernel.planTileCols(ref_len, 16), ref_len);
    kernel.setTileCols(0);
    EXPECT_EQ(kernel.planTileCols(ref_len, 16), t);
}

TEST(BatchTilingTest, FoldStatsCountTilesAndBlocks)
{
    Rng rng(0x7c3aULL);
    const std::size_t m = 95;
    const auto ref = randomQuantSignal(m, rng);
    const std::size_t b = 6;
    std::vector<std::vector<NormSample>> queries(b);
    for (auto &q : queries)
        q = randomQuantSignal(30, rng); // equal lengths: one block

    for (SimdBackend backend : laneBackends()) {
        const auto fold = [&](std::size_t tile) {
            std::vector<QuantSdtw::State> states(b);
            std::vector<BatchLane> lanes(b);
            for (std::size_t i = 0; i < b; ++i) {
                lanes[i].state = &states[i];
                lanes[i].query = queries[i];
            }
            BatchSdtw kernel(hardwareConfig(),
                             BatchSdtw::kDefaultLaneCapacity, backend);
            kernel.setSerialCutover(0);
            kernel.setTileCols(tile);
            kernel.processMany(lanes, ref);
            return kernel.foldStats();
        };

        const FoldStats tiled = fold(10); // ceil(95 / 10) = 10 tiles
        EXPECT_EQ(tiled.rowBlocks, 1u) << simdBackendName(backend);
        EXPECT_EQ(tiled.colTiles, 10u) << simdBackendName(backend);
        const FoldStats untiled = fold(SIZE_MAX);
        EXPECT_EQ(untiled.rowBlocks, 1u) << simdBackendName(backend);
        EXPECT_EQ(untiled.colTiles, 1u) << simdBackendName(backend);
    }
}

// ---------------------------------------------------------------- //
//            batched classifier paths ride the kernel               //
// ---------------------------------------------------------------- //

class BatchFilterTest : public ::testing::Test
{
  protected:
    static const pore::ReferenceSquiggle &
    reference()
    {
        static const pore::KmerModel model = pore::KmerModel::makeR941();
        static const genome::Genome virus = genome::makeSynthetic(
            "virus", {.length = 4000, .gcContent = 0.42, .seed = 77});
        static const pore::ReferenceSquiggle ref(virus, model);
        return ref;
    }

    static const signal::Dataset &
    data()
    {
        static const signal::Dataset d = [] {
            static const pore::KmerModel model =
                pore::KmerModel::makeR941();
            static const genome::Genome virus = genome::makeSynthetic(
                "virus", {.length = 4000, .gcContent = 0.42, .seed = 77});
            static const genome::Genome host = genome::makeSynthetic(
                "host", {.length = 60000, .seed = 78});
            static const signal::SignalSimulator sim(model);
            static const signal::DatasetGenerator gen(virus, host, sim);
            signal::DatasetSpec spec;
            spec.numReads = 30;
            spec.targetFraction = 0.5;
            spec.targetLengths = {900.0, 0.4, 400, 4000};
            spec.backgroundLengths = {900.0, 0.4, 400, 4000};
            spec.seed = 79;
            return gen.generate(spec);
        }();
        return d;
    }
};

TEST_F(BatchFilterTest, FeedChunkBatchMatchesSerialFeedAnySplit)
{
    SquiggleFilterClassifier classifier(reference());
    classifier.setStages({{800, 60000}, {2000, 120000}, {3200, 200000}});

    for (SimdBackend backend : availableBackends()) {
        BatchSdtw kernel(classifier.config(),
                         BatchSdtw::kDefaultLaneCapacity, backend);
        kernel.setSerialCutover(0);
        Rng rng(0xfeed ^ std::uint64_t(backend));

        // Feed all reads in lockstep, random chunk sizes per round,
        // through the batched path; compare to the serial streaming
        // path read by read.
        const auto &reads = data().reads;
        std::vector<ClassifierStream> streams;
        streams.reserve(reads.size());
        for (std::size_t i = 0; i < reads.size(); ++i)
            streams.push_back(classifier.beginStream());
        std::vector<std::size_t> offsets(reads.size(), 0);

        bool progress = true;
        while (progress) {
            progress = false;
            std::vector<StreamFeed> feeds;
            for (std::size_t i = 0; i < reads.size(); ++i) {
                const auto &raw = reads[i].raw;
                if (offsets[i] >= raw.size())
                    continue;
                const auto len = std::min<std::size_t>(
                    std::size_t(rng.uniformInt(200, 1700)),
                    raw.size() - offsets[i]);
                feeds.push_back(StreamFeed{
                    &streams[i],
                    std::span<const RawSample>(raw).subspan(offsets[i],
                                                            len),
                    offsets[i] + len >= raw.size()});
                offsets[i] += len;
                progress = true;
            }
            if (!feeds.empty())
                classifier.feedChunkBatch(feeds, kernel);
        }

        for (std::size_t i = 0; i < reads.size(); ++i) {
            const auto serial = classifier.classify(reads[i].raw);
            const auto &batched = streams[i].result;
            EXPECT_TRUE(streams[i].decided);
            EXPECT_EQ(batched.keep, serial.keep)
                << simdBackendName(backend) << " read " << i;
            EXPECT_EQ(batched.cost, serial.cost);
            EXPECT_EQ(batched.refEnd, serial.refEnd);
            EXPECT_EQ(batched.samplesUsed, serial.samplesUsed);
            EXPECT_EQ(batched.stagesRun, serial.stagesRun);
        }
    }
}

TEST_F(BatchFilterTest, ProcessBatchLaneBatchedMatchesSerialClassify)
{
    SquiggleFilterClassifier classifier(reference());
    classifier.setStages({{1000, 80000}, {2000, 140000}});

    const auto batch = classifier.processBatch(data().reads);
    ASSERT_EQ(batch.size(), data().reads.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto serial = classifier.classify(data().reads[i].raw);
        EXPECT_EQ(batch[i].keep, serial.keep) << "read " << i;
        EXPECT_EQ(batch[i].cost, serial.cost);
        EXPECT_EQ(batch[i].refEnd, serial.refEnd);
        EXPECT_EQ(batch[i].samplesUsed, serial.samplesUsed);
        EXPECT_EQ(batch[i].stagesRun, serial.stagesRun);
    }
}

// ---------------------------------------------------------------- //
//          the stage walk against a hand-folded oracle              //
// ---------------------------------------------------------------- //

/** A stream's snapshot as the stage rule defines it. */
struct WalkSnapshot
{
    Classification result;
    bool decided = false;
};

/**
 * The §4.6 stage rule folded by hand, independent of the classifier's
 * walk: in prefix order, one normalizeChunk() per stage slice on one
 * cumulative normaliser, then QuantSdtw::process() on one checkpoint.
 * Returns the snapshot after each stage evaluation; a read shorter
 * than a prefix is judged there on the proportionally scaled
 * threshold, and an empty read is a keep without any evaluation.
 */
std::vector<WalkSnapshot>
walkOracle(const std::vector<FilterStage> &stages,
           std::span<const RawSample> raw,
           const pore::ReferenceSquiggle &reference, const SdtwConfig &config)
{
    if (raw.empty())
        return {WalkSnapshot{Classification{.keep = true}, true}};
    const QuantSdtw engine(config);
    MeanMadNormalizer normalizer;
    QuantSdtw::State dp;
    std::vector<WalkSnapshot> snaps;
    WalkSnapshot snap;
    std::size_t folded = 0;
    for (std::size_t s = 0; s < stages.size(); ++s) {
        const std::size_t end = std::min(stages[s].prefixSamples, raw.size());
        if (end > folded) {
            const auto norm =
                normalizer.normalizeChunk(raw.subspan(folded, end - folded));
            const auto r = engine.process(
                std::span<const NormSample>(norm.samples),
                std::span<const NormSample>(reference.samples()), dp);
            snap.result.cost = r.cost;
            snap.result.refEnd = r.refEnd;
            folded = end;
        }
        const bool truncated = raw.size() < stages[s].prefixSamples;
        const Cost threshold =
            truncated ? Cost(double(stages[s].threshold) * double(folded) /
                             double(stages[s].prefixSamples))
                      : stages[s].threshold;
        snap.result.samplesUsed = folded;
        snap.result.stagesRun = s + 1;
        if (snap.result.cost > threshold) {
            snap.decided = true;
        } else if (truncated || s + 1 == stages.size()) {
            snap.result.keep = true;
            snap.decided = true;
        }
        snaps.push_back(snap);
        if (snap.decided)
            break;
    }
    return snaps;
}

/** Checks every snapshot a walk shows against the oracle's. */
struct WalkChecker
{
    std::vector<WalkSnapshot> oracle;
    std::size_t seenStages = 0;
    std::size_t checks = 0;

    void
    check(const ClassifierStream &stream, const std::string &what)
    {
        const Classification &got = stream.result;
        const bool empty_read = oracle.front().result.stagesRun == 0;
        if (got.stagesRun == seenStages && !(empty_read && stream.decided))
            return;
        ASSERT_GE(got.stagesRun, 1u + seenStages - empty_read) << what;
        ASSERT_LE(got.stagesRun, oracle.size()) << what;
        const WalkSnapshot &want =
            oracle[empty_read ? 0 : got.stagesRun - 1];
        EXPECT_EQ(got.cost, want.result.cost) << what;
        EXPECT_EQ(got.refEnd, want.result.refEnd) << what;
        EXPECT_EQ(got.samplesUsed, want.result.samplesUsed) << what;
        EXPECT_EQ(got.stagesRun, want.result.stagesRun) << what;
        EXPECT_EQ(got.keep, want.result.keep) << what;
        EXPECT_EQ(stream.decided, want.decided) << what;
        seenStages = got.stagesRun;
        ++checks;
    }
};

TEST(StageWalkTest, SerialAndBatchedFeedsMatchHandFoldedOracle)
{
    const pore::KmerModel model = pore::KmerModel::makeR941();
    const genome::Genome virus = genome::makeSynthetic(
        "walk", {.length = 400, .gcContent = 0.42, .seed = 91});
    const pore::ReferenceSquiggle reference(virus, model);

    // Target reads replay the reference's expected current with
    // random dwells and noise (low cost); background reads are noise
    // (high cost).  The lengths put read ends exactly on each
    // boundary, mid-stage, past the last stage, and at zero.
    Rng rng(0x57a9eULL);
    std::vector<FilterStage> permissive = {
        {300, 1u << 30}, {700, 1u << 30}, {1200, 1u << 30}};
    const std::vector<std::size_t> lengths = {
        0, 150, 300, 500, 700, 1000, 1200, 2000, 299, 301, 701, 1199};
    std::vector<std::vector<RawSample>> reads;
    for (std::size_t len : lengths) {
        for (bool target : {true, false}) {
            std::vector<RawSample> raw;
            const auto &level = reference.floatSamples();
            std::size_t at = std::size_t(rng.uniformInt(0, 100));
            while (raw.size() < len) {
                const double mean =
                    target ? 500.0 + 40.0 * level[at++ % level.size()]
                           : rng.uniform(300.0, 700.0);
                for (auto d = rng.uniformInt(4, 12); d > 0; --d)
                    raw.push_back(RawSample(mean + rng.uniform(-12.0, 12.0)));
            }
            raw.resize(len);
            reads.push_back(std::move(raw));
        }
    }

    // A permissive schedule walks every boundary; the calibrated one
    // ejects about half the reads at each stage, so early ejects,
    // scaled-threshold keeps and ejects all occur.  The edge schedule
    // sets stage 2's threshold to 1.2x the cost of the 500-sample
    // background read, which ejects it only because a read ending
    // mid-stage is judged on 500/700 of the threshold.
    std::vector<FilterStage> calibrated = permissive;
    for (std::size_t s = 0; s < calibrated.size(); ++s) {
        std::vector<Cost> costs;
        for (const auto &raw : reads) {
            if (raw.size() >= calibrated[s].prefixSamples)
                costs.push_back(walkOracle(permissive, raw, reference,
                                           hardwareConfig())[s]
                                    .result.cost);
        }
        std::nth_element(costs.begin(), costs.begin() + costs.size() / 2,
                         costs.end());
        calibrated[s].threshold = costs[costs.size() / 2];
    }
    const std::size_t edge_read = 2 * 3 + 1; // lengths[3], background
    ASSERT_EQ(reads[edge_read].size(), 500u);
    std::vector<FilterStage> edge = permissive;
    edge[1].threshold = Cost(
        1.2 * double(walkOracle(permissive, reads[edge_read], reference,
                                hardwareConfig())
                         .back()
                         .result.cost));

    for (const auto *schedule : {&permissive, &calibrated, &edge}) {
        const std::vector<FilterStage> &stages = *schedule;
        SquiggleFilterClassifier classifier(reference);
        classifier.setStages(stages);
        std::vector<std::vector<WalkSnapshot>> oracles;
        std::size_t kept = 0, scaled = 0;
        for (const auto &raw : reads) {
            oracles.push_back(
                walkOracle(stages, raw, reference, classifier.config()));
            const WalkSnapshot &last = oracles.back().back();
            kept += last.result.keep;
            scaled += !raw.empty() &&
                      raw.size() <
                          stages[last.result.stagesRun - 1].prefixSamples;
        }
        ASSERT_GT(scaled, 0u);
        ASSERT_GT(kept, 0u);
        if (schedule == &calibrated) {
            ASSERT_LT(kept, reads.size());
        }
        if (schedule == &edge) {
            ASSERT_FALSE(oracles[edge_read].back().result.keep);
            ASSERT_EQ(oracles[edge_read].back().result.stagesRun, 2u);
        }

        // Serial: random splits (empty chunks included), each chunk
        // crossing at most one boundary, then an empty end of read.
        for (std::size_t r = 0; r < reads.size(); ++r) {
            const std::span<const RawSample> raw(reads[r]);
            WalkChecker checker{oracles[r]};
            ClassifierStream stream = classifier.beginStream();
            for (std::size_t at = 0; at < raw.size();) {
                const auto len = std::min<std::size_t>(
                    std::size_t(rng.uniformInt(0, 250)), raw.size() - at);
                classifier.feedChunk(stream, raw.subspan(at, len));
                at += len;
                checker.check(stream, "serial read " + std::to_string(r));
            }
            classifier.finishStream(stream);
            checker.check(stream, "serial read " + std::to_string(r));
            EXPECT_TRUE(stream.decided);
            EXPECT_EQ(checker.checks, oracles[r].size()) << "read " << r;
        }

        // Batched, on every backend and both sides of the serial
        // cutover: all reads in lockstep, the end of read riding on
        // the last chunk or arriving as an empty chunk of its own.
        for (SimdBackend backend : availableBackends()) {
            for (bool thin : {false, true}) {
                BatchSdtw kernel(classifier.config(),
                                 BatchSdtw::kDefaultLaneCapacity, backend);
                if (!thin)
                    kernel.setSerialCutover(0);
                const std::string what =
                    std::string(simdBackendName(backend)) +
                    (thin ? " thin" : " wide") + " read ";
                std::vector<ClassifierStream> streams(reads.size());
                std::vector<WalkChecker> checkers;
                for (const auto &oracle : oracles)
                    checkers.push_back(WalkChecker{oracle});
                std::vector<std::size_t> offsets(reads.size(), 0);
                std::vector<bool> ended(reads.size(), false);
                for (bool more = true; more;) {
                    more = false;
                    std::vector<StreamFeed> feeds;
                    std::vector<std::size_t> fed;
                    for (std::size_t r = 0; r < reads.size(); ++r) {
                        if (ended[r])
                            continue;
                        const std::span<const RawSample> raw(reads[r]);
                        const auto len = std::min<std::size_t>(
                            std::size_t(rng.uniformInt(0, 250)),
                            raw.size() - offsets[r]);
                        offsets[r] += len;
                        // One evaluation per call keeps every snapshot
                        // visible: the end rides only on a chunk that
                        // crosses no boundary.
                        const bool crosses = std::any_of(
                            stages.begin(), stages.end(),
                            [&](const FilterStage &st) {
                                return offsets[r] - len < st.prefixSamples &&
                                       st.prefixSamples <= offsets[r];
                            });
                        ended[r] = offsets[r] == raw.size() &&
                                   (len == 0 ||
                                    (!crosses && rng.uniformInt(0, 1) == 1));
                        feeds.push_back(StreamFeed{
                            &streams[r],
                            raw.subspan(offsets[r] - len, len), ended[r]});
                        fed.push_back(r);
                        more = true;
                    }
                    if (feeds.empty())
                        break;
                    classifier.feedChunkBatch(feeds, kernel);
                    for (std::size_t r : fed)
                        checkers[r].check(streams[r],
                                          what + std::to_string(r));
                }
                for (std::size_t r = 0; r < reads.size(); ++r) {
                    EXPECT_TRUE(streams[r].decided) << what << r;
                    EXPECT_EQ(checkers[r].checks, oracles[r].size())
                        << what << r;
                }
            }
        }
    }
}

} // namespace
} // namespace sf::sdtw
