/**
 * @file
 * Unit and property tests for the core sDTW module: the vanilla
 * oracle, the rolling engines, the normalisers, the classifier and
 * threshold calibration.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <tuple>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "genome/synthetic.hpp"
#include "pore/kmer_model.hpp"
#include "pore/reference_squiggle.hpp"
#include "sdtw/engine.hpp"
#include "sdtw/filter.hpp"
#include "sdtw/normalizer.hpp"
#include "sdtw/threshold.hpp"
#include "sdtw/vanilla.hpp"
#include "signal/dataset.hpp"

namespace sf::sdtw {
namespace {

const pore::KmerModel &
model()
{
    static const pore::KmerModel m = pore::KmerModel::makeR941();
    return m;
}

std::vector<float>
randomSignal(std::size_t n, Rng &rng, double lo = -3.0, double hi = 3.0)
{
    std::vector<float> out(n);
    for (auto &s : out)
        s = float(rng.uniform(lo, hi));
    return out;
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
//                         vanilla oracle                            //
// ---------------------------------------------------------------- //

TEST(Vanilla, HandComputedTinyExample)
{
    // Q = [1, 2], R = [0, 1, 2, 5].
    // Row 0: (1-0)^2=1, (1-1)^2=0, (1-2)^2=1, (1-5)^2=16
    // Row 1: col0 = 1 + 4 = 5
    //        col1 = (2-1)^2 + min(1, 5, 0) = 1
    //        col2 = (2-2)^2 + min(0, 1, 1) = 0
    //        col3 = (2-5)^2 + min(1, 0, 16) = 9
    const auto result = vanillaSdtw({1.0f, 2.0f},
                                    {0.0f, 1.0f, 2.0f, 5.0f});
    EXPECT_DOUBLE_EQ(result.cost, 0.0);
    EXPECT_EQ(result.refEnd, 2u);
}

TEST(Vanilla, ExactSubsequenceCostsZero)
{
    Rng rng(1);
    const auto ref = randomSignal(200, rng);
    const std::vector<float> query(ref.begin() + 50, ref.begin() + 90);
    const auto result = vanillaSdtw(query, ref);
    EXPECT_DOUBLE_EQ(result.cost, 0.0);
    EXPECT_EQ(result.refEnd, 89u);
}

TEST(Vanilla, CostNonNegativeAndBounded)
{
    Rng rng(2);
    const auto query = randomSignal(30, rng);
    const auto ref = randomSignal(100, rng);
    const auto result = vanillaSdtw(query, ref);
    EXPECT_GE(result.cost, 0.0);
    // Upper bound: aligning straight down any single column.
    double worst = 0.0;
    for (float q : query) {
        const double d = double(q) - double(ref[0]);
        worst += d * d;
    }
    EXPECT_LE(result.cost, worst + 1e-9);
}

TEST(Vanilla, EmptyInputIsFatal)
{
    EXPECT_THROW(vanillaSdtw({}, {1.0f}), FatalError);
    EXPECT_THROW(vanillaSdtw({1.0f}, {}), FatalError);
}

TEST(Vanilla, MatrixMatchesRecurrenceSpotChecks)
{
    Rng rng(3);
    const auto query = randomSignal(8, rng);
    const auto ref = randomSignal(12, rng);
    const auto s = vanillaSdtwMatrix(query, ref);
    const std::size_t m = ref.size();
    auto dist = [&](std::size_t i, std::size_t j) {
        const double d = double(query[i]) - double(ref[j]);
        return d * d;
    };
    for (std::size_t i = 1; i < query.size(); ++i) {
        for (std::size_t j = 1; j < m; ++j) {
            const double expect =
                dist(i, j) + std::min({s[(i - 1) * m + j - 1],
                                       s[i * m + j - 1],
                                       s[(i - 1) * m + j]});
            EXPECT_NEAR(s[i * m + j], expect, 1e-12);
        }
    }
}

// ---------------------------------------------------------------- //
//                       engine vs oracle                            //
// ---------------------------------------------------------------- //

class EngineOracleTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(EngineOracleTest, FloatEngineWithVanillaConfigMatchesOracle)
{
    Rng rng(GetParam());
    const auto n = std::size_t(rng.uniformInt(1, 60));
    const auto m = std::size_t(rng.uniformInt(1, 200));
    const auto query = randomSignal(n, rng);
    const auto ref = randomSignal(m, rng);

    const FloatSdtw engine(vanillaConfig());
    const auto got = engine.align(query, ref);
    const auto want = vanillaSdtw(query, ref);
    EXPECT_NEAR(got.cost, want.cost, 1e-9);
    EXPECT_EQ(got.refEnd, want.refEnd);
}

TEST_P(EngineOracleTest, RemovingRefDeletionsNeverLowersCost)
{
    Rng rng(GetParam() ^ 0xabcdULL);
    const auto query = randomSignal(std::size_t(rng.uniformInt(2, 50)),
                                    rng);
    const auto ref = randomSignal(std::size_t(rng.uniformInt(2, 150)),
                                  rng);

    SdtwConfig with = vanillaConfig();
    SdtwConfig without = vanillaConfig();
    without.allowReferenceDeletion = false;
    const auto c_with = FloatSdtw(with).align(query, ref).cost;
    const auto c_without = FloatSdtw(without).align(query, ref).cost;
    EXPECT_LE(c_with, c_without + 1e-9);
}

TEST_P(EngineOracleTest, ChunkedProcessingEqualsOneShot)
{
    Rng rng(GetParam() ^ 0x5555ULL);
    const auto n = std::size_t(rng.uniformInt(4, 120));
    const auto m = std::size_t(rng.uniformInt(4, 150));
    const auto query = randomQuantSignal(n, rng);
    const auto ref = randomQuantSignal(m, rng);

    const QuantSdtw engine(hardwareConfig());
    const auto one_shot = engine.align(query, ref);

    QuantSdtw::State state;
    QuantSdtw::Result chunked{};
    std::size_t offset = 0;
    while (offset < n) {
        const auto len =
            std::min<std::size_t>(std::size_t(rng.uniformInt(1, 40)),
                                  n - offset);
        chunked = engine.process(
            std::span<const NormSample>(query).subspan(offset, len), ref,
            state);
        offset += len;
    }
    EXPECT_EQ(chunked.cost, one_shot.cost);
    EXPECT_EQ(chunked.refEnd, one_shot.refEnd);
    EXPECT_EQ(chunked.rows, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOracleTest,
                         ::testing::Range<std::uint64_t>(0, 24));

TEST(Engine, GoldenCostsMatchSeedImplementation)
{
    // Regression pin for the specialised inner loop: costs recorded
    // from the original (pre-specialisation) scalar engine on fixed
    // pseudo-random inputs, across all eight combinations of the
    // three recurrence switches.  Any arithmetic drift in the rework
    // shows up as an exact-match failure here.
    struct Golden
    {
        std::uint64_t seed;
        int cfg; // bit0: squared metric, bit1: refdel, bit2: bonus off
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
        const auto result = QuantSdtw(config).align(query, ref);
        EXPECT_EQ(result.cost, g.cost)
            << "seed=" << g.seed << " cfg=" << g.cfg;
        EXPECT_EQ(result.refEnd, g.refEnd)
            << "seed=" << g.seed << " cfg=" << g.cfg;
    }
}

TEST(Engine, HardwareChunkScheduleBitExactAgainstOneShot)
{
    // The deployment schedule: 2000-sample chunks (the DRAM
    // checkpoint granularity of §4.6) folded into one DP state must
    // reproduce the one-shot alignment bit for bit, including the
    // dwell-dependent match bonus carried across chunk boundaries.
    Rng rng(0xc4a11);
    const auto query = randomQuantSignal(6000, rng);
    const auto ref = randomQuantSignal(10000, rng);
    const QuantSdtw engine(hardwareConfig());

    const auto one_shot = engine.align(query, ref);

    QuantSdtw::State state;
    QuantSdtw::Result chunked{};
    for (std::size_t offset = 0; offset < query.size(); offset += 2000) {
        chunked = engine.process(
            std::span<const NormSample>(query).subspan(offset, 2000), ref,
            state);
    }
    EXPECT_EQ(chunked.cost, one_shot.cost);
    EXPECT_EQ(chunked.refEnd, one_shot.refEnd);
    EXPECT_EQ(chunked.rows, query.size());
}

TEST(Engine, AbsMetricExactSubsequenceIsZero)
{
    Rng rng(10);
    const auto ref = randomQuantSignal(300, rng);
    const std::vector<NormSample> query(ref.begin() + 100,
                                        ref.begin() + 160);
    SdtwConfig config = hardwareConfig();
    config.matchBonus = 0.0;
    const QuantSdtw engine(config);
    const auto result = engine.align(query, ref);
    EXPECT_EQ(result.cost, 0u);
    EXPECT_EQ(result.refEnd, 159u);
}

TEST(Engine, MatchBonusNeverIncreasesCost)
{
    Rng rng(11);
    for (int trial = 0; trial < 10; ++trial) {
        const auto query = randomQuantSignal(50, rng);
        const auto ref = randomQuantSignal(120, rng);
        SdtwConfig off = hardwareConfig();
        off.matchBonus = 0.0;
        SdtwConfig on = hardwareConfig();
        on.matchBonus = 10.0;
        const auto c_off = QuantSdtw(off).align(query, ref).cost;
        const auto c_on = QuantSdtw(on).align(query, ref).cost;
        EXPECT_LE(c_on, c_off);
    }
}

TEST(Engine, CostSaturatesInsteadOfWrapping)
{
    // Constant far-apart signals cannot overflow Cost.
    const std::vector<NormSample> query(100, NormSample(127));
    const std::vector<NormSample> ref(100, NormSample(-128));
    SdtwConfig config = hardwareConfig();
    config.metric = CostMetric::SquaredDifference;
    config.matchBonus = 0.0;
    const QuantSdtw engine(config);
    const auto result = engine.align(query, ref);
    EXPECT_GT(result.cost, 0u);
    EXPECT_LE(result.cost, kCostMax);
}

TEST(Engine, SingleSampleQueryPicksNearestReferenceSample)
{
    const std::vector<NormSample> query{NormSample(10)};
    const std::vector<NormSample> ref{NormSample(-50), NormSample(12),
                                      NormSample(90)};
    SdtwConfig config = hardwareConfig();
    config.matchBonus = 0.0;
    const auto result = QuantSdtw(config).align(query, ref);
    EXPECT_EQ(result.cost, 2u);
    EXPECT_EQ(result.refEnd, 1u);
}

TEST(Engine, MismatchedStateIsFatal)
{
    const QuantSdtw engine(hardwareConfig());
    QuantSdtw::State state;
    std::vector<NormSample> q(4, 0), ref_a(10, 0), ref_b(11, 0);
    engine.process(q, ref_a, state);
    EXPECT_THROW(engine.process(q, ref_b, state), FatalError);
}

TEST(Engine, DwellShorterThanRowIsFatal)
{
    // A resumed state is read column by column from both vectors; a
    // short dwell vector must be refused, not read out of bounds.
    const QuantSdtw engine(hardwareConfig());
    QuantSdtw::State state;
    std::vector<NormSample> q(4, 0), ref(10, 0);
    engine.process(q, ref, state);
    state.dwell.resize(ref.size() - 1);
    EXPECT_THROW(engine.process(q, ref, state), FatalError);
    state.dwell.clear();
    EXPECT_THROW(engine.process(q, ref, state), FatalError);
}

TEST(Engine, InvalidConfigIsFatal)
{
    SdtwConfig config;
    config.dwellCap = 0;
    EXPECT_THROW(QuantSdtw{config}, FatalError);
    config = SdtwConfig{};
    config.matchBonus = -1.0;
    EXPECT_THROW(QuantSdtw{config}, FatalError);
}

// ---------------------------------------------------------------- //
//                          normalisers                              //
// ---------------------------------------------------------------- //

TEST(Normalizer, ZNormalizeRawHasUnitMoments)
{
    Rng rng(20);
    std::vector<RawSample> raw(4000);
    for (auto &s : raw)
        s = RawSample(rng.uniformInt(300, 700));
    const auto normalized = zNormalizeRaw(raw);
    RunningStats stats;
    for (float v : normalized)
        stats.add(v);
    EXPECT_NEAR(stats.mean(), 0.0, 1e-6);
    EXPECT_NEAR(stats.stdev(), 1.0, 1e-6);
}

TEST(Normalizer, QuantizedTracksFloatNormalizer)
{
    Rng rng(21);
    std::vector<RawSample> raw(2000);
    for (auto &s : raw)
        s = RawSample(std::clamp<long>(
            std::lround(rng.gaussian(500.0, 80.0)), 0, long(kAdcMax)));
    const auto float_norm = meanMadNormalizeRaw(raw);
    const auto quant = MeanMadNormalizer::normalize(raw);
    ASSERT_EQ(float_norm.size(), quant.size());
    RunningStats err;
    for (std::size_t i = 0; i < quant.size(); ++i)
        err.add(std::abs(double(quant[i]) / kNormScale -
                         double(float_norm[i])));
    // Q2.5 resolution is 1/32; integer mean/MAD adds a little more.
    EXPECT_LT(err.mean(), 0.08);
}

TEST(Normalizer, GainAndOffsetInvariance)
{
    // Normalising must cancel per-pore gain/offset (Figure 8c): the
    // same underlying signal measured with different bias conditions
    // should normalise to nearly identical values.
    Rng rng(22);
    std::vector<double> truth(2000);
    for (auto &v : truth)
        v = rng.gaussian(90.0, 12.0);

    auto digitize = [](double pa) {
        const double code = (pa - 40.0) / 120.0 * double(kAdcMax);
        return RawSample(std::clamp(code, 0.0, double(kAdcMax)));
    };
    std::vector<RawSample> a(truth.size()), b(truth.size());
    for (std::size_t i = 0; i < truth.size(); ++i) {
        a[i] = digitize(truth[i]);
        b[i] = digitize(1.12 * truth[i] - 14.0);
    }
    const auto na = meanMadNormalizeRaw(a);
    const auto nb = meanMadNormalizeRaw(b);
    RunningStats err;
    for (std::size_t i = 0; i < na.size(); ++i)
        err.add(std::abs(double(na[i]) - double(nb[i])));
    EXPECT_LT(err.mean(), 0.05);
}

TEST(Normalizer, ConstantSignalDoesNotDivideByZero)
{
    const std::vector<RawSample> raw(100, RawSample(512));
    const auto quant = MeanMadNormalizer::normalize(raw);
    for (auto code : quant)
        EXPECT_EQ(code, 0);
}

TEST(Normalizer, OutliersClampToRange)
{
    std::vector<RawSample> raw(2000, RawSample(500));
    Rng rng(23);
    for (auto &s : raw)
        s = RawSample(500 + rng.uniformInt(-5, 5));
    raw[100] = 0;       // rail spikes
    raw[200] = kAdcMax;
    const auto quant = MeanMadNormalizer::normalize(raw);
    EXPECT_EQ(quant[100], -128);
    EXPECT_EQ(quant[200], 127);
}

TEST(Normalizer, CumulativeChunkStatisticsConverge)
{
    Rng rng(24);
    std::vector<RawSample> raw(6000);
    for (auto &s : raw)
        s = RawSample(std::clamp<long>(
            std::lround(rng.gaussian(480.0, 60.0)), 0, long(kAdcMax)));

    MeanMadNormalizer chunked;
    for (std::size_t offset = 0; offset < raw.size(); offset += 2000) {
        chunked.normalizeChunk(
            std::span<const RawSample>(raw).subspan(offset, 2000));
    }
    MeanMadNormalizer one_shot;
    one_shot.normalizeChunk(raw);
    EXPECT_EQ(chunked.totalSamples(), one_shot.totalSamples());
    EXPECT_NEAR(double(chunked.currentMean()),
                double(one_shot.currentMean()), 2.0);
    EXPECT_NEAR(double(chunked.currentMad()),
                double(one_shot.currentMad()), 3.0);
}

// ---------------------------------------------------------------- //
//                    classifier and thresholds                      //
// ---------------------------------------------------------------- //

/**
 * Expensive fixtures (synthetic genomes, the reference squiggle, the
 * simulated datasets) are built once and shared by every test in the
 * suite — they are immutable, and rebuilding them per test dominated
 * the suite's runtime.
 */
class FilterTest : public ::testing::Test
{
  protected:
    static const genome::Genome &
    virus()
    {
        static const genome::Genome g = genome::makeSynthetic(
            "virus", {.length = 12000, .gcContent = 0.42, .seed = 30});
        return g;
    }

    static const genome::Genome &
    host()
    {
        static const genome::Genome g =
            genome::makeSynthetic("host", {.length = 300000, .seed = 31});
        return g;
    }

    static const pore::ReferenceSquiggle &
    reference()
    {
        static const pore::ReferenceSquiggle ref(virus(), model());
        return ref;
    }

    static const signal::DatasetGenerator &
    generator()
    {
        static const signal::SignalSimulator sim(model());
        static const signal::DatasetGenerator gen(virus(), host(), sim);
        return gen;
    }

    static const signal::Dataset &
    makeData(std::size_t reads, double fraction, std::uint64_t seed)
    {
        static std::map<std::tuple<std::size_t, double, std::uint64_t>,
                        signal::Dataset>
            cache;
        const auto key = std::make_tuple(reads, fraction, seed);
        auto it = cache.find(key);
        if (it == cache.end()) {
            signal::DatasetSpec spec;
            spec.numReads = reads;
            spec.targetFraction = fraction;
            spec.targetLengths = {1500.0, 0.4, 600, 8000};
            spec.backgroundLengths = {1500.0, 0.4, 600, 8000};
            spec.seed = seed;
            it = cache.emplace(key, generator().generate(spec)).first;
        }
        return it->second;
    }
};

TEST_F(FilterTest, CostsSeparateTargetFromBackground)
{
    const auto &data = makeData(60, 0.5, 32);
    const auto costs = collectCosts(reference(), data.reads, 2000,
                                    hardwareConfig());
    std::vector<double> target, decoy;
    splitCosts(costs, target, decoy);
    ASSERT_FALSE(target.empty());
    ASSERT_FALSE(decoy.empty());
    // Figure 11: distributions separate with a static threshold.
    EXPECT_LT(mean(target) * 1.2, mean(decoy));
    const RocCurve roc(target, decoy, 200);
    EXPECT_GT(roc.auc(), 0.95);
}

TEST_F(FilterTest, ClassifierKeepsTargetsAndEjectsBackground)
{
    const auto &calib = makeData(60, 0.5, 33);
    const auto costs = collectCosts(reference(), calib.reads, 2000,
                                    hardwareConfig());
    const double threshold = bestF1Threshold(costs);

    SquiggleFilterClassifier classifier(reference());
    classifier.setSingleStage(2000, Cost(threshold));

    const auto &eval = makeData(40, 0.5, 34);
    ConfusionMatrix cm;
    for (const auto &read : eval.reads) {
        const auto result = classifier.classify(read.raw);
        cm.add(read.isTarget(), result.keep);
    }
    EXPECT_GT(cm.f1(), 0.85);
}

TEST_F(FilterTest, LongerPrefixImprovesSeparation)
{
    const auto &data = makeData(50, 0.5, 35);
    auto auc_for = [&](std::size_t prefix) {
        const auto costs =
            collectCosts(reference(), data.reads, prefix,
                         hardwareConfig());
        return sweepThresholds(costs).auc();
    };
    const double short_auc = auc_for(500);
    const double long_auc = auc_for(4000);
    EXPECT_GE(long_auc + 0.02, short_auc); // no material regression
}

TEST_F(FilterTest, MultiStageAgreesWithFinalStageOnConfidentReads)
{
    const auto &calib = makeData(60, 0.5, 36);
    const auto c2000 = collectCosts(reference(), calib.reads, 2000,
                                    hardwareConfig());
    const auto c1000 = collectCosts(reference(), calib.reads, 1000,
                                    hardwareConfig());
    const double t2000 = bestF1Threshold(c2000);
    // Stage-1 threshold between the calibrated best and the decoy
    // mean: permissive enough to keep targets, tight enough that
    // clear non-targets are ejected early.
    const double t1000 = 1.25 * bestF1Threshold(c1000);

    SquiggleFilterClassifier single(reference());
    single.setSingleStage(2000, Cost(t2000));
    SquiggleFilterClassifier multi(reference());
    multi.setStages({{1000, Cost(t1000)}, {2000, Cost(t2000)}});

    const auto &eval = makeData(30, 0.5, 37);
    std::size_t agree = 0, early_ejects = 0;
    for (const auto &read : eval.reads) {
        const auto s = single.classify(read.raw);
        const auto m = multi.classify(read.raw);
        agree += s.keep == m.keep;
        early_ejects += (m.stagesRun == 1 && !m.keep);
        if (m.stagesRun == 1) {
            EXPECT_LE(m.samplesUsed, 1000u);
        }
    }
    EXPECT_GE(double(agree) / double(eval.reads.size()), 0.9);
    EXPECT_GT(early_ejects, 0u); // some reads die at stage 1
}

TEST_F(FilterTest, ScoreMatchesClassifyCost)
{
    SquiggleFilterClassifier classifier(reference());
    classifier.setSingleStage(2000, 1u << 30);
    const auto &eval = makeData(6, 0.5, 38);
    for (const auto &read : eval.reads) {
        if (read.raw.size() < 2000)
            continue;
        const auto via_classify = classifier.classify(read.raw);
        const auto via_score = classifier.score(read.raw, 2000);
        EXPECT_EQ(via_classify.cost, via_score.cost);
        EXPECT_EQ(via_classify.refEnd, via_score.refEnd);
    }
}

TEST_F(FilterTest, BatchMatchesSerialClassifyWithinTimeBudget)
{
    const auto &calib = makeData(60, 0.5, 33);
    const auto costs = collectCosts(reference(), calib.reads, 2000,
                                    hardwareConfig());
    SquiggleFilterClassifier classifier(reference());
    classifier.setSingleStage(2000, Cost(bestF1Threshold(costs)));

    const auto &eval = makeData(40, 0.5, 34);
    const auto start = std::chrono::steady_clock::now();
    const auto batch = classifier.processBatch(eval.reads);
    const auto elapsed = std::chrono::steady_clock::now() - start;

    ASSERT_EQ(batch.size(), eval.reads.size());
    for (std::size_t i = 0; i < eval.reads.size(); ++i) {
        const auto serial = classifier.classify(eval.reads[i].raw);
        EXPECT_EQ(batch[i].keep, serial.keep);
        EXPECT_EQ(batch[i].cost, serial.cost);
        EXPECT_EQ(batch[i].refEnd, serial.refEnd);
        EXPECT_EQ(batch[i].samplesUsed, serial.samplesUsed);
    }

    // Wall-clock budget: 40 reads x 2000 samples against a ~24k-sample
    // reference is ~2e9 DP cells.  The specialised kernel sustains
    // >500M cells/s on one core, so even a loaded single-core CI host
    // has an order of magnitude of headroom against this bound.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                  .count(),
              30);
}

TEST_F(FilterTest, EmptySignalIsKeptForLackOfEvidence)
{
    SquiggleFilterClassifier classifier(reference());
    const auto result = classifier.classify({});
    EXPECT_TRUE(result.keep);
    EXPECT_EQ(result.samplesUsed, 0u);
}

TEST_F(FilterTest, StagePrefixesMustIncrease)
{
    SquiggleFilterClassifier classifier(reference());
    EXPECT_THROW(classifier.setStages({{2000, 10}, {1000, 5}}),
                 FatalError);
    EXPECT_THROW(classifier.setStages({}), FatalError);
    EXPECT_THROW(classifier.setStages({{0, 10}, {1000, 5}}), FatalError);
}

// ---------------------------------------------------------------- //
//                  checkpointed streaming classifier                 //
// ---------------------------------------------------------------- //

class StreamApiTest : public FilterTest,
                      public ::testing::WithParamInterface<std::uint64_t>
{};

TEST_P(StreamApiTest, ChunkedFeedBitIdenticalToClassifyAnySplit)
{
    // The load-bearing pin of the streaming engine: feeding a read in
    // arbitrary chunks through beginStream()/feedChunk()/
    // finishStream() must equal classify() on the same signal bit for
    // bit — decision, cost, refEnd, consumed prefix and stage count.
    Rng rng(GetParam() ^ 0x57e3a7ULL);
    SquiggleFilterClassifier classifier(reference());
    classifier.setStages(
        {{800, 30000}, {2000, 60000}, {4000, 110000}});

    const auto &eval = makeData(12, 0.5, 40 + GetParam() % 3);
    for (const auto &read : eval.reads) {
        const auto offline = classifier.classify(read.raw);

        auto stream = classifier.beginStream();
        std::size_t offset = 0;
        while (offset < read.raw.size() && !stream.decided) {
            const auto len = std::min<std::size_t>(
                std::size_t(rng.uniformInt(1, 1500)),
                read.raw.size() - offset);
            classifier.feedChunk(
                stream, std::span<const RawSample>(read.raw)
                            .subspan(offset, len));
            offset += len;
        }
        const auto &streamed = classifier.finishStream(stream);

        EXPECT_EQ(streamed.keep, offline.keep);
        EXPECT_EQ(streamed.cost, offline.cost);
        EXPECT_EQ(streamed.refEnd, offline.refEnd);
        EXPECT_EQ(streamed.samplesUsed, offline.samplesUsed);
        EXPECT_EQ(streamed.stagesRun, offline.stagesRun);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamApiTest,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST_F(FilterTest, StreamSnapshotTracksStageBoundaries)
{
    SquiggleFilterClassifier classifier(reference());
    classifier.setStages({{1000, 1u << 30}, {2000, 1u << 30}});
    const auto &eval = makeData(6, 0.5, 41);
    const auto &read = eval.reads.front();
    ASSERT_GE(read.raw.size(), 2000u);

    auto stream = classifier.beginStream();
    // 600 samples: inside stage 1, nothing folded yet.
    classifier.feedChunk(
        stream, std::span<const RawSample>(read.raw).subspan(0, 600));
    EXPECT_EQ(stream.result.samplesUsed, 0u);
    EXPECT_EQ(stream.consumed, 0u);
    EXPECT_FALSE(stream.decided);
    // 600 more: crosses the 1000-sample boundary, snapshot updates.
    classifier.feedChunk(
        stream, std::span<const RawSample>(read.raw).subspan(600, 600));
    EXPECT_EQ(stream.result.samplesUsed, 1000u);
    EXPECT_EQ(stream.result.stagesRun, 1u);
    EXPECT_EQ(stream.consumed, 1000u);
    const Cost snapshot_cost = stream.result.cost;
    EXPECT_EQ(snapshot_cost,
              classifier.classify(read.prefix(1000)).cost);
    // Crossing the final boundary decides with permissive thresholds.
    classifier.feedChunk(
        stream, std::span<const RawSample>(read.raw).subspan(1200, 900));
    EXPECT_TRUE(stream.decided);
    EXPECT_TRUE(stream.result.keep);
    EXPECT_EQ(stream.result.samplesUsed, 2000u);
}

TEST_F(FilterTest, StreamIgnoresChunksAfterDecision)
{
    SquiggleFilterClassifier classifier(reference());
    classifier.setSingleStage(1000, 0); // eject everything immediately
    const auto &eval = makeData(6, 0.5, 42);
    const auto &read = eval.reads.front();
    ASSERT_GE(read.raw.size(), 2000u);

    auto stream = classifier.beginStream();
    classifier.feedChunk(
        stream, std::span<const RawSample>(read.raw).subspan(0, 1000));
    ASSERT_TRUE(stream.decided);
    EXPECT_FALSE(stream.result.keep);
    const auto decided = stream.result;
    const auto rows_folded = stream.consumed;

    classifier.feedChunk(
        stream, std::span<const RawSample>(read.raw).subspan(1000, 500));
    EXPECT_EQ(stream.result.cost, decided.cost);
    EXPECT_EQ(stream.consumed, rows_folded); // no further DP work
    EXPECT_TRUE(stream.pending.empty());       // not even buffered
}

TEST_F(FilterTest, StreamWorkCountersModelCheckpointSavings)
{
    // A 4-stage schedule evaluated incrementally folds each sample
    // once (consumed == final prefix) while the naive counter sums
    // one full re-alignment per decision.
    SquiggleFilterClassifier classifier(reference());
    classifier.setStages({{500, 1u << 30},
                          {1000, 1u << 30},
                          {1500, 1u << 30},
                          {2000, 1u << 30}});
    const auto &eval = makeData(6, 0.5, 43);
    const auto &read = eval.reads.front();
    ASSERT_GE(read.raw.size(), 2000u);

    auto stream = classifier.beginStream();
    classifier.feedChunk(stream, read.raw);
    ASSERT_TRUE(stream.decided);
    EXPECT_EQ(stream.consumed, 2000u);
    EXPECT_EQ(stream.rowsNaive, 500u + 1000u + 1500u + 2000u);
    EXPECT_EQ(double(stream.rowsNaive) / double(stream.consumed), 2.5);
}

TEST_F(FilterTest, UniformScheduleScalesThresholdsLinearly)
{
    const auto stages = uniformStageSchedule(1600, 5, 20000);
    ASSERT_EQ(stages.size(), 5u);
    for (std::size_t i = 0; i < stages.size(); ++i) {
        EXPECT_EQ(stages[i].prefixSamples, (i + 1) * 1600);
        EXPECT_EQ(stages[i].threshold,
                  Cost(20000.0 * double((i + 1) * 1600) / 2000.0));
    }
    EXPECT_THROW(uniformStageSchedule(0, 5, 1), FatalError);
    EXPECT_THROW(uniformStageSchedule(100, 0, 1), FatalError);
}

TEST(Threshold, BestF1SeparatesCleanClusters)
{
    std::vector<CostSample> costs;
    for (int i = 0; i < 50; ++i) {
        costs.push_back({100.0 + i, true});
        costs.push_back({500.0 + i, false});
    }
    const double threshold = bestF1Threshold(costs);
    EXPECT_GT(threshold, 149.0);
    EXPECT_LT(threshold, 500.0);
}

TEST(Threshold, RequiresBothClasses)
{
    std::vector<CostSample> only_targets{{1.0, true}};
    EXPECT_THROW(sweepThresholds(only_targets), FatalError);
}

TEST(Config, DescribeMentionsSwitches)
{
    EXPECT_NE(hardwareConfig().describe().find("abs"),
              std::string::npos);
    EXPECT_NE(hardwareConfig().describe().find("bonus"),
              std::string::npos);
    EXPECT_NE(vanillaConfig().describe().find("sq"), std::string::npos);
}

} // namespace
} // namespace sf::sdtw
