/**
 * @file
 * Unit tests for sf::common — RNG, statistics, classification metrics,
 * fixed-point helpers and table rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/env.hpp"
#include "common/fixed.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace sf {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a() == b();
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, GaussianMomentsApproximatelyCorrect)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(stats.mean(), 5.0, 0.1);
    EXPECT_NEAR(stats.stdev(), 2.0, 0.1);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.geometric(10.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.5);
    EXPECT_GE(stats.min(), 1.0);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(17);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.exponential(3.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.15);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(21);
    Rng b = a.fork();
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a() == b();
    EXPECT_LT(equal, 4);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_EQ(stats.stdev(), 0.0);
}

TEST(RunningStats, KnownSequence)
{
    RunningStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.stdev(), 2.0);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(Stats, MeanAndMad)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(mean(xs), 3.0);
    EXPECT_DOUBLE_EQ(meanAbsoluteDeviation(xs), 1.2);
}

TEST(Stats, MedianAndPercentile)
{
    std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(median(xs), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

TEST(Stats, PercentileRejectsBadP)
{
    EXPECT_THROW(percentile({1.0}, -1.0), FatalError);
    EXPECT_THROW(percentile({1.0}, 101.0), FatalError);
}

TEST(Histogram, CountsAndClamping)
{
    Histogram hist(0.0, 10.0, 10);
    hist.add(0.5);
    hist.add(9.5);
    hist.add(-5.0); // clamps into the first bin
    hist.add(50.0); // clamps into the last bin
    EXPECT_EQ(hist.total(), 4u);
    EXPECT_EQ(hist.binCount(0), 2u);
    EXPECT_EQ(hist.binCount(9), 2u);
    EXPECT_DOUBLE_EQ(hist.binLeft(0), 0.0);
    EXPECT_DOUBLE_EQ(hist.binLeft(9), 9.0);
}

TEST(Histogram, RejectsDegenerateRange)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), FatalError);
}

TEST(ConfusionMatrix, MetricsOnKnownTallies)
{
    ConfusionMatrix cm;
    // 8 targets kept, 2 lost; 1 decoy kept, 9 ejected.
    for (int i = 0; i < 8; ++i) cm.add(true, true);
    for (int i = 0; i < 2; ++i) cm.add(true, false);
    for (int i = 0; i < 1; ++i) cm.add(false, true);
    for (int i = 0; i < 9; ++i) cm.add(false, false);
    EXPECT_DOUBLE_EQ(cm.recall(), 0.8);
    EXPECT_NEAR(cm.precision(), 8.0 / 9.0, 1e-12);
    EXPECT_DOUBLE_EQ(cm.specificity(), 0.9);
    EXPECT_NEAR(cm.falsePositiveRate(), 0.1, 1e-12);
    EXPECT_DOUBLE_EQ(cm.accuracy(), 0.85);
    EXPECT_GT(cm.f1(), 0.8);
}

TEST(RocCurve, PerfectlySeparableScoresReachAucOne)
{
    // Targets score low (cost convention), decoys high.
    std::vector<double> target{1.0, 2.0, 3.0};
    std::vector<double> decoy{10.0, 11.0, 12.0};
    RocCurve roc(target, decoy, 100);
    EXPECT_NEAR(roc.auc(), 1.0, 1e-6);
    const auto best = roc.bestF1();
    EXPECT_DOUBLE_EQ(best.f1, 1.0);
    EXPECT_GT(best.threshold, 3.0);
    EXPECT_LT(best.threshold, 10.0);
}

TEST(RocCurve, OverlappingScoresGiveIntermediateAuc)
{
    Rng rng(3);
    std::vector<double> target, decoy;
    for (int i = 0; i < 500; ++i) {
        target.push_back(rng.gaussian(5.0, 2.0));
        decoy.push_back(rng.gaussian(8.0, 2.0));
    }
    RocCurve roc(target, decoy, 200);
    EXPECT_GT(roc.auc(), 0.7);
    EXPECT_LT(roc.auc(), 0.95);
}

TEST(RocCurve, EndpointsCoverDegenerateThresholds)
{
    RocCurve roc({1.0}, {2.0}, 10);
    const auto &pts = roc.points();
    EXPECT_DOUBLE_EQ(pts.front().tpr, 0.0);
    EXPECT_DOUBLE_EQ(pts.back().tpr, 1.0);
    EXPECT_DOUBLE_EQ(pts.back().fpr, 1.0);
}

TEST(RocCurve, RejectsEmptyInputs)
{
    EXPECT_THROW(RocCurve({}, {1.0}), FatalError);
    EXPECT_THROW(RocCurve({1.0}, {}), FatalError);
}

TEST(Fixed, QuantizeRoundTripWithinResolution)
{
    for (double v = -3.9; v <= 3.9; v += 0.07) {
        const NormSample code = quantizeNorm(v);
        EXPECT_NEAR(dequantizeNorm(code), v, 1.0 / kNormScale);
    }
}

TEST(Fixed, QuantizeClampsOutliers)
{
    EXPECT_EQ(quantizeNorm(100.0), 127);
    EXPECT_EQ(quantizeNorm(-100.0), -128);
}

TEST(Fixed, SaturatingArithmetic)
{
    EXPECT_EQ(satAdd(kCostMax - 1, 10u), kCostMax);
    EXPECT_EQ(satAdd(3u, 4u), 7u);
    EXPECT_EQ(satSub(3u, 10u), 0u);
    EXPECT_EQ(satSub(10u, 3u), 7u);
}

TEST(Table, RendersAlignedRows)
{
    Table table("demo", {"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22222"});
    const std::string out = table.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);
}

TEST(Table, RejectsArityMismatch)
{
    Table table("demo", {"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), FatalError);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtInt(1234567), "1,234,567");
    EXPECT_EQ(fmtInt(-1000), "-1,000");
    EXPECT_EQ(fmtInt(12), "12");
    EXPECT_EQ(fmtPct(0.962, 1), "96.2%");
    EXPECT_EQ(fmt(3.14159, 3), "3.14");
}

TEST(Parallel, CoversAllIndicesOnce)
{
    std::vector<int> hits(1000, 0);
    parallelFor(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Parallel, ZeroItemsIsNoop)
{
    bool called = false;
    parallelFor(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Logging, FatalThrowsWithMessage)
{
    try {
        fatal("bad value %d", 42);
        FAIL() << "fatal() must throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
    }
}

TEST(EnvKnobs, UnsetYieldsFallback)
{
    ::unsetenv("SF_TEST_KNOB");
    EXPECT_EQ(envSize("SF_TEST_KNOB", 42u), 42u);
    EXPECT_DOUBLE_EQ(envDouble("SF_TEST_KNOB", 1.5), 1.5);
    EXPECT_TRUE(envFlag("SF_TEST_KNOB", true));
    EXPECT_EQ(envString("SF_TEST_KNOB"), nullptr);
    EXPECT_EQ(envUnsignedCsv("SF_TEST_KNOB", {1, 4}),
              (std::vector<unsigned>{1, 4}));
}

TEST(EnvKnobs, WellFormedValuesParse)
{
    ::setenv("SF_TEST_KNOB", "1024", 1);
    EXPECT_EQ(envSize("SF_TEST_KNOB", 0u), 1024u);
    ::setenv("SF_TEST_KNOB", "0", 1);
    EXPECT_EQ(envSize("SF_TEST_KNOB", 7u), 0u);
    EXPECT_FALSE(envFlag("SF_TEST_KNOB", true));
    ::setenv("SF_TEST_KNOB", "2.5", 1);
    EXPECT_DOUBLE_EQ(envDouble("SF_TEST_KNOB", 0.0), 2.5);
    ::setenv("SF_TEST_KNOB", "1,4,8", 1);
    EXPECT_EQ(envUnsignedCsv("SF_TEST_KNOB", {}),
              (std::vector<unsigned>{1, 4, 8}));
    ::unsetenv("SF_TEST_KNOB");
}

TEST(EnvKnobs, MalformedValuesAreFatalNotTruncated)
{
    // The regression this guards: atol-style reads parsed
    // "1024abc" as 1024 and silently benched the wrong config.
    ::setenv("SF_TEST_KNOB", "1024abc", 1);
    EXPECT_THROW(envSize("SF_TEST_KNOB", 0u), FatalError);
    EXPECT_THROW(envDouble("SF_TEST_KNOB", 0.0), FatalError);
    ::setenv("SF_TEST_KNOB", "-3", 1);
    EXPECT_THROW(envSize("SF_TEST_KNOB", 0u), FatalError);
    // strtoull skips whitespace and takes a sign, so without the
    // leading-digit check " -1" reads as 2^64-1 and " 12" / "+7" as
    // 12 / 7.
    for (const char *signed_or_padded : {" -1", " 12", "+7"}) {
        ::setenv("SF_TEST_KNOB", signed_or_padded, 1);
        EXPECT_THROW(envSize("SF_TEST_KNOB", 0u), FatalError)
            << '"' << signed_or_padded << '"';
    }
    ::setenv("SF_TEST_KNOB", "", 1);
    EXPECT_THROW(envSize("SF_TEST_KNOB", 0u), FatalError);
    ::setenv("SF_TEST_KNOB", "yes", 1);
    EXPECT_THROW(envFlag("SF_TEST_KNOB", false), FatalError);
    ::setenv("SF_TEST_KNOB", "1,0,8", 1);
    EXPECT_THROW(envUnsignedCsv("SF_TEST_KNOB", {}), FatalError);
    ::setenv("SF_TEST_KNOB", "1,4x", 1);
    EXPECT_THROW(envUnsignedCsv("SF_TEST_KNOB", {}), FatalError);
    // Without the leading-digit check "-18446744073709551615" wraps
    // to 1; signed or padded tokens are malformed anywhere in a list.
    for (const char *signed_token :
         {"-18446744073709551615", "1,+4", "1, 4", "-1"}) {
        ::setenv("SF_TEST_KNOB", signed_token, 1);
        EXPECT_THROW(envUnsignedCsv("SF_TEST_KNOB", {}), FatalError)
            << '"' << signed_token << '"';
    }
    ::unsetenv("SF_TEST_KNOB");
}

} // namespace
} // namespace sf
