/**
 * @file
 * Cross-module property sweeps and failure injection: invariants that
 * span several subsystems, parameterised over seeds so each run
 * exercises a different corner of the input space deterministically.
 */

#include <gtest/gtest.h>

#include "basecall/oracle.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "genome/mutate.hpp"
#include "genome/synthetic.hpp"
#include "hw/accelerator.hpp"
#include "hw/asic_model.hpp"
#include "pipeline/experiments.hpp"
#include "readuntil/model.hpp"
#include "sdtw/filter.hpp"
#include "sdtw/normalizer.hpp"
#include "sdtw/threshold.hpp"
#include "signal/dataset.hpp"

namespace sf {
namespace {

// ---------------------------------------------------------------- //
//        classifier invariance under pore gain/offset shifts        //
// ---------------------------------------------------------------- //

class GainInvarianceTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(GainInvarianceTest, CostStableAcrossPoreBiasConditions)
{
    // The same molecule measured under different bias voltages must
    // produce nearly the same alignment cost — the whole point of the
    // normaliser (Figure 8).
    const auto &virus = pipeline::sarsCov2Genome();
    const auto fragment = virus.slice(3000 + 512 * GetParam(), 400);

    const sdtw::QuantSdtw engine(sdtw::hardwareConfig());
    const auto &ref = pipeline::sarsCov2Squiggle();

    std::vector<Cost> costs;
    for (double offset_stdv : {0.0, 6.0, 14.0}) {
        signal::SimulatorConfig config;
        config.gainStdv = offset_stdv > 0.0 ? 0.06 : 0.0;
        config.offsetStdvPa = offset_stdv;
        const signal::SignalSimulator sim(
            pipeline::defaultKmerModel(), config);
        signal::ReadRecord read;
        read.bases = fragment;
        Rng rng(GetParam() * 1000 + std::uint64_t(offset_stdv));
        sim.simulate(read, rng);
        if (read.raw.size() < 2000)
            GTEST_SKIP() << "fragment too short for the prefix";
        const auto query = sdtw::MeanMadNormalizer::normalize(
            std::span<const RawSample>(read.raw).subspan(0, 2000));
        costs.push_back(
            engine.align(std::span<const NormSample>(query),
                         std::span<const NormSample>(ref.samples()))
                .cost);
    }
    // All bias conditions must land in the same cost regime (well
    // under typical background costs ~20000 at this prefix).
    for (Cost c : costs) {
        EXPECT_LT(c, 12000u);
        EXPECT_GT(c, 100u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GainInvarianceTest,
                         ::testing::Range<std::uint64_t>(0, 6));

// ---------------------------------------------------------------- //
//            oracle error rate sweep is monotone in F1              //
// ---------------------------------------------------------------- //

TEST(OracleSweep, IdentityDegradesMonotonically)
{
    const auto dataset = pipeline::makeCovidDataset(3, 0x5eed);
    const signal::ReadRecord *longest = nullptr;
    for (const auto &read : dataset.reads) {
        if (read.isTarget() &&
            (longest == nullptr ||
             read.bases.size() > longest->bases.size())) {
            longest = &read;
        }
    }
    ASSERT_NE(longest, nullptr);

    double previous = 1.1;
    for (double rate : {0.0, 0.03, 0.08, 0.15}) {
        basecall::ErrorProfile profile;
        profile.substitutionRate = rate * 0.6;
        profile.insertionRate = rate * 0.2;
        profile.deletionRate = rate * 0.2;
        profile.seed = 1;
        const basecall::OracleBasecaller oracle(profile);
        const double identity = basecall::basecallIdentity(
            oracle.callAll(*longest), longest->bases);
        EXPECT_LT(identity, previous + 0.02);
        previous = identity;
    }
    EXPECT_LT(previous, 0.9); // 15% injected errors must show
}

// ---------------------------------------------------------------- //
//       accelerator == software classifier on whole batches         //
// ---------------------------------------------------------------- //

TEST(BatchEquivalence, AcceleratorAgreesWithSoftwareClassifier)
{
    const auto &ref = pipeline::sarsCov2Squiggle();
    const auto dataset = pipeline::makeCovidDataset(8, 0xba7c4);

    sdtw::SquiggleFilterClassifier classifier(ref);
    classifier.setSingleStage(2000, 9000);

    hw::AcceleratorConfig config;
    hw::Accelerator accel(ref, config);
    std::vector<hw::DispatchedRead> outcomes;
    accel.processBatch(dataset.reads, classifier.stages(), &outcomes);

    ASSERT_EQ(outcomes.size(), dataset.reads.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto sw = classifier.classify(dataset.reads[i].raw);
        EXPECT_EQ(outcomes[i].result.classification.keep, sw.keep);
        EXPECT_EQ(outcomes[i].result.classification.cost, sw.cost);
    }
}

// ---------------------------------------------------------------- //
//                        failure injection                          //
// ---------------------------------------------------------------- //

TEST(FailureInjection, AllRailSignalStillClassifies)
{
    // A saturated ADC (stuck pore) must not crash the filter.  Note
    // the honest behaviour: a constant signal normalises to all-zero
    // codes, which alias cheaply onto mid-level reference stretches,
    // so sDTW alone may keep it — which is why real sequencing stacks
    // detect stuck pores upstream of Read Until.  The invariant here
    // is a deterministic, crash-free decision.
    const auto &ref = pipeline::sarsCov2Squiggle();
    sdtw::SquiggleFilterClassifier classifier(ref);
    classifier.setSingleStage(2000, 8000);

    std::vector<RawSample> stuck(2500, kAdcMax);
    const auto a = classifier.classify(stuck);
    const auto b = classifier.classify(stuck);
    EXPECT_EQ(a.keep, b.keep);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.samplesUsed, 2000u);
}

TEST(FailureInjection, AlternatingRailSignalIsHandled)
{
    const auto &ref = pipeline::sarsCov2Squiggle();
    sdtw::SquiggleFilterClassifier classifier(ref);
    classifier.setSingleStage(2000, 8000);

    std::vector<RawSample> noisy(2500);
    for (std::size_t i = 0; i < noisy.size(); ++i)
        noisy[i] = i % 2 ? kAdcMax : 0;
    const auto result = classifier.classify(noisy);
    EXPECT_FALSE(result.keep); // nothing biological looks like this
}

TEST(FailureInjection, TinyReadFallsBackToScaledThreshold)
{
    const auto &ref = pipeline::sarsCov2Squiggle();
    sdtw::SquiggleFilterClassifier classifier(ref);
    classifier.setSingleStage(2000, 8000);

    const auto dataset = pipeline::makeCovidDataset(2, 0x511);
    for (const auto &read : dataset.reads) {
        if (!read.isTarget())
            continue;
        // 300-sample prefix: far below the stage length.
        const auto result =
            classifier.classify(read.prefix(300));
        EXPECT_EQ(result.samplesUsed, 300u);
        // Decision must be made (keep or eject), not crash.
        SUCCEED();
        break;
    }
}

// ---------------------------------------------------------------- //
//       runtime model consistency across the threshold sweep        //
// ---------------------------------------------------------------- //

TEST(RuntimeSweep, RuntimeIsUnimodalishInThreshold)
{
    // As the threshold loosens from 0 (eject all) to infinity (keep
    // all), modelled runtime must fall from "never finishes" to a
    // minimum and rise back to the no-RU baseline — the U-shape of
    // Figure 17b.
    const auto dataset = pipeline::makeCovidDataset(16, 0x1717);
    const auto costs =
        sdtw::collectCosts(pipeline::sarsCov2Squiggle(), dataset.reads,
                           2000, sdtw::hardwareConfig());
    const auto roc = sdtw::sweepThresholds(costs, 40);

    readuntil::SequencingParams params;
    params.targetFraction = 0.01;
    const readuntil::ReadUntilModel model(params);
    const double baseline = model.withoutReadUntil().hours;

    double min_hours = 1e18;
    double last_hours = 0.0;
    for (const auto &pt : roc.points()) {
        if (pt.tpr <= 0.01)
            continue;
        readuntil::ClassifierParams c;
        c.tpr = pt.tpr;
        c.fpr = pt.fpr;
        const double hours = model.withReadUntil(c).hours;
        min_hours = std::min(min_hours, hours);
        last_hours = hours;
    }
    EXPECT_LT(min_hours, 0.5 * baseline); // real benefit at the dip
    EXPECT_NEAR(last_hours, baseline, 0.05 * baseline); // keep-all end
}

// ---------------------------------------------------------------- //
//                  power gating and timing sanity                   //
// ---------------------------------------------------------------- //

TEST(AsicSanity, ThroughputScalesWithTilesAndPrefix)
{
    const hw::AsicModel asic(2000, 5);
    const std::size_t ref = pipeline::sarsCov2Squiggle().size();
    EXPECT_NEAR(asic.chipThroughputSamplesPerSec(2000, ref, 5),
                5.0 * asic.chipThroughputSamplesPerSec(2000, ref, 1),
                1.0);
    // A longer prefix that still fits the 2000-PE array amortises the
    // reference streaming: higher throughput per tile.
    EXPECT_GT(asic.tileThroughputSamplesPerSec(2000, ref),
              asic.tileThroughputSamplesPerSec(1000, ref));
    // Past the array the prefix folds in ceil(L/D) passes that each
    // stream the whole reference, so doubling it doubles the cycles.
    EXPECT_DOUBLE_EQ(asic.tileThroughputSamplesPerSec(4000, ref),
                     asic.tileThroughputSamplesPerSec(2000, ref));
}

} // namespace
} // namespace sf
