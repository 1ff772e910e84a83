/**
 * @file
 * Hardware walk-through: run reads through the 5-tile accelerator
 * model with multi-stage filtering, and report per-read timing, DRAM
 * traffic, chip utilisation, and the ASIC power budget.  Each tile
 * classifies with the software filter's recurrence and charges every
 * stage's fold from the closed-form systolic cycle model
 * (hw::modelDecision), which the test suite checks against the
 * event-level PE array.
 */

#include <cstdio>

#include "hw/accelerator.hpp"
#include "hw/asic_model.hpp"
#include "pipeline/experiments.hpp"
#include "sdtw/threshold.hpp"

int
main()
{
    using namespace sf;

    const auto &reference = pipeline::sarsCov2Squiggle();
    const auto dataset = pipeline::makeCovidDataset(12, 0x4a11);

    // Calibrate a two-stage schedule: permissive at 1000 samples,
    // aggressive at 2000.
    const auto c1000 = sdtw::collectCosts(reference, dataset.reads,
                                          1000, sdtw::hardwareConfig());
    const auto c2000 = sdtw::collectCosts(reference, dataset.reads,
                                          2000, sdtw::hardwareConfig());
    const std::vector<sdtw::FilterStage> stages{
        {1000, Cost(1.6 * sdtw::bestF1Threshold(c1000))},
        {2000, Cost(sdtw::bestF1Threshold(c2000))},
    };
    std::printf("multi-stage schedule: stage1 %u @ %zu samples, "
                "stage2 %u @ %zu samples\n",
                stages[0].threshold, stages[0].prefixSamples,
                stages[1].threshold, stages[1].prefixSamples);

    hw::Accelerator accelerator(reference, hw::AcceleratorConfig{});

    std::vector<hw::DispatchedRead> outcomes;
    const auto stats =
        accelerator.processBatch(dataset.reads, stages, &outcomes);

    std::printf("\nper-read outcomes (first 8):\n");
    std::size_t shown = 0;
    for (const auto &o : outcomes) {
        if (shown++ >= 8)
            break;
        std::printf("  read %3llu on tile %d: %s after %zu samples, "
                    "%llu cycles (%.1f us), DRAM %llu B\n",
                    (unsigned long long)o.readId, o.tile,
                    o.result.classification.keep ? "KEEP " : "EJECT",
                    o.result.classification.samplesUsed,
                    (unsigned long long)o.result.cycles,
                    o.result.latencySeconds * 1e6,
                    (unsigned long long)(o.result.dramBytesWritten +
                                         o.result.dramBytesRead));
    }

    std::printf("\nbatch: %zu reads (%zu kept / %zu ejected) in "
                "%.3f ms of chip time\n",
                stats.reads, stats.kept, stats.ejected,
                stats.wallSeconds * 1e3);
    std::printf("throughput: %.1f Msamples/s, utilisation %.1f%%, "
                "checkpoint traffic %.2f GB/s\n",
                stats.throughputSamplesPerSec / 1e6,
                stats.utilization * 100.0,
                stats.peakDramBandwidthGBs);

    const hw::AsicModel asic(2000, 5);
    std::printf("\nASIC budget: %.2f mm2, %.2f W (5 tiles) / %.2f W "
                "(1 tile power-gated mode)\n",
                asic.chipAreaMm2(), asic.chipPowerW(5),
                asic.chipPowerW(1));
    std::printf("headroom vs MinION: %.0fx samples/s\n",
                asic.chipThroughputSamplesPerSec(2000, reference.size(),
                                                 5) /
                    kMinionMaxSamplesPerSec);
    return 0;
}
