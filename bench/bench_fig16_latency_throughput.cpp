/**
 * @file
 * Figure 16: (a) Read Until decision latency and (b) classification
 * throughput for Guppy, Guppy-lite (Titan XP / Jetson Xavier) and the
 * SquiggleFilter accelerator.
 */

#include "bench_util.hpp"
#include "basecall/perf_model.hpp"
#include "common/table.hpp"
#include "hw/asic_model.hpp"

using namespace sf;

int
main()
{
    bench::banner("Classifier latency and throughput", "Figure 16");

    const auto &sars = pipeline::sarsCov2Squiggle();
    const hw::AsicModel asic(2000, 5);

    const double sf_latency_ms =
        asic.classifyLatencyMs(2000, sars.size());
    const double sf_tile_samples =
        asic.tileThroughputSamplesPerSec(2000, sars.size());
    const double sf_chip_samples =
        asic.chipThroughputSamplesPerSec(2000, sars.size(), 5);
    // Raw samples -> bases via ~8.9 samples/base.
    const double sf_chip_bases = sf_chip_samples / kSamplesPerBase;

    Table lat("Figure 16a: Read Until decision latency",
              {"Classifier", "Latency (ms)",
               "Extra bases sequenced during decision"});
    for (const auto &model : basecall::allBasecallerPerfModels()) {
        lat.addRow({toString(model.kind()) + " / " +
                        toString(model.device()),
                    fmt(model.decisionLatencyMs(), 4),
                    fmt(model.wastedBasesPerDecision(), 3)});
    }
    lat.addRow({"SquiggleFilter (SARS-CoV-2)", fmt(sf_latency_ms, 3),
                fmt(sf_latency_ms / 1e3 * kBasesPerSecond, 2)});
    lat.print();

    Table thr("Figure 16b: classification throughput vs sequencers",
              {"Classifier", "Throughput (bases/s)", "x MinION max"});
    for (const auto &model : basecall::allBasecallerPerfModels()) {
        const double bps = model.readUntilThroughputBasesPerSec();
        thr.addRow({toString(model.kind()) + " / " +
                        toString(model.device()),
                    fmtInt(long(bps)),
                    fmt(bps / kMinionMaxBasesPerSec, 3)});
    }
    thr.addRow({"SquiggleFilter 1 tile",
                fmtInt(long(sf_tile_samples / kSamplesPerBase)),
                fmt(sf_tile_samples / kMinionMaxSamplesPerSec, 3)});
    thr.addRow({"SquiggleFilter 5 tiles", fmtInt(long(sf_chip_bases)),
                fmt(sf_chip_samples / kMinionMaxSamplesPerSec, 4)});
    thr.print();

    // Headline ratios, computed the way the paper computes them:
    // throughput in raw samples/s, 5-tile chip on the *lambda*
    // reference vs Guppy-lite online on the edge GPU; latency vs
    // Guppy-lite's 149 ms decision using the lambda classification.
    const auto &lambda = pipeline::lambdaSquiggle();
    const basecall::BasecallerPerfModel jetson_lite(
        basecall::BasecallerKind::GuppyLite,
        basecall::Device::JetsonXavier);
    const basecall::BasecallerPerfModel titan_lite(
        basecall::BasecallerKind::GuppyLite,
        basecall::Device::TitanXp);
    const double chip_lambda_samples =
        asic.chipThroughputSamplesPerSec(2000, lambda.size(), 5);
    const double jetson_samples =
        jetson_lite.readUntilThroughputBasesPerSec() * kSamplesPerBase;
    const double sf_lambda_latency =
        asic.classifyLatencyMs(2000, lambda.size());

    std::printf("Headline ratios:\n");
    std::printf("  throughput: %.0fx over Guppy-lite on the edge GPU "
                "(paper: 274x)\n",
                chip_lambda_samples / jetson_samples);
    std::printf("  latency:    %.0fx lower than Guppy-lite "
                "(paper: 3481x)\n",
                titan_lite.decisionLatencyMs() / sf_lambda_latency);
    return 0;
}
