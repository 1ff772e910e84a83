/**
 * @file
 * Figure 21: future Read Until benefits as sequencing throughput
 * scales 1x..128x.  GPU basecalling can serve a shrinking fraction of
 * pores, eroding its Read Until benefit; SquiggleFilter keeps up to
 * ~114x.  Includes a tile-count extension sweep (DESIGN.md §6).
 */

#include <chrono>

#include "bench_util.hpp"
#include "basecall/perf_model.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "hw/asic_model.hpp"
#include "readuntil/model.hpp"
#include "sdtw/batch.hpp"

using namespace sf;

namespace {

/**
 * Measure the lane-batched software kernel's aggregate throughput at
 * one lane count against a SARS-CoV-2-sized reference.  Returns raw
 * samples/s (divide cells/s by the reference length), the currency
 * the pore-coverage comparison below uses.
 */
double
measureBatchedSamplesPerSec(std::size_t lanes_n, std::size_t ref_len)
{
    constexpr std::size_t kQueryLen = 500;
    Rng rng(0x21b + lanes_n);
    std::vector<std::vector<NormSample>> queries(lanes_n);
    for (auto &q : queries) {
        q.resize(kQueryLen);
        for (auto &s : q)
            s = NormSample(rng.uniformInt(-128, 127));
    }
    std::vector<NormSample> ref(ref_len);
    for (auto &s : ref)
        s = NormSample(rng.uniformInt(-128, 127));

    sdtw::BatchSdtw kernel(sdtw::hardwareConfig(), lanes_n);
    kernel.setSerialCutover(0);
    std::vector<sdtw::QuantSdtw::State> states(lanes_n);
    std::vector<sdtw::BatchLane> lanes(lanes_n);
    const auto run = [&] {
        for (std::size_t i = 0; i < lanes_n; ++i) {
            states[i].reset();
            lanes[i].state = &states[i];
            lanes[i].query = queries[i];
        }
        kernel.processMany(lanes, ref);
    };
    run(); // warm-up: first-touch the interleaved DP buffers untimed

    const auto start = std::chrono::steady_clock::now();
    run();
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    return sec > 0.0 ? double(lanes_n) * double(kQueryLen) / sec : 0.0;
}

double
hoursAt(double scale, double coverage_fraction, double tpr, double fpr,
        double latency_sec)
{
    readuntil::SequencingParams params;
    params.targetFraction = 0.01;
    params.throughputScale = scale;
    readuntil::ClassifierParams c;
    c.tpr = tpr;
    c.fpr = fpr;
    c.decisionLatencySec = latency_sec;
    c.channelCoverage = coverage_fraction;
    return readuntil::ReadUntilModel(params).withReadUntil(c).hours;
}

} // namespace

int
main()
{
    bench::banner("Read Until benefit vs future sequencer throughput",
                  "Figure 21 / §7.5");

    const auto &sars = pipeline::sarsCov2Squiggle();
    const hw::AsicModel asic(2000, 5);
    const basecall::BasecallerPerfModel jetson_lite(
        basecall::BasecallerKind::GuppyLite,
        basecall::Device::JetsonXavier);

    // Accuracy anchors: Guppy-lite slightly more accurate (paper
    // §7.5), SquiggleFilter slightly behind.
    const double lite_tpr = 0.97, lite_fpr = 0.03;
    const double sf_tpr = 0.95, sf_fpr = 0.05;
    const double sf_chip_samples =
        asic.chipThroughputSamplesPerSec(2000, sars.size(), 5);

    Table table("Figure 21: time to 30x SARS-CoV-2 genome (hours)",
                {"Throughput scale", "No Read Until",
                 "Guppy-lite (Jetson)", "pore coverage",
                 "SquiggleFilter", "pore coverage"});
    for (double scale : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
        readuntil::SequencingParams params;
        params.targetFraction = 0.01;
        params.throughputScale = scale;
        const double none =
            readuntil::ReadUntilModel(params).withoutReadUntil().hours;

        const double seq_bases = kMinionMaxBasesPerSec * scale;
        const double seq_samples = kMinionMaxSamplesPerSec * scale;
        const double lite_cov = jetson_lite.poreCoverage(seq_bases);
        const double sf_cov =
            std::min(1.0, sf_chip_samples / seq_samples);

        const double lite_h =
            hoursAt(scale, lite_cov, lite_tpr, lite_fpr,
                    jetson_lite.decisionLatencyMs() / 1e3);
        const double sf_h = hoursAt(
            scale, sf_cov, sf_tpr, sf_fpr,
            asic.classifyLatencyMs(2000, sars.size()) / 1e3);

        table.addRow({fmt(scale, 4) + "x", fmt(none, 3),
                      fmt(lite_h, 3), fmtPct(lite_cov, 1),
                      fmt(sf_h, 3), fmtPct(sf_cov, 1)});
    }
    table.print();
    std::printf("Shape check (paper Fig 21): Guppy-lite's benefit "
                "erodes as its pore coverage collapses; "
                "SquiggleFilter sustains Read Until to ~%.0fx.\n\n",
                sf_chip_samples / kMinionMaxSamplesPerSec);

    Table tiles("Extension: tile-count sweep at 16x throughput",
                {"Active tiles", "Chip power (W)", "Pore coverage",
                 "Runtime (h)"});
    for (int t = 1; t <= 5; ++t) {
        const hw::AsicModel chip(2000, 5);
        const double cov = std::min(
            1.0, chip.chipThroughputSamplesPerSec(2000, sars.size(),
                                                  t) /
                     (kMinionMaxSamplesPerSec * 16.0));
        tiles.addRow({fmtInt(t), fmt(chip.chipPowerW(t), 3),
                      fmtPct(cov, 1),
                      fmt(hoursAt(16.0, cov, sf_tpr, sf_fpr, 4e-5),
                          3)});
    }
    tiles.print();

    // ---- extension: measured lane-batched software backend ---------
    // How far does the *software* SIMD kernel (one CPU core, reads
    // packed across vector lanes — src/sdtw/batch.hpp) get toward the
    // same pore-coverage question the ASIC rows answer with modelled
    // numbers?  Coverage here is measured aggregate samples/s against
    // the MinION's maximum output at 1x.
    Table sw("Extension: measured lane-batched software sDTW "
             "(1 core, SARS-CoV-2-sized reference)",
             {"Lanes", "Aggregate cells/s", "Samples/s",
              "Pore coverage @1x"});
    const std::size_t ref_len = sars.size();
    const auto backend = sdtw::detectSimdBackend();
    for (std::size_t lanes_n : {std::size_t(1), std::size_t(8),
                                std::size_t(16), std::size_t(32)}) {
        const double samples_s =
            measureBatchedSamplesPerSec(lanes_n, ref_len);
        sw.addRow({fmtInt(long(lanes_n)),
                   fmt(samples_s * double(ref_len) / 1e9, 2) + "G",
                   fmtInt(long(samples_s / 1e3)) + "k",
                   fmtPct(std::min(1.0, samples_s /
                                            kMinionMaxSamplesPerSec),
                          2)});
    }
    sw.print();
    std::printf("SIMD backend: %s (%zu cost lanes per op).  The "
                "software kernel covers a small fraction of one "
                "flowcell per core — the gap the paper's systolic "
                "array exists to close.\n",
                sdtw::simdBackendName(backend),
                sdtw::simdLaneWidth(backend));
    return 0;
}
