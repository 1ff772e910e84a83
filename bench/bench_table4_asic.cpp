/**
 * @file
 * Table 4: SquiggleFilter ASIC synthesis results, plus the §7.1
 * latency/throughput numbers derived from the cycle model
 * (hw::modelDecision, which the test suite checks against the
 * event-level systolic-array simulator).
 */

#include "bench_util.hpp"
#include "common/table.hpp"
#include "hw/asic_model.hpp"

using namespace sf;

int
main()
{
    bench::banner("ASIC synthesis and performance", "Table 4 + §7.1");

    const hw::AsicModel asic(2000, 5);
    asic.table4().print();

    const auto &sars = pipeline::sarsCov2Squiggle();
    const auto &lambda = pipeline::lambdaSquiggle();

    Table perf("Classification latency and throughput (§7.1)",
               {"Reference", "Ref samples", "Latency (ms)",
                "Tile (Msamp/s)", "5-tile chip (Msamp/s)",
                "vs MinION max"});
    for (const auto *ref : {&sars, &lambda}) {
        const double latency = asic.classifyLatencyMs(2000, ref->size());
        const double tile =
            asic.tileThroughputSamplesPerSec(2000, ref->size());
        const double chip =
            asic.chipThroughputSamplesPerSec(2000, ref->size(), 5);
        perf.addRow({ref->referenceName(), fmtInt(long(ref->size())),
                     fmt(latency, 3), fmt(tile / 1e6, 4),
                     fmt(chip / 1e6, 5),
                     fmt(chip / kMinionMaxSamplesPerSec, 3) + "x"});
    }
    perf.print();

    std::printf("\nPaper anchors: 13.25 mm2 / 14.31 W chip; 0.027 ms "
                "(SARS-CoV-2) and 0.043 ms (lambda) latency;\n74.63 / "
                "46.73 Msamples/s per tile; 233.65 Msamples/s chip "
                "(lambda); ~114x MinION headroom.\n");
    return 0;
}
