/**
 * @file
 * Figure 17: (a) Read Until classification accuracy — sDTW vs the
 * basecall+align baseline — across prefix lengths; (b) modelled Read
 * Until runtime vs threshold on the lambda dataset; (c) the same
 * operating points transferred to the SARS-CoV-2 dataset; (d) the
 * streaming multi-channel session driving the same classifier with
 * per-chunk decisions — measured decision-latency percentiles,
 * sustained chunk throughput, enrichment, and the DP-work advantage
 * of checkpointed (incremental) alignment over re-aligning the full
 * prefix at every decision.
 *
 * Set SF_FIG17_SECTION=stream to run only section (d) — the CI bench
 * gate uses this to track the streaming numbers in BENCH_stream.json.
 */

#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench_util.hpp"
#include "align/aligner.hpp"
#include "basecall/oracle.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "readuntil/model.hpp"
#include "sdtw/batch.hpp"
#include "stream/session.hpp"

using namespace sf;

namespace {

/** Modelled RU runtime for one measured operating point. */
double
runtimeHours(double tpr, double fpr, std::size_t prefix,
             double genome_bases)
{
    readuntil::SequencingParams params;
    params.targetFraction = 0.01;
    params.genomeBases = genome_bases;
    readuntil::ClassifierParams c;
    c.tpr = tpr;
    c.fpr = fpr;
    c.prefixSamples = double(prefix);
    c.decisionLatencySec = 0.043e-3; // SquiggleFilter-class latency
    return readuntil::ReadUntilModel(params).withReadUntil(c).hours;
}

/**
 * Section (d): the streaming session.  Calibrates a 2000-sample
 * operating point, expands it into a per-chunk decision schedule, and
 * drives the lambda dataset through a live multi-channel flowcell.
 */
void
runStreamingSection(std::size_t per_class)
{
    const auto &data = pipeline::makeLambdaDataset(per_class);
    const auto calib_costs =
        sdtw::collectCosts(pipeline::lambdaSquiggle(), data.reads, 2000,
                           sdtw::hardwareConfig());
    const Cost threshold = Cost(sdtw::bestF1Threshold(calib_costs));

    constexpr std::size_t kChunkSamples = 1600; // 0.4 s at 4 kHz
    constexpr std::size_t kDecisions = 12;
    sdtw::SquiggleFilterClassifier classifier(pipeline::lambdaSquiggle());
    classifier.setStages(sdtw::uniformStageSchedule(
        kChunkSamples, kDecisions, threshold));

    stream::SessionConfig cfg;
    cfg.channels = 128;
    cfg.chunkSeconds = double(kChunkSamples) / cfg.sampleRateHz;
    cfg.workers = 0; // hardware concurrency
    cfg.seed = 0x17f1;
    // Decision budget: this section measures the *software* backend,
    // so the virtual budget models software-class decision latency
    // (~100 ms budget; the measured software p50 against the ~97k-sample
    // lambda reference on one core is ~200 ms) rather than the ASIC's 43 us.  This is
    // what makes the worker pool's cross-channel request batching
    // real: several channels' chunks land inside one decision window,
    // so dispatches carry multi-read batches for the SIMD lanes to
    // fold together.  (With the 43 us ASIC budget every decision is
    // applied before the next chunk surfaces and batches never form.)
    cfg.decisionLatencySec = 0.1;
    const char *simd = sdtw::simdBackendName(sdtw::detectSimdBackend());
    const stream::ReadUntilSession session(classifier, cfg);
    const auto result = session.run(data.reads);
    const auto &s = result.stats;

    Table table("Figure 17d: streaming Read Until session (lambda, "
                "per-chunk decisions)",
                {"Metric", "Value"});
    table.addRow({"channels / workers",
                  fmtInt(cfg.channels) + " / " +
                      fmtInt(long(std::thread::hardware_concurrency()))});
    table.addRow({"worker sDTW path",
                  std::string("lane-batched (") + simd + ")"});
    table.addRow({"decision schedule",
                  fmtInt(long(kDecisions)) + " stages x " +
                      fmtInt(long(kChunkSamples)) + " samples"});
    table.addRow({"reads processed", fmtInt(long(s.readsProcessed))});
    table.addRow({"kept / ejected", fmtInt(long(s.readsKept)) + " / " +
                                        fmtInt(long(s.readsEjected))});
    table.addRow({"decision F1 vs ground truth",
                  fmt(s.confusion.f1(), 3)});
    table.addRow({"enrichment factor", fmt(s.enrichmentFactor, 2)});
    table.addRow({"chunks emitted", fmtInt(long(s.chunksEmitted))});
    table.addRow({"sustained chunks/s (real)", fmt(s.chunksPerSec, 5)});
    table.addRow({"decision latency p50 (us)", fmt(s.latency.p50us, 6)});
    table.addRow({"decision latency p99 (us)", fmt(s.latency.p99us, 6)});
    table.addRow({"mean batch per dispatch", fmt(s.meanBatchSize, 2)});
    table.addRow({"DP rows folded (checkpointed)",
                  fmtInt(long(s.dpRowsFolded))});
    table.addRow({"DP rows if re-aligned per decision",
                  fmtInt(long(s.dpRowsNaive))});
    table.addRow({"DP work ratio (naive / checkpointed)",
                  fmt(s.dpWorkRatio(), 2)});
    table.addRow({"virtual flowcell hours",
                  fmt(s.virtualSeconds / 3600.0, 3)});
    table.addRow({"wall seconds", fmt(s.wallSeconds, 2)});
    table.print();

    std::printf("Checkpointed feedChunk() does %.1fx less DP work than "
                "re-aligning each decision's full prefix (target: "
                ">= 5x).\n",
                s.dpWorkRatio());
    // Machine-readable line consumed by scripts/bench_gate.py.
    std::printf("BENCH_STREAM_JSON {\"chunks_per_s\": %.1f, "
                "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                "\"dp_work_ratio\": %.2f, \"enrichment\": %.3f, "
                "\"f1\": %.3f, \"reads\": %zu, \"decisions\": %zu, "
                "\"simd\": \"%s\"}\n",
                s.chunksPerSec, s.latency.p50us, s.latency.p99us,
                s.dpWorkRatio(), s.enrichmentFactor, s.confusion.f1(),
                s.readsProcessed, std::size_t(s.decisions), simd);
}

} // namespace

int
main()
{
    bench::banner("Read Until accuracy and runtime", "Figure 17");

    const auto per_class = pipeline::scaledReads(24);

    // Section (d) uses a denser read mix than the accuracy sections:
    // enough in-flight reads to keep most of the 128 channels busy, so
    // the worker pool sees realistic cross-channel request pressure.
    const auto stream_per_class = pipeline::scaledReads(96);

    const char *section = envString("SF_FIG17_SECTION");
    if (section != nullptr && std::strcmp(section, "stream") == 0) {
        runStreamingSection(stream_per_class);
        return 0;
    }
    const std::vector<std::size_t> prefixes{1000, 2000, 4000};

    // ---- (a) sDTW accuracy on the lambda dataset ----
    const auto lambda_data = pipeline::makeLambdaDataset(per_class);
    const auto sdtw_acc = bench::measureAccuracy(
        pipeline::lambdaSquiggle(), lambda_data.reads, prefixes,
        sdtw::hardwareConfig());

    // Basecall+align baseline: Guppy-lite-grade oracle + minimap2-lite
    // chain score, swept over score thresholds.
    const basecall::OracleBasecaller guppy_lite(
        basecall::guppyFastProfile());
    const align::ReadAligner aligner(pipeline::lambdaGenome());

    Table roc("Figure 17a: Read Until accuracy (lambda vs human)",
              {"Classifier", "Prefix (samples)", "AUC", "Best F1",
               "TPR@best", "FPR@best"});
    for (std::size_t prefix : prefixes) {
        const auto &acc = sdtw_acc.at(prefix);
        roc.addRow({"sDTW (hardware config)", fmtInt(long(prefix)),
                    fmt(acc.auc, 3), fmt(acc.bestF1, 3),
                    fmt(acc.tprAtBest, 3), fmt(acc.fprAtBest, 3)});
    }
    for (std::size_t prefix : prefixes) {
        std::vector<double> target_scores, decoy_scores;
        for (const auto &read : lambda_data.reads) {
            if (read.raw.size() < prefix)
                continue;
            const auto bases = guppy_lite.call(read, prefix);
            // Negate: RocCurve treats smaller as "more target-like".
            const double score = -aligner.chainScore(bases);
            (read.isTarget() ? target_scores : decoy_scores)
                .push_back(score);
        }
        const RocCurve curve(target_scores, decoy_scores, 300);
        const auto best = curve.bestF1();
        roc.addRow({"basecall+align (Guppy-lite grade)",
                    fmtInt(long(prefix)), fmt(curve.auc(), 3),
                    fmt(best.f1, 3), fmt(best.tpr, 3),
                    fmt(best.fpr, 3)});
    }
    roc.print();
    std::printf("Shape check (paper Fig 17a): basecall+align edges "
                "out sDTW slightly; both improve with longer "
                "prefixes.\n\n");

    // ---- (b) modelled RU runtime across the threshold sweep ----
    Table runtime("Figure 17b: modelled Read Until runtime vs "
                  "threshold (lambda, 1% target)",
                  {"Prefix", "Threshold", "TPR", "FPR",
                   "Runtime (h)"});
    double best_hours = 1e18;
    sdtw::CostSample dummy;
    (void)dummy;
    std::size_t best_prefix = 0;
    double best_threshold = 0.0;
    for (std::size_t prefix : prefixes) {
        const auto roc_curve =
            sdtw::sweepThresholds(sdtw_acc.at(prefix).costs, 24);
        for (const auto &pt : roc_curve.points()) {
            if (pt.tpr <= 0.02)
                continue;
            const double hours =
                runtimeHours(pt.tpr, pt.fpr, prefix,
                             double(pipeline::lambdaGenome().size()));
            if (hours < best_hours) {
                best_hours = hours;
                best_prefix = prefix;
                best_threshold = pt.threshold;
            }
            runtime.addRow({fmtInt(long(prefix)), fmt(pt.threshold, 5),
                            fmt(pt.tpr, 3), fmt(pt.fpr, 3),
                            fmt(hours, 4)});
        }
    }
    runtime.print();

    readuntil::SequencingParams no_ru;
    no_ru.targetFraction = 0.01;
    no_ru.genomeBases = double(pipeline::lambdaGenome().size());
    const double control_hours =
        readuntil::ReadUntilModel(no_ru).withoutReadUntil().hours;
    std::printf("Best single-threshold point: prefix=%zu, "
                "threshold=%.0f -> %.2f h vs %.2f h without Read "
                "Until (%.1fx faster).\n\n",
                best_prefix, best_threshold, best_hours,
                control_hours, control_hours / best_hours);

    // ---- (c) transfer the calibrated thresholds to SARS-CoV-2 ----
    const auto covid_data = pipeline::makeCovidDataset(per_class);
    const auto covid_acc = bench::measureAccuracy(
        pipeline::sarsCov2Squiggle(), covid_data.reads, prefixes,
        sdtw::hardwareConfig());
    Table covid("Figure 17c: SARS-CoV-2 dataset at the calibrated "
                "operating points",
                {"Prefix", "AUC", "Best F1", "Runtime @best (h)"});
    for (std::size_t prefix : prefixes) {
        const auto &acc = covid_acc.at(prefix);
        covid.addRow({fmtInt(long(prefix)), fmt(acc.auc, 3),
                      fmt(acc.bestF1, 3),
                      fmt(runtimeHours(acc.tprAtBest, acc.fprAtBest,
                                       prefix, 29903.0),
                          4)});
    }
    covid.print();
    std::printf("Paper anchors: best single-threshold SquiggleFilter "
                "beats Guppy-lite RU runtime by ~12.9%%; multiple "
                "thresholds add a further ~13.3%%.\n\n");

    // ---- (d) the streaming multi-channel session ----
    runStreamingSection(stream_per_class);
    return 0;
}
