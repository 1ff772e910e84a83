/**
 * @file
 * Decision-backend bench: the same streaming session run side by side
 * on the measured software path (per-worker SIMD BatchSdtw, wall-clock
 * latency) and on the modelled ASIC path (hw::AsicBackend — identical
 * quantized DP, latency/energy from the systolic cycle model), plus a
 * design-space sweep over the array dimension.
 *
 * The contract under test is the backend seam's first law: scores are
 * the software kernel's scores on every backend, so the decision log
 * must be bit-identical between the two runs — only the latency and
 * power accounting may differ.  The sweep then walks the modelled
 * query-stationary chip through 1000/2000/4000-PE arrays (multi-pass
 * when a decision's new query rows outgrow the array), reporting
 * modelled p50 latency, cycles, array passes and DRAM checkpoint
 * traffic per decision.
 *
 * Environment knobs (documented in docs/OPERATIONS.md):
 *   SF_BACKEND_READS     reads sequenced per run      (default 64)
 *   SF_BACKEND_CHANNELS  pores per session            (default 32)
 *   SF_BACKEND_WORKERS   worker threads per session   (default 2)
 *
 * Emits one BENCH_BACKEND_JSON line consumed by scripts/bench_gate.py
 * and tracked in BENCH_stream.json under "backend".
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "sdtw/batch.hpp"
#include "stream/session.hpp"

using namespace sf;

namespace {

constexpr std::size_t kChunkSamples = 1600; // 0.4 s at 4 kHz
constexpr std::size_t kStages = 9;

/** Per-decision view of one modelled-ASIC run. */
struct AsicRow
{
    stream::AsicSpec spec;
    double p50us = 0.0;
    double p99us = 0.0;
    double cyclesPerDecision = 0.0;
    double passesPerDecision = 0.0;
    double checkpointKbPerDecision = 0.0;
    double energyUjPerDecision = 0.0;
    bool logsMatch = false;
};

AsicRow
runAsic(const sdtw::SquiggleFilterClassifier &classifier,
        stream::SessionConfig cfg, std::span<const signal::ReadRecord> reads,
        const stream::AsicSpec &spec,
        const stream::SessionResult &software)
{
    cfg.backend = stream::DecisionBackendKind::Asic;
    cfg.asic = spec;
    const stream::SessionResult run =
        stream::ReadUntilSession(classifier, cfg).run(reads);
    const auto &hw = run.stats.hwModel;
    const double n = hw.decisions > 0 ? double(hw.decisions) : 1.0;
    AsicRow row;
    row.spec = spec;
    row.p50us = run.stats.latency.p50us;
    row.p99us = run.stats.latency.p99us;
    row.cyclesPerDecision = double(hw.cycles) / n;
    row.passesPerDecision = double(hw.arrayPasses) / n;
    row.checkpointKbPerDecision = double(hw.checkpointBytes) / n / 1024.0;
    row.energyUjPerDecision = hw.energyJoules / n * 1e6;
    row.logsMatch = run.log == software.log;
    return row;
}

} // namespace

int
main()
{
    bench::banner("Decision backends: measured software vs modelled ASIC",
                  "backend seam + paper §4-§6 design space");

    const std::size_t reads =
        envSize("SF_BACKEND_READS", pipeline::scaledReads(64));
    const int channels = int(envSize("SF_BACKEND_CHANNELS", 32));
    const unsigned workers =
        unsigned(envSize("SF_BACKEND_WORKERS", 2));

    sdtw::SquiggleFilterClassifier classifier(
        pipeline::streamVirusSquiggle());
    classifier.setStages(sdtw::uniformStageSchedule(
        kChunkSamples, kStages,
        pipeline::calibratedStreamThreshold(pipeline::scaledReads(40),
                                            0.5, 11)));
    const std::size_t ref_samples = classifier.reference().size();
    const signal::Dataset &dataset =
        pipeline::makeStreamDataset(reads, 0.5, 17);

    stream::SessionConfig cfg;
    cfg.channels = channels;
    cfg.chunkSeconds = double(kChunkSamples) / cfg.sampleRateHz;
    cfg.workers = workers;
    cfg.seed = 0xbacc;

    // ---- measured software run (wall clock) ----------------------- //
    cfg.backend = stream::DecisionBackendKind::Software;
    const stream::SessionResult software =
        stream::ReadUntilSession(classifier, cfg).run(dataset.reads);

    // ---- modelled ASIC run, paper design point -------------------- //
    const stream::AsicSpec paper_spec{};
    const AsicRow asic =
        runAsic(classifier, cfg, dataset.reads, paper_spec, software);

    const char *simd = sdtw::simdBackendName(sdtw::detectSimdBackend());
    Table table("Same session, same decisions (" +
                    std::to_string(reads) + " reads x " +
                    std::to_string(channels) + " channels, ref " +
                    std::to_string(ref_samples) + " samples)",
                {"Metric", "Software (measured)", "ASIC (modelled)"});
    table.addRow({"decision p50 (us)",
                  fmt(software.stats.latency.p50us, 1),
                  fmt(asic.p50us, 2)});
    table.addRow({"decision p99 (us)",
                  fmt(software.stats.latency.p99us, 1),
                  fmt(asic.p99us, 2)});
    table.addRow({"chunks/s (wall)",
                  fmt(software.stats.chunksPerSec, 2), "-"});
    table.addRow({"cycles/decision", "-",
                  fmt(asic.cyclesPerDecision, 0)});
    table.addRow({"energy/decision (uJ)", "-",
                  fmt(asic.energyUjPerDecision, 2)});
    table.addRow({"decision logs bit-identical", "",
                  asic.logsMatch ? "yes" : "NO"});
    table.addRow({"engine", std::string("BatchSdtw (") + simd + ")",
                  std::to_string(paper_spec.arrayDim) + " PEs @ " +
                      fmt(paper_spec.clockGhz, 2) + " GHz"});
    table.print();

    // ---- design-space sweep: array dim ---------------------------- //
    Table sweep_table("Design-space sweep (modelled)",
                      {"PEs", "p50 us", "cycles/dec", "passes/dec",
                       "ckpt KiB/dec", "uJ/dec"});
    std::vector<AsicRow> sweep;
    bool sweep_logs_match = true;
    for (std::size_t pes : {std::size_t(1000), std::size_t(2000),
                            std::size_t(4000)}) {
        stream::AsicSpec spec;
        spec.arrayDim = pes;
        const AsicRow row =
            runAsic(classifier, cfg, dataset.reads, spec, software);
        sweep_logs_match = sweep_logs_match && row.logsMatch;
        sweep_table.addRow({std::to_string(pes), fmt(row.p50us, 2),
                            fmt(row.cyclesPerDecision, 0),
                            fmt(row.passesPerDecision, 2),
                            fmt(row.checkpointKbPerDecision, 1),
                            fmt(row.energyUjPerDecision, 2)});
        sweep.push_back(row);
    }
    sweep_table.print();

    const bool logs_match = asic.logsMatch && sweep_logs_match;
    std::printf("Modelled %zu-PE chip decides in %.2f us p50 where the "
                "software path measures %.0f us (logs %s).\n",
                paper_spec.arrayDim, asic.p50us,
                software.stats.latency.p50us,
                logs_match ? "bit-identical" : "DIVERGED");

    // Machine-readable line consumed by scripts/bench_gate.py.
    std::string sweep_json = "[";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const AsicRow &row = sweep[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"pes\": %zu, \"p50_us\": %.3f, "
                      "\"cycles_per_decision\": %.0f, "
                      "\"passes_per_decision\": %.2f, "
                      "\"energy_uj_per_decision\": %.3f}",
                      i == 0 ? "" : ", ", row.spec.arrayDim, row.p50us,
                      row.cyclesPerDecision, row.passesPerDecision,
                      row.energyUjPerDecision);
        sweep_json += buf;
    }
    sweep_json += "]";
    std::printf(
        "BENCH_BACKEND_JSON {\"reads\": %zu, \"channels\": %d, "
        "\"workers\": %u, \"ref_samples\": %zu, \"simd\": \"%s\", "
        "\"software\": {\"chunks_per_s\": %.2f, \"p50_us\": %.1f, "
        "\"p99_us\": %.1f}, "
        "\"asic\": {\"array_dim\": %zu, \"clock_ghz\": %.2f, "
        "\"p50_us\": %.3f, \"p99_us\": %.3f, "
        "\"cycles_per_decision\": %.0f, \"passes_per_decision\": %.2f, "
        "\"checkpoint_kib_per_decision\": %.1f, "
        "\"energy_uj_per_decision\": %.3f}, "
        "\"logs_match\": %s, \"sweep\": %s}\n",
        reads, channels, workers, ref_samples, simd,
        software.stats.chunksPerSec, software.stats.latency.p50us,
        software.stats.latency.p99us, paper_spec.arrayDim,
        paper_spec.clockGhz, asic.p50us, asic.p99us,
        asic.cyclesPerDecision, asic.passesPerDecision,
        asic.checkpointKbPerDecision, asic.energyUjPerDecision,
        logs_match ? "true" : "false", sweep_json.c_str());
    return logs_match ? 0 : 1;
}
