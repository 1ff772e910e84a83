#include "stream/decision_service.hpp"

#include "hw/asic_model.hpp"
#include "sdtw/batch.hpp"

namespace sf::stream {

namespace {

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::micro>(end - start)
        .count();
}

} // namespace

// The single stream -> hw reach-down: stream/ owns the ledger, hw/
// owns the one cycle model and the Table 4 power figures.
double
ModeledHwStats::charge(const AsicSpec &spec, std::uint64_t rows_folded,
                       std::size_t ref_samples, bool resumed,
                       bool last_fold)
{
    const hw::AsicDecisionModel model = hw::modelDecision(
        spec.arrayDim, rows_folded, ref_samples, resumed, last_fold);
    const double us = double(model.cycles) / (spec.clockGhz * 1e3);
    const double power_w =
        hw::AsicModel(spec.arrayDim, 1).oneTilePowerW() *
        (spec.clockGhz / hw::AsicModel::kClockGhz);
    decisions += 1;
    cycles += model.cycles;
    arrayPasses += model.passes;
    checkpointBytes += model.checkpointBytes();
    modeledLatencyUsTotal += us;
    energyJoules += power_w * us * 1e-6;
    return us;
}

const char *
decisionBackendName(DecisionBackendKind kind)
{
    switch (kind) {
    case DecisionBackendKind::Software:
        return "software";
    case DecisionBackendKind::Asic:
        return "asic";
    }
    panic("unknown DecisionBackendKind %d", int(kind));
}

SoftwareBackend::SoftwareBackend(const sdtw::SdtwConfig &config,
                                 std::size_t lane_capacity)
    : kernel_(std::make_unique<sdtw::BatchSdtw>(config, lane_capacity))
{
}

SoftwareBackend::~SoftwareBackend() = default;

void
SoftwareBackend::fold(std::vector<DecisionRequest> &batch)
{
    // Exclusive-ownership invariant: a dispatch may carry at most one
    // request per (board, slot), else two lanes would alias one
    // ClassifierStream mid-fold.  O(B^2) over a dispatch-sized pull
    // is noise next to the sDTW work it guards.
    for (std::size_t i = 0; i < batch.size(); ++i)
        for (std::size_t j = i + 1; j < batch.size(); ++j)
            if (batch[i].board == batch[j].board &&
                batch[i].slot == batch[j].slot)
                panic("duplicate in-flight decision request for "
                      "session %u slot %zu",
                      batch[i].sessionId, batch[i].slot);

    // Group by classifier: feeds folded together must share one
    // reference squiggle.  A same-target fleet (the surveillance
    // case) groups into a single full-width batch; mixed-target
    // fleets fold one batch per classifier.  Group order follows
    // dispatch order, so same-classifier requests keep their queue
    // order inside the batch.
    std::vector<std::uint8_t> grouped(batch.size(), 0);
    std::vector<sdtw::StreamFeed> feeds;
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (grouped[i] != 0)
            continue;
        const sdtw::SquiggleFilterClassifier *cls = batch[i].classifier;
        feeds.clear();
        members.clear();
        for (std::size_t j = i; j < batch.size(); ++j) {
            if (grouped[j] != 0 || batch[j].classifier != cls)
                continue;
            grouped[j] = 1;
            members.push_back(j);
            feeds.push_back(sdtw::StreamFeed{batch[j].stream,
                                             batch[j].samples,
                                             batch[j].endOfRead});
        }
        cls->feedChunkBatch(feeds, *kernel_);
        const auto done = Clock::now();
        for (std::size_t j : members)
            batch[j].board->complete(batch[j].slot,
                                     microsSince(batch[j].enqueued, done));
    }
}

const sdtw::FoldStats &
SoftwareBackend::foldStats() const
{
    return kernel_->foldStats();
}

void
checkAsicImplementable(const AsicSpec &spec, const sdtw::SdtwConfig &config)
{
    if (spec.arrayDim == 0)
        fatal("the modelled ASIC needs at least one PE");
    if (spec.clockGhz <= 0.0)
        fatal("the modelled ASIC clock must be positive, got %g GHz",
              spec.clockGhz);
    // Mirror the SystolicArray implementability checks: scores come
    // from the software kernel either way, but modelling hardware for
    // a configuration the hardware cannot execute would be a lie.
    if (config.metric != sdtw::CostMetric::AbsoluteDifference)
        fatal("the modelled hardware implements only the "
              "absolute-difference metric (paper §4.7)");
    if (config.allowReferenceDeletion)
        fatal("the modelled hardware removed reference deletions "
              "(paper §4.7)");
}

std::unique_ptr<DecisionBackend>
makeDecisionBackend(DecisionBackendKind kind, const AsicSpec &asic,
                    const sdtw::SdtwConfig &config,
                    std::size_t lane_capacity, bool lane_batching)
{
    if (!lane_batching)
        fatal("makeDecisionBackend: every backend folds lane batches, "
              "lane_batching must be true");
    if (kind == DecisionBackendKind::Asic)
        checkAsicImplementable(asic, config);
    return std::make_unique<SoftwareBackend>(config, lane_capacity);
}

} // namespace sf::stream
