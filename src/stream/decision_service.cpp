#include "stream/decision_service.hpp"

#include "hw/asic_backend.hpp"
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
                                 std::size_t lane_capacity,
                                 DecisionLatencyFn latency)
    : kernel_(std::make_unique<sdtw::BatchSdtw>(config, lane_capacity)),
      latency_(std::move(latency))
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
        for (std::size_t j : members) {
            const double wall = microsSince(batch[j].enqueued, done);
            batch[j].board->complete(
                batch[j].slot, latency_ ? latency_(batch[j], wall) : wall);
        }
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
    // The single stream -> hw reach-down: stream/ owns the backend
    // vocabulary, hw/ implements the modelled-ASIC plug-in.
    switch (kind) {
    case DecisionBackendKind::Software:
        return std::make_unique<SoftwareBackend>(config, lane_capacity);
    case DecisionBackendKind::Asic:
        return std::make_unique<hw::AsicBackend>(asic, config,
                                                 lane_capacity);
    }
    panic("unknown DecisionBackendKind %d", int(kind));
}

} // namespace sf::stream
