#include "hw/asic_backend.hpp"

#include "hw/asic_model.hpp"

namespace sf::hw {

AsicBackend::AsicBackend(const stream::AsicSpec &spec,
                         const sdtw::SdtwConfig &config,
                         std::size_t lane_capacity)
    : spec_(spec),
      software_(config, lane_capacity,
                [this](const stream::DecisionRequest &req, double wall_us) {
                    return chargeModel(req, wall_us);
                })
{
    stream::checkAsicImplementable(spec_, config);
    // Table 4 power for a one-tile chip of this array size, scaled
    // linearly from the synthesised 2.5 GHz operating point.
    powerW_ = AsicModel(spec_.arrayDim, 1).oneTilePowerW() *
              (spec_.clockGhz / AsicModel::kClockGhz);
}

void
AsicBackend::fold(std::vector<stream::DecisionRequest> &batch)
{
    // Snapshot each stream's fold progress before the kernel runs so
    // the latency hook can recover the incremental DP work (and
    // whether the stream resumed a checkpoint) per decision.
    base_ = batch.data();
    preRows_.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        preRows_[i] = batch[i].stream->consumed;
    software_.fold(batch);
}

double
AsicBackend::chargeModel(const stream::DecisionRequest &req, double wall_us)
{
    if (req.backend != stream::DecisionBackendKind::Asic)
        return wall_us;
    // The hook runs after req's fold but before its board slot
    // completes, so the worker still owns the stream exclusively.
    const std::size_t pre = preRows_[std::size_t(&req - base_)];
    const sdtw::ClassifierStream &stream = *req.stream;
    // The read's last fold: its final stage was evaluated or it ended.
    const bool last_fold =
        req.endOfRead ||
        stream.stageIdx == req.classifier->stages().size();
    const AsicDecisionModel model = modelDecision(
        spec_.arrayDim, stream.consumed - pre,
        req.classifier->reference().size(), pre > 0, last_fold);
    const double us = double(model.cycles) / (spec_.clockGhz * 1e3);
    if (req.sessionId >= stats_.size())
        stats_.resize(std::size_t(req.sessionId) + 1);
    stream::ModeledHwStats &stats = stats_[req.sessionId];
    stats.decisions += 1;
    stats.cycles += model.cycles;
    stats.arrayPasses += model.passes;
    stats.checkpointBytes += model.checkpointBytes();
    stats.modeledLatencyUsTotal += us;
    stats.energyJoules += powerW_ * us * 1e-6;
    return us;
}

stream::ModeledHwStats
AsicBackend::modeledStats(std::uint32_t session_id) const
{
    return session_id < stats_.size() ? stats_[session_id]
                                      : stream::ModeledHwStats{};
}

} // namespace sf::hw
