#include "hw/asic_backend.hpp"

#include "hw/asic_model.hpp"
#include "hw/systolic.hpp"

namespace sf::hw {

AsicDecisionModel
modelDecision(const stream::AsicSpec &spec, std::uint64_t rows_folded,
              std::size_t ref_samples, bool resumed, bool checkpointed)
{
    AsicDecisionModel model;
    const std::uint64_t L = rows_folded;
    const std::uint64_t M = ref_samples;
    const std::uint64_t D = spec.arrayDim;
    if (L == 0 || M == 0)
        return model; // no stage boundary crossed: no DP work
    constexpr std::uint64_t kCell = SystolicArray::kCheckpointBytesPerCell;
    model.cycles = 2 * L; // normalisation pipeline
    if (spec.dataflow == stream::AsicDataflow::QueryStationary) {
        // p passes of (chunk + M - 1) cycles; chunks sum to L.
        const std::uint64_t p = (L + D - 1) / D;
        model.passes = p;
        model.cycles += L + p * (M - 1);
        // The M-cell DP row round-trips DRAM between passes.
        model.checkpointBytes += (p - 1) * 2 * M * kCell;
    } else {
        // t reference tiles; each pass is (L + tile - 1) cycles and
        // the tiles sum to M, so the array runs t*L + M - t cycles
        // with an L-deep column carry between tiles.
        const std::uint64_t t = (M + D - 1) / D;
        model.passes = t;
        model.cycles += t * L + M - t;
        model.checkpointBytes += (t - 1) * 2 * L * kCell;
    }
    // Multi-stage checkpointing (§4.6): resume reads the saved row,
    // an undecided stream writes the updated row back.
    if (resumed)
        model.checkpointBytes += M * kCell;
    if (checkpointed)
        model.checkpointBytes += M * kCell;
    return model;
}

AsicBackend::AsicBackend(const stream::AsicSpec &spec,
                         const sdtw::SdtwConfig &config,
                         std::size_t lane_capacity, bool lane_batching)
    : spec_(spec),
      software_(config, lane_capacity, lane_batching,
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
        preRows_[i] = batch[i].stream->rowsFolded;
    software_.fold(batch);
}

double
AsicBackend::chargeModel(const stream::DecisionRequest &req, double wall_us)
{
    if (req.backend != stream::DecisionBackendKind::Asic)
        return wall_us;
    // The hook runs after req's fold but before its board slot
    // completes, so the worker still owns the stream exclusively.
    const std::uint64_t pre = preRows_[std::size_t(&req - base_)];
    const AsicDecisionModel model = modelDecision(
        spec_, req.stream->rowsFolded - pre,
        req.classifier->reference().size(), pre > 0,
        !req.stream->decided);
    const double us = double(model.cycles) / (spec_.clockGhz * 1e3);
    if (req.sessionId >= stats_.size())
        stats_.resize(std::size_t(req.sessionId) + 1);
    stream::ModeledHwStats &stats = stats_[req.sessionId];
    stats.decisions += 1;
    stats.cycles += model.cycles;
    stats.arrayPasses += model.passes;
    stats.checkpointBytes += model.checkpointBytes;
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
