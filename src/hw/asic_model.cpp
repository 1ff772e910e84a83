#include "hw/asic_model.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace sf::hw {

AsicDecisionModel
modelDecision(std::size_t num_pes, std::uint64_t rows_folded,
              std::size_t ref_samples, bool resumed, bool last_fold)
{
    if (num_pes == 0)
        fatal("the modelled array needs at least one PE");
    AsicDecisionModel model;
    const std::uint64_t L = rows_folded;
    const std::uint64_t M = ref_samples;
    if (L == 0 || M == 0)
        return model; // no stage boundary crossed: no DP work
    const std::uint64_t p = (L + num_pes - 1) / num_pes;
    model.passes = p;
    model.cycles = 2 * L + L + p * (M - 1);
    const std::uint64_t row_bytes = M * kCheckpointBytesPerCell;
    model.dramBytesRead = (p - 1 + (resumed ? 1 : 0)) * row_bytes;
    model.dramBytesWritten = (p - 1 + (last_fold ? 0 : 1)) * row_bytes;
    return model;
}

AsicModel::AsicModel(std::size_t num_pes, int num_tiles)
    : numPes_(num_pes), numTiles_(num_tiles)
{
    if (num_pes == 0 || num_tiles < 1)
        fatal("AsicModel needs at least one PE and one tile");
}

double
AsicModel::tileCoreAreaMm2() const
{
    return double(numPes_) * kPeAreaMm2 + kNormalizerAreaMm2;
}

double
AsicModel::tileCorePowerW() const
{
    return double(numPes_) * kPePowerW * kPeActivityFactor +
           kNormalizerPowerW;
}

double
AsicModel::oneTileAreaMm2() const
{
    return tileCoreAreaMm2() + kQueryBufferAreaMm2 + kRefBufferAreaMm2 +
           kTileGlueAreaMm2;
}

double
AsicModel::oneTilePowerW() const
{
    return tileCorePowerW() + kQueryBufferPowerW + kRefBufferPowerW +
           kTileGluePowerW;
}

double
AsicModel::chipAreaMm2() const
{
    return oneTileAreaMm2() * double(numTiles_);
}

double
AsicModel::chipPowerW(int active_tiles) const
{
    const int active = std::clamp(active_tiles, 0, numTiles_);
    // Power-gated tiles leak ~2% of their active power.
    const double gated = double(numTiles_ - active) * 0.02;
    return oneTilePowerW() * (double(active) + gated);
}

std::uint64_t
AsicModel::classifyCycles(std::size_t prefix_samples,
                          std::size_t ref_samples) const
{
    return modelDecision(numPes_, prefix_samples, ref_samples,
                         /*resumed=*/false, /*last_fold=*/true)
        .cycles;
}

double
AsicModel::classifyLatencyMs(std::size_t prefix_samples,
                             std::size_t ref_samples) const
{
    return double(classifyCycles(prefix_samples, ref_samples)) /
           (kClockGhz * 1e9) * 1e3;
}

double
AsicModel::tileThroughputSamplesPerSec(std::size_t prefix_samples,
                                       std::size_t ref_samples) const
{
    const double seconds =
        double(classifyCycles(prefix_samples, ref_samples)) /
        (kClockGhz * 1e9);
    return double(prefix_samples) / seconds;
}

double
AsicModel::chipThroughputSamplesPerSec(std::size_t prefix_samples,
                                       std::size_t ref_samples,
                                       int active_tiles) const
{
    const int active = std::clamp(active_tiles, 1, numTiles_);
    return tileThroughputSamplesPerSec(prefix_samples, ref_samples) *
           double(active);
}

double
AsicModel::checkpointBandwidthGBsPerTile()
{
    return kCheckpointBytesPerCell * kClockGhz * 1e9 / 1e9;
}

std::vector<ComponentCost>
AsicModel::breakdown() const
{
    std::vector<ComponentCost> rows;
    rows.push_back({"Normalizer", kNormalizerAreaMm2, kNormalizerPowerW});
    rows.push_back({"Processing Element", kPeAreaMm2, kPePowerW});
    rows.push_back({"Tile (1x" + std::to_string(numPes_) + " PEs)",
                    tileCoreAreaMm2(), tileCorePowerW()});
    rows.push_back({"Query buffer", kQueryBufferAreaMm2,
                    kQueryBufferPowerW});
    rows.push_back({"Reference buffer", kRefBufferAreaMm2,
                    kRefBufferPowerW});
    rows.push_back({"Complete 1-Tile ASIC", oneTileAreaMm2(),
                    oneTilePowerW()});
    rows.push_back({"Complete " + std::to_string(numTiles_) +
                        "-Tile ASIC",
                    chipAreaMm2(), chipPowerW(numTiles_)});
    return rows;
}

Table
AsicModel::table4() const
{
    Table table("Table 4: SquiggleFilter ASIC synthesis results",
                {"ASIC Element", "Area (mm2)", "Power (W)"});
    for (const auto &row : breakdown())
        table.addRow({row.name, fmt(row.areaMm2, 4), fmt(row.powerW, 4)});
    return table;
}

} // namespace sf::hw
