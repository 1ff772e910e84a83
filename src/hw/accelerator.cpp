#include "hw/accelerator.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace sf::hw {

Accelerator::Accelerator(const pore::ReferenceSquiggle &reference,
                         AcceleratorConfig config)
    : config_(config), tile_(reference, config.tile)
{
    if (config_.numTiles < 1)
        fatal("accelerator needs at least one tile");
    config_.activeTiles =
        std::clamp(config_.activeTiles, 1, config_.numTiles);
}

void
Accelerator::setActiveTiles(int tiles)
{
    config_.activeTiles = std::clamp(tiles, 1, config_.numTiles);
}

BatchStats
Accelerator::processBatch(const std::vector<signal::ReadRecord> &reads,
                          const std::vector<sdtw::FilterStage> &stages,
                          std::vector<DispatchedRead> *outcomes)
{
    BatchStats stats;
    if (outcomes != nullptr) {
        outcomes->clear();
        outcomes->reserve(reads.size());
    }

    const auto active = std::size_t(config_.activeTiles);
    std::vector<std::uint64_t> busy_until(active, 0);

    for (const auto &read : reads) {
        // Dispatch to the earliest-idle active tile.
        std::size_t tile = 0;
        for (std::size_t t = 1; t < active; ++t) {
            if (busy_until[t] < busy_until[tile])
                tile = t;
        }
        const std::uint64_t start = busy_until[tile];

        auto result = tile_.processRead(
            std::span<const RawSample>(read.raw), stages);
        busy_until[tile] = start + result.cycles;

        stats.totalBusyCycles += result.cycles;
        stats.samplesProcessed += result.classification.samplesUsed;
        stats.dramBytes +=
            result.dramBytesWritten + result.dramBytesRead;
        result.classification.keep ? ++stats.kept : ++stats.ejected;
        ++stats.reads;

        if (outcomes != nullptr) {
            outcomes->push_back(
                {read.id, int(tile), start, std::move(result)});
        }
    }

    for (std::uint64_t t : busy_until)
        stats.makespanCycles = std::max(stats.makespanCycles, t);

    const double clock_hz = config_.tile.clockGhz * 1e9;
    stats.wallSeconds = double(stats.makespanCycles) / clock_hz;
    if (stats.wallSeconds > 0.0) {
        stats.throughputSamplesPerSec =
            double(stats.samplesProcessed) / stats.wallSeconds;
        stats.peakDramBandwidthGBs =
            double(stats.dramBytes) / stats.wallSeconds / 1e9;
    }
    if (stats.makespanCycles > 0) {
        stats.utilization = double(stats.totalBusyCycles) /
                            (double(stats.makespanCycles) * double(active));
    }

    if (stats.peakDramBandwidthGBs > config_.dramBandwidthGBs) {
        warn("multi-stage checkpoint traffic (%.1f GB/s) exceeds the "
             "modelled DRAM bandwidth (%.1f GB/s)",
             stats.peakDramBandwidthGBs, config_.dramBandwidthGBs);
    }
    return stats;
}

} // namespace sf::hw
