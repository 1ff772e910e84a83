#ifndef SF_HW_ACCELERATOR_HPP
#define SF_HW_ACCELERATOR_HPP

/**
 * @file
 * The 5-tile SquiggleFilter accelerator (paper §5, Figure 12).
 *
 * Reads stream from the sequencer into DRAM; each read is dispatched
 * to the first idle tile.  Tiles can be individually power-gated to
 * trade throughput for energy (the tile count was provisioned for a
 * 100x future increase in sequencing throughput).
 */

#include <cstdint>
#include <vector>

#include "hw/tile.hpp"
#include "signal/read.hpp"

namespace sf::hw {

/** Chip-level configuration. */
struct AcceleratorConfig
{
    int numTiles = 5;    //!< physical tiles on the die
    int activeTiles = 5; //!< tiles not power-gated
    TileConfig tile;     //!< per-tile parameters
    double dramBandwidthGBs = 137.0; //!< Jetson-class LPDDR4x
};

/** Aggregate statistics for a batch of classified reads. */
struct BatchStats
{
    std::size_t reads = 0;
    std::size_t kept = 0;
    std::size_t ejected = 0;
    std::uint64_t samplesProcessed = 0;
    std::uint64_t makespanCycles = 0;  //!< finish time of the last tile
    std::uint64_t totalBusyCycles = 0; //!< sum over tiles
    std::uint64_t dramBytes = 0;       //!< checkpoint traffic
    double wallSeconds = 0.0;          //!< makespan / clock
    double throughputSamplesPerSec = 0.0;
    double utilization = 0.0;          //!< busy / (makespan * tiles)
    double peakDramBandwidthGBs = 0.0; //!< multi-stage traffic demand
};

/** Per-read outcome paired with its dispatch metadata. */
struct DispatchedRead
{
    std::uint64_t readId = 0;
    int tile = 0;
    std::uint64_t startCycle = 0;
    TileResult result;
};

/** Whole-chip model: dispatch queue over identical tiles (one Tile
    models them all; it keeps no per-read state). */
class Accelerator
{
  public:
    /**
     * @param reference reference squiggle programmed into every tile
     * @param config chip configuration
     */
    Accelerator(const pore::ReferenceSquiggle &reference,
                AcceleratorConfig config);

    /**
     * Classify every read in @p reads (greedy earliest-idle-tile
     * dispatch, reads arrive back-to-back) against @p stages.
     *
     * @param[out] outcomes when non-null, filled with per-read results
     */
    BatchStats processBatch(const std::vector<signal::ReadRecord> &reads,
                            const std::vector<sdtw::FilterStage> &stages,
                            std::vector<DispatchedRead> *outcomes = nullptr);

    /** Number of active (not power-gated) tiles. */
    int activeTiles() const { return config_.activeTiles; }

    /** Re-configure power gating; clamped to [1, numTiles]. */
    void setActiveTiles(int tiles);

    /** The chip configuration. */
    const AcceleratorConfig &config() const { return config_; }

  private:
    AcceleratorConfig config_;
    Tile tile_;
};

} // namespace sf::hw

#endif // SF_HW_ACCELERATOR_HPP
