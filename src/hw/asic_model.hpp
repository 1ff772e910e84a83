#ifndef SF_HW_ASIC_MODEL_HPP
#define SF_HW_ASIC_MODEL_HPP

/**
 * @file
 * Area / power / timing model of the synthesised ASIC.
 *
 * Per-component area and power constants are calibrated to the paper's
 * 28 nm TSMC synthesis results (Table 4): a 1203 um^2, 1.92 mW PE at
 * 2.5 GHz, with tile power derived from PE power times an activity
 * factor (not every PE computes every cycle — the wavefront ramps).
 * Composing the constants reproduces Table 4 and, together with the
 * cycle model, the latency/throughput claims of §7.1-§7.2.
 *
 * modelDecision() is the one closed-form timing model of the array:
 * an Asic session's decisions (stream::ModeledHwStats::charge),
 * hw::Tile and the AsicModel latency/throughput figures all charge
 * from it, and the test suite checks it against the
 * event-level hw::SystolicArray over random shapes.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace sf::hw {

/** Bytes per checkpointed DP cell (24-bit cost + 8-bit dwell). */
inline constexpr std::uint64_t kCheckpointBytesPerCell = 4;

/** Cycles and DRAM traffic of one fold on the modelled array. */
struct AsicDecisionModel
{
    std::uint64_t cycles = 0;           //!< normalise + array cycles
    std::uint64_t passes = 0;           //!< array passes
    std::uint64_t dramBytesRead = 0;    //!< checkpoint rows streamed in
    std::uint64_t dramBytesWritten = 0; //!< checkpoint rows written back

    std::uint64_t
    checkpointBytes() const
    {
        return dramBytesRead + dramBytesWritten;
    }
};

/**
 * Query-stationary 1D array of @p num_pes PEs (§5.1, Figure 13)
 * folding @p rows_folded new query rows against an @p ref_samples
 * reference:
 *
 *  - normalisation pipeline: 2L cycles (mean/MAD pass + scale pass);
 *  - p = ceil(L/D) array passes, each chunk + M - 1 cycles with the
 *    chunks summing to L, so L + p(M - 1) cycles;
 *  - DRAM (§4.6): every pass after the first reads the M-cell row
 *    its predecessor wrote; the first reads the saved row when the
 *    fold @p resumed an earlier one, and the last writes its row back
 *    unless this is the read's @p last_fold (its final stage was
 *    evaluated or the read ended).  A row streams out before its
 *    minimum decides the read, so a mid-schedule eject still writes.
 *
 * Zero rows folded (a chunk that crossed no stage boundary) models
 * zero cycles and no traffic.
 */
AsicDecisionModel modelDecision(std::size_t num_pes,
                                std::uint64_t rows_folded,
                                std::size_t ref_samples, bool resumed,
                                bool last_fold);

/** One row of the synthesis summary. */
struct ComponentCost
{
    std::string name;
    double areaMm2 = 0.0;
    double powerW = 0.0;
};

/** Analytical ASIC model. */
class AsicModel
{
  public:
    // Calibrated 28 nm TSMC constants (paper Table 4).
    static constexpr double kClockGhz = 2.5;
    static constexpr double kPeAreaMm2 = 1203e-6;    //!< 1203 um^2
    static constexpr double kPePowerW = 1.92e-3;     //!< 1.92 mW
    static constexpr double kNormalizerAreaMm2 = 0.014;
    static constexpr double kNormalizerPowerW = 0.045;
    static constexpr double kQueryBufferAreaMm2 = 0.023;
    static constexpr double kQueryBufferPowerW = 0.009;
    static constexpr double kRefBufferAreaMm2 = 0.185;
    static constexpr double kRefBufferPowerW = 0.028;
    /** Wavefront ramp-up means PEs average ~71% switching activity. */
    static constexpr double kPeActivityFactor = 0.712;
    /** Per-tile interconnect/control overhead. */
    static constexpr double kTileGlueAreaMm2 = 0.019;
    static constexpr double kTileGluePowerW = 0.043;

    explicit AsicModel(std::size_t num_pes = 2000, int num_tiles = 5);

    /** Area of the PE array + normaliser ("Tile" row of Table 4). */
    double tileCoreAreaMm2() const;

    /** Power of the PE array + normaliser. */
    double tileCorePowerW() const;

    /** Complete 1-tile ASIC: tile core + buffers + glue. */
    double oneTileAreaMm2() const;
    double oneTilePowerW() const;

    /** Complete chip with all tiles instantiated. */
    double chipAreaMm2() const;

    /** Chip power with @p active_tiles not power-gated. */
    double chipPowerW(int active_tiles) const;

    /** Cycles to classify a fresh prefix in one fold on this array
        (modelDecision): 2L + L + ceil(L/D)(M - 1). */
    std::uint64_t classifyCycles(std::size_t prefix_samples,
                                 std::size_t ref_samples) const;

    /** Classification latency in milliseconds. */
    double classifyLatencyMs(std::size_t prefix_samples,
                             std::size_t ref_samples) const;

    /**
     * Steady-state samples/second classified by one tile: L raw
     * samples retired per classifyCycles() period.
     */
    double tileThroughputSamplesPerSec(std::size_t prefix_samples,
                                       std::size_t ref_samples) const;

    /** Chip throughput with @p active_tiles tiles running. */
    double chipThroughputSamplesPerSec(std::size_t prefix_samples,
                                       std::size_t ref_samples,
                                       int active_tiles) const;

    /**
     * Multi-stage checkpoint bandwidth per tile: one 4-byte cell per
     * cycle at the synthesised clock, in GB/s (paper: ~10 GB/s).
     */
    static double checkpointBandwidthGBsPerTile();

    /** Component/area/power breakdown rows (Table 4). */
    std::vector<ComponentCost> breakdown() const;

    /** Render Table 4. */
    Table table4() const;

    std::size_t numPes() const { return numPes_; }
    int numTiles() const { return numTiles_; }

  private:
    std::size_t numPes_ = 0;
    int numTiles_ = 0;
};

} // namespace sf::hw

#endif // SF_HW_ASIC_MODEL_HPP
