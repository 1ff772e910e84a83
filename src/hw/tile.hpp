#ifndef SF_HW_TILE_HPP
#define SF_HW_TILE_HPP

/**
 * @file
 * A SquiggleFilter tile (paper §5.1, Figure 13): ping-pong query
 * buffers, a reference buffer, the fixed-point normaliser, and a
 * 2000-PE systolic array.
 *
 * A tile classifies one read at a time.  Functionally it is the
 * software classifier's stream (the array runs the same quantised
 * recurrence); each stage's fold is charged from hw::modelDecision:
 * 2L normalise cycles, ceil(L/D) array passes, and the M-entry
 * checkpoint row read from / written to DRAM in multi-stage mode.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "pore/reference_squiggle.hpp"
#include "sdtw/filter.hpp"

namespace sf::hw {

/** Static tile parameters. */
struct TileConfig
{
    std::size_t numPes = 2000;       //!< systolic array length
    double clockGhz = 2.5;           //!< synthesised clock
    std::size_t referenceBufferBytes = 100 * 1024; //!< per §5.1

    sdtw::SdtwConfig dp = sdtw::hardwareConfig();
};

/** Timing and traffic accounting for one classified read. */
struct TileResult
{
    sdtw::Classification classification;
    std::uint64_t cycles = 0;           //!< total tile-busy cycles
    std::uint64_t dramBytesWritten = 0; //!< checkpoint traffic out
    std::uint64_t dramBytesRead = 0;    //!< checkpoint traffic in
    double latencySeconds = 0.0;        //!< cycles / clock
};

/** One classification tile. */
class Tile
{
  public:
    /**
     * Program the tile with a reference squiggle (hardware: loaded
     * from flash into the reference buffer during initialisation).
     * Raises sf::FatalError when the reference exceeds the buffer or
     * the array cannot implement @p config.
     */
    Tile(const pore::ReferenceSquiggle &reference, TileConfig config);

    /**
     * Classify one read's raw prefix against the stage schedule.
     * Functionally identical to SquiggleFilterClassifier::classify —
     * a property the test suite enforces — with cycle/DRAM accounting
     * layered on top.
     */
    TileResult processRead(std::span<const RawSample> raw,
                           const std::vector<sdtw::FilterStage> &stages)
        const;

    /** The tile configuration. */
    const TileConfig &config() const { return config_; }

    /** Reference squiggle currently programmed. */
    const pore::ReferenceSquiggle &reference() const { return reference_; }

    /** Reference-buffer bytes needed for a given reference length. */
    static std::uint64_t
    referenceBytes(std::size_t ref_samples)
    {
        return std::uint64_t(ref_samples); // one int8 sample per entry
    }

  private:
    const pore::ReferenceSquiggle &reference_;
    TileConfig config_;
};

} // namespace sf::hw

#endif // SF_HW_TILE_HPP
