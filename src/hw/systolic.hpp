#ifndef SF_HW_SYSTOLIC_HPP
#define SF_HW_SYSTOLIC_HPP

/**
 * @file
 * Cycle-accurate 1D systolic array (paper §5.1, Figure 13).
 *
 * N processing elements hold the normalised query prefix; the
 * reference squiggle streams through the array one sample per cycle.
 * The DP wavefront advances diagonally: cell (i, j) is computed by
 * PE i at cycle i + j, so a full pass takes N + M - 1 cycles.  The
 * last PE observes the bottom DP row as it streams out, maintains the
 * running minimum (the classification cost), and in multi-stage mode
 * checkpoints the row to DRAM.
 *
 * The array is bit-exact against sf::sdtw::QuantSdtw configured with
 * the same match bonus and dwell cap — enforced by property tests.
 * It is the event-level oracle of the closed-form hw::modelDecision
 * (asic_model.hpp), which everything else in src/ charges from; only
 * tests and benches include this header (sf-lint's
 * hw-oracle-containment).
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "hw/asic_model.hpp"
#include "hw/pe.hpp"
#include "sdtw/engine.hpp"

namespace sf::hw {

/** Result of one array pass (one query chunk against the reference). */
struct SystolicResult
{
    Cost cost = kCostMax;     //!< running min over the output row
    std::size_t refEnd = 0;   //!< argmin reference index
    std::uint64_t cycles = 0; //!< clock cycles consumed by the pass
    std::uint64_t cellsComputed = 0; //!< PE-cycles doing real work
    std::uint64_t checkpointBytes = 0; //!< DRAM bytes written
    std::uint64_t checkpointBytesRead = 0; //!< DRAM bytes streamed in
};

/** Cycle-accurate systolic array simulator. */
class SystolicArray
{
  public:
    /**
     * @param num_pes physical array length (2000 in the paper)
     * @param config DP switches; the hardware implements the absolute
     *        difference metric without reference deletions, so any
     *        other setting raises sf::FatalError
     */
    explicit SystolicArray(std::size_t num_pes,
                           sdtw::SdtwConfig config = sdtw::hardwareConfig());

    /**
     * Run one pass of @p query (at most num_pes samples) against
     * @p reference.
     *
     * @param state when non-null, non-empty state resumes a chunked
     *        alignment (the checkpoint row streams into PE 0); when
     *        @p capture_checkpoint is set the final DP row is written
     *        back into @p state (hardware: DRAM traffic)
     */
    SystolicResult run(std::span<const NormSample> query,
                       std::span<const NormSample> reference,
                       sdtw::QuantSdtw::State *state = nullptr,
                       bool capture_checkpoint = false);

    /** Physical array length. */
    std::size_t numPes() const { return pes_.size(); }

    /** The DP configuration in effect. */
    const sdtw::SdtwConfig &config() const { return config_; }

    /** Cycles of one pass: N + M - 1, the count run() simulates. */
    static std::uint64_t
    passCycles(std::size_t query_len, std::size_t ref_len)
    {
        return std::uint64_t(query_len) + std::uint64_t(ref_len) - 1;
    }

  private:
    std::vector<ProcessingElement> pes_;
    sdtw::SdtwConfig config_;
    Cost bonus_ = 0;
    std::uint8_t dwellCap_ = 10;
};

} // namespace sf::hw

#endif // SF_HW_SYSTOLIC_HPP
