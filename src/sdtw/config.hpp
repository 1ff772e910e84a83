#ifndef SF_SDTW_CONFIG_HPP
#define SF_SDTW_CONFIG_HPP

/**
 * @file
 * Configuration of the subsequence-DTW engines.
 *
 * The four paper modifications to vanilla sDTW (§4.7) are independent
 * switches so the ablation study of Figure 18 can sweep every
 * combination:
 *  - Absolute Difference: |q-r| instead of (q-r)^2;
 *  - Integer Normalization: pick the quantised engine over the float
 *    engine (a property of which engine you instantiate, not a flag);
 *  - No Reference Deletions: drop the S[i][j-1] predecessor;
 *  - Match Bonus: reward advancing to a new reference base, scaled by
 *    the capped dwell on the previous base.
 */

#include <string>

namespace sf::sdtw {

/** Pointwise distance between a query and a reference sample. */
enum class CostMetric {
    SquaredDifference, //!< (q - r)^2, the textbook DTW metric
    AbsoluteDifference //!< |q - r|, multiplier-free (paper §4.7)
};

/** Switches controlling the DP recurrence. */
struct SdtwConfig
{
    CostMetric metric = CostMetric::AbsoluteDifference;

    /**
     * Allow the S[i][j-1] predecessor (one query sample consumed by
     * several reference bases).  With ~10 samples per base this move
     * is never needed, and removing it shrinks the hardware (§4.7).
     */
    bool allowReferenceDeletion = false;

    /**
     * Cost reduction applied per unit of capped dwell when a warp path
     * advances to a new reference base; 0 disables the bonus.
     * Expressed in engine cost units (Q2.5 codes for the quantised
     * engine, normalised units for the float engine).  The paper's
     * "constant (10) scaled by the number of signals aligned to the
     * previous reference base (thresholded to 10)" corresponds to a
     * maximum reward of matchBonus * dwellCap per matched base; the
     * default is calibrated to this library's signal scale.
     */
    double matchBonus = 2.0;

    /** Dwell counter saturation (paper thresholds at 10). */
    int dwellCap = 10;

    /** Short human-readable description for bench output. */
    std::string describe() const;

    /** The four switches are the kernel's shape: equal configs can
        share one lane-batch kernel. */
    bool operator==(const SdtwConfig &other) const = default;
};

/** Vanilla sDTW: squared metric, reference deletions, no bonus. */
SdtwConfig vanillaConfig();

/** The accelerator's configuration: abs diff, no ref-del, match bonus. */
SdtwConfig hardwareConfig();

} // namespace sf::sdtw

#endif // SF_SDTW_CONFIG_HPP
