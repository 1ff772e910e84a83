#include "stream/fault_plan.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace sf::stream {

double
FaultPlan::captureRateFactorAt(double t) const
{
    double factor = 1.0;
    for (const CaptureStorm &s : storms)
        if (t >= s.atSec && t < s.atSec + s.durationSec)
            factor *= s.captureRateFactor;
    return factor;
}

void
FaultPlan::validate(int channels) const
{
    // NaN passes every ordered comparison, and a NaN or infinite time
    // breaks the event queue's ordering: each field must be finite as
    // well as in range.
    const auto require = [](double v, bool in_range, const char *what) {
        if (!std::isfinite(v) || !in_range)
            fatal("FaultPlan %s, got %g", what, v);
    };
    for (const ChannelDropout &d : dropouts) {
        if (d.channel < 0 || d.channel >= channels)
            fatal("FaultPlan dropout channel %d outside the flowcell "
                  "(%d channels)",
                  d.channel, channels);
        require(d.atSec, d.atSec >= 0.0, "dropout time must be >= 0");
        require(d.downSec, true, "dropout outage must be finite");
    }
    for (const CaptureStorm &s : storms) {
        require(s.atSec, s.atSec >= 0.0, "storm start must be >= 0");
        require(s.durationSec, s.durationSec > 0.0,
                "storm duration must be positive");
        require(s.captureRateFactor, s.captureRateFactor > 0.0,
                "storm capture-rate factor must be positive (it divides "
                "the capture delay)");
    }
    for (const ReferenceHotSwap &h : hotSwaps) {
        require(h.atSec, h.atSec >= 0.0, "hot-swap time must be >= 0");
        if (h.classifier == nullptr)
            fatal("FaultPlan hot swap has no classifier");
    }
    for (const NucleaseWash &w : washes)
        require(w.atSec, w.atSec >= 0.0, "wash time must be >= 0");
    if (!wearEnabled)
        return;
    const readuntil::PoreWearModel &m = wearModel;
    require(m.deathRatePerHour, m.deathRatePerHour >= 0.0,
            "wear death rate must be >= 0");
    require(m.reversalWearFactor, m.reversalWearFactor >= 0.0,
            "wear reversal factor must be >= 0");
    require(m.remuxRecovery, m.remuxRecovery >= 0.0 && m.remuxRecovery <= 1.0,
            "wear remux recovery must lie in [0, 1]");
}

} // namespace sf::stream
