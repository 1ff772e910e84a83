#ifndef SF_HW_ASIC_BACKEND_HPP
#define SF_HW_ASIC_BACKEND_HPP

/**
 * @file
 * Modelled-ASIC decision backend (paper §5, §7.1-§7.2).
 *
 * Implements the stream::DecisionBackend seam as a latency-accounting
 * decorator over the software fold (the ASIC runs the same sDTW
 * recurrence): scores, decisions and checkpoint states stay
 * bit-identical, while each Asic request's *latency* is replaced by
 * an analytical cycle model of the systolic array executing the same
 * DP work, and a per-session power/energy/checkpoint-traffic ledger
 * accumulates alongside.  Software requests keep their wall latency,
 * so a mixed-backend dispatch folds once on one engine.  Running a
 * session with this backend therefore reproduces the software run's
 * decision log exactly, with the latency percentiles and energy of
 * the modelled chip — the paper's software-vs-ASIC side-by-side from
 * one execution.
 *
 * Each Asic decision is charged from hw::modelDecision (asic_model.hpp),
 * the one closed-form model of the query-stationary array, with the
 * rows the decision folded, whether it resumed a checkpoint, and
 * whether it was the read's last fold.
 *
 * With the Table 4 design point (D = 2000, 2.5 GHz) a 1600-sample
 * chunk against the ~97k-sample SARS-CoV-2 reference models ~41 us —
 * inside the paper's 43 us decision budget.
 */

#include <cstdint>
#include <vector>

#include "stream/decision_service.hpp"

namespace sf::hw {

/** DecisionBackend charging modelled-ASIC latency to Asic requests. */
class AsicBackend final : public stream::DecisionBackend
{
  public:
    /**
     * Fatals when @p config is not implementable by the hardware or
     * @p spec is degenerate (stream::checkAsicImplementable) —
     * construct on the main thread.
     */
    AsicBackend(const stream::AsicSpec &spec,
                const sdtw::SdtwConfig &config,
                std::size_t lane_capacity);

    /** The software fold's latency hook holds this object's address. */
    AsicBackend(const AsicBackend &) = delete;
    AsicBackend &operator=(const AsicBackend &) = delete;

    void fold(std::vector<stream::DecisionRequest> &batch) override;
    const sdtw::FoldStats &
    foldStats() const override
    {
        return software_.foldStats();
    }
    stream::ModeledHwStats
    modeledStats(std::uint32_t session_id) const override;

  private:
    /** Latency hook: the cycle model for an Asic request (charged to
        its session's ledger), @p wall_us for anything else. */
    double chargeModel(const stream::DecisionRequest &req, double wall_us);

    stream::AsicSpec spec_;
    double powerW_ = 0.0;
    /** Ledger per DecisionRequest::sessionId, grown on demand. */
    std::vector<stream::ModeledHwStats> stats_;
    /** The batch in flight and its pre-fold `consumed` per request,
        to recover each decision's incremental DP work in the hook. */
    const stream::DecisionRequest *base_ = nullptr;
    std::vector<std::size_t> preRows_;
    stream::SoftwareBackend software_; //!< last: its hook uses the above
};

} // namespace sf::hw

#endif // SF_HW_ASIC_BACKEND_HPP
