#ifndef SF_STREAM_DECISION_BACKEND_HPP
#define SF_STREAM_DECISION_BACKEND_HPP

/**
 * @file
 * Decision-backend vocabulary: which engine a session's sDTW decision
 * requests are charged to, and the timing/energy ledger of the
 * modelled ASIC.
 *
 * The two-clock contract (docs/ARCHITECTURE.md) splits a Read Until
 * run into a virtual flowcell clock that decides outcomes and a wall
 * clock that measures compute cost.  A backend lives entirely on the
 * measurement side: every request folds through the same quantised
 * DP (scores and decision logs are bit-identical for a fixed seed no
 * matter which backend a session selects), and only the *latency*
 * attributed to each decision differs — wall time for the software
 * SIMD kernel, modelled systolic-array cycles over the synthesised
 * clock for the ASIC model.  Selecting a backend therefore never
 * changes what a session decides, only what its latency/power report
 * says — which is exactly the side-by-side the paper's §7 makes.
 *
 * This header is deliberately free of hw/ includes.  An Asic
 * session's event loop charges each decision where its fold is
 * awaited, through ModeledHwStats::charge(); that function is defined
 * in decision_service.cpp, the single stream -> hw reach-down.
 */

#include <cstddef>
#include <cstdint>

namespace sf::stream {

/** Engine that executes a session's decision requests. */
enum class DecisionBackendKind {
    Software, //!< per-worker SIMD BatchSdtw, wall-clock latency
    Asic,     //!< modelled systolic array, cycle-model latency
};

/** Number of DecisionBackendKind values (array sizing). */
inline constexpr std::size_t kDecisionBackendKinds = 2;

/** Stable lowercase name ("software", "asic") for logs and JSON. */
const char *decisionBackendName(DecisionBackendKind kind);

/** Design point of the modelled query-stationary ASIC (paper §5.1,
    Table 4 defaults). */
struct AsicSpec
{
    /** Physical PE count (array length), 2000 in the paper. */
    std::size_t arrayDim = 2000;
    /** Synthesised clock; Table 4 closes timing at 2.5 GHz. */
    double clockGhz = 2.5;
};

/**
 * Cumulative ledger of a session's modelled-hardware decisions.
 * Everything here is bookkeeping *about* the model — the decisions
 * themselves come from the shared DP fold.
 */
struct ModeledHwStats
{
    std::uint64_t decisions = 0;  //!< decision requests modelled
    std::uint64_t cycles = 0;     //!< array cycles across all passes
    std::uint64_t arrayPasses = 0; //!< array passes
    /** DRAM checkpoint traffic: inter-pass carries plus the
        multi-stage resume/save rows (§4.6). */
    std::uint64_t checkpointBytes = 0;
    double modeledLatencyUsTotal = 0.0; //!< sum of per-decision model
    double energyJoules = 0.0;          //!< tile power x modelled time

    /**
     * Charge one decision of the chip @p spec, from hw::modelDecision:
     * the fold added @p rows_folded query rows against a
     * @p ref_samples-sample reference, @p resumed a checkpoint, and
     * was the read's @p last_fold.  Energy is the Table 4 one-tile
     * power of this array size scaled linearly from the synthesised
     * 2.5 GHz clock.  Returns the decision's modelled latency (us).
     */
    double charge(const AsicSpec &spec, std::uint64_t rows_folded,
                  std::size_t ref_samples, bool resumed, bool last_fold);
};

} // namespace sf::stream

#endif // SF_STREAM_DECISION_BACKEND_HPP
