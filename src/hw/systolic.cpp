#include "hw/systolic.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace sf::hw {

SystolicArray::SystolicArray(std::size_t num_pes, sdtw::SdtwConfig config)
    : pes_(num_pes), config_(config)
{
    if (num_pes == 0)
        fatal("systolic array needs at least one PE");
    if (config_.metric != sdtw::CostMetric::AbsoluteDifference)
        fatal("the hardware implements only the absolute-difference "
              "metric (paper §4.7)");
    if (config_.allowReferenceDeletion)
        fatal("the hardware removed reference deletions (paper §4.7)");
    bonus_ = Cost(std::llround(config_.matchBonus));
    dwellCap_ = std::uint8_t(config_.dwellCap);
}

SystolicResult
SystolicArray::run(std::span<const NormSample> query,
                   std::span<const NormSample> reference,
                   sdtw::QuantSdtw::State *state,
                   bool capture_checkpoint)
{
    const std::size_t n = query.size();
    const std::size_t m = reference.size();
    if (n == 0 || m == 0)
        fatal("systolic array pass needs non-empty query and reference");
    if (n > pes_.size()) {
        fatal("query chunk of %zu samples exceeds the %zu-PE array",
              n, pes_.size());
    }

    const bool resume = state != nullptr && !state->empty();
    if (resume && state->row.size() != m) {
        fatal("checkpoint row length %zu does not match reference %zu",
              state->row.size(), m);
    }

    // Load the query chunk into the array.
    for (std::size_t i = 0; i < n; ++i)
        pes_[i].load(query[i]);

    std::vector<Cost> checkpoint_row;
    std::vector<std::uint8_t> checkpoint_dwell;
    if (capture_checkpoint) {
        checkpoint_row.resize(m);
        checkpoint_dwell.resize(m);
    }

    SystolicResult result;
    const std::uint64_t total_cycles = passCycles(n, m);
    for (std::uint64_t c = 0; c < total_cycles; ++c) {
        // Downstream PEs first, so every PE reads its upstream
        // neighbour's registers as they stood at the end of cycle c-1.
        for (std::size_t i = n; i-- > 1;)
            pes_[i].step(pes_[i - 1].outputs(), bonus_, dwellCap_);

        // PE 0's upstream wires are synthesised from the reference
        // stream and, when resuming, the checkpoint row from DRAM.
        PeOutputs up;
        const std::uint64_t j = c;
        if (j < m) {
            up.validD1 = true;
            up.refD1 = reference[j];
            if (resume) {
                up.costD1 = state->row[j];
                up.dwellD1 = state->dwell[j];
                result.checkpointBytesRead += kCheckpointBytesPerCell;
                if (j >= 1) {
                    up.validD2 = true;
                    up.costD2 = state->row[j - 1];
                    up.dwellD2 = state->dwell[j - 1];
                }
            } else {
                // Fresh start: zero boundary makes PE 0 compute the
                // free-start row S[0][j] = |Q[0] - R[j]|, dwell 1.
                up.costD1 = 0;
                up.dwellD1 = 0;
            }
        }
        pes_[0].step(up, bonus_, dwellCap_);

        // Observe the last PE's freshly computed output.
        const PeOutputs &out = pes_[n - 1].outputs();
        if (out.validD1) {
            const auto out_j = std::size_t(c - (n - 1));
            if (out.costD1 < result.cost) {
                result.cost = out.costD1;
                result.refEnd = out_j;
            }
            if (capture_checkpoint) {
                checkpoint_row[out_j] = out.costD1;
                checkpoint_dwell[out_j] = out.dwellD1;
                result.checkpointBytes += kCheckpointBytesPerCell;
            }
        }
        // Exact count of PEs inside the wavefront this cycle, for the
        // energy model: i such that 0 <= c - i < m.
        const auto lo = std::max<std::int64_t>(
            0, std::int64_t(c) - std::int64_t(m) + 1);
        const auto hi =
            std::min<std::int64_t>(std::int64_t(n) - 1, std::int64_t(c));
        if (hi >= lo)
            result.cellsComputed += std::uint64_t(hi - lo + 1);
    }
    result.cycles = total_cycles;

    if (state != nullptr && capture_checkpoint) {
        state->row = std::move(checkpoint_row);
        state->dwell = std::move(checkpoint_dwell);
        state->rowsDone += n;
    }
    return result;
}

} // namespace sf::hw
