#include "sdtw/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <type_traits>
#include <utility>

#include "common/logging.hpp"

// The DP buffers handed to the row kernel never alias (distinct
// vectors, swapped between rows); telling the compiler so removes the
// runtime alias checks that otherwise stop the -O2 vectoriser.
#if defined(__GNUC__) || defined(__clang__)
#define SF_RESTRICT __restrict__
#else
#define SF_RESTRICT
#endif

namespace sf::sdtw {

std::string
SdtwConfig::describe() const
{
    std::string out;
    out += metric == CostMetric::SquaredDifference ? "sq" : "abs";
    out += allowReferenceDeletion ? "+refdel" : "+norefdel";
    if (matchBonus > 0.0) {
        out += "+bonus";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", matchBonus);
        out += buf;
    }
    return out;
}

SdtwConfig
vanillaConfig()
{
    SdtwConfig config;
    config.metric = CostMetric::SquaredDifference;
    config.allowReferenceDeletion = true;
    config.matchBonus = 0.0;
    return config;
}

SdtwConfig
hardwareConfig()
{
    SdtwConfig config;
    config.metric = CostMetric::AbsoluteDifference;
    config.allowReferenceDeletion = false;
    config.matchBonus = 2.0;
    config.dwellCap = 10;
    return config;
}

namespace {

/** Saturating/clamped arithmetic shared by both cost domains. */
template <typename CostT>
CostT
addCost(CostT a, CostT b)
{
    if constexpr (std::is_floating_point_v<CostT>)
        return a + b;
    else
        return satAdd(a, b);
}

template <typename CostT>
CostT
subCostClamped(CostT a, CostT b)
{
    if constexpr (std::is_floating_point_v<CostT>)
        return a > b ? a - b : CostT(0);
    else
        return satSub(a, b);
}

/** Pointwise distance with the metric resolved at compile time. */
template <CostMetric Metric, typename Sample, typename CostT>
inline CostT
cellCost(Sample q, Sample r)
{
    if constexpr (std::is_floating_point_v<CostT>) {
        const double diff = double(q) - double(r);
        if constexpr (Metric == CostMetric::AbsoluteDifference)
            return CostT(std::abs(diff));
        else
            return CostT(diff * diff);
    } else {
        // Widen before subtracting so int8 differences cannot overflow;
        // stay in integers so the inner loop vectorises.
        const int diff = int(q) - int(r);
        const int ad = diff < 0 ? -diff : diff;
        if constexpr (Metric == CostMetric::AbsoluteDifference)
            return CostT(ad);
        else
            return CostT(ad) * CostT(ad);
    }
}

/**
 * Fold one query sample into the DP row.  All three recurrence
 * switches are template parameters, so each of the eight
 * configurations compiles to a branch-free inner loop — the quantised
 * no-reference-deletion variants (what the systolic array implements)
 * reduce to widen/abs/min/select operations the compiler can
 * vectorise.  Arithmetic is kept expression-for-expression identical
 * to the pre-specialisation scalar code: results are bit-exact.
 */
template <CostMetric Metric, bool RefDel, bool UseBonus, typename Sample,
          typename CostT>
void
foldRow(Sample q, const Sample *SF_RESTRICT ref, std::size_t m,
        const CostT *SF_RESTRICT row, const std::uint8_t *SF_RESTRICT dw,
        CostT *SF_RESTRICT next, std::uint8_t *SF_RESTRICT next_dwell,
        CostT bonus_unit, std::uint8_t cap)
{
    // First column: only the vertical predecessor exists.
    next[0] = addCost(row[0], cellCost<Metric, Sample, CostT>(q, ref[0]));
    next_dwell[0] = std::uint8_t(std::min<int>(dw[0] + 1, cap));

    if constexpr (!RefDel) {
        // Without reference deletions next[j] depends only on the
        // previous row, so this loop is branchless and carries no
        // dependency — the compiler can vectorise it.
        for (std::size_t j = 1; j < m; ++j) {
            CostT diag = row[j - 1];
            if constexpr (UseBonus) {
                // Dwell counters are stored pre-capped, so the reward
                // is a plain multiply.
                const CostT reward = bonus_unit * CostT(dw[j - 1]);
                diag = subCostClamped(diag, reward);
            }
            const CostT vert = row[j];
            const bool take_diag = diag <= vert;
            const CostT best = take_diag ? diag : vert;
            const auto bumped = std::uint8_t(dw[j] < cap ? dw[j] + 1 : cap);
            next[j] =
                addCost(best, cellCost<Metric, Sample, CostT>(q, ref[j]));
            next_dwell[j] = take_diag ? std::uint8_t(1) : bumped;
        }
    } else {
        for (std::size_t j = 1; j < m; ++j) {
            CostT diag = row[j - 1];
            if constexpr (UseBonus) {
                const CostT reward =
                    CostT(bonus_unit * CostT(std::min(dw[j - 1], cap)));
                diag = subCostClamped(diag, reward);
            }
            const CostT vert = row[j];

            CostT best = diag;
            std::uint8_t dwell = 1;
            if (vert < diag) {
                best = vert;
                dwell = std::uint8_t(std::min<int>(dw[j] + 1, cap));
            }
            if (next[j - 1] < best) {
                best = next[j - 1];
                dwell = 1;
            }
            next[j] =
                addCost(best, cellCost<Metric, Sample, CostT>(q, ref[j]));
            next_dwell[j] = dwell;
        }
    }
}

/**
 * Resolve the runtime SdtwConfig switches into compile-time template
 * arguments exactly once per process() call and invoke @p f with
 * three std::integral_constant tags.
 */
template <typename F>
decltype(auto)
dispatchConfig(const SdtwConfig &config, bool use_bonus, F &&f)
{
    const auto with_bonus = [&](auto metric, auto refdel) {
        return use_bonus ? f(metric, refdel, std::true_type{})
                         : f(metric, refdel, std::false_type{});
    };
    const auto with_refdel = [&](auto metric) {
        return config.allowReferenceDeletion
                   ? with_bonus(metric, std::true_type{})
                   : with_bonus(metric, std::false_type{});
    };
    return config.metric == CostMetric::AbsoluteDifference
               ? with_refdel(
                     std::integral_constant<CostMetric,
                                            CostMetric::AbsoluteDifference>{})
               : with_refdel(
                     std::integral_constant<CostMetric,
                                            CostMetric::SquaredDifference>{});
}

} // namespace

template <typename Sample, typename CostT>
SdtwEngine<Sample, CostT>::SdtwEngine(SdtwConfig config)
    : config_(config)
{
    if (config_.dwellCap < 1 || config_.dwellCap > 255)
        fatal("sDTW dwell cap %d out of [1, 255]", config_.dwellCap);
    if (config_.matchBonus < 0.0)
        fatal("sDTW match bonus must be non-negative");
    if constexpr (std::is_floating_point_v<CostT>)
        bonusUnit_ = CostT(config_.matchBonus);
    else
        bonusUnit_ = CostT(std::llround(config_.matchBonus));
}

template <typename Sample, typename CostT>
CostT
SdtwEngine<Sample, CostT>::pointCost(Sample q, Sample r) const
{
    if (config_.metric == CostMetric::AbsoluteDifference)
        return cellCost<CostMetric::AbsoluteDifference, Sample, CostT>(q, r);
    return cellCost<CostMetric::SquaredDifference, Sample, CostT>(q, r);
}

template <typename Sample, typename CostT>
typename SdtwEngine<Sample, CostT>::Result
SdtwEngine<Sample, CostT>::process(std::span<const Sample> query_chunk,
                                   std::span<const Sample> reference,
                                   State &state) const
{
    const std::size_t m = reference.size();
    if (m == 0)
        fatal("sDTW reference must be non-empty");
    if (!state.empty() && state.row.size() != m) {
        fatal("sDTW state row length %zu does not match reference %zu",
              state.row.size(), m);
    }
    if (!state.empty() && state.dwell.size() != m) {
        fatal("sDTW state dwell length %zu does not match row %zu",
              state.dwell.size(), m);
    }
    if (state.empty() && query_chunk.empty())
        fatal("sDTW requires at least one query sample");

    const auto cap = std::uint8_t(config_.dwellCap);
    const bool use_bonus = config_.matchBonus > 0.0;

    std::size_t i = 0;
    if (state.empty() && !query_chunk.empty()) {
        // Fresh start: subsequence free-start row.
        state.row.resize(m);
        state.dwell.assign(m, 1);
        for (std::size_t j = 0; j < m; ++j)
            state.row[j] = pointCost(query_chunk[0], reference[j]);
        state.rowsDone = 1;
        i = 1;
    }

    std::vector<CostT> next(m);
    std::vector<std::uint8_t> next_dwell(m);
    dispatchConfig(config_, use_bonus, [&](auto metric, auto refdel,
                                           auto bonus) {
        const Sample *ref = reference.data();
        for (; i < query_chunk.size(); ++i) {
            foldRow<metric.value, refdel.value, bonus.value>(
                query_chunk[i], ref, m, state.row.data(),
                state.dwell.data(), next.data(), next_dwell.data(),
                bonusUnit_, cap);
            state.row.swap(next);
            state.dwell.swap(next_dwell);
            ++state.rowsDone;
        }
    });

    Result result;
    result.rows = state.rowsDone;
    result.cost = state.row[0];
    result.refEnd = 0;
    for (std::size_t j = 1; j < m; ++j) {
        if (state.row[j] < result.cost) {
            result.cost = state.row[j];
            result.refEnd = j;
        }
    }
    return result;
}

template <typename Sample, typename CostT>
typename SdtwEngine<Sample, CostT>::Result
SdtwEngine<Sample, CostT>::align(std::span<const Sample> query,
                                 std::span<const Sample> reference) const
{
    State state;
    return process(query, reference, state);
}

template class SdtwEngine<float, double>;
template class SdtwEngine<NormSample, Cost>;

} // namespace sf::sdtw
