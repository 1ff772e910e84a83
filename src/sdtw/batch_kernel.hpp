#ifndef SF_SDTW_BATCH_KERNEL_HPP
#define SF_SDTW_BATCH_KERNEL_HPP

/**
 * @file
 * Internal lane-batched and columns-in-lanes sDTW kernels, shared by
 * every SIMD backend.
 *
 * The batched engine lays B independent reads out struct-of-arrays:
 * DP row and dwell buffers are interleaved `[column][lane]`, so one
 * vector register holds the same reference column of W different
 * reads.  foldRowBatch() advances every lane by one query sample per
 * call — the inter-sequence parallelisation of the classic SIMD
 * Smith-Waterman trick, applied to the paper's sDTW recurrence.
 *
 * Calls below the lane cutover leave most of those lanes idle, so
 * foldColumns() turns the layout around: one vector holds W
 * consecutive reference columns of ONE read, in place in the read's
 * own contiguous checkpoint, and the diagonal predecessor is the row
 * above shifted one lane (the single-read systolic wavefront of the
 * paper's §5.1; Farrar's striped layout without its in-row
 * dependency).  It needs reference deletions off, where S[i][j]
 * depends on row i-1 alone.
 *
 * The kernels fold one recurrence: the accelerator's datapath (paper
 * §4.7) of absolute difference, no reference deletions and a
 * power-of-two match bonus (laneShift() below).  Every configuration
 * BatchSdtw is built with in the library, its benches and examples
 * has that shape; any other one folds on the serial QuantSdtw engine
 * (batch.cpp), which the fig18 ablation scores through anyway.  Each
 * backend translation unit (batch_avx2.cpp, batch_avx512.cpp)
 * instantiates the templates below with its own `Ops` vector-trait
 * struct and exports a resolver that returns the kernels for a
 * lane-shaped config and none for any other.  The recurrence is kept
 * expression-for-expression identical to SdtwEngine::foldRow in
 * engine.cpp: for the lane shape, batched costs are bit-exact against
 * the serial engine (enforced by tests/test_batch.cpp).
 *
 * An `Ops` struct provides, over vectors of W unsigned 32-bit lanes:
 *   W, Vec, Mask, kMaxStrip (deepest strip: 8 where 32 vector
 *   registers hold the strip state, 4 on 16-register ISAs),
 *   broadcast(i32), loadI32, loadU32/storeU32, loadDwell/storeDwell
 *   (u8 memory <-> u32 lanes), addI32, subI32, shlI32/shrI32 (runtime
 *   count), absI32, minI32, minU32, maxU32, gtU32 (an unsigned compare
 *   producing a Mask), dwellBump (the fused
 *   `kgt ? min(dw + one, cap) : one` update — AVX-512 folds it into a
 *   zero-masked min plus one add), and the columns kernel's two:
 *   loadRef (W int8 reference samples, sign-extended) and
 *   shiftInLane(cur, prev) (`[prev[W-1], cur[0 .. W-2]]`, one valignd
 *   on AVX-512, vperm2i128 plus vpalignr on AVX2).
 *
 * Neither fold saturates, so the cost add is a plain addI32.  Proof:
 * every cell is `best + cell` with best <= the vertical predecessor
 * S[i-1][j] (the first column has only that predecessor), and the
 * bonus only subtracts, so a row's maximum grows by at most the
 * largest cell cost per folded row — 255, the widest int8 absolute
 * difference.  BatchSdtw::validate() bounds every lane by its resumed
 * row maximum plus query length times that cost, and routes the whole
 * call to the serial engine (whose adds saturate) when any bound
 * exceeds kCostMax.  Below the bound the serial engine never
 * saturates either, so the plain add is bit-exact against it.
 */

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/types.hpp"
#include "sdtw/config.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SF_BATCH_RESTRICT __restrict__
#else
#define SF_BATCH_RESTRICT
#endif

namespace sf::sdtw::detail {

/** Strip rows a carry slab reserves per plane (the deepest strip any
 * backend offers; shallower sweeps simply leave the tail unused). */
inline constexpr std::size_t kCarryStrip = 8;
/** Register planes one sweep carries across a tile edge: inPrev and
 * dwPrev. */
inline constexpr std::size_t kCarryPlanes = 2;

/** Cost slots one sweep's tile-carry slab occupies for a given lane
 * stride; plane p, strip row t lives at `(p * kCarryStrip + t) *
 * stride + lane`. */
inline constexpr std::size_t
carrySlots(std::size_t stride)
{
    return kCarryPlanes * kCarryStrip * stride;
}

/**
 * Largest bonus shift the kernels pre-scale by.  The signed minI32 of
 * the dwell update sees `dwell + 1` for any dwell a state can hold (a
 * uint8_t, up to 255), which stays exact only while `256 << shift`
 * fits an int32.
 */
inline constexpr int kMaxPrescaleShift = 22;

/**
 * The lane kernels' shape: absolute difference, no reference
 * deletions, and a match bonus that rounds to 2^s with s <=
 * kMaxPrescaleShift.  Returns s, or -1 for a config of any other
 * shape, which folds on the serial engine instead.
 */
inline int
laneShift(const SdtwConfig &config)
{
    if (config.metric != CostMetric::AbsoluteDifference ||
        config.allowReferenceDeletion)
        return -1;
    const long long unit = std::llround(config.matchBonus);
    for (int s = 0; s <= kMaxPrescaleShift; ++s)
        if (unit == 1LL << s)
            return s;
    return -1;
}

/**
 * Fold N query samples per lane (a row strip) into the interleaved
 * DP state.  Strip-mining is the key throughput lever: one sweep
 * through the row/dwell buffers folds N DP rows, so the per-column
 * loads, stores, dwell packing and reference broadcast are amortised
 * N ways and the kernel stays vector-ALU-bound instead of splitting
 * its port budget with bookkeeping.
 *
 * Column tiling: the driver may hand the sweep a sub-range of the
 * reference (a cache-sized tile) instead of all of it.  The sweep's
 * horizontal register state (inPrev/dwPrev per strip row) is then
 * parked in @p carry at the tile edge and reloaded when the same
 * sweep resumes on the next tile, so a tiled walk computes exactly
 * the cell sequence an untiled one would — bit for bit.
 *
 * @param q       widened per-lane query samples, `[row t][lane]` as
 *                `q[t * stride + lane]`, N rows
 * @param ref     shared reference squiggle, length @p m — for a tile,
 *                already offset to the tile's first column
 * @param m       columns in this tile (the whole reference when the
 *                driver is not tiling)
 * @param stride  lane count B of the interleaved layout (multiple of
 *                Ops::W)
 * @param groups  vector groups to actually process (occupancy
 *                optimisation; groups * Ops::W <= stride)
 * @param rows    interleaved cost rows `[j * stride + lane]` of the
 *                tile (offset like @p ref), updated in place
 * @param dwell   interleaved capped dwell counters, same layout
 * @param shift   the bonus shift s of laneShift() (bonus = 2^s)
 * @param carry   this sweep's boundary-state slab of carrySlots()
 *                Cost slots, or nullptr when the walk is untiled
 * @param lead_tile true on the reference's first tile: the sweep runs
 *                the first-column (vertical-only) recurrence and seeds
 *                the carry; false resumes from @p carry (which must
 *                then be non-null)
 */
using FoldRowFn = void (*)(const std::int32_t *q, const NormSample *ref,
                           std::size_t m, std::size_t stride,
                           std::size_t groups, Cost *rows,
                           std::uint8_t *dwell, int shift,
                           std::uint8_t cap, Cost *carry,
                           bool lead_tile);

/**
 * Fold @p n query rows of one read in place, W consecutive columns
 * per vector (foldColumns below).  @p row / @p dwell are the read's
 * own contiguous DP state, length @p m.
 */
using FoldColumnsFn = void (*)(const NormSample *q, std::size_t n,
                               const NormSample *ref, std::size_t m,
                               Cost *row, std::uint8_t *dwell,
                               int shift, std::uint8_t cap);

/** Column blocks one columns sweep folds side by side (measured: 3
 * and 4 fold within noise of each other, 1.4x one block). */
inline constexpr std::size_t kColumnsUnroll = 3;

/** Strip variants a backend offers; the driver picks the deepest one
 * every in-flight lane has enough remaining samples for.  All null
 * for a config outside the lane shape (laneShift() < 0). */
struct FoldRowFns
{
    FoldRowFn fold1 = nullptr; //!< 1 row per sweep
    FoldRowFn fold2 = nullptr; //!< 2 rows per sweep
    FoldRowFn fold4 = nullptr; //!< 4 rows per sweep
    FoldRowFn fold8 = nullptr; //!< 8 rows per sweep (kMaxStrip 8 only)
    FoldColumnsFn columns = nullptr; //!< thin calls, one read a sweep
};

/** Pointwise absolute-difference cost. */
template <class Ops>
inline typename Ops::Vec
cellCostV(typename Ops::Vec q, typename Ops::Vec r)
{
    return Ops::absI32(Ops::subI32(q, r));
}

/** Saturating unsigned subtract clamping at zero. */
template <class Ops>
inline typename Ops::Vec
satSubV(typename Ops::Vec a, typename Ops::Vec b)
{
    return Ops::subI32(Ops::maxU32(a, b), b);
}

/**
 * One batched strip update: fold rows i .. i+N-1 of every lane in a
 * single in-place sweep over the interleaved buffers.
 *
 * The recurrence mirrors SdtwEngine::foldRow exactly (see engine.cpp
 * for its derivation); batched costs are bit-exact.  Per column, row
 * t consumes the carried register state of row t-1: `in[t]` is
 * S[i-1+t][j] (t = 0 comes from memory, t > 0 is the fold output of
 * the row above), and `inPrev[t]`/`dwPrev[t]` are the same
 * quantities one column back.  Only the last row of the strip
 * touches memory on the way out, so the per-column
 * load/store/pack/broadcast overhead is amortised over N folded rows
 * and the sweep stays vector-ALU-bound.
 *
 * The dwell lives pre-scaled in registers and the carry slab —
 * `dwell << s` for bonus 2^s, which is the reward itself — so the
 * per-cell multiply becomes one shift per column on the load and one
 * on the store.  `one`, `cap` and `cap - 1` are scaled alike; min and
 * add commute with the shift while `256 << s` fits an int32
 * (kMaxPrescaleShift), so stored dwell counts are unchanged.
 *
 * When the driver tiles the reference, the same horizontal register
 * state is saved to / restored from @p carry at tile edges (see
 * FoldRowFn); the arithmetic per cell and its input provenance are
 * unchanged, so tiled and untiled walks agree bit for bit.
 */
template <class Ops, int N>
void
foldRowBatch(const std::int32_t *SF_BATCH_RESTRICT q,
             const NormSample *SF_BATCH_RESTRICT ref, std::size_t m,
             std::size_t stride, std::size_t groups,
             Cost *SF_BATCH_RESTRICT rows,
             std::uint8_t *SF_BATCH_RESTRICT dwell, int shift,
             std::uint8_t cap, Cost *SF_BATCH_RESTRICT carry,
             bool lead_tile)
{
    using Vec = typename Ops::Vec;
    const Vec capv = Ops::broadcast(std::int32_t(cap) << shift);
    const Vec capm1v = Ops::broadcast((std::int32_t(cap) - 1) << shift);
    const Vec onev = Ops::broadcast(std::int32_t(1) << shift);
    const auto loadDw = [&](const std::uint8_t *p) {
        return Ops::shlI32(Ops::loadDwell(p), shift);
    };
    const auto storeDw = [&](std::uint8_t *p, Vec v) {
        Ops::storeDwell(p, Ops::shrI32(v, shift));
    };

    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t base = g * Ops::W;
        // Plain arrays, not std::array: vector types carry alignment
        // attributes that template arguments drop (-Wignored-attributes).
        Vec qv[std::size_t(N)];
        for (int t = 0; t < N; ++t)
            qv[std::size_t(t)] =
                Ops::loadI32(q + std::size_t(t) * stride + base);
        Cost *SF_BATCH_RESTRICT r = rows + base;
        std::uint8_t *SF_BATCH_RESTRICT d = dwell + base;

        // Carried per-row register state, one column behind.
        Vec inPrev[std::size_t(N)], dwPrev[std::size_t(N)];
        Cost *SF_BATCH_RESTRICT cb =
            carry != nullptr ? carry + base : nullptr;

        std::size_t j0 = 1;
        if (lead_tile) {
            // First column of the reference: only the vertical
            // predecessor exists.
            const Vec refv = Ops::broadcast(std::int32_t(ref[0]));
            Vec in = Ops::loadU32(r);
            Vec dw = loadDw(d);
            for (int t = 0; t < N; ++t) {
                const auto ts = std::size_t(t);
                inPrev[ts] = in;
                dwPrev[ts] = dw;
                in = Ops::addI32(in, cellCostV<Ops>(qv[ts], refv));
                dw = Ops::minI32(Ops::addI32(dw, onev), capv);
            }
            Ops::storeU32(r, in);
            storeDw(d, dw);
        } else {
            // Later tile: resume this sweep's horizontal state from
            // the carry slab the previous tile parked it in; the
            // tile's first column then runs the general recurrence.
            for (int t = 0; t < N; ++t) {
                const auto ts = std::size_t(t);
                inPrev[ts] =
                    Ops::loadU32(cb + (0 * kCarryStrip + ts) * stride);
                dwPrev[ts] =
                    Ops::loadU32(cb + (1 * kCarryStrip + ts) * stride);
            }
            j0 = 0;
        }

        for (std::size_t j = j0; j < m; ++j) {
            Cost *SF_BATCH_RESTRICT rj = r + j * stride;
            std::uint8_t *SF_BATCH_RESTRICT dj = d + j * stride;
            const Vec refv = Ops::broadcast(std::int32_t(ref[j]));
            Vec in = Ops::loadU32(rj);
            Vec dw = loadDw(dj);
            for (int t = 0; t < N; ++t) {
                const auto ts = std::size_t(t);
                // The pre-scaled dwell one column back is the reward.
                const Vec diag = satSubV<Ops>(inPrev[ts], dwPrev[ts]);
                // kgt = !take_diag; dwellBump computes the serial
                // engine's `take_diag ? 1 : min(dw + 1, cap)` (dwell
                // is stored pre-capped, so the min form is exact).
                const auto kgt = Ops::gtU32(diag, in);
                const Vec best = Ops::minU32(diag, in);
                const Vec ndw =
                    Ops::dwellBump(dw, onev, capv, capm1v, kgt);
                // Plain add: validate() proved no lane can saturate.
                const Vec out =
                    Ops::addI32(best, cellCostV<Ops>(qv[ts], refv));
                inPrev[ts] = in;
                dwPrev[ts] = dw;
                in = out;
                dw = ndw;
            }
            Ops::storeU32(rj, in);
            storeDw(dj, dw);
        }

        if (cb != nullptr) {
            // Park the horizontal state for this sweep's next tile.
            for (int t = 0; t < N; ++t) {
                const auto ts = std::size_t(t);
                Ops::storeU32(cb + (0 * kCarryStrip + ts) * stride,
                              inPrev[ts]);
                Ops::storeU32(cb + (1 * kCarryStrip + ts) * stride,
                              dwPrev[ts]);
            }
        }
    }
}

/**
 * One columns-in-lanes sweep: fold rows i .. i+N-1 of one read in
 * place in its contiguous row/dwell buffers, one vector holding W
 * consecutive reference columns.
 *
 * Without reference deletions S[i][j] depends only on row i-1, so a
 * row's W columns fold at once; the diagonal predecessor is the row
 * above shifted one lane up.  Per strip row t the sweep carries one
 * register, `carry[t]`: the previous column block's `pre` (the row
 * above minus its reward, unshifted), whose top lane the shift moves
 * into lane 0.  Seeded with kCostMax, column 0's diagonal loses to
 * any vertical cost validate() admits (every folded input stays below
 * kCostMax), so lane 0 of the first block takes the vertical move as
 * SdtwEngine::foldRow's first column does.  The reward is carried
 * pre-scaled, exactly as foldRowBatch does, and dwell is converted to
 * and from its u8 storage on block load/store.
 *
 * A block's strip rows form one dependency chain, each waiting on
 * the row above, but block u+1 needs only block u's `pre` of the
 * same row.  So the sweep folds kColumnsUnroll blocks side by side,
 * row by row, and they fill each other's latency gaps (the job a
 * second read per sweep did in the prototype, measured no faster).
 * The final `m mod W` columns fold in a padded stack block; its pad
 * lanes sit above the last column, and the one-lane shift only moves
 * values upward, so they feed no real column.
 */
template <class Ops, std::size_t N>
void
foldColumnsStrip(const NormSample *SF_BATCH_RESTRICT q,
                 const NormSample *SF_BATCH_RESTRICT ref, std::size_t m,
                 Cost *SF_BATCH_RESTRICT row,
                 std::uint8_t *SF_BATCH_RESTRICT dwell, int shift,
                 std::uint8_t cap)
{
    using Vec = typename Ops::Vec;
    constexpr std::size_t W = Ops::W;
    const Vec capv = Ops::broadcast(std::int32_t(cap) << shift);
    const Vec capm1v = Ops::broadcast((std::int32_t(cap) - 1) << shift);
    const Vec onev = Ops::broadcast(std::int32_t(1) << shift);

    Vec qv[N], carry[N];
    for (std::size_t t = 0; t < N; ++t) {
        qv[t] = Ops::broadcast(std::int32_t(q[t]));
        carry[t] = Ops::broadcast(std::int32_t(kCostMax));
    }

    // Fold U consecutive W-column blocks through the N strip rows.
    const auto blocks = [&](auto unroll, const NormSample *rp, Cost *rb,
                            std::uint8_t *db) {
        constexpr std::size_t U = decltype(unroll)::value;
        Vec refv[U], in[U], dw[U];
        for (std::size_t u = 0; u < U; ++u) {
            refv[u] = Ops::loadRef(rp + u * W);
            in[u] = Ops::loadU32(rb + u * W);
            dw[u] = Ops::shlI32(Ops::loadDwell(db + u * W), shift);
        }
        for (std::size_t t = 0; t < N; ++t) {
            for (std::size_t u = 0; u < U; ++u) {
                const Vec pre = satSubV<Ops>(in[u], dw[u]);
                const Vec diag = Ops::shiftInLane(pre, carry[t]);
                carry[t] = pre;
                // The compare, min and dwell update of foldRowBatch.
                const auto kgt = Ops::gtU32(diag, in[u]);
                const Vec best = Ops::minU32(diag, in[u]);
                dw[u] = Ops::dwellBump(dw[u], onev, capv, capm1v, kgt);
                in[u] = Ops::addI32(best, cellCostV<Ops>(qv[t], refv[u]));
            }
        }
        for (std::size_t u = 0; u < U; ++u) {
            Ops::storeU32(rb + u * W, in[u]);
            Ops::storeDwell(db + u * W, Ops::shrI32(dw[u], shift));
        }
    };

    std::size_t j = 0;
    const auto advance = [&](auto unroll) {
        constexpr std::size_t U = decltype(unroll)::value;
        for (; j + U * W <= m; j += U * W)
            blocks(unroll, ref + j, row + j, dwell + j);
    };
    advance(std::integral_constant<std::size_t, kColumnsUnroll>{});
    advance(std::integral_constant<std::size_t, 1>{});
    if (j == m)
        return;
    // The last m mod W columns: a padded stack block whose first
    // `left` lanes are real.
    const std::size_t left = m - j;
    NormSample tref[W] = {};
    Cost trow[W] = {};
    std::uint8_t tdw[W] = {};
    for (std::size_t c = 0; c < left; ++c) {
        tref[c] = ref[j + c];
        trow[c] = row[j + c];
        tdw[c] = dwell[j + c];
    }
    blocks(std::integral_constant<std::size_t, 1>{}, tref, trow, tdw);
    for (std::size_t c = 0; c < left; ++c) {
        row[j + c] = trow[c];
        dwell[j + c] = tdw[c];
    }
}

/** Columns-in-lanes fold of one read (FoldColumnsFn), deepest strip
 * first. */
template <class Ops>
void
foldColumns(const NormSample *q, std::size_t n, const NormSample *ref,
            std::size_t m, Cost *row, std::uint8_t *dwell, int shift,
            std::uint8_t cap)
{
    constexpr std::size_t kDeep = std::size_t(Ops::kMaxStrip);
    for (std::size_t r = 0; r < n;) {
        const auto sweep = [&](auto depth) {
            foldColumnsStrip<Ops, depth.value>(q + r, ref, m, row, dwell,
                                               shift, cap);
            r += depth.value;
        };
        const std::size_t left = n - r;
        if (left >= kDeep)
            sweep(std::integral_constant<std::size_t, kDeep>{});
        else if (kDeep > 4 && left >= 4)
            sweep(std::integral_constant<std::size_t, 4>{});
        else if (left >= 2)
            sweep(std::integral_constant<std::size_t, 2>{});
        else
            sweep(std::integral_constant<std::size_t, 1>{});
    }
}

/** The backend's kernels for @p config: every strip depth its
 * register budget allows (past it the spills cost more than the
 * amortisation saves) and the columns fold, or none outside the lane
 * shape. */
template <class Ops>
FoldRowFns
resolveFoldRow(const SdtwConfig &config)
{
    FoldRowFns fns;
    if (laneShift(config) < 0)
        return fns;
    fns.fold1 = &foldRowBatch<Ops, 1>;
    fns.fold2 = &foldRowBatch<Ops, 2>;
    fns.fold4 = &foldRowBatch<Ops, 4>;
    if constexpr (Ops::kMaxStrip >= 8)
        fns.fold8 = &foldRowBatch<Ops, 8>;
    fns.columns = &foldColumns<Ops>;
    return fns;
}

// Per-backend resolvers, defined in their own translation units so
// each can be compiled with exactly the ISA flags it needs and picked
// at runtime by CPU dispatch (see batch.cpp).
#if defined(SF_BATCH_HAVE_AVX2)
FoldRowFns resolveFoldRowAvx2(const SdtwConfig &config);
#endif
#if defined(SF_BATCH_HAVE_AVX512)
FoldRowFns resolveFoldRowAvx512(const SdtwConfig &config);
#endif

} // namespace sf::sdtw::detail

#endif // SF_SDTW_BATCH_KERNEL_HPP
