#include "sdtw/batch.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/topology.hpp"

namespace sf::sdtw {

namespace {

bool
backendCompiledIn(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Serial:
        return true;
    case SimdBackend::Avx2:
#if defined(SF_BATCH_HAVE_AVX2)
        return true;
#else
        return false;
#endif
    case SimdBackend::Avx512:
#if defined(SF_BATCH_HAVE_AVX512)
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
cpuSupports(SimdBackend backend)
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    switch (backend) {
    case SimdBackend::Serial:
        return true;
    case SimdBackend::Avx2:
        return __builtin_cpu_supports("avx2") != 0;
    case SimdBackend::Avx512:
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0 &&
               __builtin_cpu_supports("avx512vl") != 0;
    }
    return false;
#else
    return backend == SimdBackend::Serial;
#endif
}

/** The backend's kernels for @p config; empty for Serial, which has
    none, and for a config outside the lane shape.  With no lane
    backend compiled in, the config goes unread. */
detail::FoldRowFns
resolveFold(SimdBackend backend, [[maybe_unused]] const SdtwConfig &config)
{
    switch (backend) {
#if defined(SF_BATCH_HAVE_AVX2)
    case SimdBackend::Avx2:
        return detail::resolveFoldRowAvx2(config);
#endif
#if defined(SF_BATCH_HAVE_AVX512)
    case SimdBackend::Avx512:
        return detail::resolveFoldRowAvx512(config);
#endif
    default:
        return {};
    }
}

/** The serial engine's post-fold summary of a checkpointed row. */
QuantSdtw::Result
summarise(const QuantSdtw::State &state)
{
    QuantSdtw::Result result;
    result.rows = state.rowsDone;
    result.cost = state.row[0];
    result.refEnd = 0;
    for (std::size_t j = 1; j < state.row.size(); ++j) {
        if (state.row[j] < result.cost) {
            result.cost = state.row[j];
            result.refEnd = j;
        }
    }
    return result;
}

} // namespace

const char *
simdBackendName(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Serial: return "serial";
    case SimdBackend::Avx2: return "avx2";
    case SimdBackend::Avx512: return "avx512";
    }
    return "unknown";
}

bool
simdBackendAvailable(SimdBackend backend)
{
    return backendCompiledIn(backend) && cpuSupports(backend);
}

std::size_t
simdLaneWidth(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Serial: return 1;
    case SimdBackend::Avx2: return 8;
    case SimdBackend::Avx512: return 16;
    }
    return 1;
}

SimdBackend
detectSimdBackend()
{
    for (SimdBackend backend : {SimdBackend::Avx512, SimdBackend::Avx2}) {
        if (simdBackendAvailable(backend))
            return backend;
    }
    return SimdBackend::Serial;
}

BatchSdtw::BatchSdtw(SdtwConfig config, std::size_t lane_capacity,
                     SimdBackend backend)
    : engine_(config), backend_(backend)
{
    if (lane_capacity == 0)
        fatal("BatchSdtw needs at least one lane of capacity");
    if (!simdBackendAvailable(backend_)) {
        fatal("sDTW SIMD backend '%s' is not available on this host",
              simdBackendName(backend_));
    }
    width_ = simdLaneWidth(backend_);
    capacity_ = (lane_capacity + width_ - 1) / width_ * width_;
    bonusShift_ = detail::laneShift(config);
    fold_ = resolveFold(backend_, config);
    serialCutover_ = width_;
}

void
BatchSdtw::setSerialCutover(std::size_t min_lanes)
{
    serialCutover_ = min_lanes;
}

void
BatchSdtw::setTileCols(std::size_t cols)
{
    tileCols_ = cols;
}

std::size_t
BatchSdtw::planTileCols(std::size_t reference_len,
                        std::size_t lanes) const
{
    std::size_t tile = tileCols_;
    if (tile == 0) {
        // Auto heuristic: size one tile's interleaved cost+dwell
        // working set to about half the per-core L2, leaving the
        // other half for the query block, carry slabs and the
        // reference slice.  Floors keep a bogus cache reading from
        // degenerating into per-column tiles.
        constexpr std::size_t kFallbackL2Bytes = 1u << 20;
        constexpr std::size_t kMinAutoTileCols = 1024;
        const std::size_t width =
            (std::min(std::max<std::size_t>(lanes, 1), capacity_) +
             width_ - 1) /
            width_ * width_;
        const std::size_t l2 = topo::level2CacheBytes();
        const std::size_t budget =
            (l2 != 0 ? l2 : kFallbackL2Bytes) / 2;
        const std::size_t bytes_per_col =
            width * (sizeof(Cost) + sizeof(std::uint8_t));
        tile = std::max(kMinAutoTileCols, budget / bytes_per_col);
    }
    return std::min(std::max<std::size_t>(tile, 1), reference_len);
}

bool
BatchSdtw::validate(std::span<BatchLane> lanes,
                    std::span<const NormSample> reference) const
{
    if (reference.empty())
        fatal("sDTW reference must be non-empty");
    // Widest cell cost of the lane shape: an int8 absolute difference
    // is at most 255.
    constexpr Cost cell_max = 255;
    bool fits = true;
    for (const BatchLane &lane : lanes) {
        const QuantSdtw::State *state = lane.state;
        if (state == nullptr)
            fatal("BatchSdtw lane needs a checkpoint state");
        if (!state->empty() && state->row.size() != reference.size()) {
            fatal("sDTW state row length %zu does not match reference "
                  "%zu",
                  state->row.size(), reference.size());
        }
        if (!state->empty() && state->dwell.size() != state->row.size()) {
            fatal("sDTW state dwell length %zu does not match row %zu",
                  state->dwell.size(), state->row.size());
        }
        if (state->empty() && lane.query.empty())
            fatal("sDTW requires at least one query sample");
        // No-saturation bound (batch_kernel.hpp): a row's maximum
        // grows by at most cell_max per folded sample.  A fresh lane
        // starts from zero, its first sample seeding the free-start
        // row.
        if (fits) {
            Cost start = 0;
            if (!state->empty())
                for (const Cost c : state->row)
                    start = std::max(start, c);
            fits = lane.query.size() <= (kCostMax - start) / cell_max;
        }
    }
    return fits;
}

void
BatchSdtw::processMany(std::span<BatchLane> lanes,
                       std::span<const NormSample> reference)
{
    const bool fits = validate(lanes, reference);
    if (fold_.fold1 == nullptr || !fits ||
        lanes.size() < std::max<std::size_t>(serialCutover_, 1)) {
        // Thin calls: the columns kernel puts one read's columns in
        // the lanes, so it wastes none.  The occupancy accounting
        // still charges b jobs b * W slots, as it did when every
        // thin call folded on the serial engine.  That engine still
        // takes a call with a lane that could saturate (its adds
        // saturate, the SIMD kernels' wrap) and every call with no
        // lane kernel: a config outside the lane shape, or the Serial
        // backend.
        foldStats_.serialCalls += 1;
        foldStats_.laneJobs += lanes.size();
        foldStats_.laneSlots += lanes.size() * width_;
        if (fits && fold_.columns != nullptr) {
            foldStats_.columnCalls += 1;
            runColumns(lanes, reference);
            return;
        }
        for (BatchLane &lane : lanes)
            lane.result =
                engine_.process(lane.query, reference, *lane.state);
        return;
    }
    foldStats_.batchedCalls += 1;
    foldStats_.laneJobs += lanes.size();
    foldStats_.laneSlots += ((lanes.size() + width_ - 1) / width_) * width_;
    runBatched(lanes, reference);
}

void
BatchSdtw::runColumns(std::span<BatchLane> lanes,
                      std::span<const NormSample> reference)
{
    const std::size_t m = reference.size();
    const auto cap = std::uint8_t(config().dwellCap);
    for (BatchLane &lane : lanes) {
        QuantSdtw::State &state = *lane.state;
        std::span<const NormSample> query = lane.query;
        if (state.empty()) {
            // Free-start row, seeded as the serial engine seeds it.
            state.row.resize(m);
            state.dwell.assign(m, 1);
            for (std::size_t j = 0; j < m; ++j)
                state.row[j] = engine_.pointCost(query[0], reference[j]);
            state.rowsDone = 1;
            query = query.subspan(1);
        }
        fold_.columns(query.data(), query.size(), reference.data(), m,
                      state.row.data(), state.dwell.data(), bonusShift_,
                      cap);
        state.rowsDone += query.size();
        lane.result = summarise(state);
    }
}

void
BatchSdtw::runBatched(std::span<BatchLane> lanes,
                      std::span<const NormSample> reference)
{
    const std::size_t m = reference.size();
    const auto cap = std::uint8_t(config().dwellCap);
    // Effective batch width: enough slots for the request, capped at
    // capacity, rounded up to whole vector groups.
    const std::size_t width =
        (std::min(lanes.size(), capacity_) + width_ - 1) / width_ *
        width_;
    rows_.resize(width * m);
    dwell_.resize(width * m);

    // Column tiling (see batch.hpp): each round folds a *block* of
    // query rows, walking the reference in tile-sized column ranges
    // and running every sweep of the block on one tile before moving
    // on, so a tile's interleaved state is streamed once per block
    // instead of once per sweep.
    const std::size_t tile = planTileCols(m, lanes.size());
    const std::size_t tiles = (m + tile - 1) / tile;

    /** One in-flight slot of the interleaved layout. */
    struct Slot
    {
        std::ptrdiff_t lane = -1; //!< index into @p lanes, -1 = empty
        std::size_t cursor = 0;   //!< next query sample to fold
        std::size_t rowsDone = 0; //!< total rows incl. resumed state
    };
    std::vector<Slot> slots(width);
    std::size_t nextLane = 0;
    std::size_t occupied = 0;

    // Drain a finished slot back into its checkpoint state and
    // summarise the final row, exactly as the serial engine does.
    const auto retire = [&](std::size_t s) {
        Slot &slot = slots[s];
        BatchLane &lane = lanes[std::size_t(slot.lane)];
        QuantSdtw::State &state = *lane.state;
        state.row.resize(m);
        state.dwell.resize(m);
        for (std::size_t j = 0; j < m; ++j) {
            state.row[j] = rows_[j * width + s];
            state.dwell[j] = dwell_[j * width + s];
        }
        state.rowsDone = slot.rowsDone;
        lane.result = summarise(state);
        slot.lane = -1;
        --occupied;
    };

    // Scatter a lane's checkpoint (or a fresh free-start row) into
    // slot @p s.  Returns false if the lane had nothing to fold and
    // retired on the spot.
    const auto load = [&](std::size_t s, std::size_t li) {
        Slot &slot = slots[s];
        BatchLane &lane = lanes[li];
        QuantSdtw::State &state = *lane.state;
        slot.lane = std::ptrdiff_t(li);
        if (state.empty()) {
            const NormSample q0 = lane.query[0];
            for (std::size_t j = 0; j < m; ++j) {
                rows_[j * width + s] = engine_.pointCost(q0, reference[j]);
                dwell_[j * width + s] = 1;
            }
            slot.cursor = 1;
            slot.rowsDone = 1;
        } else {
            for (std::size_t j = 0; j < m; ++j) {
                rows_[j * width + s] = state.row[j];
                dwell_[j * width + s] = state.dwell[j];
            }
            slot.cursor = 0;
            slot.rowsDone = state.rowsDone;
        }
        ++occupied;
        if (slot.cursor >= lane.query.size()) {
            retire(s);
            return false;
        }
        return true;
    };

    while (true) {
        // Refill empty slots lowest-first: occupancy packs into the
        // low vector groups, so drained high groups stop being folded.
        for (std::size_t s = 0; s < width && nextLane < lanes.size();
             ++s) {
            if (slots[s].lane >= 0)
                continue;
            while (nextLane < lanes.size() && !load(s, nextLane++)) {
            }
        }
        if (occupied == 0)
            break;

        std::size_t hi = 0;
        std::size_t min_remaining = SIZE_MAX;
        for (std::size_t s = 0; s < width; ++s) {
            const Slot &slot = slots[s];
            if (slot.lane < 0)
                continue;
            hi = s;
            min_remaining = std::min(
                min_remaining,
                lanes[std::size_t(slot.lane)].query.size() -
                    slot.cursor);
        }
        const std::size_t groups = hi / width_ + 1;

        // Fold a block of rows this round.  The block never exceeds
        // the in-flight lanes' minimum remaining samples, so no lane
        // retires mid-block — retire/refill at block edges is
        // bit-identical to the per-sweep schedule it replaces.
        const std::size_t block =
            std::min(min_remaining, kMaxBlockRows);

        // Sweep plan: deepest strip first, identical on every tile so
        // each sweep's carry lines up with its resumption.
        struct Sweep
        {
            std::size_t r0;          //!< first block row of the strip
            detail::FoldRowFn fn;
        };
        std::vector<Sweep> sweeps;
        sweeps.reserve(block / 4 + 2);
        for (std::size_t r = 0; r < block;) {
            if (block - r >= 8 && fold_.fold8 != nullptr) {
                sweeps.push_back({r, fold_.fold8});
                r += 8;
            } else if (block - r >= 4) {
                sweeps.push_back({r, fold_.fold4});
                r += 4;
            } else if (block - r >= 2) {
                sweeps.push_back({r, fold_.fold2});
                r += 2;
            } else {
                sweeps.push_back({r, fold_.fold1});
                r += 1;
            }
        }

        // Pack the whole block's query samples `[row][lane]` once;
        // empty slots fold zeros into state nobody will read.
        qlane_.assign(block * width, 0);
        for (std::size_t s = 0; s <= hi; ++s) {
            const Slot &slot = slots[s];
            if (slot.lane < 0)
                continue;
            const auto &query = lanes[std::size_t(slot.lane)].query;
            for (std::size_t t = 0; t < block; ++t)
                qlane_[t * width + s] =
                    std::int32_t(query[slot.cursor + t]);
        }

        const bool tiled = tiles > 1;
        if (tiled)
            carry_.resize(sweeps.size() * detail::carrySlots(width));
        for (std::size_t ti = 0; ti < tiles; ++ti) {
            const std::size_t j0 = ti * tile;
            const std::size_t len = std::min(tile, m - j0);
            for (std::size_t si = 0; si < sweeps.size(); ++si) {
                const Sweep &sw = sweeps[si];
                sw.fn(qlane_.data() + sw.r0 * width,
                      reference.data() + j0, len, width, groups,
                      rows_.data() + j0 * width,
                      dwell_.data() + j0 * width, bonusShift_, cap,
                      tiled ? carry_.data() +
                                  si * detail::carrySlots(width)
                            : nullptr,
                      ti == 0);
            }
        }
        foldStats_.rowBlocks += 1;
        foldStats_.colTiles += tiles;

        for (std::size_t s = 0; s <= hi; ++s) {
            Slot &slot = slots[s];
            if (slot.lane < 0)
                continue;
            slot.cursor += block;
            slot.rowsDone += block;
            if (slot.cursor >=
                lanes[std::size_t(slot.lane)].query.size())
                retire(s);
        }
    }
}

} // namespace sf::sdtw
