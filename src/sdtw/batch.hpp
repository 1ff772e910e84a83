#ifndef SF_SDTW_BATCH_HPP
#define SF_SDTW_BATCH_HPP

/**
 * @file
 * Lane-batched sDTW: align up to 32 independent reads per inner-loop
 * iteration (paper §5.1's pore-parallel tiles, done with SIMD lanes).
 *
 * The serial engine (sdtw/engine.hpp) rolls one read's DP row at a
 * time and leans on auto-vectorisation along the reference.  BatchSdtw
 * instead fills vector lanes with *different reads*: B in-flight
 * alignments share interleaved `[column][lane]` cost/dwell buffers,
 * and one explicit-intrinsics row fold advances all of them by one
 * query sample.  Because every lane is an independent alignment there
 * are no cross-lane dependencies at all — the inner loop is branch-
 * free and fully pipelined.
 *
 * Ragged batches are first-class: lanes have per-read query lengths,
 * retire as soon as their samples are exhausted, and are refilled from
 * the pending queue mid-flight, so occupancy stays high even when
 * reads decide at different stages.  A lane is loaded from / drained
 * back to a plain QuantSdtw::State, so checkpointed streams can enter
 * and leave a batch between chunks — this is what lets the kernel
 * slot underneath ClassifierStream and the streaming worker pool.
 *
 * The lane kernel has two backends, AVX-512 and AVX2, picked from
 * CPUID at run time, so binaries built with SF_KERNEL_NATIVE=OFF still
 * run everywhere.  A host with neither gets the Serial backend: no
 * lane kernel, every call folds on the serial engine (narrower lane
 * kernels measured slower than it).  The lane kernels fold one
 * recurrence, the accelerator's datapath (paper §4.7): absolute
 * difference, no reference deletions and a power-of-two match bonus,
 * which is hardwareConfig() and every config the library folds.  For
 * that shape they are bit-identical to the serial QuantSdtw engine;
 * a BatchSdtw built with any other config folds every call on
 * QuantSdtw, exactly as the Serial backend does
 * (tests/test_batch.cpp pins both).
 *
 * A call with fewer reads than one vector of lanes would leave most
 * of them idle, so it takes a thin path: the columns kernel
 * (batch_kernel.hpp).  One vector holds W consecutive reference
 * columns of one read, folded in place in the read's own checkpoint,
 * one read after another; without reference deletions a DP row
 * depends only on the row above, so a row's W columns fold at once.
 *
 * The batched fold adds costs without saturating.  That is exact only
 * while no cost can pass kCostMax, so each call first bounds every
 * lane (resumed row maximum + query length x widest cell cost, see
 * batch_kernel.hpp); a call with any unprovable lane folds serially
 * through QuantSdtw, whose saturating adds stay the oracle.  Real
 * reads sit orders of magnitude below the ceiling.
 *
 * Column tiling keeps genome-scale references cache-resident: a
 * 16-lane batch against a ~97k-column reference owns ~8 MB of
 * interleaved state, so an untiled strip sweep streams it from DRAM
 * every 4 query rows.  The driver instead folds a *block* of query
 * rows per round and walks the reference in cache-sized column tiles,
 * finishing every sweep of the block on one tile before moving to the
 * next — each tile's cost/dwell columns are touched once per block
 * instead of once per sweep, so the working set is the tile, not the
 * reference.  Per-sweep horizontal register state is carried across
 * tile edges (see batch_kernel.hpp), making the tiled walk bit-exact
 * vs the untiled one.  The tile width defaults to a heuristic from
 * the detected per-core L2 size; setTileCols() overrides it, and a
 * value >= the reference length disables tiling.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sdtw/batch_kernel.hpp"
#include "sdtw/config.hpp"
#include "sdtw/engine.hpp"

namespace sf::sdtw {

/** SIMD instruction set a BatchSdtw kernel executes with. */
enum class SimdBackend {
    Serial, //!< no lane kernel: every call folds on QuantSdtw
    Avx2,   //!< 8 epi32 lanes per op
    Avx512, //!< 16 epi32 lanes per op (F+BW+VL)
};

/** Human-readable backend name ("avx2", ...). */
const char *simdBackendName(SimdBackend backend);

/** Whether @p backend is compiled in AND supported by this CPU. */
bool simdBackendAvailable(SimdBackend backend);

/** Cost lanes one vector instruction of @p backend carries. */
std::size_t simdLaneWidth(SimdBackend backend);

/** Best available backend: AVX-512, then AVX2, then Serial. */
SimdBackend detectSimdBackend();

/**
 * One read's slot in a batched fold: the checkpointed DP state it
 * resumes from (empty = fresh subsequence start, exactly like the
 * serial engine) and the query samples to fold this round.  After
 * processMany() the state holds the updated row/dwell checkpoint and
 * `result` the same cost/refEnd/rows the serial engine would report.
 */
struct BatchLane
{
    QuantSdtw::State *state = nullptr;   //!< in/out checkpoint
    std::span<const NormSample> query{}; //!< samples to fold
    QuantSdtw::Result result{};          //!< out: post-fold summary
};

/**
 * SIMD-slot utilisation counters, accumulated across processMany()
 * calls.  A call with b jobs on a W-lane backend pays for
 * roundup(b, W) vector slots when it takes the batched path, and for
 * b * W slots when it falls below the cutover (a W-wide machine
 * folding one read at a time uses 1/W of its lanes).  Thin calls
 * keep that charge and their serialCalls count whether they fold on
 * the serial engine or on the columns kernel, so occupancy and the
 * serial share stay comparable with records taken before the columns
 * kernel; columnCalls says how many took it.  A call routed to the
 * serial engine whatever its width (a config outside the lane shape,
 * or a lane whose costs could saturate) counts the same way: one
 * serialCalls, laneJobs += b, laneSlots += b * W, and no columnCalls,
 * exactly as every call on the Serial backend (W = 1) does.  The
 * ratio laneJobs/laneSlots is therefore the fraction of the SIMD
 * width doing useful work — the "lane occupancy" the fleet stats
 * snapshot and BENCH_fleet.json report.  Counters are plain integers
 * (the hot path stays float-free); divide outside the kernel.
 */
struct FoldStats
{
    std::uint64_t batchedCalls = 0; //!< processMany calls folded wide
    std::uint64_t serialCalls = 0;  //!< calls below the cutover (thin)
    /** The serialCalls that folded on the columns kernel, not on the
        serial engine. */
    std::uint64_t columnCalls = 0;
    std::uint64_t laneJobs = 0;     //!< lanes that carried a real read
    std::uint64_t laneSlots = 0;    //!< vector slots paid for them
    /** Column tiles walked by batched row blocks (1 per block when
        the whole reference fits one tile — i.e. the untiled path). */
    std::uint64_t colTiles = 0;
    /** Row blocks folded (each walks colTiles/rowBlocks tiles). */
    std::uint64_t rowBlocks = 0;
};

/**
 * Lane-batched quantised sDTW kernel.
 *
 * Holds the interleaved DP scratch, so one instance should live per
 * worker thread and be reused across calls (buffers are grown once
 * and kept).  Not thread-safe; states passed to one call must be
 * distinct objects.
 */
class BatchSdtw
{
  public:
    /** Default in-flight lanes (2-4 vector groups per backend). */
    static constexpr std::size_t kDefaultLaneCapacity = 32;

    /**
     * Outside the tests, read only by perfbench's traced twin, which
     * floors its workers' lane capacity with it.  That floor changes
     * nothing: capacity rounds up to laneWidth() (8 or 16) and the
     * Serial backend never reads it, so the stream pools size lanes
     * by dispatchBatch alone.  It is to be renamed, or dropped, with
     * that benchmark.
     * The cutover is not this constant either: a batch always folds
     * whole groups, so b jobs on a W-lane backend pay for
     * roundup(b, W) lanes of work, while thin calls fold on the
     * columns kernel at ~7 G cells/s on AVX-512, level with the
     * batched kernel at 15 of 16 lanes and ahead below.  So every
     * call short of one full vector group is thin: the default
     * cutover is laneWidth(), and setSerialCutover() overrides it.
     */
    static constexpr std::size_t kDefaultSerialCutover = 4;

    /**
     * Query rows folded per block when the reference is tiled.  The
     * block bounds how many sweeps' worth of carry state a tile edge
     * parks, and each tile's columns are streamed once per block —
     * 256 rows cuts the interleaved-state memory traffic 64x vs the
     * untiled strip-4 walk while the carry slabs stay a few tens of
     * KB.  Retire/refill happens at block edges, which is semantically
     * identical because a block never exceeds the in-flight lanes'
     * minimum remaining samples.
     */
    static constexpr std::size_t kMaxBlockRows = 256;

    explicit BatchSdtw(SdtwConfig config = hardwareConfig(),
                       std::size_t lane_capacity = kDefaultLaneCapacity,
                       SimdBackend backend = detectSimdBackend());

    /**
     * Fold every lane's query into its state against the shared
     * @p reference, ragged lengths and all.  Equivalent to calling
     * QuantSdtw::process(lane.query, reference, *lane.state) per lane
     * — same costs, same refEnd, same checkpointed row/dwell, bit for
     * bit — but up to laneCapacity() lanes advance per row fold, and
     * retired lanes are refilled from the remaining ones.  Calls
     * below the cutover fold on the columns kernel.  Calls with a
     * lane whose costs could saturate, every call of a config outside
     * the lane shape and every call on the Serial backend run the
     * serial engine.
     */
    void processMany(std::span<BatchLane> lanes,
                     std::span<const NormSample> reference);

    /**
     * Thin-vs-batched crossover threshold; 0 or 1 forces every call
     * through the batched path, SIZE_MAX every call through the thin
     * one (used by tests and benches).  The Serial backend ignores it.
     */
    void setSerialCutover(std::size_t min_lanes);

    /**
     * Column-tile width override: 0 restores the auto heuristic
     * (sized so one tile's interleaved cost/dwell working set fits in
     * about half the detected per-core L2), any other value forces
     * that many columns per tile — tests force tiny tiles, benches
     * force SIZE_MAX for an untiled A/B.
     */
    void setTileCols(std::size_t cols);
    /** The configured override (0 = auto heuristic). */
    std::size_t tileCols() const { return tileCols_; }
    /**
     * Tile width a batched fold of @p lanes in-flight lanes against a
     * @p reference_len-column reference will actually use, override
     * and heuristic applied (== reference_len when untiled).
     */
    std::size_t planTileCols(std::size_t reference_len,
                             std::size_t lanes) const;

    const SdtwConfig &config() const { return engine_.config(); }
    SimdBackend backend() const { return backend_; }
    /** Lanes per vector instruction. */
    std::size_t laneWidth() const { return width_; }
    /** Maximum lanes in flight (rounded up to a laneWidth multiple). */
    std::size_t laneCapacity() const { return capacity_; }
    /** Cumulative SIMD-slot utilisation since construction. */
    const FoldStats &foldStats() const { return foldStats_; }

  private:
    /** Fatal on a malformed lane; false when some lane's cost bound
        exceeds kCostMax, so the call must fold serially. */
    bool validate(std::span<BatchLane> lanes,
                  std::span<const NormSample> reference) const;
    void runBatched(std::span<BatchLane> lanes,
                    std::span<const NormSample> reference);
    void runColumns(std::span<BatchLane> lanes,
                    std::span<const NormSample> reference);

    QuantSdtw engine_; //!< validates config; serial fallback path
    SimdBackend backend_;
    std::size_t width_ = 1;
    std::size_t capacity_ = kDefaultLaneCapacity;
    std::size_t serialCutover_ = 1; //!< laneWidth() unless overridden
    std::size_t tileCols_ = 0; //!< column-tile override, 0 = auto
    FoldStats foldStats_{};
    int bonusShift_ = -1; //!< detail::laneShift() of the config
    detail::FoldRowFns fold_{};

    // Interleaved `[column][lane]` scratch, grown on demand.
    std::vector<Cost> rows_;
    std::vector<std::uint8_t> dwell_;
    std::vector<std::int32_t> qlane_;
    // Per-sweep tile-edge register carry slabs (see batch_kernel.hpp).
    std::vector<Cost> carry_;
};

} // namespace sf::sdtw

#endif // SF_SDTW_BATCH_HPP
