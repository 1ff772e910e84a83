#ifndef SF_SDTW_FILTER_HPP
#define SF_SDTW_FILTER_HPP

/**
 * @file
 * The SquiggleFilter read classifier (paper §4.5, §4.6).
 *
 * Aligns a read's raw-signal prefix against the precomputed reference
 * squiggle and ejects the read when the alignment cost exceeds a
 * threshold.  Supports the optional multi-stage scheme: stage 1 looks
 * at a short prefix with a permissive threshold (ejecting only clear
 * non-targets early), later stages look at longer prefixes with
 * aggressive thresholds, reusing the checkpointed DP state instead of
 * recomputing.
 */

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "pore/reference_squiggle.hpp"
#include "sdtw/engine.hpp"
#include "sdtw/normalizer.hpp"
#include "signal/read.hpp"

namespace sf::sdtw {

class BatchSdtw;

/** One filtering stage: examine a prefix, compare against a threshold. */
struct FilterStage
{
    std::size_t prefixSamples = 2000; //!< raw samples examined
    Cost threshold = 0;               //!< eject when cost exceeds this
};

/** Outcome of classifying one read. */
struct Classification
{
    bool keep = false;          //!< true: continue sequencing (target)
    Cost cost = 0;              //!< final alignment cost
    std::size_t refEnd = 0;     //!< best alignment end in the reference
    std::size_t samplesUsed = 0;//!< raw samples consumed for the call
    std::size_t stagesRun = 0;  //!< stages evaluated before deciding
};

/**
 * Checkpointed per-read state for the streaming API.
 *
 * One ClassifierStream models one read in flight on one pore: raw
 * chunks are appended as they arrive, and whenever the accumulated
 * signal crosses the next stage boundary the pending slice is
 * normalised with cumulative statistics and folded into the saved DP
 * row — O(new samples) per decision instead of re-aligning the whole
 * prefix, exactly what the hardware's checkpointed systolic array
 * does (§4.6).  One stage walk cuts every feed into those slices:
 * classify(), feedChunk()/finishStream() and feedChunkBatch() differ
 * only in which engine folds them, so streaming, offline and batched
 * results are bit-identical by construction.
 */
struct ClassifierStream
{
    MeanMadNormalizer normalizer; //!< cumulative mean/MAD statistics
    QuantSdtw::State dp;          //!< checkpointed DP row + dwells
    std::vector<RawSample> pending; //!< arrived but not yet folded
    /** Raw samples folded into the DP: one DP row each, so this is
        also the incremental scheme's work. */
    std::size_t consumed = 0;
    std::size_t stageIdx = 0;     //!< next stage to evaluate
    bool decided = false;         //!< a final keep/eject was reached
    Classification result;        //!< latest cost/decision snapshot

    /** Rows a full prefix re-alignment per decision would have cost. */
    std::uint64_t rowsNaive = 0;

    /** Raw samples seen so far (folded + pending). */
    std::size_t samplesSeen() const { return consumed + pending.size(); }
};

/**
 * One stream's work item for a lane-batched dispatch: the chunk that
 * just arrived for it, and whether the read ended with this chunk.
 */
struct StreamFeed
{
    ClassifierStream *stream = nullptr;
    std::span<const RawSample> chunk{};
    bool endOfRead = false;
};

/** Squiggle-space Read Until classifier. */
class SquiggleFilterClassifier
{
  public:
    /**
     * @param reference precomputed reference squiggle (both strands)
     * @param config DP recurrence switches (defaults to the hardware
     *        configuration of §4.7)
     */
    explicit SquiggleFilterClassifier(
        const pore::ReferenceSquiggle &reference,
        SdtwConfig config = hardwareConfig());

    /**
     * Install the stage schedule.  Prefix lengths must be strictly
     * increasing; the final stage's threshold decides keep-vs-eject,
     * earlier thresholds only eject.
     */
    void setStages(std::vector<FilterStage> stages);

    /** Convenience: single-stage filtering. */
    void setSingleStage(std::size_t prefix_samples, Cost threshold);

    /** Classify a read from its raw signal. */
    Classification classify(std::span<const RawSample> raw) const;

    /**
     * Start streaming a new read.  Feed chunks with feedChunk() as
     * they arrive and call finishStream() if the read ends before the
     * final stage decided.
     */
    ClassifierStream beginStream() const;

    /**
     * Append one raw-signal chunk (any size, including empty) to the
     * stream and fold every stage boundary it crosses into the
     * checkpointed DP state.  Returns the latest snapshot; once
     * stream.decided is true further chunks are ignored.
     *
     * Feeding a read in chunks produces bit-identical costs and
     * decisions to classify() on the same prefix, regardless of how
     * the chunks are split.
     */
    const Classification &feedChunk(ClassifierStream &stream,
                                    std::span<const RawSample> chunk) const;

    /**
     * The read ended (or was truncated): evaluate the pending tail
     * against the current stage's proportionally scaled threshold,
     * exactly as classify() does for reads shorter than a stage
     * prefix, and finalise the decision.
     */
    const Classification &finishStream(ClassifierStream &stream) const;

    /**
     * Feed one chunk into many independent streams at once, gathering
     * the DP folds of all of them into SIMD lane batches on
     * @p kernel (whose config must equal this classifier's).  Each
     * round takes the next stage slice of every undecided stream from
     * the same walk feedChunk()+finishStream() run, folds them all in
     * one kernel call and applies them, so the result is exactly
     * equivalent to feedChunk()+optional finishStream() per feed —
     * same costs, decisions, stage counts and checkpoint states, bit
     * for bit.  Streams must be distinct objects; decided streams are
     * skipped like feedChunk() does.
     */
    void feedChunkBatch(std::span<StreamFeed> feeds,
                        BatchSdtw &kernel) const;

    /**
     * Classify every read in @p reads, fanning the independent
     * alignments across up to @p max_threads worker threads
     * (0 = hardware concurrency) and lane-batching the sDTW folds
     * within each worker (SIMD inter-read parallelism on top of
     * thread parallelism).  Models the pore-parallel accelerator
     * tiles of §5.1: results are identical to calling classify() per
     * read, in read order.
     */
    std::vector<Classification>
    processBatch(std::span<const signal::ReadRecord> reads,
                 unsigned max_threads = 0) const;

    /**
     * Alignment cost of the first @p prefix_samples of @p raw without
     * any thresholding (used for calibration and the cost-distribution
     * experiments).
     */
    QuantSdtw::Result score(std::span<const RawSample> raw,
                            std::size_t prefix_samples) const;

    /** The installed stage schedule. */
    const std::vector<FilterStage> &stages() const { return stages_; }

    /** The DP configuration in effect. */
    const SdtwConfig &config() const { return engine_.config(); }

    /** The reference squiggle being filtered against. */
    const pore::ReferenceSquiggle &reference() const { return reference_; }

  private:
    /** One slice of raw signal a stream owes its DP row. */
    struct StageSlice
    {
        std::span<const RawSample> raw; //!< samples to normalise + fold
        bool fromPending = false; //!< raw views the stream's pending
        bool truncated = false;   //!< end-of-read tail: final stage
    };

    /**
     * The stage walk: the next slice @p feed's stream owes, taking
     * chunk samples from @p used on, or nothing once the rest of the
     * chunk is banked in `pending` (or the stream is decided).  A
     * slice runs up to the next stage boundary — straight from the
     * chunk, or `pending` topped up to the boundary — or, at end of
     * read, is the truncated tail.  An empty read is decided keep,
     * and a read ending exactly on a boundary is decided on the
     * scaled threshold, without a slice.
     */
    std::optional<StageSlice> nextSlice(const StreamFeed &feed,
                                        std::size_t &used) const;
    /** Apply @p slice once @p folded holds its DP fold: take its
        cost, count its samples as folded, drop `pending` if it was
        the source, and evaluate the stage. */
    void applySlice(ClassifierStream &stream, const StageSlice &slice,
                    const QuantSdtw::Result &folded) const;
    /** Walk @p feed, folding each slice on the serial engine. */
    void walkSerial(const StreamFeed &feed) const;
    /** Threshold-check the current stage (truncated = short read). */
    void evaluateStage(ClassifierStream &stream, bool truncated) const;

    const pore::ReferenceSquiggle &reference_;
    QuantSdtw engine_;
    std::vector<FilterStage> stages_;
};

/**
 * Build a decision schedule with a stage every @p samples_per_decision
 * raw samples, @p num_decisions stages deep, thresholds scaled
 * linearly with prefix length from @p threshold_at_2000 (the
 * calibrated 2000-sample operating point).  This is the per-chunk
 * Read Until cadence: a streaming session re-examines the read at
 * every chunk until the final stage keeps it or any stage ejects it.
 */
std::vector<FilterStage>
uniformStageSchedule(std::size_t samples_per_decision,
                     std::size_t num_decisions, Cost threshold_at_2000);

} // namespace sf::sdtw

#endif // SF_SDTW_FILTER_HPP
