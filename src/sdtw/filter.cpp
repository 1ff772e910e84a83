#include "sdtw/filter.hpp"

#include <algorithm>
#include <thread>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "sdtw/batch.hpp"

namespace sf::sdtw {

SquiggleFilterClassifier::SquiggleFilterClassifier(
    const pore::ReferenceSquiggle &reference, SdtwConfig config)
    : reference_(reference), engine_(config)
{
    if (reference_.size() == 0)
        fatal("SquiggleFilterClassifier requires a non-empty reference");
    // Default schedule: single 2000-sample stage; the threshold must
    // be calibrated by the caller before classify() is meaningful.
    stages_ = {FilterStage{2000, kCostMax}};
}

void
SquiggleFilterClassifier::setStages(std::vector<FilterStage> stages)
{
    if (stages.empty())
        fatal("filter needs at least one stage");
    for (std::size_t s = 1; s < stages.size(); ++s) {
        if (stages[s].prefixSamples <= stages[s - 1].prefixSamples)
            fatal("filter stage prefixes must be strictly increasing");
    }
    stages_ = std::move(stages);
}

void
SquiggleFilterClassifier::setSingleStage(std::size_t prefix_samples,
                                         Cost threshold)
{
    setStages({FilterStage{prefix_samples, threshold}});
}

Classification
SquiggleFilterClassifier::classify(std::span<const RawSample> raw) const
{
    // Offline classification is the streaming path fed one giant
    // chunk: identical chunk decomposition at stage boundaries,
    // identical cumulative normalisation, identical DP folds — so the
    // two paths cannot drift apart.
    ClassifierStream stream = beginStream();
    feedChunk(stream, raw);
    return finishStream(stream);
}

ClassifierStream
SquiggleFilterClassifier::beginStream() const
{
    return ClassifierStream{};
}

void
SquiggleFilterClassifier::foldSlice(
    ClassifierStream &stream, std::span<const RawSample> slice) const
{
    if (slice.empty())
        return;
    const auto normalized = stream.normalizer.normalizeChunk(slice);
    const auto aligned = engine_.process(
        std::span<const NormSample>(normalized.samples),
        std::span<const NormSample>(reference_.samples()), stream.dp);
    stream.result.cost = aligned.cost;
    stream.result.refEnd = aligned.refEnd;
    stream.consumed += slice.size();
    stream.rowsFolded += slice.size();
}

/**
 * Evaluate the stage the stream currently sits in.  @p truncated
 * mirrors classify()'s short-read handling: the threshold is scaled
 * proportionally and the stage becomes final.
 */
void
SquiggleFilterClassifier::evaluateStage(ClassifierStream &stream,
                                        bool truncated) const
{
    const FilterStage &stage = stages_[stream.stageIdx];
    stream.result.samplesUsed = stream.consumed;
    stream.result.stagesRun = stream.stageIdx + 1;
    // One full-prefix re-alignment is what the non-checkpointed
    // scheme would have spent to reach this same decision.
    stream.rowsNaive += stream.consumed;

    // Reads shorter than the stage prefix accumulate proportionally
    // less cost; scale the threshold to match.
    Cost threshold = stage.threshold;
    if (truncated && stage.prefixSamples > 0) {
        threshold = Cost(double(stage.threshold) *
                         double(stream.consumed) /
                         double(stage.prefixSamples));
    }

    const bool last =
        (stream.stageIdx + 1 == stages_.size()) || truncated;
    if (stream.result.cost > threshold) {
        stream.result.keep = false;
        stream.decided = true;
    } else if (last) {
        stream.result.keep = true;
        stream.decided = true;
    }
    ++stream.stageIdx;
}

const Classification &
SquiggleFilterClassifier::feedChunk(ClassifierStream &stream,
                                    std::span<const RawSample> chunk) const
{
    if (stream.decided)
        return stream.result;
    // Fold every stage boundary the new chunk crosses.  Completed
    // stages are normalised straight out of the caller's buffer (or
    // out of `pending` topped up to the boundary); only the
    // sub-boundary tail is copied into `pending`, so the offline
    // classify() path never buffers more than the final partial
    // stage.
    std::size_t used = 0;
    while (!stream.decided && stream.stageIdx < stages_.size()) {
        const std::size_t prefix =
            stages_[stream.stageIdx].prefixSamples;
        const std::size_t have =
            stream.samplesSeen() + (chunk.size() - used);
        if (have < prefix)
            break;
        const std::size_t need = prefix - stream.consumed;
        if (stream.pending.empty()) {
            foldSlice(stream, chunk.subspan(used, need));
            used += need;
        } else {
            // pending always holds less than a full stage (else the
            // previous feed would have folded it).
            const std::size_t from_chunk = need - stream.pending.size();
            stream.pending.insert(
                stream.pending.end(), chunk.begin() + std::ptrdiff_t(used),
                chunk.begin() + std::ptrdiff_t(used + from_chunk));
            used += from_chunk;
            foldSlice(stream,
                      std::span<const RawSample>(stream.pending));
            stream.pending.clear();
        }
        evaluateStage(stream, /*truncated=*/false);
    }
    if (!stream.decided)
        stream.pending.insert(stream.pending.end(),
                              chunk.begin() + std::ptrdiff_t(used),
                              chunk.end());
    return stream.result;
}

const Classification &
SquiggleFilterClassifier::finishStream(ClassifierStream &stream) const
{
    if (stream.decided)
        return stream.result;
    if (stream.samplesSeen() == 0) {
        // Nothing measured yet: keep sequencing, no evidence either way.
        stream.result.keep = true;
        stream.decided = true;
        return stream.result;
    }
    // The read ended inside stages_[stageIdx] (feedChunk folded every
    // completed stage): fold the tail and decide on the scaled
    // threshold, exactly like classify() on a short read.
    foldSlice(stream, std::span<const RawSample>(stream.pending));
    stream.pending.clear();
    evaluateStage(stream, /*truncated=*/true);
    stream.decided = true; // truncated stages always decide
    return stream.result;
}

void
SquiggleFilterClassifier::feedChunkBatch(std::span<StreamFeed> feeds,
                                         BatchSdtw &kernel) const
{
    const SdtwConfig &kcfg = kernel.config();
    const SdtwConfig &cfg = engine_.config();
    if (kcfg != cfg) {
        fatal("feedChunkBatch kernel config (%s) does not match the "
              "classifier (%s)",
              kcfg.describe().c_str(), cfg.describe().c_str());
    }

    /** Per-feed progress through this call. */
    struct FeedCursor
    {
        std::size_t used = 0;  //!< chunk samples consumed so far
        bool tailDone = false; //!< no further stage boundary reachable
        bool finished = false; //!< nothing left to do this call
        std::vector<NormSample> norm; //!< this round's slice
    };
    /** Stage evaluation owed to a feed once its round's fold lands. */
    struct PendingEval
    {
        std::size_t feed = 0;
        std::size_t lane = 0;
        std::size_t sliceLen = 0;
        bool truncated = false;
        bool clearPending = false;
    };

    std::vector<FeedCursor> cursors(feeds.size());
    std::vector<BatchLane> lanes;
    std::vector<PendingEval> evals;

    // Round loop: every round gathers at most one stage-boundary
    // slice per undecided stream, normalises it with that stream's
    // cumulative statistics (same slice sequence as the serial
    // feedChunk, so identical statistics), folds all slices as one
    // lane batch, then applies the stage decisions.  Streams whose
    // chunk crosses several boundaries simply take several rounds.
    while (true) {
        lanes.clear();
        evals.clear();
        for (std::size_t i = 0; i < feeds.size(); ++i) {
            FeedCursor &cur = cursors[i];
            if (cur.finished)
                continue;
            StreamFeed &feed = feeds[i];
            if (feed.stream == nullptr)
                fatal("feedChunkBatch feed needs a stream");
            ClassifierStream &st = *feed.stream;
            if (st.decided) { // mirrors feedChunk()'s early return
                cur.finished = true;
                continue;
            }

            if (!cur.tailDone) {
                if (st.stageIdx < stages_.size()) {
                    const std::size_t prefix =
                        stages_[st.stageIdx].prefixSamples;
                    const std::size_t have =
                        st.samplesSeen() + (feed.chunk.size() - cur.used);
                    if (have >= prefix) {
                        // Same slice assembly as feedChunk(): straight
                        // from the chunk, or pending topped up to the
                        // boundary.
                        const std::size_t need = prefix - st.consumed;
                        std::span<const RawSample> slice;
                        bool clear_pending = false;
                        if (st.pending.empty()) {
                            slice = feed.chunk.subspan(cur.used, need);
                            cur.used += need;
                        } else {
                            const std::size_t from_chunk =
                                need - st.pending.size();
                            st.pending.insert(
                                st.pending.end(),
                                feed.chunk.begin() +
                                    std::ptrdiff_t(cur.used),
                                feed.chunk.begin() +
                                    std::ptrdiff_t(cur.used + from_chunk));
                            cur.used += from_chunk;
                            slice =
                                std::span<const RawSample>(st.pending);
                            clear_pending = true;
                        }
                        cur.norm = st.normalizer.normalizeChunk(slice)
                                       .samples;
                        evals.push_back(PendingEval{
                            i, lanes.size(), slice.size(),
                            /*truncated=*/false, clear_pending});
                        lanes.push_back(
                            BatchLane{&st.dp, cur.norm, {}});
                        continue; // one slice per stream per round
                    }
                }
                // No boundary reachable any more: bank the remainder,
                // exactly like feedChunk()'s trailing pending insert.
                st.pending.insert(st.pending.end(),
                                  feed.chunk.begin() +
                                      std::ptrdiff_t(cur.used),
                                  feed.chunk.end());
                cur.used = feed.chunk.size();
                cur.tailDone = true;
            }

            if (!feed.endOfRead) {
                cur.finished = true;
                continue;
            }
            // finishStream() semantics for the truncated tail.
            if (st.samplesSeen() == 0) {
                st.result.keep = true;
                st.decided = true;
                cur.finished = true;
                continue;
            }
            if (st.pending.empty()) {
                // Empty tail: no DP fold, straight to the scaled-
                // threshold decision (foldSlice() no-ops on empty).
                evaluateStage(st, /*truncated=*/true);
                st.decided = true;
                cur.finished = true;
                continue;
            }
            cur.norm = st.normalizer
                           .normalizeChunk(std::span<const RawSample>(
                               st.pending))
                           .samples;
            evals.push_back(PendingEval{i, lanes.size(),
                                        st.pending.size(),
                                        /*truncated=*/true,
                                        /*clearPending=*/true});
            lanes.push_back(BatchLane{&st.dp, cur.norm, {}});
        }
        if (lanes.empty())
            break;

        kernel.processMany(
            lanes, std::span<const NormSample>(reference_.samples()));

        for (const PendingEval &e : evals) {
            ClassifierStream &st = *feeds[e.feed].stream;
            const QuantSdtw::Result &folded = lanes[e.lane].result;
            st.result.cost = folded.cost;
            st.result.refEnd = folded.refEnd;
            st.consumed += e.sliceLen;
            st.rowsFolded += e.sliceLen;
            if (e.clearPending)
                st.pending.clear();
            evaluateStage(st, e.truncated);
            if (e.truncated) {
                st.decided = true; // truncated stages always decide
                cursors[e.feed].finished = true;
            }
        }
    }
}

std::vector<Classification>
SquiggleFilterClassifier::processBatch(
    std::span<const signal::ReadRecord> reads,
    unsigned max_threads) const
{
    std::vector<Classification> results(reads.size());
    // Two levels of parallelism: worker threads over blocks of reads,
    // and SIMD lanes over the reads inside each block.  Each block
    // drives its reads through the batched streaming path (one giant
    // chunk per read), which classify() is also built on, so results
    // are bit-identical to the serial per-read loop.  The block size
    // is capped so every worker thread gets work even for small
    // batches — thread fan-out beats SIMD occupancy when the two
    // compete (the kernel falls back to its serial path for tiny
    // blocks anyway).
    const unsigned workers =
        max_threads != 0 ? max_threads
                         : std::max(1u, std::thread::hardware_concurrency());
    const std::size_t block = std::min<std::size_t>(
        BatchSdtw::kDefaultLaneCapacity * 2,
        std::max<std::size_t>(1, (reads.size() + workers - 1) / workers));
    const std::size_t blocks = (reads.size() + block - 1) / block;
    parallelFor(
        blocks,
        [&](std::size_t b) {
            BatchSdtw kernel(engine_.config());
            const std::size_t begin = b * block;
            const std::size_t end =
                std::min(begin + block, reads.size());
            std::vector<ClassifierStream> streams(end - begin);
            std::vector<StreamFeed> feeds;
            feeds.reserve(end - begin);
            for (std::size_t i = begin; i < end; ++i) {
                streams[i - begin] = beginStream();
                feeds.push_back(StreamFeed{&streams[i - begin],
                                           reads[i].raw, true});
            }
            feedChunkBatch(feeds, kernel);
            for (std::size_t i = begin; i < end; ++i)
                results[i] = streams[i - begin].result;
        },
        max_threads);
    return results;
}

std::vector<FilterStage>
uniformStageSchedule(std::size_t samples_per_decision,
                     std::size_t num_decisions, Cost threshold_at_2000)
{
    if (samples_per_decision == 0 || num_decisions == 0)
        fatal("uniformStageSchedule needs a positive stride and depth");
    std::vector<FilterStage> stages(num_decisions);
    for (std::size_t i = 0; i < num_decisions; ++i) {
        const std::size_t prefix = (i + 1) * samples_per_decision;
        stages[i].prefixSamples = prefix;
        stages[i].threshold = Cost(double(threshold_at_2000) *
                                   double(prefix) / 2000.0);
    }
    return stages;
}

QuantSdtw::Result
SquiggleFilterClassifier::score(std::span<const RawSample> raw,
                                std::size_t prefix_samples) const
{
    const std::size_t len = std::min(prefix_samples, raw.size());
    if (len == 0)
        fatal("score() needs at least one raw sample");
    const auto normalized =
        MeanMadNormalizer::normalize(raw.subspan(0, len));
    return engine_.align(std::span<const NormSample>(normalized),
                         std::span<const NormSample>(reference_.samples()));
}

} // namespace sf::sdtw
