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
    // Positive prefixes mean every stage slice holds a sample.
    if (stages.front().prefixSamples == 0)
        fatal("filter stage prefixes must be positive");
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

/**
 * Evaluate the stage the stream currently sits in.  @p truncated
 * mirrors classify()'s short-read handling: the threshold is scaled
 * proportionally and the stage becomes final, so it always decides.
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

std::optional<SquiggleFilterClassifier::StageSlice>
SquiggleFilterClassifier::nextSlice(const StreamFeed &feed,
                                    std::size_t &used) const
{
    if (feed.stream == nullptr)
        fatal("stage walk needs a stream");
    ClassifierStream &stream = *feed.stream;
    if (stream.decided)
        return std::nullopt;
    // An undecided stream always sits before its last stage (the last
    // evaluation decides), so stages_[stageIdx] exists.
    const std::span<const RawSample> chunk = feed.chunk;
    const std::size_t prefix = stages_[stream.stageIdx].prefixSamples;
    if (stream.samplesSeen() + (chunk.size() - used) >= prefix) {
        // Completed stages are normalised straight out of the caller's
        // buffer, or out of `pending` topped up to the boundary
        // (pending always holds less than a full stage, else an
        // earlier slice would have taken it); only the sub-boundary
        // tail is ever copied, so the offline classify() path never
        // buffers more than the final partial stage.
        const std::size_t need = prefix - stream.consumed;
        if (stream.pending.empty()) {
            used += need;
            return StageSlice{.raw = chunk.subspan(used - need, need)};
        }
        const std::size_t from_chunk = need - stream.pending.size();
        stream.pending.insert(
            stream.pending.end(), chunk.begin() + std::ptrdiff_t(used),
            chunk.begin() + std::ptrdiff_t(used + from_chunk));
        used += from_chunk;
        return StageSlice{.raw = stream.pending, .fromPending = true};
    }
    // No boundary reachable: bank the rest of the chunk.
    stream.pending.insert(stream.pending.end(),
                          chunk.begin() + std::ptrdiff_t(used), chunk.end());
    used = chunk.size();
    if (!feed.endOfRead)
        return std::nullopt;
    // The read ended inside stages_[stageIdx]: its tail is decided on
    // the scaled threshold, exactly like classify() on a short read.
    if (stream.samplesSeen() == 0) {
        // Nothing measured yet: keep sequencing, no evidence either way.
        stream.result.keep = true;
        stream.decided = true;
        return std::nullopt;
    }
    if (stream.pending.empty()) {
        // The read ended exactly on a boundary: no fold is owed.
        evaluateStage(stream, /*truncated=*/true);
        return std::nullopt;
    }
    return StageSlice{
        .raw = stream.pending, .fromPending = true, .truncated = true};
}

void
SquiggleFilterClassifier::applySlice(ClassifierStream &stream,
                                     const StageSlice &slice,
                                     const QuantSdtw::Result &folded) const
{
    stream.result.cost = folded.cost;
    stream.result.refEnd = folded.refEnd;
    stream.consumed += slice.raw.size();
    if (slice.fromPending)
        stream.pending.clear();
    evaluateStage(stream, slice.truncated);
}

void
SquiggleFilterClassifier::walkSerial(const StreamFeed &feed) const
{
    std::size_t used = 0;
    while (const auto slice = nextSlice(feed, used)) {
        const auto normalized =
            feed.stream->normalizer.normalizeChunk(slice->raw);
        applySlice(*feed.stream, *slice,
                   engine_.process(
                       std::span<const NormSample>(normalized.samples),
                       std::span<const NormSample>(reference_.samples()),
                       feed.stream->dp));
    }
}

const Classification &
SquiggleFilterClassifier::feedChunk(ClassifierStream &stream,
                                    std::span<const RawSample> chunk) const
{
    walkSerial(StreamFeed{&stream, chunk, false});
    return stream.result;
}

const Classification &
SquiggleFilterClassifier::finishStream(ClassifierStream &stream) const
{
    walkSerial(StreamFeed{&stream, {}, true});
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
    struct Cursor
    {
        std::size_t used = 0;  //!< chunk samples walked so far
        bool done = false;     //!< the walk owes no further slice
        StageSlice slice;      //!< this round's slice
        std::vector<NormSample> norm; //!< its normalised samples
    };
    std::vector<Cursor> cursors(feeds.size());
    std::vector<BatchLane> lanes;

    // Round loop: every round takes the next slice of every undecided
    // stream from the stage walk, normalises it with that stream's
    // cumulative statistics (same slice sequence as the serial walk,
    // so identical statistics), folds all slices as one lane batch,
    // then applies them in feed order.  Streams whose chunk crosses
    // several boundaries simply take several rounds.
    while (true) {
        lanes.clear();
        for (std::size_t i = 0; i < feeds.size(); ++i) {
            Cursor &cur = cursors[i];
            if (cur.done)
                continue;
            const auto slice = nextSlice(feeds[i], cur.used);
            if (!slice) {
                cur.done = true;
                continue;
            }
            ClassifierStream &st = *feeds[i].stream;
            cur.slice = *slice;
            cur.norm = st.normalizer.normalizeChunk(slice->raw).samples;
            lanes.push_back(BatchLane{&st.dp, cur.norm, {}});
        }
        if (lanes.empty())
            break;

        kernel.processMany(
            lanes, std::span<const NormSample>(reference_.samples()));

        std::size_t lane = 0;
        for (std::size_t i = 0; i < feeds.size(); ++i) {
            if (!cursors[i].done)
                applySlice(*feeds[i].stream, cursors[i].slice,
                           lanes[lane++].result);
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
