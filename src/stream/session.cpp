#include "stream/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "signal/chunk_source.hpp"
#include "stream/decision_pool.hpp"

namespace sf::stream {

namespace {

using Clock = std::chrono::steady_clock;

/** Virtual-time event kinds driving the flowcell state machines. */
enum class EventType {
    CaptureDone,   //!< strand captured; sequencing starts
    ChunkDue,      //!< next raw-signal chunk surfaces
    DecisionApply, //!< classifier outcome takes effect on the pore
    // Fault-plan events (>= ChannelDown): scheduled once at start-up
    // from the plan and exempt from the per-channel epoch guard —
    // they target the channel, not a specific read generation.
    ChannelDown,   //!< scripted outage begins (epoch = plan index)
    ChannelUp,     //!< recoverable outage ends
    StormBegin,    //!< capture storm window opens (counting only)
    HotSwapDue,    //!< reference switch (epoch = plan index)
    WashDue,       //!< nuclease wash + re-mux (epoch = plan index)
};

/**
 * One scheduled event.  @p seq breaks virtual-time ties in insertion
 * order, making the pop order — and therefore the whole decision log —
 * deterministic regardless of worker count or real-time jitter.
 */
struct Event
{
    double t = 0.0;
    std::uint64_t seq = 0;
    EventType type = EventType::CaptureDone;
    int channel = 0;
    std::uint64_t epoch = 0; //!< channel read generation at scheduling
};

struct EventAfter
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        if (a.t != b.t)
            return a.t > b.t;
        return a.seq > b.seq;
    }
};

/** Per-pore state machine. */
struct Channel
{
    /** Read being sequenced; nullptr while the pore awaits a capture,
        is parked, or has no read left to take. */
    const signal::ReadRecord *read = nullptr;
    signal::ChunkSource source;
    sdtw::ClassifierStream stream;
    /** Classifier the current read started under.  Bound at capture
        time so a mid-session hot swap quiesces at read granularity:
        in-flight streams finish under their own classifier. */
    const sdtw::SquiggleFilterClassifier *cls = nullptr;
    /** Bumped whenever the current read ends; stale events no-op. */
    std::uint64_t epoch = 0;
    bool inFlight = false;
    /** Chunks that surfaced while a decision was in flight. */
    std::vector<RawSample> backlog;
    bool backlogEnd = false;
    /** Chunks folded into the backlog buffer (conservation ledger). */
    std::uint64_t backlogChunks = 0;
    double captureDoneSec = 0.0;
    Rng rng; //!< derived from the session seed and channel index

    // ---- fault state -----------------------------------------------
    readuntil::PoreWear wear;
    std::size_t wearBucket = 0; //!< current histogram bin (gauges)
    bool down = false;          //!< scripted outage in effect
    bool worn = false;          //!< pore wore out (a wash may revive)

    /** Parked channels schedule nothing until a recovery/revival. */
    bool
    parked() const
    {
        return down || worn;
    }
};

/**
 * The virtual-time flowcell event loop, shared by run() (a pool of
 * its own) and runShared() (any DecisionService, e.g. a fleet's pool).
 * One handler per EventType; sequence() pops events in (t, seq) order
 * and dispatches them, and every end — the event queue running dry,
 * the safety limit, a service shut down underneath the loop — goes
 * through the one drain().
 *
 * Completion protocol — the happens-before chain TSan audits:
 *   1. event loop: board_.markPending(c) (slot armed under the board
 *      mutex), then service_.submit(request) (the queue mutex orders
 *      1 -> 2)
 *   2. worker: pops the request and mutates channels_[c].stream
 *      WITHOUT a lock — safe because at most one request per channel
 *      is ever in flight (ch.inFlight gating + the backlog buffer),
 *      so the worker has exclusive ownership of that stream between
 *      pop and completion;
 *   3. worker: board_.complete(c) (board mutex release orders the
 *      stream writes before 4)
 *   4. event loop: awaitDecision(c) — at DecisionApply, abortRead and
 *      drain() — returns from board_.await(c); only then does the
 *      loop read channels_[c].stream.
 * While it waits — for slot c in step 4, or for room in a full queue
 * in step 1 — the event loop may fold queued requests of any channel
 * or session itself (DecisionService::help).  It then plays the
 * worker in steps 2 and 3 under the same protocol; a decision still
 * applies only at its virtual DecisionApply time, so helping moves
 * wall time only.
 * The epoch guard makes events for finished reads no-ops, and the
 * exclusive-ownership invariant of step 2 is asserted (duplicate
 * in-flight requests and double completions panic instead of
 * corrupting a fold — see SoftwareBackend::fold and CompletionBoard).
 */
class FlowcellLoop
{
  public:
    /** @p live is ticked as the loop runs; nullptr = nobody watches. */
    FlowcellLoop(const sdtw::SquiggleFilterClassifier &classifier,
                 const SessionConfig &config,
                 std::span<const signal::ReadRecord> reads,
                 DecisionService &service, std::uint32_t session_id,
                 SessionLiveCounters *live)
        : config_(config), reads_(reads), service_(service),
          sessionId_(session_id),
          live_(live != nullptr ? *live : ownLive_),
          gauges_(live_.degradation), plan_(config.faults),
          wearEnabled_(plan_ != nullptr && plan_->wearEnabled),
          channels_(std::size_t(config.channels)),
          board_(channels_.size()), currentCls_(&classifier)
    {
        for (std::size_t c = 0; c < channels_.size(); ++c) {
            channels_[c].rng = Rng::derive(config_.seed, c);
            if (wearEnabled_)
                channels_[c].wear = readuntil::PoreWear(
                    plan_->wearModel, plan_->wearSeed, c);
        }
    }

    /** Sequence every read; call once. */
    SessionResult
    run()
    {
        if (!reads_.empty())
            sequence();
        live_.finished.store(true, std::memory_order_release);
        return std::move(out_);
    }

  private:
    void
    sequence()
    {
        // Every pore starts pristine: the live histogram gauge opens
        // with the whole flowcell in bucket 0.
        gauges_.wearBuckets[0].fetch_add(channels_.size(),
                                         std::memory_order_relaxed);
        const auto wall_start = Clock::now();
        for (int c = 0; c < config_.channels; ++c)
            beginCapture(c, 0.0);
        if (plan_ != nullptr) {
            for (std::size_t i = 0; i < plan_->dropouts.size(); ++i)
                schedule(plan_->dropouts[i].atSec, EventType::ChannelDown,
                         plan_->dropouts[i].channel, i);
            for (const CaptureStorm &s : plan_->storms)
                schedule(s.atSec, EventType::StormBegin, 0, 0);
            for (std::size_t i = 0; i < plan_->hotSwaps.size(); ++i)
                schedule(plan_->hotSwaps[i].atSec, EventType::HotSwapDue, 0,
                         i);
            for (std::size_t i = 0; i < plan_->washes.size(); ++i)
                schedule(plan_->washes[i].atSec, EventType::WashDue, 0, i);
        }

        const double max_virtual_sec = config_.maxVirtualHours * 3600.0;
        while (!events_.empty() && !serviceDown_) {
            const Event ev = events_.top();
            events_.pop();
            if (ev.t > max_virtual_sec) {
                warn("ReadUntilSession stopped at the %g h safety limit",
                     config_.maxVirtualHours);
                break;
            }
            now_ = ev.t;
            Channel &ch = channels_[std::size_t(ev.channel)];
            const bool fault_event = ev.type >= EventType::ChannelDown;
            if (!fault_event && ev.epoch != ch.epoch)
                continue; // event for a read that already finished
            switch (ev.type) {
            case EventType::CaptureDone: onCaptureDone(ev, ch); break;
            case EventType::ChunkDue: onChunkDue(ev, ch); break;
            case EventType::DecisionApply: onDecisionApply(ev, ch); break;
            case EventType::ChannelDown: onChannelDown(ev, ch); break;
            case EventType::ChannelUp: onChannelUp(ev, ch); break;
            case EventType::StormBegin: onStormBegin(); break;
            case EventType::HotSwapDue: onHotSwapDue(ev); break;
            case EventType::WashDue: onWashDue(ev); break;
            }
        }
        drain();
        finish(
            std::chrono::duration<double>(Clock::now() - wall_start).count());
    }

    // ---- event handlers, one per EventType --------------------------

    void
    onCaptureDone(const Event &ev, Channel &ch)
    {
        if (nextRead_ >= reads_.size())
            return; // no read left: the pore idles
        ch.read = &reads_[nextRead_++];
        ch.source = signal::ChunkSource(*ch.read, config_.chunkSamples());
        // The read binds the classifier CURRENT at capture time and
        // keeps it for its whole life: a hot swap mid-read would
        // invalidate the checkpointed stream.
        ch.cls = currentCls_;
        ch.stream = ch.cls->beginStream();
        ch.captureDoneSec = ev.t;
        if (ch.read->raw.empty()) {
            // Degenerate read: no signal, keep by convention.
            ch.cls->finishStream(ch.stream);
            recordDecision(ch, ev.channel, ev.t);
            endRead(ev.channel, 0.0, false, ev.t);
            return;
        }
        schedule(ev.t + config_.chunkSeconds, EventType::ChunkDue,
                 ev.channel, ch.epoch);
    }

    void
    onChunkDue(const Event &ev, Channel &ch)
    {
        const auto chunk = ch.source.next();
        ++stats_.chunksEmitted;
        live_.chunksEmitted.fetch_add(1, std::memory_order_relaxed);
        const bool end = ch.source.exhausted();
        if (ch.inFlight) {
            ch.backlog.insert(ch.backlog.end(), chunk.begin(), chunk.end());
            ch.backlogEnd |= end;
            ++ch.backlogChunks;
        } else {
            submit(ev.channel, ev.t,
                   std::vector<RawSample>(chunk.begin(), chunk.end()), end,
                   1);
        }
        if (!end)
            schedule(ev.t + config_.chunkSeconds, EventType::ChunkDue,
                     ev.channel, ch.epoch);
    }

    void
    onDecisionApply(const Event &ev, Channel &ch)
    {
        awaitDecision(std::size_t(ev.channel));
        ch.inFlight = false;
        ++stats_.decisions;
        live_.decisions.fetch_add(1, std::memory_order_relaxed);

        if (!ch.stream.decided) {
            // Intermediate snapshot: resubmit any chunks that surfaced
            // while this decision was in flight.
            if (!ch.backlog.empty() || ch.backlogEnd)
                submit(ev.channel, ev.t, std::exchange(ch.backlog, {}),
                       std::exchange(ch.backlogEnd, false),
                       std::exchange(ch.backlogChunks, 0));
            return;
        }

        recordDecision(ch, ev.channel, ev.t);
        const double rate = config_.sampleRateHz;
        const double read_samples = double(ch.read->raw.size());
        if (ch.stream.result.keep || ch.source.exhausted()) {
            // Kept (or the read ended on its own): the pore sequences
            // the strand to completion, then waits for the next
            // capture.
            endRead(ev.channel, read_samples, false,
                    std::max(ev.t, ch.captureDoneSec + read_samples / rate));
        } else {
            // Ejected mid-read: the pore sequenced what was surfaced
            // plus the decision-latency slip, then pays reversal +
            // recovery before the next capture.
            const double sequenced =
                std::min(read_samples, double(ch.source.emitted()) +
                                           config_.decisionLatencySec * rate);
            endRead(ev.channel, sequenced, true,
                    ev.t + config_.ejectLatencySec + config_.poreRecoverySec);
        }
    }

    void
    onChannelDown(const Event &ev, Channel &ch)
    {
        if (ch.parked())
            return; // already out: overlapping dropouts collapse
        countFault(&DegradationStats::dropouts, &LiveDegradation::dropouts);
        ch.down = true;
        const double down_sec = plan_->dropouts[std::size_t(ev.epoch)].downSec;
        if (down_sec > 0.0) {
            gauges_.recoveringChannels.fetch_add(1, std::memory_order_relaxed);
            schedule(ev.t + down_sec, EventType::ChannelUp, ev.channel, 0);
        } else {
            gauges_.deadChannels.fetch_add(1, std::memory_order_relaxed);
        }
        if (ch.read != nullptr)
            abortRead(ch, ev.channel, ev.t);
        else
            ++ch.epoch; // cancel a pending capture
    }

    void
    onChannelUp(const Event &ev, Channel &ch)
    {
        if (!ch.down)
            return;
        ch.down = false;
        countFault(&DegradationStats::recoveries,
                   &LiveDegradation::recoveries);
        gauges_.recoveringChannels.fetch_sub(1, std::memory_order_relaxed);
        if (ch.worn) {
            // Wore out during the outage: stays parked, but it is now
            // the wear holding it down, not the dropout.
            gauges_.deadChannels.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        beginCapture(ev.channel, ev.t);
    }

    void
    onStormBegin()
    {
        // The rate change itself lives in beginCapture (pure function
        // of virtual time); this event only counts the window for the
        // ledger.
        countFault(&DegradationStats::stormWindows,
                   &LiveDegradation::stormWindows);
    }

    void
    onHotSwapDue(const Event &ev)
    {
        currentCls_ = plan_->hotSwaps[std::size_t(ev.epoch)].classifier;
        countFault(&DegradationStats::hotSwapEpochs,
                   &LiveDegradation::hotSwapEpochs);
    }

    void
    onWashDue(const Event &ev)
    {
        countFault(&DegradationStats::washes, &LiveDegradation::washes);
        for (std::size_t c = 0; c < channels_.size(); ++c) {
            Channel &w = channels_[c];
            if (!w.worn)
                continue;
            // One revival stream per (wash, channel), derived — not
            // drawn from the channel RNG — so wash outcomes are
            // independent of how many reads the channel saw.
            Rng coin =
                Rng::derive(plan_->wearSeed + 0x9e3779b9 * (ev.epoch + 1), c);
            if (!w.wear.tryRevive(coin))
                continue;
            w.worn = false;
            countFault(&DegradationStats::poresRevived,
                       &LiveDegradation::poresRevived);
            moveWearBucket(w);
            if (!w.down) {
                gauges_.deadChannels.fetch_sub(1, std::memory_order_relaxed);
                beginCapture(int(c), ev.t);
            }
            // Still inside an outage: ChannelUp will restart it.
        }
    }

    // ---- bookkeeping ------------------------------------------------

    void
    schedule(double t, EventType type, int channel, std::uint64_t epoch)
    {
        events_.push(Event{t, seq_++, type, channel, epoch});
    }

    void
    beginCapture(int c, double t)
    {
        Channel &ch = channels_[std::size_t(c)];
        ch.read = nullptr;
        // A down or worn-out pore captures nothing until a recovery or
        // wash revival calls beginCapture again.
        if (ch.parked() || nextRead_ >= reads_.size())
            return;
        // A storm divides the mean capture delay for captures initiated
        // inside its window.  Same single RNG draw either way, so the
        // per-channel stream stays aligned with the clean run up to the
        // first storm.
        double mean = config_.captureDelayMeanSec;
        if (plan_ != nullptr)
            mean /= plan_->captureRateFactorAt(t);
        schedule(t + ch.rng.exponential(mean), EventType::CaptureDone, c,
                 ch.epoch);
    }

    /**
     * End channel @p c's read, which kept the pore sequencing for
     * @p sequenced_samples, and start the next capture at
     * @p next_capture_at (a parked pore idles instead).  Chunks still
     * in the backlog die with the read and are accounted aborted; the
     * read's pending events go stale.
     */
    void
    endRead(int c, double sequenced_samples, bool ejected,
            double next_capture_at)
    {
        Channel &ch = channels_[std::size_t(c)];
        deg_.chunksAborted += std::exchange(ch.backlogChunks, 0);
        ch.backlog.clear();
        ch.backlogEnd = false;
        // The enrichment factor weighs what was sequenced against
        // sequencing every read to completion.
        stats_.totalSamplesSequenced += sequenced_samples;
        fullTotalSamples_ += double(ch.read->raw.size());
        if (ch.read->isTarget()) {
            stats_.targetSamplesSequenced += sequenced_samples;
            fullTargetSamples_ += double(ch.read->raw.size());
        }
        advanceWear(ch, sequenced_samples, ejected);
        ++ch.epoch;
        beginCapture(c, next_capture_at);
    }

    void
    submit(int c, double t, std::vector<RawSample> samples, bool end,
           std::uint64_t chunk_count)
    {
        Channel &ch = channels_[std::size_t(c)];
        ch.inFlight = true;
        board_.markPending(std::size_t(c));
        if (!service_.submit(DecisionRequest{
                &ch.stream, ch.cls, std::move(samples), end, &board_,
                std::size_t(c), sessionId_, config_.backend, Clock::now()})) {
            // Refused: the service shut down underneath us and no
            // completion will arrive, so the loop must stop.  The
            // request never reached a worker: its chunks are accounted
            // aborted so conservation still balances.
            ch.inFlight = false;
            serviceDown_ = true;
            deg_.chunksAborted += chunk_count;
            return;
        }
        deg_.chunksFolded += chunk_count;
        schedule(t + config_.decisionLatencySec, EventType::DecisionApply, c,
                 ch.epoch);
    }

    void
    recordDecision(const Channel &ch, int c, double t)
    {
        const sdtw::Classification &r = ch.stream.result;
        out_.log.push_back(DecisionRecord{
            std::uint64_t(out_.log.size()), c, ch.read->id,
            ch.read->isTarget(), r.keep, r.cost, r.samplesUsed, r.stagesRun,
            t});
        stats_.confusion.add(ch.read->isTarget(), r.keep);
        stats_.dpRowsFolded += ch.stream.consumed;
        stats_.dpRowsNaive += ch.stream.rowsNaive;
        (r.keep ? stats_.readsKept : stats_.readsEjected) += 1;
    }

    /** Count one fault in the result's ledger and its live gauge. */
    void
    countFault(std::uint64_t DegradationStats::*ledger,
               std::atomic<std::uint64_t> LiveDegradation::*gauge)
    {
        ++(deg_.*ledger);
        (gauges_.*gauge).fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Advance a pore's wear by the time it actually spent sequencing
     * (plus the ejection reversal when it ejected) and move its live
     * histogram bucket.  The dead-channel gauge only moves for an up
     * channel — a worn pore inside an outage transfers between gauges
     * at ChannelUp.
     */
    void
    advanceWear(Channel &ch, double sequenced_samples, bool ejected)
    {
        if (!wearEnabled_)
            return;
        ch.wear.sequenceFor(sequenced_samples / config_.sampleRateHz);
        if (ejected)
            ch.wear.reverseFor(config_.ejectLatencySec);
        moveWearBucket(ch);
        if (!ch.worn && ch.wear.worn()) {
            ch.worn = true;
            countFault(&DegradationStats::poresWorn,
                       &LiveDegradation::poresWorn);
            if (!ch.down)
                gauges_.deadChannels.fetch_add(1, std::memory_order_relaxed);
        }
    }

    /** Re-bin @p ch's wear in the live histogram gauge. */
    void
    moveWearBucket(Channel &ch)
    {
        const std::size_t bucket = wearBucketOf(ch.wear.wearFraction());
        if (bucket != ch.wearBucket) {
            gauges_.wearBuckets[ch.wearBucket].fetch_sub(
                1, std::memory_order_relaxed);
            gauges_.wearBuckets[bucket].fetch_add(1,
                                                  std::memory_order_relaxed);
        }
        ch.wearBucket = bucket;
    }

    /**
     * Cut the current read short (outage hit a sequencing pore).  The
     * in-flight decision, if any, is awaited FIRST: abandoning the
     * slot while a worker still owns the stream would let the next
     * read double-arm the board (a panic) or fold a dead stream.  The
     * samples already surfaced count as sequenced.
     */
    void
    abortRead(Channel &ch, int c, double t)
    {
        if (ch.inFlight) {
            awaitDecision(std::size_t(c));
            ch.inFlight = false;
        }
        countFault(&DegradationStats::readsAborted,
                   &LiveDegradation::abortedReads);
        endRead(c,
                std::min(double(ch.read->raw.size()),
                         double(ch.source.emitted())),
                false, t);
    }

    /** Await slot @p c's decision, folding queued work while it is not
        ready instead of sleeping.  The loop's one wait. */
    void
    awaitDecision(std::size_t c)
    {
        while (!board_.ready(c) && service_.help(sessionId_)) {
        }
        board_.await(c);
    }

    /**
     * The one teardown.  An early end (safety limit, service shut
     * down) can leave decisions in flight: await them so no worker
     * completes into a dead board or folds a dead stream after the
     * loop unwinds.  The workers outlive this loop (the caller
     * joins/owns them), so every await terminates.
     */
    void
    drain()
    {
        for (std::size_t c = 0; c < channels_.size(); ++c)
            if (channels_[c].inFlight)
                awaitDecision(c);
    }

    /** The degradation ledger and aggregate statistics, once drained. */
    void
    finish(double wall_sec)
    {
        for (const Channel &ch : channels_) {
            // Backlog chunks stranded by an early teardown never
            // reached a request; account them so conservation
            // balances.
            deg_.chunksAborted += ch.backlogChunks;
            if (ch.worn || ch.down)
                ++deg_.deadChannelsAtEnd;
            ++deg_.wearHistogram[ch.wearBucket];
        }
        // "Never drops a chunk", as an always-on invariant: every chunk
        // a channel emitted either reached the decision service or was
        // accounted aborted with its read.
        if (stats_.chunksEmitted != deg_.chunksFolded + deg_.chunksAborted)
            panic("chunk conservation violated: %llu emitted vs %llu "
                  "folded + %llu aborted",
                  (unsigned long long)stats_.chunksEmitted,
                  (unsigned long long)deg_.chunksFolded,
                  (unsigned long long)deg_.chunksAborted);

        stats_.backend = config_.backend;
        stats_.readsProcessed = out_.log.size();
        stats_.virtualSeconds = now_;
        stats_.wallSeconds = wall_sec;
        stats_.chunksPerSec =
            wall_sec > 0.0 ? double(stats_.chunksEmitted) / wall_sec : 0.0;
        const auto latencies_us = board_.takeLatencies();
        if (!latencies_us.empty()) {
            stats_.latency.p50us = percentile(latencies_us, 50.0);
            stats_.latency.p90us = percentile(latencies_us, 90.0);
            stats_.latency.p99us = percentile(latencies_us, 99.0);
            stats_.latency.maxUs =
                *std::max_element(latencies_us.begin(), latencies_us.end());
        }
        if (stats_.totalSamplesSequenced > 0.0 && fullTotalSamples_ > 0.0 &&
            fullTargetSamples_ > 0.0) {
            const double with_ru =
                stats_.targetSamplesSequenced / stats_.totalSamplesSequenced;
            const double without_ru = fullTargetSamples_ / fullTotalSamples_;
            stats_.enrichmentFactor = with_ru / without_ru;
        }
    }

    const SessionConfig &config_;
    const std::span<const signal::ReadRecord> reads_;
    DecisionService &service_;
    const std::uint32_t sessionId_;
    SessionLiveCounters ownLive_; //!< ticked when the caller passes none
    SessionLiveCounters &live_;
    LiveDegradation &gauges_;
    const FaultPlan *const plan_;
    const bool wearEnabled_;

    std::vector<Channel> channels_;
    CompletionBoard board_;
    std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
    std::uint64_t seq_ = 0;
    std::size_t nextRead_ = 0;
    /** Reference in effect for NEW captures; advanced by HotSwapDue. */
    const sdtw::SquiggleFilterClassifier *currentCls_;
    bool serviceDown_ = false; //!< a submit was refused: stop
    double now_ = 0.0;         //!< virtual time of the last event

    SessionResult out_;
    SessionStats &stats_ = out_.stats;
    DegradationStats &deg_ = out_.stats.degradation;
    /** Samples sequencing every read to completion would take. */
    double fullTargetSamples_ = 0.0;
    double fullTotalSamples_ = 0.0;
};

} // namespace

ReadUntilSession::ReadUntilSession(
    const sdtw::SquiggleFilterClassifier &classifier,
    SessionConfig config)
    : classifier_(classifier), config_(config)
{
    if (config_.channels <= 0)
        fatal("ReadUntilSession needs at least one channel");
    // Virtual-time fields are checked before any use: chunkSamples()
    // converts to size_t (undefined for a NaN or negative product), a
    // negative delay runs the clock backwards, and a NaN safety stop
    // never trips.
    const auto require = [](double v, bool positive, const char *name) {
        if (!std::isfinite(v) || v < 0.0 || (positive && v == 0.0))
            fatal("ReadUntilSession %s must be finite and %s", name,
                  positive ? "positive" : "non-negative");
    };
    require(config_.sampleRateHz, true, "sampleRateHz");
    require(config_.chunkSeconds, true, "chunkSeconds");
    require(config_.captureDelayMeanSec, false, "captureDelayMeanSec");
    require(config_.ejectLatencySec, false, "ejectLatencySec");
    require(config_.poreRecoverySec, false, "poreRecoverySec");
    require(config_.decisionLatencySec, false, "decisionLatencySec");
    if (!(config_.maxVirtualHours > 0.0))
        fatal("ReadUntilSession maxVirtualHours must be positive");
    if (config_.chunkSamples() == 0)
        fatal("ReadUntilSession chunk must cover at least one sample");
    if (config_.workers == 0)
        config_.workers = std::max(1u, std::thread::hardware_concurrency());
    if (config_.queueCapacity == 0 || config_.dispatchBatch == 0)
        fatal("ReadUntilSession queue capacity and dispatch batch must "
              "be positive");
    if (config_.backend == DecisionBackendKind::Asic)
        checkAsicImplementable(config_.asic, classifier_.config());
    if (config_.faults != nullptr) {
        config_.faults->validate(config_.channels);
        // A hot swap re-points captures at a new reference while the
        // worker kernels (sized once from the primary's SdtwConfig)
        // keep running — so every swap target must agree on the
        // kernel shape, exactly like fleet sessions.
        for (const ReferenceHotSwap &h : config_.faults->hotSwaps)
            if (h.classifier->config() != classifier_.config())
                fatal("FaultPlan hot-swap classifier disagrees with "
                      "the session on kernel SdtwConfig (metric/refdel/"
                      "bonus/dwell); swaps may change the reference "
                      "squiggle, not the kernel shape");
    }
}

SessionResult
ReadUntilSession::run(std::span<const signal::ReadRecord> reads) const
{
    const auto wall_start = Clock::now();
    // One Stat session, no quota, no linger: the pool reduces to a
    // plain bounded FIFO in front of config().workers workers.
    PoolConfig pool_config;
    pool_config.workers = config_.workers;
    pool_config.queueCapacity = config_.queueCapacity;
    pool_config.dispatchBatch = config_.dispatchBatch;
    pool_config.statBurst = 1;
    pool_config.dispatchLingerUs = 0;
    DecisionPool pool(pool_config);
    const std::uint32_t session_id =
        pool.registerSession(QosClass::Stat, config_.backend);
    pool.start(classifier_.config(), config_.asic);
    SessionResult out = runShared(pool, reads, session_id);
    pool.shutdown();
    // Pool-level statistics, and the wall clock including the drain
    // and join so throughput numbers stay comparable with earlier
    // baselines of this method.
    const double wall_sec =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    out.stats.wallSeconds = wall_sec;
    out.stats.chunksPerSec =
        wall_sec > 0.0 ? double(out.stats.chunksEmitted) / wall_sec : 0.0;
    const PoolCounters &counters = pool.counters();
    out.stats.dispatches = counters.dispatches;
    out.stats.helpedDispatches = counters.helpedDispatches;
    out.stats.meanBatchSize =
        out.stats.dispatches > 0 ? double(counters.dispatchedRequests) /
                                       double(out.stats.dispatches)
                                 : 0.0;
    out.stats.hwModel = pool.modeledStats(session_id);
    return out;
}

SessionResult
ReadUntilSession::runShared(DecisionService &service,
                            std::span<const signal::ReadRecord> reads,
                            std::uint32_t session_id,
                            SessionLiveCounters *live) const
{
    return FlowcellLoop(classifier_, config_, reads, service, session_id,
                        live)
        .run();
}

} // namespace sf::stream
