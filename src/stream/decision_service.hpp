#ifndef SF_STREAM_DECISION_SERVICE_HPP
#define SF_STREAM_DECISION_SERVICE_HPP

/**
 * @file
 * The seam between a Read Until session's virtual-time event loop and
 * whatever executes its sDTW decision requests.
 *
 * The one implementation is stream::DecisionPool
 * (decision_pool.hpp): ReadUntilSession::run() drives a pool of one
 * session, fleet::FleetOrchestrator shards many sessions over one
 * shared pool.  Both meet at DecisionService: the event loop submits
 * DecisionRequests — submit() blocks under backpressure, so an
 * outrunning session is throttled at capture time and chunks are
 * never dropped — and awaits completion on its session-owned
 * CompletionBoard, while the worker side folds each dispatch's
 * requests as SIMD lane batches with SoftwareBackend::fold().  An
 * event loop about to block may help() fold up to one queued dispatch
 * instead, but never work that an idle worker would fold.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"
#include "sdtw/filter.hpp"
#include "stream/decision_backend.hpp"
#include "stream/fault_plan.hpp"

namespace sf::sdtw {
class BatchSdtw;
struct FoldStats;
}

namespace sf::stream {

/**
 * Per-session completion rendezvous: one slot per channel.  The event
 * loop marks a slot pending before submitting, a worker completes it
 * after folding the request's stream, and the event loop awaits it at
 * DecisionApply time.  The mutex edge is what publishes the worker's
 * ClassifierStream writes to the event loop (see the protocol comment
 * in session.cpp); the at-most-one-request-per-slot invariant is
 * asserted — a double completion panics instead of corrupting a fold.
 */
class CompletionBoard
{
  public:
    explicit CompletionBoard(std::size_t slots) : ready_(slots, 1)
    {
        latenciesUs_.reserve(slots * 8);
    }

    CompletionBoard(const CompletionBoard &) = delete;
    CompletionBoard &operator=(const CompletionBoard &) = delete;

    /** Arm @p slot before submitting its request (event-loop side). */
    void
    markPending(std::size_t slot)
    {
        std::lock_guard lock(mutex_);
        ready_[slot] = 0;
    }

    /** Complete @p slot, recording its wall latency (worker side). */
    void
    complete(std::size_t slot, double latency_us)
    {
        std::lock_guard lock(mutex_);
        if (ready_[slot] != 0)
            panic("double completion for slot %zu: a second "
                  "request was submitted before DecisionApply "
                  "consumed the first",
                  slot);
        ready_[slot] = 1;
        latenciesUs_.push_back(latency_us);
        // Notify UNDER the mutex: the board lives on the event loop's
        // stack and is destroyed as soon as the final await() returns,
        // so the woken waiter must not be able to get past the mutex
        // until this thread is fully out of the condition variable.
        cv_.notify_all();
    }

    /** Whether @p slot has no request in flight (non-blocking). */
    bool
    ready(std::size_t slot)
    {
        std::lock_guard lock(mutex_);
        return ready_[slot] != 0;
    }

    /** Block until @p slot's in-flight request completed. */
    void
    await(std::size_t slot)
    {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return ready_[slot] != 0; });
    }

    /** Drain the recorded per-decision latencies (microseconds). */
    std::vector<double>
    takeLatencies()
    {
        std::lock_guard lock(mutex_);
        return std::move(latenciesUs_);
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::uint8_t> ready_;
    std::vector<double> latenciesUs_;
};

/** Unit of work a session's event loop hands to the worker side. */
struct DecisionRequest
{
    sdtw::ClassifierStream *stream = nullptr;
    /** Classifier that owns the stream; cross-session dispatches group
        feeds by classifier so each fold targets one reference. */
    const sdtw::SquiggleFilterClassifier *classifier = nullptr;
    std::vector<RawSample> samples;
    bool endOfRead = false;
    CompletionBoard *board = nullptr;
    std::size_t slot = 0;        //!< channel index within the board
    std::uint32_t sessionId = 0; //!< pool registration id (admission)
    /** Engine the submitting session selected; an Asic engine
        charges modelled latency to Asic requests only. */
    DecisionBackendKind backend = DecisionBackendKind::Software;
    std::chrono::steady_clock::time_point enqueued{};
};

/**
 * Live degradation gauges a faulted session ticks as its event loop
 * applies the FaultPlan, mirrored into fleet::SessionSnapshot.  All
 * relaxed atomics: a mid-run snapshot may catch a gauge between the
 * decrement and increment of a transition (e.g. a wear-bucket move),
 * so cross-gauge sums are approximate until finished is true — after
 * which they equal the deterministic DegradationStats of the result.
 */
struct LiveDegradation
{
    std::atomic<std::uint64_t> dropouts{0};
    std::atomic<std::uint64_t> recoveries{0};
    std::atomic<std::uint64_t> abortedReads{0};
    std::atomic<std::uint64_t> poresWorn{0};
    std::atomic<std::uint64_t> poresRevived{0};
    std::atomic<std::uint64_t> washes{0};
    std::atomic<std::uint64_t> hotSwapEpochs{0};
    std::atomic<std::uint64_t> stormWindows{0};
    /** Channels currently dead (worn out or permanently dropped). */
    std::atomic<std::uint64_t> deadChannels{0};
    /** Channels currently in a recoverable outage. */
    std::atomic<std::uint64_t> recoveringChannels{0};
    /** Live per-channel wearFraction histogram (kWearBuckets bins). */
    std::array<std::atomic<std::uint64_t>, kWearBuckets> wearBuckets{};
};

/**
 * Live counters a session ticks while its event loop runs, so an
 * orchestrator's stats snapshot can report per-session progress
 * mid-run without waiting for the SessionResult.
 */
struct SessionLiveCounters
{
    std::atomic<std::uint64_t> chunksEmitted{0};
    std::atomic<std::uint64_t> decisions{0};
    std::atomic<bool> finished{false};
    LiveDegradation degradation;
};

/** Executes decision requests on behalf of one or many sessions. */
class DecisionService
{
  public:
    virtual ~DecisionService() = default;

    /**
     * Enqueue @p request for the worker side.  Blocks while the
     * service applies backpressure (queue full, admission quota
     * exhausted) — the caller's capture clock stalls rather than any
     * chunk being dropped.  Returns false only when the service has
     * been shut down; no completion will arrive in that case.
     */
    virtual bool submit(DecisionRequest request) = 0;

    /**
     * Fold one queued dispatch on the calling thread, the event loop
     * of session @p session_id, which would otherwise block waiting
     * for a decision.  Returns whether it folded one; the default
     * folds nothing.  Helping moves wall time only: every decision
     * still applies at its virtual DecisionApply time.  Call only
     * from the thread that runs that session's event loop.
     */
    virtual bool help(std::uint32_t /*session_id*/) { return false; }
};

/**
 * Per-decision latency hook of SoftwareBackend: called with the
 * measured wall latency after the request's fold but BEFORE its board
 * slot completes (the worker still owns the stream exclusively, so
 * the hook may read it), it returns the latency in microseconds to
 * record.  This is how hw::AsicBackend substitutes cycle-model
 * latency for wall time without touching the fold itself.
 */
using DecisionLatencyFn =
    std::function<double(const DecisionRequest &, double wall_us)>;

/**
 * One worker's decision engine: folds dispatches through the shared
 * quantised DP and decides what latency each decision is charged.
 * Implementations are NOT thread-safe — one instance per worker,
 * constructed by DecisionPool::start() on the caller's thread so a
 * bad configuration fatals before any worker thread exists.
 *
 * Every backend produces bit-identical scores, decisions and
 * checkpoint states (the fold is the same kernel); only the latency
 * recorded on the CompletionBoard and the modelled telemetry differ.
 */
class DecisionBackend
{
  public:
    virtual ~DecisionBackend() = default;

    /** Fold @p batch and complete every request on its board. */
    virtual void fold(std::vector<DecisionRequest> &batch) = 0;

    /** Cumulative SIMD-slot utilisation of the underlying kernel. */
    virtual const sdtw::FoldStats &foldStats() const = 0;

    /** Modelled-hardware ledger of session @p session_id's requests;
        zeros for pure-software backends. */
    virtual ModeledHwStats
    modeledStats(std::uint32_t /*session_id*/) const
    {
        return {};
    }
};

/**
 * The one fold: a per-worker SIMD BatchSdtw behind the backend seam,
 * which hw::AsicBackend decorates.  A dispatch's requests are grouped
 * by classifier (a fleet dispatch may span sessions filtering
 * different references) and each group advances as one SIMD lane
 * batch; a group below the kernel's serial cutover folds on the
 * serial engine inside BatchSdtw.  A dispatch may carry at most one
 * request per (board, slot) pair — two lanes aliasing one
 * ClassifierStream mid-fold would corrupt it, so duplicates panic.
 * Latency is wall time from enqueue to completion unless @p latency
 * overrides it.
 */
class SoftwareBackend final : public DecisionBackend
{
  public:
    SoftwareBackend(const sdtw::SdtwConfig &config,
                    std::size_t lane_capacity,
                    DecisionLatencyFn latency = {});
    ~SoftwareBackend() override;

    void fold(std::vector<DecisionRequest> &batch) override;
    const sdtw::FoldStats &foldStats() const override;

  private:
    std::unique_ptr<sdtw::BatchSdtw> kernel_;
    DecisionLatencyFn latency_;
};

/**
 * Fatal unless the modelled hardware can run @p config on @p spec:
 * the absolute-difference metric without reference deletions (paper
 * §4.7), at least one PE and a positive clock.  Run by
 * hw::AsicBackend, hw::Tile and by ReadUntilSession for an Asic
 * session.
 */
void checkAsicImplementable(const AsicSpec &spec,
                            const sdtw::SdtwConfig &config);

/**
 * Construct the backend @p kind configured for one worker.  @p asic
 * is consulted only for DecisionBackendKind::Asic, whose engine folds
 * Software requests too, at wall-clock latency.  @p config must be
 * the kernel configuration shared by every classifier the worker will
 * fold (the session/fleet uniformity checks guarantee this).  Fatals
 * on a configuration the modelled hardware cannot implement — call on
 * the main thread.  @p lane_batching is kept only for perfbench's
 * traced twin, which passes true; false is fatal.  It leaves with
 * that twin.
 */
std::unique_ptr<DecisionBackend>
makeDecisionBackend(DecisionBackendKind kind, const AsicSpec &asic,
                    const sdtw::SdtwConfig &config,
                    std::size_t lane_capacity, bool lane_batching = true);

} // namespace sf::stream

#endif // SF_STREAM_DECISION_SERVICE_HPP
