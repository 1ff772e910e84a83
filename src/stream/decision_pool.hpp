#ifndef SF_STREAM_DECISION_POOL_HPP
#define SF_STREAM_DECISION_POOL_HPP

/**
 * @file
 * The one worker pool that executes decision requests.
 *
 * In the paper one SquiggleFilter array serves every channel of the
 * flowcell; here one DecisionPool serves every session that submits
 * to it.  ReadUntilSession::run() drives a pool of one Stat session
 * with no quota and no linger; fleet::FleetOrchestrator registers N
 * sessions of both QoS classes on one pool.  Either way the pool owns
 * the same parts:
 *  - one QosBoundedQueue (backpressure, QoS classes, admission);
 *  - one SoftwareBackend per worker and one per registered session,
 *    built on the caller's thread so a configuration the kernel
 *    cannot support fatals before any worker thread exists;
 *  - the popBatch -> fold loop, one fold per dispatch, and help():
 *    a session's event loop that would block on a full queue or an
 *    unfinished decision folds up to one queued dispatch on its own
 *    engine instead, unless a worker is idle to fold it — the same
 *    dispatch body a worker runs;
 *  - the dispatch, class, backend and SIMD-lane counters, readable
 *    mid-run.
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "stream/chunk_queue.hpp"
#include "stream/decision_service.hpp"

namespace sf::stream {

/** Worker-pool, queue and admission settings. */
struct PoolConfig
{
    /** Classifier threads (0 = hardware concurrency). */
    unsigned workers = 2;
    /** Bounded queue capacity shared by every session. */
    std::size_t queueCapacity = 256;
    /** Max requests per worker pull (= max SIMD fold width used). */
    std::size_t dispatchBatch = 16;
    /**
     * Admission quota: max queued requests per session (0 =
     * unlimited, only the shared capacity throttles).  A session over
     * quota blocks at capture time; chunks are never dropped.
     */
    std::size_t sessionQuota = 0;
    /** Research starvation bound: a queued Research dispatch waits at
        most this many consecutive Stat dispatches.  Must be >= 1. */
    std::size_t statBurst = 4;
    /**
     * Batching linger: once a worker sees its first queued request it
     * waits up to this long for the batch to fill before dispatching
     * (0 = pop eagerly).  Sessions re-queue within microseconds of a
     * completed dispatch; without the linger a worker shreds those
     * co-arriving requests into ragged sub-width serial folds.  Pure
     * wall-clock tuning — decision logs are unaffected.
     */
    std::size_t dispatchLingerUs = 250;
};

/** Pool-level telemetry, cumulative since start() and ticked per
    dispatch (relaxed: exact once the pool is shut down). */
struct PoolCounters
{
    using Counter = std::atomic<std::uint64_t>;

    Counter dispatches{0};         //!< batch pulls, helped included
    Counter dispatchedRequests{0}; //!< requests across them
    /** Dispatches folded on a session's event loop (help()) rather
        than on a worker, and the requests across them. */
    Counter helpedDispatches{0};
    Counter helpedRequests{0};
    /** SIMD lane telemetry: laneJobs/laneSlots = occupancy. */
    Counter laneJobs{0};
    Counter laneSlots{0};
    /** Dispatches served per QoS class (index = QosClass). */
    std::array<Counter, kQosClasses> dispatchesByClass{};
    /** Requests dispatched per the backend their session selected
        (index = DecisionBackendKind). */
    std::array<Counter, kDecisionBackendKinds> requestsByBackend{};
};

/**
 * Shared worker pool behind the DecisionService seam.  Usage:
 * construct, registerSession() each submitter, start() once, submit()
 * from the sessions' event loops, shutdown() after every event loop
 * returned.  counters() and queue() are safe to read from any thread
 * at any time.
 */
class DecisionPool final : public DecisionService
{
  public:
    explicit DecisionPool(PoolConfig config);
    ~DecisionPool() override;

    DecisionPool(const DecisionPool &) = delete;
    DecisionPool &operator=(const DecisionPool &) = delete;

    /**
     * Register a session that will submit requests for @p backend
     * under QoS class @p cls; returns the sessionId its requests must
     * carry.  Call before start().
     */
    std::uint32_t registerSession(QosClass cls,
                                  DecisionBackendKind backend);

    /**
     * Build each worker's and each session's engine for the kernel
     * shape @p kernel on this thread, then start the workers.
     */
    void start(const sdtw::SdtwConfig &kernel);

    /** Enqueue for the workers.  While the queue refuses the push,
        help(request.sessionId); block only when that folds nothing. */
    bool submit(DecisionRequest request) override;

    /** Fold up to one queued dispatch on session @p session_id's
        engine, if QosBoundedQueue::tryPopBatch() yields one. */
    bool help(std::uint32_t session_id) override;

    /** Close the queue and join the workers (idempotent).  Queued
        requests are folded first, so no completion is stranded. */
    void shutdown();

    /** Live pool telemetry. */
    const PoolCounters &counters() const { return counters_; }

    /** The request queue (per-session depth and stalls). */
    const QosBoundedQueue<DecisionRequest> &queue() const { return queue_; }

    /** Dispatches session @p session_id's event loop folded itself
        (relaxed: exact once its event loop returned). */
    std::uint64_t helpedDispatches(std::uint32_t session_id) const;

    /** The configuration in effect (workers resolved). */
    const PoolConfig &config() const { return config_; }

  private:
    /** One thread's decision engine: a worker's, or the helper engine
        of one session's event loop.  Only its owner thread touches it
        until shutdown(). */
    struct Engine
    {
        std::unique_ptr<DecisionBackend> backend;
        std::vector<DecisionRequest> batch;
        /** Lane jobs and slots already published to the counters. */
        std::uint64_t publishedJobs = 0;
        std::uint64_t publishedSlots = 0;
    };

    void workerMain(Engine &engine);
    /** The one dispatch body: counters, backend check, fold, lane
        telemetry; folds and clears engine.batch. */
    void dispatch(Engine &engine, QosClass served);

    PoolConfig config_;
    QosBoundedQueue<DecisionRequest> queue_;
    /** Backend kinds some registered session selected. */
    std::array<bool, kDecisionBackendKinds> kindInUse_{};
    /** Per registered session: dispatches its event loop folded
        (a deque, so registering never moves a counter). */
    std::deque<PoolCounters::Counter> helpedBySession_;
    /** config_.workers worker engines, then one per session. */
    std::vector<Engine> engines_;
    PoolCounters counters_;
    std::vector<std::thread> workers_; //!< last: uses every member above
};

} // namespace sf::stream

#endif // SF_STREAM_DECISION_POOL_HPP
