#ifndef SF_FLEET_ORCHESTRATOR_HPP
#define SF_FLEET_ORCHESTRATOR_HPP

/**
 * @file
 * Fleet orchestrator: N flowcell sessions, one shared worker pool.
 *
 * Each ReadUntilSession models one flowcell, but a single half-loaded
 * flowcell rarely has enough concurrent in-flight decisions to fill a
 * SIMD lane batch — an AVX-512 fold wants 16 live requests, and below
 * the lane cutover the kernel folds each read on its own on the
 * columns kernel.
 * The orchestrator shards many sessions over ONE worker pool so the
 * decision requests of different flowcells fold into the same lane
 * batches (grouped per classifier; a same-target surveillance fleet
 * folds full-width), recovering the SIMD throughput that isolated
 * per-session pools leave on the table.
 *
 * Properties:
 *  - determinism: a session's decision log depends only on its seed,
 *    config and reads (virtual time) — it is bit-identical whether the
 *    session runs alone under run() or in any fleet mix, at any worker
 *    count, under any QoS interleaving;
 *  - backpressure, never drops: admission control blocks a session's
 *    capture clock (wall time only) when the shared queue is full or
 *    the session exceeds its quota — no chunk is ever discarded;
 *  - QoS: clinical Stat sessions preempt Research at every dispatch,
 *    with a statBurst starvation bound for the Research class (see
 *    QosBoundedQueue);
 *  - observability: snapshot() is safe to call mid-run and reports
 *    aggregate chunk throughput, per-session queue depth and progress,
 *    SIMD lane occupancy and the per-class dispatch split, as a struct
 *    or machine-readable JSON.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fleet/qos_queue.hpp"
#include "sdtw/filter.hpp"
#include "signal/read.hpp"
#include "stream/decision_pool.hpp"
#include "stream/session.hpp"

namespace sf::fleet {

/** Shared worker-pool and admission configuration: the settings of
    the fleet's stream::DecisionPool (workers, queue, dispatch width,
    admission quota, statBurst, linger). */
using FleetConfig = stream::PoolConfig;

/** One flowcell session to shard onto the shared pool. */
struct SessionSpec
{
    std::string name; //!< stable identifier for snapshots/results
    /** Calibrated classifier; must outlive the orchestrator.  All
        sessions of a fleet must agree on the four kernel-affecting
        SdtwConfig switches (metric, reference deletion, match bonus,
        dwell cap) — addSession() fatals otherwise. */
    const sdtw::SquiggleFilterClassifier *classifier = nullptr;
    /** Flowcell parameters.  workers/queueCapacity/dispatchBatch are
        the fleet's concern and ignored here. */
    stream::SessionConfig config;
    QosClass qos = QosClass::Research;
    /** Reads this flowcell sequences; must outlive run(). */
    std::span<const signal::ReadRecord> reads;
};

/** Per-fault-class degradation counters (see stream::FaultPlan): one
    session's in SessionSnapshot, their sum over sessions in
    FleetSnapshot. */
struct FaultLedger
{
    /** Pushes that blocked on the shared queue (wall-clock only). */
    std::uint64_t backpressureStalls = 0;
    std::uint64_t deadChannels = 0;       //!< worn or permanently down
    std::uint64_t recoveringChannels = 0; //!< inside an outage
    std::uint64_t dropouts = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t abortedReads = 0;
    std::uint64_t poresWorn = 0;
    std::uint64_t poresRevived = 0;
    std::uint64_t washes = 0;
    std::uint64_t hotSwapEpochs = 0;
    std::uint64_t stormWindows = 0;

    FaultLedger &operator+=(const FaultLedger &o);
};

/** Mid-run view of one session. */
struct SessionSnapshot
{
    std::string name;
    QosClass qos = QosClass::Research;
    /** Decision engine this session selected (software / asic). */
    stream::DecisionBackendKind backend =
        stream::DecisionBackendKind::Software;
    std::size_t queueDepth = 0;        //!< requests queued right now
    std::uint64_t chunksEmitted = 0;
    std::uint64_t decisions = 0;
    /** Dispatches this session's driver folded itself while it
        waited, rather than a pool worker. */
    std::uint64_t helpedDispatches = 0;
    bool finished = false;
    FaultLedger faults; //!< this session's degradation ledger
    /** Live per-channel wear histogram (kWearBuckets bins of [0,1]).
        Mid-run the gauge is approximate (relaxed ticks); once the
        session finished it equals the result's DegradationStats. */
    std::array<std::uint64_t, stream::kWearBuckets> wearHistogram{};
};

/** Machine-readable live view of the whole fleet. */
struct FleetSnapshot
{
    double wallSeconds = 0.0;          //!< since run() started
    std::uint64_t chunksEmitted = 0;   //!< across all sessions
    double chunksPerSec = 0.0;         //!< aggregate sustained rate
    std::uint64_t dispatches = 0;      //!< batch pulls, helped included
    std::uint64_t dispatchedRequests = 0;
    double meanBatchSize = 0.0;
    /** Dispatches folded on a session driver rather than a worker,
        and the requests across them. */
    std::uint64_t helpedDispatches = 0;
    std::uint64_t helpedRequests = 0;
    /** SIMD lane telemetry: laneJobs/laneSlots = occupancy in [0,1];
        serial-engine folds count 1/width per lane slot burned. */
    std::uint64_t laneJobs = 0;
    std::uint64_t laneSlots = 0;
    double laneOccupancy = 0.0;
    /** Dispatches served per QoS class (index = QosClass). */
    std::array<std::uint64_t, kQosClasses> dispatchesByClass{};
    /** Requests folded per decision backend (index =
        stream::DecisionBackendKind): the fleet's dispatch share
        between measured software and modelled hardware. */
    std::array<std::uint64_t, stream::kDecisionBackendKinds>
        requestsByBackend{};
    /** Degradation totals across the fleet (fault injection). */
    FaultLedger faults;
    std::vector<SessionSnapshot> sessions;

    /** One-line JSON rendering.  Schema documented in
        docs/OPERATIONS.md and pinned by SnapshotSchemaTest. */
    std::string toJson() const;
};

/** Outcome of one session after run() returns. */
struct SessionOutcome
{
    std::string name;
    QosClass qos = QosClass::Research;
    stream::SessionResult result;
};

/** Outcome of the whole fleet run. */
struct FleetResult
{
    std::vector<SessionOutcome> sessions; //!< in addSession() order
    FleetSnapshot snapshot;               //!< final aggregate view
};

/**
 * Runs N registered sessions over one shared QoS-aware
 * stream::DecisionPool.  Usage: construct, addSession() each flowcell,
 * run() once.  snapshot() may be called from any thread while run()
 * is in flight.
 */
class FleetOrchestrator final
{
  public:
    explicit FleetOrchestrator(FleetConfig config);

    FleetOrchestrator(const FleetOrchestrator &) = delete;
    FleetOrchestrator &operator=(const FleetOrchestrator &) = delete;

    /**
     * Register a flowcell; returns its session id.  Fatals on a null
     * classifier, on kernel-config disagreement with the sessions
     * already registered, or after run() has started.
     */
    std::uint32_t addSession(SessionSpec spec);

    /**
     * Run every registered session to completion over the shared pool
     * and return the per-session results (decision logs bit-identical
     * to standalone ReadUntilSession::run()) plus the final snapshot.
     * May be called once.
     */
    FleetResult run();

    /** Live aggregate view; safe to call concurrently with run().
        During the registration phase (before run() starts) it returns
        an empty snapshot rather than racing addSession(). */
    FleetSnapshot snapshot() const;

    /** The configuration in effect (workers resolved). */
    const FleetConfig &config() const { return pool_.config(); }

  private:
    struct SessionState
    {
        SessionSpec spec;
        stream::ReadUntilSession session;
        stream::SessionLiveCounters live;
        stream::SessionResult result;

        explicit SessionState(SessionSpec s)
            : spec(std::move(s)), session(*spec.classifier, spec.config)
        {
        }
    };

    stream::DecisionPool pool_;
    std::vector<std::unique_ptr<SessionState>> sessions_;

    std::atomic<bool> started_{false};
    std::atomic<bool> finished_{false};
    std::chrono::steady_clock::time_point runStart_{};

    std::atomic<double> wallSecondsFinal_{0.0};
};

} // namespace sf::fleet

#endif // SF_FLEET_ORCHESTRATOR_HPP
