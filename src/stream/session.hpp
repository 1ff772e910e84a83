#ifndef SF_STREAM_SESSION_HPP
#define SF_STREAM_SESSION_HPP

/**
 * @file
 * Streaming multi-channel Read Until session (paper §2, §6).
 *
 * Models a live flowcell of N pore channels: reads are captured with
 * stochastic delays, their raw signal surfaces in ~0.4 s chunks, and
 * every chunk is pushed through the checkpointed classifier stream
 * until a stage keeps or ejects the read — while the pore keeps
 * sequencing.  Ejection and pore-recovery latencies gate when the
 * channel can capture its next strand.
 *
 * Two clocks run side by side:
 *  - the *virtual* flowcell clock drives capture, chunk arrival,
 *    decision application, ejection and recovery.  Every outcome on
 *    this clock is deterministic given the session seed: the decision
 *    log is identical across worker counts and queue capacities.
 *  - the *wall* clock measures what the compute actually costs:
 *    per-decision latency percentiles and sustained chunk throughput
 *    of the real sDTW work fanned across the worker pool.
 *
 * Decision requests flow through a stream::DecisionPool — a bounded
 * MPMC queue (backpressure: the event source blocks when
 * classification falls behind) whose workers drain it in
 * cross-channel batches per dispatch.  An event loop that would
 * block folds up to one queued dispatch itself instead, unless a
 * worker is idle to fold it.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sdtw/filter.hpp"
#include "signal/read.hpp"
#include "stream/decision_backend.hpp"
#include "stream/fault_plan.hpp"

namespace sf::stream {

class DecisionService;
struct SessionLiveCounters;

/** Flowcell, latency, and worker-pool configuration. */
struct SessionConfig
{
    int channels = kMinionChannels;     //!< pores sequencing in parallel
    double sampleRateHz = kSampleRateHz; //!< per-pore ADC rate
    double chunkSeconds = 0.4;          //!< signal surfaced per request
    double captureDelayMeanSec = 1.0;   //!< mean strand capture delay
    double ejectLatencySec = 0.5;       //!< pore-reversal overhead
    double poreRecoverySec = 0.5;       //!< dead time after an ejection
    /** Virtual compute latency per decision (hardware budget §6). */
    double decisionLatencySec = 0.043e-3;
    unsigned workers = 2;               //!< real classifier threads
    std::size_t queueCapacity = 256;    //!< bounded MPMC request queue
    std::size_t dispatchBatch = 16;     //!< max requests per worker pull
    /**
     * Which engine executes decision requests (see
     * stream/decision_backend.hpp).  The virtual-clock outcomes —
     * including decisionLatencySec, which stays the modelled budget
     * regardless — are identical for every backend; only the measured
     * latency/energy report changes.
     */
    DecisionBackendKind backend = DecisionBackendKind::Software;
    /** Modelled-ASIC design point; consulted only when backend is
        DecisionBackendKind::Asic. */
    AsicSpec asic{};
    std::uint64_t seed = 0x5f5f;        //!< master seed (capture delays)
    double maxVirtualHours = 24.0;      //!< safety stop
    /**
     * Optional scripted fault schedule (dropouts, storms, wear, hot
     * swaps — see FaultPlan); must outlive the run.  Faults fire on
     * the virtual clock, so the decision log stays bit-identical for
     * a fixed (seed, config, reads, plan) across worker counts and
     * fleet mixes.  nullptr = clean flowcell.
     */
    const FaultPlan *faults = nullptr;

    /** Raw samples per chunk. */
    std::size_t
    chunkSamples() const
    {
        return std::size_t(chunkSeconds * sampleRateHz);
    }
};

/** One applied keep/eject decision, in deterministic apply order. */
struct DecisionRecord
{
    std::uint64_t order = 0;      //!< position in the decision log
    int channel = 0;              //!< pore that sequenced the read
    std::uint64_t readId = 0;     //!< ReadRecord::id
    bool isTarget = false;        //!< ground truth origin
    bool keep = false;            //!< classifier decision
    Cost cost = 0;                //!< final alignment cost
    std::size_t samplesUsed = 0;  //!< raw samples folded for the call
    std::size_t stagesRun = 0;    //!< schedule stages evaluated
    double virtualSec = 0.0;      //!< flowcell time of application

    bool operator==(const DecisionRecord &other) const = default;
};

/** Decision latency percentiles, microseconds: wall clock, or the
    cycle model for an Asic session. */
struct LatencySummary
{
    double p50us = 0.0;
    double p90us = 0.0;
    double p99us = 0.0;
    double maxUs = 0.0;
};

/** Aggregate outcome of one session run. */
struct SessionStats
{
    std::size_t readsProcessed = 0;
    std::size_t readsKept = 0;
    std::size_t readsEjected = 0;
    ConfusionMatrix confusion;       //!< vs ground-truth read origin

    std::uint64_t chunksEmitted = 0; //!< chunks surfaced by channels
    std::uint64_t decisions = 0;     //!< classifier dispatches applied
    std::uint64_t dispatches = 0;    //!< batch pulls, helped included
    double meanBatchSize = 0.0;      //!< decisions per dispatch
    /** Dispatches this session's event loop folded itself while it
        waited (DecisionService::help), rather than a worker. */
    std::uint64_t helpedDispatches = 0;

    /** DP rows folded by the checkpointed scheme (actual work). */
    std::uint64_t dpRowsFolded = 0;
    /** Rows full prefix re-alignment per decision would have cost. */
    std::uint64_t dpRowsNaive = 0;

    double virtualSeconds = 0.0;     //!< flowcell time simulated
    double wallSeconds = 0.0;        //!< real time spent
    double chunksPerSec = 0.0;       //!< real sustained chunk rate
    LatencySummary latency;          //!< real per-decision latency

    /** Samples the pores spent on target / all reads (virtual). */
    double targetSamplesSequenced = 0.0;
    double totalSamplesSequenced = 0.0;
    /**
     * Useful-throughput gain of Read Until: fraction of sequenced
     * samples that came from target reads, relative to sequencing
     * every processed read to completion.
     */
    double enrichmentFactor = 1.0;

    /** Fault/degradation ledger (all-zero on a clean flowcell). */
    DegradationStats degradation;

    /** Backend that executed the decisions. */
    DecisionBackendKind backend = DecisionBackendKind::Software;
    /** Modelled-hardware ledger (all-zero on the software backend),
        charged by the session's event loop as it awaits each
        decision, in the loop's deterministic order.  With the Asic
        backend, `latency` above holds the cycle-model percentiles
        instead of wall time. */
    ModeledHwStats hwModel;

    /** Work advantage of checkpointing (>= 1). */
    double
    dpWorkRatio() const
    {
        return dpRowsFolded == 0
                   ? 1.0
                   : double(dpRowsNaive) / double(dpRowsFolded);
    }
};

/** Decision log plus aggregate statistics. */
struct SessionResult
{
    std::vector<DecisionRecord> log;
    SessionStats stats;
};

/** Event-driven streaming Read Until engine. */
class ReadUntilSession
{
  public:
    /**
     * @param classifier calibrated classifier whose stage schedule is
     *        the per-chunk decision cadence (see uniformStageSchedule)
     * @param config flowcell and worker-pool parameters; fatals on an
     *        invalid one, including an Asic backend the hardware
     *        cannot implement (checkAsicImplementable)
     */
    ReadUntilSession(const sdtw::SquiggleFilterClassifier &classifier,
                     SessionConfig config);

    /**
     * Sequence every read in @p reads through the flowcell (reads are
     * assigned to channels in order as pores free up) and return the
     * deterministic decision log plus measured statistics.
     */
    SessionResult run(std::span<const signal::ReadRecord> reads) const;

    /**
     * Run the same flowcell against an external decision service — a
     * shared fleet worker pool — instead of a pool of its own.
     * config().workers, queueCapacity and dispatchBatch are the
     * service's concern and ignored here; the decision log is
     * bit-identical to run() regardless, because every virtual-time
     * outcome depends only on the session seed, config and reads.
     * Wall-clock statistics (latency percentiles, chunks/s) reflect
     * the shared pool; dispatches/meanBatchSize are
     * pool-level and left zero, as is helpedDispatches (the fleet
     * fills it in); hwModel is the session's own.  @p session_id
     * tags every submitted request so the service can do per-session
     * admission accounting, and @p live (optional) is ticked as
     * chunks surface and decisions apply so an orchestrator can
     * snapshot progress mid-run.
     */
    SessionResult runShared(DecisionService &service,
                            std::span<const signal::ReadRecord> reads,
                            std::uint32_t session_id = 0,
                            SessionLiveCounters *live = nullptr) const;

    /** The configuration in effect. */
    const SessionConfig &config() const { return config_; }

    /** The classifier decisions are made with. */
    const sdtw::SquiggleFilterClassifier &classifier() const
    {
        return classifier_;
    }

  private:
    const sdtw::SquiggleFilterClassifier &classifier_;
    SessionConfig config_;
};

} // namespace sf::stream

#endif // SF_STREAM_SESSION_HPP
