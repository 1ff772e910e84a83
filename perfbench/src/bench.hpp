#ifndef SF_PERFBENCH_BENCH_HPP
#define SF_PERFBENCH_BENCH_HPP

/**
 * @file
 * Closed-loop Read Until benchmark: workload table, input generation,
 * the timed set-up, the untraced and traced run rounds, and the host
 * and noise records saved with every result.
 *
 * The benchmark drives the program only through its public entry
 * points (FleetOrchestrator::run, ReadUntilSession::run and
 * ReadUntilSession::runShared); spans are recorded from these files,
 * never from inside src/.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/orchestrator.hpp"
#include "pore/reference_squiggle.hpp"
#include "sdtw/filter.hpp"
#include "signal/dataset.hpp"
#include "stream/session.hpp"

namespace sfb {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Which engine entry point a workload drives. */
enum class Entry { Fleet, Session };

/** Reference the flowcells filter against. */
enum class Target { StreamVirus, SarsCov2 };

/** One benchmark workload (see perfbench/README.md for the why). */
struct WorkloadSpec
{
    const char *name = "";
    Entry entry = Entry::Session;
    Target target = Target::StreamVirus;
    std::size_t sessions = 1;       //!< flowcells (fleet: Stat, Research)
    int channels = 512;             //!< pores per flowcell
    unsigned workers = 1;           //!< decision threads
    std::size_t dispatchBatch = 16; //!< max requests per worker pull
    std::size_t queueCapacity = 256;
    std::size_t lingerUs = 0;       //!< fleet batching linger
    std::size_t statBurst = 4;      //!< fleet starvation bound
    std::size_t readsPerSession = 0;
    std::size_t calibrationReads = 0;
};

/** Workload by name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Every workload, in documentation order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** Shrink a workload to seconds-scale for the self-test. */
WorkloadSpec tinyScale(WorkloadSpec spec);

/** Generated before any timer starts; the program only sees these. */
struct Inputs
{
    const sf::genome::Genome *targetGenome = nullptr;
    std::vector<sf::signal::Dataset> sessionReads; //!< one per flowcell
    sf::signal::Dataset calibration;               //!< own seed
    std::uint64_t seed = 0;
    double generateSec = 0.0;
};

Inputs makeInputs(const WorkloadSpec &spec, std::uint64_t seed);

/**
 * Reads simulated so far in this process.  Every read the benchmark
 * makes goes through one function that counts them, so a set-up that
 * simulates reads, wherever inside it, changes this count.
 */
std::size_t readsSimulated();

/** Wall seconds of one set-up and of its two largest parts. */
struct SetupTiming
{
    double totalSec = 0.0;
    double referenceSec = 0.0;
    double calibrationSec = 0.0;
};

/** What one set-up builds: everything the program needs before run(). */
struct Prepared
{
    std::unique_ptr<sf::pore::ReferenceSquiggle> reference;
    std::unique_ptr<sf::sdtw::SquiggleFilterClassifier> classifier;
    std::unique_ptr<sf::stream::ReadUntilSession> session;
    std::unique_ptr<sf::fleet::FleetOrchestrator> orchestrator;
    SetupTiming timing;
};

/** Per-session configuration a workload runs with. */
sf::stream::SessionConfig sessionConfig(const WorkloadSpec &spec,
                                        std::size_t session,
                                        std::uint64_t seed);

/** Session display name ("stat", "research" or "flowcell"). */
const char *sessionName(const WorkloadSpec &spec, std::size_t session);

/** True for the session that counts as the Stat (clinical) class. */
inline bool
isStatSession(std::size_t session)
{
    return session == 0;
}

/**
 * Time one set-up: reference squiggle, threshold calibration,
 * classifier + stage schedule, session/orchestrator construction.
 * @p inject_simulation regenerates the calibration reads inside the
 * calibration span — the self-test uses it to prove main() refuses a
 * set-up that simulates reads.
 */
Prepared setUp(const WorkloadSpec &spec, const Inputs &inputs,
               bool inject_simulation = false);

/** Build a fresh runner (session/orchestrator) on a prepared classifier. */
void construct(const WorkloadSpec &spec, const Inputs &inputs,
               Prepared &prepared);

/** One session's outcome in one round. */
struct SessionOutcome
{
    std::string name;
    bool stat = false;
    std::uint64_t digest = 0;
    std::uint64_t chunksEmitted = 0;
    std::uint64_t chunksFolded = 0;
    std::uint64_t chunksAborted = 0;
    std::uint64_t decisions = 0;
    double p50us = 0.0;
    double p99us = 0.0;
    double enrichment = 0.0;
    double dpWorkRatio = 0.0;
    std::vector<sf::stream::DecisionRecord> log;
};

/** Pool-level counters of an untraced round. */
struct PoolCounters
{
    double meanBatch = 0.0;
    double laneOccupancy = 0.0;   //!< fleet only
    double statDispatchShare = 0; //!< fleet only
    double backpressureStalls = 0; //!< fleet only
};

/** Everything measured in one round (one run() call). */
struct RoundResult
{
    double wallSec = 0.0;
    double cpuSec = 0.0;
    std::uint64_t steal = 0;
    std::vector<SessionOutcome> sessions;
    PoolCounters pool;

    std::uint64_t chunks() const;
    double chunksPerSec() const;
    double worstP50() const;
    double worstP99() const;
    double statP99() const;
};

/** Summarise one session's result (digest, latency, conservation). */
SessionOutcome sessionOutcome(const WorkloadSpec &spec, std::size_t index,
                              sf::stream::SessionResult &&result);

/** Run one untraced round through the public run() entry point. */
RoundResult runRound(const WorkloadSpec &spec, const Inputs &inputs,
                     Prepared &prepared);

class TraceRecorder;

/** Run one traced round through runShared() on a benchmark service. */
RoundResult runTracedRound(const WorkloadSpec &spec, const Inputs &inputs,
                           const Prepared &prepared, TraceRecorder &trace);

/** FNV-1a over (channel, readId, keep, cost, samplesUsed, stagesRun). */
std::uint64_t logDigest(const std::vector<sf::stream::DecisionRecord> &log);

std::string hex64(std::uint64_t v);

/**
 * Replay a deterministic sample of @p log against the offline
 * classifier (streaming and offline decisions are bit-identical by the
 * program's contract).  Returns the number of mismatching records.
 */
std::size_t oracleMismatches(const sf::sdtw::SquiggleFilterClassifier &cls,
                             const sf::signal::Dataset &reads,
                             const std::vector<sf::stream::DecisionRecord> &log,
                             std::size_t samples);

/** Linear-interpolated percentile of @p xs (copied), p in [0,100]. */
double pct(std::vector<double> xs, double p);

double median(std::vector<double> xs);

// ---- host and noise records ------------------------------------------

/** Process user+sys CPU seconds so far (all threads). */
double processCpuSec();

/** Peak resident set, MiB. */
double peakRssMb();

/** Steal ticks across all cpus from /proc/stat (0 if unreadable). */
std::uint64_t stealTicks();

/** One-line JSON host fingerprint. */
std::string hostFingerprintJson();

} // namespace sfb

#endif // SF_PERFBENCH_BENCH_HPP
