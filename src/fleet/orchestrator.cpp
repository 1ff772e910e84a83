#include "fleet/orchestrator.hpp"

#include <cstdio>
#include <thread>
#include <utility>

#include "common/logging.hpp"

namespace sf::fleet {

namespace {

using Clock = std::chrono::steady_clock;

/** Append a minimally-escaped JSON string literal to @p out. */
void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out += buf;
}

void
appendNumber(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
}

/** The ledger's keys, in schema order, without the enclosing braces:
    fault_ledger and each session's degradation object share them. */
void
appendFaultLedger(std::string &j, const FaultLedger &f)
{
    j += "\"backpressure_stalls\":";
    appendNumber(j, f.backpressureStalls);
    j += ",\"dead_channels\":";
    appendNumber(j, f.deadChannels);
    j += ",\"recovering_channels\":";
    appendNumber(j, f.recoveringChannels);
    j += ",\"dropouts\":";
    appendNumber(j, f.dropouts);
    j += ",\"recoveries\":";
    appendNumber(j, f.recoveries);
    j += ",\"aborted_reads\":";
    appendNumber(j, f.abortedReads);
    j += ",\"worn_pores\":";
    appendNumber(j, f.poresWorn);
    j += ",\"revived_pores\":";
    appendNumber(j, f.poresRevived);
    j += ",\"washes\":";
    appendNumber(j, f.washes);
    j += ",\"hot_swap_epochs\":";
    appendNumber(j, f.hotSwapEpochs);
    j += ",\"storm_windows\":";
    appendNumber(j, f.stormWindows);
}

} // namespace

FaultLedger &
FaultLedger::operator+=(const FaultLedger &o)
{
    backpressureStalls += o.backpressureStalls;
    deadChannels += o.deadChannels;
    recoveringChannels += o.recoveringChannels;
    dropouts += o.dropouts;
    recoveries += o.recoveries;
    abortedReads += o.abortedReads;
    poresWorn += o.poresWorn;
    poresRevived += o.poresRevived;
    washes += o.washes;
    hotSwapEpochs += o.hotSwapEpochs;
    stormWindows += o.stormWindows;
    return *this;
}

std::string
FleetSnapshot::toJson() const
{
    std::string j = "{\"wall_seconds\":";
    appendNumber(j, wallSeconds);
    j += ",\"chunks_emitted\":";
    appendNumber(j, chunksEmitted);
    j += ",\"chunks_per_sec\":";
    appendNumber(j, chunksPerSec);
    j += ",\"dispatches\":";
    appendNumber(j, dispatches);
    j += ",\"dispatched_requests\":";
    appendNumber(j, dispatchedRequests);
    j += ",\"mean_batch\":";
    appendNumber(j, meanBatchSize);
    j += ",\"helped_dispatches\":";
    appendNumber(j, helpedDispatches);
    j += ",\"helped_requests\":";
    appendNumber(j, helpedRequests);
    j += ",\"lane_jobs\":";
    appendNumber(j, laneJobs);
    j += ",\"lane_slots\":";
    appendNumber(j, laneSlots);
    j += ",\"lane_occupancy\":";
    appendNumber(j, laneOccupancy);
    j += ",\"dispatches_by_class\":{";
    for (std::size_t c = 0; c < kQosClasses; ++c) {
        if (c != 0)
            j += ',';
        appendJsonString(j, qosClassName(QosClass(c)));
        j += ':';
        appendNumber(j, dispatchesByClass[c]);
    }
    j += "},\"requests_by_backend\":{";
    for (std::size_t b = 0; b < stream::kDecisionBackendKinds; ++b) {
        if (b != 0)
            j += ',';
        appendJsonString(
            j, stream::decisionBackendName(
                   stream::DecisionBackendKind(b)));
        j += ':';
        appendNumber(j, requestsByBackend[b]);
    }
    j += "},\"fault_ledger\":{";
    appendFaultLedger(j, faults);
    j += "},\"sessions\":[";
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        const SessionSnapshot &s = sessions[i];
        if (i != 0)
            j += ',';
        j += "{\"name\":";
        appendJsonString(j, s.name);
        j += ",\"qos\":";
        appendJsonString(j, qosClassName(s.qos));
        j += ",\"backend\":";
        appendJsonString(j, stream::decisionBackendName(s.backend));
        j += ",\"queue_depth\":";
        appendNumber(j, std::uint64_t(s.queueDepth));
        j += ",\"chunks_emitted\":";
        appendNumber(j, s.chunksEmitted);
        j += ",\"decisions\":";
        appendNumber(j, s.decisions);
        j += ",\"helped_dispatches\":";
        appendNumber(j, s.helpedDispatches);
        j += ",\"finished\":";
        j += s.finished ? "true" : "false";
        j += ",\"degradation\":{";
        appendFaultLedger(j, s.faults);
        j += ",\"wear_hist\":[";
        for (std::size_t b = 0; b < s.wearHistogram.size(); ++b) {
            if (b != 0)
                j += ',';
            appendNumber(j, s.wearHistogram[b]);
        }
        j += "]}}";
    }
    j += "]}";
    return j;
}

FleetOrchestrator::FleetOrchestrator(FleetConfig config) : pool_(config)
{
}

std::uint32_t
FleetOrchestrator::addSession(SessionSpec spec)
{
    if (started_.load(std::memory_order_acquire))
        fatal("FleetOrchestrator::addSession after run() started");
    if (spec.classifier == nullptr)
        fatal("FleetOrchestrator session '%s' has no classifier",
              spec.name.c_str());
    // Built here, on the caller's thread: the session validates its
    // config (an Asic session's kernel config and design point
    // included), fault plan and hot-swap targets (swap classifiers
    // obey the same kernel-shape rule as sessions), and the driver
    // threads of run() are no place for a fatal().
    auto state = std::make_unique<SessionState>(std::move(spec));
    const SessionSpec &s = state->spec;
    if (!sessions_.empty()) {
        // Cross-session dispatches share worker kernels, and one
        // kernel serves one recurrence shape: all sessions must agree
        // on the four kernel-affecting switches.  Reference squiggles
        // MAY differ (folds are grouped per classifier).
        if (s.classifier->config() !=
            sessions_.front()->spec.classifier->config())
            fatal("FleetOrchestrator session '%s' disagrees with the "
                  "fleet on kernel SdtwConfig (metric/refdel/bonus/"
                  "dwell); fleets must be config-uniform",
                  s.name.c_str());
    }
    const std::uint32_t id =
        pool_.registerSession(s.qos, s.config.backend);
    sessions_.push_back(std::move(state));
    if (id != std::uint32_t(sessions_.size() - 1))
        panic("FleetOrchestrator session id drifted from pool "
              "registration order");
    return id;
}

FleetResult
FleetOrchestrator::run()
{
    if (sessions_.empty())
        fatal("FleetOrchestrator::run with no sessions registered");
    // Written before started_ is published: snapshot() only reads
    // runStart_ after an acquire load of started_ observes true.
    runStart_ = Clock::now();
    if (started_.exchange(true, std::memory_order_acq_rel))
        fatal("FleetOrchestrator::run may be called once");

    // Every fleet session shares the recurrence config (enforced in
    // addSession), so one kernel shape serves them all.
    pool_.start(sessions_.front()->spec.classifier->config());

    // One driver thread per session: each runs its own virtual-time
    // event loop and waits (backpressure, decisions) independently,
    // folding queued work of any session while it waits.
    std::vector<std::thread> drivers;
    drivers.reserve(sessions_.size());
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        SessionState &state = *sessions_[i];
        drivers.emplace_back([this, &state, i] {
            state.result = state.session.runShared(
                pool_, state.spec.reads, std::uint32_t(i), &state.live);
        });
    }
    for (std::thread &driver : drivers)
        driver.join();

    // All event loops drained their in-flight requests before
    // returning, so shutting down here strands no completion.
    pool_.shutdown();

    wallSecondsFinal_.store(
        std::chrono::duration<double>(Clock::now() - runStart_)
            .count(),
        std::memory_order_release);
    finished_.store(true, std::memory_order_release);

    FleetResult out;
    out.sessions.reserve(sessions_.size());
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        SessionState &state = *sessions_[i];
        state.result.stats.helpedDispatches =
            pool_.helpedDispatches(std::uint32_t(i));
        out.sessions.push_back(SessionOutcome{
            state.spec.name, state.spec.qos, std::move(state.result)});
    }
    out.snapshot = snapshot();
    return out;
}

FleetSnapshot
FleetOrchestrator::snapshot() const
{
    FleetSnapshot snap;
    // Before run() publishes started_, sessions_ may still be growing
    // under addSession(); reading it here would race the push_back.
    // Once started_ is observed (acquire, paired with the acq_rel
    // exchange in run()), the vector is frozen — addSession fatals —
    // so the iteration below is safe for the rest of the run.
    if (!started_.load(std::memory_order_acquire))
        return snap; // registration phase: empty snapshot
    snap.wallSeconds =
        finished_.load(std::memory_order_acquire)
            ? wallSecondsFinal_.load(std::memory_order_acquire)
            : std::chrono::duration<double>(Clock::now() - runStart_)
                  .count();
    const auto rel = [](const std::atomic<std::uint64_t> &a) {
        return a.load(std::memory_order_relaxed);
    };
    const stream::PoolCounters &pool = pool_.counters();
    snap.dispatches = rel(pool.dispatches);
    snap.dispatchedRequests = rel(pool.dispatchedRequests);
    snap.meanBatchSize =
        snap.dispatches > 0
            ? double(snap.dispatchedRequests) / double(snap.dispatches)
            : 0.0;
    snap.helpedDispatches = rel(pool.helpedDispatches);
    snap.helpedRequests = rel(pool.helpedRequests);
    snap.laneJobs = rel(pool.laneJobs);
    snap.laneSlots = rel(pool.laneSlots);
    snap.laneOccupancy =
        snap.laneSlots > 0
            ? double(snap.laneJobs) / double(snap.laneSlots)
            : 0.0;
    for (std::size_t c = 0; c < kQosClasses; ++c)
        snap.dispatchesByClass[c] = rel(pool.dispatchesByClass[c]);
    for (std::size_t b = 0; b < stream::kDecisionBackendKinds; ++b)
        snap.requestsByBackend[b] = rel(pool.requestsByBackend[b]);

    snap.sessions.reserve(sessions_.size());
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        const SessionState &state = *sessions_[i];
        SessionSnapshot s;
        s.name = state.spec.name;
        s.qos = state.spec.qos;
        s.backend = state.spec.config.backend;
        s.queueDepth = pool_.queue().depth(std::uint32_t(i));
        s.chunksEmitted =
            state.live.chunksEmitted.load(std::memory_order_relaxed);
        s.decisions =
            state.live.decisions.load(std::memory_order_relaxed);
        s.helpedDispatches = pool_.helpedDispatches(std::uint32_t(i));
        s.finished =
            state.live.finished.load(std::memory_order_acquire);

        const stream::LiveDegradation &d = state.live.degradation;
        FaultLedger &f = s.faults;
        f.backpressureStalls = pool_.queue().stalls(std::uint32_t(i));
        f.deadChannels = rel(d.deadChannels);
        f.recoveringChannels = rel(d.recoveringChannels);
        f.dropouts = rel(d.dropouts);
        f.recoveries = rel(d.recoveries);
        f.abortedReads = rel(d.abortedReads);
        f.poresWorn = rel(d.poresWorn);
        f.poresRevived = rel(d.poresRevived);
        f.washes = rel(d.washes);
        f.hotSwapEpochs = rel(d.hotSwapEpochs);
        f.stormWindows = rel(d.stormWindows);
        for (std::size_t b = 0; b < s.wearHistogram.size(); ++b)
            s.wearHistogram[b] = rel(d.wearBuckets[b]);

        snap.faults += f;

        snap.chunksEmitted += s.chunksEmitted;
        snap.sessions.push_back(std::move(s));
    }
    snap.chunksPerSec = snap.wallSeconds > 0.0
                            ? double(snap.chunksEmitted) /
                                  snap.wallSeconds
                            : 0.0;
    return snap;
}

} // namespace sf::fleet
