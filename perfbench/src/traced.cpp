/**
 * @file
 * The traced run: the workload's sessions driven through the public
 * ReadUntilSession::runShared() against a DecisionService that lives
 * in the benchmark.  The service is assembled from the program's public
 * parts — stream::BoundedQueue for a lone session (what run() uses),
 * fleet::QosBoundedQueue with linger and statBurst for the fleet (what
 * FleetOrchestrator uses), and one stream::makeDecisionBackend engine
 * per worker — with the same capacity and dispatch width, so the
 * traced run folds the same batches the untraced run does.
 */

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "fleet/qos_queue.hpp"
#include "stream/chunk_queue.hpp"
#include "stream/decision_service.hpp"
#include "trace.hpp"

namespace sfb {

namespace {

/** A request in flight through the benchmark's queue. */
struct Traced
{
    sf::stream::DecisionRequest request;
    std::uint32_t sessionId = 0; //!< read by QosBoundedQueue
    std::uint64_t id = 0;        //!< (session << 40) | submit index
};

constexpr unsigned kIdShift = 40;

using SessionQueue = sf::stream::BoundedQueue<Traced>;
using FleetQueue = sf::fleet::QosBoundedQueue<Traced>;

bool
pushTo(SessionQueue &q, Traced t)
{
    return q.push(std::move(t));
}

bool
pushTo(FleetQueue &q, Traced t)
{
    const std::uint32_t session = t.sessionId;
    return q.push(session, std::move(t));
}

bool
popFrom(SessionQueue &q, std::vector<Traced> &out, std::size_t max,
        sf::fleet::QosClass &served, std::chrono::microseconds)
{
    served = sf::fleet::QosClass::Stat; // a lone session counts as Stat
    return q.popBatch(out, max);
}

bool
popFrom(FleetQueue &q, std::vector<Traced> &out, std::size_t max,
        sf::fleet::QosClass &served, std::chrono::microseconds linger)
{
    return q.popBatch(out, max, &served, linger);
}

/** Worker-side stamps of one request. */
struct PopStamp
{
    std::uint64_t id = 0;
    std::uint64_t dispatch = 0;
    Clock::time_point popped{};
    Clock::time_point foldBegin{};
    Clock::time_point foldEnd{};
};

template <typename Queue>
class TracingService final : public sf::stream::DecisionService
{
  public:
    TracingService(const WorkloadSpec &spec, Queue &queue,
                   const sf::sdtw::SdtwConfig &kernel, std::size_t sessions)
        : spec_(spec), queue_(queue), submits_(sessions),
          pops_(spec.workers), dispatches_(spec.workers)
    {
        // Same engine and lane sizing as the program's pools.
        const std::size_t lanes = std::max<std::size_t>(
            spec.dispatchBatch, sf::sdtw::BatchSdtw::kDefaultSerialCutover);
        for (unsigned w = 0; w < spec.workers; ++w)
            backends_.push_back(sf::stream::makeDecisionBackend(
                sf::stream::DecisionBackendKind::Software,
                sf::stream::AsicSpec{}, kernel, lanes, true));
        for (unsigned w = 0; w < spec.workers; ++w)
            workers_.emplace_back([this, w] { workerMain(w); });
    }

    TracingService(const TracingService &) = delete;
    TracingService &operator=(const TracingService &) = delete;

    ~TracingService() override { shutdown(); }

    bool
    submit(sf::stream::DecisionRequest request) override
    {
        // Called only from the driver thread of request.sessionId, so
        // that session's span vector has a single writer.
        std::vector<RequestSpan> &log = submits_[request.sessionId];
        RequestSpan span;
        span.id = (std::uint64_t(request.sessionId) << kIdShift) |
                  log.size();
        span.slot = request.slot;
        span.samples = request.samples.size();
        span.enqueued = request.enqueued;
        const std::uint32_t session = request.sessionId;
        span.queued = Clock::now();
        const bool ok =
            pushTo(queue_, Traced{std::move(request), session, span.id});
        span.pushed = Clock::now();
        log.push_back(span);
        return ok;
    }

    void
    shutdown()
    {
        queue_.close();
        for (std::thread &w : workers_)
            if (w.joinable())
                w.join();
    }

    /** Merge worker stamps into the submit spans; call after shutdown. */
    std::vector<std::vector<RequestSpan>>
    takeRequests()
    {
        for (const auto &stamps : pops_)
            for (const PopStamp &p : stamps) {
                RequestSpan &r =
                    submits_[p.id >> kIdShift]
                            [p.id & ((std::uint64_t(1) << kIdShift) - 1)];
                r.dispatch = p.dispatch;
                r.popped = p.popped;
                r.foldBegin = p.foldBegin;
                r.foldEnd = p.foldEnd;
            }
        return std::move(submits_);
    }

    std::vector<DispatchSpan>
    takeDispatches()
    {
        std::vector<DispatchSpan> all;
        for (auto &d : dispatches_)
            all.insert(all.end(), d.begin(), d.end());
        return all;
    }

    /** Add every worker's kernel counters to @p sum. */
    void
    addFoldStats(sf::sdtw::FoldStats &sum) const
    {
        for (const auto &b : backends_) {
            const sf::sdtw::FoldStats &f = b->foldStats();
            sum.batchedCalls += f.batchedCalls;
            sum.serialCalls += f.serialCalls;
            sum.laneJobs += f.laneJobs;
            sum.laneSlots += f.laneSlots;
        }
    }

    double
    meanBatch() const
    {
        std::size_t dispatches = 0;
        std::size_t requests = 0;
        for (const auto &d : dispatches_) {
            dispatches += d.size();
            for (const DispatchSpan &s : d)
                requests += s.requests;
        }
        return dispatches > 0 ? double(requests) / double(dispatches) : 0.0;
    }

  private:
    void
    workerMain(unsigned w)
    {
        sf::stream::DecisionBackend &backend = *backends_[w];
        std::vector<Traced> pulled;
        std::vector<sf::stream::DecisionRequest> batch;
        std::vector<std::uint64_t> ids;
        sf::fleet::QosClass served = sf::fleet::QosClass::Stat;
        const std::chrono::microseconds linger(spec_.lingerUs);
        while (popFrom(queue_, pulled, spec_.dispatchBatch, served, linger)) {
            const auto popped = Clock::now();
            ids.clear();
            batch.clear();
            std::size_t samples = 0;
            for (Traced &t : pulled) {
                ids.push_back(t.id);
                samples += t.request.samples.size();
                batch.push_back(std::move(t.request));
            }
            pulled.clear();
            const auto begin = Clock::now();
            backend.fold(batch);
            const auto end = Clock::now();
            const std::uint64_t d = nextDispatch_.fetch_add(1);
            for (std::uint64_t id : ids)
                pops_[w].push_back(PopStamp{id, d, popped, begin, end});
            dispatches_[w].push_back(DispatchSpan{
                d, w, served == sf::fleet::QosClass::Stat, ids.size(),
                samples, popped, begin, end});
        }
    }

    const WorkloadSpec &spec_;
    Queue &queue_;
    std::vector<std::unique_ptr<sf::stream::DecisionBackend>> backends_;
    std::vector<std::vector<RequestSpan>> submits_; //!< per session
    std::vector<std::vector<PopStamp>> pops_;       //!< per worker
    std::vector<std::vector<DispatchSpan>> dispatches_; //!< per worker
    std::atomic<std::uint64_t> nextDispatch_{0};
    std::vector<std::thread> workers_; // last: joined before the rest go
};

/** Drive every session of @p spec through runShared() on @p queue. */
template <typename Queue>
RoundResult
driveSessions(const WorkloadSpec &spec, const Inputs &inputs,
              const Prepared &p, Queue &queue, TraceRecorder &trace)
{
    std::vector<sf::stream::ReadUntilSession> sessions;
    sessions.reserve(spec.sessions);
    for (std::size_t s = 0; s < spec.sessions; ++s)
        sessions.emplace_back(*p.classifier,
                              sessionConfig(spec, s, inputs.seed));
    std::vector<sf::stream::SessionResult> results(spec.sessions);
    std::vector<SessionSpan> spans(spec.sessions);

    RoundResult r;
    const std::uint64_t steal0 = stealTicks();
    const double cpu0 = processCpuSec();
    const auto t0 = Clock::now();
    TracingService<Queue> service(spec, queue, p.classifier->config(),
                                  spec.sessions);
    const auto drive = [&](std::size_t s) {
        spans[s].begin = Clock::now();
        results[s] = sessions[s].runShared(
            service, inputs.sessionReads[s].reads, std::uint32_t(s));
        spans[s].end = Clock::now();
    };
    if (spec.sessions == 1) {
        drive(0);
    } else {
        // One driver thread per session, as FleetOrchestrator::run().
        std::vector<std::thread> drivers;
        for (std::size_t s = 0; s < spec.sessions; ++s)
            drivers.emplace_back(drive, s);
        for (std::thread &d : drivers)
            d.join();
    }
    service.shutdown();
    r.wallSec = secondsBetween(t0, Clock::now());
    r.cpuSec = processCpuSec() - cpu0;
    r.steal = stealTicks() - steal0;
    r.pool.meanBatch = service.meanBatch();

    const std::size_t firstRun = trace.sessions.size();
    for (std::size_t s = 0; s < spec.sessions; ++s) {
        spans[s].name = sessionName(spec, s);
        spans[s].stat = isStatSession(s);
        spans[s].slot = s;
        spans[s].boardP50us = results[s].stats.latency.p50us;
        trace.sessions.push_back(spans[s]);
        r.sessions.push_back(sessionOutcome(spec, s, std::move(results[s])));
    }
    // Ids are per round; rebase them so they stay unique across rounds.
    const std::uint64_t dispatchBase = trace.dispatches.size();
    for (DispatchSpan &d : service.takeDispatches()) {
        d.id += dispatchBase;
        trace.dispatches.push_back(d);
    }
    std::vector<std::vector<RequestSpan>> requests = service.takeRequests();
    for (std::size_t s = 0; s < requests.size(); ++s)
        for (RequestSpan &req : requests[s]) {
            req.id = trace.requests.size();
            req.sessionRun = firstRun + s;
            req.dispatch += dispatchBase;
            trace.requests.push_back(req);
        }
    service.addFoldStats(trace.fold);
    trace.wallSec += r.wallSec;
    trace.workers = spec.workers;
    trace.referenceLength = p.reference->size();
    return r;
}

} // namespace

RoundResult
runTracedRound(const WorkloadSpec &spec, const Inputs &inputs,
               const Prepared &p, TraceRecorder &trace)
{
    if (spec.entry == Entry::Session) {
        SessionQueue queue(spec.queueCapacity);
        return driveSessions(spec, inputs, p, queue, trace);
    }
    FleetQueue queue(spec.queueCapacity, spec.statBurst);
    for (std::size_t s = 0; s < spec.sessions; ++s)
        queue.registerSession(isStatSession(s) ? sf::fleet::QosClass::Stat
                                               : sf::fleet::QosClass::Research,
                              0);
    return driveSessions(spec, inputs, p, queue, trace);
}

} // namespace sfb
