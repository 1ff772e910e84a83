#include "stream/decision_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "sdtw/batch.hpp"

namespace sf::stream {

namespace {

void
tick(PoolCounters::Counter &c, std::uint64_t n)
{
    c.fetch_add(n, std::memory_order_relaxed);
}

} // namespace

DecisionPool::DecisionPool(PoolConfig config)
    : config_(config), queue_(config.queueCapacity, config.statBurst)
{
    if (config_.workers == 0)
        config_.workers = std::max(1u, std::thread::hardware_concurrency());
    if (config_.dispatchBatch == 0)
        fatal("DecisionPool dispatch batch must be positive");
}

DecisionPool::~DecisionPool() { shutdown(); }

std::uint32_t
DecisionPool::registerSession(QosClass cls, DecisionBackendKind backend)
{
    if (!workers_.empty())
        fatal("DecisionPool::registerSession after start()");
    kindInUse_[std::size_t(backend)] = true;
    helpedBySession_.emplace_back(0);
    return queue_.registerSession(cls, config_.sessionQuota);
}

void
DecisionPool::start(const sdtw::SdtwConfig &kernel, const AsicSpec &asic)
{
    if (!workers_.empty())
        fatal("DecisionPool::start may be called once");
    // One engine per worker and per session whatever the backend mix:
    // the modelled-ASIC one is a latency-accounting decorator over
    // the software fold, so it serves Software requests at wall-clock
    // latency too.
    const DecisionBackendKind kind =
        kindInUse_[std::size_t(DecisionBackendKind::Asic)]
            ? DecisionBackendKind::Asic
            : DecisionBackendKind::Software;
    const std::size_t lanes = std::max<std::size_t>(
        config_.dispatchBatch, sdtw::BatchSdtw::kDefaultSerialCutover);
    engines_.resize(config_.workers + helpedBySession_.size());
    for (Engine &engine : engines_)
        engine.backend = makeDecisionBackend(kind, asic, kernel, lanes);

    workers_.reserve(config_.workers);
    for (unsigned w = 0; w < config_.workers; ++w)
        workers_.emplace_back(
            [this, &engine = engines_[w]] { workerMain(engine); });
}

bool
DecisionPool::submit(DecisionRequest request)
{
    const std::uint32_t session = request.sessionId;
    // While the queue refuses the push, fold a queued dispatch rather
    // than sleep; block only when there is none to take.  However
    // often it retries, the push counts one backpressure stall.
    using Push = QosBoundedQueue<DecisionRequest>::PushResult;
    for (bool stalled = false;; stalled = true) {
        switch (queue_.tryPush(session, request, stalled)) {
        case Push::Pushed:
            return true;
        case Push::Closed:
            return false;
        case Push::Refused:
            break;
        }
        if (!help(session))
            return queue_.push(session, std::move(request),
                               /*stalled=*/true);
    }
}

bool
DecisionPool::help(std::uint32_t session_id)
{
    if (workers_.empty() || session_id >= helpedBySession_.size())
        return false;
    Engine &engine = engines_[config_.workers + session_id];
    QosClass served = QosClass::Research;
    if (!queue_.tryPopBatch(engine.batch, config_.dispatchBatch, &served))
        return false;
    tick(counters_.helpedDispatches, 1);
    tick(counters_.helpedRequests, engine.batch.size());
    tick(helpedBySession_[session_id], 1);
    dispatch(engine, served);
    return true;
}

void
DecisionPool::shutdown()
{
    queue_.close();
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
}

void
DecisionPool::workerMain(Engine &engine)
{
    QosClass served = QosClass::Research;
    const auto linger = std::chrono::microseconds(config_.dispatchLingerUs);
    while (queue_.popBatch(engine.batch, config_.dispatchBatch, &served,
                           linger))
        dispatch(engine, served);
}

void
DecisionPool::dispatch(Engine &engine, QosClass served)
{
    // Sessions of different backends may share the queue and fold in
    // one lane batch: the engine decides per request what latency it
    // is charged, never what it decides.
    std::vector<DecisionRequest> &batch = engine.batch;
    tick(counters_.dispatches, 1);
    tick(counters_.dispatchedRequests, batch.size());
    tick(counters_.dispatchesByClass[std::size_t(served)], 1);
    for (const DecisionRequest &req : batch) {
        const std::size_t b = std::size_t(req.backend);
        if (!kindInUse_[b])
            panic("pool dispatch carries a request for backend '%s' "
                  "but no session registered it",
                  decisionBackendName(req.backend));
        tick(counters_.requestsByBackend[b], 1);
    }
    engine.backend->fold(batch);
    // Publish lane telemetry per dispatch (not at thread exit) so a
    // mid-run snapshot sees live occupancy.
    const sdtw::FoldStats &fs = engine.backend->foldStats();
    tick(counters_.laneJobs, fs.laneJobs - engine.publishedJobs);
    tick(counters_.laneSlots, fs.laneSlots - engine.publishedSlots);
    engine.publishedJobs = fs.laneJobs;
    engine.publishedSlots = fs.laneSlots;
    batch.clear();
}

ModeledHwStats
DecisionPool::modeledStats(std::uint32_t session_id) const
{
    // Helper engines fold requests too: leaving them out would
    // under-report an Asic session's cycles and checkpoint bytes.
    ModeledHwStats total;
    for (const Engine &engine : engines_)
        total.accumulate(engine.backend->modeledStats(session_id));
    return total;
}

std::uint64_t
DecisionPool::helpedDispatches(std::uint32_t session_id) const
{
    return session_id < helpedBySession_.size()
               ? helpedBySession_[session_id].load(
                     std::memory_order_relaxed)
               : 0;
}

} // namespace sf::stream
