#include "stream/decision_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "sdtw/batch.hpp"

namespace sf::stream {

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
    return queue_.registerSession(cls, config_.sessionQuota);
}

void
DecisionPool::start(const sdtw::SdtwConfig &kernel, const AsicSpec &asic)
{
    if (!workers_.empty())
        fatal("DecisionPool::start may be called once");
    // One engine per worker whatever the backend mix: the modelled-
    // ASIC one is a latency-accounting decorator over the software
    // fold, so it serves Software requests at wall-clock latency too.
    const DecisionBackendKind kind =
        kindInUse_[std::size_t(DecisionBackendKind::Asic)]
            ? DecisionBackendKind::Asic
            : DecisionBackendKind::Software;
    const std::size_t lanes = std::max<std::size_t>(
        config_.dispatchBatch, sdtw::BatchSdtw::kDefaultSerialCutover);
    backends_.reserve(config_.workers);
    for (unsigned w = 0; w < config_.workers; ++w)
        backends_.push_back(makeDecisionBackend(kind, asic, kernel, lanes,
                                                config_.laneBatching));

    workers_.reserve(config_.workers);
    for (unsigned w = 0; w < config_.workers; ++w)
        workers_.emplace_back(
            [this, &backend = *backends_[w]] { workerMain(backend); });
}

bool
DecisionPool::submit(DecisionRequest request)
{
    const std::uint32_t session = request.sessionId;
    return queue_.push(session, std::move(request)); // blocks when full
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
DecisionPool::workerMain(DecisionBackend &backend)
{
    // Sessions of different backends may share the queue and fold in
    // one lane batch: the engine decides per request what latency it
    // is charged, never what it decides.
    sdtw::FoldStats prev{};
    std::vector<DecisionRequest> batch;
    QosClass served = QosClass::Research;
    const auto linger = std::chrono::microseconds(config_.dispatchLingerUs);
    const auto tick = [](PoolCounters::Counter &c, std::uint64_t n) {
        c.fetch_add(n, std::memory_order_relaxed);
    };
    while (queue_.popBatch(batch, config_.dispatchBatch, &served, linger)) {
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
        backend.fold(batch);
        // Publish lane telemetry per dispatch (not at thread exit) so
        // a mid-run snapshot sees live occupancy.
        const sdtw::FoldStats &fs = backend.foldStats();
        tick(counters_.laneJobs, fs.laneJobs - prev.laneJobs);
        tick(counters_.laneSlots, fs.laneSlots - prev.laneSlots);
        prev = fs;
        batch.clear();
    }
}

ModeledHwStats
DecisionPool::modeledStats(std::uint32_t session_id) const
{
    ModeledHwStats total;
    for (const auto &backend : backends_)
        total.accumulate(backend->modeledStats(session_id));
    return total;
}

} // namespace sf::stream
