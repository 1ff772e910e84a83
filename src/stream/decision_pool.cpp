#include "stream/decision_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "common/topology.hpp"
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
    // Each worker owns one engine per kind in use: the software one
    // wraps a lane-batch kernel sized to the dispatch pull, the
    // modelled-ASIC one folds through the same kernel and substitutes
    // cycle-model latency.
    const std::size_t lanes = std::max<std::size_t>(
        config_.dispatchBatch, sdtw::BatchSdtw::kDefaultSerialCutover);
    backends_.resize(config_.workers);
    for (BackendSet &set : backends_)
        for (std::size_t b = 0; b < kDecisionBackendKinds; ++b)
            if (kindInUse_[b])
                set[b] = makeDecisionBackend(DecisionBackendKind(b), asic,
                                             kernel, lanes,
                                             config_.laneBatching);

    // Node-compact placement of the workers.  planPlacement is
    // prefix-stable, so a fleet pins its drivers to the tail of a
    // longer plan without moving these.  Wall-clock only: pinning
    // must never change a decision log.
    const std::vector<int> placement =
        config_.pinWorkers ? topo::planPlacement(config_.workers)
                           : std::vector<int>(config_.workers, -1);
    workers_.reserve(config_.workers);
    for (unsigned w = 0; w < config_.workers; ++w)
        workers_.emplace_back(
            [this, cpu = placement[w], &set = backends_[w]] {
                if (cpu >= 0)
                    topo::pinThreadToCpu(cpu);
                workerMain(set);
            });
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
DecisionPool::workerMain(BackendSet &backends)
{
    // Sessions of different backends may share the queue: each
    // dispatch is partitioned by the backend its requests selected
    // (stable, so same-classifier requests keep their queue order and
    // still group into one lane batch) and each partition folds on
    // that backend's engine.
    std::array<sdtw::FoldStats, kDecisionBackendKinds> prev{};
    std::vector<DecisionRequest> batch;
    std::vector<DecisionRequest> part;
    QosClass served = QosClass::Research;
    const auto linger = std::chrono::microseconds(config_.dispatchLingerUs);
    const auto tick = [](PoolCounters::Counter &c, std::uint64_t n) {
        c.fetch_add(n, std::memory_order_relaxed);
    };
    while (queue_.popBatch(batch, config_.dispatchBatch, &served, linger)) {
        tick(counters_.dispatches, 1);
        tick(counters_.dispatchedRequests, batch.size());
        tick(counters_.dispatchesByClass[std::size_t(served)], 1);
        for (std::size_t b = 0; b < kDecisionBackendKinds; ++b) {
            part.clear();
            for (DecisionRequest &req : batch)
                if (std::size_t(req.backend) == b)
                    part.push_back(std::move(req));
            if (part.empty())
                continue;
            DecisionBackend *backend = backends[b].get();
            if (backend == nullptr)
                panic("pool dispatch carries a request for backend '%s' "
                      "but no session registered it",
                      decisionBackendName(DecisionBackendKind(b)));
            backend->fold(part);
            tick(counters_.requestsByBackend[b], part.size());
            // Publish lane telemetry per dispatch (not at thread
            // exit) so a mid-run snapshot sees live occupancy.
            const sdtw::FoldStats &fs = backend->foldStats();
            tick(counters_.laneJobs, fs.laneJobs - prev[b].laneJobs);
            tick(counters_.laneSlots, fs.laneSlots - prev[b].laneSlots);
            prev[b] = fs;
        }
        batch.clear();
    }
}

ModeledHwStats
DecisionPool::modeledStats() const
{
    ModeledHwStats total;
    for (const BackendSet &set : backends_)
        for (const auto &backend : set)
            if (backend != nullptr)
                total.accumulate(backend->modeledStats());
    return total;
}

} // namespace sf::stream
