#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "common/stats.hpp"

namespace sfb {

std::uint64_t
RoundResult::chunks() const
{
    std::uint64_t n = 0;
    for (const SessionOutcome &s : sessions)
        n += s.chunksFolded;
    return n;
}

double
RoundResult::chunksPerSec() const
{
    return wallSec > 0.0 ? double(chunks()) / wallSec : 0.0;
}

double
RoundResult::worstP50() const
{
    double v = 0.0;
    for (const SessionOutcome &s : sessions)
        v = std::max(v, s.p50us);
    return v;
}

double
RoundResult::worstP99() const
{
    double v = 0.0;
    for (const SessionOutcome &s : sessions)
        v = std::max(v, s.p99us);
    return v;
}

double
RoundResult::statP99() const
{
    for (const SessionOutcome &s : sessions)
        if (s.stat)
            return s.p99us;
    return 0.0;
}

double
pct(std::vector<double> xs, double p)
{
    return xs.empty() ? 0.0 : sf::percentile(std::move(xs), p);
}

double
median(std::vector<double> xs)
{
    return pct(std::move(xs), 50.0);
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

SessionOutcome
sessionOutcome(const WorkloadSpec &spec, std::size_t index,
               sf::stream::SessionResult &&result)
{
    const sf::stream::SessionStats &st = result.stats;
    SessionOutcome o;
    o.name = sessionName(spec, index);
    o.stat = isStatSession(index);
    o.digest = logDigest(result.log);
    o.chunksEmitted = st.chunksEmitted;
    o.chunksFolded = st.degradation.chunksFolded;
    o.chunksAborted = st.degradation.chunksAborted;
    o.decisions = st.decisions;
    o.p50us = st.latency.p50us;
    o.p99us = st.latency.p99us;
    o.enrichment = st.enrichmentFactor;
    o.dpWorkRatio = st.dpWorkRatio();
    o.log = std::move(result.log);
    return o;
}

RoundResult
runRound(const WorkloadSpec &spec, const Inputs &inputs, Prepared &p)
{
    if (!p.session && !p.orchestrator)
        construct(spec, inputs, p);
    RoundResult r;
    const std::uint64_t steal0 = stealTicks();
    const double cpu0 = processCpuSec();
    const auto t0 = Clock::now();
    if (spec.entry == Entry::Session) {
        sf::stream::SessionResult result =
            p.session->run(inputs.sessionReads[0].reads);
        r.wallSec = secondsBetween(t0, Clock::now());
        r.cpuSec = processCpuSec() - cpu0;
        r.pool.meanBatch = result.stats.meanBatchSize;
        r.sessions.push_back(sessionOutcome(spec, 0, std::move(result)));
    } else {
        sf::fleet::FleetResult result = p.orchestrator->run();
        r.wallSec = secondsBetween(t0, Clock::now());
        r.cpuSec = processCpuSec() - cpu0;
        const sf::fleet::FleetSnapshot &snap = result.snapshot;
        r.pool.meanBatch = snap.meanBatchSize;
        r.pool.laneOccupancy = snap.laneOccupancy;
        r.pool.statDispatchShare =
            snap.dispatches > 0
                ? double(snap.dispatchesByClass[std::size_t(
                      sf::fleet::QosClass::Stat)]) /
                      double(snap.dispatches)
                : 0.0;
        r.pool.backpressureStalls = double(snap.faults.backpressureStalls);
        for (std::size_t s = 0; s < result.sessions.size(); ++s)
            r.sessions.push_back(sessionOutcome(
                spec, s, std::move(result.sessions[s].result)));
    }
    r.steal = stealTicks() - steal0;
    // A runner serves one round: the orchestrator's run() is one-shot,
    // and rebuilding the session keeps rounds alike.
    p.session.reset();
    p.orchestrator.reset();
    return r;
}

} // namespace sfb
