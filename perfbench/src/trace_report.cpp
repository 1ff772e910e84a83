#include <algorithm>
#include <cmath>
#include <cstdio>

#include "trace.hpp"

namespace sfb {

namespace {

/** The four parts a request's latency splits into, in order. */
struct Parts
{
    std::vector<double> enqueue; //!< event loop stamp -> push begins
    std::vector<double> wait;    //!< push begins -> popped (incl. linger)
    std::vector<double> handoff; //!< popped -> fold begins
    std::vector<double> fold;    //!< fold of the request's dispatch
    std::vector<double> total;   //!< enqueued -> fold end
};

void
addParts(Parts &parts, const RequestSpan &r)
{
    parts.enqueue.push_back(microsBetween(r.enqueued, r.queued));
    parts.wait.push_back(microsBetween(r.queued, r.popped));
    parts.handoff.push_back(microsBetween(r.popped, r.foldBegin));
    parts.fold.push_back(microsBetween(r.foldBegin, r.foldEnd));
    parts.total.push_back(microsBetween(r.enqueued, r.foldEnd));
}

/** Share of the session's wall with none of its requests in flight. */
double
loopGapFrac(const TraceRecorder &trace, std::size_t run)
{
    const SessionSpan &s = trace.sessions[run];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
    for (const RequestSpan &r : trace.requests)
        if (r.sessionRun == run)
            spans.emplace_back(r.enqueued, r.foldEnd);
    std::sort(spans.begin(), spans.end());
    double busy = 0.0;
    Clock::time_point cursor = s.begin;
    for (const auto &[a, b] : spans) {
        const Clock::time_point from = std::max(a, cursor);
        if (b > from) {
            busy += secondsBetween(from, b);
            cursor = b;
        }
    }
    const double wall = secondsBetween(s.begin, s.end);
    return wall > 0.0 ? std::max(0.0, 1.0 - busy / wall) : 0.0;
}

Parts
sessionParts(const TraceRecorder &trace, std::size_t run)
{
    Parts parts;
    for (const RequestSpan &r : trace.requests)
        if (r.sessionRun == run)
            addParts(parts, r);
    return parts;
}

} // namespace

LayerMetrics
layerMetrics(const TraceRecorder &trace)
{
    LayerMetrics m;
    std::vector<double> folds;
    double foldSec = 0.0;
    double cells = 0.0;
    for (const DispatchSpan &d : trace.dispatches) {
        const double sec = secondsBetween(d.foldBegin, d.foldEnd);
        folds.push_back(sec * 1e6);
        foldSec += sec;
        cells += double(d.samples) * double(trace.referenceLength);
    }
    m.cellsPerSec = foldSec > 0.0 ? cells / foldSec : 0.0;
    m.foldP50us = pct(folds, 50.0);
    m.foldP99us = pct(folds, 99.0);
    const double calls =
        double(trace.fold.serialCalls + trace.fold.batchedCalls);
    m.serialShare = calls > 0.0 ? double(trace.fold.serialCalls) / calls : 0;
    m.laneOccupancy = trace.fold.laneSlots > 0
                          ? double(trace.fold.laneJobs) /
                                double(trace.fold.laneSlots)
                          : 0.0;
    m.busyFrac = trace.wallSec > 0.0 && trace.workers > 0
                     ? foldSec / (trace.wallSec * trace.workers)
                     : 0.0;

    std::vector<double> wait, statWait, submit;
    for (const RequestSpan &r : trace.requests) {
        const double w = microsBetween(r.queued, r.popped);
        wait.push_back(w);
        if (trace.sessions[r.sessionRun].stat)
            statWait.push_back(w);
        submit.push_back(microsBetween(r.queued, r.pushed));
    }
    m.waitP50us = pct(wait, 50.0);
    m.waitP99us = pct(wait, 99.0);
    m.statWaitP50us = pct(statWait, 50.0);
    m.statWaitP99us = pct(statWait, 99.0);
    m.submitP99us = pct(submit, 99.0);

    double gaps = 0.0;
    for (std::size_t run = 0; run < trace.sessions.size(); ++run)
        gaps += loopGapFrac(trace, run);
    m.loopGapFrac =
        trace.sessions.empty() ? 0.0 : gaps / double(trace.sessions.size());
    return m;
}

void
printTraceReport(const TraceRecorder &trace, double tolerance)
{
    Parts all;
    for (const RequestSpan &r : trace.requests)
        addParts(all, r);
    double requestUs = 0.0;
    for (double t : all.total)
        requestUs += t;
    const auto row = [&](const char *layer, const std::vector<double> &xs) {
        double sum = 0.0;
        for (double x : xs)
            sum += x;
        std::printf("  %-16s %8zu %12.1f %12.1f %12.1f %7.1f%%\n", layer,
                    xs.size(), median(xs), pct(xs, 99.0), sum / 1e3,
                    requestUs > 0.0 ? 100.0 * sum / requestUs : 0.0);
    };
    std::printf("per-layer self time (%zu requests, %zu dispatches)\n",
                all.total.size(), trace.dispatches.size());
    std::printf("  %-16s %8s %12s %12s %12s %8s\n", "layer", "count",
                "p50 us", "p99 us", "total ms", "share");
    row("request.enqueue", all.enqueue);
    row("queue.wait", all.wait);
    row("pool.handoff", all.handoff);
    row("sdtw.fold", all.fold);

    double foldSec = 0.0;
    for (const DispatchSpan &d : trace.dispatches)
        foldSec += secondsBetween(d.foldBegin, d.foldEnd);
    const double workerSec = trace.wallSec * trace.workers;
    std::printf("  workers: %.3f s folding of %.3f s (%u x %.3f s wall), "
                "idle %.1f%%\n",
                foldSec, workerSec, trace.workers, trace.wallSec,
                workerSec > 0.0 ? 100.0 * (1.0 - foldSec / workerSec) : 0.0);

    std::printf("p50 waterfall (tolerance %.0f%%)\n", 100.0 * tolerance);
    for (std::size_t run = 0; run < trace.sessions.size(); ++run) {
        const Parts parts = sessionParts(trace, run);
        const double sum = median(parts.enqueue) + median(parts.wait) +
                           median(parts.handoff) + median(parts.fold);
        const double board = trace.sessions[run].boardP50us;
        const double residual = board > 0.0 ? sum / board - 1.0 : 0.0;
        std::printf("  %-9s enqueue %.1f + wait %.1f + handoff %.1f + "
                    "fold %.1f = %.1f us vs p50 %.1f us (%+.1f%%) "
                    "loop gap %.1f%% %s\n",
                    trace.sessions[run].name.c_str(),
                    median(parts.enqueue), median(parts.wait),
                    median(parts.handoff), median(parts.fold), sum, board,
                    100.0 * residual, 100.0 * loopGapFrac(trace, run),
                    std::abs(residual) <= tolerance ? "ok" : "OFF");
    }
}

bool
writeChromeTrace(const TraceRecorder &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const auto ts = [&](Clock::time_point t) {
        return microsBetween(trace.origin, t);
    };
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f, "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
                    "\"args\":{\"name\":\"sessions\"}},\n");
    std::fprintf(f, "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
                    "\"args\":{\"name\":\"workers\"}}");
    for (unsigned w = 0; w < trace.workers; ++w)
        std::fprintf(f, ",\n{\"ph\":\"M\",\"pid\":2,\"tid\":%u,\"name\":"
                        "\"thread_name\",\"args\":{\"name\":\"worker %u\"}}",
                     w, w);
    for (std::size_t run = 0; run < trace.sessions.size(); ++run) {
        const SessionSpan &s = trace.sessions[run];
        std::fprintf(f, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":"
                        "\"runShared %s\",\"ts\":%.3f,\"dur\":%.3f}",
                     s.slot, s.name.c_str(), ts(s.begin),
                     microsBetween(s.begin, s.end));
    }
    for (const DispatchSpan &d : trace.dispatches)
        std::fprintf(f, ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%u,\"name\":"
                        "\"fold\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                        "\"dispatch\":%llu,\"requests\":%zu,\"samples\":%zu,"
                        "\"class\":\"%s\"}}",
                     d.worker, ts(d.foldBegin),
                     microsBetween(d.foldBegin, d.foldEnd),
                     (unsigned long long)d.id, d.requests, d.samples,
                     d.stat ? "stat" : "research");
    // Requests overlap on a session's track, so they are async
    // (nestable) events keyed by the request id.
    for (const RequestSpan &r : trace.requests) {
        const std::size_t tid = trace.sessions[r.sessionRun].slot;
        const auto ev = [&](const char *ph, const char *name,
                            Clock::time_point t) {
            std::fprintf(f, ",\n{\"ph\":\"%s\",\"cat\":\"request\","
                            "\"id\":%llu,\"pid\":1,\"tid\":%zu,\"name\":"
                            "\"%s\",\"ts\":%.3f",
                         ph, (unsigned long long)r.id, tid, name, ts(t));
        };
        ev("b", "decision", r.enqueued);
        std::fprintf(f, ",\"args\":{\"channel\":%zu,\"samples\":%zu,"
                        "\"dispatch\":%llu}}",
                     r.slot, r.samples, (unsigned long long)r.dispatch);
        ev("b", "queue_wait", r.queued);
        std::fputs("}", f);
        ev("e", "queue_wait", r.popped);
        std::fputs("}", f);
        ev("b", "fold", r.foldBegin);
        std::fputs("}", f);
        ev("e", "fold", r.foldEnd);
        std::fputs("}", f);
        ev("e", "decision", r.foldEnd);
        std::fputs("}", f);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace sfb
