#ifndef SF_PERFBENCH_TRACE_HPP
#define SF_PERFBENCH_TRACE_HPP

/**
 * @file
 * Spans of the traced run.  The benchmark's own DecisionService stamps
 * every request at the layer boundaries it can see from outside the
 * program — submit, queue push, pop, fold begin, fold end — and keeps
 * the spans in memory until the run ends.  One id per request ties
 * them together.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sdtw/batch.hpp"

namespace sfb {

/** One decision request, from the event loop's submit to fold end. */
struct RequestSpan
{
    std::uint64_t id = 0;
    std::size_t sessionRun = 0; //!< index into TraceRecorder::sessions
    std::size_t slot = 0;       //!< channel
    std::size_t samples = 0;    //!< query samples carried
    std::uint64_t dispatch = 0;
    Clock::time_point enqueued{};  //!< stamped by the event loop
    Clock::time_point queued{};    //!< push into the queue begins
    Clock::time_point pushed{};    //!< push returned
    Clock::time_point popped{};    //!< a worker pulled it
    Clock::time_point foldBegin{}; //!< its dispatch's fold began
    Clock::time_point foldEnd{};   //!< ... and ended (completion)
};

/** One worker dispatch: a popBatch and the fold of what it pulled. */
struct DispatchSpan
{
    std::uint64_t id = 0;
    unsigned worker = 0;
    bool stat = false;       //!< QoS class served
    std::size_t requests = 0;
    std::size_t samples = 0;
    Clock::time_point popped{};
    Clock::time_point foldBegin{};
    Clock::time_point foldEnd{};
};

/** One session's runShared() call. */
struct SessionSpan
{
    std::string name;
    bool stat = false;
    std::size_t slot = 0;     //!< session id within its round
    double boardP50us = 0.0;  //!< the program's own latency p50
    Clock::time_point begin{};
    Clock::time_point end{};
};

/** Spans and counters of every traced round of one run. */
struct TraceRecorder
{
    Clock::time_point origin = Clock::now();
    std::vector<RequestSpan> requests;
    std::vector<DispatchSpan> dispatches;
    std::vector<SessionSpan> sessions;
    sf::sdtw::FoldStats fold{};
    double wallSec = 0.0;      //!< summed over traced rounds
    unsigned workers = 0;
    std::size_t referenceLength = 0;
};

/** Per-layer figures derived from the spans. */
struct LayerMetrics
{
    double cellsPerSec = 0.0;
    double foldP50us = 0.0;
    double foldP99us = 0.0;
    double serialShare = 0.0;
    double laneOccupancy = 0.0;
    double busyFrac = 0.0;
    double waitP50us = 0.0;
    double waitP99us = 0.0;
    double statWaitP50us = 0.0;
    double statWaitP99us = 0.0;
    double loopGapFrac = 0.0;
    double submitP99us = 0.0;
};

LayerMetrics layerMetrics(const TraceRecorder &trace);

/** Print the per-layer self-time table and the p50 waterfall. */
void printTraceReport(const TraceRecorder &trace, double tolerance);

/** Write the spans as Chrome trace-event JSON (loads in Perfetto). */
bool writeChromeTrace(const TraceRecorder &trace, const std::string &path);

} // namespace sfb

#endif // SF_PERFBENCH_TRACE_HPP
