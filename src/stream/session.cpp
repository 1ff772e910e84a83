#include "stream/session.hpp"

#include <algorithm>
#include <chrono>
#include <queue>
#include <thread>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "signal/chunk_source.hpp"
#include "stream/decision_pool.hpp"

namespace sf::stream {

namespace {

using Clock = std::chrono::steady_clock;

/** Virtual-time event kinds driving the flowcell state machines. */
enum class EventType {
    CaptureDone,   //!< strand captured; sequencing starts
    ChunkDue,      //!< next raw-signal chunk surfaces
    DecisionApply, //!< classifier outcome takes effect on the pore
    // Fault-plan events (>= ChannelDown): scheduled once at start-up
    // from the plan and exempt from the per-channel epoch guard —
    // they target the channel, not a specific read generation.
    ChannelDown,   //!< scripted outage begins (arg = downSec)
    ChannelUp,     //!< recoverable outage ends
    StormBegin,    //!< capture storm window opens (counting only)
    HotSwapDue,    //!< reference switch (epoch = plan index)
    WashDue,       //!< nuclease wash + re-mux (epoch = plan index)
};

/**
 * One scheduled event.  @p seq breaks virtual-time ties in insertion
 * order, making the pop order — and therefore the whole decision log —
 * deterministic regardless of worker count or real-time jitter.
 */
struct Event
{
    double t = 0.0;
    std::uint64_t seq = 0;
    EventType type = EventType::CaptureDone;
    int channel = 0;
    std::uint64_t epoch = 0; //!< channel read generation at scheduling
    double arg = 0.0;        //!< fault payload (ChannelDown: downSec)
};

struct EventAfter
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        if (a.t != b.t)
            return a.t > b.t;
        return a.seq > b.seq;
    }
};

/** Per-pore state machine. */
struct Channel
{
    enum class Phase { Capturing, Sequencing, Done };

    Phase phase = Phase::Capturing;
    const signal::ReadRecord *read = nullptr;
    signal::ChunkSource source;
    sdtw::ClassifierStream stream;
    /** Classifier the current read started under.  Bound at capture
        time so a mid-session hot swap quiesces at read granularity:
        in-flight streams finish under their own classifier. */
    const sdtw::SquiggleFilterClassifier *cls = nullptr;
    /** Bumped whenever the current read ends; stale events no-op. */
    std::uint64_t epoch = 0;
    bool inFlight = false;
    /** Chunks that surfaced while a decision was in flight. */
    std::vector<RawSample> backlog;
    bool backlogEnd = false;
    /** Chunks folded into the backlog buffer (conservation ledger). */
    std::uint64_t backlogChunks = 0;
    double captureDoneSec = 0.0;
    Rng rng; //!< derived from the session seed and channel index

    // ---- fault state -----------------------------------------------
    readuntil::PoreWear wear;
    std::size_t wearBucket = 0; //!< current histogram bin (gauges)
    bool down = false;          //!< scripted outage in effect
    bool worn = false;          //!< pore wore out (a wash may revive)

    /** Parked channels schedule nothing until a recovery/revival. */
    bool
    parked() const
    {
        return down || worn;
    }
};

/**
 * The virtual-time flowcell event loop, shared by run() (a pool of
 * its own) and runShared() (any DecisionService, e.g. a fleet's pool).
 *
 * Completion protocol — the happens-before chain TSan audits:
 *   1. event loop: board.markPending(c) (slot armed under the board
 *      mutex), then service.submit(request) (the queue mutex orders
 *      1 -> 2)
 *   2. worker: pops the request and mutates channels[c].stream
 *      WITHOUT a lock — safe because at most one request per channel
 *      is ever in flight (ch.inFlight gating + the backlog buffer),
 *      so the worker has exclusive ownership of that stream between
 *      pop and completion;
 *   3. worker: board.complete(c) (board mutex release orders the
 *      stream writes before 4)
 *   4. event loop: DecisionApply calls board.await(c), then reads
 *      channels[c].stream.
 * While it waits — for slot c in step 4, or for room in a full queue
 * in step 1 — the event loop may fold queued requests of any channel
 * or session itself (DecisionService::help).  It then plays the
 * worker in steps 2 and 3 under the same protocol; a decision still
 * applies only at its virtual DecisionApply time, so helping moves
 * wall time only.
 * The epoch guard makes events for finished reads no-ops, and the
 * exclusive-ownership invariant of step 2 is asserted (duplicate
 * in-flight requests and double completions panic instead of
 * corrupting a fold — see SoftwareBackend::fold and CompletionBoard).
 */
SessionResult
runEventLoop(const sdtw::SquiggleFilterClassifier &classifier,
             const SessionConfig &config,
             std::span<const signal::ReadRecord> reads,
             DecisionService &service, std::uint32_t session_id,
             SessionLiveCounters *live)
{
    const std::size_t chunk_samples = config.chunkSamples();
    const double rate = config.sampleRateHz;

    SessionResult out;
    SessionStats &stats = out.stats;
    if (reads.empty()) {
        if (live != nullptr)
            live->finished.store(true, std::memory_order_release);
        return out;
    }

    const FaultPlan *plan = config.faults;
    DegradationStats &deg = stats.degradation;
    const bool wear_enabled = plan != nullptr && plan->wearEnabled;

    std::vector<Channel> channels(std::size_t(config.channels));
    for (std::size_t c = 0; c < channels.size(); ++c) {
        channels[c].rng = Rng::derive(config.seed, c);
        if (wear_enabled)
            channels[c].wear =
                readuntil::PoreWear(plan->wearModel, plan->wearSeed, c);
    }
    if (live != nullptr)
        // Every pore starts pristine: the live histogram gauge opens
        // with the whole flowcell in bucket 0.
        live->degradation.wearBuckets[0].fetch_add(
            channels.size(), std::memory_order_relaxed);

    CompletionBoard board(channels.size());
    // Await slot c's decision, folding queued work while it is not
    // ready instead of sleeping.
    const auto await_decision = [&](std::size_t c) {
        while (!board.ready(c) && service.help(session_id)) {
        }
        board.await(c);
    };

    // ---- virtual-time event loop -----------------------------------
    std::priority_queue<Event, std::vector<Event>, EventAfter> events;
    std::uint64_t seq = 0;
    const auto schedule = [&](double t, EventType type, int channel,
                              std::uint64_t epoch, double arg = 0.0) {
        events.push(Event{t, seq++, type, channel, epoch, arg});
    };

    std::size_t next_read = 0;
    // Reference in effect for NEW captures; advanced by HotSwapDue.
    const sdtw::SquiggleFilterClassifier *current_cls = &classifier;
    const auto begin_capture = [&](int c, double t) {
        Channel &ch = channels[std::size_t(c)];
        ch.read = nullptr;
        if (ch.parked()) {
            // Down or worn-out pore: no capture until a recovery or
            // wash revival calls begin_capture again.
            ch.phase = Channel::Phase::Capturing;
            return;
        }
        if (next_read >= reads.size()) {
            ch.phase = Channel::Phase::Done;
            return;
        }
        ch.phase = Channel::Phase::Capturing;
        // A storm divides the mean capture delay for captures
        // initiated inside its window.  Same single RNG draw either
        // way, so the per-channel stream stays aligned with the
        // clean run up to the first storm.
        double mean = config.captureDelayMeanSec;
        if (plan != nullptr)
            mean /= plan->captureRateFactorAt(t);
        schedule(t + ch.rng.exponential(mean), EventType::CaptureDone,
                 c, ch.epoch);
    };

    // Set when the service refuses a submit (shut down underneath
    // us): no completion will arrive, so the loop must stop.
    bool service_down = false;
    const auto submit = [&](int c, double t,
                            std::vector<RawSample> samples, bool end,
                            std::uint64_t chunk_count) {
        Channel &ch = channels[std::size_t(c)];
        ch.inFlight = true;
        board.markPending(std::size_t(c));
        if (!service.submit(DecisionRequest{
                &ch.stream, ch.cls, std::move(samples), end, &board,
                std::size_t(c), session_id, config.backend,
                Clock::now()})) {
            ch.inFlight = false;
            service_down = true;
            // The request never reached a worker: its chunks are
            // accounted aborted so conservation still balances.
            deg.chunksAborted += chunk_count;
            return;
        }
        deg.chunksFolded += chunk_count;
        schedule(t + config.decisionLatencySec, EventType::DecisionApply,
                 c, ch.epoch);
    };

    // Full-sequencing baseline over the same reads, for enrichment.
    double full_target_samples = 0.0;
    double full_total_samples = 0.0;
    const auto account_read = [&](const Channel &ch,
                                  double sequenced_samples) {
        stats.totalSamplesSequenced += sequenced_samples;
        if (ch.read->isTarget())
            stats.targetSamplesSequenced += sequenced_samples;
        full_total_samples += double(ch.read->raw.size());
        if (ch.read->isTarget())
            full_target_samples += double(ch.read->raw.size());
    };

    const auto record_decision = [&](Channel &ch, int c, double t) {
        const sdtw::Classification &r = ch.stream.result;
        out.log.push_back(DecisionRecord{
            std::uint64_t(out.log.size()), c, ch.read->id,
            ch.read->isTarget(), r.keep, r.cost, r.samplesUsed,
            r.stagesRun, t});
        stats.confusion.add(ch.read->isTarget(), r.keep);
        stats.dpRowsFolded += ch.stream.rowsFolded;
        stats.dpRowsNaive += ch.stream.rowsNaive;
        (r.keep ? stats.readsKept : stats.readsEjected) += 1;
    };

    LiveDegradation *ldeg =
        live != nullptr ? &live->degradation : nullptr;
    const auto tick = [&](std::atomic<std::uint64_t> LiveDegradation::*
                              gauge) {
        if (ldeg != nullptr)
            (ldeg->*gauge).fetch_add(1, std::memory_order_relaxed);
    };

    /**
     * Advance a pore's wear by the time it actually spent sequencing
     * (plus the ejection reversal when it ejected) and move its live
     * histogram bucket.  Returns true when the pore just wore out;
     * the dead-channel gauge only moves for an up channel — a worn
     * pore inside an outage transfers between gauges at ChannelUp.
     */
    const auto advance_wear = [&](Channel &ch, double sequenced_samples,
                                  bool ejected) {
        if (!wear_enabled)
            return false;
        ch.wear.sequenceFor(sequenced_samples / rate);
        if (ejected)
            ch.wear.reverseFor(config.ejectLatencySec);
        const std::size_t bucket =
            wearBucketOf(ch.wear.wearFraction());
        if (bucket != ch.wearBucket && ldeg != nullptr) {
            ldeg->wearBuckets[ch.wearBucket].fetch_sub(
                1, std::memory_order_relaxed);
            ldeg->wearBuckets[bucket].fetch_add(
                1, std::memory_order_relaxed);
        }
        ch.wearBucket = bucket;
        if (!ch.worn && ch.wear.worn()) {
            ch.worn = true;
            ++deg.poresWorn;
            tick(&LiveDegradation::poresWorn);
            if (!ch.down)
                tick(&LiveDegradation::deadChannels);
            return true;
        }
        return false;
    };

    /**
     * Cut the current read short (outage hit a sequencing pore).  The
     * in-flight decision, if any, is awaited FIRST: abandoning the
     * slot while a worker still owns the stream would let the next
     * read double-arm the board (a panic) or fold a dead stream.  The
     * samples already surfaced count as sequenced; backlog chunks die
     * with the read and are accounted aborted (conservation).
     */
    const auto abort_read = [&](Channel &ch, int c) {
        if (ch.inFlight) {
            await_decision(std::size_t(c));
            ch.inFlight = false;
        }
        const double sequenced =
            std::min(double(ch.read->raw.size()),
                     double(ch.source.emitted()));
        account_read(ch, sequenced);
        advance_wear(ch, sequenced, false);
        ++deg.readsAborted;
        tick(&LiveDegradation::abortedReads);
        deg.chunksAborted += ch.backlogChunks;
        ch.backlogChunks = 0;
        ch.backlog.clear();
        ch.backlogEnd = false;
        ++ch.epoch; // cancel the read's pending events
        ch.read = nullptr;
        ch.phase = Channel::Phase::Capturing; // parked (down)
    };

    const double max_virtual_sec = config.maxVirtualHours * 3600.0;
    const auto wall_start = Clock::now();
    for (int c = 0; c < config.channels; ++c)
        begin_capture(c, 0.0);
    if (plan != nullptr) {
        for (const ChannelDropout &d : plan->dropouts)
            schedule(d.atSec, EventType::ChannelDown, d.channel, 0,
                     d.downSec);
        for (const CaptureStorm &s : plan->storms)
            schedule(s.atSec, EventType::StormBegin, 0, 0);
        for (std::size_t i = 0; i < plan->hotSwaps.size(); ++i)
            schedule(plan->hotSwaps[i].atSec, EventType::HotSwapDue, 0,
                     i);
        for (std::size_t i = 0; i < plan->washes.size(); ++i)
            schedule(plan->washes[i].atSec, EventType::WashDue, 0, i);
    }

    double now = 0.0;
    while (!events.empty() && !service_down) {
        const Event ev = events.top();
        events.pop();
        if (ev.t > max_virtual_sec) {
            warn("ReadUntilSession stopped at the %g h safety limit",
                 config.maxVirtualHours);
            break;
        }
        now = ev.t;
        Channel &ch = channels[std::size_t(ev.channel)];
        const bool fault_event = ev.type >= EventType::ChannelDown;
        if (!fault_event && ev.epoch != ch.epoch)
            continue; // event for a read that already finished

        switch (ev.type) {
        case EventType::CaptureDone: {
            if (next_read >= reads.size()) {
                ch.phase = Channel::Phase::Done;
                break;
            }
            ch.read = &reads[next_read++];
            ch.source = signal::ChunkSource(*ch.read, chunk_samples);
            // The read binds the classifier CURRENT at capture time
            // and keeps it for its whole life: a hot swap mid-read
            // would invalidate the checkpointed stream.
            ch.cls = current_cls;
            ch.stream = ch.cls->beginStream();
            ch.inFlight = false;
            ch.backlog.clear();
            ch.backlogEnd = false;
            ch.backlogChunks = 0;
            ch.captureDoneSec = ev.t;
            ch.phase = Channel::Phase::Sequencing;
            if (ch.read->raw.empty()) {
                // Degenerate read: no signal, keep by convention.
                ch.cls->finishStream(ch.stream);
                record_decision(ch, ev.channel, ev.t);
                account_read(ch, 0.0);
                ++ch.epoch;
                begin_capture(ev.channel, ev.t);
                break;
            }
            schedule(ev.t + config.chunkSeconds, EventType::ChunkDue,
                     ev.channel, ch.epoch);
            break;
        }

        case EventType::ChunkDue: {
            const auto chunk = ch.source.next();
            ++stats.chunksEmitted;
            if (live != nullptr)
                live->chunksEmitted.fetch_add(
                    1, std::memory_order_relaxed);
            const bool end = ch.source.exhausted();
            if (ch.inFlight) {
                ch.backlog.insert(ch.backlog.end(), chunk.begin(),
                                  chunk.end());
                ch.backlogEnd |= end;
                ++ch.backlogChunks;
            } else {
                submit(ev.channel, ev.t,
                       std::vector<RawSample>(chunk.begin(), chunk.end()),
                       end, 1);
            }
            if (!end)
                schedule(ev.t + config.chunkSeconds, EventType::ChunkDue,
                         ev.channel, ch.epoch);
            break;
        }

        case EventType::DecisionApply: {
            await_decision(std::size_t(ev.channel));
            ch.inFlight = false;
            ++stats.decisions;
            if (live != nullptr)
                live->decisions.fetch_add(1, std::memory_order_relaxed);

            if (!ch.stream.decided) {
                // Intermediate snapshot: resubmit any chunks that
                // surfaced while this decision was in flight.
                if (!ch.backlog.empty() || ch.backlogEnd) {
                    std::vector<RawSample> samples;
                    samples.swap(ch.backlog);
                    const bool end = ch.backlogEnd;
                    ch.backlogEnd = false;
                    const std::uint64_t count = ch.backlogChunks;
                    ch.backlogChunks = 0;
                    submit(ev.channel, ev.t, std::move(samples), end,
                           count);
                }
                break;
            }

            record_decision(ch, ev.channel, ev.t);
            const double read_samples = double(ch.read->raw.size());
            if (ch.stream.result.keep || ch.source.exhausted()) {
                // Kept (or the read ended on its own): the pore
                // sequences the strand to completion, then waits for
                // the next capture.
                account_read(ch, read_samples);
                advance_wear(ch, read_samples, false);
                const double end_t = std::max(
                    ev.t, ch.captureDoneSec + read_samples / rate);
                ++ch.epoch;
                begin_capture(ev.channel, end_t);
            } else {
                // Ejected mid-read: the pore sequenced what was
                // surfaced plus the decision-latency slip, then pays
                // reversal + recovery before the next capture.
                const double sequenced = std::min(
                    read_samples,
                    double(ch.source.emitted()) +
                        config.decisionLatencySec * rate);
                account_read(ch, sequenced);
                advance_wear(ch, sequenced, true);
                ++ch.epoch;
                begin_capture(ev.channel,
                              ev.t + config.ejectLatencySec +
                                  config.poreRecoverySec);
            }
            break;
        }

        case EventType::ChannelDown: {
            if (ch.parked())
                break; // already out: overlapping dropouts collapse
            ++deg.dropouts;
            tick(&LiveDegradation::dropouts);
            ch.down = true;
            if (ev.arg > 0.0) {
                tick(&LiveDegradation::recoveringChannels);
                schedule(ev.t + ev.arg, EventType::ChannelUp,
                         ev.channel, 0);
            } else {
                tick(&LiveDegradation::deadChannels);
            }
            if (ch.phase == Channel::Phase::Sequencing &&
                ch.read != nullptr)
                abort_read(ch, ev.channel);
            else
                ++ch.epoch; // cancel a pending capture
            break;
        }

        case EventType::ChannelUp: {
            if (!ch.down)
                break;
            ch.down = false;
            ++deg.recoveries;
            tick(&LiveDegradation::recoveries);
            if (ldeg != nullptr)
                ldeg->recoveringChannels.fetch_sub(
                    1, std::memory_order_relaxed);
            if (ch.worn) {
                // Wore out during the outage: stays parked, but it is
                // now the wear holding it down, not the dropout.
                tick(&LiveDegradation::deadChannels);
                break;
            }
            begin_capture(ev.channel, ev.t);
            break;
        }

        case EventType::StormBegin: {
            // The rate change itself lives in begin_capture (pure
            // function of virtual time); this event only counts the
            // window for the ledger.
            ++deg.stormWindows;
            tick(&LiveDegradation::stormWindows);
            break;
        }

        case EventType::HotSwapDue: {
            current_cls =
                plan->hotSwaps[std::size_t(ev.epoch)].classifier;
            ++deg.hotSwapEpochs;
            tick(&LiveDegradation::hotSwapEpochs);
            break;
        }

        case EventType::WashDue: {
            ++deg.washes;
            tick(&LiveDegradation::washes);
            for (std::size_t c = 0; c < channels.size(); ++c) {
                Channel &w = channels[c];
                if (!w.worn)
                    continue;
                // One revival stream per (wash, channel), derived —
                // not drawn from the channel RNG — so wash outcomes
                // are independent of how many reads the channel saw.
                Rng coin = Rng::derive(
                    plan->wearSeed + 0x9e3779b9 * (ev.epoch + 1), c);
                if (!w.wear.tryRevive(coin))
                    continue;
                w.worn = false;
                ++deg.poresRevived;
                tick(&LiveDegradation::poresRevived);
                const std::size_t bucket =
                    wearBucketOf(w.wear.wearFraction());
                if (bucket != w.wearBucket && ldeg != nullptr) {
                    ldeg->wearBuckets[w.wearBucket].fetch_sub(
                        1, std::memory_order_relaxed);
                    ldeg->wearBuckets[bucket].fetch_add(
                        1, std::memory_order_relaxed);
                }
                w.wearBucket = bucket;
                if (!w.down) {
                    if (ldeg != nullptr)
                        ldeg->deadChannels.fetch_sub(
                            1, std::memory_order_relaxed);
                    begin_capture(int(c), ev.t);
                }
                // Still inside an outage: ChannelUp will restart it.
            }
            break;
        }
        }
    }

    // Early teardown (safety limit) can leave decisions in flight:
    // await them so no worker completes into a dead board or folds a
    // dead stream after this frame unwinds.  The workers outlive this
    // loop (the caller joins/owns them), so every await terminates.
    for (std::size_t c = 0; c < channels.size(); ++c)
        if (channels[c].inFlight)
            await_decision(c);

    const double wall_sec =
        std::chrono::duration<double>(Clock::now() - wall_start).count();

    // ---- degradation ledger ----------------------------------------
    for (const Channel &ch : channels) {
        // Backlog chunks stranded by an early teardown never reached
        // a request; account them so conservation balances.
        deg.chunksAborted += ch.backlogChunks;
        if (ch.worn || ch.down)
            ++deg.deadChannelsAtEnd;
        ++deg.wearHistogram[wearBucketOf(ch.wear.wearFraction())];
    }
    // "Never drops a chunk", as an always-on invariant: every chunk a
    // channel emitted either reached the decision service or was
    // accounted aborted with its read.
    if (stats.chunksEmitted != deg.chunksFolded + deg.chunksAborted)
        panic("chunk conservation violated: %llu emitted vs %llu "
              "folded + %llu aborted",
              (unsigned long long)stats.chunksEmitted,
              (unsigned long long)deg.chunksFolded,
              (unsigned long long)deg.chunksAborted);

    // ---- aggregate statistics --------------------------------------
    stats.backend = config.backend;
    stats.readsProcessed = out.log.size();
    stats.virtualSeconds = now;
    stats.wallSeconds = wall_sec;
    stats.chunksPerSec =
        wall_sec > 0.0 ? double(stats.chunksEmitted) / wall_sec : 0.0;
    const auto latencies_us = board.takeLatencies();
    if (!latencies_us.empty()) {
        stats.latency.p50us = percentile(latencies_us, 50.0);
        stats.latency.p90us = percentile(latencies_us, 90.0);
        stats.latency.p99us = percentile(latencies_us, 99.0);
        stats.latency.maxUs =
            *std::max_element(latencies_us.begin(), latencies_us.end());
    }
    if (stats.totalSamplesSequenced > 0.0 && full_total_samples > 0.0 &&
        full_target_samples > 0.0) {
        const double with_ru =
            stats.targetSamplesSequenced / stats.totalSamplesSequenced;
        const double without_ru =
            full_target_samples / full_total_samples;
        stats.enrichmentFactor = with_ru / without_ru;
    }
    if (live != nullptr)
        live->finished.store(true, std::memory_order_release);
    return out;
}

} // namespace

ReadUntilSession::ReadUntilSession(
    const sdtw::SquiggleFilterClassifier &classifier,
    SessionConfig config)
    : classifier_(classifier), config_(config)
{
    if (config_.channels <= 0)
        fatal("ReadUntilSession needs at least one channel");
    if (config_.chunkSamples() == 0)
        fatal("ReadUntilSession chunk must cover at least one sample");
    if (config_.sampleRateHz <= 0.0)
        fatal("ReadUntilSession sample rate must be positive");
    if (config_.workers == 0)
        config_.workers = std::max(1u, std::thread::hardware_concurrency());
    if (config_.queueCapacity == 0 || config_.dispatchBatch == 0)
        fatal("ReadUntilSession queue capacity and dispatch batch must "
              "be positive");
    if (config_.backend == DecisionBackendKind::Asic)
        checkAsicImplementable(config_.asic, classifier_.config());
    if (config_.faults != nullptr) {
        config_.faults->validate(config_.channels);
        // A hot swap re-points captures at a new reference while the
        // worker kernels (sized once from the primary's SdtwConfig)
        // keep running — so every swap target must agree on the
        // kernel shape, exactly like fleet sessions.
        for (const ReferenceHotSwap &h : config_.faults->hotSwaps)
            if (h.classifier->config() != classifier_.config())
                fatal("FaultPlan hot-swap classifier disagrees with "
                      "the session on kernel SdtwConfig (metric/refdel/"
                      "bonus/dwell); swaps may change the reference "
                      "squiggle, not the kernel shape");
    }
}

SessionResult
ReadUntilSession::run(std::span<const signal::ReadRecord> reads) const
{
    const auto wall_start = Clock::now();
    // One Stat session, no quota, no linger: the pool reduces to a
    // plain bounded FIFO in front of config().workers workers.
    PoolConfig pool_config;
    pool_config.workers = config_.workers;
    pool_config.queueCapacity = config_.queueCapacity;
    pool_config.dispatchBatch = config_.dispatchBatch;
    pool_config.statBurst = 1;
    pool_config.dispatchLingerUs = 0;
    pool_config.laneBatching = config_.laneBatching;
    DecisionPool pool(pool_config);
    const std::uint32_t session_id =
        pool.registerSession(QosClass::Stat, config_.backend);
    pool.start(classifier_.config(), config_.asic);
    SessionResult out = runEventLoop(classifier_, config_, reads, pool,
                                     session_id, /*live=*/nullptr);
    pool.shutdown();
    // Pool-level statistics, and the wall clock including the drain
    // and join so throughput numbers stay comparable with earlier
    // baselines of this method.
    const double wall_sec =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    out.stats.wallSeconds = wall_sec;
    out.stats.chunksPerSec =
        wall_sec > 0.0 ? double(out.stats.chunksEmitted) / wall_sec : 0.0;
    const PoolCounters &counters = pool.counters();
    out.stats.dispatches = counters.dispatches;
    out.stats.helpedDispatches = counters.helpedDispatches;
    out.stats.meanBatchSize =
        out.stats.dispatches > 0 ? double(counters.dispatchedRequests) /
                                       double(out.stats.dispatches)
                                 : 0.0;
    out.stats.hwModel = pool.modeledStats(session_id);
    return out;
}

SessionResult
ReadUntilSession::runShared(DecisionService &service,
                            std::span<const signal::ReadRecord> reads,
                            std::uint32_t session_id,
                            SessionLiveCounters *live) const
{
    return runEventLoop(classifier_, config_, reads, service, session_id,
                        live);
}

} // namespace sf::stream
