#ifndef SF_STREAM_FAULT_PLAN_HPP
#define SF_STREAM_FAULT_PLAN_HPP

/**
 * @file
 * Seeded, deterministic fault injection for streaming sessions.
 *
 * A FaultPlan scripts hostile flowcell conditions on the session's
 * VIRTUAL clock, so every fault fires at exactly the same point of
 * the decision stream no matter how many workers serve it or how the
 * wall clock jitters.  The determinism contract of ReadUntilSession
 * is preserved verbatim: for a fixed (seed, config, reads, FaultPlan)
 * the decision log is bit-identical across worker counts, queue
 * capacities and fleet mixes.  Four fault classes:
 *
 *  - channel dropout: a pore goes dark at a scheduled time — a read
 *    in progress is aborted (its in-flight decision is awaited first,
 *    so no worker ever completes into an abandoned slot) — and
 *    optionally recovers after a fixed outage;
 *  - capture storm: a window during which capture delays shrink by a
 *    rate factor, bursting chunk arrivals into the decision queue.
 *    Backpressure must absorb the burst: submits block, nothing is
 *    dropped (the soak gate proves chunk conservation, see
 *    DegradationStats);
 *  - pore wear: per-pore hazard wear via readuntil::PoreWear (the
 *    fig20 duty-derived model) advanced by actual sequenced/reversal
 *    time; worn pores park until a scheduled nuclease wash revives a
 *    remuxRecovery fraction of them;
 *  - reference hot-swap: at a scheduled time the session switches to
 *    a new classifier.  The swap quiesces at chunk boundaries: reads
 *    already being sequenced finish under the classifier they started
 *    with (their checkpointed streams belong to it), and every read
 *    captured afterwards binds the new one.  Swap classifiers must
 *    agree with the primary on the four kernel-affecting SdtwConfig
 *    switches so shared worker kernels stay valid (validated up
 *    front; reference squiggles may differ freely).
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "readuntil/flowcell.hpp"

namespace sf::sdtw {
class SquiggleFilterClassifier;
}

namespace sf::stream {

/** Buckets of the wear histogram (wearFraction in [i/8, (i+1)/8)). */
inline constexpr std::size_t kWearBuckets = 8;

/** Scheduled channel outage. */
struct ChannelDropout
{
    int channel = 0;
    double atSec = 0.0;
    /** Outage length; <= 0 means the channel never recovers. */
    double downSec = 0.0;
};

/** Capture-rate burst window. */
struct CaptureStorm
{
    double atSec = 0.0;
    double durationSec = 0.0;
    /** Capture delays divide by this inside the window (> 1 = burst). */
    double captureRateFactor = 1.0;
};

/** Scheduled mid-session reference switch. */
struct ReferenceHotSwap
{
    double atSec = 0.0;
    const sdtw::SquiggleFilterClassifier *classifier = nullptr;
};

/** Scheduled nuclease wash + re-mux (revives worn pores). */
struct NucleaseWash
{
    double atSec = 0.0;
};

/** A scripted fault schedule, attached via SessionConfig::faults. */
struct FaultPlan
{
    std::vector<ChannelDropout> dropouts;
    std::vector<CaptureStorm> storms;
    std::vector<ReferenceHotSwap> hotSwaps;
    std::vector<NucleaseWash> washes;

    bool wearEnabled = false;
    readuntil::PoreWearModel wearModel;
    /** Seed of the wear threshold / wash revival streams.  Kept apart
        from the session seed so enabling wear does not shift the
        capture-delay RNG of any channel. */
    std::uint64_t wearSeed = 0x3ea6;

    // ---- fluent builders -------------------------------------------
    FaultPlan &
    dropout(int channel, double at_sec, double down_sec)
    {
        dropouts.push_back(ChannelDropout{channel, at_sec, down_sec});
        return *this;
    }

    FaultPlan &
    storm(double at_sec, double duration_sec, double rate_factor)
    {
        storms.push_back(
            CaptureStorm{at_sec, duration_sec, rate_factor});
        return *this;
    }

    FaultPlan &
    hotSwap(double at_sec, const sdtw::SquiggleFilterClassifier *cls)
    {
        hotSwaps.push_back(ReferenceHotSwap{at_sec, cls});
        return *this;
    }

    FaultPlan &
    wash(double at_sec)
    {
        washes.push_back(NucleaseWash{at_sec});
        return *this;
    }

    FaultPlan &
    enableWear(const readuntil::PoreWearModel &model,
               std::uint64_t seed)
    {
        wearEnabled = true;
        wearModel = model;
        wearSeed = seed;
        return *this;
    }

    bool
    empty() const
    {
        return dropouts.empty() && storms.empty() && hotSwaps.empty() &&
               washes.empty() && !wearEnabled;
    }

    /** Combined capture-rate factor of every storm covering @p t
        (overlapping storms multiply). */
    double captureRateFactorAt(double t) const;

    /**
     * Fatal on an inconsistent plan: a dropout channel outside
     * [0, @p channels), a non-finite time, duration, storm factor or
     * (with wear enabled) wear parameter, a non-positive storm factor
     * or duration, a null hot-swap classifier, or any negative
     * schedule time.
     * Kernel-config agreement of hot-swap classifiers is checked by
     * ReadUntilSession / FleetOrchestrator, which know the primary.
     */
    void validate(int channels) const;
};

/**
 * Deterministic (virtual-time) degradation ledger of one session run.
 * Every counter here depends only on (seed, config, reads, FaultPlan)
 * — wall-clock effects such as backpressure stalls live in the fleet
 * snapshot instead (see fleet::SessionSnapshot).
 */
struct DegradationStats
{
    std::uint64_t dropouts = 0;      //!< channel outages applied
    std::uint64_t recoveries = 0;    //!< outages that ended
    std::uint64_t readsAborted = 0;  //!< reads cut off by an outage
    std::uint64_t poresWorn = 0;     //!< pores that wore out
    std::uint64_t poresRevived = 0;  //!< worn pores a wash revived
    std::uint64_t washes = 0;        //!< wash events applied
    std::uint64_t hotSwapEpochs = 0; //!< reference switches applied
    std::uint64_t stormWindows = 0;  //!< capture storms entered
    /** Channels dead at run end (worn or permanently dropped). */
    std::uint64_t deadChannelsAtEnd = 0;

    /** Chunk conservation: every chunk emitted is either folded into
        a decision request or accounted as aborted with its read.
        chunksEmitted == chunksFolded + chunksAborted is an invariant
        the event loop asserts — the "never drops a chunk" proof. */
    std::uint64_t chunksFolded = 0;
    std::uint64_t chunksAborted = 0;

    /** Final per-channel wearFraction histogram (kWearBuckets equal
        bins over [0,1]; a fraction of 1.0 lands in the last bin). */
    std::array<std::uint64_t, kWearBuckets> wearHistogram{};

    bool operator==(const DegradationStats &other) const = default;
};

/** Histogram bin of a wear fraction in [0, 1]. */
inline std::size_t
wearBucketOf(double fraction)
{
    const auto bucket = std::size_t(fraction * double(kWearBuckets));
    return bucket < kWearBuckets ? bucket : kWearBuckets - 1;
}

} // namespace sf::stream

#endif // SF_STREAM_FAULT_PLAN_HPP
