#include <algorithm>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "pipeline/experiments.hpp"
#include "sdtw/threshold.hpp"

namespace sfb {

namespace {

constexpr std::size_t kChunkSamples = 1600; // 0.4 s at 4 kHz
constexpr std::size_t kStages = 9;
constexpr std::size_t kCalibrationPrefix = 2000;

// Thread counts: session drivers plus pool workers never exceed the
// 4 cores of the reference host (README: "Workloads").  Read counts
// size a round: at least 1000 decisions per session, about 2000 on the
// fleet, whose p99 is noisiest.
const std::vector<WorkloadSpec> kWorkloads = {
    {.name = "fleet-surveillance",
     .entry = Entry::Fleet,
     .target = Target::StreamVirus,
     .sessions = 2,
     // 128 channels each keep both QoS classes queued, so latency is
     // set by queueing; at 32 a round's p99 rested on two or three
     // slow folds and spread 33-40% between seeds.
     .channels = 128,
     .workers = 2,
     .lingerUs = 250,
     .readsPerSession = 680,
     .calibrationReads = 480},
    {.name = "session-genome",
     .entry = Entry::Session,
     .target = Target::SarsCov2,
     .channels = 512,
     .workers = 3,
     // Caps requests in flight at 64 queued + 3 x 16 folding, well
     // below the reads on the flowcell, so most decisions are made in
     // steady state instead of while the round drains.
     .queueCapacity = 64,
     .readsPerSession = 380,
     .calibrationReads = 90},
};

// Sub-streams of the workload seed: reads of flowcell s use index s.
constexpr std::uint64_t kCalibrationStream = 0xca1;
constexpr std::uint64_t kCaptureStream = 0xc00;

std::size_t readsSimulatedSoFar = 0;

/** Independent stream @p index of the workload seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t index)
{
    return sf::Rng::derive(seed, index)();
}

sf::signal::Dataset
simulateReads(const sf::genome::Genome &target, std::size_t count,
              std::uint64_t seed)
{
    // The streaming fixtures' short-read recipe: reads span a handful
    // of chunks, half of them viral.
    const sf::signal::DatasetGenerator generator(
        target, sf::pipeline::humanBackground(),
        sf::pipeline::defaultSimulator());
    sf::signal::DatasetSpec spec;
    spec.numReads = count;
    spec.targetFraction = 0.5;
    spec.targetLengths = {1000.0, 0.4, 400, 4000};
    spec.backgroundLengths = {1500.0, 0.45, 400, 6000};
    spec.seed = seed;
    readsSimulatedSoFar += count;
    return generator.generate(spec);
}

} // namespace

std::size_t
readsSimulated()
{
    return readsSimulatedSoFar;
}

const std::vector<WorkloadSpec> &
allWorkloads()
{
    return kWorkloads;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : kWorkloads)
        if (name == spec.name)
            return &spec;
    return nullptr;
}

WorkloadSpec
tinyScale(WorkloadSpec spec)
{
    spec.channels = std::min(spec.channels, 16);
    spec.readsPerSession = 24;
    spec.calibrationReads = 12;
    return spec;
}

Inputs
makeInputs(const WorkloadSpec &spec, std::uint64_t seed)
{
    const auto start = Clock::now();
    Inputs in;
    in.seed = seed;
    in.targetGenome = spec.target == Target::SarsCov2
                          ? &sf::pipeline::sarsCov2Genome()
                          : &sf::pipeline::streamVirusGenome();
    for (std::size_t s = 0; s < spec.sessions; ++s)
        in.sessionReads.push_back(simulateReads(
            *in.targetGenome, spec.readsPerSession, subSeed(seed, s)));
    in.calibration = simulateReads(*in.targetGenome, spec.calibrationReads,
                                   subSeed(seed, kCalibrationStream));
    // The pore model is a process-wide fixture: touch it here so its
    // construction is never charged to the set-up timer.
    (void)sf::pipeline::defaultKmerModel();
    in.generateSec = secondsBetween(start, Clock::now());
    return in;
}

const char *
sessionName(const WorkloadSpec &spec, std::size_t session)
{
    if (spec.entry == Entry::Session)
        return "flowcell";
    return isStatSession(session) ? "stat" : "research";
}

sf::stream::SessionConfig
sessionConfig(const WorkloadSpec &spec, std::size_t session,
              std::uint64_t seed)
{
    sf::stream::SessionConfig cfg;
    cfg.channels = spec.channels;
    cfg.chunkSeconds = double(kChunkSamples) / cfg.sampleRateHz;
    cfg.decisionLatencySec = cfg.chunkSeconds; // one chunk period
    cfg.workers = spec.workers;
    cfg.queueCapacity = spec.queueCapacity;
    cfg.dispatchBatch = spec.dispatchBatch;
    cfg.seed = subSeed(seed, kCaptureStream + session);
    return cfg;
}

void
construct(const WorkloadSpec &spec, const Inputs &inputs, Prepared &p)
{
    if (spec.entry == Entry::Session) {
        p.session = std::make_unique<sf::stream::ReadUntilSession>(
            *p.classifier, sessionConfig(spec, 0, inputs.seed));
        return;
    }
    sf::fleet::FleetConfig cfg;
    cfg.workers = spec.workers;
    cfg.queueCapacity = spec.queueCapacity;
    cfg.dispatchBatch = spec.dispatchBatch;
    cfg.statBurst = spec.statBurst;
    cfg.dispatchLingerUs = spec.lingerUs;
    p.orchestrator = std::make_unique<sf::fleet::FleetOrchestrator>(cfg);
    for (std::size_t s = 0; s < spec.sessions; ++s) {
        sf::fleet::SessionSpec session;
        session.name = sessionName(spec, s);
        session.classifier = p.classifier.get();
        session.config = sessionConfig(spec, s, inputs.seed);
        session.qos = isStatSession(s) ? sf::fleet::QosClass::Stat
                                       : sf::fleet::QosClass::Research;
        session.reads = inputs.sessionReads[s].reads;
        p.orchestrator->addSession(std::move(session));
    }
}

Prepared
setUp(const WorkloadSpec &spec, const Inputs &inputs, bool inject_simulation)
{
    Prepared p;
    const auto t0 = Clock::now();
    p.reference = std::make_unique<sf::pore::ReferenceSquiggle>(
        *inputs.targetGenome, sf::pipeline::defaultKmerModel());
    const auto t1 = Clock::now();
    if (inject_simulation)
        // Deliberate contract violation for the self-test: calibration
        // reads simulated next to collectCosts, where their time would
        // pass as calibration.  main() must refuse the run.
        (void)simulateReads(*inputs.targetGenome, spec.calibrationReads,
                            subSeed(inputs.seed, kCalibrationStream));
    const auto costs = sf::sdtw::collectCosts(
        *p.reference, inputs.calibration.reads, kCalibrationPrefix,
        sf::sdtw::hardwareConfig());
    const auto threshold = sf::Cost(sf::sdtw::bestF1Threshold(costs));
    const auto t2 = Clock::now();
    p.classifier =
        std::make_unique<sf::sdtw::SquiggleFilterClassifier>(*p.reference);
    p.classifier->setStages(
        sf::sdtw::uniformStageSchedule(kChunkSamples, kStages, threshold));
    construct(spec, inputs, p);
    const auto t3 = Clock::now();
    p.timing.totalSec = secondsBetween(t0, t3);
    p.timing.referenceSec = secondsBetween(t0, t1);
    p.timing.calibrationSec = secondsBetween(t1, t2);
    return p;
}

std::uint64_t
logDigest(const std::vector<sf::stream::DecisionRecord> &log)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const sf::stream::DecisionRecord &r : log) {
        mix(std::uint64_t(std::uint32_t(r.channel)));
        mix(r.readId);
        mix(r.keep ? 1 : 0);
        mix(r.cost);
        mix(r.samplesUsed);
        mix(r.stagesRun);
    }
    return h;
}

std::size_t
oracleMismatches(const sf::sdtw::SquiggleFilterClassifier &cls,
                 const sf::signal::Dataset &reads,
                 const std::vector<sf::stream::DecisionRecord> &log,
                 std::size_t samples)
{
    if (log.empty())
        return 0;
    std::unordered_map<std::uint64_t, const sf::signal::ReadRecord *> byId;
    for (const sf::signal::ReadRecord &r : reads.reads)
        byId.emplace(r.id, &r);
    const std::size_t n = std::min(samples, log.size());
    std::vector<const sf::stream::DecisionRecord *> picked;
    std::vector<sf::signal::ReadRecord> replay;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto &rec = log[i * log.size() / n];
        const auto it = byId.find(rec.readId);
        if (it == byId.end()) {
            ++mismatches; // a decision for a read never submitted
            continue;
        }
        picked.push_back(&rec);
        replay.push_back(*it->second);
    }
    const auto offline = cls.processBatch(replay);
    for (std::size_t i = 0; i < picked.size(); ++i) {
        const auto &rec = *picked[i];
        const auto &o = offline[i];
        if (rec.keep != o.keep || rec.cost != o.cost ||
            rec.samplesUsed != o.samplesUsed ||
            rec.stagesRun != o.stagesRun)
            ++mismatches;
    }
    return mismatches;
}

} // namespace sfb
