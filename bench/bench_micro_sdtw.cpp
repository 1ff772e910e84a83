/**
 * @file
 * Microbenchmarks of the sDTW kernels: software engine throughput
 * (cells/second) across configurations, the normaliser, and the
 * cycle-accurate systolic-array simulator.
 */

#include <benchmark/benchmark.h>

#include <limits>
#include <string>

#include "common/rng.hpp"
#include "hw/systolic.hpp"
#include "pipeline/experiments.hpp"
#include "sdtw/batch.hpp"
#include "sdtw/engine.hpp"
#include "sdtw/normalizer.hpp"
#include "sdtw/vanilla.hpp"

using namespace sf;

namespace {

std::vector<NormSample>
randomQuant(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<NormSample> out(n);
    for (auto &s : out)
        s = NormSample(rng.uniformInt(-128, 127));
    return out;
}

/**
 * Attach the shared throughput counters: cells/s (DP cells folded per
 * second) and samples/s (query samples folded per second).  Both are
 * derived from the *actual* query/reference lengths of the run — an
 * earlier version hardcoded the reference length in one section,
 * mislabelling rows whenever the configured shape changed.
 */
void
setThroughputCounters(benchmark::State &state, double queries_per_iter,
                      double reference_len)
{
    state.counters["cells/s"] = benchmark::Counter(
        queries_per_iter * reference_len,
        benchmark::Counter::kIsIterationInvariantRate);
    state.counters["samples/s"] = benchmark::Counter(
        queries_per_iter, benchmark::Counter::kIsIterationInvariantRate);
}

/**
 * The seed's scalar row update (runtime-branching config, pinned
 * non-SIMD), kept verbatim as the perf baseline the specialised
 * engine in sdtw/engine.cpp is measured against.  Arithmetic is
 * bit-identical to QuantSdtw under hardwareConfig().
 */
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
std::uint32_t
scalarSeedSdtw(const std::vector<NormSample> &query,
               const std::vector<NormSample> &ref,
               const sdtw::SdtwConfig &config)
{
    const std::size_t m = ref.size();
    const auto cap = std::uint8_t(config.dwellCap);
    const bool use_bonus = config.matchBonus > 0.0;
    const auto bonus_unit = Cost(std::llround(config.matchBonus));

    std::vector<Cost> row(m);
    std::vector<std::uint8_t> dwell(m, 1);
    auto point_cost = [&](NormSample q, NormSample r) {
        const int diff = int(q) - int(r);
        const int ad = diff < 0 ? -diff : diff;
        return config.metric == sdtw::CostMetric::AbsoluteDifference
                   ? Cost(ad)
                   : Cost(ad) * Cost(ad);
    };
    for (std::size_t j = 0; j < m; ++j)
        row[j] = point_cost(query[0], ref[j]);

    std::vector<Cost> next(m);
    std::vector<std::uint8_t> next_dwell(m);
    for (std::size_t i = 1; i < query.size(); ++i) {
        const NormSample q = query[i];
        next[0] = satAdd(row[0], point_cost(q, ref[0]));
        next_dwell[0] = std::uint8_t(std::min<int>(dwell[0] + 1, cap));
        const Cost bonus = use_bonus ? bonus_unit : Cost(0);
        for (std::size_t j = 1; j < m; ++j) {
            const Cost reward = bonus * Cost(dwell[j - 1]);
            const Cost diag = satSub(row[j - 1], reward);
            const Cost vert = row[j];
            const bool take_diag = diag <= vert;
            const Cost best = take_diag ? diag : vert;
            const auto bumped =
                std::uint8_t(dwell[j] < cap ? dwell[j] + 1 : cap);
            next[j] = satAdd(best, point_cost(q, ref[j]));
            next_dwell[j] = take_diag ? std::uint8_t(1) : bumped;
        }
        row.swap(next);
        dwell.swap(next_dwell);
    }
    return *std::min_element(row.begin(), row.end());
}

void
BM_QuantSdtwScalarSeed(benchmark::State &state)
{
    const auto query = randomQuant(std::size_t(state.range(0)), 1);
    const auto ref = randomQuant(std::size_t(state.range(1)), 2);
    const auto config = sdtw::hardwareConfig();
    for (auto _ : state) {
        benchmark::DoNotOptimize(scalarSeedSdtw(query, ref, config));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            state.range(0) * state.range(1));
    setThroughputCounters(state, double(query.size()),
                          double(ref.size()));
}
BENCHMARK(BM_QuantSdtwScalarSeed)->Args({500, 10000})->Args({2000, 10000});

void
BM_QuantSdtw(benchmark::State &state)
{
    const auto query = randomQuant(std::size_t(state.range(0)), 1);
    const auto ref = randomQuant(std::size_t(state.range(1)), 2);
    const sdtw::QuantSdtw engine(sdtw::hardwareConfig());
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.align(query, ref));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            state.range(0) * state.range(1));
    setThroughputCounters(state, double(query.size()),
                          double(ref.size()));
}
BENCHMARK(BM_QuantSdtw)
    ->Args({500, 10000})
    ->Args({2000, 10000})
    ->Args({2000, 59796}); // SARS-CoV-2-sized reference

void
BM_QuantSdtwNoBonus(benchmark::State &state)
{
    const auto query = randomQuant(2000, 3);
    const auto ref = randomQuant(std::size_t(state.range(0)), 4);
    auto config = sdtw::hardwareConfig();
    config.matchBonus = 0.0;
    const sdtw::QuantSdtw engine(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.align(query, ref));
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(query.size()) *
                            std::int64_t(ref.size()));
    setThroughputCounters(state, double(query.size()),
                          double(ref.size()));
}
BENCHMARK(BM_QuantSdtwNoBonus)->Arg(10000);

void
BM_FloatSdtwVanilla(benchmark::State &state)
{
    Rng rng(5);
    std::vector<float> query(500), ref(5000);
    for (auto &v : query)
        v = float(rng.uniform(-3, 3));
    for (auto &v : ref)
        v = float(rng.uniform(-3, 3));
    const sdtw::FloatSdtw engine(sdtw::vanillaConfig());
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.align(query, ref));
    setThroughputCounters(state, double(query.size()),
                          double(ref.size()));
}
BENCHMARK(BM_FloatSdtwVanilla);

void
BM_Normalizer(benchmark::State &state)
{
    Rng rng(6);
    std::vector<RawSample> raw(2000);
    for (auto &s : raw)
        s = RawSample(rng.uniformInt(0, kAdcMax));
    for (auto _ : state)
        benchmark::DoNotOptimize(sdtw::MeanMadNormalizer::normalize(raw));
    state.SetItemsProcessed(std::int64_t(state.iterations()) * 2000);
}
BENCHMARK(BM_Normalizer);

/**
 * Lane-batched kernel: B independent 2000-sample reads folded against
 * one reference, struct-of-arrays across SIMD lanes.  cells/s and
 * samples/s are *aggregate* over all lanes — the number to compare
 * against BM_QuantSdtw's single-read throughput.  Registered once per
 * backend in main() (BM_BatchSdtw<avx2>/16/10000, ...); backends the
 * host cannot execute skip loudly instead of silently measuring the
 * dispatch fallback.  @p untiled forces a single column tile
 * (setTileCols(SIZE_MAX)) — the A/B control for the genome-scale
 * locality rows, registered as BM_BatchSdtwUntiled<...> so the bench
 * gate's BM_BatchSdtw<simd> regex never mistakes it for a gated row.
 */
void
BM_BatchSdtwBackend(benchmark::State &state, sdtw::SimdBackend backend,
                    bool untiled)
{
    if (!sdtw::simdBackendAvailable(backend)) {
        state.SkipWithError("SIMD backend unavailable on this host");
        return;
    }
    const auto lanes_n = std::size_t(state.range(0));
    const auto ref_len = std::size_t(state.range(1));
    constexpr std::size_t kQueryLen = 2000;

    std::vector<std::vector<NormSample>> queries(lanes_n);
    for (std::size_t i = 0; i < lanes_n; ++i)
        queries[i] = randomQuant(kQueryLen, 100 + i);
    const auto ref = randomQuant(ref_len, 2);

    sdtw::BatchSdtw kernel(sdtw::hardwareConfig(), lanes_n, backend);
    kernel.setSerialCutover(0); // measure the batched path only
    if (untiled)
        kernel.setTileCols(std::numeric_limits<std::size_t>::max());
    std::vector<sdtw::QuantSdtw::State> states(lanes_n);
    std::vector<sdtw::BatchLane> lanes(lanes_n);

    for (auto _ : state) {
        for (std::size_t i = 0; i < lanes_n; ++i) {
            states[i].reset();
            lanes[i].state = &states[i];
            lanes[i].query = queries[i];
        }
        kernel.processMany(lanes, ref);
        benchmark::DoNotOptimize(lanes[0].result.cost);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(lanes_n) *
                            std::int64_t(kQueryLen) *
                            std::int64_t(ref_len));
    setThroughputCounters(state,
                          double(lanes_n) * double(kQueryLen),
                          double(ref_len));
    state.counters["lane_width"] =
        benchmark::Counter(double(kernel.laneWidth()));
    state.counters["tile_cols"] = benchmark::Counter(
        double(kernel.planTileCols(ref_len, lanes_n)));
}

/**
 * Lane-batched kernel on resumed states: B reads already eight
 * 1600-sample chunks deep each fold one more chunk, as a Read Until
 * session does mid-read.  Unlike BM_BatchSdtw's fresh lanes this
 * measures the no-saturation bound scan over every resumed row and
 * folds rows whose costs have grown large.  Registered for the best
 * backend as BM_BatchSdtwResumed<...>, a name the bench gate's
 * BM_BatchSdtw<simd> regex does not match.
 */
void
BM_BatchSdtwResumedBackend(benchmark::State &state,
                           sdtw::SimdBackend backend)
{
    const auto lanes_n = std::size_t(state.range(0));
    const auto ref_len = std::size_t(state.range(1));
    constexpr std::size_t kChunk = 1600;
    constexpr std::size_t kDepth = 8;

    std::vector<std::vector<NormSample>> queries(lanes_n);
    for (std::size_t i = 0; i < lanes_n; ++i)
        queries[i] = randomQuant((kDepth + 1) * kChunk, 200 + i);
    const auto ref = randomQuant(ref_len, 2);

    sdtw::BatchSdtw kernel(sdtw::hardwareConfig(), lanes_n, backend);
    kernel.setSerialCutover(0); // measure the batched path only
    std::vector<sdtw::QuantSdtw::State> deep(lanes_n);
    std::vector<sdtw::BatchLane> lanes(lanes_n);
    for (std::size_t i = 0; i < lanes_n; ++i) {
        lanes[i].state = &deep[i];
        lanes[i].query =
            std::span<const NormSample>(queries[i]).first(kDepth * kChunk);
    }
    kernel.processMany(lanes, ref);

    std::vector<sdtw::QuantSdtw::State> states(lanes_n);
    for (auto _ : state) {
        state.PauseTiming();
        states = deep;
        for (std::size_t i = 0; i < lanes_n; ++i) {
            lanes[i].state = &states[i];
            lanes[i].query =
                std::span<const NormSample>(queries[i]).last(kChunk);
        }
        state.ResumeTiming();
        kernel.processMany(lanes, ref);
        benchmark::DoNotOptimize(lanes[0].result.cost);
    }
    setThroughputCounters(state, double(lanes_n) * double(kChunk),
                          double(ref_len));
    state.counters["lane_width"] =
        benchmark::Counter(double(kernel.laneWidth()));
}

/**
 * Columns-in-lanes kernel: B fresh 2000-sample reads folded below the
 * lane cutover on the best backend, one read's consecutive columns
 * per vector.  cells/s is aggregate over the reads, comparable with
 * BM_QuantSdtw's single-read rate.  A host whose backend keeps thin
 * calls on the serial engine skips loudly.
 */
void
BM_ColumnSdtw(benchmark::State &state)
{
    const auto reads_n = std::size_t(state.range(0));
    const auto ref_len = std::size_t(state.range(1));
    constexpr std::size_t kQueryLen = 2000;

    std::vector<std::vector<NormSample>> queries(reads_n);
    for (std::size_t i = 0; i < reads_n; ++i)
        queries[i] = randomQuant(kQueryLen, 100 + i);
    const auto ref = randomQuant(ref_len, 2);

    sdtw::BatchSdtw kernel(sdtw::hardwareConfig(), reads_n);
    kernel.setSerialCutover(std::numeric_limits<std::size_t>::max());
    std::vector<sdtw::QuantSdtw::State> states(reads_n);
    std::vector<sdtw::BatchLane> lanes(reads_n);

    for (auto _ : state) {
        for (std::size_t i = 0; i < reads_n; ++i) {
            states[i].reset();
            lanes[i].state = &states[i];
            lanes[i].query = queries[i];
        }
        kernel.processMany(lanes, ref);
        benchmark::DoNotOptimize(lanes[0].result.cost);
        if (kernel.foldStats().columnCalls == 0) {
            state.SkipWithError("no columns kernel on this host");
            return;
        }
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(reads_n) *
                            std::int64_t(kQueryLen) *
                            std::int64_t(ref_len));
    setThroughputCounters(state, double(reads_n) * double(kQueryLen),
                          double(ref_len));
}
BENCHMARK(BM_ColumnSdtw)->Args({1, 59796})->Args({2, 59796});

void
BM_SystolicArraySim(benchmark::State &state)
{
    const auto query = randomQuant(std::size_t(state.range(0)), 7);
    const auto ref = randomQuant(std::size_t(state.range(1)), 8);
    hw::SystolicArray array(query.size());
    for (auto _ : state)
        benchmark::DoNotOptimize(array.run(query, ref));
    state.counters["PE-cycles/s"] = benchmark::Counter(
        double(query.size()) * double(ref.size()),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SystolicArraySim)->Args({64, 2000})->Args({256, 2000});

} // namespace

int
main(int argc, char **argv)
{
    // The batched benches are registered at runtime, once per lane
    // backend: the best backend this host can execute gets the full
    // shape sweep, the other one comparison shape.  Backends the host
    // lacks are still registered — they SkipWithError so a missing
    // ISA shows up as a loud skip in the report, never as a silent
    // serial-fallback measurement.  The Serial backend gets no row:
    // it is BM_QuantSdtw.
    const sdtw::SimdBackend best = sdtw::detectSimdBackend();
    for (sdtw::SimdBackend backend :
         {sdtw::SimdBackend::Avx2, sdtw::SimdBackend::Avx512}) {
        const std::string name = std::string("BM_BatchSdtw<") +
                                 sdtw::simdBackendName(backend) + ">";
        auto *bench = benchmark::RegisterBenchmark(
            name.c_str(), BM_BatchSdtwBackend, backend,
            /*untiled=*/false);
        bench->Args({16, 10000});
        if (backend == best) {
            bench->Args({8, 10000})
                ->Args({32, 10000})
                ->Args({16, 59796})  // SARS-CoV-2-sized reference
                ->Args({8, 48000})   // genome-scale strips: the DP
                ->Args({16, 48000})  // rows outgrow L2 and tiling
                ->Args({8, 97000})   // has to keep cells/s flat
                ->Args({16, 97000});
            // Same genome shapes with tiling forced off — the A/B
            // control quantifying what the column tiles buy.
            const std::string ab =
                std::string("BM_BatchSdtwUntiled<") +
                sdtw::simdBackendName(backend) + ">";
            benchmark::RegisterBenchmark(ab.c_str(),
                                         BM_BatchSdtwBackend, backend,
                                         /*untiled=*/true)
                ->Args({16, 48000})
                ->Args({16, 97000});
            const std::string resumed =
                std::string("BM_BatchSdtwResumed<") +
                sdtw::simdBackendName(backend) + ">";
            benchmark::RegisterBenchmark(resumed.c_str(),
                                         BM_BatchSdtwResumedBackend,
                                         backend)
                ->Args({16, 59796});
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
