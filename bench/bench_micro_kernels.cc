/**
 * @file
 * google-benchmark microkernels for the software layers: suffix-array
 * construction, FM-Index search, k-step/EXMA search (scalar, and
 * batched over a sweep of chunk sizes), seed count and locate timed
 * apart, LISA search, and the CHAIN/B∆I codecs. Complements the figure
 * harnesses with wall-clock numbers for the library itself.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "batch/batch_searcher.hh"
#include "bench_gbench_main.hh"
#include "common/rng.hh"
#include "compress/bdi.hh"
#include "compress/chain.hh"
#include "core/exma_table.hh"
#include "fmindex/fm_index.hh"
#include "fmindex/suffix_array.hh"
#include "genome/reads.hh"
#include "genome/reference.hh"
#include "lisa/lisa.hh"

namespace {

using namespace exma;

const std::vector<Base> &
microRef()
{
    static const std::vector<Base> ref = [] {
        ReferenceSpec spec;
        spec.length = 1 << 20;
        spec.seed = 3;
        return generateReference(spec);
    }();
    return ref;
}

void
BM_SuffixArray(benchmark::State &state)
{
    std::vector<Base> ref(microRef().begin(),
                          microRef().begin() + state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(buildSuffixArray(ref));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuffixArray)->Arg(1 << 16)->Arg(1 << 18)->Arg(1 << 20);

void
BM_FmIndexSearch(benchmark::State &state)
{
    static const FmIndex fm(microRef());
    auto pats = samplePatterns(microRef(), 256,
                               static_cast<u64>(state.range(0)), 7);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fm.search(pats[i % pats.size()]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FmIndexSearch)->Arg(32)->Arg(101);

void
BM_ExmaSearch(benchmark::State &state)
{
    static const ExmaTable table = [] {
        ExmaTable::Config cfg;
        cfg.k = 8;
        cfg.mode = OccIndexMode::Mtl;
        cfg.mtl.epochs = 30;
        return ExmaTable(microRef(), cfg);
    }();
    auto pats = samplePatterns(microRef(), 256, 101, 9);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.search(pats[i % pats.size()]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * 101);
}
BENCHMARK(BM_ExmaSearch);

/** The human dataset at scale 1.0 (8 Mbp, outgrows L2). */
const Dataset &
humanDataset()
{
    static const Dataset ds = makeDataset("human", 1.0);
    return ds;
}

/** The serving benchmark's MTL operating point over humanDataset(). */
const ExmaTable &
humanTable()
{
    static const ExmaTable table = [] {
        ExmaTable::Config cfg;
        cfg.k = humanDataset().exma_k;
        cfg.mode = OccIndexMode::Mtl;
        cfg.mtl.leaf_size = 512;
        cfg.mtl.min_increments = 256;
        cfg.mtl.epochs = 120;
        cfg.mtl.samples_per_class = 4096;
        return ExmaTable(humanDataset().ref, cfg);
    }();
    return table;
}

/**
 * The batched count over 101-bp reads, one chunk of state.range(0)
 * reads per ExmaTable::search call — the grain sweep for
 * BatchConfig::grain, on humanTable() (k = 11).
 */
void
BM_ExmaBatchedSearch(benchmark::State &state)
{
    const Dataset &ds = humanDataset();
    const ExmaTable &table = humanTable();
    static const std::vector<std::vector<Base>> reads =
        samplePatterns(ds.ref, 4096, 101, 13);
    const size_t chunk = static_cast<size_t>(state.range(0));
    std::vector<const std::vector<Base> *> ptrs;
    for (const auto &r : reads)
        ptrs.push_back(&r);
    std::vector<Interval> ivs(chunk);
    std::vector<SearchStats> stats(chunk);
    for (auto _ : state) {
        for (size_t b = 0; b < ptrs.size(); b += chunk) {
            const size_t m = std::min(chunk, ptrs.size() - b);
            table.search(std::span(ptrs).subspan(b, m),
                         std::span(ivs).first(m),
                         std::span(stats).first(m));
        }
        benchmark::DoNotOptimize(ivs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(reads.size() * 101));
}
BENCHMARK(BM_ExmaBatchedSearch)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

enum class SeedPhase
{
    Count,  ///< batched backward search of the seeds
    Locate, ///< batched FmIndex::locate of the counted intervals
};

/**
 * The seed workload's two phases timed apart: 2048 20-bp seeds from
 * uniform reference positions on humanTable(), counted and then
 * located one BatchConfig::grain chunk at a time, as one batch-searcher
 * worker does (threads = 1, no locate cap). The locate counters give
 * the time per located hit and per LF step.
 */
void
BM_SeedLocate(benchmark::State &state, SeedPhase phase)
{
    const ExmaTable &table = humanTable();
    const FmIndex &fm = table.fmIndex();
    static const std::vector<std::vector<Base>> seeds =
        samplePatterns(humanDataset().ref, 2048, 20, 17);
    std::vector<const std::vector<Base> *> ptrs;
    for (const auto &q : seeds)
        ptrs.push_back(&q);
    std::vector<Interval> ivs(seeds.size());
    std::vector<SearchStats> stats(seeds.size());
    table.search(ptrs, ivs, stats);

    // Hits and LF steps of the whole locate phase, walked once.
    u64 hits = 0;
    u64 steps = 0;
    for (const Interval &iv : ivs) {
        for (u64 row = iv.low; row < iv.high; ++row, ++hits)
            for (u64 r = row; !fm.saSampled().get(r); r = fm.lf(r))
                ++steps;
    }

    const size_t grain = BatchConfig{}.grain;
    std::vector<std::vector<u64>> pos(seeds.size());
    for (auto _ : state) {
        for (size_t b = 0; b < seeds.size(); b += grain) {
            const size_t m = std::min(grain, seeds.size() - b);
            if (phase == SeedPhase::Count)
                table.search(std::span(ptrs).subspan(b, m),
                             std::span(ivs).subspan(b, m),
                             std::span(stats).subspan(b, m));
            else
                fm.locate(std::span(ivs).subspan(b, m), ~u64{0},
                          std::span(pos).subspan(b, m));
        }
        benchmark::DoNotOptimize(ivs.data());
        benchmark::DoNotOptimize(pos.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(seeds.size()));
    state.counters["hits_per_seed"] =
        static_cast<double>(hits) / static_cast<double>(seeds.size());
    state.counters["lf_steps_per_hit"] =
        static_cast<double>(steps) / static_cast<double>(hits);
    if (phase == SeedPhase::Locate) {
        const auto per = [&](u64 n) {
            return benchmark::Counter(
                static_cast<double>(n) *
                    static_cast<double>(state.iterations()),
                benchmark::Counter::kIsRate |
                    benchmark::Counter::kInvert);
        };
        state.counters["s_per_hit"] = per(hits);
        state.counters["s_per_lf_step"] = per(steps);
    }
}
BENCHMARK_CAPTURE(BM_SeedLocate, count, SeedPhase::Count)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SeedLocate, locate, SeedPhase::Locate)
    ->Unit(benchmark::kMicrosecond);

void
BM_LisaSearch(benchmark::State &state)
{
    static const IpBwt ipbwt(microRef(), 10);
    static const Lisa lisa(ipbwt, Lisa::Config{});
    auto pats = samplePatterns(microRef(), 256, 101, 11);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lisa.search(pats[i % pats.size()]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * 101);
}
BENCHMARK(BM_LisaSearch);

void
BM_ChainCompress(benchmark::State &state)
{
    Rng rng(5);
    std::vector<u32> vals;
    u32 v = 0;
    for (int i = 0; i < 1 << 16; ++i)
        vals.push_back(v += static_cast<u32>(1 + rng.below(100)));
    for (auto _ : state)
        benchmark::DoNotOptimize(chainCompressedSize(vals));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<i64>(vals.size() * 4));
}
BENCHMARK(BM_ChainCompress);

void
BM_BdiCompress(benchmark::State &state)
{
    Rng rng(6);
    std::vector<u8> data(1 << 18);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(4)); // compressible-ish
    for (auto _ : state)
        benchmark::DoNotOptimize(bdiCompressedSize(data));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<i64>(data.size()));
}
BENCHMARK(BM_BdiCompress);

} // namespace

int
main(int argc, char **argv)
{
    return exma::bench::googleBenchmarkMain(argc, argv);
}
