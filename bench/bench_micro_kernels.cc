/**
 * @file
 * google-benchmark microkernels for the software layers: suffix-array
 * construction, FM-Index search, k-step/EXMA search (scalar, and
 * batched over a sweep of chunk sizes), LISA search, and the CHAIN/B∆I
 * codecs. Complements the figure harnesses with wall-clock numbers for
 * the library itself.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

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

/**
 * The batched count over 101-bp reads, one chunk of state.range(0)
 * reads per ExmaTable::search call — the grain sweep for
 * BatchConfig::grain. The human dataset at scale 1.0 (8 Mbp, k = 11,
 * the serving benchmark's MTL operating point) outgrows L2.
 */
void
BM_ExmaBatchedSearch(benchmark::State &state)
{
    static const Dataset ds = makeDataset("human", 1.0);
    static const ExmaTable table = [] {
        ExmaTable::Config cfg;
        cfg.k = ds.exma_k;
        cfg.mode = OccIndexMode::Mtl;
        cfg.mtl.leaf_size = 512;
        cfg.mtl.min_increments = 256;
        cfg.mtl.epochs = 120;
        cfg.mtl.samples_per_class = 4096;
        return ExmaTable(ds.ref, cfg);
    }();
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
