#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "batch/batch_searcher.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "genome/reads.hh"
#include "genome/reference.hh"
#include "persist/index_io.hh"

namespace exma {
namespace {

const std::vector<Base> &
testRef()
{
    static const std::vector<Base> ref = [] {
        ReferenceSpec spec;
        spec.length = 1 << 16;
        spec.repeat_fraction = 0.5;
        spec.seed = 77;
        return generateReference(spec);
    }();
    return ref;
}

ExmaTable::Config
cfgFor(OccIndexMode mode, int k = 4)
{
    ExmaTable::Config cfg;
    cfg.k = k;
    cfg.mode = mode;
    cfg.mtl.epochs = 15;
    cfg.mtl.samples_per_class = 1024;
    return cfg;
}

const ExmaTable &
mtlTable()
{
    static const ExmaTable table(testRef(), cfgFor(OccIndexMode::Mtl));
    return table;
}

/**
 * A randomized query mix: mostly substrings of the reference (hits,
 * various lengths so the k-step/1-step split varies), plus pure-random
 * queries that mostly miss, plus a couple of degenerate lengths.
 */
std::vector<std::vector<Base>>
randomQueries(u64 count, u64 seed)
{
    const auto &ref = testRef();
    Rng rng(seed);
    std::vector<std::vector<Base>> qs;
    qs.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        const u64 len = 3 + rng.below(60);
        std::vector<Base> q;
        if (i % 4 != 3 && len <= ref.size()) {
            const u64 pos = rng.below(ref.size() - len + 1);
            q.assign(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                     ref.begin() + static_cast<std::ptrdiff_t>(pos + len));
        } else {
            q.resize(len);
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
        }
        qs.push_back(std::move(q));
    }
    return qs;
}

/** Sequential ground truth straight through ExmaTable::search. */
std::pair<std::vector<Interval>, SearchStats>
sequentialReference(const ExmaTable &table,
                    const std::vector<std::vector<Base>> &qs)
{
    std::vector<Interval> ivs;
    ivs.reserve(qs.size());
    SearchStats stats;
    for (const auto &q : qs)
        ivs.push_back(table.search(q, &stats));
    return {ivs, stats};
}

TEST(BatchSearcher, EmptyBatch)
{
    BatchSearcher bs(mtlTable());
    const BatchResult r = bs.search({});
    EXPECT_TRUE(r.intervals.empty());
    EXPECT_EQ(r.queries, 0u);
    EXPECT_EQ(r.bases, 0u);
    EXPECT_EQ(r.stats, SearchStats{});
}

TEST(BatchSearcher, BitIdenticalToSequentialAcrossThreadCounts)
{
    const ExmaTable &table = mtlTable();
    const auto qs = randomQueries(300, 9);
    const auto [expect_ivs, expect_stats] = sequentialReference(table, qs);

    for (unsigned threads : {1u, 2u, 8u}) {
        BatchConfig cfg;
        cfg.threads = threads;
        cfg.grain = 7; // deliberately not a divisor of the batch size
        const BatchResult r = BatchSearcher(table, cfg).search(qs);
        EXPECT_EQ(r.intervals, expect_ivs) << "threads=" << threads;
        EXPECT_EQ(r.stats, expect_stats) << "threads=" << threads;
        EXPECT_EQ(r.queries, qs.size());
    }
}

TEST(BatchSearcher, AllOccModesMatchSequential)
{
    for (const OccIndexMode mode : {OccIndexMode::Exact, OccIndexMode::Mtl}) {
        const ExmaTable table(testRef(), cfgFor(mode));
        const auto qs = randomQueries(120, 31);
        const auto [expect_ivs, expect_stats] =
            sequentialReference(table, qs);
        BatchConfig cfg;
        cfg.threads = 8;
        cfg.grain = 5;
        const BatchResult r = BatchSearcher(table, cfg).search(qs);
        EXPECT_EQ(r.intervals, expect_ivs);
        EXPECT_EQ(r.stats, expect_stats);
    }
}

TEST(BatchSearcher, PerThreadStatsMergeToTotal)
{
    BatchConfig cfg;
    cfg.threads = 8;
    cfg.grain = 3;
    const auto qs = randomQueries(200, 13);
    const BatchResult r = BatchSearcher(mtlTable(), cfg).search(qs);
    SearchStats merged;
    for (const SearchStats &s : r.per_thread)
        merged += s;
    EXPECT_EQ(merged, r.stats);
    EXPECT_EQ(r.per_thread.size(), parallelForSlots(8));
}

TEST(BatchSearcher, PerQueryStatsSumToTotal)
{
    BatchConfig cfg;
    cfg.threads = 2;
    cfg.per_query_stats = true;
    const auto qs = randomQueries(150, 21);
    const ExmaTable &table = mtlTable();
    const BatchResult r = BatchSearcher(table, cfg).search(qs);
    ASSERT_EQ(r.per_query.size(), qs.size());
    SearchStats sum;
    for (const SearchStats &s : r.per_query)
        sum += s;
    EXPECT_EQ(sum, r.stats);
    // And each per-query record equals a lone sequential search.
    for (size_t i = 0; i < qs.size(); i += 37) {
        SearchStats lone;
        table.search(qs[i], &lone);
        EXPECT_EQ(r.per_query[i], lone) << "i=" << i;
    }
}

TEST(BatchSearcher, LocateResolvesIntervalsToSortedPositions)
{
    const ExmaTable &table = mtlTable();
    const auto qs = randomQueries(80, 17);
    BatchConfig cfg;
    cfg.threads = 4;
    cfg.locate = true;
    const BatchResult r = BatchSearcher(table, cfg).search(qs);
    ASSERT_EQ(r.positions.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
        auto expect = table.locateAll(r.intervals[i]);
        std::sort(expect.begin(), expect.end());
        EXPECT_EQ(r.positions[i], expect) << "i=" << i;
        EXPECT_EQ(r.positions[i].size(), r.intervals[i].count());
    }
    // Off by default: no positions vector is filled.
    const BatchResult plain = BatchSearcher(table).search(qs);
    EXPECT_TRUE(plain.positions.empty());
}

TEST(BatchSearcher, LocateLimitCapsPositions)
{
    const ExmaTable &table = mtlTable();
    const auto qs = randomQueries(60, 29);
    BatchConfig cfg;
    cfg.locate = true;
    cfg.locate_limit = 2;
    const BatchResult r = BatchSearcher(table, cfg).search(qs);
    for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_LE(r.positions[i].size(), 2u);
        // The capped set is a genuine subset of the full hit set
        // (SA-row-order truncation, sorted afterwards — see
        // BatchConfig::locate_limit).
        auto full = table.locateAll(r.intervals[i]);
        std::sort(full.begin(), full.end());
        EXPECT_TRUE(std::includes(full.begin(), full.end(),
                                  r.positions[i].begin(),
                                  r.positions[i].end()))
            << "i=" << i;
    }
}

TEST(BatchSearcher, CountsBases)
{
    const auto qs = randomQueries(50, 3);
    u64 bases = 0;
    for (const auto &q : qs)
        bases += q.size();
    const BatchResult r = BatchSearcher(mtlTable()).search(qs);
    EXPECT_EQ(r.bases, bases);
    EXPECT_GE(r.seconds, 0.0);
}

TEST(BatchSearcher, SubsetSearchAlignsResultsWithIds)
{
    // The routed fan-out path: a shard worker serves only its ids out
    // of a shared batch, results index-aligned with the id list.
    const auto qs = randomQueries(60, 9);
    BatchConfig cfg;
    cfg.locate = true;
    cfg.per_query_stats = true;
    const BatchSearcher searcher(mtlTable(), cfg);
    const BatchResult full = searcher.search(qs);

    // Scattered, unordered, with a duplicate.
    const std::vector<u32> ids = {57, 3, 3, 41, 0, 12, 59, 28};
    const BatchResult sub = searcher.search(qs, ids);
    ASSERT_EQ(sub.queries, ids.size());
    ASSERT_EQ(sub.intervals.size(), ids.size());
    ASSERT_EQ(sub.positions.size(), ids.size());
    u64 bases = 0;
    for (size_t j = 0; j < ids.size(); ++j) {
        EXPECT_EQ(sub.intervals[j], full.intervals[ids[j]]) << "j=" << j;
        EXPECT_EQ(sub.positions[j], full.positions[ids[j]]) << "j=" << j;
        EXPECT_EQ(sub.per_query[j], full.per_query[ids[j]]) << "j=" << j;
        bases += qs[ids[j]].size();
    }
    EXPECT_EQ(sub.bases, bases);

    // Per-id stats sum to the subset total.
    SearchStats merged;
    for (const SearchStats &s : sub.per_query)
        merged += s;
    EXPECT_EQ(merged, sub.stats);
}

TEST(BatchSearcher, SubsetSearchEmptyIds)
{
    const auto qs = randomQueries(10, 21);
    const BatchResult r = BatchSearcher(mtlTable()).search(qs, {});
    EXPECT_EQ(r.queries, 0u);
    EXPECT_TRUE(r.intervals.empty());
    EXPECT_EQ(r.stats, SearchStats{});
}

/**
 * Scalar oracle for one located query: the first @p limit rows through
 * FmIndex::locate(row), sorted (see BatchConfig::locate_limit).
 */
std::vector<u64>
scalarPositions(const ExmaTable &table, const Interval &iv, u64 limit)
{
    std::vector<u64> out;
    for (u64 row = iv.low; row < iv.high && out.size() < limit; ++row)
        out.push_back(table.fmIndex().locate(row));
    std::sort(out.begin(), out.end());
    return out;
}

/** Every query of a chunked run against the scalar search and locate. */
void
expectScalarEquivalent(const ExmaTable &table,
                       const std::vector<std::vector<Base>> &qs,
                       const BatchConfig &cfg)
{
    const BatchResult r = BatchSearcher(table, cfg).search(qs);
    const u64 limit = cfg.locate_limit ? cfg.locate_limit : ~u64{0};
    for (size_t i = 0; i < qs.size(); ++i) {
        SearchStats lone;
        const Interval iv = table.search(qs[i], &lone);
        EXPECT_EQ(r.intervals[i], iv) << "i=" << i << " grain=" << cfg.grain;
        EXPECT_EQ(r.per_query[i], lone) << "i=" << i << " grain=" << cfg.grain;
        EXPECT_EQ(r.positions[i], scalarPositions(table, iv, limit))
            << "i=" << i << " grain=" << cfg.grain
            << " limit=" << cfg.locate_limit;
    }
}

TEST(BatchSearcher, ChunkedSearchAndLocateEqualScalarPaths)
{
    const auto &ref = testRef();
    // A table over one slice of the reference, as a text shard serves.
    const std::vector<Base> slice(ref.begin() + 100, ref.begin() + 900);
    const ExmaTable slice_table(slice, cfgFor(OccIndexMode::Exact));

    // Degenerate lengths (1, k - 1, k, 2k) next to the random mix.
    auto qs = randomQueries(120, 31);
    for (size_t len : {1, 3, 4, 8})
        qs.emplace_back(ref.begin() + 1000,
                        ref.begin() + 1000 + static_cast<std::ptrdiff_t>(len));
    std::vector<std::vector<Base>> slice_qs;
    Rng rng(32);
    for (int t = 0; t < 60; ++t) {
        const u64 len = 1 + rng.below(11);
        const u64 pos = rng.below(slice.size() - len);
        slice_qs.emplace_back(
            slice.begin() + static_cast<std::ptrdiff_t>(pos),
            slice.begin() + static_cast<std::ptrdiff_t>(pos + len));
    }

    for (u64 grain : {1u, 5u, 16u, 1000u}) {
        for (u64 limit : {0u, 3u}) {
            BatchConfig cfg;
            cfg.threads = 2;
            cfg.grain = grain;
            cfg.per_query_stats = true;
            cfg.locate = true;
            cfg.locate_limit = limit;
            expectScalarEquivalent(mtlTable(), qs, cfg);
            expectScalarEquivalent(slice_table, slice_qs, cfg);
        }
    }
}

TEST(BatchSearcher, MmapRestoredTableMatchesScalarPaths)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "batch_searcher_mmap";
    std::filesystem::remove_all(dir);
    saveIndex(mtlTable(), dir.string());
    const LoadedIndex loaded = loadIndex(dir.string());
    ASSERT_NE(loaded.table, nullptr);

    const auto qs = randomQueries(100, 33);
    BatchConfig cfg;
    cfg.per_query_stats = true;
    cfg.locate = true;
    expectScalarEquivalent(*loaded.table, qs, cfg);
    // ...and the mapped table answers exactly as the one it was saved
    // from.
    const BatchResult a = BatchSearcher(*loaded.table, cfg).search(qs);
    const BatchResult b = BatchSearcher(mtlTable(), cfg).search(qs);
    EXPECT_EQ(a.intervals, b.intervals);
    EXPECT_EQ(a.positions, b.positions);
    EXPECT_EQ(a.stats, b.stats);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace exma
