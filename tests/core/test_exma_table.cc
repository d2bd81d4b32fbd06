#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "core/exma_table.hh"
#include "genome/reference.hh"

namespace exma {
namespace {

const std::vector<Base> &
testRef()
{
    static const std::vector<Base> ref = [] {
        ReferenceSpec spec;
        spec.length = 1 << 16;
        spec.repeat_fraction = 0.5;
        spec.seed = 55;
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

TEST(ExmaTable, PaperFig8Semantics)
{
    // Fig. 8 invariants: base pointers are prefix sums; f_i counts; the
    // MAX sentinel is |G|+1 (== rows()).
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact));
    EXPECT_EQ(tab.maxSentinel(), tab.rows());
    u64 acc = 0;
    for (Kmer m = 0; m < kmerSpace(tab.k()); m += 11) {
        EXPECT_EQ(tab.baseOf(m), acc == 0 ? tab.baseOf(m) : tab.baseOf(m));
        acc = tab.baseOf(m) + tab.frequency(m);
    }
}

TEST(ExmaTable, OccExampleLikePaper)
{
    // Fig. 8 walk-through: Occ(kmer, pos) = increments below pos.
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact));
    Rng rng(1);
    for (int t = 0; t < 100; ++t) {
        Kmer m = rng.below(kmerSpace(tab.k()));
        u64 pos = rng.below(tab.rows() + 1);
        auto inc = tab.occTable().increments(m);
        u64 expect = 0;
        for (u32 r : inc)
            expect += (r < pos);
        EXPECT_EQ(tab.occ(m, pos).rank, expect);
    }
}

class ExmaModeTest : public ::testing::TestWithParam<OccIndexMode>
{
};

TEST_P(ExmaModeTest, SearchEqualsFmIndexAcrossModes)
{
    ExmaTable tab(testRef(), cfgFor(GetParam()));
    const FmIndex &fm = tab.fmIndex();
    Rng rng(2);
    const auto &ref = testRef();
    for (int t = 0; t < 80; ++t) {
        const u64 len = 1 + rng.below(40);
        std::vector<Base> q;
        if (t % 2 == 0) {
            const u64 pos = rng.below(ref.size() - len);
            q.assign(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                     ref.begin() + static_cast<std::ptrdiff_t>(pos + len));
        } else {
            q.resize(len);
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
        }
        const Interval expect = fm.search(q);
        const Interval got = tab.search(q);
        if (expect.empty())
            EXPECT_TRUE(got.empty()) << "t=" << t;
        else
            EXPECT_EQ(got, expect) << "t=" << t;
    }
}

TEST_P(ExmaModeTest, BatchedSearchEqualsScalarSearch)
{
    // k = 4 walks long lists (~256 entries on average); k = 8 walks
    // mostly short ones, and with a modelling threshold of 16 the
    // MTL mode also models lists the linear count could take.
    u64 short_lists = 0;
    u64 long_lists = 0;
    u64 modelled_lists = 0;
    for (const int k : {4, 8}) {
        ExmaTable::Config cfg = cfgFor(GetParam(), k);
        if (k == 8)
            cfg.mtl.min_increments = 16;
        const ExmaTable tab(testRef(), cfg);
        const size_t kk = static_cast<size_t>(tab.k());
        const auto &ref = testRef();
        Rng rng(3);
        const auto substr = [&](u64 len) {
            const u64 pos = rng.below(ref.size() - len);
            return std::vector<Base>(
                ref.begin() + static_cast<std::ptrdiff_t>(pos),
                ref.begin() + static_cast<std::ptrdiff_t>(pos + len));
        };
        // Empty, length 1, shorter than k, multiples of k, with a
        // remainder; present, random (empty during the k-steps) and
        // present k-steps behind a changed remainder (empty during the
        // 1-step rounds).
        std::vector<std::vector<Base>> qs = {{}, {2}};
        for (size_t len :
             {kk - 1, kk, 2 * kk, 2 * kk + 1, 4 * kk + 3, size_t{40}})
            qs.push_back(substr(len));
        for (int t = 0; t < 60; ++t) {
            std::vector<Base> q = substr(1 + rng.below(40));
            if (t % 3 == 1) {
                for (auto &b : q)
                    b = static_cast<Base>(rng.below(4));
            } else if (t % 3 == 2 && q.size() % kk != 0) {
                q[0] = static_cast<Base>((q[0] + 1 + rng.below(3)) % 4);
            }
            qs.push_back(std::move(q));
        }

        std::vector<Interval> expect;
        std::vector<SearchStats> expect_stats(qs.size());
        int kstep_empty = 0;
        int onestep_empty = 0;
        for (size_t j = 0; j < qs.size(); ++j) {
            expect.push_back(tab.search(qs[j], &expect_stats[j]));
            if (expect.back().empty()) {
                kstep_empty += expect_stats[j].onestep_iterations == 0;
                onestep_empty += expect_stats[j].onestep_iterations > 0;
            }
            // The lists this query's k-steps read, by how the batched
            // search resolves them.
            size_t i = qs[j].size();
            for (u64 s = 0; s < expect_stats[j].kstep_iterations; ++s) {
                i -= kk;
                const Kmer code = packKmer(qs[j].data() + i, tab.k());
                if (tab.mtlIndex() && tab.mtlIndex()->hasModel(code))
                    ++modelled_lists;
                else if (tab.frequency(code) <= ExmaTable::kShortList)
                    ++short_lists;
                else
                    ++long_lists;
            }
        }
        ASSERT_GT(kstep_empty, 0) << "k=" << k;
        ASSERT_GT(onestep_empty, 0) << "k=" << k;

        for (size_t chunk : {size_t{1}, size_t{16}, qs.size()}) {
            for (size_t begin = 0; begin < qs.size(); begin += chunk) {
                const size_t m = std::min(chunk, qs.size() - begin);
                std::vector<const std::vector<Base> *> ptrs;
                for (size_t j = begin; j < begin + m; ++j)
                    ptrs.push_back(&qs[j]);
                std::vector<Interval> ivs(m);
                std::vector<SearchStats> stats(m);
                tab.search(ptrs, ivs, stats);
                for (size_t j = 0; j < m; ++j) {
                    EXPECT_EQ(ivs[j], expect[begin + j])
                        << "k=" << k << " chunk=" << chunk
                        << " j=" << begin + j;
                    EXPECT_EQ(stats[j], expect_stats[begin + j])
                        << "k=" << k << " chunk=" << chunk
                        << " j=" << begin + j;
                }
            }
        }
    }
    ASSERT_GT(short_lists, 0u);
    ASSERT_GT(long_lists, 0u);
    if (GetParam() != OccIndexMode::Exact) {
        ASSERT_GT(modelled_lists, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, ExmaModeTest,
                         ::testing::Values(OccIndexMode::Exact,
                                           OccIndexMode::Mtl));

TEST(ExmaTable, StatsCountIterations)
{
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact, 6));
    SearchStats stats;
    std::vector<Base> query(testRef().begin(), testRef().begin() + 20);
    tab.search(query, &stats);
    EXPECT_EQ(stats.kstep_iterations, 20u / 6u);
    EXPECT_EQ(stats.onestep_iterations, 20u % 6u);
}

TEST(ExmaTable, AccuracyNeverAffectsResults)
{
    // §IV.B: "the accuracy of a MTL-based index decides search
    // throughput ... but has no impact on the quality of final DNA
    // mapping". Intervals from all modes are identical even when the
    // model mispredicts.
    ExmaTable exact(testRef(), cfgFor(OccIndexMode::Exact));
    ExmaTable mtl(testRef(), cfgFor(OccIndexMode::Mtl));
    Rng rng(4);
    const auto &ref = testRef();
    for (int t = 0; t < 40; ++t) {
        const u64 len = 6 + rng.below(30);
        const u64 pos = rng.below(ref.size() - len);
        std::vector<Base> q(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        EXPECT_EQ(exact.search(q), mtl.search(q));
    }
}

TEST(ExmaTable, SizeReportComponentsPositive)
{
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Mtl));
    auto r = tab.sizeReport();
    EXPECT_GT(r.increments_raw, 0u);
    EXPECT_GT(r.bases_raw, 0u);
    EXPECT_GT(r.bwt_bytes, 0u);
    EXPECT_GT(r.index_bytes, 0u);
    EXPECT_LT(r.increments_chain, r.increments_raw);
    EXPECT_LE(r.totalChain(), r.totalRaw());
}

TEST(ExmaTable, ChainCompressesIncrementsWell)
{
    // Fig. 23: CHAIN reaches ~25% on EXMA data. Increment lists of a
    // repetitive genome compress strongly; assert < 60% here (the exact
    // ratio depends on k-mer density at this scale).
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact));
    auto r = tab.sizeReport();
    EXPECT_LT(static_cast<double>(r.increments_chain) /
                  static_cast<double>(r.increments_raw),
              0.6);
}

TEST(ExmaTable, IndexParamAccounting)
{
    ExmaTable exact(testRef(), cfgFor(OccIndexMode::Exact));
    ExmaTable mtl(testRef(), cfgFor(OccIndexMode::Mtl));
    EXPECT_EQ(exact.indexParamCount(), 0u);
    EXPECT_GT(mtl.indexParamCount(), 0u);
}

TEST(ExmaTable, DifferentStepsAgree)
{
    for (int k : {4, 5, 8}) {
        ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact, k));
        const auto &ref = testRef();
        std::vector<Base> q(ref.begin() + 100, ref.begin() + 131);
        EXPECT_EQ(tab.search(q).count(), tab.fmIndex().search(q).count())
            << "k=" << k;
    }
}

TEST(ExmaTable, StepKmerWithKOneEqualsExtend)
{
    const ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact, 1));
    const FmIndex &fm = tab.fmIndex();
    Rng rng(10);
    Interval iv = fm.fullInterval();
    for (int t = 0; t < 30; ++t) {
        const Base c = static_cast<Base>(rng.below(4));
        const Interval a = fm.extend(iv, c);
        ASSERT_EQ(tab.stepKmer(iv, c), a) << "t=" << t;
        iv = a.empty() ? fm.fullInterval() : a;
    }
}

TEST(ExmaTable, ContiguousTableLocateAllGlobalIsSortedLocate)
{
    ExmaTable tab(testRef(), cfgFor(OccIndexMode::Exact));
    const auto &ref = testRef();
    Rng rng(8);
    for (int t = 0; t < 40; ++t) {
        const u64 len = 2 + rng.below(10);
        const u64 pos = rng.below(ref.size() - len);
        const std::vector<Base> q(
            ref.begin() + static_cast<std::ptrdiff_t>(pos),
            ref.begin() + static_cast<std::ptrdiff_t>(pos + len));
        const Interval iv = tab.search(q);
        auto expect = tab.locateAll(iv);
        std::sort(expect.begin(), expect.end());
        EXPECT_EQ(tab.locateAllGlobal(iv, q.size()), expect) << "t=" << t;
        // The cap keeps the lowest positions, whatever their rows.
        for (u64 limit : {u64{1}, u64{2}}) {
            std::vector<u64> capped = expect;
            if (capped.size() > limit)
                capped.resize(limit);
            EXPECT_EQ(tab.locateAllGlobal(iv, q.size(), limit), capped)
                << "t=" << t << " limit=" << limit;
        }
    }
}

} // namespace
} // namespace exma
