#include <gtest/gtest.h>

#include <algorithm>

#include "common/dna.hh"
#include "common/rng.hh"
#include "fmindex/fm_index.hh"
#include "fmindex/suffix_array.hh"

namespace exma {
namespace {

std::vector<Base>
randomSeq(u64 len, u64 seed)
{
    Rng rng(seed);
    std::vector<Base> s(len);
    for (auto &b : s)
        b = static_cast<Base>(rng.below(4));
    return s;
}

/** Brute-force occurrence positions of q in ref. */
std::vector<u64>
naiveFind(const std::vector<Base> &ref, const std::vector<Base> &q)
{
    std::vector<u64> hits;
    if (q.empty() || q.size() > ref.size())
        return hits;
    for (u64 i = 0; i + q.size() <= ref.size(); ++i)
        if (std::equal(q.begin(), q.end(), ref.begin() +
                                               static_cast<std::ptrdiff_t>(i)))
            hits.push_back(i);
    return hits;
}

TEST(FmIndex, PaperExampleTag)
{
    // Fig. 3(e): query TAG over CATAGA ends with interval rows {6},
    // and SA[6] = 2.
    auto ref = encodeSeq("CATAGA");
    FmIndex fm(ref);
    auto iv = fm.search(encodeSeq("TAG"));
    EXPECT_EQ(iv.low, 6u);
    EXPECT_EQ(iv.high, 7u);
    EXPECT_EQ(fm.locate(6), 2u);
}

TEST(FmIndex, PaperExampleIntermediateIntervals)
{
    // Fig. 3(e): (0,7) -> G -> (5,6) -> A -> (2,3)?? The paper's trace
    // is (0,7)->(5,6)->(2,3)->(6,7); verify each step.
    auto ref = encodeSeq("CATAGA");
    FmIndex fm(ref);
    Interval iv = fm.fullInterval();
    EXPECT_EQ(iv, (Interval{0, 7}));
    iv = fm.extend(iv, charToBase('G'));
    EXPECT_EQ(iv, (Interval{5, 6}));
    iv = fm.extend(iv, charToBase('A'));
    EXPECT_EQ(iv, (Interval{2, 3}));
    iv = fm.extend(iv, charToBase('T'));
    EXPECT_EQ(iv, (Interval{6, 7}));
}

TEST(FmIndex, CountArrayMatchesPaper)
{
    // Fig. 3(c): Count = A:1, C:4, G:5, T:6 (with $ counted below A).
    auto ref = encodeSeq("CATAGA");
    FmIndex fm(ref);
    EXPECT_EQ(fm.count(1), 1u); // A
    EXPECT_EQ(fm.count(2), 4u); // C
    EXPECT_EQ(fm.count(3), 5u); // G
    EXPECT_EQ(fm.count(4), 6u); // T
}

TEST(FmIndex, OccMatchesPaperSample)
{
    // Fig. 3(b): Occ(C,5) = 1 over BWT = AGTC$AA.
    auto ref = encodeSeq("CATAGA");
    FmIndex fm(ref);
    EXPECT_EQ(fm.occ(2, 5), 1u);
}

TEST(FmIndex, SearchCountMatchesNaive)
{
    auto ref = randomSeq(5000, 3);
    FmIndex fm(ref);
    Rng rng(99);
    for (int t = 0; t < 200; ++t) {
        const u64 qlen = 1 + rng.below(12);
        std::vector<Base> q(qlen);
        for (auto &b : q)
            b = static_cast<Base>(rng.below(4));
        auto expect = naiveFind(ref, q);
        auto iv = fm.search(q);
        EXPECT_EQ(iv.count(), expect.size()) << "trial " << t;
    }
}

TEST(FmIndex, SearchOfPresentSubstringsAlwaysFound)
{
    auto ref = randomSeq(3000, 5);
    FmIndex fm(ref);
    Rng rng(7);
    for (int t = 0; t < 100; ++t) {
        const u64 len = 5 + rng.below(40);
        const u64 pos = rng.below(ref.size() - len);
        std::vector<Base> q(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        EXPECT_GE(fm.search(q).count(), 1u);
    }
}

TEST(FmIndex, LocateMatchesNaive)
{
    auto ref = randomSeq(2000, 21);
    FmIndex fm(ref);
    Rng rng(22);
    for (int t = 0; t < 60; ++t) {
        const u64 len = 4 + rng.below(10);
        const u64 pos = rng.below(ref.size() - len);
        std::vector<Base> q(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        auto iv = fm.search(q);
        auto got = fm.locateAll(iv);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, naiveFind(ref, q));
    }
}

TEST(FmIndex, EmptyQueryGivesFullInterval)
{
    auto ref = randomSeq(100, 1);
    FmIndex fm(ref);
    EXPECT_EQ(fm.search({}), fm.fullInterval());
}

TEST(FmIndex, AbsentQueryGivesEmptyInterval)
{
    // A query longer than the reference can never match.
    auto ref = encodeSeq("ACGT");
    FmIndex fm(ref);
    auto q = encodeSeq("ACGTACGTA");
    EXPECT_TRUE(fm.search(q).empty());
}

TEST(FmIndex, LfWalkReconstructsText)
{
    auto ref = randomSeq(500, 31);
    FmIndex fm(ref);
    // Walk LF from the row whose suffix is the full text (located at
    // the row with BWT symbol $): reading BWT symbols along the walk
    // yields the text reversed.
    u64 row = 0; // row 0 is the sentinel suffix; bwt[0] = last char
    std::vector<Base> rebuilt;
    for (u64 i = 0; i < ref.size(); ++i) {
        u8 sym = fm.bwtAt(row);
        ASSERT_NE(sym, 0u);
        rebuilt.push_back(static_cast<Base>(sym - 1));
        row = fm.lf(row);
    }
    std::reverse(rebuilt.begin(), rebuilt.end());
    EXPECT_EQ(rebuilt, ref);
}

TEST(FmIndex, LfMatchesByteScanOnEveryRow)
{
    // The LF oracle shares no code with PackedRank: the BWT comes from
    // the suffix array, Count and Occ from a byte scan. Batched and
    // scalar locate both step through lf(), so this pins both.
    for (u64 len : {1u, 63u, 64u, 700u}) {
        const auto ref = randomSeq(len, 43 + len);
        const std::vector<SaIndex> sa = buildSuffixArray(ref);
        const FmIndex fm(ref, sa);
        std::vector<u8> bwt(sa.size());
        u64 count[6] = {};
        for (u64 i = 0; i < sa.size(); ++i) {
            bwt[i] = sa[i] == 0 ? u8{0}
                                : static_cast<u8>(ref[sa[i] - 1] + 1);
            ++count[bwt[i] + 1];
        }
        for (int c = 1; c < 6; ++c)
            count[c] += count[c - 1]; // count[s] = symbols below s
        u64 seen[5] = {};
        for (u64 row = 0; row < bwt.size(); ++row) {
            const u8 s = bwt[row];
            ASSERT_EQ(fm.lf(row), count[s] + seen[s])
                << "len " << len << " row " << row;
            ++seen[s];
        }
    }
}

TEST(FmIndex, OccIsConsistentWithBwt)
{
    auto ref = randomSeq(700, 41);
    FmIndex fm(ref);
    for (u8 sym = 0; sym < 5; ++sym) {
        u64 prev = 0;
        for (u64 i = 1; i <= fm.size(); ++i) {
            u64 cur = fm.occ(sym, i);
            EXPECT_EQ(cur - prev, fm.bwtAt(i - 1) == sym ? 1u : 0u);
            prev = cur;
        }
    }
}

TEST(FmIndex, TraceRecordsTwoRowsPerIteration)
{
    auto ref = randomSeq(4000, 51);
    FmIndex fm(ref);
    auto q = randomSeq(20, 52);
    SearchTrace trace;
    fm.search(q, &trace);
    EXPECT_LE(trace.occ_rows.size(), 2 * q.size());
    EXPECT_EQ(trace.occ_rows.size() % 2, 0u);
}

struct FmConfigCase
{
    u32 occ_sample;
    u32 sa_sample;
};

class FmIndexConfigTest : public ::testing::TestWithParam<FmConfigCase>
{
};

TEST_P(FmIndexConfigTest, SearchAndLocateUnaffectedBySampling)
{
    auto ref = randomSeq(1500, 61);
    FmIndex::Config cfg;
    cfg.occ_sample = GetParam().occ_sample;
    cfg.sa_sample = GetParam().sa_sample;
    FmIndex fm(ref, cfg);
    FmIndex fm_ref(ref); // default config as the oracle
    Rng rng(62);
    for (int t = 0; t < 40; ++t) {
        const u64 len = 3 + rng.below(15);
        const u64 pos = rng.below(ref.size() - len);
        std::vector<Base> q(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        auto a = fm.search(q);
        auto b = fm_ref.search(q);
        EXPECT_EQ(a, b);
        auto la = fm.locateAll(a);
        auto lb = fm_ref.locateAll(b);
        std::sort(la.begin(), la.end());
        std::sort(lb.begin(), lb.end());
        EXPECT_EQ(la, lb);
    }
}

/** The first @p limit rows of @p iv, each through scalar locate(row). */
std::vector<u64>
scalarLocate(const FmIndex &fm, const Interval &iv, u64 limit)
{
    std::vector<u64> out;
    for (u64 row = iv.low; row < iv.high && out.size() < limit; ++row)
        out.push_back(fm.locate(row));
    return out;
}

TEST_P(FmIndexConfigTest, BatchedLocateEqualsScalarLocate)
{
    auto ref = randomSeq(1500, 63);
    FmIndex::Config cfg;
    cfg.occ_sample = GetParam().occ_sample;
    cfg.sa_sample = GetParam().sa_sample;
    FmIndex fm(ref, cfg);
    u64 primary = 0; // the row whose BWT symbol is $ (suffix at 0)
    while (fm.bwtAt(primary) != 0)
        ++primary;

    std::vector<Interval> ivs = {
        {7, 7},                           // empty
        {20, 10},                         // inverted, also empty
        {0, 1},                           // the sentinel suffix
        {primary, primary + 1},           // the primary row
        {fm.size() - 1, fm.size()},       // the last row
        fm.search(encodeSeq("A")),        // far more rows than lanes
        {0, FmIndex::kLocateLanes + 1},   // one row more than the lanes
        fm.fullInterval(),
    };
    Rng rng(64);
    for (int t = 0; t < 40; ++t) {
        const u64 len = 1 + rng.below(8);
        const u64 pos = rng.below(ref.size() - len);
        ivs.push_back(fm.search(std::vector<Base>(
            ref.begin() + static_cast<std::ptrdiff_t>(pos),
            ref.begin() + static_cast<std::ptrdiff_t>(pos + len))));
    }
    ASSERT_GT(ivs[5].count(), FmIndex::kLocateLanes);

    for (u64 limit : {~u64{0}, u64{0}, u64{1}, u64{3},
                      u64{FmIndex::kLocateLanes + 1}}) {
        std::vector<std::vector<u64>> out(ivs.size(), {99});
        fm.locate(ivs, limit, out);
        for (size_t i = 0; i < ivs.size(); ++i) {
            const auto expect = scalarLocate(fm, ivs[i], limit);
            EXPECT_EQ(out[i], expect) << "i=" << i << " limit=" << limit;
            EXPECT_EQ(fm.locateAll(ivs[i], limit), expect)
                << "i=" << i << " limit=" << limit;
        }
    }
    // A walk from the primary row is zero steps: its suffix is text
    // position 0, which every stride samples.
    EXPECT_EQ(fm.locateAll({primary, primary + 1}),
              (std::vector<u64>{0}));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FmIndexConfigTest,
    ::testing::Values(FmConfigCase{1, 1}, FmConfigCase{3, 5},
                      FmConfigCase{16, 8}, FmConfigCase{64, 32},
                      FmConfigCase{192, 64}));

} // namespace
} // namespace exma
