// An oracle for routed serving that shares no code with what it checks:
// every RoutedResult::hits list is compared with a naive std::search
// scan of the reference text — no suffix array, BWT, k-mer table or
// learned model is involved on the expected side. The sweep covers
// every plan layout (plus the monolithic table itself) × transport ×
// Occ mode × shard count over random, two-letter and all-A
// references, with queries of every length up to the plan's bound:
// reference substrings, random probes, queries shorter than the
// routing prefix (the ones whose padded code range can straddle a
// partition boundary) and repeats within one batch.
//
// The seed of every case is printed on failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "route/shard_router.hh"

namespace exma {
namespace {

constexpr u64 kRefLen = 640;
constexpr u64 kMaxQueryLen = 12;
constexpr u64 kBaseSeed = 20211;

enum class RefKind
{
    Random,
    TwoLetter,
    AllA,
};

const char *
refKindName(RefKind kind)
{
    switch (kind) {
    case RefKind::Random:
        return "random";
    case RefKind::TwoLetter:
        return "two-letter";
    case RefKind::AllA:
        return "all-A";
    }
    return "?";
}


std::vector<Base>
makeRef(RefKind kind, u64 seed)
{
    Rng rng(seed);
    std::vector<Base> ref(kRefLen, 0);
    for (Base &b : ref) {
        if (kind == RefKind::Random)
            b = static_cast<Base>(rng.below(4));
        else if (kind == RefKind::TwoLetter)
            b = static_cast<Base>(rng.below(2) == 0 ? 0 : 2); // A / G
    }
    return ref;
}

/** Every start of @p q in [begin, end) of @p ref, ascending. */
void
scanInto(const std::vector<Base> &ref, u64 begin, u64 end,
         const std::vector<Base> &q, std::vector<u64> &out)
{
    const auto first = ref.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = ref.begin() + static_cast<std::ptrdiff_t>(end);
    for (auto it = std::search(first, last, q.begin(), q.end()); it != last;
         it = std::search(it + 1, last, q.begin(), q.end()))
        out.push_back(static_cast<u64>(it - ref.begin()));
}

/**
 * Expected hits: a scan of the whole text, or — for a perRecord plan,
 * whose record seams are not hits — of each record on its own.
 */
std::vector<u64>
naiveHits(const std::vector<Base> &ref, const std::vector<RecordSpan> *records,
          const std::vector<Base> &q)
{
    std::vector<u64> out;
    if (records == nullptr) {
        scanInto(ref, 0, ref.size(), q, out);
        return out;
    }
    for (const RecordSpan &rec : *records)
        scanInto(ref, rec.begin, rec.begin + rec.length, q, out);
    return out;
}

/** Queries of every length 1..kMaxQueryLen, with repeats. */
std::vector<std::vector<Base>>
makeQueries(const std::vector<Base> &ref, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<Base>> qs;
    for (u64 len = 1; len <= kMaxQueryLen; ++len) {
        for (int i = 0; i < 3; ++i) { // substrings: at least one hit
            const u64 pos = rng.below(ref.size() - len + 1);
            qs.emplace_back(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        }
        std::vector<Base> probe(len); // random: mostly a miss
        for (Base &b : probe)
            b = static_cast<Base>(rng.below(4));
        qs.push_back(std::move(probe));
    }
    // The reference's own tail (A-padded prefix ownership).
    for (u64 len = 1; len <= 4; ++len)
        qs.emplace_back(ref.end() - static_cast<std::ptrdiff_t>(len),
                        ref.end());
    // Repeats of earlier queries within the same batch.
    const size_t distinct = qs.size();
    for (int i = 0; i < 8; ++i)
        qs.push_back(qs[rng.below(distinct)]);
    return qs;
}

ExmaTable::Config
tableCfg(OccIndexMode mode)
{
    ExmaTable::Config cfg;
    cfg.k = 3;
    cfg.mode = mode;
    // Thresholds low enough that the MTL mode models real lists on a
    // 640-base reference instead of falling back everywhere.
    cfg.mtl.min_increments = 8;
    cfg.mtl.leaf_size = 16;
    cfg.mtl.epochs = 4;
    cfg.mtl.samples_per_class = 128;
    return cfg;
}

/** @p n contiguous records covering the reference. */
std::vector<RecordSpan>
splitRecords(u64 ref_len, unsigned n)
{
    std::vector<RecordSpan> recs;
    const u64 stride = ref_len / n;
    for (unsigned i = 0; i < n; ++i) {
        const u64 begin = stride * i;
        const u64 end = i + 1 == n ? ref_len : begin + stride;
        recs.push_back({"rec" + std::to_string(i), begin, end - begin});
    }
    return recs;
}

struct OracleCase
{
    RefKind ref;
    TransportKind transport;
};

const char *
transportName(TransportKind kind)
{
    return kind == TransportKind::Socket ? "socket" : "inproc";
}

/** Stable parameter text in the test names (no struct padding bytes). */
void
PrintTo(const OracleCase &c, std::ostream *os)
{
    *os << refKindName(c.ref) << "/" << transportName(c.transport);
}

std::string
caseName(const testing::TestParamInfo<OracleCase> &info)
{
    std::string name = std::string(refKindName(info.param.ref)) + "_" +
                       transportName(info.param.transport);
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

class RoutedOracle : public testing::TestWithParam<OracleCase>
{
};

TEST_P(RoutedOracle, HitsEqualNaiveScan)
{
    const OracleCase c = GetParam();
    const u64 seed = kBaseSeed + static_cast<u64>(c.ref) * 1000;
    const std::vector<Base> ref = makeRef(c.ref, seed);
    const auto qs = makeQueries(ref, seed + 1);

    std::vector<std::vector<u64>> whole(qs.size());
    for (size_t i = 0; i < qs.size(); ++i)
        whole[i] = naiveHits(ref, nullptr, qs[i]);

    for (const OccIndexMode mode : {OccIndexMode::Exact, OccIndexMode::Mtl}) {
        const int mode_id = static_cast<int>(mode);
        RouterConfig rcfg;
        rcfg.table = tableCfg(mode);
        rcfg.transport.kind = c.transport;

        // The monolith the routed layouts must agree with.
        if (c.transport == TransportKind::InProcess) {
            const ExmaTable mono(ref, rcfg.table);
            for (size_t i = 0; i < qs.size(); ++i)
                ASSERT_EQ(mono.locateAllGlobal(mono.search(qs[i]),
                                               qs[i].size()),
                          whole[i])
                    << "seed=" << seed << " monolith mode=" << mode_id
                    << " query " << i;
        }

        for (unsigned n = 1; n <= 4; ++n) {
            const std::vector<RecordSpan> records =
                splitRecords(ref.size(), n);
            for (const char *layout : {"fixedWidth", "perRecord",
                                       "kmerPrefix"}) {
                const std::string what = std::string("seed=") +
                                         std::to_string(seed) + " " +
                                         layout + " shards=" +
                                         std::to_string(n) + " mode=" +
                                         std::to_string(mode_id);
                const bool per_record = layout[0] == 'p';
                const ShardPlan plan =
                    layout[0] == 'f'
                        ? ShardPlan::fixedWidth(ref.size(), n, kMaxQueryLen)
                    : per_record ? ShardPlan::perRecord(records)
                                 : ShardPlan::kmerPrefix(ref, n,
                                                         kMaxQueryLen);
                const ShardRouter router(ref, plan, rcfg);
                ASSERT_EQ(router.transportKind(), c.transport) << what;
                BatchConfig bc;
                bc.grain = 5;
                const RoutedResult r = router.search(qs, bc);
                ASSERT_EQ(r.hits.size(), qs.size()) << what;
                EXPECT_EQ(r.degraded_queries, 0u) << what;
                for (size_t i = 0; i < qs.size(); ++i) {
                    if (per_record)
                        ASSERT_EQ(r.hits[i],
                                  naiveHits(ref, &records, qs[i]))
                            << what << " query " << i;
                    else
                        ASSERT_EQ(r.hits[i], whole[i])
                            << what << " query " << i;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllReferences, RoutedOracle,
    testing::Values(OracleCase{RefKind::Random, TransportKind::InProcess},
                    OracleCase{RefKind::TwoLetter, TransportKind::InProcess},
                    OracleCase{RefKind::AllA, TransportKind::InProcess},
                    OracleCase{RefKind::Random, TransportKind::Socket},
                    OracleCase{RefKind::TwoLetter, TransportKind::Socket},
                    OracleCase{RefKind::AllA, TransportKind::Socket}),
    caseName);

} // namespace
} // namespace exma
