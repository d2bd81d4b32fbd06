#include "core/exma_table.hh"

#include <algorithm>

#include "common/branchless.hh"
#include "common/logging.hh"
#include "compress/chain.hh"
#include "fmindex/suffix_array.hh"

namespace exma {

ExmaTable::ExmaTable(const std::vector<Base> &ref, const Config &cfg)
    : cfg_(cfg)
{
    build(ref);
}

ExmaTable::ExmaTable(Parts parts) : cfg_(parts.cfg)
{
    fm_ = std::make_unique<FmIndex>(std::move(parts.fm));
    occ_ = std::make_unique<KmerOccTable>(std::move(parts.occ));
    exma_assert(fm_->size() == occ_->rows(),
                "table restore: FM-index and occ table disagree on rows");
    switch (cfg_.mode) {
        case OccIndexMode::Exact:
            break;
        case OccIndexMode::Mtl:
            exma_assert(parts.mtl.has_value(),
                        "table restore: MTL-mode table lacks models");
            mtl_ = std::make_unique<MtlIndex>(*occ_,
                                              std::move(*parts.mtl));
            break;
    }
}

void
ExmaTable::build(const std::vector<Base> &ref)
{
    const std::vector<SaIndex> sa = buildSuffixArray(ref);
    fm_ = std::make_unique<FmIndex>(ref, sa, cfg_.fm);
    occ_ = std::make_unique<KmerOccTable>(ref, sa, cfg_.k);
    switch (cfg_.mode) {
        case OccIndexMode::Exact:
            break;
        case OccIndexMode::Mtl:
            mtl_ = std::make_unique<MtlIndex>(*occ_, cfg_.mtl);
            break;
    }
}

std::vector<u64>
ExmaTable::locateAllGlobal(const Interval &iv, u64 /*query_len*/,
                           u64 limit) const
{
    // Every occurrence is located before the cap: rows are in suffix
    // order, and the cap keeps the lowest text positions.
    std::vector<u64> pos = fm_->locateAll(iv);
    std::sort(pos.begin(), pos.end());
    if (pos.size() > limit)
        pos.resize(limit);
    return pos;
}

IndexLookup
ExmaTable::occ(Kmer code, u64 pos) const
{
    if (mtl_)
        return mtl_->occ(code, pos);
    IndexLookup out;
    auto inc = occ_->increments(code);
    out.rank = lowerBoundRank(inc, static_cast<u32>(pos));
    out.probes = probeCount(inc.size());
    return out;
}

Interval
ExmaTable::stepKmer(const Interval &iv, Kmer code, SearchStats *stats) const
{
    const u64 c = occ_->countBefore(code);
    const IndexLookup lo = occ(code, iv.low);
    const IndexLookup hi = occ(code, iv.high);
    if (stats) {
        ++stats->kstep_iterations;
        stats->total_error += lo.error + hi.error;
        stats->total_probes += lo.probes + hi.probes;
        stats->model_lookups += lo.used_model + hi.used_model;
    }
    return Interval{c + lo.rank, c + hi.rank};
}

Interval
ExmaTable::search(const std::vector<Base> &query, SearchStats *stats) const
{
    const int kk = k();
    Interval iv = fm_->fullInterval();
    size_t i = query.size();
    const size_t rem = query.size() % static_cast<size_t>(kk);
    while (i >= rem + static_cast<size_t>(kk)) {
        i -= static_cast<size_t>(kk);
        iv = stepKmer(iv, packKmer(query.data() + i, kk), stats);
        if (iv.empty())
            return Interval{iv.low, iv.low};
    }
    while (i-- > 0) {
        iv = fm_->extend(iv, query[i]);
        if (stats)
            ++stats->onestep_iterations;
        if (iv.empty())
            return Interval{iv.low, iv.low};
    }
    return iv;
}

void
ExmaTable::search(std::span<const std::vector<Base> *const> queries,
                  std::span<Interval> intervals,
                  std::span<SearchStats> stats) const
{
    exma_assert(intervals.size() == queries.size() &&
                    stats.size() == queries.size(),
                "batched search: %zu queries, %zu intervals, %zu stats",
                queries.size(), intervals.size(), stats.size());
    const size_t kk = static_cast<size_t>(k());
    // (query, bases still to prepend) for every query whose interval
    // is non-empty when its k-steps are done but has a remainder; its
    // first rank blocks are requested as it joins.
    std::vector<std::pair<size_t, size_t>> live;
    live.reserve(queries.size());
    const auto leaveKSteps = [&](size_t j) {
        Interval &iv = intervals[j];
        const size_t rem = queries[j]->size() % kk;
        if (iv.empty()) {
            iv.high = iv.low;
        } else if (rem > 0) {
            fm_->prefetch(iv);
            live.emplace_back(j, rem);
        }
    };
    // Query j's k-steps use codes[first[j] .. first[j + 1]), in step
    // order; every base-pointer line they read is requested now. The
    // queries with k-steps to run are the lanes.
    std::vector<Kmer> codes;
    std::vector<size_t> first(queries.size() + 1);
    std::vector<size_t> lanes;
    lanes.reserve(queries.size());
    for (size_t j = 0; j < queries.size(); ++j) {
        const std::vector<Base> &q = *queries[j];
        first[j] = codes.size();
        for (size_t i = q.size(); i >= q.size() % kk + kk;) {
            i -= kk;
            codes.push_back(packKmer(q.data() + i, kk));
            occ_->prefetchBase(codes.back());
        }
        intervals[j] = fm_->fullInterval();
        if (codes.size() > first[j])
            lanes.push_back(j);
        else
            leaveKSteps(j);
    }
    first.back() = codes.size();

    // The k-steps, one round across all live queries at a time: round
    // r resolves step r of each, after requesting the increments of
    // its step r + 2. Short unmodelled lists are counted linearly —
    // the same ranks and probe charge as stepKmer(), without a chain
    // of dependent probes.
    u64 linear_max = kShortList;
    if (mtl_)
        linear_max = std::min(linear_max, mtl_->config().min_increments);
    for (size_t ahead = 0; ahead < 2; ++ahead)
        for (const size_t j : lanes)
            if (first[j] + ahead < first[j + 1])
                occ_->prefetchIncrements(codes[first[j] + ahead]);
    for (size_t r = 0; !lanes.empty(); ++r) {
        size_t kept = 0;
        for (size_t l = 0; l < lanes.size(); ++l) {
            const size_t j = lanes[l];
            const size_t s = first[j] + r;
            if (s + 2 < first[j + 1])
                occ_->prefetchIncrements(codes[s + 2]);
            const Kmer code = codes[s];
            const std::span<const u32> inc = occ_->increments(code);
            Interval &iv = intervals[j];
            if (inc.size() <= linear_max) {
                const u32 lo_key = static_cast<u32>(iv.low);
                const u32 hi_key = static_cast<u32>(iv.high);
                u64 lo = 0;
                u64 hi = 0;
                for (const u32 row : inc) {
                    lo += row < lo_key;
                    hi += row < hi_key;
                }
                const u64 c = occ_->countBefore(code);
                iv = Interval{c + lo, c + hi};
                ++stats[j].kstep_iterations;
                stats[j].total_probes += 2 * probeCount(inc.size());
            } else {
                iv = stepKmer(iv, code, &stats[j]);
            }
            if (!iv.empty() && s + 1 < first[j + 1])
                lanes[kept++] = j;
            else
                leaveKSteps(j);
        }
        lanes.resize(kept);
    }

    // The 1-step remainders, one round across all live queries at a
    // time: each round's rank blocks were prefetched by the previous.
    while (!live.empty()) {
        size_t kept = 0;
        for (size_t l = 0; l < live.size(); ++l) {
            auto [j, i] = live[l];
            Interval &iv = intervals[j];
            iv = fm_->extend(iv, (*queries[j])[--i]);
            ++stats[j].onestep_iterations;
            if (iv.empty()) {
                iv.high = iv.low;
            } else if (i > 0) {
                fm_->prefetch(iv);
                live[kept++] = {j, i};
            }
        }
        live.resize(kept);
    }
}

std::vector<ExmaTable::IterTrace>
ExmaTable::traceSearch(const std::vector<Base> &query) const
{
    std::vector<IterTrace> trace;
    const int kk = k();
    Interval iv = fm_->fullInterval();
    size_t i = query.size();
    const size_t rem = query.size() % static_cast<size_t>(kk);
    while (i >= rem + static_cast<size_t>(kk)) {
        i -= static_cast<size_t>(kk);
        const Kmer code = packKmer(query.data() + i, kk);
        IterTrace it;
        it.kmer = code;
        it.pos_low = iv.low;
        it.pos_high = iv.high;
        it.low = occ(code, iv.low);
        it.high = occ(code, iv.high);
        it.base = occ_->baseOf(code);
        trace.push_back(it);
        const u64 c = occ_->countBefore(code);
        iv = Interval{c + it.low.rank, c + it.high.rank};
        if (iv.empty())
            break;
    }
    return trace;
}

u64
ExmaTable::indexParamCount() const
{
    if (mtl_)
        return mtl_->paramCount();
    return 0;
}

ExmaTable::SizeReport
ExmaTable::sizeReport() const
{
    SizeReport r;
    const auto &inc = occ_->allIncrements();
    const auto &bases = occ_->baseArray();
    r.increments_raw = inc.size() * 4;
    r.increments_chain = chainCompressedSize(inc);
    r.bases_raw = bases.size() * 4;
    r.bases_chain = chainCompressedSize(bases);
    r.index_bytes = indexParamCount(); // 8-bit quantised (§IV.D)
    r.bwt_bytes = (rows() * 3 + 7) / 8;
    return r;
}

} // namespace exma
