#include "batch/batch_searcher.hh"

#include <algorithm>
#include <chrono>
#include <span>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace exma {

BatchSearcher::BatchSearcher(const ExmaTable &table, BatchConfig cfg)
    : table_(table), cfg_(cfg)
{
}

BatchResult
BatchSearcher::search(const std::vector<std::vector<Base>> &queries) const
{
    return run(queries, nullptr);
}

BatchResult
BatchSearcher::search(const std::vector<std::vector<Base>> &queries,
                      const std::vector<u32> &ids) const
{
    for (u32 id : ids)
        exma_assert(id < queries.size(),
                    "subset id %u exceeds the %zu-query batch", id,
                    queries.size());
    return run(queries, &ids);
}

BatchResult
BatchSearcher::run(const std::vector<std::vector<Base>> &queries,
                   const std::vector<u32> *ids) const
{
    const u64 n = ids ? ids->size() : queries.size();
    BatchResult out;
    out.queries = n;
    out.intervals.resize(n);
    out.per_thread.assign(parallelForSlots(cfg_.threads), SearchStats{});
    if (cfg_.per_query_stats)
        out.per_query.assign(n, SearchStats{});
    if (cfg_.locate)
        out.positions.resize(n);
    const u64 locate_limit = cfg_.locate_limit ? cfg_.locate_limit
                                               : ~u64{0};

    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(
        n, cfg_.grain,
        [&](u64 begin, u64 end, unsigned slot) {
            // Each chunk is counted, then located, as one batch so the
            // memory accesses of its queries overlap.
            const u64 m = end - begin;
            std::vector<const std::vector<Base> *> qs(m);
            for (u64 j = 0; j < m; ++j)
                qs[j] = &queries[ids ? (*ids)[begin + j] : begin + j];
            const std::span<Interval> ivs(out.intervals.data() + begin, m);
            std::vector<SearchStats> qstats(m);
            table_.search(qs, ivs, qstats);
            SearchStats &acc = out.per_thread[slot];
            for (u64 j = 0; j < m; ++j) {
                acc += qstats[j];
                if (cfg_.per_query_stats)
                    out.per_query[begin + j] = qstats[j];
            }
            if (cfg_.locate) {
                const std::span<std::vector<u64>> pos(
                    out.positions.data() + begin, m);
                table_.fmIndex().locate(ivs, locate_limit, pos);
                for (std::vector<u64> &p : pos)
                    std::sort(p.begin(), p.end());
            }
            if (cfg_.progress)
                cfg_.progress();
        },
        cfg_.threads);
    const auto t1 = std::chrono::steady_clock::now();

    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (u64 i = 0; i < n; ++i)
        out.bases += queries[ids ? (*ids)[i] : i].size();
    for (const SearchStats &s : out.per_thread)
        out.stats += s;
    return out;
}

} // namespace exma
