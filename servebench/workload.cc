#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/rng.hh"

namespace servebench {

namespace {

// Seed streams: one per purpose, so adding arrivals never shifts the
// queries and vice versa.
constexpr u64 kPoolStream = 0x51;
constexpr u64 kScheduleStream = 0x52;
constexpr u64 kOracleStream = 0x53;

/** Queries per run whose hit list is re-derived by a full text scan. */
constexpr u64 kBruteQueries = 48;

constexpr double kWarmupSeconds = 0.5;

/** Open-loop rate ladder in requests/s, ascending. */
const std::vector<double> kRateLadder = {1000, 2000, 3000, 4000, 5000,
                                         6000, 7000, 8000, 9000, 10000};

/** Share of the open-loop run given to the nominal step. */
constexpr double kNominalShare = 0.4;

exma::Rng
streamRng(u64 seed, u64 stream)
{
    return exma::Rng(seed * 0x9E3779B97F4A7C15ULL ^ stream);
}

/** Every start position of @p q in @p ref, ascending (no index). */
Hits
scanAll(const std::vector<Base> &ref, const Query &q)
{
    Hits out;
    const std::boyer_moore_horspool_searcher searcher(q.begin(), q.end());
    auto it = ref.begin();
    for (;;) {
        const auto found = std::search(it, ref.end(), searcher);
        if (found == ref.end())
            break;
        out.push_back(static_cast<u64>(found - ref.begin()));
        it = found + 1;
    }
    return out;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    // Why each workload exists is in README.md.
    static const std::vector<WorkloadSpec> specs = {
        {"reads_bulk", Loop::Closed, 101, 4096, 32, 8, 100000.0},
        {"seeds_locate", Loop::Closed, 20, 4096, 32, 8, 100000.0},
        {"stream_small", Loop::Open, 101, 16, 8192, 2048, 10000.0},
    };
    for (const WorkloadSpec &w : specs)
        if (w.name == name)
            return &w;
    return nullptr;
}

double
nominalRate()
{
    return 1000.0;
}

u64
Pool::requestBases(size_t r) const
{
    u64 n = 0;
    for (const Query &q : requests[r])
        n += q.size();
    return n;
}

Pool
makePool(const std::vector<Base> &ref, const WorkloadSpec &w, u64 seed)
{
    exma::Rng rng = streamRng(seed, kPoolStream);
    const u64 last_start = ref.size() - w.query_len;
    Pool pool;
    pool.requests.resize(w.pool_requests);
    pool.origins.resize(w.pool_requests);
    for (u64 r = 0; r < w.pool_requests; ++r) {
        pool.requests[r].resize(w.queries_per_request);
        pool.origins[r].resize(w.queries_per_request);
        for (u64 i = 0; i < w.queries_per_request; ++i) {
            const u64 pos = rng.range(0, last_start);
            pool.origins[r][i] = pos;
            pool.requests[r][i].assign(ref.begin() + pos,
                                       ref.begin() + pos + w.query_len);
        }
    }
    return pool;
}

std::vector<Step>
makeSchedule(u64 seed, u64 pool_requests, double seconds)
{
    exma::Rng rng = streamRng(seed, kScheduleStream);
    const std::vector<double> &ladder = kRateLadder;
    const double other_seconds =
        seconds * (1.0 - kNominalShare) /
        static_cast<double>(ladder.size() - 1);

    std::vector<Step> steps;
    Step warmup;
    warmup.rate = nominalRate();
    warmup.seconds = kWarmupSeconds;
    warmup.measured = false;
    steps.push_back(warmup);
    for (const double rate : ladder) {
        Step s;
        s.rate = rate;
        s.nominal = rate == nominalRate();
        s.seconds = s.nominal ? seconds * kNominalShare : other_seconds;
        steps.push_back(s);
    }

    u64 next_request = 0;
    for (Step &s : steps) {
        double t = 0.0;
        for (;;) {
            // Exponential inter-arrival gap; 1 - u is in (0, 1].
            t += -std::log(1.0 - rng.uniform()) / s.rate;
            if (t >= s.seconds)
                break;
            s.due_s.push_back(t);
            s.request.push_back(
                static_cast<u32>(next_request++ % pool_requests));
        }
    }
    return steps;
}

exma::ExmaTable::Config
tableConfig(int k)
{
    // The bench/ harnesses' MTL operating point at dataset scale 1.0.
    exma::ExmaTable::Config cfg;
    cfg.k = k;
    cfg.mode = exma::OccIndexMode::Mtl;
    cfg.mtl.leaf_size = 512;
    cfg.mtl.min_increments = 256;
    cfg.mtl.epochs = 120;
    cfg.mtl.samples_per_class = 4096;
    return cfg;
}

Expected
buildExpected(const std::vector<Base> &ref, int k, const Pool &pool,
              u64 seed)
{
    exma::ExmaTable::Config cfg = tableConfig(k);
    cfg.mode = exma::OccIndexMode::Exact;
    const auto mono = std::make_unique<exma::ExmaTable>(ref, cfg);

    Expected exp;
    exp.hits.resize(pool.requests.size());
    for (size_t r = 0; r < pool.requests.size(); ++r) {
        const Request &req = pool.requests[r];
        exp.hits[r].resize(req.size());
        for (size_t i = 0; i < req.size(); ++i) {
            const Query &q = req[i];
            Hits hits =
                mono->locateAllGlobal(mono->search(q), q.size());
            for (const u64 pos : hits) {
                ++exp.checked_hits;
                if (pos + q.size() > ref.size() ||
                    !std::equal(q.begin(), q.end(), ref.begin() + pos)) {
                    exp.error = "oracle: request " + std::to_string(r) +
                                " query " + std::to_string(i) +
                                " reports a hit at " +
                                std::to_string(pos) +
                                " that differs from the text";
                    return exp;
                }
            }
            if (!std::binary_search(hits.begin(), hits.end(),
                                    pool.origins[r][i])) {
                exp.error = "oracle: request " + std::to_string(r) +
                            " query " + std::to_string(i) +
                            " misses its origin " +
                            std::to_string(pool.origins[r][i]);
                return exp;
            }
            exp.hits[r][i] = std::move(hits);
        }
    }

    exma::Rng rng = streamRng(seed, kOracleStream);
    for (u64 n = 0; n < kBruteQueries; ++n) {
        const size_t r = rng.below(pool.requests.size());
        const size_t i = rng.below(pool.requests[r].size());
        ++exp.brute_queries;
        if (scanAll(ref, pool.requests[r][i]) != exp.hits[r][i]) {
            exp.error = "oracle: request " + std::to_string(r) +
                        " query " + std::to_string(i) +
                        " disagrees with a full scan of the text";
            return exp;
        }
    }
    return exp;
}

} // namespace servebench
