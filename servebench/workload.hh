/**
 * @file
 * Inputs and ground truth of the serving benchmark: the three
 * workloads, their seeded query pools, the open-loop arrival schedule
 * and the correctness oracle.
 *
 * Everything here is a pure function of the workload seed, so a parent
 * commit and a change replay exactly the same queries and arrivals.
 */

#ifndef SERVEBENCH_WORKLOAD_HH
#define SERVEBENCH_WORKLOAD_HH

#include <string>
#include <vector>

#include "common/dna.hh"
#include "common/types.hh"
#include "core/exma_table.hh"

namespace servebench {

using exma::Base;
using exma::u32;
using exma::u64;
using Query = std::vector<Base>;
using Request = std::vector<Query>;
using Hits = std::vector<u64>;

/** How requests reach the router. */
enum class Loop
{
    Closed, ///< one caller sends the next request when one returns
    Open,   ///< requests arrive on a Poisson schedule, two callers
};

struct WorkloadSpec
{
    std::string name;
    Loop loop = Loop::Closed;
    u64 query_len = 0;
    u64 queries_per_request = 0;
    /** Distinct requests generated per seed (the replay cycles them). */
    u64 pool_requests = 0;
    /** Requests the traced run replays through each layer. */
    u64 replay_requests = 0;
    /** Per-request latency limit (slo_attainment, max_rate_in_slo). */
    double limit_us = 0.0;
};

/** The workload named @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** The ladder step latency percentiles are reported at. */
double nominalRate();

/** Seeded requests plus each query's origin on the forward strand. */
struct Pool
{
    std::vector<Request> requests;
    std::vector<std::vector<u64>> origins; ///< [request][query]
    u64 requestBases(size_t r) const;
};

/** Uniformly sampled error-free forward-strand queries. */
Pool makePool(const std::vector<Base> &ref, const WorkloadSpec &w,
              u64 seed);

/** One open-loop step: arrival offsets from the step start. */
struct Step
{
    double rate = 0.0;    ///< offered requests/s
    double seconds = 0.0; ///< step length
    bool nominal = false;
    bool measured = true; ///< false for the warm-up step
    std::vector<double> due_s;   ///< ascending arrival offsets
    std::vector<u32> request;    ///< pool index per arrival
};

/**
 * The whole arrival schedule, generated up front: a warm-up step at
 * the nominal rate, then every ladder rate. The nominal step gets 40%
 * of @p seconds, the other steps share the rest.
 */
std::vector<Step> makeSchedule(u64 seed, u64 pool_requests, double seconds);

/** The table configuration every index in the benchmark uses. */
exma::ExmaTable::Config tableConfig(int k);

/** Expected hits per pool request/query, and what the oracle saw. */
struct Expected
{
    std::vector<std::vector<Hits>> hits; ///< [request][query]
    u64 checked_hits = 0;   ///< hits compared against the text
    u64 brute_queries = 0;  ///< queries re-derived by a full scan
    std::string error;      ///< empty iff every check passed
};

/**
 * Build a monolithic ExmaTable in Exact mode over @p ref, compute
 * every pool query's sorted hit list, and check it without trusting
 * the SA/BWT code: each hit is compared against the text directly,
 * each query's origin must be among its hits, and a seeded sample of
 * queries is re-derived by scanning the whole reference.
 */
Expected buildExpected(const std::vector<Base> &ref, int k,
                       const Pool &pool, u64 seed);

} // namespace servebench

#endif // SERVEBENCH_WORKLOAD_HH
