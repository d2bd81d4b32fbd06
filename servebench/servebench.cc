/**
 * @file
 * servebench: what a caller of ShardRouter::search gets from the
 * deployed serving stack, and where the time goes.
 *
 *   servebench --workload reads_bulk|seeds_locate|stream_small
 *              --seed N --seconds S --trace 0|1
 *              --work-dir EMPTY_DIR [--out-dir DIR]
 *
 * The stack: the synthetic human reference at scale 1.0, a 2-shard
 * kmerPrefix ShardRouter whose replicas are exma-worker processes
 * behind the socket transport (R=1, no faults), locate on.
 *
 * --trace 0 measures the end-to-end metrics from outside through
 * ShardRouter::search. --trace 1 replays the same requests one layer
 * at a time through each layer's public functions, recording spans
 * around every call (written to DIR/spans-<workload>.jsonl) and the
 * exact work counters (DIR/counters-<workload>-<seed>.json). Either
 * way the last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics. README.md explains the workloads and
 * the metric -> layer -> workload map.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch_searcher.hh"
#include "common/thread_annotations.hh"
#include "genome/reference.hh"
#include "persist/index_io.hh"
#include "route/shard_router.hh"
#include "spans.hh"
#include "transport/wire.hh"
#include "workload.hh"

namespace servebench {
namespace {

using exma::BatchConfig;
using exma::RoutedResult;
using exma::SearchStats;
using exma::ShardPlan;
using exma::ShardRouter;
using exma::u8;
using exma::WorkerResponse;

constexpr unsigned kShards = 2;
constexpr u64 kMaxQueryLen = 101;
constexpr int kSetupReps = 3;
constexpr unsigned kStreamCallers = 2;
/** Length of one calibration burst, run outside every timed region. */
constexpr double kCalibrationSeconds = 0.03;
/**
 * The calibration rate (dependent loads per us) that end-to-end times
 * are scaled to: about what a quiet 4-vCPU test machine measures.
 */
constexpr double kReferenceLoadsPerUs = 10.0;
/** Consecutive failing ladder steps above nominal that end the ladder. */
constexpr int kLadderStopAfter = 2;
/** Closed-loop runs are cut into this many slices of requests. */
constexpr size_t kWindows = 10;
/** Open-loop latency percentiles are medians over slices this long. */
constexpr double kStepWindowSeconds = 0.5;
/** Open-loop span request ids start here, above the replay's ids. */
constexpr u64 kOpenLoopRequestBase = u64{1} << 32;
/** Untraced/traced pass pairs in the traced run's route rung. */
constexpr int kRoutePassPairs = 5;

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Nearest-rank percentile; 0 for an empty sample. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/**
 * Percentile @p p within each of @p windows consecutive slices of
 * @p v, then the lower quartile across slices. A host that stalls
 * this virtual machine for milliseconds at a time spoils whole
 * stretches of a run; the quietest quarter of the slices still
 * measures the stack, and a regression in the stack moves every
 * slice, quiet ones included.
 */
double
windowedPercentile(const std::vector<double> &v, size_t windows, double p)
{
    windows = std::max<size_t>(1, std::min(windows, v.size()));
    std::vector<double> per;
    for (size_t k = 0; k < windows; ++k)
        per.push_back(percentile(
            std::vector<double>(v.begin() + v.size() * k / windows,
                                v.begin() + v.size() * (k + 1) / windows),
            p));
    return percentile(per, 25.0);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Ops attempted and failed, plus the first failure's description. */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;
    std::string error;

    void
    fail(u64 n, const std::string &what)
    {
        failed += n;
        if (error.empty())
            error = what;
    }

    void
    merge(const Tally &o)
    {
        attempted += o.attempted;
        if (o.failed)
            fail(o.failed, o.error);
    }
};

/**
 * Check a routed result against the oracle. A wrong hit list, a
 * degraded query or a missing result each fail that query.
 */
bool
checkRouted(const RoutedResult &res, const std::vector<Hits> &expect,
            Tally &tally)
{
    tally.attempted += expect.size();
    if (res.hits.size() != expect.size()) {
        tally.fail(expect.size(), "router returned a short result");
        return false;
    }
    u64 bad = 0;
    for (size_t i = 0; i < expect.size(); ++i)
        if (res.degraded[i] || res.hits[i] != expect[i])
            ++bad;
    if (bad)
        tally.fail(bad, "router hits differ from the oracle");
    return bad == 0;
}

BatchConfig
searchConfig()
{
    BatchConfig bc;
    bc.threads = 1;
    bc.locate = true;
    return bc;
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "servebench: metric %s is not finite\n",
                         name.c_str());
            bad_ = true;
            value = 0.0;
        }
        metrics_.push_back({name, value, unit});
    }

    /** Print the result line. */
    void
    print(const Tally &tally) const
    {
        const bool correct = tally.failed == 0 && !bad_;
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(tally.attempted),
                    static_cast<unsigned long long>(tally.failed));
        for (size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit.c_str());
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    bool bad_ = false;
};

// ---------------------------------------------------------------------
// Machine speed
// ---------------------------------------------------------------------

/**
 * A fixed, dependent random-gather loop over 64 MiB: the same kind of
 * memory-latency-bound work as an Occ lookup chain, independent of
 * the program under test. Its rate tracks how fast this machine is
 * right now.
 */
class Calibration
{
  public:
    Calibration() : table_(u64{1} << 24)
    {
        for (u64 i = 0; i < table_.size(); ++i)
            table_[i] = static_cast<u32>((i * 2654435761ULL) >> 8);
    }

    /** Run the loop for about @p secs and record its rate. */
    void
    measure(double secs)
    {
        const u64 mask = table_.size() - 1;
        const auto t0 = Clock::now();
        const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(secs));
        u64 x = 1, n = 0;
        while (Clock::now() < until) {
            for (u64 j = 0; j < 4096; ++j)
                x += table_[(x * 6364136223846793005ULL + j) & mask];
            n += 4096;
        }
        sink_ += x;
        samples_.push_back(static_cast<double>(n) /
                           micros(Clock::now() - t0));
    }

    /** Median rate of every burst, in dependent loads per us. */
    double median() const { return servebench::median(samples_); }

  private:
    std::vector<u32> table_;
    std::vector<double> samples_;
    u64 sink_ = 0;
};

// ---------------------------------------------------------------------
// Deployment: plan + router + worker processes, timed as setup_s
// ---------------------------------------------------------------------

exma::RouterConfig
routerConfig(int k)
{
    exma::RouterConfig cfg;
    cfg.table = tableConfig(k);
    cfg.transport.kind = exma::TransportKind::Socket;
    cfg.transport.worker_binary = SERVEBENCH_WORKER_BIN;
    return cfg; // failover defaults: R=1, retries on, supervisor on
}

/** One full-length query owned by each shard, to prove readiness. */
Request
probeRequest(const ShardPlan &plan, const std::vector<Base> &ref)
{
    Request probe;
    std::vector<bool> covered(plan.size(), false);
    for (u64 pos = 0; pos + kMaxQueryLen <= ref.size() &&
                      probe.size() < plan.size();
         pos += 997) {
        const exma::PrefixRange r =
            plan.queryPrefixRange(ref.data() + pos, kMaxQueryLen);
        const size_t owner = plan.ownersOfRange(r.lo, r.hi).first;
        if (covered[owner])
            continue;
        covered[owner] = true;
        probe.emplace_back(ref.begin() + pos,
                           ref.begin() + pos + kMaxQueryLen);
    }
    return probe;
}

struct Deployment
{
    std::unique_ptr<ShardRouter> router;
    std::vector<double> setup_s; ///< start to router-ready, per rep
    std::vector<double> build_s; ///< ShardRouter::buildSeconds, per rep
};

/**
 * Deploy the stack kSetupReps times, keeping the last deployment.
 * Each rep is timed from before the plan to the first answered probe
 * on every shard; tearing the previous rep down is not timed.
 */
Deployment
deploy(const std::vector<Base> &ref, int k, Calibration &cal, Tally &tally)
{
    const exma::RouterConfig cfg = routerConfig(k);
    const Request probe =
        probeRequest(ShardPlan::kmerPrefix(ref, kShards, kMaxQueryLen), ref);
    Deployment d;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        d.router.reset();
        const auto t0 = Clock::now();
        const ShardPlan plan =
            ShardPlan::kmerPrefix(ref, kShards, kMaxQueryLen);
        d.router = std::make_unique<ShardRouter>(ref, plan, cfg);
        const RoutedResult r = d.router->search(probe, searchConfig());
        const auto t1 = Clock::now();
        d.setup_s.push_back(seconds(t1 - t0));
        d.build_s.push_back(d.router->buildSeconds());
        tally.attempted += probe.size();
        if (r.degraded_queries)
            tally.fail(r.degraded_queries, "setup probe degraded");
        cal.measure(kCalibrationSeconds);
    }
    return d;
}

/** Bytes of the shard files the workers map (under the work dir). */
double
indexBytes(const std::string &work_dir)
{
    namespace fs = std::filesystem;
    u64 bytes = 0;
    for (const auto &e : fs::recursive_directory_iterator(work_dir))
        if (e.is_regular_file() &&
            e.path().string().find("exma-shards-") != std::string::npos)
            bytes += e.file_size();
    return static_cast<double>(bytes);
}

// ---------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------

struct ClosedRun
{
    std::vector<double> lat_us;
    std::vector<double> bases;
    u64 ok_in_limit = 0;
};

ClosedRun
runClosed(const ShardRouter &router, const Pool &pool,
          const Expected &exp, const WorkloadSpec &w, double budget_s,
          Calibration &cal, Tally &tally)
{
    const BatchConfig bc = searchConfig();
    for (size_t r = 0; r < 2; ++r) // warm-up, checked but not timed
        checkRouted(router.search(pool.requests[r], bc), exp.hits[r],
                    tally);

    ClosedRun run;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(budget_s));
    auto next_cal = Clock::now();
    for (u64 n = 0; Clock::now() < deadline; ++n) {
        if (Clock::now() >= next_cal) {
            cal.measure(kCalibrationSeconds);
            next_cal = Clock::now() + std::chrono::milliseconds(500);
        }
        const size_t r = n % pool.requests.size();
        const auto t0 = Clock::now();
        bool ok = false;
        try {
            ok = checkRouted(router.search(pool.requests[r], bc),
                             exp.hits[r], tally);
        } catch (const std::exception &e) {
            tally.attempted += pool.requests[r].size();
            tally.fail(pool.requests[r].size(), e.what());
        }
        const double lat = micros(Clock::now() - t0);
        run.lat_us.push_back(lat);
        run.bases.push_back(static_cast<double>(pool.requestBases(r)));
        if (ok && lat <= w.limit_us)
            ++run.ok_in_limit;
    }
    return run;
}

void
reportClosed(const ClosedRun &run, double slowdown, Report &rep)
{
    // Throughput per window of consecutive requests; the figure is the
    // upper quartile, the quietest stretch of the run (see
    // windowedPercentile).
    std::vector<double> mbases;
    const size_t n = run.lat_us.size();
    for (size_t k = 0; k < kWindows; ++k) {
        const size_t lo = n * k / kWindows, hi = n * (k + 1) / kWindows;
        double b = 0.0, us = 0.0;
        for (size_t i = lo; i < hi; ++i) {
            b += run.bases[i];
            us += run.lat_us[i];
        }
        if (hi > lo)
            mbases.push_back(b / us);
    }
    std::fprintf(stderr, "servebench: %zu requests; Mbases/s per window:",
                 n);
    for (const double m : mbases)
        std::fprintf(stderr, " %.1f", m);
    std::fprintf(stderr, "\n");
    const double mbases_raw = percentile(mbases, 75.0);
    const double p50_raw = windowedPercentile(run.lat_us, kWindows, 50.0);
    std::fprintf(stderr, "servebench: raw mbases_per_s %.3f latency_p50_us "
                         "%.1f\n",
                 mbases_raw, p50_raw);
    rep.add("mbases_per_s", mbases_raw * slowdown, "Mbases/s");
    rep.add("latency_p50_us", p50_raw / slowdown, "us");
    rep.add("slo_attainment",
            ratio(static_cast<double>(run.ok_in_limit),
                  static_cast<double>(n)),
            "ratio");
}

// ---------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------

struct StepRun
{
    double rate = 0.0;
    bool nominal = false;
    bool measured = true;
    size_t windows = 1;
    std::vector<double> lat_us, wait_us, late_us;
    std::vector<double> backlog; ///< queued + in flight, at each arrival
    std::vector<double> inbox;   ///< summed replica inbox depth
    u64 ok_in_limit = 0;
    double ok_bases = 0.0;
    double wall_s = 0.0; ///< step start to last completion
    Tally tally;
    bool growing = false;

    /** Latency percentiles over kStepWindowSeconds slices. */
    double p50() const { return windowedPercentile(lat_us, windows, 50.0); }
    double p99() const { return windowedPercentile(lat_us, windows, 99.0); }

    bool
    withinSlo(double limit_us) const
    {
        return p99() <= limit_us &&
               tally.failed == 0 && !growing;
    }
};

/**
 * Wait for an arrival's due time. The generator spins rather than
 * sleeps: a timer wake-up on a virtual machine can land milliseconds
 * late, and that lateness would count in every latency.
 */
void
waitUntil(Clock::time_point due)
{
    while (Clock::now() < due)
        __builtin_ia32_pause();
}

/**
 * Serve one step of the schedule: this thread issues each arrival at
 * its due time, kStreamCallers threads call the router. Latency runs
 * from the due time, so generator lateness and queueing both count.
 */
StepRun
runStep(const ShardRouter &router, const Pool &pool, const Expected &exp,
        const Step &step, const WorkloadSpec &w, SpanLog *spans)
{
    const size_t n = step.due_s.size();
    std::vector<Clock::time_point> due(n), issued(n), dequeued(n), done(n);
    std::vector<char> ok(n, 0);

    exma::Mutex mtx;
    exma::CondVar cv;
    std::deque<u32> queue;
    bool closed = false;
    std::atomic<u64> in_flight{0};

    const BatchConfig bc = searchConfig();
    std::vector<Tally> tallies(kStreamCallers);
    std::vector<std::thread> callers;

    // Close the queue and join the callers on every way out.
    struct JoinCallers
    {
        exma::Mutex &mtx;
        exma::CondVar &cv;
        bool &closed;
        std::vector<std::thread> &callers;

        ~JoinCallers()
        {
            {
                exma::MutexLock lock(mtx);
                closed = true;
            }
            cv.notify_all();
            for (std::thread &t : callers)
                t.join();
        }
    };
    std::optional<JoinCallers> join(std::in_place, mtx, cv, closed, callers);
    for (unsigned c = 0; c < kStreamCallers; ++c)
        callers.emplace_back([&, c] {
            for (;;) {
                u32 i = 0;
                {
                    exma::MutexLock lock(mtx);
                    cv.wait(lock, [&] { return !queue.empty() || closed; });
                    if (queue.empty())
                        return;
                    i = queue.front();
                    queue.pop_front();
                }
                dequeued[i] = Clock::now();
                const u32 r = step.request[i];
                try {
                    ok[i] = checkRouted(
                        router.search(pool.requests[r], bc), exp.hits[r],
                        tallies[c]);
                } catch (const std::exception &e) {
                    tallies[c].attempted += pool.requests[r].size();
                    tallies[c].fail(pool.requests[r].size(), e.what());
                }
                done[i] = Clock::now();
                in_flight.fetch_sub(1, std::memory_order_relaxed);
            }
        });

    StepRun run;
    run.rate = step.rate;
    run.nominal = step.nominal;
    run.measured = step.measured;
    run.windows = static_cast<size_t>(
        std::max(1.0, std::round(step.seconds / kStepWindowSeconds)));
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < n; ++i) {
        due[i] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(step.due_s[i]));
        waitUntil(due[i]);
        issued[i] = Clock::now();
        if (spans) {
            u64 depth = 0;
            for (size_t s = 0; s < router.shardCount(); ++s)
                for (unsigned k = 0; k < router.replicaSet(s).size(); ++k)
                    depth += router.replicaSet(s).replica(k)->inboxDepth();
            run.inbox.push_back(static_cast<double>(depth));
        }
        run.backlog.push_back(static_cast<double>(
            in_flight.fetch_add(1, std::memory_order_relaxed)));
        {
            exma::MutexLock lock(mtx);
            queue.push_back(static_cast<u32>(i));
        }
        cv.notify_one();
    }
    join.reset();

    Clock::time_point last = start;
    for (size_t i = 0; i < n; ++i) {
        const double lat = micros(done[i] - due[i]);
        run.lat_us.push_back(lat);
        run.wait_us.push_back(micros(dequeued[i] - due[i]));
        run.late_us.push_back(micros(issued[i] - due[i]));
        last = std::max(last, done[i]);
        if (ok[i]) {
            run.ok_bases +=
                static_cast<double>(pool.requestBases(step.request[i]));
            if (lat <= w.limit_us)
                ++run.ok_in_limit;
        }
        if (spans) {
            const u64 req = kOpenLoopRequestBase + i;
            const u32 root =
                spans->add("stream.request", req, SpanLog::kRoot, due[i],
                           done[i]);
            spans->add("driver.queue", req, root, due[i], dequeued[i]);
            spans->add("route.search", req, root, dequeued[i], done[i]);
        }
    }
    run.wall_s = seconds(last - start);
    for (const Tally &t : tallies)
        run.tally.merge(t);

    // A backlog that keeps growing means the offered rate is above
    // what the stack sustains, whatever the latency says.
    const size_t q = run.backlog.size() / 4;
    if (q > 0) {
        const std::vector<double> head(run.backlog.begin(),
                                       run.backlog.begin() + q);
        const std::vector<double> tail(run.backlog.end() - q,
                                       run.backlog.end());
        run.growing = mean(tail) > 2.0 * mean(head) + kStreamCallers;
    }
    return run;
}

/** Outcome of the whole schedule. */
struct Ladder
{
    StepRun nominal;
    /** Highest rate whose step met the limit, failure-free and with
     *  no growing backlog; 0 when none did. */
    double max_rate_in_slo = 0.0;
};

/**
 * Serve the schedule in order, with spans on the nominal step when
 * @p spans is set. Once kLadderStopAfter consecutive steps above the
 * nominal rate miss the limit, the rest are skipped as missing it.
 */
Ladder
runLadder(const ShardRouter &router, const Pool &pool, const Expected &exp,
          const std::vector<Step> &schedule, const WorkloadSpec &w,
          SpanLog *spans, Calibration &cal, Tally &tally)
{
    Ladder ladder;
    int failing = 0;
    for (const Step &step : schedule) {
        if (failing >= kLadderStopAfter)
            break;
        StepRun r =
            runStep(router, pool, exp, step, w, step.nominal ? spans : nullptr);
        cal.measure(kCalibrationSeconds);
        tally.merge(r.tally);
        std::fprintf(stderr,
                     "servebench: step %6.0f req/s%s n=%zu p50=%.0fus "
                     "p99=%.0fus late_p99=%.0fus backlog_end=%.0f%s\n",
                     r.rate, step.measured ? "" : " (warm-up)",
                     r.lat_us.size(), r.p50(), r.p99(),
                     percentile(r.late_us, 99),
                     r.backlog.empty() ? 0.0 : r.backlog.back(),
                     r.growing ? " growing" : "");
        if (!step.measured)
            continue;
        const bool ok = r.withinSlo(w.limit_us);
        if (ok)
            ladder.max_rate_in_slo = std::max(ladder.max_rate_in_slo, r.rate);
        if (step.rate > nominalRate())
            failing = ok ? 0 : failing + 1;
        if (step.nominal)
            ladder.nominal = std::move(r);
    }
    return ladder;
}

void
reportOpen(const StepRun &nominal, Report &rep)
{
    // The offered rate, not the machine, sets this throughput.
    rep.add("mbases_per_s", nominal.ok_bases / nominal.wall_s / 1e6,
            "Mbases/s");
    rep.add("latency_p50_us", nominal.p50(), "us");
    rep.add("slo_attainment",
            ratio(static_cast<double>(nominal.ok_in_limit),
                  static_cast<double>(nominal.lat_us.size())),
            "ratio");
}

// ---------------------------------------------------------------------
// Traced run: the same requests, one layer at a time
// ---------------------------------------------------------------------

/** Exact work counters over the replay set (repeat for a seed). */
struct Counters
{
    u64 queries = 0;
    u64 bases = 0;
    SearchStats stats;
    u64 hits = 0;
    u64 hits_max = 0;
    u64 request_frame_bytes = 0;
    u64 response_frame_bytes = 0;
    u64 shard_calls = 0;
    std::vector<u64> shard_queries;
    /** FNV-1a over every query's SearchStats and hit count. */
    u64 per_query_digest = 0xcbf29ce484222325ULL;

    void
    mix(u64 v)
    {
        for (int b = 0; b < 8; ++b) {
            per_query_digest ^= (v >> (8 * b)) & 0xff;
            per_query_digest *= 0x100000001b3ULL;
        }
    }

    bool
    write(const std::string &path, const std::string &workload,
          u64 seed) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        const auto u = [](u64 v) {
            return static_cast<unsigned long long>(v);
        };
        std::fprintf(
            f,
            "{\"workload\": \"%s\", \"seed\": %llu, \"queries\": %llu, "
            "\"bases\": %llu, \"kstep_iterations\": %llu, "
            "\"onestep_iterations\": %llu, \"model_lookups\": %llu, "
            "\"total_error\": %llu, \"total_probes\": %llu, "
            "\"hits\": %llu, \"hits_max\": %llu, "
            "\"request_frame_bytes\": %llu, "
            "\"response_frame_bytes\": %llu, \"shard_calls\": %llu, "
            "\"shard_queries\": [",
            workload.c_str(), u(seed), u(queries), u(bases),
            u(stats.kstep_iterations), u(stats.onestep_iterations),
            u(stats.model_lookups), u(stats.total_error),
            u(stats.total_probes), u(hits), u(hits_max),
            u(request_frame_bytes), u(response_frame_bytes),
            u(shard_calls));
        for (size_t s = 0; s < shard_queries.size(); ++s)
            std::fprintf(f, "%s%llu", s ? ", " : "", u(shard_queries[s]));
        std::fprintf(f, "], \"per_query_digest\": \"%016llx\"}\n",
                     u(per_query_digest));
        const bool ok = std::ferror(f) == 0;
        return std::fclose(f) == 0 && ok;
    }
};

/** Per replayed request: each shard's query ids (router-side order). */
using Routing = std::vector<std::vector<u32>>;

struct Traced
{
    Counters counters;
    std::vector<Routing> routing;
    double routed_queries = 0.0;
    exma::FailoverStats failover;
    double degraded = 0.0;
    std::vector<double> mbases_untraced, mbases_traced;
    std::vector<double> inbox;
    std::optional<Ladder> open; ///< stream: nominal step traced
};

void
rungClassify(const ShardRouter &router, const Pool &pool, u64 replay,
             SpanLog &spans, Traced &t)
{
    const ShardPlan &plan = router.plan();
    t.counters.shard_queries.assign(router.shardCount(), 0);
    for (u64 r = 0; r < replay; ++r) {
        const Request &req = pool.requests[r];
        Routing ids(router.shardCount());
        const u32 sp = spans.open("shard.classify", r);
        for (size_t i = 0; i < req.size(); ++i) {
            const exma::PrefixRange pr =
                plan.queryPrefixRange(req[i].data(), req[i].size());
            const auto [first, last] = plan.ownersOfRange(pr.lo, pr.hi);
            for (size_t s = first; s <= last; ++s)
                ids[s].push_back(static_cast<u32>(i));
        }
        spans.close(sp);
        for (size_t s = 0; s < ids.size(); ++s) {
            t.counters.shard_queries[s] += ids[s].size();
            t.counters.shard_calls += ids[s].empty() ? 0 : 1;
        }
        t.routing.push_back(std::move(ids));
    }
}

const exma::ExmaTable &
shardTable(const ShardRouter &router, size_t s)
{
    const exma::ExmaTable *table = router.shardTable(s);
    if (table == nullptr)
        throw std::runtime_error("shard " + std::to_string(s) +
                                 " has no table");
    return *table;
}

void
rungCore(const ShardRouter &router, const Pool &pool, const Expected &exp,
         SpanLog &spans, Traced &t, Tally &tally)
{
    Counters &c = t.counters;
    std::vector<exma::Interval> ivs;
    for (u64 r = 0; r < t.routing.size(); ++r) {
        const Request &req = pool.requests[r];
        const u32 root = spans.open("core.request", r);
        for (size_t s = 0; s < t.routing[r].size(); ++s) {
            const std::vector<u32> &ids = t.routing[r][s];
            if (ids.empty())
                continue;
            const exma::ExmaTable &table = shardTable(router, s);
            std::vector<SearchStats> stats(ids.size());
            ivs.assign(ids.size(), exma::Interval{});
            const u32 count = spans.open("core.count", r, root);
            for (size_t j = 0; j < ids.size(); ++j)
                ivs[j] = table.search(req[ids[j]], &stats[j]);
            spans.close(count);

            std::vector<Hits> hits(ids.size());
            const u32 locate = spans.open("core.locate", r, root);
            for (size_t j = 0; j < ids.size(); ++j)
                hits[j] = table.locateAllGlobal(ivs[j], req[ids[j]].size());
            spans.close(locate);

            for (size_t j = 0; j < ids.size(); ++j) {
                const SearchStats &st = stats[j];
                c.stats += st;
                c.queries += 1;
                c.bases += req[ids[j]].size();
                c.hits += hits[j].size();
                c.hits_max = std::max<u64>(c.hits_max, hits[j].size());
                for (const u64 v :
                     {st.kstep_iterations, st.onestep_iterations,
                      st.model_lookups, st.total_error, st.total_probes,
                      static_cast<u64>(hits[j].size())})
                    c.mix(v);
                tally.attempted += 1;
                if (hits[j] != exp.hits[r][ids[j]])
                    tally.fail(1, "core hits differ from the oracle");
            }
        }
        spans.close(root);
    }
}

void
rungBatch(const ShardRouter &router, const Pool &pool, const Expected &exp,
          SpanLog &spans, const Traced &t, Tally &tally)
{
    for (u64 r = 0; r < t.routing.size(); ++r) {
        for (size_t s = 0; s < t.routing[r].size(); ++s) {
            const std::vector<u32> &ids = t.routing[r][s];
            if (ids.empty())
                continue;
            const exma::BatchSearcher searcher(shardTable(router, s),
                                               searchConfig());
            const u32 sp = spans.open("batch.search", r);
            const exma::BatchResult br = searcher.search(pool.requests[r], ids);
            spans.close(sp);
            tally.attempted += ids.size();
            for (size_t j = 0; j < ids.size(); ++j)
                if (br.positions[j] != exp.hits[r][ids[j]])
                    tally.fail(1, "batch hits differ from the oracle");
        }
    }
}

/**
 * Fan each request out to its shards' replicas the way the router
 * does (submit to every shard, then wait for all), stamping each
 * call's round trip when its future is seen ready. The poll yields,
 * so it does not take a core from the workers it waits for. Returns each
 * (request, shard) call's worker response for the wire rung.
 */
std::vector<std::vector<WorkerResponse>>
rungTransport(const ShardRouter &router, const Pool &pool,
              const Expected &exp, SpanLog &spans, const Traced &t,
              Tally &tally)
{
    struct Call
    {
        size_t shard = 0;
        Clock::time_point submitted;
        std::future<WorkerResponse> fut;
    };
    std::vector<std::vector<WorkerResponse>> out(t.routing.size());
    for (u64 r = 0; r < t.routing.size(); ++r) {
        out[r].resize(router.shardCount());
        const u32 root = spans.open("transport.request", r);
        std::vector<Call> calls;
        for (size_t s = 0; s < t.routing[r].size(); ++s) {
            const std::vector<u32> &ids = t.routing[r][s];
            if (ids.empty())
                continue;
            Call c;
            c.shard = s;
            c.submitted = Clock::now();
            c.fut = router.replicaSet(s).pick()->submit(
                {exma::QueryBatchView::borrow(pool.requests[r], ids),
                 searchConfig()});
            calls.push_back(std::move(c));
        }
        for (size_t open = calls.size(); open > 0;
             std::this_thread::yield()) {
            for (Call &c : calls) {
                if (!c.fut.valid() ||
                    c.fut.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready)
                    continue;
                const auto ready = Clock::now();
                WorkerResponse resp = c.fut.get();
                --open;
                const u32 rt = spans.add("transport.roundtrip", r, root,
                                         c.submitted, ready);
                spans.add("transport.worker", r, rt,
                          ready - std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          resp.seconds)),
                          ready);
                const std::vector<u32> &ids = t.routing[r][c.shard];
                tally.attempted += ids.size();
                if (!resp.ok() ||
                    exma::responseCanary(resp) != resp.canary ||
                    resp.ids != ids) {
                    tally.fail(ids.size(), "worker response rejected");
                } else {
                    for (size_t j = 0; j < ids.size(); ++j)
                        if (resp.hits[j] != exp.hits[r][ids[j]])
                            tally.fail(1,
                                       "worker hits differ from the oracle");
                }
                out[r][c.shard] = std::move(resp);
            }
        }
        spans.close(root);
    }
    return out;
}

void
rungWire(const Pool &pool,
         const std::vector<std::vector<WorkerResponse>> &responses,
         SpanLog &spans, Traced &t, Tally &tally)
{
    constexpr u64 kHeader = sizeof(exma::FrameHeader);
    for (u64 r = 0; r < t.routing.size(); ++r) {
        for (size_t s = 0; s < t.routing[r].size(); ++s) {
            const std::vector<u32> &ids = t.routing[r][s];
            if (ids.empty())
                continue;
            const exma::WorkerRequest req{
                exma::QueryBatchView::borrow(pool.requests[r], ids),
                searchConfig()};
            u32 sp = spans.open("wire.encode_request", r);
            const std::vector<u8> req_body = exma::encodeRequest(req);
            spans.close(sp);
            sp = spans.open("wire.decode_request", r);
            const exma::WorkerRequest req_back =
                exma::decodeRequest(req_body, -1);
            spans.close(sp);

            const WorkerResponse &resp = responses[r][s];
            sp = spans.open("wire.encode_response", r);
            const std::vector<u8> resp_body = exma::encodeResponse(resp);
            spans.close(sp);
            sp = spans.open("wire.decode_response", r);
            const WorkerResponse resp_back =
                exma::decodeResponse(resp_body, -1);
            spans.close(sp);

            t.counters.request_frame_bytes += kHeader + req_body.size();
            t.counters.response_frame_bytes += kHeader + resp_body.size();
            tally.attempted += ids.size();
            if (req_back.batch.size() != ids.size() ||
                resp_back.hits != resp.hits)
                tally.fail(ids.size(), "wire round trip changed the data");
        }
    }
}

void
rungRoute(const ShardRouter &router, const Pool &pool, const Expected &exp,
          SpanLog &spans, Traced &t, Tally &tally)
{
    const BatchConfig bc = searchConfig();
    for (int pass = 0; pass < 2 * kRoutePassPairs; ++pass) {
        const bool traced = pass % 2 == 1;
        double bases = 0.0, secs = 0.0;
        for (u64 r = 0; r < t.routing.size(); ++r) {
            u64 depth = 0;
            for (size_t s = 0; s < router.shardCount(); ++s)
                for (unsigned k = 0; k < router.replicaSet(s).size(); ++k)
                    depth += router.replicaSet(s).replica(k)->inboxDepth();
            t.inbox.push_back(static_cast<double>(depth));

            const auto t0 = Clock::now();
            const u32 sp = traced ? spans.open("route.search", r) : 0;
            const RoutedResult res = router.search(pool.requests[r], bc);
            if (traced)
                spans.close(sp);
            secs += seconds(Clock::now() - t0);
            bases += static_cast<double>(res.bases);
            checkRouted(res, exp.hits[r], tally);
            t.failover += res.failover;
            t.degraded += static_cast<double>(res.degraded_queries);
            if (pass == 0)
                t.routed_queries += static_cast<double>(res.routed_queries);
        }
        (traced ? t.mbases_traced : t.mbases_untraced)
            .push_back(bases / secs / 1e6);
    }
}

void
runTraced(const ShardRouter &router, const Pool &pool, const Expected &exp,
          const WorkloadSpec &w, u64 seed, double budget_s, SpanLog &spans,
          Calibration &cal, Traced &t, Tally &tally)
{
    const u64 replay = std::min<u64>(w.replay_requests, pool.requests.size());
    rungClassify(router, pool, replay, spans, t);
    rungCore(router, pool, exp, spans, t, tally);
    rungBatch(router, pool, exp, spans, t, tally);
    const auto responses = rungTransport(router, pool, exp, spans, t, tally);
    rungWire(pool, responses, spans, t, tally);
    rungRoute(router, pool, exp, spans, t, tally);
    if (w.loop == Loop::Open)
        t.open = runLadder(
            router, pool, exp,
            makeSchedule(seed, pool.requests.size(), budget_s), w, &spans,
            cal, tally);
}

void
reportTraced(const Traced &t, const SpanLog &spans, const Deployment &d,
             double save_s, double load_s, Report &rep)
{
    const std::vector<Span> all = spans.spans();
    const std::vector<double> self = spans.selfMicros();
    const auto dur = [&](const char *name) {
        return spanMicros(all, self, name, false);
    };
    const auto selfOf = [&](const char *name) {
        return spanMicros(all, self, name, true);
    };
    const Counters &c = t.counters;
    const double q = static_cast<double>(c.queries);
    const double count_us = sum(dur("core.count"));
    const double locate_us = sum(dur("core.locate"));
    const double batch_us = sum(dur("batch.search"));

    rep.add("core.count_ns_per_query", count_us * 1e3 / q, "ns");
    rep.add("core.kstep_iters_per_query",
            static_cast<double>(c.stats.kstep_iterations) / q, "count");
    rep.add("core.onestep_iters_per_query",
            static_cast<double>(c.stats.onestep_iterations) / q, "count");
    rep.add("learned.model_lookups_per_query",
            static_cast<double>(c.stats.model_lookups) / q, "count");
    rep.add("learned.mean_error", c.stats.meanError(), "count");
    rep.add("learned.probes_per_lookup",
            ratio(static_cast<double>(c.stats.total_probes),
                  static_cast<double>(c.stats.model_lookups)),
            "count");
    rep.add("core.locate_ns_per_hit",
            ratio(locate_us * 1e3, static_cast<double>(c.hits)), "ns");
    rep.add("core.locate_share", ratio(locate_us, count_us + locate_us),
            "ratio");
    rep.add("core.hits_per_query", static_cast<double>(c.hits) / q,
            "count");
    rep.add("core.hits_per_query_max", static_cast<double>(c.hits_max),
            "count");
    rep.add("batch.ns_per_query", batch_us * 1e3 / q, "ns");
    rep.add("batch.overhead_share",
            ratio(batch_us - count_us - locate_us, batch_us), "ratio");

    const std::vector<double> roundtrip = dur("transport.roundtrip");
    rep.add("transport.roundtrip_us_p50", percentile(roundtrip, 50), "us");
    rep.add("transport.roundtrip_us_p99", percentile(roundtrip, 99), "us");
    rep.add("transport.worker_us_p50",
            percentile(dur("transport.worker"), 50), "us");
    rep.add("transport.overhead_us_p50",
            percentile(selfOf("transport.roundtrip"), 50), "us");
    rep.add("transport.encode_ns_per_query",
            (sum(dur("wire.encode_request")) +
             sum(dur("wire.encode_response"))) *
                1e3 / q,
            "ns");
    rep.add("transport.decode_ns_per_query",
            (sum(dur("wire.decode_request")) +
             sum(dur("wire.decode_response"))) *
                1e3 / q,
            "ns");
    rep.add("transport.request_bytes_per_query",
            static_cast<double>(c.request_frame_bytes) / q, "B");
    rep.add("transport.response_bytes_per_query",
            static_cast<double>(c.response_frame_bytes) / q, "B");
    rep.add("transport.inbox_depth_mean",
            mean(t.open ? t.open->nominal.inbox : t.inbox), "count");

    // Route self time per request: its search span minus the slowest
    // shard round trip and the classify pass of the same request.
    const size_t n_req = t.routing.size();
    std::vector<std::vector<double>> search_by_req(n_req);
    std::vector<double> slowest(n_req, 0.0), classify(n_req, 0.0);
    for (const Span &s : all) {
        if (s.request >= n_req)
            continue;
        if (std::strcmp(s.name, "route.search") == 0)
            search_by_req[s.request].push_back(s.micros());
        else if (std::strcmp(s.name, "transport.roundtrip") == 0)
            slowest[s.request] = std::max(slowest[s.request], s.micros());
        else if (std::strcmp(s.name, "shard.classify") == 0)
            classify[s.request] = s.micros();
    }
    std::vector<double> route_self;
    for (size_t r = 0; r < n_req; ++r)
        route_self.push_back(median(search_by_req[r]) - slowest[r] -
                             classify[r]);
    std::vector<double> route_search;
    for (size_t id = 0; id < all.size(); ++id)
        if (all[id].request < n_req &&
            std::strcmp(all[id].name, "route.search") == 0)
            route_search.push_back(all[id].micros());
    rep.add("route.search_us_p50", percentile(route_search, 50), "us");
    rep.add("route.search_us_p99", percentile(route_search, 99), "us");
    rep.add("route.self_us_per_request", mean(route_self), "us");
    rep.add("route.shard_calls_per_request",
            static_cast<double>(c.shard_calls) /
                static_cast<double>(n_req),
            "count");
    rep.add("route.routed_share", t.routed_queries / q, "ratio");
    rep.add("shard.classify_ns_per_query",
            sum(dur("shard.classify")) * 1e3 / q, "ns");
    double most = 0.0;
    for (const u64 n : c.shard_queries)
        most = std::max(most, static_cast<double>(n));
    rep.add("shard.load_imbalance",
            most / (q / static_cast<double>(c.shard_queries.size())),
            "ratio");

    rep.add("route.degraded_queries", t.degraded, "count");
    rep.add("route.retries", static_cast<double>(t.failover.retries),
            "count");
    rep.add("route.hedges", static_cast<double>(t.failover.hedges),
            "count");
    rep.add("route.respawns", static_cast<double>(t.failover.respawns),
            "count");

    const double setup = median(d.setup_s);
    const double build = median(d.build_s);
    rep.add("core.build_s", build, "s");
    rep.add("persist.save_s", save_s, "s");
    rep.add("persist.load_s", load_s, "s");
    rep.add("transport.spawn_s", setup - build - save_s, "s");

    const StepRun *o = t.open ? &t.open->nominal : nullptr;
    rep.add("driver.late_us_p99", o ? percentile(o->late_us, 99) : 0.0,
            "us");
    rep.add("driver.queue_wait_us_p99",
            o ? percentile(o->wait_us, 99) : 0.0, "us");
    rep.add("driver.backlog_end",
            o && !o->backlog.empty() ? o->backlog.back() : 0.0, "count");
    rep.add("driver.latency_samples",
            o ? static_cast<double>(o->lat_us.size()) : 0.0, "count");
    rep.add("driver.latency_p99_us", o ? o->p99() : 0.0, "us");
    rep.add("driver.max_rate_in_slo", t.open ? t.open->max_rate_in_slo : 0.0,
            "req/s");
    rep.add("trace.overhead_share",
            1.0 - median(t.mbases_traced) / median(t.mbases_untraced),
            "ratio");
}

// ---------------------------------------------------------------------
// Entry
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    u64 seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string work_dir;
    std::string out_dir = ".";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            a.trace = val == "1" ? 1 : val == "0" ? 0 : -1;
        else if (key == "--work-dir")
            a.work_dir = val;
        else if (key == "--out-dir")
            a.out_dir = val;
        else
            return false;
    }
    return argc % 2 == 1 && findWorkload(a.workload) != nullptr &&
           a.seconds > 0.0 && a.trace >= 0 && !a.work_dir.empty();
}

int
run(const Args &a)
{
    namespace fs = std::filesystem;
    const WorkloadSpec &w = *findWorkload(a.workload);
    if (!fs::is_directory(a.work_dir) || !fs::is_empty(a.work_dir)) {
        std::fprintf(stderr,
                     "servebench: --work-dir %s must be an existing empty "
                     "directory (each run builds a fresh index)\n",
                     a.work_dir.c_str());
        return 2;
    }
    // Socket workers' shard files land in the run's own directory.
    ::setenv("TMPDIR", a.work_dir.c_str(), 1);

    const exma::Dataset ds = exma::makeDataset("human", 1.0);
    const Pool pool = makePool(ds.ref, w, a.seed);

    Tally tally;
    Calibration cal;
    Deployment d = deploy(ds.ref, ds.exma_k, cal, tally);
    const double index_bytes = indexBytes(a.work_dir);

    // The oracle's monolith is built outside every timed region.
    const Expected exp = buildExpected(ds.ref, ds.exma_k, pool, a.seed);
    if (!exp.error.empty())
        tally.fail(1, exp.error);
    std::fprintf(stderr,
                 "servebench: oracle compared %llu hits with the text and "
                 "re-derived %llu queries by a full scan\n",
                 static_cast<unsigned long long>(exp.checked_hits),
                 static_cast<unsigned long long>(exp.brute_queries));

    Report rep;
    if (a.trace == 0) {
        ClosedRun closed;
        Ladder ladder;
        if (w.loop == Loop::Closed)
            closed = runClosed(*d.router, pool, exp, w, a.seconds, cal, tally);
        else
            ladder = runLadder(
                *d.router, pool, exp,
                makeSchedule(a.seed, pool.requests.size(), a.seconds), w,
                nullptr, cal, tally);
        // How much slower this machine ran than the reference over the
        // whole run. Closed-loop times track it and are scaled to the
        // reference; set-up (threads, files, process spawn) and the
        // open loop's wake-up-bound latency do not, and stay raw.
        const double slowdown = kReferenceLoadsPerUs / cal.median();
        std::fprintf(stderr, "servebench: calibration %.3f loads/us\n",
                     cal.median());
        rep.add("setup_s", median(d.setup_s), "s");
        if (w.loop == Loop::Closed)
            reportClosed(closed, slowdown, rep);
        else
            reportOpen(ladder.nominal, rep);
        rep.add("success_rate",
                1.0 - ratio(static_cast<double>(tally.failed),
                            static_cast<double>(tally.attempted)),
                "ratio");
        rep.add("index_bytes", index_bytes, "B");
    } else {
        const std::string index_dir = a.work_dir + "/index";
        auto t0 = Clock::now();
        exma::saveIndex(*d.router, index_dir);
        const double save_s = seconds(Clock::now() - t0);
        t0 = Clock::now();
        {
            const exma::LoadedIndex loaded = exma::loadIndex(index_dir);
        }
        const double load_s = seconds(Clock::now() - t0);
        fs::remove_all(index_dir);

        SpanLog spans;
        Traced t;
        runTraced(*d.router, pool, exp, w, a.seed, a.seconds, spans, cal, t,
                  tally);
        reportTraced(t, spans, d, save_s, load_s, rep);
        rep.add("driver.calibration_loads_per_us", cal.median(), "1/us");

        fs::create_directories(a.out_dir);
        const std::string stem = a.out_dir + "/";
        if (!spans.write(stem + "spans-" + w.name + ".jsonl") ||
            !t.counters.write(stem + "counters-" + w.name + "-" +
                                  std::to_string(a.seed) + ".json",
                              w.name, a.seed))
            tally.fail(1, "could not write the trace files");
    }
    if (!tally.error.empty())
        std::fprintf(stderr, "servebench: %s\n", tally.error.c_str());
    rep.print(tally);
    return 0;
}

} // namespace
} // namespace servebench

int
main(int argc, char **argv)
{
    servebench::Args a;
    if (!servebench::parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s --workload reads_bulk|seeds_locate|"
                     "stream_small --seed N --seconds S --trace 0|1 "
                     "--work-dir EMPTY_DIR [--out-dir DIR]\n",
                     argv[0]);
        return 2;
    }
    if (const char *faults = std::getenv("EXMA_FAULTS");
        faults != nullptr) {
        std::fprintf(stderr,
                     "servebench: refusing to run with EXMA_FAULTS='%s' "
                     "set; the benchmark measures the fault-free stack\n",
                     faults);
        return 2;
    }
    // The transport is set explicitly; no environment override applies.
    ::unsetenv("EXMA_TRANSPORT");
    ::unsetenv("EXMA_WORKER_BIN");
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    try {
        return servebench::run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}
