// ShardWorker's failure contract (the RPC seam under stress): futures
// always resolve with typed Responses — WorkerDown on destruction with
// a non-empty inbox (the std::future_error regression this file
// pins), Failed with the message when process() throws — plus kill(),
// inbox-depth accounting, heartbeat liveness, and the submit/kill
// lock protocol under concurrent callers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_injector.hh"
#include "transport/shard_worker.hh"

namespace exma {
namespace {

/** A small table to serve: 64 bases of ACGT. */
const ShardState &
smallShard()
{
    static const ShardState state = [] {
        std::vector<Base> text(64);
        for (size_t i = 0; i < text.size(); ++i)
            text[i] = static_cast<Base>(i % 4);
        ExmaTable::Config cfg;
        cfg.k = 2;
        cfg.mode = OccIndexMode::Exact;
        ShardState st;
        st.table = std::make_unique<ExmaTable>(text, cfg);
        return st;
    }();
    return state;
}

const std::vector<std::vector<Base>> &
batch()
{
    static const std::vector<std::vector<Base>> queries = {
        {0, 1, 2, 3}, {1, 1}, {2}};
    return queries;
}

WorkerRequest
requestFor(const std::vector<std::vector<Base>> &queries)
{
    WorkerRequest req;
    std::vector<u32> ids;
    for (u32 i = 0; i < queries.size(); ++i)
        ids.push_back(i);
    req.batch = QueryBatchView::borrow(queries, std::move(ids));
    return req;
}

/** A future must resolve within the suite's patience, not hang CI. */
WorkerResponse
resolved(std::future<WorkerResponse> &fut)
{
    const auto status = fut.wait_for(std::chrono::seconds(60));
    EXPECT_EQ(status, std::future_status::ready)
        << "worker future never resolved";
    return fut.get();
}

TEST(WorkerRobustness, DestructionWithPendingInboxYieldsWorkerDown)
{
    // The first request sleeps long via an injected delay, so the
    // second and third are still queued when the worker dies. All
    // three must come back as typed WorkerDown — never a broken
    // promise surfacing as std::future_error, never a hang on the
    // injected sleep.
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@w:ms=60000")));
    std::vector<std::future<WorkerResponse>> futs;
    {
        ShardWorker worker("w", smallShard());
        for (int i = 0; i < 3; ++i)
            futs.push_back(worker.submit(requestFor(batch())));
        // Destructor runs with one request mid-sleep and two queued.
    }
    for (auto &fut : futs) {
        const WorkerResponse r = resolved(fut);
        EXPECT_EQ(r.status, WorkerStatus::WorkerDown);
        EXPECT_NE(r.error.find("down"), std::string::npos);
        EXPECT_EQ(r.ids.size(), batch().size());
        EXPECT_TRUE(r.hits.empty()) << "down responses carry no hits";
    }
}

TEST(WorkerRobustness, ProcessThrowSurfacesAsFailedWithMessage)
{
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("throw@w:nth=1")));
    ShardWorker worker("w", smallShard());

    auto failing = worker.submit(requestFor(batch()));
    const WorkerResponse failed = resolved(failing);
    EXPECT_EQ(failed.status, WorkerStatus::Failed);
    EXPECT_NE(failed.error.find("injected fault"), std::string::npos);
    EXPECT_NE(failed.error.find("'w'"), std::string::npos);

    // The worker survives the throw: the next request is served.
    auto fine = worker.submit(requestFor(batch()));
    const WorkerResponse ok = resolved(fine);
    EXPECT_EQ(ok.status, WorkerStatus::Ok);
    EXPECT_EQ(ok.hits.size(), batch().size());
    EXPECT_EQ(responseCanary(ok), ok.canary);
    EXPECT_EQ(worker.processed(), 2u)
        << "Failed requests still count as consumed";
}

TEST(WorkerRobustness, KillFailsQueuedAndRefusesNewSubmissions)
{
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@w:ms=60000")));
    ShardWorker worker("w", smallShard());
    auto in_flight = worker.submit(requestFor(batch()));
    auto queued = worker.submit(requestFor(batch()));

    worker.kill();
    EXPECT_TRUE(worker.isDead());
    EXPECT_EQ(resolved(in_flight).status, WorkerStatus::WorkerDown)
        << "kill must cancel the injected sleep";
    EXPECT_EQ(resolved(queued).status, WorkerStatus::WorkerDown);

    auto refused = worker.submit(requestFor(batch()));
    EXPECT_EQ(resolved(refused).status, WorkerStatus::WorkerDown)
        << "submitting to a dead worker resolves immediately";
    EXPECT_EQ(worker.inboxDepth(), 0u);
    EXPECT_EQ(worker.processed(), 0u);
}

TEST(WorkerRobustness, ServedRequestsAdvanceHeartbeatAndDrainDepth)
{
    ShardWorker worker("w", smallShard());
    EXPECT_EQ(worker.heartbeat(), 0u);
    auto fut = worker.submit(requestFor(batch()));
    const WorkerResponse r = resolved(fut);
    EXPECT_EQ(r.status, WorkerStatus::Ok);
    EXPECT_EQ(worker.inboxDepth(), 0u);
    EXPECT_GE(worker.heartbeat(), 2u)
        << "dequeue and completion both tick";
    EXPECT_EQ(worker.processed(), 1u);
}

TEST(WorkerRobustness, CanaryDetectsCorruptedResponse)
{
    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("corrupt@w:nth=1")));
    ShardWorker worker("w", smallShard());
    auto fut = worker.submit(requestFor(batch()));
    const WorkerResponse r = resolved(fut);
    EXPECT_EQ(r.status, WorkerStatus::Ok)
        << "corruption is silent at the transport layer";
    EXPECT_NE(responseCanary(r), r.canary)
        << "recomputing the canary must expose the corruption";
}

TEST(WorkerRobustness, ConcurrentSubmitAndKillResolveEveryFuture)
{
    // Submitters race a kill(): each submit either sees dead_ under
    // the inbox lock or lands in the inbox before kill() drains it, so
    // every future resolves — Ok or WorkerDown, never a broken
    // promise — and the depth and processed counters balance. Each
    // submitter keeps going after it sees the kill, so the race is
    // real and the late submissions must be refused.
    constexpr int kSubmitters = 4;
    constexpr int kKillAfter = 200;  // total submissions before kill
    constexpr int kAfterKill = 50;   // per submitter, once kill is seen

    struct Submitted
    {
        std::future<WorkerResponse> fut;
        bool after_kill;
    };

    ShardWorker worker("w", smallShard());
    std::atomic<int> submitted{0};
    std::atomic<bool> killed{false};
    std::mutex subs_mtx;
    std::vector<Submitted> subs;

    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&] {
            for (int after = 0; after < kAfterKill;) {
                const bool after_kill =
                    killed.load(std::memory_order_acquire);
                auto fut = worker.submit(requestFor(batch()));
                submitted.fetch_add(1, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(subs_mtx);
                subs.push_back({std::move(fut), after_kill});
                if (after_kill)
                    ++after;
            }
        });
    }
    std::thread killer([&] {
        while (submitted.load(std::memory_order_relaxed) < kKillAfter)
            std::this_thread::yield();
        worker.kill();
        killed.store(true, std::memory_order_release);
    });
    for (std::thread &t : submitters)
        t.join();
    killer.join();

    // One deadline for the lot: a lost future fails the test once,
    // instead of blocking forever in get().
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    u64 ok = 0;
    size_t unresolved = 0;
    for (Submitted &s : subs) {
        if (s.fut.wait_until(deadline) != std::future_status::ready) {
            ++unresolved;
            continue;
        }
        WorkerResponse r;
        ASSERT_NO_THROW(r = s.fut.get()) << "no std::future_error";
        if (s.after_kill)
            EXPECT_EQ(r.status, WorkerStatus::WorkerDown)
                << "a submission after kill() returned is refused";
        else
            EXPECT_TRUE(r.status == WorkerStatus::Ok ||
                        r.status == WorkerStatus::WorkerDown);
        if (r.status == WorkerStatus::Ok)
            ++ok;
    }
    ASSERT_EQ(unresolved, 0u) << "futures never resolved";
    EXPECT_TRUE(worker.isDead());
    EXPECT_EQ(worker.inboxDepth(), 0u);
    EXPECT_EQ(worker.processed(), ok);
}

} // namespace
} // namespace exma
