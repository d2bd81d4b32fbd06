// The acceptance suite for replicated fault-tolerant serving: with
// R >= 2, any single injected fault (worker death, hang, throw, slow
// replica, corrupt response) must leave the routed hit set identical
// to a monolithic table — zero lost queries, zero duplicated hits,
// nothing flagged degraded. With every replica of a range down, the
// router must return deadline-bounded partial results with exactly the
// affected queries flagged in RoutedResult::degraded.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "genome/reference.hh"
#include "route/shard_router.hh"

namespace exma {
namespace {

constexpr u64 kMaxQueryLen = 24;

ExmaTable::Config
tableCfg(int k)
{
    ExmaTable::Config cfg;
    cfg.k = k;
    cfg.mtl.epochs = 10;
    cfg.mtl.samples_per_class = 512;
    return cfg;
}

/** Ground truth: one monolithic table's located, sorted hit set. */
std::vector<u64>
singleTableHits(const ExmaTable &table, const std::vector<Base> &query)
{
    auto hits = table.locateAll(table.search(query));
    std::sort(hits.begin(), hits.end());
    return hits;
}

/** Same mixed batch the router differential tests use. */
std::vector<std::vector<Base>>
queryMix(const std::vector<Base> &ref, int prefix_len, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<Base>> qs;
    for (u64 i = 0; i < 60; ++i) {
        u64 len;
        if (i % 4 == 3)
            len = 1 + rng.below(std::max<u64>(
                          1, static_cast<u64>(prefix_len) - 1));
        else
            len = static_cast<u64>(prefix_len) +
                  rng.below(kMaxQueryLen - static_cast<u64>(prefix_len));
        if (i % 5 == 4) {
            std::vector<Base> q(len);
            for (auto &b : q)
                b = static_cast<Base>(rng.below(4));
            qs.push_back(std::move(q));
        } else {
            const u64 pos = rng.below(ref.size() - len + 1);
            qs.emplace_back(ref.begin() + static_cast<std::ptrdiff_t>(pos),
                            ref.begin() +
                                static_cast<std::ptrdiff_t>(pos + len));
        }
    }
    return qs;
}

/** The shared fixture: one dataset, one monolith, one plan. */
struct Fixture
{
    Dataset ds = makeDataset("human", 0.001);
    ExmaTable::Config cfg = tableCfg(ds.exma_k);
    ExmaTable single{ds.ref, cfg};
    ShardPlan plan = ShardPlan::kmerPrefix(ds.ref, 4, kMaxQueryLen);
};

const Fixture &
fixture()
{
    static const Fixture fx;
    return fx;
}

/** Replicated router tuned for fast recovery in tests. */
RouterConfig
replicatedCfg(unsigned replicas = 2)
{
    const Fixture &fx = fixture();
    RouterConfig rcfg;
    rcfg.table = fx.cfg;
    rcfg.failover.replicas = replicas;
    rcfg.failover.max_retries = 3;
    rcfg.failover.retry_backoff_ms = 1;
    rcfg.failover.supervisor_interval_ms = 5;
    rcfg.failover.hang_timeout_ms = 250;
    return rcfg;
}

/** Every query's hits match the monolith and nothing is degraded. */
void
expectIdenticalToMonolith(const RoutedResult &r,
                          const std::vector<std::vector<Base>> &qs)
{
    const Fixture &fx = fixture();
    ASSERT_EQ(r.hits.size(), qs.size());
    EXPECT_EQ(r.degraded_queries, 0u);
    for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(r.degraded[i], 0) << "query " << i;
        EXPECT_EQ(r.hits[i], singleTableHits(fx.single, qs[i]))
            << "query " << i;
        EXPECT_TRUE(std::adjacent_find(r.hits[i].begin(),
                                       r.hits[i].end()) ==
                    r.hits[i].end())
            << "duplicated hits for query " << i;
    }
}

/** The shard serving @p q under the fixture plan: the owner of its
 *  padded prefix range's first code. */
size_t
ownerOf(const std::vector<Base> &q)
{
    const ShardPlan &plan = fixture().plan;
    const PrefixRange r = plan.queryPrefixRange(q.data(), q.size());
    return plan.ownerOf(r.lo);
}

TEST(ReplicatedRouter, WorkerDeathFailsOverWithIdenticalHits)
{
    // Every replica dies on its first served request; retries land on
    // the respawned incarnations (same site names, hit counters carry
    // over, so the rule never re-fires).
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 31);

    {
        ScopedFaultInjector scope(std::make_shared<FaultInjector>(
            FaultInjector::parseSpec("kill@*")));
        const RoutedResult r = router.search(qs);
        expectIdenticalToMonolith(r, qs);
        EXPECT_GT(r.failover.worker_down, 0u);
        EXPECT_GT(r.failover.retries, 0u);
        EXPECT_GT(r.failover.respawns, 0u);
    }
    // The respawned tier serves the next batch without any machinery.
    const RoutedResult again = router.search(qs);
    expectIdenticalToMonolith(again, qs);
    EXPECT_EQ(again.failover.retries, 0u);
}

TEST(ReplicatedRouter, HungReplicaIsKilledBySupervisorAndFailedOver)
{
    // Every replica hangs mid-request on its first serve; the
    // supervisor's heartbeat watchdog must declare it hung, kill it
    // (cancelling the injected sleep), and the router must fail over.
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 32);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("hang@*")));
    const RoutedResult r = router.search(qs);
    expectIdenticalToMonolith(r, qs);
    EXPECT_GT(r.failover.worker_down, 0u);
    EXPECT_GT(r.failover.respawns, 0u);
}

TEST(ReplicatedRouter, ThrowingProcessRetriesWithoutDeadlock)
{
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 33);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("throw@*")));
    const RoutedResult r = router.search(qs);
    expectIdenticalToMonolith(r, qs);
    EXPECT_GT(r.failover.failed, 0u);
    EXPECT_GT(r.failover.retries, 0u);
    EXPECT_EQ(r.failover.respawns, 0u)
        << "a thrown exception must not cost the worker its life";
}

TEST(ReplicatedRouter, SlowReplicaIsHedgedWithIdenticalHits)
{
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg();
    rcfg.failover.hedge_ms = 10;
    // The injected 150 ms delay must read as "slow", never "hung":
    // under TSan the delay plus instrumentation overhead can exceed
    // the default 250 ms hang timeout, and a supervisor kill would
    // turn this hedging test into a failover one.
    rcfg.failover.hang_timeout_ms = 10000;
    const ShardRouter router(fx.ds.ref, fx.plan, rcfg);
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 34);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("delay@*:ms=150")));
    const RoutedResult r = router.search(qs);
    expectIdenticalToMonolith(r, qs);
    EXPECT_GT(r.failover.hedges, 0u);
    EXPECT_EQ(r.failover.worker_down, 0u);
}

TEST(ReplicatedRouter, CorruptResponseIsRejectedByCanaryAndRetried)
{
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 35);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("corrupt@*")));
    const RoutedResult r = router.search(qs);
    expectIdenticalToMonolith(r, qs);
    EXPECT_GT(r.failover.corrupt, 0u);
    EXPECT_GT(r.failover.retries, 0u);
}

TEST(ReplicatedRouter, RangeFullyDownDegradesExactlyItsQueries)
{
    // Both replicas of one shard die on every request, forever; its
    // queries must come back flagged degraded (and hitless) while
    // every other query stays identical to the monolith.
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg();
    rcfg.failover.max_retries = 2;
    rcfg.failover.deadline_ms = 20'000; // generous; retries fail first
    const ShardRouter router(fx.ds.ref, fx.plan, rcfg);
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 36);

    const size_t target = ownerOf(qs[0]);
    FaultRule rule;
    rule.kind = FaultKind::KillWorker;
    rule.site = router.plan().shards()[target].name + "*";
    rule.every = 1; // every hit, so respawned replicas die too
    ScopedFaultInjector scope(
        std::make_shared<FaultInjector>(std::vector<FaultRule>{rule}));

    const RoutedResult r = router.search(qs);
    ASSERT_EQ(r.hits.size(), qs.size());
    EXPECT_GT(r.degraded_queries, 0u);
    EXPECT_LT(r.degraded_queries, qs.size())
        << "only the dead range's queries may degrade";
    u64 flagged = 0;
    for (size_t i = 0; i < qs.size(); ++i) {
        const bool expect_degraded = ownerOf(qs[i]) == target;
        EXPECT_EQ(r.degraded[i] != 0, expect_degraded) << "query " << i;
        flagged += r.degraded[i];
        const auto expect = singleTableHits(fx.single, qs[i]);
        if (expect_degraded) {
            // Its one shard never answered: no hits at all.
            EXPECT_TRUE(r.hits[i].empty())
                << "degraded query " << i << " invented hits";
        } else {
            EXPECT_EQ(r.hits[i], expect) << "query " << i;
        }
    }
    EXPECT_EQ(r.degraded_queries, flagged);
    EXPECT_GT(r.failover.worker_down, 0u);

    // With the injector gone the respawned range recovers fully.
    installFaultInjector(nullptr);
    const RoutedResult healed = router.search(qs);
    expectIdenticalToMonolith(healed, qs);
}

TEST(ReplicatedRouter, DeadlineBoundsAnUnresponsiveRange)
{
    // Both replicas of one shard hang forever and no supervisor runs:
    // the per-request deadline is the only thing standing between the
    // caller and a ten-minute stall. The search must return within the
    // deadline (plus the reap's hang timeout), flag the stuck range's
    // queries, and tally the deadline miss.
    const Fixture &fx = fixture();
    RouterConfig rcfg = replicatedCfg();
    rcfg.failover.supervisor_interval_ms = 0; // no watchdog
    rcfg.failover.deadline_ms = 500;
    rcfg.failover.hang_timeout_ms = 200; // reap kills hung workers
    const ShardRouter router(fx.ds.ref, fx.plan, rcfg);
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 37);

    const size_t target = ownerOf(qs[0]);
    FaultRule rule;
    rule.kind = FaultKind::HangRequest;
    rule.site = router.plan().shards()[target].name + "*";
    rule.every = 1;
    rule.ms = 600'000;
    ScopedFaultInjector scope(
        std::make_shared<FaultInjector>(std::vector<FaultRule>{rule}));

    const auto t0 = std::chrono::steady_clock::now();
    const RoutedResult r = router.search(qs);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(30))
        << "deadline failed to bound an unresponsive range";
    EXPECT_GE(r.failover.deadline_misses, 1u);
    EXPECT_GT(r.degraded_queries, 0u);
    for (size_t i = 0; i < qs.size(); ++i) {
        if (ownerOf(qs[i]) == target)
            EXPECT_EQ(r.degraded[i], 1) << "query " << i;
        else
            EXPECT_EQ(r.hits[i], singleTableHits(fx.single, qs[i]))
                << "query " << i;
    }
}

TEST(ReplicatedRouter, ManualReplicaKillBetweenBatchesIsAbsorbed)
{
    // The soak-bench scenario without an injector: kill a replica from
    // outside while the tier is idle; the next batch must be served
    // cleanly (P2C avoids the corpse, the supervisor respawns it).
    const Fixture &fx = fixture();
    const ShardRouter router(fx.ds.ref, fx.plan, replicatedCfg());
    const auto qs = queryMix(fx.ds.ref, fx.plan.prefixLen(), 38);

    for (unsigned round = 0; round < 3; ++round) {
        router.replicaSet(round % router.shardCount())
            .killReplica(round % 2);
        const RoutedResult r = router.search(qs);
        expectIdenticalToMonolith(r, qs);
    }
}

} // namespace
} // namespace exma
