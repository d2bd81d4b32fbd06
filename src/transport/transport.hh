/**
 * @file
 * The transport-agnostic worker seam. A Transport is one replica's
 * endpoint: submit a WorkerRequest, get a future that always resolves
 * with a typed WorkerResponse — Ok, Failed (the worker's compute
 * threw; the message rides along), or WorkerDown (the worker died or
 * was destroyed before serving it). Failures are data, not
 * exceptions, and a future obtained from submit() is never abandoned
 * to std::future_error.
 *
 * Transport owns the one inbox protocol every replica speaks: a
 * queue drained in submission order by a dedicated serving thread,
 * the liveness counters, the idempotent kill/drain, and fault
 * injection (src/fault/) probed at the replica's stable name on every
 * dequeue — kill, hang, delay, compute throw, and a payload flip
 * after the integrity canary is stamped. Two transports exist and
 * differ only in how one request is served (call) and how an
 * in-flight one is cut short (interrupt): ShardWorker computes in
 * process (the default, and the differential oracle), SocketTransport
 * round-trips frames to a spawned exma-worker child. ReplicaSet,
 * WorkerSupervisor and ShardRouter only ever talk through this class,
 * so the process boundary is a construction-time choice, not a
 * routing-code fork.
 *
 * The liveness surface (inboxDepth / heartbeat / processed / isDead /
 * ready / kill) is part of the seam because the failover tier is built on
 * it: power-of-two-choices reads inboxDepth, the supervisor reads
 * heartbeat, and kill() is the one idempotent crash switch every
 * layer (supervisor, router reap path, tests) may pull.
 *
 * Thread-safety analysis: the inbox deque and stop flag are
 * EXMA_GUARDED_BY the inbox mutex; depth/heartbeat/processed/dead are
 * lock-free atomics. A derived transport's own state must be
 * immutable once start() runs, or be touched by the serving thread
 * only; route anything else through a mutex or an atomic. The
 * analysis gate is on the clang CI leg.
 */

#ifndef EXMA_TRANSPORT_TRANSPORT_HH
#define EXMA_TRANSPORT_TRANSPORT_HH

#include <atomic>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch_searcher.hh"
#include "common/search_stats.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "fault/fault_injector.hh"
#include "transport/query_batch.hh"

namespace exma {

/** One unit of worker work: serve the batch with these knobs. */
struct WorkerRequest
{
    /** The queries to serve plus their router-side ids. */
    QueryBatchView batch;
    /** Per-request search knobs (threads are forced to 1: the
     *  worker's parallelism is the worker, cross-shard). */
    BatchConfig cfg;
};

enum class WorkerStatus : u8 {
    Ok,         ///< hits are valid (canary-checkable)
    Failed,     ///< worker compute threw; error holds the message
    WorkerDown, ///< worker died/destroyed before serving this
};

/** Outcome, index-aligned with the request's batch ids. */
struct WorkerResponse
{
    WorkerStatus status = WorkerStatus::Ok;
    std::string error; ///< diagnostic for Failed / WorkerDown
    std::vector<u32> ids;
    /** Match positions per id in the served table's text, sorted
     *  ascending and duplicate-free (the router adds the slice
     *  offset). */
    std::vector<std::vector<u64>> hits;
    /** Integrity stamp over ids+hits (responseCanary); the router
     *  recomputes it and discards mismatching responses the way it
     *  would a failed checksum on a wire transport. */
    u64 canary = 0;
    SearchStats stats;
    double seconds = 0.0; ///< worker-side wall clock for the batch

    bool ok() const { return status == WorkerStatus::Ok; }
};

/** The integrity stamp WorkerResponse::canary carries (FNV-1a). */
u64 responseCanary(const WorkerResponse &r);

/** One replica endpoint; see file comment for the contract. */
class Transport
{
  public:
    /**
     * Resolves everything still queued with WorkerDown (never a
     * broken promise). The derived destructor must already have
     * called stop().
     */
    virtual ~Transport();

    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    /**
     * Enqueue a request; the future resolves when the replica has
     * served it. Requests are served in submission order. Never
     * blocks; submitting to a dead replica resolves immediately with
     * WorkerDown.
     */
    std::future<WorkerResponse> submit(WorkerRequest req);

    /**
     * Put the replica down: mark dead, interrupt whatever it is
     * doing, and resolve every queued request with WorkerDown.
     * Idempotent — the supervisor and the router's reap path may call
     * it repeatedly on an already-dead replica.
     */
    void kill();

    bool isDead() const { return dead_.load(std::memory_order_acquire); }

    /** Queued + in-flight requests — the power-of-two-choices load
     *  signal. */
    u64 inboxDepth() const
    {
        return inbox_depth_.load(std::memory_order_relaxed);
    }

    /** Liveness counter: ticks on dequeue and per processed chunk. A
     *  replica with inboxDepth() > 0 and a frozen heartbeat is hung. */
    u64 heartbeat() const
    {
        return heartbeat_.load(std::memory_order_relaxed);
    }

    /**
     * Whether the replica has come up: false while a socket replica's
     * child is still loading its table. A supervisor does not count
     * the time before readiness as a stall.
     */
    bool ready() const { return ready_.load(std::memory_order_acquire); }

    /** Requests served to completion (Ok or Failed; monotonic). */
    u64 processed() const
    {
        return processed_.load(std::memory_order_relaxed);
    }

    /** Stable replica name; also the fault-injection site. */
    const std::string &name() const { return name_; }

  protected:
    explicit Transport(std::string name);

    /**
     * Lifetime rule: the serving thread calls the virtual call() and
     * interrupt() hooks, so it may only run while the derived object
     * is whole. Each derived constructor calls start() as its last
     * statement (every hook's state is ready before the first
     * dequeue), and each derived destructor calls stop() as its first
     * (the thread is joined before any derived member dies).
     */
    void start();
    /** Set stop, cancel injected sleeps, interrupt(), join. */
    void stop();

    /**
     * Serve one request; runs on the serving thread. Throwing
     * TransportError means the channel broke: the replica is put
     * down and the request resolves WorkerDown. Any other exception
     * resolves the request Failed with its message.
     */
    virtual WorkerResponse call(const WorkerRequest &req) = 0;

    /** Cut an in-flight call() short; kill() and stop() run it from
     *  any thread. Must be idempotent. */
    virtual void interrupt() {}

    /**
     * Block until the replica can serve; runs on the serving thread
     * before its first dequeue, and interrupt() cuts it short.
     * Throwing TransportError means the replica never came up: it is
     * put down and its queued requests resolve WorkerDown.
     */
    virtual void awaitReady() {}

    /** Tick the liveness counter (per processed chunk, from call()). */
    void beat() { heartbeat_.fetch_add(1, std::memory_order_relaxed); }

  private:
    struct Pending
    {
        WorkerRequest req;
        std::promise<WorkerResponse> promise;
    };

    void run();
    void serve(Pending p);
    /** Resolve @p p with WorkerDown and release its inbox-depth slot. */
    void resolveDown(Pending &p);
    void markDead();

    const std::string name_;

    std::atomic<u64> processed_{0};
    std::atomic<u64> heartbeat_{0};
    std::atomic<u64> inbox_depth_{0};
    std::atomic<bool> dead_{false};
    std::atomic<bool> ready_{false};
    CancelToken cancel_;

    Mutex mtx_;
    CondVar cv_;
    std::deque<Pending> inbox_ EXMA_GUARDED_BY(mtx_);
    bool stop_ EXMA_GUARDED_BY(mtx_) = false;
    std::thread thread_;
};

} // namespace exma

#endif // EXMA_TRANSPORT_TRANSPORT_HH
