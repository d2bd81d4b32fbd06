/**
 * @file
 * One shard's in-process execution engine behind the Transport seam:
 * a ShardWorker owns a dedicated thread whose work queue is the
 * worker's inbox. Callers submit a WorkerRequest (a QueryBatchView
 * over a shared query batch) and get a completion future; the worker
 * thread drains its inbox in order and fulfils each future with
 * translated global hit positions (serveShardRequest — the same
 * compute the out-of-process exma-worker binary runs).
 *
 * The shape is deliberately that of an RPC endpoint — request in,
 * response out, no shared mutable state beyond the inbox — and since
 * this PR it *is* one implementation of the Transport interface, with
 * SocketTransport as the out-of-process sibling (the EXMA paper's
 * channels are physically separate DIMMs; FindeR's banks are
 * independent rank engines). Failures are *data, not exceptions*:
 * every submitted future resolves with a typed WorkerResponse whose
 * status says Ok, Failed (compute threw; the message rides along), or
 * WorkerDown (the worker died or was destroyed before serving it). A
 * future obtained from submit() never throws and is never abandoned
 * to std::future_error — exactly the contract the socket transport
 * gives, which is what makes this worker the differential oracle.
 *
 * Fault injection (src/fault/) probes the worker's stable name as its
 * site on every dequeue, so a FaultInjector can kill this worker on
 * its Nth request, hang it, delay it, make compute throw, or corrupt
 * the response payload after the integrity canary is stamped. The
 * heartbeat counter ticks on every dequeue and every processed batch
 * chunk (BatchConfig::progress), letting a WorkerSupervisor tell a
 * slow worker from a hung one.
 *
 * Thread-safety analysis: the inbox deque and stop flag are
 * EXMA_GUARDED_BY the worker mutex; depth/heartbeat/processed/dead
 * are lock-free atomics. Everything else the worker touches (the
 * ShardState pointers) is immutable after construction. Route new
 * mutable state through the mutex or an atomic; the analysis gate is
 * on the clang CI leg.
 */

#ifndef EXMA_TRANSPORT_SHARD_WORKER_HH
#define EXMA_TRANSPORT_SHARD_WORKER_HH

#include <atomic>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "fault/fault_injector.hh"
#include "transport/transport.hh"
#include "transport/worker_core.hh"

namespace exma {

class ShardWorker final : public Transport
{
  public:
    /**
     * @param name      stable worker name; also the fault-injection
     *                  site ("<shard>/r<i>" in a ReplicaSet).
     * @param table     the shard's segment-mapped ExmaTable, or null
     *                  when the shard is too small to index.
     * @param scan_ref  extracted local reference for table-less shards
     *                  (served by direct scanning), or null.
     * @param segments  the shard's segment map; may be empty/null only
     *                  with both @p table and @p scan_ref null — an
     *                  empty shard, which answers every query with no
     *                  hits.
     */
    ShardWorker(std::string name, const ExmaTable *table,
                const std::vector<Base> *scan_ref,
                const std::vector<TextSegment> *segments);

    /**
     * Stops the worker thread. Pending inbox entries resolve with
     * WorkerDown (never a broken promise); an in-flight request is
     * allowed to finish, with injected sleeps cancelled.
     */
    ~ShardWorker() override;

    ShardWorker(const ShardWorker &) = delete;
    ShardWorker &operator=(const ShardWorker &) = delete;

    std::future<WorkerResponse> submit(WorkerRequest req) override;

    /**
     * Simulate worker death: mark dead, cancel any injected sleep, and
     * resolve every queued request with WorkerDown. The supervisor
     * uses this to put down hung workers; tests and the kill-loop soak
     * use it as the crash switch.
     */
    void kill() override;

    bool isDead() const override
    {
        return dead_.load(std::memory_order_acquire);
    }

    u64 inboxDepth() const override
    {
        return inbox_depth_.load(std::memory_order_relaxed);
    }

    u64 heartbeat() const override
    {
        return heartbeat_.load(std::memory_order_relaxed);
    }

    const std::string &name() const override { return name_; }

    bool hasTable() const override { return state_.table != nullptr; }

    bool isEmpty() const override
    {
        return state_.table == nullptr && state_.scan_ref == nullptr;
    }

    u64 processed() const override
    {
        return processed_.load(std::memory_order_relaxed);
    }

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
    WorkerResponse process(const WorkerRequest &req);

    std::string name_;
    ShardState state_;

    std::atomic<u64> processed_{0};
    std::atomic<u64> heartbeat_{0};
    std::atomic<u64> inbox_depth_{0};
    std::atomic<bool> dead_{false};
    CancelToken cancel_;

    Mutex mtx_;
    CondVar cv_;
    std::deque<Pending> inbox_ EXMA_GUARDED_BY(mtx_);
    bool stop_ EXMA_GUARDED_BY(mtx_) = false;
    std::thread thread_; ///< last member: joins before the rest dies
};

} // namespace exma

#endif // EXMA_TRANSPORT_SHARD_WORKER_HH
