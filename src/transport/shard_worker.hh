/**
 * @file
 * The in-process Transport: a ShardWorker serves one shard in the
 * router's address space. Its call() hook runs serveShardRequest
 * (worker_core.hh — the same compute the out-of-process exma-worker
 * binary runs) on the serving thread and ticks the heartbeat per
 * processed batch chunk (BatchConfig::progress), letting a
 * WorkerSupervisor tell a slow worker from a hung one. There is no
 * channel to cut, so interrupt() is a no-op: a killed or destroyed
 * worker lets an in-flight batch finish (injected sleeps are
 * cancelled) and answers it WorkerDown.
 *
 * The ShardState it borrows (owned by the router) is immutable and
 * must outlive the worker; every worker of every shard serving the
 * same slice borrows the same one. The inbox protocol, liveness
 * counters and fault injection live in Transport.
 */

#ifndef EXMA_TRANSPORT_SHARD_WORKER_HH
#define EXMA_TRANSPORT_SHARD_WORKER_HH

#include <string>

#include "transport/transport.hh"
#include "transport/worker_core.hh"

namespace exma {

class ShardWorker final : public Transport
{
  public:
    /**
     * @param name   stable worker name; also the fault-injection site
     *               ("<shard>/r<i>" in a ReplicaSet).
     * @param state  the table served (borrowed; shared with every
     *               other worker serving the same slice).
     */
    ShardWorker(std::string name, const ShardState &state);
    ShardWorker(std::string name, ShardState &&state) = delete;

    ~ShardWorker() override;

  protected:
    WorkerResponse call(const WorkerRequest &req) override;

  private:
    const ShardState &state_;
};

} // namespace exma

#endif // EXMA_TRANSPORT_SHARD_WORKER_HH
