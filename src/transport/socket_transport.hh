/**
 * @file
 * The out-of-process Transport: each replica is a real child process
 * (tools/exma-worker) spawned over a Unix-domain socketpair and
 * spoken to in wire.hh frames. Its call() hook is a frame round-trip:
 * encode, write, then read frames until the response with the
 * matching sequence number arrives (heartbeat frames tick the
 * liveness counter in between, so the supervisor sees chunk-granular
 * progress across the process boundary). Its interrupt() hook sends
 * the child a real SIGKILL and shuts the socket down so any blocked
 * read unblocks immediately.
 *
 * The child announces that its table is loaded with one heartbeat
 * frame (seq 0) before it reads a request; until the serving thread
 * has read it (awaitReady), the replica is not ready() and requests
 * wait in the inbox.
 *
 * Failure semantics are the seam contract made physical: a broken
 * channel — the child died, a read stalled out and was shut down, a
 * frame failed validation — throws TransportError out of call(),
 * which Transport turns into WorkerDown and a dead replica. The child
 * is reaped (waitpid) exactly once, in the destructor.
 *
 * Fault injection stays parent-side, in Transport, probed at the same
 * per-replica site name as in-process — EXMA_FAULTS/EXMA_FAULT_SEED
 * are stripped from the child's environment — so the injector's
 * per-site nth counters survive respawns and one fault plan drives
 * both transports identically: KillWorker becomes a real SIGKILL
 * (through interrupt()), HangRequest/DelayMs park the parent lane,
 * ThrowInProcess never contacts the child, and CorruptResponse flips
 * the decoded payload after the child stamped its canary.
 */

#ifndef EXMA_TRANSPORT_SOCKET_TRANSPORT_HH
#define EXMA_TRANSPORT_SOCKET_TRANSPORT_HH

#include <sys/types.h>

#include <string>

#include "transport/transport.hh"

namespace exma {

/** How to spawn one exma-worker child. */
struct SocketTransportConfig
{
    std::string binary; ///< resolved exma-worker executable path
    std::string stem;   ///< table file stem the child loads
};

/**
 * Resolve the exma-worker binary: @p hint if non-empty, else
 * $EXMA_WORKER_BIN, else a walk up from /proc/self/exe looking for
 * tools/exma-worker/exma-worker (the build-tree layout), else the
 * bare name for a PATH lookup.
 */
std::string discoverWorkerBinary(const std::string &hint);

class SocketTransport final : public Transport
{
  public:
    /**
     * Spawns the child and the parent-side serving thread. A spawn
     * failure is not fatal: the first request finds a closed channel
     * and resolves WorkerDown, which is exactly what the failover
     * tier expects from a replica that cannot come up.
     *
     * @param name  stable replica name (fault-injection site).
     * @param cfg   child binary + shard files to serve.
     */
    SocketTransport(std::string name, SocketTransportConfig cfg);

    /**
     * Stops the serving thread (SIGKILLing the child and shutting the
     * socket down to unblock any in-flight round-trip), reaps the
     * child, and resolves everything still queued with WorkerDown.
     */
    ~SocketTransport() override;

  protected:
    /** One request over the wire; throws TransportError on breakage. */
    WorkerResponse call(const WorkerRequest &req) override;
    /** SIGKILL the child (if spawned) and shut the socket down. */
    void interrupt() override;
    /** Read the child's ready frame: its table is loaded. */
    void awaitReady() override;

  private:
    void spawnChild();

    SocketTransportConfig cfg_;

    int fd_ = -1;    ///< parent socket end; immutable after ctor
    pid_t pid_ = -1; ///< child pid, or -1 if spawn failed
    u32 seq_ = 0;    ///< request sequence; serving-thread-only
};

} // namespace exma

#endif // EXMA_TRANSPORT_SOCKET_TRANSPORT_HH
