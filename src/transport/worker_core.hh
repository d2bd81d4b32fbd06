/**
 * @file
 * The shard-serving compute, factored out of the transport layer so
 * the in-process ShardWorker and the out-of-process exma-worker
 * binary run the *same* code on a request — which is what makes the
 * socket path differentially testable against the inbox path.
 *
 * The state served is a ShardState (io/table_io.hh): one ExmaTable
 * over one reference slice. Hits are positions in that slice.
 */

#ifndef EXMA_TRANSPORT_WORKER_CORE_HH
#define EXMA_TRANSPORT_WORKER_CORE_HH

#include <functional>

#include "io/table_io.hh"
#include "transport/transport.hh"

namespace exma {

/**
 * Serve @p req against @p st: search and locate every query in the
 * batch and return a response ready to send: slice-local hit
 * positions index-aligned with the request ids, canary stamped. A compute
 * exception comes back as a Failed response carrying its message and
 * the ids. @p progress ticks per processed chunk — both sides turn it
 * into heartbeats so a supervisor can tell a slow batch from a hung
 * worker.
 */
WorkerResponse serveShardRequest(const ShardState &st,
                                 const WorkerRequest &req,
                                 const std::function<void()> &progress);

} // namespace exma

#endif // EXMA_TRANSPORT_WORKER_CORE_HH
