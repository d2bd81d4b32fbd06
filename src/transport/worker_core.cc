#include "transport/worker_core.hh"

#include <chrono>
#include <exception>

namespace exma {

WorkerResponse
serveShardRequest(const ShardState &st, const WorkerRequest &req,
                  const std::function<void()> &progress)
{
    const auto t0 = std::chrono::steady_clock::now();
    WorkerResponse out;
    try {
        out.ids = req.batch.ids();
        BatchConfig cfg = req.cfg;
        cfg.threads = 1; // the worker thread IS the execution lane
        cfg.locate = true;
        cfg.per_query_stats = false;
        // Caps are the router's job, applied after the cross-shard
        // merge; a per-shard cap would keep a shard-dependent subset.
        cfg.locate_limit = 0;
        // Chunk-granular liveness: the supervisor reads this to tell
        // "slow batch" from "hung worker".
        cfg.progress = progress;
        BatchResult br = BatchSearcher(*st.table, cfg)
                             .search(req.batch.storage(),
                                     req.batch.storageIds());
        out.hits = std::move(br.positions);
        out.stats = br.stats;
    } catch (const std::exception &e) {
        out = WorkerResponse{};
        out.status = WorkerStatus::Failed;
        out.error = e.what();
        out.ids = req.batch.ids();
        return out;
    }

    out.canary = responseCanary(out);
    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
}

} // namespace exma
