#include "transport/shard_worker.hh"

#include <utility>

namespace exma {

ShardWorker::ShardWorker(std::string name, const ShardState &state)
    : Transport(std::move(name)), state_(state)
{
    start();
}

ShardWorker::~ShardWorker()
{
    stop();
}

WorkerResponse
ShardWorker::call(const WorkerRequest &req)
{
    return serveShardRequest(state_, req, [this] { beat(); });
}

} // namespace exma
