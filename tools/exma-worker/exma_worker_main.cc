/**
 * @file
 * The out-of-process shard worker: mmap-loads one persisted table
 * and serves wire.hh frames on an inherited socket fd until the
 * router closes the stream. One process per replica — the paper's
 * per-channel parallelism with real OS-level isolation: a crash here
 * is a closed socket and a WorkerDown at the router, never a
 * corrupted router address space.
 *
 * Spawned by SocketTransport as
 *
 *   exma-worker --fd 3 --name <shard>/r<i> --stem <dir>/shardNNNN
 *
 * The table is loaded by loadTableFiles (io/table_io.hh), the same
 * load a persisted routed index uses; every worker of every shard
 * serving the same slice maps the same files, so the page cache holds
 * one copy. Once loaded, the worker sends one heartbeat frame (seq 0)
 * as its ready signal before it reads a request. Request compute is
 * transport/worker_core.cc — the same code the in-process ShardWorker
 * runs, which is what makes socket serving
 * differentially testable against the inbox path; it answers compute
 * exceptions as Failed responses itself. Channel breakage ends the
 * process (the router translates the EOF into WorkerDown and
 * respawns).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "io/table_io.hh"
#include "transport/wire.hh"
#include "transport/worker_core.hh"

namespace {

using namespace exma;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --fd N --name NAME --stem STEM\n",
                 argv0);
    return 2;
}

/**
 * Serve requests off @p fd until the peer closes the stream.
 * Heartbeat frames ride between request and response (throttled — the
 * router only needs to see *movement*, not every chunk) so the
 * supervisor can tell a slow batch from a hung process.
 */
int
serveLoop(int fd, const ShardState &st)
{
    WireFrame frame;
    while (readFrame(fd, frame)) {
        if (frame.header.type != kFrameRequest) {
            std::fprintf(stderr,
                         "exma-worker: unexpected frame type %u\n",
                         unsigned{frame.header.type});
            return 1;
        }
        WorkerResponse resp;
        try {
            const WorkerRequest req = decodeRequest(frame.body, fd);
            u64 ticks = 0;
            resp = serveShardRequest(st, req, [&] {
                if (++ticks % 64 == 0)
                    writeFrame(fd, kFrameHeartbeat, frame.header.seq, {});
            });
        } catch (const TransportError &e) {
            // The frame decoded as no valid request. Answer Failed so
            // the router retries elsewhere; if the channel itself is
            // sick the write below ends the process.
            resp.status = WorkerStatus::Failed;
            resp.error = e.what();
        }
        const std::vector<u8> body = encodeResponse(resp);
        writeFrame(fd, kFrameResponse, frame.header.seq, body);
    }
    return 0; // clean EOF: the router closed the channel
}

} // namespace

int
main(int argc, char **argv)
{
    int fd = 3;
    std::string name = "exma-worker";
    std::string stem;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        if (arg == "--fd")
            fd = std::atoi(argv[++i]);
        else if (arg == "--name")
            name = argv[++i];
        else if (arg == "--stem")
            stem = argv[++i];
        else
            return usage(argv[0]);
    }
    if (stem.empty())
        return usage(argv[0]);

    ignoreSigpipe();

    try {
        // Alive for the whole serving loop: the table's hot arrays
        // live inside its mmaps.
        const ShardState st = loadTableFiles(stem);
        writeFrame(fd, kFrameHeartbeat, 0, {}); // ready
        return serveLoop(fd, st);
    } catch (const TransportError &e) {
        // Channel breakage mid-stream: the router already sees the
        // closed socket; the message is for human post-mortems.
        std::fprintf(stderr, "exma-worker[%s]: %s\n", name.c_str(),
                     e.what());
        return 1;
    } catch (const std::exception &e) {
        // Load failure: exit before serving a single frame — the
        // router reads EOF and treats the replica as down.
        std::fprintf(stderr, "exma-worker[%s]: %s\n", name.c_str(),
                     e.what());
        return 1;
    }
}
