#include "transport/transport.hh"

#include <stdexcept>
#include <utility>

#include "common/logging.hh"
#include "transport/wire.hh"

namespace exma {

u64
responseCanary(const WorkerResponse &r)
{
    u64 h = 14695981039346656037ULL; // FNV-1a offset basis
    const auto mix = [&h](u64 v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(r.ids.size());
    for (const u32 id : r.ids)
        mix(id);
    for (const auto &hits : r.hits) {
        mix(hits.size());
        for (const u64 pos : hits)
            mix(pos);
    }
    return h;
}

Transport::Transport(std::string name) : name_(std::move(name)) {}

Transport::~Transport()
{
    exma_assert(!thread_.joinable(),
                "transport '%s' destroyed without stop()", name_.c_str());
    // Anything still queued resolves with a typed WorkerDown response —
    // never a broken promise surfacing as std::future_error.
    std::deque<Pending> doomed;
    {
        MutexLock lock(mtx_);
        doomed.swap(inbox_);
    }
    for (Pending &p : doomed)
        resolveDown(p);
}

void
Transport::start()
{
    thread_ = std::thread([this] { run(); });
}

void
Transport::stop()
{
    {
        MutexLock lock(mtx_);
        stop_ = true;
    }
    cancel_.cancel();
    cv_.notify_all();
    // An in-flight call() is cut short; its request resolves
    // WorkerDown (the router reaps every future before tearing
    // transports down, so nothing user-visible is in flight).
    interrupt();
    if (thread_.joinable())
        thread_.join();
}

std::future<WorkerResponse>
Transport::submit(WorkerRequest req)
{
    Pending p;
    p.req = std::move(req);
    std::future<WorkerResponse> future = p.promise.get_future();
    inbox_depth_.fetch_add(1, std::memory_order_relaxed);

    bool down = false;
    {
        MutexLock lock(mtx_);
        // The dead_ check lives under the inbox lock: kill() stores
        // dead_ before draining under this lock, so either we observe
        // dead_ here, or our entry is in the inbox before the drain
        // sweeps it. No request can slip between the two and dangle.
        if (dead_.load(std::memory_order_acquire) || stop_)
            down = true;
        else
            inbox_.push_back(std::move(p));
    }
    if (down)
        resolveDown(p);
    else
        cv_.notify_one();
    return future;
}

void
Transport::kill()
{
    markDead();
    interrupt();
    std::deque<Pending> doomed;
    {
        MutexLock lock(mtx_);
        doomed.swap(inbox_);
    }
    cv_.notify_all();
    for (Pending &p : doomed)
        resolveDown(p);
}

void
Transport::markDead()
{
    dead_.store(true, std::memory_order_release);
    cancel_.cancel(); // wake any injected hang/delay immediately
}

void
Transport::resolveDown(Pending &p)
{
    WorkerResponse r;
    r.status = WorkerStatus::WorkerDown;
    r.error = "worker '" + name_ + "' down";
    r.ids = p.req.batch.ids();
    // Counters first, delivery last: a caller that observed the future
    // ready must see the post-request counter state.
    inbox_depth_.fetch_sub(1, std::memory_order_relaxed);
    p.promise.set_value(std::move(r));
}

void
Transport::run()
{
    try {
        awaitReady();
    } catch (const TransportError &e) {
        bool stopping = false;
        {
            MutexLock lock(mtx_);
            stopping = stop_;
        }
        if (!stopping)
            exma_warn("worker '%s': %s", name_.c_str(), e.what());
        kill();
        return;
    }
    ready_.store(true, std::memory_order_release);
    for (;;) {
        Pending p;
        {
            MutexLock lock(mtx_);
            while (!stop_ && !dead_.load(std::memory_order_relaxed) &&
                   inbox_.empty())
                cv_.wait(lock);
            if (stop_ || dead_.load(std::memory_order_relaxed))
                return; // queued entries are drained by kill()/dtor
            p = std::move(inbox_.front());
            inbox_.pop_front();
        }
        serve(std::move(p));
        if (isDead())
            return;
    }
}

void
Transport::serve(Pending p)
{
    beat();

    bool inject_throw = false;
    bool inject_corrupt = false;
    if (FaultInjector *fi = faultInjector()) {
        for (const FaultAction &a : fi->at(name_)) {
            switch (a.kind) {
            case FaultKind::KillWorker:
                markDead();
                resolveDown(p);
                kill(); // drain whatever queued behind this request
                return;
            case FaultKind::HangRequest:
                // Stuck replica: the lane stalls with no heartbeat
                // until the supervisor (or a kill) cancels the sleep;
                // then the worker is gone.
                cancel_.sleepFor(a.ms);
                markDead();
                resolveDown(p);
                kill();
                return;
            case FaultKind::DelayMs:
                // Slow replica: serve late — unless the worker died
                // (or is being destroyed) mid-sleep.
                if (!cancel_.sleepFor(a.ms)) {
                    resolveDown(p);
                    return;
                }
                break;
            case FaultKind::ThrowInProcess:
                inject_throw = true;
                break;
            case FaultKind::CorruptResponse:
                inject_corrupt = true;
                break;
            }
        }
    }

    WorkerResponse out;
    try {
        // The injected throw models the shard *compute* failing, not
        // the channel: call() is skipped and the replica stays up.
        if (inject_throw)
            throw std::runtime_error("injected fault: process() threw in "
                                     "worker '" +
                                     name_ + "'");
        out = call(p.req);
    } catch (const TransportError &e) {
        // A broken channel is a dead worker: the child crashed, the
        // stream was shut down, or a frame failed validation. One
        // consistent signal for the failover path.
        exma_warn("worker '%s': %s", name_.c_str(), e.what());
        markDead();
        resolveDown(p);
        kill();
        return;
    } catch (const std::exception &e) {
        out = WorkerResponse{};
        out.status = WorkerStatus::Failed;
        out.error = e.what();
        out.ids = p.req.batch.ids();
    }

    if (isDead()) {
        // Killed while computing: a dead worker never answers Ok, so
        // the router's failover path sees one consistent signal.
        resolveDown(p);
        return;
    }

    if (out.ok() && inject_corrupt) {
        // Flip payload *after* the canary stamp — the router must
        // catch this via recompute, like a wire checksum would.
        bool flipped = false;
        for (auto &hits : out.hits) {
            if (!hits.empty()) {
                hits.front() ^= 1;
                flipped = true;
                break;
            }
        }
        if (!flipped)
            out.ids.push_back(~u32{0});
    }
    // Counters first, delivery last: a caller that observed the future
    // ready must see the post-request counter state.
    processed_.fetch_add(1, std::memory_order_relaxed);
    inbox_depth_.fetch_sub(1, std::memory_order_relaxed);
    beat();
    p.promise.set_value(std::move(out));
}

} // namespace exma
