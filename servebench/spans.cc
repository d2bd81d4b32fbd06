#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace servebench {

u32
SpanLog::add(const char *name, u64 request, u32 parent,
             Clock::time_point start, Clock::time_point end)
{
    exma::MutexLock lock(mtx_);
    spans_.push_back({name, parent, request, start, end});
    return static_cast<u32>(spans_.size() - 1);
}

u32
SpanLog::open(const char *name, u64 request, u32 parent)
{
    const Clock::time_point now = Clock::now();
    return add(name, request, parent, now, now);
}

void
SpanLog::close(u32 id)
{
    const Clock::time_point now = Clock::now();
    exma::MutexLock lock(mtx_);
    spans_[id].end = now;
}

std::vector<Span>
SpanLog::spans() const
{
    exma::MutexLock lock(mtx_);
    return spans_;
}

std::vector<double>
SpanLog::selfMicros() const
{
    const std::vector<Span> all = spans();
    std::vector<std::vector<u32>> children(all.size());
    for (u32 id = 0; id < all.size(); ++id)
        if (all[id].parent != kRoot)
            children[all[id].parent].push_back(id);

    std::vector<double> self(all.size());
    for (u32 id = 0; id < all.size(); ++id) {
        const Span &s = all[id];
        std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
        for (const u32 c : children[id]) {
            const auto lo = std::max(all[c].start, s.start);
            const auto hi = std::min(all[c].end, s.end);
            if (lo < hi)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        Clock::duration covered{0};
        Clock::time_point reach = s.start;
        for (const auto &[lo, hi] : cover) {
            const auto from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        self[id] = std::chrono::duration<double, std::micro>(
                       (s.end - s.start) - covered)
                       .count();
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const Clock::time_point epoch =
        all.empty() ? Clock::time_point{} : all.front().start;
    const auto ns = [epoch](Clock::time_point t) {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
                .count());
    };
    for (u32 id = 0; id < all.size(); ++id) {
        const Span &s = all[id];
        std::fprintf(f,
                     "{\"id\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":",
                     id, s.name, ns(s.start), ns(s.end));
        if (s.parent == kRoot)
            std::fputs("null", f);
        else
            std::fprintf(f, "%u", s.parent);
        std::fprintf(f, ",\"request\":%llu}\n",
                     static_cast<unsigned long long>(s.request));
    }
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

std::vector<double>
spanMicros(const std::vector<Span> &spans, const std::vector<double> &self,
           const char *name, bool self_time)
{
    std::vector<double> out;
    for (size_t id = 0; id < spans.size(); ++id)
        if (std::strcmp(spans[id].name, name) == 0)
            out.push_back(self_time ? self[id] : spans[id].micros());
    return out;
}

} // namespace servebench
