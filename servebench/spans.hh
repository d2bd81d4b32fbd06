/**
 * @file
 * In-memory span log for the traced run. The benchmark records a span
 * around each call it makes into a layer (name, start, end, parent,
 * request id); the log is kept in memory and written as JSON lines
 * when the run ends. A layer's self time is its span minus the part of
 * that interval its child spans cover.
 */

#ifndef SERVEBENCH_SPANS_HH
#define SERVEBENCH_SPANS_HH

#include <chrono>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"

namespace servebench {

using exma::u32;
using exma::u64;
using Clock = std::chrono::steady_clock;

struct Span
{
    const char *name = "";     ///< a string literal
    u32 parent = 0;            ///< span id, or SpanLog::kRoot
    u64 request = 0;           ///< shared by one request's spans
    Clock::time_point start;
    Clock::time_point end;

    double micros() const
    {
        return std::chrono::duration<double, std::micro>(end - start)
            .count();
    }
};

class SpanLog
{
  public:
    static constexpr u32 kRoot = ~u32{0};

    /** Record a finished span; returns its id. Thread-safe. */
    u32 add(const char *name, u64 request, u32 parent,
            Clock::time_point start, Clock::time_point end);

    /** Open a span now; close() stamps its end. Thread-safe. */
    u32 open(const char *name, u64 request, u32 parent = kRoot);
    void close(u32 id);

    /** Snapshot of every span, in id order. */
    std::vector<Span> spans() const;

    /** Per span id: duration minus the union of its children's
     *  intervals (clipped to the span), in microseconds. */
    std::vector<double> selfMicros() const;

    /** Write one JSON object per span. Returns false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    mutable exma::Mutex mtx_;
    std::vector<Span> spans_ EXMA_GUARDED_BY(mtx_);
};

/** Durations (or self times) of every span named @p name, in us. */
std::vector<double> spanMicros(const std::vector<Span> &spans,
                               const std::vector<double> &self,
                               const char *name, bool self_time);

} // namespace servebench

#endif // SERVEBENCH_SPANS_HH
