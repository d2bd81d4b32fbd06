/**
 * @file
 * Per-search instrumentation counters shared by ExmaTable, the
 * batched and sharded serving layers above it, and the timing models.
 * A SearchStats is a plain per-call value object — callers own one per
 * search (or one per worker thread in a batched run) and merge with
 * operator+=, so the search engines themselves stay const and freely
 * shareable across threads.
 */

#ifndef EXMA_COMMON_SEARCH_STATS_HH
#define EXMA_COMMON_SEARCH_STATS_HH

#include "common/types.hh"

namespace exma {

struct SearchStats
{
    u64 kstep_iterations = 0;   ///< k-symbol Occ-pair iterations
    u64 onestep_iterations = 0; ///< remainder 1-symbol iterations
    u64 total_error = 0;        ///< summed index misprediction distance
    /**
     * Summed local-search probes. For an unmodelled list this is the
     * binary-search charge probeCount(f) per lookup, not the
     * comparisons executed: the batched search's linear count over a
     * short list is charged the same.
     */
    u64 total_probes = 0;
    u64 model_lookups = 0;      ///< Occ lookups resolved by a model

    SearchStats &
    operator+=(const SearchStats &o)
    {
        kstep_iterations += o.kstep_iterations;
        onestep_iterations += o.onestep_iterations;
        total_error += o.total_error;
        total_probes += o.total_probes;
        model_lookups += o.model_lookups;
        return *this;
    }

    friend SearchStats
    operator+(SearchStats a, const SearchStats &b)
    {
        a += b;
        return a;
    }

    bool operator==(const SearchStats &) const = default;

    void reset() { *this = SearchStats{}; }

    /** Mean misprediction distance per Occ lookup (2 per k-step). */
    double
    meanError() const
    {
        const u64 lookups = 2 * kstep_iterations;
        return lookups ? static_cast<double>(total_error) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

} // namespace exma

#endif // EXMA_COMMON_SEARCH_STATS_HH
