/**
 * @file
 * The EXMA table (§IV.A, Fig. 8) — the paper's primary data structure —
 * bundled with its search engine: per-k-mer sorted increment lists with
 * base pointers and the MAX sentinel convention, Occ computed through
 * the MTL learned index or exact binary search, k-step backward
 * search with a 1-step FM-Index remainder path, and measured CHAIN/B∆I
 * size accounting (Fig. 23).
 */

#ifndef EXMA_CORE_EXMA_TABLE_HH
#define EXMA_CORE_EXMA_TABLE_HH

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/dna.hh"
#include "common/search_stats.hh"
#include "fmindex/fm_index.hh"
#include "fmindex/kmer_occ.hh"
#include "learned/mtl_index.hh"

namespace exma {

/**
 * How Occ(k-mer, pos) lookups are resolved. The values are the
 * persisted config-echo words.
 */
enum class OccIndexMode
{
    Exact = 0, ///< binary search over increments (no model)
    // 1 is reserved: the retired per-k-mer naive learned index, now
    // only an in-memory baseline (learned/naive_kmer_index.hh).
    // Loading it fails closed with a LoadError asking for a rebuild.
    Mtl = 2, ///< shared multi-task-learning index (§IV.B)
};

class ExmaTable
{
  public:
    struct Config
    {
        int k = 11;
        OccIndexMode mode = OccIndexMode::Mtl;
        MtlIndex::Config mtl;
        FmIndex::Config fm;
    };

    /** Build everything (suffix array computed once and shared). */
    ExmaTable(const std::vector<Base> &ref, const Config &cfg);

    /**
     * Serialized parts of a whole table (src/io/table_io.cc): the
     * structural parts plus the MTL model when cfg.mode is Mtl.
     * Restoring trains nothing and copies no hot array — those stay
     * borrowed from the mmap.
     */
    struct Parts
    {
        Config cfg;
        FmIndex::Restored fm;
        KmerOccTable::Restored occ;
        std::optional<MtlIndex::Restored> mtl;
    };

    /** Restore from serialized parts. */
    explicit ExmaTable(Parts parts);

    const Config &config() const { return cfg_; }

    int k() const { return occ_->k(); }
    u64 rows() const { return occ_->rows(); }

    /** The paper's MAX sentinel: |G| + 1 (one past the last row). */
    u64 maxSentinel() const { return rows(); }

    OccIndexMode mode() const { return cfg_.mode; }
    const KmerOccTable &occTable() const { return *occ_; }
    const FmIndex &fmIndex() const { return *fm_; }
    const MtlIndex *mtlIndex() const { return mtl_.get(); }

    /** Per-k-mer base pointer and occurrence count (Fig. 8). */
    u64 baseOf(Kmer code) const { return occ_->baseOf(code); }
    u64 frequency(Kmer code) const { return occ_->frequency(code); }

    /** Instrumented Occ(k-mer, pos) through the configured index. */
    IndexLookup occ(Kmer code, u64 pos) const;

    /** Count_k(P) — cumulative rows below P (tiny, cached in SRAM). */
    u64 countBefore(Kmer code) const { return occ_->countBefore(code); }

    /**
     * Aggregate search instrumentation for the timing models. Hoisted
     * to common/search_stats.hh so batched (multi-threaded) callers
     * can keep one per worker and merge; the nested name stays as an
     * alias for existing callers.
     */
    using SearchStats = exma::SearchStats;

    /** One k-step iteration (two Occ lookups sharing the k-mer). */
    Interval stepKmer(const Interval &iv, Kmer code,
                      SearchStats *stats = nullptr) const;

    /** Full backward search; equals FmIndex::search on the same ref. */
    Interval search(const std::vector<Base> &query,
                    SearchStats *stats = nullptr) const;

    /**
     * Longest increments list the batched search counts linearly
     * (when no model covers it) instead of binary-searching.
     */
    static constexpr u64 kShortList = 32;

    /**
     * Batched search: intervals[j] becomes search(*queries[j]), and
     * stats[j] accumulates that search's counters, bit for bit. Every
     * k-mer code a query's k-steps use is known from its text, so all
     * their base-pointer lines are requested up front. The k-steps
     * then advance one round at a time across the still-live queries;
     * each round requests the increments of the step two rounds ahead
     * before resolving the current one. An unmodelled list of at most
     * kShortList entries resolves both Occ ends in one branchless
     * linear count (charged the probes of the binary search it
     * replaces); other lists go through stepKmer(). A query that
     * leaves the k-steps with a live interval and a remainder requests
     * its rank blocks right then; the 1-step remainders of all such
     * queries then advance in rounds too, each round prefetching the
     * next round's rank blocks, so the queries' Occ misses overlap.
     */
    void search(std::span<const std::vector<Base> *const> queries,
                std::span<Interval> intervals,
                std::span<SearchStats> stats) const;

    /**
     * Text positions of up to @p limit occurrences in a search
     * interval (via the FM-Index SA samples), in row order.
     */
    std::vector<u64>
    locateAll(const Interval &iv, u64 limit = ~u64{0}) const
    {
        return fm_->locateAll(iv, limit);
    }

    /**
     * Text positions of a search interval's occurrences, sorted
     * ascending; @p limit keeps the lowest @p limit of them. A table
     * built over a reference slice reports slice-local positions (the
     * router adds the slice's offset when it merges). The query length
     * is accepted for callers that pass it and does not affect the
     * result.
     */
    std::vector<u64> locateAllGlobal(const Interval &iv, u64 query_len,
                                     u64 limit = ~u64{0}) const;

    /**
     * One recorded k-step iteration of a search, for the trace-driven
     * accelerator timing model: the functional layer computes what is
     * fetched; the timing layer replays when.
     */
    struct IterTrace
    {
        Kmer kmer = 0;
        u64 pos_low = 0;     ///< pointer values entering the iteration
        u64 pos_high = 0;
        IndexLookup low;     ///< instrumented Occ(k-mer, low)
        IndexLookup high;
        u64 base = 0;        ///< base pointer (for cache addressing)
    };

    /** Run a search and record every k-step iteration. */
    std::vector<IterTrace> traceSearch(const std::vector<Base> &query) const;

    /** Index parameter count (0 in Exact mode). */
    u64 indexParamCount() const;

    /** Measured component sizes, raw and CHAIN-compressed (Fig. 23). */
    struct SizeReport
    {
        u64 increments_raw = 0;
        u64 increments_chain = 0;
        u64 bases_raw = 0;
        u64 bases_chain = 0;
        u64 index_bytes = 0; ///< 8-bit-quantised parameters (Table I)
        u64 bwt_bytes = 0;   ///< residual 1-step BWT (3 bits/symbol)

        u64
        totalRaw() const
        {
            return increments_raw + bases_raw + index_bytes + bwt_bytes;
        }
        u64
        totalChain() const
        {
            return increments_chain + bases_chain + index_bytes + bwt_bytes;
        }
    };
    SizeReport sizeReport() const;

  private:
    void build(const std::vector<Base> &ref);

    Config cfg_;
    std::unique_ptr<FmIndex> fm_;
    std::unique_ptr<KmerOccTable> occ_;
    std::unique_ptr<MtlIndex> mtl_;
};

} // namespace exma

#endif // EXMA_CORE_EXMA_TABLE_HH
