/**
 * @file
 * Reference partitioning for sharded multi-table serving — the software
 * analogue of the paper's multi-channel scale-out (§V: EXMA spreads the
 * k-step FM-index across parallel memory channels/DIMMs; FindeR makes
 * the same move for FM-index rank hardware).
 *
 * A ShardPlan assigns queries to shards, and every shard serves one
 * ExmaTable over one contiguous slice ref[begin, begin + length) of
 * the concatenated reference. Shards with the same slice share one
 * table (tableOf()). Three partitioning policies:
 *
 *  - fixedWidth: N equal-stride shards, adjacent shards overlapping by
 *    max_query_len - 1 bases. Any match of length <= max_query_len
 *    starting inside shard i's stride lies entirely within shard i, so
 *    no match spanning a shard boundary is ever lost; matches falling
 *    fully inside an overlap zone are found by both neighbours and
 *    deduplicated at merge time.
 *
 *  - perRecord: one shard per source record (FASTA record /
 *    chromosome), no overlap. Matches never span record boundaries in
 *    real genomes — a "match" across the concatenation seam of two
 *    chromosomes is an artifact — so this policy is the biologically
 *    correct one, but it is deliberately NOT hit-set-equivalent to one
 *    monolithic table over the concatenation (which reports seam
 *    artifacts).
 *
 *  - kmerPrefix: shards own *k-mer-prefix ranges* instead of text
 *    slices. Every text position belongs to the shard whose code range
 *    [lo, hi) contains the packed code of its first prefix_len bases
 *    (A-padded near the reference end), so all matches of a query
 *    start at positions owned by the shard of the query's own prefix.
 *    Every shard's slice is the whole reference, so all of them share
 *    one monolithic table: the prefix only decides which shard's
 *    workers answer a query, which lets the router send each query to
 *    exactly one shard without copying any text.
 */

#ifndef EXMA_SHARD_SHARD_PLAN_HH
#define EXMA_SHARD_SHARD_PLAN_HH

#include <string>
#include <vector>

#include "common/dna.hh"
#include "common/types.hh"
#include "genome/reference.hh"

namespace exma {

/** A shard: the contiguous slice of the global reference it serves. */
struct Shard
{
    std::string name;
    u64 begin = 0;  ///< global offset of the shard's first base
    u64 length = 0; ///< shard length in bases

    u64 end() const { return begin + length; }
    bool operator==(const Shard &) const = default;
};

/** How a plan's shards partition the reference. */
enum class ShardPlanKind
{
    Text,       ///< contiguous text slices (fixedWidth / perRecord)
    KmerPrefix, ///< k-mer-prefix code ranges (kmerPrefix)
};

/** A half-open range [lo, hi) of packed prefix_len-mer codes. */
struct PrefixRange
{
    Kmer lo = 0;
    Kmer hi = 0;

    bool contains(Kmer code) const { return code >= lo && code < hi; }
    bool empty() const { return lo == hi; }
    bool operator==(const PrefixRange &) const = default;
};

class ShardPlan
{
  public:
    /** maxQueryLen() value meaning "no per-query length bound". */
    static constexpr u64 kUnboundedQueryLen = ~u64{0};

    /** Smallest reference slice worth an ExmaTable of its own. */
    static constexpr u64 kMinShardBases = 64;

    /**
     * Partition [0, ref_len) into @p n_shards equal-stride shards with
     * an overlap of @p max_query_len - 1 bases between neighbours.
     * No shard is shorter than kMinShardBases unless it spans the
     * whole reference, so a small reference gets fewer than
     * @p n_shards.
     */
    static ShardPlan fixedWidth(u64 ref_len, unsigned n_shards,
                                u64 max_query_len);

    /**
     * One shard per record span (spans must be contiguous from 0, as
     * produced by makeDatasetFromRecords). No overlap, no query-length
     * bound. Records shorter than kMinShardBases — real assemblies
     * carry tiny scaffolds — are folded into a neighbouring shard
     * (with one summary warning) rather than given unbuildable tables
     * of their own; only those folded seams can report concatenation
     * artifacts.
     */
    static ShardPlan perRecord(const std::vector<RecordSpan> &records);

    /** Largest prefix_len kmerPrefix accepts (histogram is 4^p u64s). */
    static constexpr int kMaxPrefixLen = 10;

    /**
     * Prefix-partitioned plan: split the packed prefix_len-mer code
     * space [0, 4^prefix_len) into @p n_shards contiguous ranges of
     * roughly equal owned-position weight (measured on @p ref). Every
     * shard's slice is the whole reference. Ranges with no
     * occurrences are legal. Queries stay bounded by
     * @p max_query_len.
     *
     * @param prefix_len routing prefix p in bases; 0 picks an
     *        automatic value (smallest p with 4^p >= 64 * n_shards,
     *        clamped to [2, 8]). A query shorter than p pads to a code
     *        range; the router sends it to the owner of the range's
     *        first code.
     */
    static ShardPlan kmerPrefix(const std::vector<Base> &ref,
                                unsigned n_shards, u64 max_query_len,
                                int prefix_len = 0);

    /**
     * Reassemble a plan from its serialized members (src/persist/
     * index_io.cc) without re-deriving anything from the reference.
     * Validates the cross-member invariants the factories guarantee.
     */
    static ShardPlan restore(std::vector<Shard> shards, ShardPlanKind kind,
                             u64 ref_len, u64 overlap, u64 max_query_len,
                             int prefix_len,
                             std::vector<PrefixRange> prefix_ranges);

    const std::vector<Shard> &shards() const { return shards_; }
    size_t size() const { return shards_.size(); }

    ShardPlanKind kind() const { return kind_; }

    /** Routing prefix length in bases (0 for text-partitioned plans). */
    int prefixLen() const { return prefix_len_; }

    /**
     * Per-shard prefix code ranges, index-parallel with shards();
     * contiguous and covering [0, 4^prefixLen()). Empty for
     * text-partitioned plans.
     */
    const std::vector<PrefixRange> &prefixRanges() const
    {
        return prefix_ranges_;
    }

    /**
     * The table shard @p i serves, in [0, tableCount()): every
     * kmerPrefix shard shares table 0 (the whole reference), and
     * every text shard has its own slice and table.
     */
    size_t tableOf(size_t i) const
    {
        return kind_ == ShardPlanKind::KmerPrefix ? 0 : i;
    }
    /** Distinct slices, hence tables, the plan's shards serve. */
    size_t tableCount() const
    {
        return kind_ == ShardPlanKind::KmerPrefix ? 1 : shards_.size();
    }

    /** Shard owning padded prefix code @p code (kmerPrefix plans). */
    size_t ownerOf(Kmer code) const;

    /**
     * Inclusive [first, last] shard indices whose prefix ranges
     * intersect the non-empty code range [lo, hi) — the owner set of a
     * query whose prefix pads to that range. The router serves a
     * query on `first` alone, since every prefix shard answers from
     * the same table.
     */
    std::pair<size_t, size_t> ownersOfRange(Kmer lo, Kmer hi) const;

    /**
     * Padded code range of a query prefix: a query of at least
     * prefixLen() bases pins a single code (width-1 range); a shorter
     * query A-pads to the range of every code starting with it.
     */
    PrefixRange queryPrefixRange(const Base *query, size_t len) const;

    /** Length of the global reference the plan covers. */
    u64 refLength() const { return ref_len_; }

    /** Overlap between neighbouring shards (0 for per-record plans). */
    u64 overlap() const { return overlap_; }

    /**
     * Longest query the boundary-overlap guarantee covers;
     * kUnboundedQueryLen for per-record plans.
     */
    u64 maxQueryLen() const { return max_query_len_; }
    bool boundsQueries() const
    {
        return max_query_len_ != kUnboundedQueryLen;
    }

  private:
    std::vector<Shard> shards_;
    ShardPlanKind kind_ = ShardPlanKind::Text;
    u64 ref_len_ = 0;
    u64 overlap_ = 0;
    u64 max_query_len_ = kUnboundedQueryLen;
    int prefix_len_ = 0;
    std::vector<PrefixRange> prefix_ranges_; ///< kmerPrefix only
};

} // namespace exma

#endif // EXMA_SHARD_SHARD_PLAN_HH
