/**
 * @file
 * Reference partitioning for sharded multi-table serving — the software
 * analogue of the paper's multi-channel scale-out (§V: EXMA spreads the
 * k-step FM-index across parallel memory channels/DIMMs; FindeR makes
 * the same move for FM-index rank hardware).
 *
 * A ShardPlan cuts the concatenated reference into contiguous shards,
 * each of which gets its own ExmaTable. Two partitioning policies:
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
 *    start at positions owned by the shard of the query's own prefix —
 *    the routing invariant the ShardRouter exploits to send most
 *    queries to a single shard. Each shard's searchable text is the
 *    union of max_query_len windows after its owned positions, merged
 *    into maximal runs and described as a TextSegment map (see
 *    core/text_segments.hh). Nearby positions usually land in
 *    different shards, so windows overlap across shards: prefix
 *    partitioning trades replicated text (factor ≈ min(shards,
 *    max_query_len) on low-repeat references) for single-shard query
 *    execution — the classic term-partitioned-index trade.
 */

#ifndef EXMA_SHARD_SHARD_PLAN_HH
#define EXMA_SHARD_SHARD_PLAN_HH

#include <string>
#include <vector>

#include "common/dna.hh"
#include "common/types.hh"
#include "core/text_segments.hh"
#include "genome/reference.hh"

namespace exma {

/** One contiguous slice of the global reference. */
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
     * Shards that would start past the end of a small reference are
     * dropped, so the resulting plan may hold fewer than @p n_shards.
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
     * roughly equal owned-position weight (measured on @p ref), and
     * record per shard the TextSegment map covering every owned
     * position's [pos, pos + max_query_len) context window. Ranges
     * with no occurrences produce shards with an empty segment map —
     * legal, and served as trivially hitless by the router.
     *
     * @param prefix_len routing prefix p in bases; 0 picks an
     *        automatic value (smallest p with 4^p >= 64 * n_shards,
     *        clamped to [2, 8]). Queries shorter than p can only be
     *        routed when their padded code range stays inside one
     *        shard; otherwise the router broadcasts them.
     */
    static ShardPlan kmerPrefix(const std::vector<Base> &ref,
                                unsigned n_shards, u64 max_query_len,
                                int prefix_len = 0);

    /**
     * Reassemble a plan from its serialized members (src/persist/
     * index_io.cc) without re-deriving anything from the reference.
     * Validates the cross-member invariants the factories guarantee.
     * @p segments holds kmerPrefix maps only; a text plan passes none
     * and derives its one-slice maps from @p shards.
     */
    static ShardPlan restore(std::vector<Shard> shards, ShardPlanKind kind,
                             u64 ref_len, u64 overlap, u64 max_query_len,
                             int prefix_len,
                             std::vector<PrefixRange> prefix_ranges,
                             std::vector<std::vector<TextSegment>> segments);

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
     * Segment map of shard @p i: the owned context windows of a
     * kmerPrefix shard, the one slice {begin, 0, length} of a text
     * shard.
     */
    const std::vector<TextSegment> &segmentsOf(size_t i) const
    {
        return segments_[i];
    }

    /** Shard owning padded prefix code @p code (kmerPrefix plans). */
    size_t ownerOf(Kmer code) const;

    /**
     * Inclusive [first, last] shard indices whose prefix ranges
     * intersect the non-empty code range [lo, hi) — the owner set of a
     * query whose prefix pads to that range. first == last means the
     * query routes to a single shard.
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
    /** Text plans: one whole-shard segment per shard. */
    void deriveTextSegments();

    std::vector<Shard> shards_;
    ShardPlanKind kind_ = ShardPlanKind::Text;
    u64 ref_len_ = 0;
    u64 overlap_ = 0;
    u64 max_query_len_ = kUnboundedQueryLen;
    int prefix_len_ = 0;
    std::vector<PrefixRange> prefix_ranges_;      ///< kmerPrefix only
    std::vector<std::vector<TextSegment>> segments_; ///< one per shard
};

} // namespace exma

#endif // EXMA_SHARD_SHARD_PLAN_HH
