/**
 * @file
 * Save / load of single tables through the `.exma.*` companion-file
 * format (io/format.hh).
 *
 * One table is three files at a stem:
 *
 *   stem.exma.pac   table config echo, segment map, optional 2-bit text
 *   stem.exma.occ   EXMA table: base pointers, increments, sentinels,
 *                   and the trained learned-index model (MTL or naive)
 *   stem.exma.sa    FM-index: packed-rank blocks, SA samples, sampled-
 *                   row bit vector
 *
 * A shard that is too small for a table saves only stem.exma.pac,
 * with its text echo as the text it scans; an empty shard saves
 * nothing. ShardState is the one owned value for all three kinds, and
 * saveShardFiles / loadShardFiles are its one save/load pair.
 *
 * Loading mmaps the files read-only and points the restored
 * structures' hot arrays straight into the mappings
 * (common/storage.hh), so a loaded ShardState holds the MappedFiles
 * alongside the table and must stay alive as long as the table
 * serves. Models are restored from their trained weights — nothing is
 * retrained, so a loaded table answers bit-identically to the one
 * that was saved.
 *
 * Whole-index directories (manifest + per-shard files) are one layer
 * up, in persist/index_io.hh — that layer knows about shard plans and
 * routers; this one stops at a single shard so the io module stays
 * below route/shard in the layering DAG (the exma-worker child loads
 * its shard through exactly this seam).
 */

#ifndef EXMA_IO_TABLE_IO_HH
#define EXMA_IO_TABLE_IO_HH

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/exma_table.hh"
#include "io/format.hh"
#include "io/mapped_file.hh"

namespace exma {

/**
 * What one shard serves. The values are the per-shard state words of
 * a routed manifest, so they are part of the on-disk format.
 */
enum class ShardKind : u32
{
    Empty = 0, ///< no text: every query answers hitless
    Scan = 1,  ///< too small for a table: its text is scanned directly
    Table = 2, ///< a segment-mapped ExmaTable
};

/** The kind's one spelling (the exma-worker --state argument). */
const char *shardKindName(ShardKind kind);
/** Inverse of shardKindName; nullopt for any other name. */
std::optional<ShardKind> parseShardKind(std::string_view name);

/**
 * One shard's serving state, owned: the router holds one per shard,
 * the persisted index saves and loads exactly this, and exma-worker
 * serves it. Which of table / scan is set decides kind().
 */
struct ShardState
{
    /** Local-to-global segment map (empty for an empty shard). */
    std::vector<TextSegment> segments;
    /** Mappings the table's hot arrays borrow from; declared before
     *  the table so the table is destroyed first. */
    std::vector<MappedFile> files;
    std::unique_ptr<ExmaTable> table;
    /** The extracted local text of a scan shard. */
    std::vector<Base> scan;

    ShardKind kind() const
    {
        return table ? ShardKind::Table
               : scan.empty() ? ShardKind::Empty
                              : ShardKind::Scan;
    }
};

/** Asserts @p st is coherent: one of table / scan at most, each
 *  covering exactly its segment map. @p name labels the failure. */
void validateShardState(const std::string &name, const ShardState &st);

/**
 * Write @p st at @p stem: stem.exma.{pac,occ,sa} for a table shard,
 * stem.exma.pac (segment map + 2-bit text) for a scan shard, nothing
 * for an empty one.
 */
void saveShardFiles(const ShardState &st, const std::string &stem);

/**
 * Load the @p kind shard saved at @p stem; throws LoadError on any
 * defect. Every non-empty kind probes the "io.load" fault site once,
 * at stem.exma.pac.
 */
ShardState loadShardFiles(ShardKind kind, const std::string &stem);

/**
 * Write @p table as stem.exma.{pac,occ,sa}. @p local_text is the text
 * the table was built over (the segment extraction for segment-mapped
 * tables, the whole reference otherwise); pass empty to omit the text
 * echo — every table load works without it, it exists for tooling.
 */
void saveTableFiles(const ExmaTable &table, const std::string &stem,
                    std::span<const Base> local_text = {});

/** Load stem.exma.{pac,occ,sa} into a table state (segments from the
 *  .pac, empty for an unsegmented table); throws LoadError on any
 *  defect. */
ShardState loadTableFiles(const std::string &stem);

/**
 * Shared plumbing between this layer and persist/index_io.cc — not a
 * public API. The manifest layer reuses the same config echo, blob
 * framing, shard-stem naming and load-fault hook so one format
 * version covers every file in an index directory.
 */
namespace io_detail {

/** Fault hook for the mmap load path (site "io.load"). */
void probeLoadFaults(const std::string &path);

/** Write @p w's bytes as section @p tag. */
void writeBlob(FileBuilder &fb, u32 tag, const BlobWriter &w);

/** Serialize / restore an ExmaTable::Config echo. */
void putTableConfig(BlobWriter &w, const ExmaTable::Config &cfg);
ExmaTable::Config getTableConfig(BlobReader &r);

/** dir + "/shardNNNN" (4-digit, zero-padded). */
std::string shardStem(const std::string &dir, size_t i);

} // namespace io_detail

} // namespace exma

#endif // EXMA_IO_TABLE_IO_HH
