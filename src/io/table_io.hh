/**
 * @file
 * Save / load of single tables through the `.exma.*` companion-file
 * format (io/format.hh).
 *
 * One table is three files at a stem:
 *
 *   stem.exma.pac   table config echo and text length
 *   stem.exma.occ   EXMA table: base pointers, increments, sentinels,
 *                   and the trained MTL model (Mtl mode only)
 *   stem.exma.sa    FM-index: packed-rank blocks, SA samples, sampled-
 *                   row bit vector
 *
 * ShardState is the owned value a table serves from, and
 * saveTableFiles / loadTableFiles are its one save/load pair. A table
 * covers one contiguous slice of the reference and knows nothing of
 * where the slice begins; the router that serves it adds the offset.
 *
 * Loading mmaps the files read-only and points the restored
 * structures' hot arrays straight into the mappings
 * (common/storage.hh), so a loaded ShardState holds the MappedFiles
 * alongside the table and must stay alive as long as the table
 * serves. Models are restored from their trained weights — nothing is
 * retrained, so a loaded table answers bit-identically to the one
 * that was saved.
 *
 * Whole-index directories (manifest + per-table files) are one layer
 * up, in persist/index_io.hh — that layer knows about shard plans and
 * routers; this one stops at a single table so the io module stays
 * below route/shard in the layering DAG (the exma-worker child loads
 * its table through exactly this seam).
 */

#ifndef EXMA_IO_TABLE_IO_HH
#define EXMA_IO_TABLE_IO_HH

#include <memory>
#include <string>
#include <vector>

#include "core/exma_table.hh"
#include "io/format.hh"
#include "io/mapped_file.hh"

namespace exma {

/**
 * One table's serving state, owned: the router holds one per distinct
 * reference slice (shards that serve the same slice borrow it), the
 * persisted index saves and loads exactly this, and exma-worker
 * serves it.
 */
struct ShardState
{
    /** Mappings the table's hot arrays borrow from; declared before
     *  the table so the table is destroyed first. */
    std::vector<MappedFile> files;
    std::unique_ptr<ExmaTable> table;
};

/**
 * Write @p table as stem.exma.{pac,occ,sa}: exactly what
 * loadTableFiles reads back.
 */
void saveTableFiles(const ExmaTable &table, const std::string &stem);

/**
 * Load stem.exma.{pac,occ,sa}; throws LoadError on any defect. Probes
 * the "io.load" fault site once, at stem.exma.pac.
 */
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

/** dir + "/shardNNNN" (4-digit, zero-padded): the files of table
 *  @p i of a routed index (ShardPlan::tableOf). */
std::string shardStem(const std::string &dir, size_t i);

} // namespace io_detail

} // namespace exma

#endif // EXMA_IO_TABLE_IO_HH
