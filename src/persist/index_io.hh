/**
 * @file
 * Save / load of whole indexes: a directory holding an
 * `index.exma.manifest` (kind, configs, serialized ShardPlan) plus
 * `table.exma.*` for a monolithic index or `shardNNNN.exma.*` per
 * distinct slice for routed ones (ShardPlan::tableOf: one file set
 * for a kmerPrefix plan, one per shard for a text plan). Table files
 * are written and read by the io layer's one save/load pair
 * (saveTableFiles / loadTableFiles in io/table_io.hh), so mono and
 * routed indexes store an Exact or Mtl table alike, and store nothing
 * a load does not read. This layer
 * adds the manifest and the shard-plan/router wiring, which is why
 * it lives *above* route/shard in the module DAG (src/persist) while
 * the table layer stays below.
 *
 * Loading mmaps the files read-only and points the restored
 * structures' hot arrays straight into the mappings, so a LoadedIndex
 * must stay alive as long as the index serves. A routed index loaded
 * from a directory remembers that directory in its RouterConfig, so
 * switching the router to the socket transport serves the *same*
 * files to out-of-process workers with no re-save.
 */

#ifndef EXMA_PERSIST_INDEX_IO_HH
#define EXMA_PERSIST_INDEX_IO_HH

#include <memory>
#include <string>
#include <vector>

#include "io/table_io.hh"
#include "route/shard_router.hh"

namespace exma {

/** Index kinds a directory manifest can describe. */
enum class IndexKind : u32
{
    Mono = 0, ///< one ExmaTable
    // 1 is reserved: the retired per-shard broadcast layout. Loading it
    // fails closed with a LoadError asking for a rebuild.
    Routed = 2, ///< ShardRouter (any shard plan)
};

/**
 * Save a whole index into directory @p dir (created if absent):
 * manifest + per-table companion files, each holding exactly what
 * loadIndex reads back.
 */
void saveIndex(const ExmaTable &table, const std::string &dir);
void saveIndex(const ShardRouter &router, const std::string &dir);

/**
 * A loaded index of any kind. Exactly one of table / router is set,
 * matching kind. files backs the monolithic table's borrowed hot
 * arrays and is declared first so the table is destroyed before the
 * mappings; a routed index's mappings live in the router's tables.
 */
struct LoadedIndex
{
    std::vector<MappedFile> files;
    IndexKind kind = IndexKind::Mono;
    std::unique_ptr<ExmaTable> table;
    std::unique_ptr<ShardRouter> router;
    /** Wall-clock seconds of the whole load (mmap + restore). */
    double load_seconds = 0.0;
};

/**
 * Load whatever index directory @p dir holds; throws LoadError on any
 * defect (missing/truncated/corrupt/version-mismatched files or a
 * retired layout). A loaded router reports load_seconds as
 * buildSeconds().
 */
LoadedIndex loadIndex(const std::string &dir);

} // namespace exma

#endif // EXMA_PERSIST_INDEX_IO_HH
