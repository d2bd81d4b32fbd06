#include "persist/index_io.hh"

#include <chrono>
#include <filesystem>
#include <utility>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "io/format.hh"

namespace exma {

namespace {

using io_detail::getTableConfig;
using io_detail::probeLoadFaults;
using io_detail::putTableConfig;
using io_detail::shardStem;
using io_detail::writeBlob;

constexpr u32 kManifestMeta = 1; ///< whole-index description blob

/** Manifest kind of the retired per-shard broadcast layout. */
constexpr u32 kRetiredShardedText = 1;

// --- shard plan ---------------------------------------------------------

void
putPlan(BlobWriter &w, const ShardPlan &plan)
{
    w.putU64(plan.size());
    for (const Shard &s : plan.shards()) {
        w.putString(s.name);
        w.putU64(s.begin);
        w.putU64(s.length);
    }
    w.putU32(static_cast<u32>(plan.kind()));
    w.putU64(plan.refLength());
    w.putU64(plan.overlap());
    w.putU64(plan.maxQueryLen());
    w.putI32(plan.prefixLen());
    w.putU64(plan.prefixRanges().size());
    for (const PrefixRange &r : plan.prefixRanges()) {
        w.putU64(r.lo);
        w.putU64(r.hi);
    }
}

ShardPlan
getPlan(BlobReader &r)
{
    const u64 n_shards = r.getU64();
    std::vector<Shard> shards(n_shards);
    for (Shard &s : shards) {
        s.name = r.getString();
        s.begin = r.getU64();
        s.length = r.getU64();
    }
    const u32 kind_raw = r.getU32();
    if (kind_raw > static_cast<u32>(ShardPlanKind::KmerPrefix))
        throw LoadError(r.context() + ": unknown shard-plan kind " +
                        std::to_string(kind_raw));
    const auto kind = static_cast<ShardPlanKind>(kind_raw);
    const u64 ref_len = r.getU64();
    const u64 overlap = r.getU64();
    const u64 max_query_len = r.getU64();
    const int prefix_len = r.getI32();
    const u64 n_ranges = r.getU64();
    std::vector<PrefixRange> ranges(n_ranges);
    for (PrefixRange &pr : ranges) {
        pr.lo = r.getU64();
        pr.hi = r.getU64();
    }
    return ShardPlan::restore(std::move(shards), kind, ref_len, overlap,
                              max_query_len, prefix_len,
                              std::move(ranges));
}

// --- helpers ------------------------------------------------------------

void
saveManifest(const std::string &dir, const BlobWriter &w)
{
    std::filesystem::create_directories(dir);
    FileBuilder fb(kMagicManifest);
    writeBlob(fb, kManifestMeta, w);
    fb.save(dir + "/" + kManifestName);
}

} // namespace

// --- whole-index directories --------------------------------------------

void
saveIndex(const ExmaTable &table, const std::string &dir)
{
    BlobWriter w;
    w.putU32(static_cast<u32>(IndexKind::Mono));
    saveManifest(dir, w);
    saveTableFiles(table, dir + "/table");
}

void
saveIndex(const ShardRouter &router, const std::string &dir)
{
    const ShardPlan &plan = router.plan();
    BlobWriter w;
    w.putU32(static_cast<u32>(IndexKind::Routed));
    putTableConfig(w, router.config().table);
    w.putU32(router.config().build_threads);
    putPlan(w, plan);
    saveManifest(dir, w);
    for (size_t t = 0; t < plan.tableCount(); ++t)
        saveTableFiles(*router.shardTable(t), shardStem(dir, t));
}

LoadedIndex
loadIndex(const std::string &dir)
{
    installFaultInjectorFromEnvOnce();
    const auto t0 = std::chrono::steady_clock::now();
    LoadedIndex out;

    const std::string manifest_path = dir + "/" + kManifestName;
    probeLoadFaults(manifest_path);
    const MappedFile manifest(manifest_path);
    const FileView view(manifest, kMagicManifest);
    const std::vector<u8> blob = view.readBlob(kManifestMeta);
    BlobReader r(blob, manifest_path);

    const u32 kind_raw = r.getU32();
    if (kind_raw == kRetiredShardedText)
        throw LoadError(manifest_path +
                        ": index kind 1 (per-shard broadcast layout) was "
                        "removed; rebuild the index (exma-index build "
                        "--layout sharded saves a routed one)");
    if (kind_raw != static_cast<u32>(IndexKind::Mono) &&
        kind_raw != static_cast<u32>(IndexKind::Routed))
        throw LoadError(manifest_path + ": unknown index kind " +
                        std::to_string(kind_raw));
    out.kind = static_cast<IndexKind>(kind_raw);

    switch (out.kind) {
    case IndexKind::Mono: {
        r.finish();
        ShardState t = loadTableFiles(dir + "/table");
        out.files = std::move(t.files);
        out.table = std::move(t.table);
        break;
    }
    case IndexKind::Routed: {
        RouterConfig cfg;
        cfg.table = getTableConfig(r);
        cfg.build_threads = r.getU32();
        ShardPlan plan = getPlan(r);
        r.finish();

        // The table files are right here: if this router is flipped
        // to the socket transport, its workers mmap-load from this
        // directory instead of re-saving into a temp dir.
        cfg.transport.worker_dir = dir;

        std::vector<ShardState> tables(plan.tableCount());
        for (size_t t = 0; t < tables.size(); ++t) {
            tables[t] = loadTableFiles(shardStem(dir, t));
            if (tables[t].table->rows() != plan.shards()[t].length + 1)
                throw LoadError(shardStem(dir, t) + ": table covers " +
                                std::to_string(tables[t].table->rows() -
                                               1) +
                                " bases, the manifest's slice " +
                                std::to_string(plan.shards()[t].length));
        }
        const auto t1 = std::chrono::steady_clock::now();
        out.router = std::make_unique<ShardRouter>(
            std::move(plan), cfg, std::move(tables),
            std::chrono::duration<double>(t1 - t0).count());
        break;
    }
    }

    const auto t_end = std::chrono::steady_clock::now();
    out.load_seconds =
        std::chrono::duration<double>(t_end - t0).count();
    return out;
}

} // namespace exma
