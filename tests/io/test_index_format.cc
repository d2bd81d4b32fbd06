// The persistent `.exma.*` format (src/io/): container round trips,
// every corruption class failing closed with LoadError, and full-index
// differential proofs — a saved + mmap-loaded index must return
// bit-identical intervals, positions and SearchStats to the freshly
// built table it came from, in every occ-index mode and layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "genome/reference.hh"
#include "io/format.hh"
#include "persist/index_io.hh"

namespace exma {
namespace {

namespace fs = std::filesystem;

// On-disk element-layout contracts (lint: ondisk-pod-assert) for the
// array types this suite writes through FileBuilder.
static_assert(sizeof(u8) == 1);
static_assert(std::is_trivially_copyable_v<u8>);
static_assert(sizeof(u32) == 4);
static_assert(std::is_trivially_copyable_v<u32>);
static_assert(sizeof(u64) == 8);
static_assert(std::is_trivially_copyable_v<u64>);

std::string
tempDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

const std::vector<Base> &
testRef()
{
    static const std::vector<Base> ref = [] {
        ReferenceSpec spec;
        spec.length = 1 << 16;
        spec.repeat_fraction = 0.5;
        spec.seed = 77;
        return generateReference(spec);
    }();
    return ref;
}

ExmaTable::Config
cfgFor(OccIndexMode mode, int k = 4)
{
    ExmaTable::Config cfg;
    cfg.k = k;
    cfg.mode = mode;
    cfg.mtl.epochs = 15;
    cfg.mtl.samples_per_class = 1024;
    return cfg;
}

std::vector<std::vector<Base>>
refQueries(u64 count, u64 len, u64 seed = 3)
{
    const std::vector<Base> &ref = testRef();
    Rng rng(seed);
    std::vector<std::vector<Base>> queries(count);
    for (auto &q : queries) {
        const u64 pos = rng.below(ref.size() - len + 1);
        q.assign(ref.begin() + static_cast<long>(pos),
                 ref.begin() + static_cast<long>(pos + len));
    }
    return queries;
}

// --- container (FileBuilder / FileView) ---------------------------------

constexpr char kTestMagic[8] = {'E', 'X', 'M', 'A', 'T', 'S', 'T', '\0'};

std::string
writeTestFile(const std::string &dir)
{
    const std::string path = dir + "/file.bin";
    FileBuilder fb(kTestMagic);
    const std::vector<u32> words{1, 2, 3, 4, 5};
    fb.writeArray<u32>(1, words);
    BlobWriter w;
    w.putU64(42);
    w.putString("hello");
    fb.writeArray<u8>(2, w.bytes());
    fb.save(path);
    return path;
}

void
patchByte(const std::string &path, u64 offset, u8 value)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char *>(&value), 1); // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
}

// XOR-flip so the byte is guaranteed to change whatever it held.
void
flipByte(const std::string &path, u64 offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

bool
pointsIntoMapping(const std::vector<MappedFile> &files, const void *p)
{
    const u8 *b = static_cast<const u8 *>(p);
    for (const MappedFile &f : files)
        if (b >= f.data() && b < f.data() + f.size())
            return true;
    return false;
}

TEST(FileFormatTest, RoundTripsSectionsAndBlob)
{
    const std::string path = writeTestFile(tempDir("fmt_roundtrip"));
    const MappedFile file(path);
    const FileView view(file, kTestMagic);
    ASSERT_TRUE(view.has(1));
    ASSERT_TRUE(view.has(2));
    EXPECT_FALSE(view.has(3));

    const auto words = view.viewArray<u32>(1);
    ASSERT_EQ(words.size(), 5u);
    EXPECT_EQ(words[0], 1u);
    EXPECT_EQ(words[4], 5u);
    // Sections are 64-byte aligned into the mapping (zero-copy).
    EXPECT_EQ(reinterpret_cast<uintptr_t>(words.data()) % 64, 0u); // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)

    const std::vector<u8> blob = view.readBlob(2);
    BlobReader r(blob, "test blob");
    EXPECT_EQ(r.getU64(), 42u);
    EXPECT_EQ(r.getString(), "hello");
    r.finish();
}

TEST(FileFormatTest, MissingFileThrows)
{
    EXPECT_THROW(MappedFile("/nonexistent/exma/index.bin"), LoadError);
}

TEST(FileFormatTest, EmptyFileThrows)
{
    const std::string path = tempDir("fmt_empty") + "/empty.bin";
    { std::ofstream out(path); }
    EXPECT_THROW(MappedFile{path}, LoadError);
}

TEST(FileFormatTest, TruncatedFileThrows)
{
    const std::string path = writeTestFile(tempDir("fmt_trunc"));
    const u64 size = fs::file_size(path);
    fs::resize_file(path, size - 8);
    const MappedFile file(path);
    EXPECT_THROW(FileView(file, kTestMagic), LoadError);
}

TEST(FileFormatTest, BadMagicThrows)
{
    const std::string path = writeTestFile(tempDir("fmt_magic"));
    patchByte(path, 0, 'Z');
    const MappedFile file(path);
    EXPECT_THROW(FileView(file, kTestMagic), LoadError);
}

TEST(FileFormatTest, WrongMagicConstantThrows)
{
    // A valid file opened as the wrong companion kind must refuse too.
    const std::string path = writeTestFile(tempDir("fmt_kind"));
    const MappedFile file(path);
    EXPECT_THROW(FileView(file, kMagicOcc), LoadError);
}

TEST(FileFormatTest, WrongVersionThrows)
{
    const std::string path = writeTestFile(tempDir("fmt_version"));
    patchByte(path, 8, static_cast<u8>(kFormatVersion + 1)); // header.version
    const MappedFile file(path);
    try {
        const FileView view(file, kTestMagic);
        FAIL() << "version mismatch not detected";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(FileFormatTest, FlippedPayloadByteFailsChecksum)
{
    const std::string path = writeTestFile(tempDir("fmt_checksum"));
    const u64 size = fs::file_size(path);
    flipByte(path, size - 1); // last payload byte
    const MappedFile file(path);
    try {
        const FileView view(file, kTestMagic);
        FAIL() << "corruption not detected";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos);
    }
}

TEST(FileFormatTest, ElementSizeMismatchThrows)
{
    const std::string path = writeTestFile(tempDir("fmt_elem"));
    const MappedFile file(path);
    const FileView view(file, kTestMagic);
    EXPECT_THROW(view.viewArray<u64>(1), LoadError); // written as u32
    EXPECT_THROW(view.viewArray<u32>(9), LoadError); // no such section
}

TEST(FileFormatTest, BlobReaderOverrunThrows)
{
    BlobWriter w;
    w.putU32(7);
    BlobReader r(w.bytes(), "blob");
    EXPECT_EQ(r.getU32(), 7u);
    try {
        r.getU64(); // nothing left
        FAIL() << "overrun not detected";
    } catch (const LoadError &e) {
        // The message carries the reader's label (load sites pass the
        // companion-file path) and the byte offset of the bad field.
        EXPECT_NE(std::string(e.what()).find("blob @+4"),
                  std::string::npos)
            << e.what();
    }
    BlobReader unfinished(w.bytes(), "blob");
    try {
        unfinished.finish(); // unconsumed bytes
        FAIL() << "trailing garbage not detected";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find("blob @+0"),
                  std::string::npos)
            << e.what();
    }
}

// --- single-table round trips -------------------------------------------

void
expectIdenticalSearch(const ExmaTable &built, const ExmaTable &loaded)
{
    ASSERT_EQ(loaded.k(), built.k());
    ASSERT_EQ(loaded.rows(), built.rows());
    ASSERT_EQ(loaded.mode(), built.mode());
    for (const auto &q : refQueries(60, 24)) {
        SearchStats sb, sl;
        const Interval ib = built.search(q, &sb);
        const Interval il = loaded.search(q, &sl);
        EXPECT_EQ(ib, il);
        EXPECT_EQ(sb, sl); // identical models -> identical error/probes
        EXPECT_GT(ib.count(), 0u); // sampled off the reference
        EXPECT_EQ(built.locateAllGlobal(ib, q.size()),
                  loaded.locateAllGlobal(il, q.size()));
    }
}

class TableRoundTripTest
    : public ::testing::TestWithParam<OccIndexMode>
{
};

TEST_P(TableRoundTripTest, LoadedTableSearchesIdentically)
{
    const ExmaTable built(testRef(), cfgFor(GetParam()));
    const std::string stem = tempDir("table_rt") + "/table";
    saveTableFiles(built, stem);
    const ShardState loaded = loadTableFiles(stem);
    expectIdenticalSearch(built, *loaded.table);
    // The hot arrays must be borrowed from the mappings, not copied.
    EXPECT_TRUE(pointsIntoMapping(
        loaded.files, loaded.table->occTable().baseArray().data()));
}

INSTANTIATE_TEST_SUITE_P(AllModes, TableRoundTripTest,
                         ::testing::Values(OccIndexMode::Exact,
                                           OccIndexMode::Mtl),
                         [](const auto &info) {
                             return info.param == OccIndexMode::Exact
                                        ? "Exact"
                                        : "Mtl";
                         });

TEST(TableCorruptionTest, FlippedOccByteFailsClosed)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string stem = tempDir("table_corrupt") + "/table";
    saveTableFiles(built, stem);
    const std::string occ_path = stem + kExtOcc;
    flipByte(occ_path, fs::file_size(occ_path) / 2);
    try {
        loadTableFiles(stem);
        FAIL() << "corruption not detected";
    } catch (const LoadError &e) {
        // Every load-path LoadError names the failing file.
        EXPECT_NE(std::string(e.what()).find(occ_path),
                  std::string::npos)
            << e.what();
    }
}

TEST(TableCorruptionTest, MissingCompanionFileFailsClosed)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string stem = tempDir("table_missing") + "/table";
    saveTableFiles(built, stem);
    fs::remove(stem + kExtSa);
    EXPECT_THROW(loadTableFiles(stem), LoadError);
}

TEST(TableCorruptionTest, SwappedCompanionFilesFailClosed)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string stem = tempDir("table_swap") + "/table";
    saveTableFiles(built, stem);
    fs::rename(stem + kExtSa, stem + ".tmp");
    fs::rename(stem + kExtOcc, stem + kExtSa);
    fs::rename(stem + ".tmp", stem + kExtOcc);
    EXPECT_THROW(loadTableFiles(stem), LoadError);
}

// --- whole-index round trips --------------------------------------------

TEST(IndexRoundTripTest, MonoDirectory)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Mtl));
    const std::string dir = tempDir("idx_mono");
    saveIndex(built, dir);
    const LoadedIndex loaded = loadIndex(dir);
    ASSERT_EQ(loaded.kind, IndexKind::Mono);
    ASSERT_NE(loaded.table, nullptr);
    expectIdenticalSearch(built, *loaded.table);
    EXPECT_GE(loaded.load_seconds, 0.0);
}

TEST(IndexRoundTripTest, TextPlanRoutedDirectory)
{
    // A fixed-width (text-partitioned) plan saves as a Routed index and
    // loads back serving the same hits and stats by broadcast.
    const ShardPlan plan =
        ShardPlan::fixedWidth(testRef().size(), 3, 64);
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), plan, cfg);
    const std::string dir = tempDir("idx_text_plan");
    saveIndex(built, dir);
    const LoadedIndex loaded = loadIndex(dir);
    ASSERT_EQ(loaded.kind, IndexKind::Routed);
    ASSERT_NE(loaded.router, nullptr);
    ASSERT_EQ(loaded.router->shardCount(), built.shardCount());
    EXPECT_EQ(loaded.router->plan().kind(), ShardPlanKind::Text);
    EXPECT_EQ(loaded.router->totalRows(), built.totalRows());

    const auto queries = refQueries(40, 32);
    const RoutedResult rb = built.search(queries);
    const RoutedResult rl = loaded.router->search(queries);
    EXPECT_EQ(rb.hits, rl.hits);
    EXPECT_EQ(rb.stats, rl.stats);
    EXPECT_EQ(rb.per_shard, rl.per_shard);
    EXPECT_EQ(rl.broadcast_queries, queries.size());
    for (const auto &h : rb.hits)
        EXPECT_FALSE(h.empty());
}

TEST(IndexRoundTripTest, RoutedDirectory)
{
    const ShardPlan plan = ShardPlan::kmerPrefix(testRef(), 4, 64);
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), plan, cfg);
    const std::string dir = tempDir("idx_routed");
    saveIndex(built, dir);
    const LoadedIndex loaded = loadIndex(dir);
    ASSERT_EQ(loaded.kind, IndexKind::Routed);
    ASSERT_NE(loaded.router, nullptr);
    ASSERT_EQ(loaded.router->shardCount(), built.shardCount());

    // Every prefix shard serves one monolith: one table file set.
    EXPECT_TRUE(fs::exists(io_detail::shardStem(dir, 0) + kExtOcc));
    EXPECT_FALSE(fs::exists(io_detail::shardStem(dir, 1) + kExtOcc));
    EXPECT_EQ(loaded.router->storedBases(), testRef().size());

    const auto queries = refQueries(40, 32);
    const RoutedResult rb = built.search(queries);
    const RoutedResult rl = loaded.router->search(queries);
    EXPECT_EQ(rb.hits, rl.hits);
    EXPECT_EQ(rb.stats, rl.stats);
    EXPECT_EQ(rb.routed_queries, rl.routed_queries);
    for (const auto &h : rb.hits)
        EXPECT_FALSE(h.empty());
}

TEST(IndexRoundTripTest, RoutedTableLoadHonoursTheLoadFaultSite)
{
    // Probe 1 is the manifest, probe 2 the first table's .pac: routed
    // table loads honour the "io.load" fault site.
    const ShardPlan plan =
        ShardPlan::fixedWidth(testRef().size(), 3, 64);
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), plan, cfg);
    const std::string dir = tempDir("idx_load_fault");
    saveIndex(built, dir);

    ScopedFaultInjector scope(std::make_shared<FaultInjector>(
        FaultInjector::parseSpec("throw@io.load:nth=2")));
    const std::string pac = io_detail::shardStem(dir, 0) + kExtPac;
    try {
        loadIndex(dir);
        ADD_FAILURE() << "injected table load fault did not throw";
    } catch (const LoadError &e) {
        EXPECT_NE(std::string(e.what()).find(pac), std::string::npos)
            << "LoadError must name " << pac << ": " << e.what();
    }
    // The rule fired once: the next load succeeds.
    EXPECT_NE(loadIndex(dir).router, nullptr);
}

TEST(IndexRoundTripTest, OlderVersionFilesFailClosedAskingForRebuild)
{
    // Version 1 carried segment maps and per-shard state words, version
    // 2 the naive occ-index mode and the `.pac` text echo; this format
    // has none of them. A manifest and a table file of either version
    // must each be refused with a rebuild-me LoadError.
    const ShardPlan plan = ShardPlan::kmerPrefix(testRef(), 2, 64);
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), plan, cfg);
    ASSERT_EQ(kFormatVersion, 3u);
    for (const u8 version : {u8{1}, u8{2}}) {
        for (const std::string &file : {std::string(kManifestName),
                                        std::string("shard0000") + kExtOcc}) {
            const std::string dir = tempDir("idx_old_version");
            saveIndex(built, dir);
            ASSERT_NO_THROW(loadIndex(dir));
            patchByte(dir + "/" + file, 8, version); // header.version
            const std::string at = "format version " + std::to_string(version);
            try {
                loadIndex(dir);
                ADD_FAILURE() << file << " at " << at << " loaded";
            } catch (const LoadError &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find(file), std::string::npos) << what;
                EXPECT_NE(what.find(at), std::string::npos) << what;
                EXPECT_NE(what.find("rebuild"), std::string::npos) << what;
            }
        }
    }
}

TEST(IndexRoundTripTest, RetiredAndUnknownKindsFailClosed)
{
    // Kind 1 (the retired per-shard broadcast layout) and kind 3 (never
    // assigned) must be refused even when everything after the kind is
    // a well-formed manifest: rewrite a valid routed manifest with only
    // its kind word changed, in an intact container.
    const ShardPlan plan =
        ShardPlan::fixedWidth(testRef().size(), 2, 64);
    RouterConfig cfg;
    cfg.table = cfgFor(OccIndexMode::Exact);
    const ShardRouter built(testRef(), plan, cfg);
    const std::string dir = tempDir("idx_kinds");
    saveIndex(built, dir);
    const std::string manifest = dir + "/" + kManifestName;
    std::vector<u8> routed_blob;
    {
        const MappedFile file(manifest);
        routed_blob = FileView(file, kMagicManifest).readBlob(1);
    }
    ASSERT_NO_THROW(loadIndex(dir));

    for (const u32 kind : {1u, 3u}) {
        BlobWriter w;
        w.putU32(kind);
        std::vector<u8> blob = routed_blob;
        std::copy(w.bytes().begin(), w.bytes().end(), blob.begin());
        FileBuilder fb(kMagicManifest);
        fb.writeArray<u8>(1, blob);
        fb.save(manifest);
        try {
            loadIndex(dir);
            ADD_FAILURE() << "kind " << kind << " loaded";
        } catch (const LoadError &e) {
            const std::string what = e.what();
            if (kind == 1) {
                EXPECT_NE(what.find("removed"), std::string::npos) << what;
                EXPECT_NE(what.find("rebuild"), std::string::npos) << what;
            } else {
                EXPECT_NE(what.find("unknown index kind 3"),
                          std::string::npos)
                    << what;
            }
        }
    }
}

TEST(IndexRoundTripTest, RetiredAndUnknownOccModesFailClosed)
{
    // Mode 1 (the retired naive learned index) and mode 3 (never
    // assigned) must be refused even when the rest of the `.pac`
    // config echo is well formed: rewrite an intact Exact table's echo
    // with only its mode word changed, in an intact container.
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string dir = tempDir("idx_modes");
    saveIndex(built, dir);
    const std::string pac = dir + "/table" + kExtPac;
    std::vector<u8> exact_blob;
    {
        const MappedFile file(pac);
        exact_blob = FileView(file, kMagicPac).readBlob(1);
    }
    ASSERT_NO_THROW(loadIndex(dir));

    for (const u32 mode : {1u, 3u}) {
        BlobWriter w;
        w.putI32(built.k());
        w.putU32(mode);
        std::vector<u8> blob = exact_blob;
        std::copy(w.bytes().begin(), w.bytes().end(), blob.begin());
        FileBuilder fb(kMagicPac);
        fb.writeArray<u8>(1, blob);
        fb.save(pac);
        try {
            loadIndex(dir);
            ADD_FAILURE() << "mode " << mode << " loaded";
        } catch (const LoadError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(pac), std::string::npos) << what;
            if (mode == 1) {
                EXPECT_NE(what.find("naive"), std::string::npos) << what;
                EXPECT_NE(what.find("removed"), std::string::npos) << what;
                EXPECT_NE(what.find("rebuild"), std::string::npos) << what;
            } else {
                EXPECT_NE(what.find("unknown occ-index mode 3"),
                          std::string::npos)
                    << what;
            }
        }
    }
}

TEST(IndexRoundTripTest, CorruptManifestFailsClosed)
{
    const ExmaTable built(testRef(), cfgFor(OccIndexMode::Exact));
    const std::string dir = tempDir("idx_corrupt_manifest");
    saveIndex(built, dir);
    const std::string manifest = dir + "/" + kManifestName;
    flipByte(manifest, fs::file_size(manifest) - 1);
    EXPECT_THROW(loadIndex(dir), LoadError);
}

} // namespace
} // namespace exma
