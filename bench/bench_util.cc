#include "bench_util.hh"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>

#include "common/json.hh"
#include "common/logging.hh"
#include "fmindex/suffix_array.hh"
#include "genome/fasta.hh"

namespace exma {
namespace bench {

// ---------------------------------------------------------------------------
// JSON report: one document per harness run, written at process exit to
// the --json / EXMA_BENCH_JSON destination. Figure sections are opened
// by banner(); printTable()/note() append to the most recent section.
// ---------------------------------------------------------------------------

namespace {

struct JsonTable
{
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
};

struct JsonFigure
{
    std::string figure;
    std::string what;
    std::vector<std::pair<std::string, double>> notes;
    std::vector<JsonTable> tables;
};

/** Full parse of @p s as a finite double ("1.23" yes, "1.23x" no). */
bool
asNumber(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

struct JsonReport
{
    std::string path;
    std::string harness;
    std::vector<JsonFigure> figures;

    ~JsonReport() { write(); }

    JsonFigure &
    current()
    {
        if (figures.empty())
            figures.emplace_back();
        return figures.back();
    }

    void
    write() const
    {
        if (path.empty())
            return;
        std::ofstream os(path);
        if (!os) {
            std::cerr << "bench: cannot write JSON report to " << path
                      << "\n";
            return;
        }
        JsonWriter w(os);
        w.beginObject()
            .field("harness", harness)
            .field("scale", scale());
        w.key("figures").beginArray();
        for (const JsonFigure &fig : figures) {
            w.beginObject()
                .field("figure", fig.figure)
                .field("what", fig.what);
            w.key("notes").beginObject();
            for (const auto &kv : fig.notes)
                w.field(kv.first, kv.second);
            w.endObject();
            w.key("tables").beginArray();
            for (const JsonTable &t : fig.tables) {
                w.beginObject().field("title", t.title);
                w.key("columns").beginArray();
                for (const std::string &c : t.columns)
                    w.value(c);
                w.endArray();
                w.key("rows").beginArray();
                for (const auto &row : t.rows) {
                    w.beginObject();
                    for (size_t i = 0; i < row.size(); ++i) {
                        const std::string col =
                            i < t.columns.size() && !t.columns[i].empty()
                                ? t.columns[i]
                                : "col" + std::to_string(i);
                        double num = 0.0;
                        if (asNumber(row[i], &num))
                            w.field(col, num);
                        else
                            w.field(col, row[i]);
                    }
                    w.endObject();
                }
                w.endArray().endObject();
            }
            w.endArray().endObject();
        }
        w.endArray().endObject();
        os << "\n";
    }
};

JsonReport &
report()
{
    static JsonReport r;
    return r;
}

} // namespace

std::string
jsonDestination(int &argc, char **argv)
{
    std::string path;
    int w = 0;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            path = argv[++i];
        else if (i > 0 && std::strncmp(argv[i], "--json=", 7) == 0)
            path = argv[i] + 7;
        else
            argv[w++] = argv[i];
    }
    argc = w;
    if (path.empty()) {
        // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup,
        // before any worker thread exists; nothing writes the env.
        const char *env = std::getenv("EXMA_BENCH_JSON");
        if (env && *env)
            path = env;
    }
    return path;
}

void
init(int &argc, char **argv)
{
    JsonReport &r = report();
    if (argc > 0 && argv[0]) {
        const std::string exe = argv[0];
        const size_t slash = exe.find_last_of('/');
        r.harness = slash == std::string::npos ? exe : exe.substr(slash + 1);
    }
    r.path = jsonDestination(argc, argv);
}

void
printTable(const TextTable &t, const std::string &title)
{
    t.print(std::cout);
    JsonReport &r = report();
    if (r.path.empty())
        return;
    JsonTable jt;
    jt.title = title;
    jt.columns = t.headerCells();
    jt.rows = t.rowCells();
    r.current().tables.push_back(std::move(jt));
}

void
note(const std::string &key, double value)
{
    JsonReport &r = report();
    if (!r.path.empty())
        r.current().notes.emplace_back(key, value);
}

double
scale()
{
    static const double s = [] {
        // NOLINTNEXTLINE(concurrency-mt-unsafe): once, inside a
        // static initializer; no concurrent env mutation.
        const char *env = std::getenv("EXMA_BENCH_SCALE");
        if (!env)
            return 0.25;
        const double v = std::atof(env);
        return v > 0.0 ? v : 0.25;
    }();
    return s;
}

namespace {

/**
 * Real-genome mode (ROADMAP "Real-genome FASTA workloads"): when
 * EXMA_REF_FASTA points at a FASTA file, every named dataset swaps the
 * synthetic reference for the file's records (concatenated, with
 * per-record spans kept for shard planning), the k values rescaled to
 * the file's actual size. The file is parsed exactly once per process
 * — the record list here is shared by every dataset-name construction
 * (the old code re-read and re-parsed the file on every cache miss).
 * Empty when the variable is unset, i.e. the synthetic fallback
 * applies.
 */
const std::vector<FastaRecord> &
fastaRecords()
{
    static const std::vector<FastaRecord> records = [] {
        std::vector<FastaRecord> out;
        // NOLINTNEXTLINE(concurrency-mt-unsafe): once, inside a
        // static initializer; no concurrent env mutation.
        const char *path = std::getenv("EXMA_REF_FASTA");
        if (!path || !*path)
            return out;
        FastaParseStats st;
        out = readFastaFile(path, &st);
        if (out.empty())
            exma_fatal("EXMA_REF_FASTA=%s holds no FASTA records", path);
        exma_inform("EXMA_REF_FASTA: %s (%llu records, %llu bases) "
                    "replaces the synthetic references",
                    path, (unsigned long long)st.records,
                    (unsigned long long)st.bases);
        return out;
    }();
    return records;
}

} // namespace

const Dataset &
dataset(const std::string &name)
{
    static std::map<std::string, Dataset> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        const auto &records = fastaRecords();
        if (!records.empty())
            it = cache.emplace(name,
                               makeDatasetFromRecords(name, records))
                     .first;
        else
            it = cache.emplace(name, makeDataset(name, scale())).first;
    }
    return it->second;
}

void
banner(const std::string &fig, const std::string &what)
{
    std::cout << "\n=== " << fig << ": " << what << " ===\n"
              << "(scale=" << scale() << " of DESIGN.md defaults; "
              << "set EXMA_BENCH_SCALE to change)\n\n";
    JsonReport &r = report();
    if (!r.path.empty()) {
        JsonFigure f;
        f.figure = fig;
        f.what = what;
        r.figures.push_back(std::move(f));
    }
}

double
gmean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += std::log(std::max(x, 1e-12));
    return std::exp(acc / static_cast<double>(v.size()));
}

ExmaTable::Config
exmaConfig(const Dataset &ds, OccIndexMode mode)
{
    ExmaTable::Config cfg;
    cfg.k = ds.exma_k;
    cfg.mode = mode;
    // Leaf granularity and the modelling threshold scale with dataset
    // size so the model-vs-data ratio matches the paper's operating
    // point (256-increment threshold at 3 Gbp).
    cfg.mtl.leaf_size = std::max<u64>(
        32, static_cast<u64>(512.0 * scale()));
    cfg.mtl.min_increments = std::max<u64>(
        32, static_cast<u64>(256.0 * scale()));
    cfg.mtl.epochs = 120;
    cfg.mtl.samples_per_class = 4096;
    return cfg;
}

namespace {

/** Wall-clock build seconds of each cached table, keyed like the cache. */
std::map<std::pair<std::string, int>, double> &
buildSecondsMap()
{
    static std::map<std::pair<std::string, int>, double> m;
    return m;
}

} // namespace

const ExmaTable &
exmaTable(const std::string &dataset_name, OccIndexMode mode)
{
    static std::map<std::pair<std::string, int>, std::unique_ptr<ExmaTable>>
        cache;
    const auto key = std::make_pair(dataset_name, static_cast<int>(mode));
    auto it = cache.find(key);
    if (it == cache.end()) {
        const Dataset &ds = dataset(dataset_name);
        const auto t0 = std::chrono::steady_clock::now();
        it = cache.emplace(key, std::make_unique<ExmaTable>(
                                     ds.ref, exmaConfig(ds, mode)))
                 .first;
        buildSecondsMap()[key] =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
    }
    return *it->second;
}

const NaiveKmerIndex &
naiveIndex(const std::string &dataset_name)
{
    static std::map<std::string, std::unique_ptr<NaiveKmerIndex>> cache;
    auto it = cache.find(dataset_name);
    if (it == cache.end()) {
        const ExmaTable &table = exmaTable(dataset_name, OccIndexMode::Mtl);
        // Same threshold as the MTL index; coarser leaves, since each
        // k-mer pays for its own hierarchy.
        NaiveKmerIndex::Config cfg;
        cfg.leaf_size = std::max<u64>(
            256, static_cast<u64>(4096.0 * scale()));
        cfg.min_increments = table.config().mtl.min_increments;
        cfg.epochs = 20;
        it = cache.emplace(dataset_name, std::make_unique<NaiveKmerIndex>(
                                             table.occTable(), cfg))
                 .first;
    }
    return *it->second;
}

double
exmaBuildSeconds(const std::string &dataset_name, OccIndexMode mode)
{
    exmaTable(dataset_name, mode); // ensure the build happened
    return buildSecondsMap()[std::make_pair(dataset_name,
                                            static_cast<int>(mode))];
}

std::vector<std::vector<Base>>
patterns(const Dataset &ds, u64 count, u64 len)
{
    return samplePatterns(ds.ref, count, len, 12345);
}

const LisaMeasurement &
lisaMeasurement(const std::string &dataset_name)
{
    static std::map<std::string, LisaMeasurement> cache;
    auto it = cache.find(dataset_name);
    if (it != cache.end())
        return it->second;

    const Dataset &ds = dataset(dataset_name);
    IpBwt ipbwt(ds.ref, ds.lisa_k);
    Lisa::Config cfg;
    cfg.group_symbols = std::min(8, ds.lisa_k / 2);
    cfg.leaf_size = std::max<u64>(
        64, static_cast<u64>(4096.0 * scale()));
    Lisa lisa(ipbwt, cfg);

    LisaStats stats;
    auto pats = patterns(ds, 400);
    for (const auto &p : pats)
        lisa.search(p, &stats);

    LisaMeasurement m;
    m.mean_error =
        stats.iterations
            ? static_cast<double>(stats.total_error) /
                  static_cast<double>(stats.iterations)
            : 0.0;
    m.extra_lines = m.mean_error * 12.0 / 64.0;
    m.error_samples = std::move(stats.error_samples);
    m.param_count = lisa.paramCount();
    it = cache.emplace(dataset_name, std::move(m)).first;
    return it->second;
}

double
cpuSearchMbases(const std::string &dataset_name)
{
    static std::map<std::string, double> cache;
    auto it = cache.find(dataset_name);
    if (it != cache.end())
        return it->second;

    const Dataset &ds = dataset(dataset_name);
    const auto &lm = lisaMeasurement(dataset_name);
    // The CPU baseline runs LISA-21 (§V "Schemes"); its IP-BWT footprint
    // at this scale:
    const u64 footprint = std::max<u64>(
        u64{1} << 22, static_cast<u64>(ds.ref.size()) * 12);
    ChainSpec spec =
        cpuLisaSpec(footprint, ds.lisa_k, lm.extra_lines);
    spec.iterations = 30000;
    auto r = runChainWorkload(spec, DramConfig::ddr4_2400());
    const double mbases = r.mbasesPerSecond();
    cache.emplace(dataset_name, mbases);
    return mbases;
}

AcceleratorResult
exmaAccelRun(const std::string &dataset_name, bool two_stage,
             PagePolicy policy, u64 n_queries)
{
    const Dataset &ds = dataset(dataset_name);
    const ExmaTable &table = exmaTable(dataset_name, OccIndexMode::Mtl);
    if (n_queries == 0)
        n_queries = static_cast<u64>(600.0 * scale() * 4.0);
    AcceleratorConfig cfg;
    cfg.two_stage_scheduling = two_stage;
    // Keep the paper's cache-to-working-set pressure at reproduction
    // scale: the Table I 1MB/32KB caches face a 4.3GB base array and a
    // ~750MB index at 3 Gbp; shrink proportionally (floored so sets
    // stay sane). See EXPERIMENTS.md "scaling".
    const auto sizes = table.sizeReport();
    cfg.base_cache_bytes = std::clamp<u64>(sizes.bases_raw / 64,
                                           u64{8} << 10, u64{1} << 20);
    cfg.index_cache_bytes = std::clamp<u64>(sizes.index_bytes / 16,
                                            u64{2} << 10, u64{32} << 10);
    DramConfig dram = DramConfig::ddr4_2400();
    dram.page_policy = policy;
    ExmaAccelerator accel(table, cfg, dram);
    return accel.run(patterns(ds, n_queries));
}

double
fmSpeedup(const std::string &dataset_name)
{
    static std::map<std::string, double> cache;
    auto it = cache.find(dataset_name);
    if (it != cache.end())
        return it->second;
    const double cpu = cpuSearchMbases(dataset_name);
    const auto accel =
        exmaAccelRun(dataset_name, true, PagePolicy::Dynamic);
    const double speedup =
        cpu > 0.0 ? accel.mbasesPerSecond() / cpu : 1.0;
    cache.emplace(dataset_name, speedup);
    return speedup;
}

} // namespace bench
} // namespace exma
