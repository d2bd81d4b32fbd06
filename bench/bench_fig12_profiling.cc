/**
 * @file
 * Fig. 12 — profiling EXMA with the naive learned index: (a) the share
 * of k-mers in each increment-count class is tiny for heavy classes,
 * yet (b) those classes consume a disproportionate share of search
 * time (misprediction-driven linear search).
 */

#include "bench_util.hh"

#include "learned/mtl_index.hh"

using namespace exma;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Fig. 12", "per-increment-class population and search "
                             "time (naive learned index)");
    const Dataset &ds = bench::dataset("human");
    const ExmaTable &table = bench::exmaTable("human", OccIndexMode::Mtl);
    const NaiveKmerIndex &naive = bench::naiveIndex("human");
    const KmerOccTable &occ = table.occTable();

    // (a) population per class.
    u64 class_pop[MtlIndex::kNumClasses] = {};
    u64 total_kmers = 0;
    for (Kmer m = 0; m < kmerSpace(occ.k()); ++m) {
        ++class_pop[MtlIndex::classOf(occ.frequency(m))];
        ++total_kmers;
    }

    // (b) search-time share per class, using the naive index's
    // correction probes as the time proxy (each probe is one memory
    // touch). Search intervals are exact whatever the index, so the
    // Mtl table's trace visits the steps a naive-indexed search would.
    double class_time[MtlIndex::kNumClasses] = {};
    double total_time = 0.0;
    auto pats = bench::patterns(ds, 400);
    for (const auto &p : pats) {
        auto trace = table.traceSearch(p);
        for (const auto &it : trace) {
            const int cls = MtlIndex::classOf(occ.frequency(it.kmer));
            const double cost = static_cast<double>(
                2 + naive.occ(it.kmer, it.pos_low).probes +
                naive.occ(it.kmer, it.pos_high).probes);
            class_time[cls] += cost;
            total_time += cost;
        }
    }

    TextTable t;
    t.header({"increment #", "k-mer share %", "search time share %"});
    for (int c = 0; c < MtlIndex::kNumClasses; ++c) {
        if (class_pop[c] == 0)
            continue;
        t.row({MtlIndex::className(c),
               TextTable::num(100.0 * static_cast<double>(class_pop[c]) /
                                  static_cast<double>(total_kmers),
                              4),
               TextTable::num(total_time > 0
                                  ? 100.0 * class_time[c] / total_time
                                  : 0.0,
                              1)});
    }
    bench::printTable(t);
    std::cout << "\npaper: 2.5E-5% of 15-mers fall in 64K-256K yet eat "
                 "36% of search time; the heaviest classes dominate "
                 "cost, motivating the MTL index.\n";
    return 0;
}
