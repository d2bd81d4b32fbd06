/**
 * @file
 * Fig. 13 — prediction errors of the naive per-k-mer learned index vs
 * the MTL index, for the two heaviest populated increment-count
 * classes (the paper's learn-256K / learn-1M vs MTL-256K / MTL-1M).
 */

#include "bench_util.hh"

#include "common/stats.hh"

#include "learned/mtl_index.hh"

using namespace exma;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Fig. 13", "naive vs MTL index prediction errors");
    const ExmaTable &mtl = bench::exmaTable("human", OccIndexMode::Mtl);
    const NaiveKmerIndex &naive = bench::naiveIndex("human");
    const KmerOccTable &occ = mtl.occTable();

    // Find the two heaviest populated classes with models.
    const u64 threshold = std::max<u64>(
        32, static_cast<u64>(256.0 * bench::scale()));
    std::vector<int> classes;
    for (int c = MtlIndex::kNumClasses - 1; c >= 2 && classes.size() < 2;
         --c) {
        for (Kmer m = 0; m < kmerSpace(occ.k()); ++m) {
            if (MtlIndex::classOf(occ.frequency(m)) == c &&
                occ.frequency(m) > threshold) {
                classes.push_back(c);
                break;
            }
        }
    }

    Rng rng(17);
    TextTable t;
    t.header({"index/class", "min", "p25", "p50", "p75", "max", "mean"});
    for (int cls : classes) {
        std::vector<double> naive_err, mtl_err;
        for (Kmer m = 0; m < kmerSpace(occ.k()); ++m) {
            if (MtlIndex::classOf(occ.frequency(m)) != cls ||
                occ.frequency(m) <= threshold)
                continue;
            for (int s = 0; s < 64; ++s) {
                const u64 pos = rng.below(occ.rows() + 1);
                naive_err.push_back(
                    static_cast<double>(naive.occ(m, pos).error));
                mtl_err.push_back(
                    static_cast<double>(mtl.occ(m, pos).error));
            }
        }
        auto ns = summarize(naive_err);
        auto ms = summarize(mtl_err);
        const std::string label = MtlIndex::className(cls);
        t.row({"learn-" + label, TextTable::num(ns.min, 0),
               TextTable::num(ns.p25, 0), TextTable::num(ns.p50, 0),
               TextTable::num(ns.p75, 0), TextTable::num(ns.max, 0),
               TextTable::num(ns.mean, 1)});
        t.row({"MTL-" + label, TextTable::num(ms.min, 0),
               TextTable::num(ms.p25, 0), TextTable::num(ms.p50, 0),
               TextTable::num(ms.p75, 0), TextTable::num(ms.max, 0),
               TextTable::num(ms.mean, 1)});
    }
    bench::printTable(t);

    std::cout << "\nindex parameters: naive=" << naive.paramCount()
              << "  MTL=" << mtl.indexParamCount() << "\n";
    std::cout << "paper (3 Gbp): naive means 917 / 2133 vs MTL means "
                 "45 / 182 for the 64K-256K and >1M classes — MTL cuts "
                 "errors by an order of magnitude with fewer "
                 "parameters.\n";
    return 0;
}
