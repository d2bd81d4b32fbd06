/**
 * @file
 * Fig. 10 — the EXMA table's step-number trade-off:
 *  (a) component sizes vs k at paper scale (SA / index / incr / base),
 *  (b) CPU-baseline throughput of LISA-21 vs EXMA-14..17 and EXMA-15M
 *      (MTL index), using misprediction costs measured on the scaled
 *      tables.
 */

#include "bench_util.hh"

#include "baselines/cpu_model.hh"
#include "fmindex/size_model.hh"

using namespace exma;

namespace {

/**
 * Mean Occ misprediction of @p lookup (IndexLookup(Kmer, u64)) over
 * the k-steps of random searches. Search intervals are exact whatever
 * the index, so the table's trace gives every index the same steps.
 */
template <typename Lookup>
double
measuredError(const ExmaTable &table, const Dataset &ds, Lookup lookup)
{
    u64 error = 0;
    u64 lookups = 0;
    for (const auto &p : bench::patterns(ds, 200)) {
        for (const auto &it : table.traceSearch(p)) {
            error += lookup(it.kmer, it.pos_low).error +
                     lookup(it.kmer, it.pos_high).error;
            lookups += 2;
        }
    }
    return lookups ? static_cast<double>(error) /
                         static_cast<double>(lookups)
                   : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Fig. 10", "EXMA table step-number trade-off");
    const Dataset &ds = bench::dataset("human");

    // (a) closed-form sizes at paper scale.
    {
        std::cout << "--- Fig. 10(a): EXMA table size vs step (3 Gbp) ---\n";
        TextTable t;
        t.header({"step", "SA", "index", "incr", "base", "total"});
        for (int k = 8; k <= 17; ++k) {
            auto s = exmaSizeBytes(3000000000ULL, k);
            t.row({std::to_string(k), TextTable::bytes(s.sa),
                   TextTable::bytes(s.index),
                   TextTable::bytes(s.increments),
                   TextTable::bytes(s.bases),
                   TextTable::bytes(s.total())});
        }
        bench::printTable(t, "10a_table_size_vs_step");
        std::cout << "paper: 15-step = 29.5GB, 16-step = 41.5GB "
                     "(+12GB).\n\n";
    }

    // (b) throughput on the CPU baseline.
    {
        std::cout << "--- Fig. 10(b): CPU-baseline throughput ---\n";
        const auto &lm = bench::lisaMeasurement("human");
        const double scale_up =
            3000000000.0 / static_cast<double>(ds.ref.size());
        const double lisa_err = lm.mean_error * scale_up;

        const NaiveKmerIndex &naive = bench::naiveIndex("human");
        const ExmaTable &mtl = bench::exmaTable("human", OccIndexMode::Mtl);
        const double naive_err =
            measuredError(mtl, ds,
                          [&](Kmer m, u64 pos) { return naive.occ(m, pos); }) *
            scale_up;
        const double mtl_err =
            measuredError(mtl, ds,
                          [&](Kmer m, u64 pos) { return mtl.occ(m, pos); }) *
            scale_up;

        auto exma_fp = [&](int k) {
            return exmaSizeBytes(3000000000ULL, k).total() / 1e9;
        };
        std::vector<CpuScheme> schemes = {
            {"LISA-21", 21,
             lisaSizeBytes(3000000000ULL, 21).total() / 1e9, 0.6,
             lisa_err, false, false},
            {"EXMA-14", 14, exma_fp(14), 0.6, naive_err, false, false},
            {"EXMA-15", 15, exma_fp(15), 0.6, naive_err, false, false},
            {"EXMA-16", 16, exma_fp(16), 0.6, naive_err, false, false},
            {"EXMA-17", 17, exma_fp(17), 0.6, naive_err, false, false},
            {"EXMA-15M", 15, exma_fp(15), 0.3, mtl_err, false, false},
        };
        TextTable t;
        t.header({"scheme", "norm. throughput (x FM-1)", "vs LISA-21"});
        const double lisa_thr = cpuNormalizedThroughput(schemes[0]);
        for (const auto &s : schemes) {
            const double thr = cpuNormalizedThroughput(s);
            t.row({s.name, TextTable::num(thr, 2),
                   TextTable::num(thr / lisa_thr, 2)});
        }
        bench::printTable(t, "10b_cpu_throughput");
        std::cout << "measured mean Occ errors (scaled -> 3 Gbp): naive="
                  << TextTable::num(naive_err, 0)
                  << " mtl=" << TextTable::num(mtl_err, 0) << "\n";
        std::cout << "paper: EXMA-15 trails LISA-21 by 7.3%; EXMA-15M "
                     "(MTL) beats LISA-21 by 75% with half the "
                     "parameters.\n";
        std::cout << "index parameters: naive="
                  << naive.paramCount()
                  << " mtl=" << mtl.indexParamCount() << " lisa="
                  << lm.param_count << "\n";
    }
    return 0;
}
