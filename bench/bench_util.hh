/**
 * @file
 * Shared plumbing for the per-figure benchmark harnesses: dataset
 * construction at reproduction scale, EXMA table building, CPU-baseline
 * and accelerator runs, and paper-style table printing.
 *
 * Scale: every harness runs at `EXMA_BENCH_SCALE` x the DESIGN.md
 * default dataset sizes (human 8 Mbp / picea 20 Mbp / pinus 31 Mbp).
 * The default bench scale is 0.25 so the full suite finishes in
 * minutes; set EXMA_BENCH_SCALE=1 for the full reproduction scale.
 */

#ifndef EXMA_BENCH_BENCH_UTIL_HH
#define EXMA_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "baselines/device_models.hh"
#include "common/table.hh"
#include "core/exma_table.hh"
#include "genome/reads.hh"
#include "genome/reference.hh"
#include "learned/naive_kmer_index.hh"
#include "lisa/lisa.hh"

namespace exma {
namespace bench {

/** EXMA_BENCH_SCALE (default 0.25). */
double scale();

/**
 * Harness entry hook: consumes `--json <path>` from argv (falling back
 * to the EXMA_BENCH_JSON environment variable; argc/argv are compacted
 * in place so later argument parsing never re-sees the flag) and
 * remembers the harness name for the JSON report. Every harness calls
 * this first; with no JSON destination configured it is a no-op. The
 * report is written when the process exits normally.
 */
void init(int &argc, char **argv);

/**
 * The one implementation of the JSON-destination convention: consume
 * `--json <path>` / `--json=<path>` from argv (compacting it and
 * updating @p argc), falling back to EXMA_BENCH_JSON. Returns "" when
 * no destination is configured. init() uses this; harnesses with
 * their own argument parsing (bench_micro_kernels) call it directly.
 */
std::string jsonDestination(int &argc, char **argv);

/**
 * Scaled dataset (cached per process). When EXMA_REF_FASTA names a
 * FASTA file, its concatenated records replace the synthetic reference
 * for every dataset name (k values rescaled to the real size);
 * otherwise the synthetic generator runs at scale().
 */
const Dataset &dataset(const std::string &name);

/** Print a figure banner (and open a figure section in the report). */
void banner(const std::string &fig, const std::string &what);

/**
 * Print @p t to stdout and, when a JSON destination is configured,
 * record it under the current banner's figure section. Cells that
 * parse fully as numbers are emitted as JSON numbers.
 */
void printTable(const TextTable &t, const std::string &title = "");

/** Record a free-standing key/number pair in the current section. */
void note(const std::string &key, double value);

/** Geometric mean. */
double gmean(const std::vector<double> &v);

/** EXMA table config tuned for the scaled dataset. */
ExmaTable::Config exmaConfig(const Dataset &ds, OccIndexMode mode);

/** Build (and cache per dataset+mode) an EXMA table. */
const ExmaTable &exmaTable(const std::string &dataset_name,
                           OccIndexMode mode);

/**
 * The naive per-k-mer learned index (§IV.A, the Figs. 10/12/13
 * strawman), built in memory over the Mtl table's KmerOccTable and
 * cached per dataset.
 */
const NaiveKmerIndex &naiveIndex(const std::string &dataset_name);

/** Wall-clock seconds exmaTable()'s build took (builds if needed) —
 *  the denominator of the persistent-index load-vs-build ratio. */
double exmaBuildSeconds(const std::string &dataset_name, OccIndexMode mode);

/** Error-free search patterns for throughput runs (101 bp seeds). */
std::vector<std::vector<Base>> patterns(const Dataset &ds, u64 count,
                                        u64 len = 101);

/** Measured LISA learned-index stats on a dataset (cached). */
struct LisaMeasurement
{
    double mean_error = 0.0;
    double extra_lines = 0.0; ///< 12-byte entries -> 64B lines
    std::vector<double> error_samples;
    u64 param_count = 0;
};
const LisaMeasurement &lisaMeasurement(const std::string &dataset_name);

/** CPU-baseline (software LISA-21) search throughput via the chain
 *  engine, in Mbase/s. */
double cpuSearchMbases(const std::string &dataset_name);

/** Full-EXMA accelerator throughput on a dataset, in Mbase/s. */
AcceleratorResult exmaAccelRun(const std::string &dataset_name,
                               bool two_stage, PagePolicy policy,
                               u64 n_queries = 0);

/** FM-search speedup of full EXMA over the CPU baseline (cached). */
double fmSpeedup(const std::string &dataset_name);

} // namespace bench
} // namespace exma

#endif // EXMA_BENCH_BENCH_UTIL_HH
