/**
 * @file
 * Shared pieces of the qcc benchmark: run options, the metric report
 * every run prints, the seeded workload description, and small
 * statistics helpers. README.md in this directory gives the
 * rationale (workload choice, layer map, noise rules).
 */

#ifndef QCCBENCH_BENCH_HH
#define QCCBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sweep/result_store.hh"
#include "sweep/sweep_spec.hh"

namespace qccbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string runDir;   ///< scratch directory owned by this run
    std::string selfPath; ///< this executable (sweepd worker binary)
    std::string commit = "unknown";
    /** When set: time one cold set-up with its store here, then exit. */
    std::string setupRep;
};

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    size_t samples = 0; ///< observations behind the value
};

/** What a run prints: outcome counts, metrics, and failed checks. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, Metric>> metrics;
    std::vector<std::string> failures; ///< the first kMaxFailures
    size_t moreFailures = 0;           ///< failed checks beyond those
    static constexpr size_t kMaxFailures = 50;
    /** Free-form facts for the run envelope (string values). */
    std::map<std::string, std::string> notes;

    void set(const std::string &name, double value,
             const std::string &unit, size_t samples);
    /** Record a failed correctness check. */
    void fail(const std::string &what);
    /** Record a check: fails with `what` unless `ok`. */
    void check(bool ok, const std::string &what)
    {
        if (!ok)
            fail(what);
    }
    bool correct() const { return failures.empty(); }
};

/** A molecular problem a workload needs: catalog name + bond. */
struct ProblemKey
{
    std::string molecule;
    double bond = 0.0; ///< Angstrom, already resolved (never 0)

    bool operator<(const ProblemKey &o) const
    {
        return molecule != o.molecule ? molecule < o.molecule
                                      : bond < o.bond;
    }
};

/**
 * A seeded workload: the sweep each timed pass submits, the problems
 * the set-up builds, and how the passes run. Pass p submits
 * passSpecs[p % passSpecs.size()].
 */
struct Workload
{
    std::string name;
    unsigned concurrency = 1;
    bool processPool = false;    ///< SweepdService instead of SweepEngine
    bool clearCompileCache = false; ///< cold compile cache every pass
    std::vector<qcc::SweepSpec> passSpecs;
    std::vector<ProblemKey> problems; ///< built by the set-up
};

/** Seeded generator: one stream per (run seed, purpose) pair. */
class Rng
{
  public:
    Rng(uint64_t seed, const std::string &stream);

    double uniform() { return double(gen() >> 11) * 0x1.0p-53; }
    size_t below(size_t n) { return size_t(gen() % n); }

    /** A nonzero per-job VQE seed (spec seed 0 means "global"). */
    uint64_t jobSeed() { return 1 + gen() % 2147483646ull; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::mt19937_64 gen;
};

/** Generate a workload from its name and the run seed. */
Workload makeWorkload(const std::string &name, uint64_t seed);

/** Cold set-up, timed passes and the correctness gate (--trace 0). */
void runTimed(const Options &opt, const Workload &w, Report &rep);

/** Traced per-layer run (--trace 1). */
void runTraced(const Options &opt, const Workload &w, Report &rep);

/** @{ Helpers shared by the timed and traced runs. */

/** Wall seconds of a steady clock. */
double nowSeconds();

/** Median (0 for an empty sample). */
double median(std::vector<double> v);

/** Nearest-rank q-quantile, 0 < q < 1 (0 for an empty sample). */
double quantile(std::vector<double> v, double q);

/** Build every problem of `w` through the problem store; seconds. */
double buildProblems(const Workload &w);

/** One submitted pass: wall seconds, records, sweepd worker totals. */
struct PassResult
{
    double seconds = 0.0;
    qcc::ResultStore store{"pass", false};
    uint64_t workerProblemBuilds = 0;
    uint64_t workerProblemDiskHits = 0;
};
PassResult runPass(const Options &opt, const Workload &w,
                   const qcc::SweepSpec &spec, unsigned concurrency);

/** Peak RSS of this process or its largest waited-for child, MB. */
double peakRssMb();

/** @} */

} // namespace qccbench

#endif // QCCBENCH_BENCH_HH
