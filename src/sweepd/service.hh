/**
 * @file
 * SweepdService — the front end of the forked sweep runner behind
 * the qcc_sweepd binary. It maps SweepdOptions onto the one
 * SweepEngine and hands it the forked job executor (service.cc):
 * each attempt runs in a worker process (worker.hh) over a framed
 * pipe protocol (protocol.hh), so the per-job timeout is a real
 * deadline (SIGKILL + reap, timeout_kind "hard") and a crashing job
 * costs one Failed record, never the service. A worker serves many
 * jobs of one submit: each lane forks one, a crash or a hard timeout
 * replaces it, and every worker is reaped before submit() returns.
 *
 * Workers receive the effective tracing and store configuration
 * (QCC_TRACE, QCC_STORE_DIR, QCC_STORE — setStoreDir/setStoreEnabled
 * overrides included), so the src/store disk tier is a shared
 * cross-process cache, and QCC_JOB_WIDTH = parallelThreads() /
 * concurrency so N concurrent workers split the machine.
 *
 * Resume: every landed record is appended as one line to
 * SWEEP_<name>.journal, and submit() names an existing journal as
 * the engine's resume source, so a killed sweep resubmitted re-runs
 * only the missing jobs and ends byte-identical to an uninterrupted
 * run (docs/sweepd.md). The SWEEP_<name>.json aggregate is written
 * once, when the sweep ends.
 */

#ifndef QCC_SWEEPD_SERVICE_HH
#define QCC_SWEEPD_SERVICE_HH

#include <cstdint>
#include <string>

#include "sweep/sweep_engine.hh"
#include "sweep/sweep_spec.hh"

namespace qcc {
namespace sweepd {

/** Service knobs (overrides of the spec's own hints). */
struct SweepdOptions
{
    /**
     * Binary to exec for workers (invoked as `<path> --worker`);
     * usually the service's own executable (selfExecutablePath).
     */
    std::string workerPath;

    /** Worker-pool width; 0 defers to the spec, then QCC_THREADS. */
    unsigned concurrency = 0;

    /**
     * Hard per-job wall-clock budget in ms; a worker past it is
     * killed and reaped. < 0 defers to the spec's jobTimeoutMs
     * (which the in-process engine could only honor softly); 0
     * disables.
     */
    double jobTimeoutMs = -1.0;

    /** Extra attempts after retryable failures; < 0 defers. */
    int retries = -1;

    /** Give each worker QCC_JOB_WIDTH = threads / concurrency. */
    bool capJobWidth = true;

    /**
     * Adopt completed jobs from an existing SWEEP_<name>.journal
     * (looked up under the QCC_JSON convention) before running;
     * false starts the journal empty.
     */
    bool resume = true;

    /**
     * Journal each landed record: append it as one line to
     * SWEEP_<name>.journal, so a killed service leaves a resumable
     * journal behind. The aggregate is written once, at the end,
     * either way.
     */
    bool writeThrough = true;

    SweepProgressFn progress;
};

/**
 * Cache and store counters summed over every reply of one submit.
 * A worker starts with cold in-process caches and keeps them warm
 * for the rest of the submit: its first lookup of a problem or a
 * circuit reaches the persistent tier, and later lookups of the same
 * one are memory hits. So workers running against a store another
 * process already warmed report zero compileMisses and zero
 * problemBuilds, and problemDiskHits + problemMemHits equals the
 * jobs they ran.
 */
struct WorkerStoreStats
{
    uint64_t compileHits = 0;     ///< compile.cache.hits (mem+disk)
    uint64_t compileMisses = 0;   ///< compile.cache.misses
    uint64_t circuitDiskHits = 0; ///< store.circuit.disk_hits
    uint64_t problemBuilds = 0;   ///< store.problem.builds
    uint64_t problemDiskHits = 0; ///< store.problem.disk_hits
    uint64_t problemMemHits = 0;  ///< store.problem.mem_hits
};

/** Outcome counters for one submit(). */
struct SweepdRunStats
{
    size_t jobs = 0;    ///< expanded job count
    size_t resumed = 0; ///< adopted from the prior document
    size_t ran = 0;     ///< executed in a worker this run
    std::string writtenPath; ///< final aggregate path ("" if disabled)
    /**
     * The named counters of every reply's metrics rider (done and
     * failed), summed: the same snapshots the service merges into
     * its registry, so they equal the registry's change over the
     * submit.
     */
    WorkerStoreStats workers;
};

/** Forked sweep runner (see file comment). */
class SweepdService
{
  public:
    explicit SweepdService(SweepdOptions options);

    /**
     * Run one sweep to completion; blocks. Throws
     * SweepError/SpecError on a malformed spec (before any job
     * runs); per-job failures/crashes/timeouts are recorded, never
     * thrown. `stats` (optional) receives the outcome counters.
     */
    ResultStore submit(const SweepSpec &spec,
                       SweepdRunStats *stats = nullptr);

    /** Resolved worker-pool width for `spec`. */
    unsigned concurrency(const SweepSpec &spec) const;

  private:
    SweepEngineOptions engineOptions() const;

    SweepdOptions opts;
};

/**
 * Absolute path of the running executable (/proc/self/exe), falling
 * back to `argv0` when the proc link is unavailable.
 */
std::string selfExecutablePath(const char *argv0);

} // namespace sweepd
} // namespace qcc

#endif // QCC_SWEEPD_SERVICE_HH
