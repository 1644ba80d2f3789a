/**
 * @file
 * SweepEngine — the one sweep runner. An engine expands a SweepSpec
 * to an ordered job list and owns everything about running it:
 * resume adoption, width/timeout/retry resolution, the per-job lane
 * cap, the attempt loop with its failure-classification table, and
 * record landing (record, journal line, progress) under one lock.
 * Records land in the ResultStore's index-addressed slots, so
 * completion order never leaks into the aggregate, which the caller
 * writes once the sweep ends.
 *
 * Where an attempt runs is the JobExecutor seam. The default runs it
 * in-process on the engine's lanes, sharing the process-wide
 * CircuitCache, MolecularProblemStore and gradient BufferPool (the
 * throughput lever bench_sweep measures); its timeout is soft, since
 * C++ threads cannot be killed safely. sweepd's forked executor runs
 * each attempt in a long-lived worker process, with a hard deadline
 * and crash isolation, and journals every landed record so a killed
 * sweep resumes (docs/architecture.md compares the two).
 *
 * Failure policy: spec, registry and JSON errors fail a job after one
 * attempt, other failures retry up to the configured budget, and
 * every failure is recorded — one bad job never sinks the sweep.
 * Cancellation is cooperative: requestCancel() (from a progress
 * callback or another thread) lets in-flight jobs finish and marks
 * every unclaimed job Skipped.
 */

#ifndef QCC_SWEEP_SWEEP_ENGINE_HH
#define QCC_SWEEP_SWEEP_ENGINE_HH

#include <exception>
#include <functional>

#include "common/parallel.hh"
#include "sweep/result_store.hh"
#include "sweep/sweep_spec.hh"

namespace qcc {

/** Snapshot handed to the progress callback after each job. */
struct SweepProgress
{
    size_t completed = 0; ///< jobs no longer pending/running
    size_t total = 0;
    /** The record that just landed (valid during the callback). */
    const SweepJobRecord *last = nullptr;
};

/**
 * Called after every job record lands, serialized under one lock
 * (callbacks never interleave). The callback may call
 * SweepEngine::requestCancel() to stop the sweep.
 */
using SweepProgressFn = std::function<void(const SweepProgress &)>;

/** Engine execution knobs (overrides of the spec's own hints). */
struct SweepEngineOptions
{
    /** Worker width; 0 defers to the spec, then QCC_THREADS. */
    unsigned concurrency = 0;

    /**
     * Per-attempt budget in ms; < 0 defers to the spec, 0 disables.
     * Soft in-process, a hard deadline on the forked executor.
     */
    double jobTimeoutMs = -1.0;

    /** Extra attempts after retryable failures; < 0 defers. */
    int retries = -1;

    /**
     * Clear the global CircuitCache before every job: the
     * cold-cache baseline the sweep bench compares against. Only
     * meaningful at concurrency 1 (a concurrent clear just thrashes
     * the other workers).
     */
    bool coldCompileCache = false;

    /**
     * Clear the global MolecularProblemStore memo before every job
     * (same baseline role and concurrency-1 caveat as
     * coldCompileCache). Neither flag touches the persistent disk
     * tier — benches point QCC_STORE_DIR elsewhere (or disable it)
     * to get a truly cold run.
     */
    bool coldProblemCache = false;

    /**
     * Cap each job's data-parallel width to parallelThreads() /
     * concurrency() lanes (at least 1), so N concurrent jobs split
     * the machine instead of each sizing its sweeps to all of it
     * (nested-parallelism oversubscription). In-process this is a
     * ParallelWidthCap, in a worker QCC_JOB_WIDTH; either way
     * results are bit-identical.
     */
    bool capJobWidth = true;

    /**
     * Path of a SWEEP_*.journal to resume from: completed jobs of
     * this build whose recorded spec_hash still matches are adopted
     * (never re-run), everything else runs normally. The journal
     * adopts its whole lines and ignores a torn last one
     * (ResultStore::adoptJournal). "" disables; a path that does not
     * end in ".journal" (an aggregate carries no build key) or a
     * missing/unreadable file throws SweepError before any job runs.
     */
    std::string resumeFrom;

    SweepProgressFn progress;
};

/** How one attempt at a job ended (None: it produced a result). */
enum class JobFault
{
    None,
    Overran,    ///< produced a result, but past the soft budget
    BadInput,   ///< SpecError, RegistryError or JsonError
    Threw,      ///< any other exception from the experiment stack
    WorkerLost, ///< the worker died, refused the job or sent garbage
    NoWorker,   ///< the worker process could not be started
    Deadline,   ///< killed at the hard per-job deadline
};

/** BadInput for errors that fail the same way every time, else Threw. */
JobFault jobFaultOf(const std::exception &error);

/**
 * Where a sweep's job attempts run (see the file comment). Called
 * from the engine's concurrent lanes.
 */
class JobExecutor
{
  public:
    virtual ~JobExecutor() = default;

    /**
     * One attempt at `rec.spec` within `timeout_ms` (0 = no budget):
     * fill `rec.result` and return None or Overran, or set
     * `rec.error` and return the fault. `lanes` caps the job's pool
     * lanes (0 = uncapped).
     */
    virtual JobFault attempt(SweepJobRecord &rec, unsigned lanes,
                             double timeout_ms) = 0;

    /** Name of the per-job trace span. */
    virtual const char *jobSpan() const = 0;

    /**
     * Journal every landed record: one line appended to
     * SWEEP_<name>.journal (sweepJournalPath), the resume source a
     * killed run leaves behind.
     */
    virtual bool writeThrough() const { return false; }
};

/** A validated, runnable sweep. */
class SweepEngine
{
  public:
    /**
     * `executor` runs the job attempts (not owned; it must outlive
     * run()); null runs them in-process on the engine's lanes.
     */
    explicit SweepEngine(SweepSpec spec,
                         SweepEngineOptions options = {},
                         JobExecutor *executor = nullptr);

    const SweepSpec &spec() const { return sweepSpec; }

    /**
     * Lanes run() uses: the option, then the spec's hint, then
     * QCC_THREADS, at most one per job.
     */
    unsigned concurrency() const;

    /**
     * Run every job; blocks until the sweep finishes (or every
     * remaining job is skipped after a cancel). The returned store
     * holds one record per job in job order.
     */
    ResultStore run();

    /** Cooperative cancel: unclaimed jobs become Skipped. */
    void requestCancel() { cancelToken.requestCancel(); }

    bool cancelled() const { return cancelToken.cancelled(); }

    /** Jobs adopted from resumeFrom by the last run() (never re-run). */
    size_t adopted() const { return adoptedJobs; }

  private:
    void runJob(size_t index, ResultStore &store, JobExecutor &exec,
                unsigned lanes, SweepJournal *journal);

    SweepSpec sweepSpec;
    SweepEngineOptions opts;
    JobExecutor *executor;
    CancellationToken cancelToken;
    std::mutex progressMutex;
    size_t completedJobs = 0;
    size_t adoptedJobs = 0;
};

} // namespace qcc

#endif // QCC_SWEEP_SWEEP_ENGINE_HH
