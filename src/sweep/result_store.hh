/**
 * @file
 * Aggregated result store for one sweep: per-job records land in
 * index-addressed slots as workers finish (thread-safe,
 * completion-order independent), each as one line of a
 * SWEEP_<name>.journal when the sweep journals, and serialize as one
 * SWEEP_<name>.json document in job order — per-job status/energy/metrics plus
 * the sweep-level summaries a study reads off directly: best energy
 * per molecule, dissociation-curve tables (bond-sorted energy/HF/
 * FCI rows per molecule), and measurement-settings counts per
 * (molecule, grouping) pair for grouping-strategy comparisons.
 * With timings disabled (SweepSpec.emitTimings = false) and no
 * per-job timeout armed, the document is a pure function of the
 * spec and the seed: identical bytes at concurrency 1 and N. (A
 * soft timeout is inherently wall-clock: whether a borderline job
 * lands done or timed_out depends on machine load, so a spec that
 * arms one gives up byte-stability at the done/timed_out margin.)
 */

#ifndef QCC_SWEEP_RESULT_STORE_HH
#define QCC_SWEEP_RESULT_STORE_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "sweep/sweep_spec.hh"

namespace qcc {

/** Lifecycle of one sweep job. */
enum class JobStatus
{
    Pending,  ///< not yet claimed by a worker
    Running,  ///< claimed, in flight
    Done,     ///< completed; result is valid
    Failed,   ///< threw (spec/registry error or repeated failure)
    TimedOut, ///< completed past the soft per-job budget
    Skipped,  ///< never ran (sweep cancelled first)
};

/** JSON/status-table name ("done", "failed", ...). */
const char *jobStatusName(JobStatus status);

/**
 * How a TimedOut record timed out. Soft is the in-process engine's
 * semantics — the job ran to completion past its budget, so a result
 * exists; Hard is the sweepd forked-worker semantics — the worker
 * was killed at the deadline, so no result exists. None for every
 * other status.
 */
enum class TimeoutKind
{
    None,
    Soft,
    Hard,
};

/** JSON name ("soft"/"hard"; "" for None). */
const char *timeoutKindName(TimeoutKind kind);

/** One job's record. */
struct SweepJobRecord
{
    size_t index = 0;        ///< position in the expanded job list
    ExperimentSpec spec;     ///< the job as expanded (pre-run)
    /** Content hash of `spec` (sweepJobHash): the resume key. */
    std::string specHash;
    JobStatus status = JobStatus::Pending;
    TimeoutKind timeoutKind = TimeoutKind::None;
    int attempts = 0;
    std::string error;       ///< failure diagnostic (Failed)
    double wallMillis = 0.0;
    /** Valid when finished() (the run produced a result). */
    ExperimentResult result;

    /**
     * True when the run produced a valid `result`: Done, or a soft
     * timeout (the job completed, just late). A hard timeout killed
     * the worker mid-run — there is nothing to read.
     */
    bool finished() const
    {
        return status == JobStatus::Done ||
               (status == JobStatus::TimedOut &&
                timeoutKind == TimeoutKind::Soft);
    }

    /**
     * The spec to report: the result's resolved copy once the run
     * finished (bond/shots/seed defaults filled in), the expanded
     * job spec otherwise.
     */
    const ExperimentSpec &effectiveSpec() const
    {
        return finished() ? result.spec : spec;
    }
};

/** Thread-safe, deterministically ordered sweep aggregate. */
class ResultStore
{
  public:
    ResultStore(std::string sweep_name, bool emit_timings);

    /** Install the expanded job list as Pending records. */
    void reset(const std::vector<ExperimentSpec> &jobs);

    /**
     * Resume support: adopt completed jobs from a previously written
     * json() document. A prior "jobs" entry is adopted when its
     * index is in range, its recorded spec_hash matches the current
     * record's (same expanded spec), and its status is "done" — the
     * record becomes Done with the rehydrated result
     * (ExperimentResult::fromJsonDom), original attempts, and
     * original wall_ms, so re-serialization reproduces the adopted
     * record byte for byte. Failed/timed-out/skipped entries are NOT
     * adopted (a resume is the second chance). Returns the number of
     * jobs adopted; throws JsonError when `prior_doc` is not JSON,
     * and silently adopts nothing from a document without a usable
     * jobs array.
     */
    size_t adoptCompleted(const std::string &prior_doc);

    /**
     * Resume support from a SWEEP_<name>.journal: every whole
     * (newline-terminated) line is one jobs[] entry, adopted by the
     * same rule as adoptCompleted when its "build" key equals this
     * binary's buildKey() (common/logging.hh); a line of another
     * build, or without the key, is not adoptable. The last line for
     * an index decides, so a later line that is not adoptable
     * un-adopts an earlier one. A torn last line, or a whole line
     * that does not parse, is ignored. Returns the number of jobs
     * adopted.
     */
    size_t adoptJournal(const std::string &journal);

    /**
     * `record` as one journal line, newline included: the aggregate's
     * jobs[] entry from the same record writer, on one line, led by
     * this binary's "build" key.
     */
    std::string journalLine(const SweepJobRecord &record) const;

    /** Record one finished/failed/skipped job (thread-safe). */
    void record(SweepJobRecord record);

    /** Mark a job Running (thread-safe; progress display). */
    void markRunning(size_t index);

    const std::string &name() const { return sweepName; }
    size_t size() const { return records.size(); }

    /** Job records in index order (engine finished; no locking). */
    const std::vector<SweepJobRecord> &jobs() const
    {
        return records;
    }

    size_t countWithStatus(JobStatus status) const;

    /**
     * The aggregate document: summary counters, best energy per
     * molecule, dissociation curves, grouping settings-counts, and
     * the per-job records in job order.
     */
    std::string json() const;

    /**
     * Write json() as SWEEP_<name>.json under the QCC_JSON
     * convention; returns the path written ("" when disabled).
     */
    std::string write() const;

    /** Write json() to an explicit path ("" on IO failure). */
    std::string writeTo(const std::string &path) const;

  private:
    /**
     * The per-record adoption rule (caller holds the lock); an entry
     * not of `this_build` is treated as not adoptable.
     */
    bool adoptEntry(const JsonValue &entry, bool this_build);

    std::string sweepName;
    bool emitTimings;
    // Behind a pointer so the store itself stays movable (the
    // engine returns it by value once the workers have joined).
    mutable std::unique_ptr<std::mutex> mutex;
    std::vector<SweepJobRecord> records;
};

/**
 * SWEEP_<name>.journal under the QCC_JSON convention ("" when
 * QCC_JSON disables output): the resume source of a journaling
 * sweep, beside its SWEEP_<name>.json.
 */
std::string sweepJournalPath(const std::string &sweep_name);

/**
 * An append-only sweep journal: one ResultStore::journalLine per
 * landed record, each appended with one write(2) on an O_APPEND
 * descriptor, so a kill at any moment leaves whole lines and at most
 * one torn last line. The writer never rewrites what it appended:
 * the per-record cost does not grow with the sweep.
 */
class SweepJournal
{
  public:
    /**
     * Start `path` over holding `lines` (whole journal lines,
     * written atomically), then open it for appends. A path that
     * cannot be written warns and journals nothing.
     */
    SweepJournal(const std::string &path, const std::string &lines);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Append one line. The first failed append warns and stops the
     * journal, so no later line lands behind a torn one.
     */
    void append(const std::string &line);

  private:
    std::string filePath;
    int fd = -1;
};

} // namespace qcc

#endif // QCC_SWEEP_RESULT_STORE_HH
