#include "sweep/sweep_engine.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "common/registry.hh"
#include "compiler/cache.hh"
#include "obs/trace.hh"
#include "store/problem_store.hh"

namespace qcc {

namespace {

/**
 * The failure-classification table, one row per JobFault: the status
 * an attempt lands with, and whether another attempt may help.
 */
struct FaultRule
{
    JobStatus status;
    TimeoutKind timeoutKind;
    bool retry;
};

constexpr FaultRule kFaultRules[] = {
    {JobStatus::Done, TimeoutKind::None, false},     // None
    {JobStatus::TimedOut, TimeoutKind::Soft, false}, // Overran
    {JobStatus::Failed, TimeoutKind::None, false},   // BadInput
    {JobStatus::Failed, TimeoutKind::None, true},    // Threw
    {JobStatus::Failed, TimeoutKind::None, true},    // WorkerLost
    {JobStatus::Failed, TimeoutKind::None, false},   // NoWorker
    {JobStatus::TimedOut, TimeoutKind::Hard, false}, // Deadline
};
static_assert(std::size(kFaultRules) == size_t(JobFault::Deadline) + 1,
              "one failure-classification row per JobFault");

/**
 * Experiment::run on the calling lane, under the job's lane cap. The
 * budget is soft: C++ threads cannot be killed safely, so an attempt
 * runs to completion and is then judged against it.
 */
class InProcessExecutor final : public JobExecutor
{
  public:
    JobFault
    attempt(SweepJobRecord &rec, unsigned lanes,
            double timeout_ms) override
    {
        // Lane capping never changes chunk structure, so capped
        // results stay bit-identical.
        ParallelWidthCap laneCap(lanes);
        const auto t0 = std::chrono::steady_clock::now();
        try {
            Experiment experiment(rec.spec);
            rec.result = experiment.run();
        } catch (const std::exception &e) {
            rec.error = e.what();
            return jobFaultOf(e);
        }
        const std::chrono::duration<double, std::milli> took =
            std::chrono::steady_clock::now() - t0;
        return timeout_ms > 0.0 && took.count() > timeout_ms
                   ? JobFault::Overran
                   : JobFault::None;
    }

    const char *jobSpan() const override { return "sweep.job"; }
};

} // namespace

JobFault
jobFaultOf(const std::exception &error)
{
    if (dynamic_cast<const SpecError *>(&error) ||
        dynamic_cast<const RegistryError *>(&error) ||
        dynamic_cast<const JsonError *>(&error))
        return JobFault::BadInput;
    return JobFault::Threw;
}

SweepEngine::SweepEngine(SweepSpec spec, SweepEngineOptions options,
                         JobExecutor *job_executor)
    : sweepSpec(std::move(spec)), opts(std::move(options)),
      executor(job_executor)
{
    if (opts.concurrency == 0)
        opts.concurrency = sweepSpec.concurrency;
    if (opts.jobTimeoutMs < 0.0)
        opts.jobTimeoutMs = sweepSpec.jobTimeoutMs;
    if (opts.retries < 0)
        opts.retries = sweepSpec.retries;
}

unsigned
SweepEngine::concurrency() const
{
    const unsigned width =
        opts.concurrency ? opts.concurrency : parallelThreads();
    return unsigned(
        std::min<size_t>(width, std::max<size_t>(sweepSpec.jobCount(), 1)));
}

ResultStore
SweepEngine::run()
{
    // Expansion throws on malformed axes — before any job runs.
    const std::vector<ExperimentSpec> jobs = sweepSpec.expand();
    ResultStore store(sweepSpec.name, sweepSpec.emitTimings);
    store.reset(jobs);

    adoptedJobs = 0;
    if (!opts.resumeFrom.empty()) {
        // Only journal lines carry the build key that keeps another
        // build's results out.
        if (!opts.resumeFrom.ends_with(".journal"))
            throw SweepError("(resume)", "not a sweep journal: " +
                                             opts.resumeFrom);
        std::ifstream in(opts.resumeFrom, std::ios::binary);
        if (!in)
            throw SweepError("(resume)",
                             "cannot read " + opts.resumeFrom);
        std::ostringstream buf;
        buf << in.rdbuf();
        adoptedJobs = store.adoptJournal(buf.str());
        if (adoptedJobs)
            inform("sweep: resumed " + std::to_string(adoptedJobs) +
                   " of " + std::to_string(jobs.size()) +
                   " jobs from " + opts.resumeFrom);
    }
    completedJobs = adoptedJobs;

    // The oversubscription fix: at width N, each job's data-parallel
    // sweeps get parallelThreads()/N pool lanes instead of all of
    // them.
    const unsigned width = concurrency();
    const unsigned lanes =
        opts.capJobWidth ? std::max(1u, parallelThreads() / width) : 0;

    InProcessExecutor inProcess;
    JobExecutor &exec = executor ? *executor : inProcess;

    // A journaling executor starts the journal over with the adopted
    // records, so it holds exactly the completed jobs at every
    // moment.
    std::optional<SweepJournal> journal;
    if (const std::string path = sweepJournalPath(sweepSpec.name);
        exec.writeThrough() && !path.empty()) {
        std::string adopted;
        for (const SweepJobRecord &r : store.jobs())
            if (r.status == JobStatus::Done)
                adopted += store.journalLine(r);
        journal.emplace(path, adopted);
    }

    BoundedExecutor(width).run(jobs.size(), [&](size_t i) {
        runJob(i, store, exec, lanes, journal ? &*journal : nullptr);
    });
    return store;
}

void
SweepEngine::runJob(size_t index, ResultStore &store,
                    JobExecutor &exec, unsigned lanes,
                    SweepJournal *journal)
{
    // A non-Pending slot was adopted from a resume document — the
    // whole point is to never re-run it.
    if (store.jobs()[index].status != JobStatus::Pending)
        return;

    SweepJobRecord rec = store.jobs()[index];

    TraceSpan span(exec.jobSpan());
    span.arg("job", index);
    span.arg("molecule", rec.spec.molecule);
    span.arg("lanes", lanes);

    if (cancelToken.cancelled()) {
        rec.status = JobStatus::Skipped;
    } else {
        store.markRunning(index);
        if (opts.coldCompileCache)
            globalCircuitCache().clear();
        if (opts.coldProblemCache)
            globalProblemStore().clearMemory();

        const auto t0 = std::chrono::steady_clock::now();
        const int maxAttempts = 1 + std::max(0, opts.retries);
        for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
            rec.attempts = attempt;
            const JobFault fault =
                exec.attempt(rec, lanes, opts.jobTimeoutMs);
            const FaultRule &rule = kFaultRules[size_t(fault)];
            rec.status = rule.status;
            rec.timeoutKind = rule.timeoutKind;
            if (rec.finished())
                rec.error.clear();
            if (!rule.retry)
                break;
        }
        rec.wallMillis = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    }

    span.arg("status", jobStatusName(rec.status));
    span.arg("attempts", rec.attempts);

    // Record, journal line and progress under one lock: callbacks
    // see a monotonically growing completed count and never
    // interleave, and the journal holds one whole line per completed
    // job when each callback runs (the resume source).
    const std::string line = journal ? store.journalLine(rec) : "";
    std::lock_guard<std::mutex> lock(progressMutex);
    store.record(std::move(rec));
    ++completedJobs;
    if (journal)
        journal->append(line);
    if (opts.progress) {
        SweepProgress p;
        p.completed = completedJobs;
        p.total = store.size();
        p.last = &store.jobs()[index];
        opts.progress(p);
    }
}

} // namespace qcc
