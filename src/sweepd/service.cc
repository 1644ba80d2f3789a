#include "sweepd/service.hh"

#include <cstdio>
#include <fstream>

#include <unistd.h>

#include "common/logging.hh"
#include "common/subprocess.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/store.hh"
#include "sweepd/protocol.hh"
#include "sweepd/worker.hh"

namespace qcc {
namespace sweepd {

namespace {

using W = WorkerStoreStats;

/** The metrics-rider counters WorkerStoreStats sums, by name. */
constexpr std::pair<uint64_t W::*, const char *> kWorkerCounters[] = {
    {&W::compileHits, "compile.cache.hits"},
    {&W::compileMisses, "compile.cache.misses"},
    {&W::circuitDiskHits, "store.circuit.disk_hits"},
    {&W::problemBuilds, "store.problem.builds"},
    {&W::problemDiskHits, "store.problem.disk_hits"},
    {&W::problemMemHits, "store.problem.mem_hits"},
};

/**
 * A retiring worker that does not exit within this long of its stdin
 * closing is killed.
 */
constexpr double kStopGraceMs = 1000.0;

/**
 * The forked job executor: every attempt is one framed request and
 * one framed reply to a `<worker> --worker` process, with a SIGKILL
 * at the hard deadline. A worker that replies goes back to an idle
 * pool the lanes share, so each lane forks one worker for the whole
 * submit; a crash, a missing or corrupt reply, or a hard-deadline
 * kill retires it, and the next attempt forks a fresh one. Replies
 * fold their telemetry riders into this process, and the named
 * counters of their metrics rider into totals().
 */
class ForkedExecutor final : public JobExecutor
{
  public:
    ForkedExecutor(std::string worker_path, bool write_through)
        : workerPath(std::move(worker_path)),
          writesThrough(write_through)
    {
    }

    ~ForkedExecutor() override { stopWorkers(); }

    JobFault
    attempt(SweepJobRecord &rec, unsigned lanes,
            double timeout_ms) override
    {
        ChildProcess worker = acquire(lanes);
        if (!worker.valid()) {
            rec.error = "cannot spawn worker: " + workerPath;
            return JobFault::NoWorker;
        }

        if (!writeFrame(worker.stdinFd,
                        encodeJobRequest(JobRequest{rec.spec}))) {
            const ExitStatus es = stopChildProcess(worker, 0.0);
            rec.error = "worker rejected the job request (" +
                        es.describe() + ")";
            return JobFault::WorkerLost;
        }

        std::string payload;
        const FrameStatus fs =
            readFrame(worker.stdoutFd, payload, timeout_ms);
        if (fs == FrameStatus::Timeout) {
            // The hard deadline: kill the worker and reap the
            // corpse.
            const ExitStatus es = stopChildProcess(worker, 0.0);
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "hard timeout after %.6g ms; worker "
                          "killed (%s)",
                          timeout_ms, es.describe().c_str());
            rec.error = buf;
            return JobFault::Deadline;
        }
        if (fs != FrameStatus::Ok) {
            // Eof/Corrupt/IoError: the worker died before delivering
            // a reply — the crash-isolation path. After an EOF it is
            // already exiting: wait for its status.
            const ExitStatus es = stopChildProcess(
                worker, fs == FrameStatus::Eof ? kStopGraceMs : 0.0);
            rec.error = std::string("worker died before replying (") +
                        frameStatusName(fs) + ", " + es.describe() +
                        ")";
            return JobFault::WorkerLost;
        }
        WorkerReply reply;
        if (!decodeReply(payload, reply)) {
            const ExitStatus es = stopChildProcess(worker, 0.0);
            rec.error =
                "unparseable worker reply (" + es.describe() + ")";
            return JobFault::WorkerLost;
        }
        release(worker);

        adoptRiders(reply);
        if (!reply.done) {
            rec.error = reply.error;
            return reply.fastFail ? JobFault::BadInput
                                  : JobFault::Threw;
        }
        rec.result = std::move(reply.result);
        return JobFault::None;
    }

    const char *jobSpan() const override { return "sweepd.job"; }

    bool writeThrough() const override { return writesThrough; }

    /** The kWorkerCounters of every reply, summed. */
    WorkerStoreStats
    totals() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return sums;
    }

    /**
     * Retire every idle worker: close all their stdins first, so
     * they exit side by side, then reap each (killing any that
     * outstays the grace period).
     */
    void
    stopWorkers()
    {
        std::vector<ChildProcess> workers;
        {
            std::lock_guard<std::mutex> lock(mutex);
            workers.swap(idle);
        }
        for (ChildProcess &w : workers)
            closeFd(w.stdinFd);
        for (ChildProcess &w : workers)
            stopChildProcess(w, kStopGraceMs);
    }

  private:
    /** An idle worker, or a freshly forked one (invalid on failure). */
    ChildProcess
    acquire(unsigned lanes)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!idle.empty()) {
                ChildProcess w = idle.back();
                idle.pop_back();
                return w;
            }
        }
        std::vector<std::pair<std::string, std::string>> env;
        if (lanes > 0)
            env.emplace_back("QCC_JOB_WIDTH", std::to_string(lanes));
        // Tracing and store state are explicit rather than
        // inherited: a caller that set them programmatically
        // (setTraceEnabled, setStoreDir, setStoreEnabled — the CLI's
        // --store-dir/--no-store) gets the same configuration in its
        // workers. All of it is fixed for the submit a worker
        // serves.
        env.emplace_back("QCC_TRACE", traceEnabled() ? "1" : "0");
        env.emplace_back("QCC_STORE_DIR", storeDir());
        env.emplace_back("QCC_STORE", storeEnabled() ? "1" : "0");
        ChildProcess w = spawnChildProcess(
            {workerPath, std::string(kWorkerFlag)}, env);
        if (w.valid()) {
            static MetricCounter &spawned =
                metricCounter("sweepd.workers.spawned");
            spawned.add();
        }
        return w;
    }

    void
    release(const ChildProcess &worker)
    {
        std::lock_guard<std::mutex> lock(mutex);
        idle.push_back(worker);
    }

    /**
     * The worker's span buffer joins this process's timeline (the
     * events carry the worker pid), and its metrics merge into the
     * registry and into the per-submit totals.
     */
    void
    adoptRiders(const WorkerReply &reply)
    {
        if (reply.trace.isArray())
            adoptTraceEventsDom(reply.trace);
        if (reply.metrics.isObject())
            mergeMetricsDom(reply.metrics);
        const JsonValue *counters = reply.metrics.find("counters");
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &[field, name] : kWorkerCounters) {
            const JsonValue *v =
                counters ? counters->find(name) : nullptr;
            uint64_t n = 0;
            if (v && v->asUint64(n))
                sums.*field += n;
        }
    }

    std::string workerPath;
    bool writesThrough;
    mutable std::mutex mutex;
    std::vector<ChildProcess> idle; ///< guarded by mutex
    WorkerStoreStats sums;          ///< guarded by mutex
};

} // namespace

SweepdService::SweepdService(SweepdOptions options)
    : opts(std::move(options))
{
    // A worker killed mid-write must not take the service with it.
    ignoreSigpipe();
}

SweepEngineOptions
SweepdService::engineOptions() const
{
    SweepEngineOptions eo;
    eo.concurrency = opts.concurrency;
    eo.jobTimeoutMs = opts.jobTimeoutMs;
    eo.retries = opts.retries;
    eo.capJobWidth = opts.capJobWidth;
    eo.progress = opts.progress;
    return eo;
}

unsigned
SweepdService::concurrency(const SweepSpec &spec) const
{
    return SweepEngine(spec, engineOptions()).concurrency();
}

ResultStore
SweepdService::submit(const SweepSpec &spec, SweepdRunStats *stats)
{
    SweepEngineOptions eo = engineOptions();
    if (opts.resume) {
        const std::string journal = sweepJournalPath(spec.name);
        if (!journal.empty() && std::ifstream(journal).is_open())
            eo.resumeFrom = journal;
    }
    ForkedExecutor forked(opts.workerPath, opts.writeThrough);
    SweepEngine engine(spec, eo, &forked);

    ResultStore store = [&] {
        TraceSpan span("sweepd.submit");
        span.arg("jobs", spec.jobCount());
        span.arg("width", engine.concurrency());
        ResultStore ran = engine.run();
        forked.stopWorkers();
        return ran;
    }();

    SweepdRunStats st;
    st.jobs = store.size();
    st.resumed = engine.adopted();
    st.ran = st.jobs - st.resumed;
    st.writtenPath = store.write();
    st.workers = forked.totals();
    if (stats)
        *stats = st;
    return store;
}

std::string
selfExecutablePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0 ? argv0 : "";
}

} // namespace sweepd
} // namespace qcc
