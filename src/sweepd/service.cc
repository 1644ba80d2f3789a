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
 * The forked job executor: every attempt is one `<worker> --worker`
 * process, one framed request and one framed reply, with a SIGKILL
 * at the hard deadline. Done replies fold their telemetry riders
 * into this process, and the named counters of their metrics rider
 * into totals().
 */
class ForkedExecutor final : public JobExecutor
{
  public:
    ForkedExecutor(std::string worker_path, bool write_through)
        : workerPath(std::move(worker_path)),
          writesThrough(write_through)
    {
    }

    JobFault
    attempt(SweepJobRecord &rec, unsigned lanes,
            double timeout_ms) override
    {
        std::vector<std::pair<std::string, std::string>> env;
        if (lanes > 0)
            env.emplace_back("QCC_JOB_WIDTH", std::to_string(lanes));
        // Tracing and store state are explicit rather than
        // inherited: a caller that set them programmatically
        // (setTraceEnabled, setStoreDir, setStoreEnabled — the CLI's
        // --store-dir/--no-store) gets the same configuration in its
        // workers.
        env.emplace_back("QCC_TRACE", traceEnabled() ? "1" : "0");
        env.emplace_back("QCC_STORE_DIR", storeDir());
        env.emplace_back("QCC_STORE", storeEnabled() ? "1" : "0");

        ChildProcess child = spawnChildProcess(
            {workerPath, std::string(kWorkerFlag)}, env);
        if (child.pid < 0) {
            rec.error = "cannot spawn worker: " + workerPath;
            return JobFault::NoWorker;
        }

        const bool wrote = writeFrame(
            child.stdinFd, encodeJobRequest(JobRequest{rec.spec}));
        closeFd(child.stdinFd);
        if (!wrote) {
            killProcess(child.pid);
            const ExitStatus es = reapProcess(child.pid);
            closeFd(child.stdoutFd);
            rec.error = "worker rejected the job request (" +
                        es.describe() + ")";
            return JobFault::WorkerLost;
        }

        std::string payload;
        const FrameStatus fs =
            readFrame(child.stdoutFd, payload, timeout_ms);
        if (fs == FrameStatus::Timeout) {
            // The hard deadline: kill the worker and reap the
            // corpse.
            killProcess(child.pid);
            const ExitStatus es = reapProcess(child.pid);
            closeFd(child.stdoutFd);
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "hard timeout after %.6g ms; worker "
                          "killed (%s)",
                          timeout_ms, es.describe().c_str());
            rec.error = buf;
            return JobFault::Deadline;
        }
        closeFd(child.stdoutFd);
        const ExitStatus es = reapProcess(child.pid);

        if (fs != FrameStatus::Ok) {
            // Eof/Corrupt/IoError: the worker died before delivering
            // a reply — the crash-isolation path.
            rec.error = std::string("worker died before replying (") +
                        frameStatusName(fs) + ", " + es.describe() +
                        ")";
            return JobFault::WorkerLost;
        }
        WorkerReply reply;
        if (!decodeReply(payload, reply)) {
            rec.error =
                "unparseable worker reply (" + es.describe() + ")";
            return JobFault::WorkerLost;
        }
        if (!reply.done) {
            rec.error = reply.error;
            return reply.fastFail ? JobFault::BadInput
                                  : JobFault::Threw;
        }

        rec.result = std::move(reply.result);
        // The worker's span buffer joins this process's timeline
        // (the events carry the worker pid), and its metrics merge
        // into the registry and into the per-submit totals.
        if (reply.trace.isArray())
            adoptTraceEventsDom(reply.trace);
        if (reply.metrics.isObject())
            mergeMetricsDom(reply.metrics);
        const JsonValue *counters = reply.metrics.find("counters");
        std::lock_guard<std::mutex> lock(totalsMutex);
        for (const auto &[field, name] : kWorkerCounters) {
            const JsonValue *v =
                counters ? counters->find(name) : nullptr;
            uint64_t n = 0;
            if (v && v->asUint64(n))
                sums.*field += n;
        }
        return JobFault::None;
    }

    const char *jobSpan() const override { return "sweepd.job"; }

    bool writeThrough() const override { return writesThrough; }

    /** The kWorkerCounters of every done reply, summed. */
    WorkerStoreStats
    totals() const
    {
        std::lock_guard<std::mutex> lock(totalsMutex);
        return sums;
    }

  private:
    std::string workerPath;
    bool writesThrough;
    mutable std::mutex totalsMutex;
    WorkerStoreStats sums; ///< guarded by totalsMutex
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
        const std::string prior =
            qccJsonPath("SWEEP_" + spec.name + ".json");
        if (!prior.empty() && std::ifstream(prior).is_open())
            eo.resumeFrom = prior;
    }
    ForkedExecutor forked(opts.workerPath, opts.writeThrough);
    SweepEngine engine(spec, eo, &forked);

    ResultStore store = [&] {
        TraceSpan span("sweepd.submit");
        span.arg("jobs", spec.jobCount());
        span.arg("width", engine.concurrency());
        return engine.run();
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
