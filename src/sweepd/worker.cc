#include "sweepd/worker.hh"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/subprocess.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sweep/sweep_engine.hh"
#include "sweepd/protocol.hh"

namespace qcc {
namespace sweepd {

const char *const kWorkerFlag = "--worker";

namespace {

/** True when `name` is set and parses to exactly `seed`. */
bool
seedHookMatches(const char *name, uint64_t seed)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return false;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    return end && *end == '\0' && v == seed;
}

/** Run one framed request; returns its reply, riders included. */
std::string
serveJob(const std::string &payload)
{
    std::optional<ExperimentResult> result;
    std::string error;
    bool fastFail = false;
    try {
        const JobRequest request = decodeJobRequest(payload);

        // Fault-injection hooks for the crash/timeout tests: keyed
        // on the job's seed so one spec in a sweep misbehaves while
        // its siblings run normally.
        if (seedHookMatches("QCC_SWEEPD_TEST_CRASH_SEED",
                            request.spec.seed))
            std::abort();
        if (seedHookMatches("QCC_SWEEPD_TEST_SLEEP_SEED",
                            request.spec.seed))
            std::this_thread::sleep_for(std::chrono::seconds(30));

        result = Experiment(request.spec).run();
    } catch (const std::exception &e) {
        error = e.what();
        fastFail = jobFaultOf(e) == JobFault::BadInput;
    }

    // Telemetry riders, on either reply kind: the job's span buffer
    // (only when tracing is on — the events carry this process's
    // pid, so the service's merged timeline separates workers) and
    // its metrics snapshot (always; its counters are the job's cache
    // and store totals the service sums per submit).
    std::string traceDoc;
    if (traceEnabled() && traceEventCount())
        traceDoc = traceEventsArrayJson();
    const std::string metrics = metricsJson();
    return result ? encodeDoneReply(*result, traceDoc, metrics)
                  : encodeFailedReply(error, fastFail, traceDoc,
                                      metrics);
}

} // namespace

int
workerMain()
{
    ignoreSigpipe();

    // Keep the frame channel private: save the real stdout, then
    // point fd 1 at stderr so stray prints can't corrupt frames.
    const int replyFd = ::dup(STDOUT_FILENO);
    if (replyFd < 0)
        return 3;
    ::dup2(STDERR_FILENO, STDOUT_FILENO);

    // One reply per request until the service closes stdin.
    for (;;) {
        std::string payload;
        const FrameStatus fs =
            readFrame(STDIN_FILENO, payload, /*timeout_ms=*/0.0);
        if (fs == FrameStatus::Eof)
            return 0;
        if (fs != FrameStatus::Ok ||
            !writeFrame(replyFd, serveJob(payload)))
            return 3;
        // The next rider describes the next job only.
        resetMetrics();
        clearTrace();
    }
}

} // namespace sweepd
} // namespace qcc
