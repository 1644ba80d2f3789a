/**
 * @file
 * sweepd worker entry point — the `--worker` mode of the qcc_sweepd
 * binary (and of test binaries that self-exec). A worker serves one
 * submit's jobs: it reads framed JobRequests from stdin until the
 * service closes it, runs each through the ordinary qcc::Experiment
 * facade, and writes one framed reply per request to (the original)
 * stdout. Its in-process caches stay warm from job to job, as the
 * in-process executor's shared caches do. After each reply it zeroes
 * its metrics registry and drops its trace buffers, so every reply's
 * riders describe that job alone. Crash isolation and the hard
 * timeout both fall out of the process boundary: a SIGSEGV/abort or
 * a kill-at-deadline takes down only this process, the parent reads
 * the outcome off waitpid, and the next job gets a fresh worker.
 *
 * The worker re-points fd 1 at fd 2 immediately after saving the
 * real stdout, so any stray print inside the experiment stack lands
 * on stderr instead of corrupting the frame stream.
 *
 * Test hooks (hermetic fault injection, active only when set):
 *   QCC_SWEEPD_TEST_CRASH_SEED=<n>  abort() when a job's seed == n
 *   QCC_SWEEPD_TEST_SLEEP_SEED=<n>  sleep ~30 s when a job's seed == n
 */

#ifndef QCC_SWEEPD_WORKER_HH
#define QCC_SWEEPD_WORKER_HH

namespace qcc {
namespace sweepd {

/** Argv flag selecting worker mode ("--worker"). */
extern const char *const kWorkerFlag;

/**
 * Serve jobs from stdin to stdout (framed; see protocol.hh) until
 * stdin closes. Returns the process exit code: 0 when stdin closed
 * between requests (every request got a reply, failed-job replies
 * included), nonzero when the protocol itself broke down (a corrupt
 * or truncated request, a dead pipe).
 */
int workerMain();

} // namespace sweepd
} // namespace qcc

#endif // QCC_SWEEPD_WORKER_HH
