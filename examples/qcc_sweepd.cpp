/**
 * @file
 * qcc_sweepd — the forked sweep service. Accepts SweepSpec JSON jobs
 * (spec-file paths on the command line, then — in server mode — one
 * path per line on stdin), expands each with the shared sweep
 * machinery, and runs every job in a forked worker process
 * (`qcc_sweepd --worker`, the same binary; one per lane, serving
 * the lane's jobs for the whole sweep): a hard per-job timeout
 * kills and reaps over-budget workers, a crashing job records one
 * failed entry instead of killing the service, and workers share
 * the QCC_STORE_DIR persistent cache across processes. Every landed
 * record is appended to SWEEP_<name>.journal, so a killed service
 * resumes where it left off: resubmitting the same spec adopts
 * every completed job whose spec_hash still matches and re-runs
 * only the rest (see docs/sweepd.md). The aggregate
 * SWEEP_<name>.json is written once, when the sweep ends.
 *
 *   qcc_sweepd specs/ci_smoke.json                 # one-shot
 *   qcc_sweepd --serve < job_paths.txt             # long-running
 *   qcc_sweepd specs/big.json --timeout-ms 60000 --concurrency 4
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/store.hh"
#include "sweepd/service.hh"
#include "sweepd/worker.hh"

using namespace qcc;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [<spec.json> ...] [options]\n"
        "       %s --serve [options]     read spec paths from "
        "stdin, one per line\n"
        "       %s --worker              (internal) run jobs "
        "from stdin\n"
        "  --concurrency N   worker-pool width (default: spec, "
        "then QCC_THREADS)\n"
        "  --timeout-ms X    hard per-job budget; over-budget "
        "workers are killed\n"
        "                    (default: the spec's job_timeout_ms)\n"
        "  --retries N       extra attempts after retryable "
        "failures\n"
        "  --no-resume       ignore an existing "
        "SWEEP_<name>.journal\n"
        "  --no-width-cap    don't split QCC_THREADS across "
        "workers\n"
        "  --store-dir DIR   persistent store root (overrides "
        "QCC_STORE_DIR)\n"
        "  --no-store        disable the persistent store\n"
        "  --quiet           suppress per-job progress lines\n"
        "\nEvery finished job is appended to SWEEP_<name>.journal"
        "\n(QCC_JSON convention), so a killed service can be resumed"
        "\nby simply resubmitting the same spec. The aggregate"
        "\nSWEEP_<name>.json is written when the sweep ends (falling"
        "\nback to the current directory).\n",
        argv0, argv0, argv0);
    return 2;
}

/** Run one spec file through the service; 0/1 like qcc_sweep. */
int
runSpec(sweepd::SweepdService &service, const std::string &path)
{
    SweepSpec spec;
    try {
        spec = SweepSpec::fromFile(path);
    } catch (const std::exception &e) {
        error(std::string("qcc_sweepd: ") + e.what());
        return 1;
    }

    // Telemetry is per-submission: each spec (including each line
    // in serve mode) gets its own TRACE_EVENTS/METRICS documents,
    // and the registry counters line up with exactly this run's
    // worker-reported totals.
    clearTrace();
    resetMetrics();

    std::printf("sweep '%s': %zu jobs at concurrency %u\n",
                spec.name.c_str(), spec.jobCount(),
                service.concurrency(spec));
    std::fflush(stdout);

    sweepd::SweepdRunStats stats;
    try {
        ResultStore store = service.submit(spec, &stats);
        std::printf("'%s': %zu done (%zu resumed), %zu failed, "
                    "%zu timed out\n",
                    spec.name.c_str(),
                    store.countWithStatus(JobStatus::Done),
                    stats.resumed,
                    store.countWithStatus(JobStatus::Failed),
                    store.countWithStatus(JobStatus::TimedOut));
        std::string written = stats.writtenPath;
        if (written.empty()) // QCC_JSON unset: still deliver
            written =
                store.writeTo("SWEEP_" + store.name() + ".json");
        if (!written.empty())
            std::printf("wrote %s\n", written.c_str());

        // The workers this submit forked, and the cache and store
        // counters of every reply's metrics rider, summed;
        // METRICS_<name>.json carries the same counts under their
        // metric names.
        const sweepd::WorkerStoreStats &w = stats.workers;
        std::printf("workers: spawned=%llu compile_hits=%llu "
                    "compile_misses=%llu circuit_disk_hits=%llu "
                    "problem_builds=%llu problem_disk_hits=%llu "
                    "problem_mem_hits=%llu\n",
                    (unsigned long long)metricCounter(
                        "sweepd.workers.spawned")
                        .value(),
                    (unsigned long long)w.compileHits,
                    (unsigned long long)w.compileMisses,
                    (unsigned long long)w.circuitDiskHits,
                    (unsigned long long)w.problemBuilds,
                    (unsigned long long)w.problemDiskHits,
                    (unsigned long long)w.problemMemHits);

        const std::string tracePath = writeTraceJson(store.name());
        if (!tracePath.empty())
            std::printf("wrote %s\n", tracePath.c_str());
        const std::string metricsPath =
            writeMetricsJson(store.name());
        if (!metricsPath.empty())
            std::printf("wrote %s\n", metricsPath.c_str());
        std::fflush(stdout);
        return store.countWithStatus(JobStatus::Failed) == 0 ? 0
                                                             : 1;
    } catch (const std::exception &e) {
        error(std::string("qcc_sweepd: ") + e.what());
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Worker mode first: nothing else (flag parsing, store setup)
    // may touch the frame channel before the handoff.
    if (argc > 1 &&
        std::strcmp(argv[1], sweepd::kWorkerFlag) == 0)
        return sweepd::workerMain();

    setLogLevel(LogLevel::Info);

    sweepd::SweepdOptions opts;
    opts.workerPath = sweepd::selfExecutablePath(argv[0]);

    std::vector<std::string> specPaths;
    bool serve = false, quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--concurrency" && i + 1 < argc) {
            if (!parseConcurrency(argv[++i], opts.concurrency)) {
                error("qcc_sweepd: --concurrency expects an integer "
                      "in [0, " +
                      std::to_string(SweepSpec::kMaxConcurrency) +
                      "]");
                return 2;
            }
        } else if (arg == "--timeout-ms" && i + 1 < argc) {
            opts.jobTimeoutMs = std::atof(argv[++i]);
        } else if (arg == "--retries" && i + 1 < argc) {
            opts.retries = std::atoi(argv[++i]);
        } else if (arg == "--no-resume") {
            opts.resume = false;
        } else if (arg == "--no-width-cap") {
            opts.capJobWidth = false;
        } else if (arg == "--store-dir" && i + 1 < argc) {
            setStoreDir(argv[++i]);
        } else if (arg == "--no-store") {
            setStoreEnabled(false);
        } else if (arg == "--serve") {
            serve = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            specPaths.push_back(arg);
        }
    }
    if (specPaths.empty() && !serve)
        return usage(argv[0]);

    if (!quiet) {
        opts.progress = [](const SweepProgress &p) {
            const SweepJobRecord &r = *p.last;
            std::printf("[%zu/%zu] #%-3zu %-5s  %-9s", p.completed,
                        p.total, r.index, r.spec.molecule.c_str(),
                        jobStatusName(r.status));
            if (r.finished())
                std::printf("  E = %+.6f Ha", r.result.energy());
            if (!r.error.empty())
                std::printf("  (%s)", r.error.c_str());
            std::printf("\n");
            std::fflush(stdout);
        };
    }

    sweepd::SweepdService service(opts);

    int rc = 0;
    for (const auto &path : specPaths)
        rc |= runSpec(service, path);

    if (serve) {
        // Server loop: one spec path per line until EOF. Each
        // submission runs to completion before the next is read —
        // concurrency lives inside a sweep, not across sweeps.
        std::printf("qcc_sweepd: serving (one spec path per "
                    "line; EOF stops)\n");
        std::fflush(stdout);
        char line[4096];
        while (std::fgets(line, sizeof(line), stdin)) {
            std::string path = line;
            while (!path.empty() && (path.back() == '\n' ||
                                     path.back() == '\r' ||
                                     path.back() == ' '))
                path.pop_back();
            if (path.empty() || path[0] == '#')
                continue;
            rc |= runSpec(service, path);
        }
    }
    return rc;
}
