/**
 * @file
 * qccbench: one workload run of the repo benchmark.
 *
 *   qccbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            --run-dir <dir> [--commit <id>]
 *   qccbench --worker        (sweepd worker mode, used by sweepd_pool)
 *
 * With --setup-rep <dir> added to the first form it times one cold
 * set-up of the workload (store under <dir>), prints the seconds and
 * exits: the fresh-process repetitions behind setup_s.
 *
 * Prints progress and the per-span table on stderr and one JSON
 * report line on stdout: every metric with its unit and sample
 * count, the failed checks, and the run envelope. perfbench/run.py
 * builds this binary, pins the environment, and turns the report
 * into the benchmark's result line.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "common/json.hh"
#include "common/parallel.hh"
#include "sim/simd.hh"
#include "store/store.hh"
#include "sweepd/service.hh"
#include "sweepd/worker.hh"

#ifndef QCCBENCH_BUILD_TYPE
#define QCCBENCH_BUILD_TYPE "unknown"
#endif

namespace qccbench {

void
Report::set(const std::string &name, double value, const std::string &unit,
            size_t samples)
{
    for (auto &[n, m] : metrics) {
        if (n == name) {
            m = Metric{value, unit, samples};
            return;
        }
    }
    metrics.emplace_back(name, Metric{value, unit, samples});
}

void
Report::fail(const std::string &what)
{
    if (failures.size() < kMaxFailures)
        failures.push_back(what);
    else
        ++moreFailures;
}

namespace {

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    out += qcc::jsonEscape(s);
    out += '"';
    return out;
}

std::string
reportJson(const Options &opt, const Report &rep)
{
    std::string out = "{\"workload\": " + quoted(opt.workload) +
                      ", \"trace\": " + (opt.trace ? "1" : "0") +
                      ", \"correct\": " + (rep.correct() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(rep.attempted) +
                      ", \"failed\": " + std::to_string(rep.failed) +
                      ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, m] : rep.metrics) {
        out += sep;
        out += quoted(name) + ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quoted(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
        sep = ", ";
    }
    out += "}, \"failures\": [";
    sep = "";
    for (const std::string &f : rep.failures) {
        out += sep;
        out += quoted(f);
        sep = ", ";
    }
    if (rep.moreFailures) {
        out += sep;
        out += quoted("... and " + std::to_string(rep.moreFailures) +
                      " more failed checks");
    }
    out += "], \"notes\": {";
    sep = "";
    for (const auto &[k, v] : rep.notes) {
        out += sep;
        out += quoted(k) + ": " + quoted(v);
        sep = ", ";
    }
    const char *simdEnv = std::getenv("QCC_SIMD");
    out += "}, \"envelope\": {\"bench\": \"qccbench\", \"commit\": " +
           quoted(opt.commit) +
           ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"simd\": {\"QCC_SIMD\": " + quoted(simdEnv ? simdEnv : "") +
           ", \"cpu_avx2\": " +
           (qcc::kern::simdSupported() ? "true" : "false") +
           ", \"active\": " + quoted(qcc::kern::simdName()) +
           "}, \"threads\": " + std::to_string(qcc::parallelThreads()) +
           ", \"build_type\": " + quoted(QCCBENCH_BUILD_TYPE) +
           ", \"seed\": " + std::to_string(opt.seed) +
           ", \"seconds\": " + number(opt.seconds) +
           ", \"mode\": " + quoted(opt.trace ? "traced" : "timed") + "}}";
    return out;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "qccbench: %s\nusage: qccbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --run-dir <dir> "
                 "[--commit <id>] [--setup-rep <dir>]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.selfPath = qcc::sweepd::selfExecutablePath(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = v;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                usage("bad --seed " + v);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(opt.seconds > 0.0))
                usage("bad --seconds " + v);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace " + v);
            opt.trace = v == "1";
        } else if (flag == "--run-dir") {
            opt.runDir = v;
        } else if (flag == "--commit") {
            opt.commit = v;
        } else if (flag == "--setup-rep") {
            opt.setupRep = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opt.workload.empty() || opt.runDir.empty())
        usage("--workload and --run-dir are required");
    return opt;
}

} // namespace
} // namespace qccbench

int
main(int argc, char **argv)
{
    using namespace qccbench;
    if (argc == 2 && std::strcmp(argv[1], qcc::sweepd::kWorkerFlag) == 0)
        return qcc::sweepd::workerMain();

    const Options opt = parseArgs(argc, argv);
    try {
        const Workload w = makeWorkload(opt.workload, opt.seed);
        if (!opt.setupRep.empty()) {
            qcc::setStoreDir(opt.setupRep);
            std::printf("%.17g\n", buildProblems(w));
            return 0;
        }
        Report rep;
        if (opt.trace)
            runTraced(opt, w, rep);
        else
            runTimed(opt, w, rep);
        for (const std::string &f : rep.failures)
            std::fprintf(stderr, "qccbench: check failed: %s\n", f.c_str());
        std::fflush(stderr);
        std::printf("%s\n", reportJson(opt, rep).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qccbench: %s\n", e.what());
        return 2;
    }
}
