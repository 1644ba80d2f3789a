/**
 * @file
 * End-to-end smoke cases over the shipped sweep specs — the sweeps
 * that reproduce the Table I costing and the VQE case studies, run
 * wherever the tests run:
 *
 *  - warm store: `ci_smoke_store` twice through the in-process
 *    engine against one store directory; the warm run rebuilds no
 *    chemistry and reproduces the document byte for byte;
 *  - kill and resume: the same spec through sweepd, SIGKILLed
 *    mid-sweep (service and workers) once its journal holds a done
 *    record, then resubmitted; the resume adopts completed jobs and
 *    matches an uninterrupted run;
 *  - Table I costing: `table1_full` forced to kind "estimate" (as
 *    `qcc_sweep --estimate` does), cold then warm; 27
 *    simulation-free records, and a warm run under one second in
 *    optimized builds;
 *  - cross-process trace: the same spec through sweepd untraced and
 *    traced; identical documents, one well-formed timeline over the
 *    service and its workers, and worker totals that equal the
 *    merged metrics registry's change.
 *
 * The specs are read from the specs/ directory CMake copies beside
 * this binary, so a missing spec fails its case. The binary doubles
 * as its own sweepd worker (`--worker`), which keeps the service
 * cases hermetic.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "compiler/cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/problem_store.hh"
#include "store/store.hh"
#include "sweep/sweep_engine.hh"
#include "sweepd/service.hh"
#include "sweepd/worker.hh"
#include "sweepd_test_util.hh"

using namespace qcc;
using namespace qcc_test;

namespace {

using Clock = std::chrono::steady_clock;

/** A shipped spec from the specs/ directory beside this binary. */
SweepSpec
shippedSpec(const std::string &file)
{
    const std::filesystem::path dir =
        std::filesystem::path(selfPath()).parent_path() / "specs";
    return SweepSpec::fromFile((dir / file).string());
}

/** Drop the in-process caches a fresh process would not have. */
void
clearProcessCaches()
{
    globalCircuitCache().clear();
    globalProblemStore().clearMemory();
}

sweepd::SweepdOptions
serviceOptions()
{
    sweepd::SweepdOptions opts;
    opts.workerPath = selfPath();
    return opts;
}

std::string
aggregatePath(const TempDir &dir, const SweepSpec &spec)
{
    return dir.path() + "/SWEEP_" + spec.name + ".json";
}

/** True once the journal at `path` holds a whole "done" line. */
bool
holdsDoneRecord(const std::string &path)
{
    if (!std::filesystem::exists(path))
        return false;
    const std::string journal = slurp(path);
    for (size_t pos = 0, eol;
         (eol = journal.find('\n', pos)) != std::string::npos;
         pos = eol + 1) {
        try {
            const JsonValue line =
                JsonValue::parse(journal.substr(pos, eol - pos));
            if (const JsonValue *status = line.find("status"))
                if (status->text == "done")
                    return true;
        } catch (const JsonError &) {
        }
    }
    return false;
}

/** `doc` at a path of object keys; null when any step is absent. */
const JsonValue *
at(const JsonValue &doc, std::initializer_list<const char *> keys)
{
    const JsonValue *v = &doc;
    for (const char *key : keys)
        if (!(v = v->find(key)))
            return nullptr;
    return v;
}

/** The number at `keys` under `doc`, or -1 when it is absent. */
double
numberAt(const JsonValue &doc, std::initializer_list<const char *> keys)
{
    const JsonValue *v = at(doc, keys);
    return v && v->isNumber() ? v->number : -1.0;
}

} // namespace

// ---------------------------------------------------------------
// warm persistent store

TEST(Smoke, WarmStoreRebuildsNothingAndReproducesTheDocument)
{
    const SweepSpec spec = shippedSpec("ci_smoke_store.json");
    TempDir store("smoke_store"), cold("smoke_cold");
    TempDir warm("smoke_warm");
    StoreConfigGuard restore;
    setStoreDir(store.path());
    setStoreEnabled(true);

    // Each run's change in the store counters.
    auto run = [&](const TempDir &json) {
        EnvGuard jsonEnv("QCC_JSON", json.path());
        clearProcessCaches();
        std::map<std::string, uint64_t> change;
        for (const char *name :
             {"store.circuit.disk_hits", "store.circuit.disk_writes",
              "store.circuit.bad_entries", "store.problem.builds",
              "store.problem.disk_hits", "store.problem.disk_writes",
              "store.problem.bad_entries"})
            change[name] = metricCounter(name).value();
        EXPECT_FALSE(SweepEngine(spec).run().write().empty());
        for (auto &[name, n] : change)
            n = metricCounter(name).value() - n;
        return change;
    };
    auto first = run(cold);
    auto second = run(warm);

    EXPECT_EQ(slurp(aggregatePath(warm, spec)),
              slurp(aggregatePath(cold, spec)))
        << "results identical";
    EXPECT_GE(first["store.problem.builds"], 1u)
        << "cold run builds chemistry";
    EXPECT_GE(first["store.circuit.disk_writes"] +
                  first["store.problem.disk_writes"],
              1u)
        << "cold run writes the store";
    EXPECT_EQ(second["store.problem.builds"], 0u)
        << "warm run rebuilds nothing";
    EXPECT_GE(second["store.circuit.disk_hits"] +
                  second["store.problem.disk_hits"],
              1u)
        << "warm run is served from disk";
    EXPECT_EQ(second["store.circuit.bad_entries"], 0u)
        << "no bad circuit entry";
    EXPECT_EQ(second["store.problem.bad_entries"], 0u)
        << "no bad problem entry";
}

// ---------------------------------------------------------------
// sweepd kill and resume

TEST(Smoke, KillAndResumeReproducesTheUninterruptedRun)
{
    const SweepSpec spec = shippedSpec("ci_smoke_store.json");
    TempDir clean("smoke_clean"), killed("smoke_killed");
    {
        EnvGuard jsonEnv("QCC_JSON", clean.path());
        sweepd::SweepdService(serviceOptions()).submit(spec);
    }

    EnvGuard jsonEnv("QCC_JSON", killed.path());
    const std::string aggregate = aggregatePath(killed, spec);
    const std::string journal =
        killed.path() + "/SWEEP_" + spec.name + ".journal";
    const pid_t service = ::fork();
    ASSERT_GE(service, 0);
    if (service == 0) {
        // The service to kill: its own process group, which its
        // workers join, and a sleeping worker on every seed-2022
        // job so the kill lands mid-sweep.
        ::setpgid(0, 0);
        ::setenv("QCC_SWEEPD_TEST_SLEEP_SEED", "2022", 1);
        try {
            sweepd::SweepdService(serviceOptions()).submit(spec);
        } catch (...) {
            ::_exit(1);
        }
        ::_exit(0);
    }
    ::setpgid(service, service); // whichever side runs first wins

    const auto deadline = Clock::now() + std::chrono::seconds(120);
    bool landed = false;
    while (!(landed = holdsDoneRecord(journal)) &&
           Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::kill(-service, SIGKILL);
    int status = 0;
    ::waitpid(service, &status, 0);
    ASSERT_TRUE(landed) << "the journal holds a done record";
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the kill landed mid-sweep";

    sweepd::SweepdRunStats stats;
    sweepd::SweepdService(serviceOptions()).submit(spec, &stats);
    EXPECT_GE(stats.resumed, 1u) << "resume adopts a completed job";
    EXPECT_EQ(slurp(aggregate), slurp(aggregatePath(clean, spec)))
        << "resume reproduces the baseline byte for byte";
}

// ---------------------------------------------------------------
// Table I costing in estimate mode

TEST(Smoke, Table1CostingIsSimulationFreeAndFastWhenWarm)
{
    SweepSpec spec = shippedSpec("table1_full.json");
    // What `qcc_sweep --estimate` does to a spec.
    spec.name += "_estimate";
    spec.base.kind = "estimate";
    for (ExperimentSpec &job : spec.explicitJobs)
        job.kind = "estimate";

    TempDir store("smoke_costing_store"), json("smoke_costing");
    StoreConfigGuard restore;
    setStoreDir(store.path());
    setStoreEnabled(true);
    EnvGuard jsonEnv("QCC_JSON", json.path());

    clearProcessCaches();
    SweepEngine(spec).run(); // cold: populates the store
    clearProcessCaches();
    const Clock::time_point t0 = Clock::now();
    const std::string path = SweepEngine(spec).run().write();
    [[maybe_unused]] const double warmMs =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    ASSERT_FALSE(path.empty());

    const JsonValue doc = JsonValue::parse(slurp(path));
    const JsonValue *jobs = doc.find("jobs");
    ASSERT_NE(jobs, nullptr);
    EXPECT_EQ(jobs->items.size(), 27u) << "27 jobs";
    for (const JsonValue &job : jobs->items) {
        const JsonValue *kind = at(job, {"result", "spec", "kind"});
        EXPECT_TRUE(kind && kind->text == "estimate")
            << "every job is kind estimate";
        for (const char *field : {"settings", "cnots", "shot_budget"})
            EXPECT_GE(numberAt(job, {"result", "estimate", field}), 1.0)
                << "estimate " << field << " >= 1";
        EXPECT_EQ(numberAt(job, {"result", "iterations"}), 0.0)
            << "no iterations ran";
        EXPECT_EQ(numberAt(job, {"result", "evals"}), 0.0)
            << "no evaluations ran";
    }
    const JsonValue *best = doc.find("best_energy");
    const JsonValue *curves = doc.find("curves");
    EXPECT_TRUE(best && best->isArray() && best->items.empty())
        << "best_energy is empty";
    EXPECT_TRUE(curves && curves->isArray() && curves->items.empty())
        << "curves is empty";
#ifdef NDEBUG // the bar holds for optimized builds
    EXPECT_LT(warmMs, 1000.0) << "warm costing beats the 1 s bar";
#endif
}

// ---------------------------------------------------------------
// cross-process trace

TEST(Smoke, CrossProcessTraceSpansTheServiceAndItsWorkers)
{
    const SweepSpec spec = shippedSpec("ci_smoke_store.json");
    TempDir plain("smoke_untraced"), traced("smoke_traced");
    sweepd::SweepdOptions opts = serviceOptions();
    opts.resume = false;
    const bool wasTracing = traceEnabled();

    setTraceEnabled(false);
    {
        EnvGuard jsonEnv("QCC_JSON", plain.path());
        sweepd::SweepdService(opts).submit(spec);
    }

    EnvGuard jsonEnv("QCC_JSON", traced.path());
    setTraceEnabled(true);
    clearTrace();
    const JsonValue before = JsonValue::parse(metricsJson());
    sweepd::SweepdRunStats stats;
    sweepd::SweepdService(opts).submit(spec, &stats);
    const JsonValue after = JsonValue::parse(metricsJson());
    const std::string tracePath = writeTraceJson(spec.name);
    setTraceEnabled(wasTracing);
    clearTrace();

    EXPECT_EQ(slurp(aggregatePath(traced, spec)),
              slurp(aggregatePath(plain, spec)))
        << "tracing is invisible in the results";

    ASSERT_FALSE(tracePath.empty());
    const JsonValue trace = JsonValue::parse(slurp(tracePath));
    const JsonValue *events = trace.find("traceEvents");
    ASSERT_TRUE(events && !events->items.empty()) << "empty trace";
    double lastTs = -1.0;
    std::map<std::pair<std::string, std::string>,
             std::vector<std::string>>
        stacks;
    std::set<std::string> pids, names;
    for (const JsonValue &e : events->items) {
        const JsonValue *name = e.find("name");
        const JsonValue *ph = e.find("ph");
        const JsonValue *ts = e.find("ts");
        const JsonValue *pid = e.find("pid");
        const JsonValue *tid = e.find("tid");
        ASSERT_TRUE(name && ph && ts && pid && tid);
        EXPECT_GE(ts->number, lastTs) << "timestamps are sorted";
        lastTs = ts->number;
        std::vector<std::string> &stack =
            stacks[{pid->text, tid->text}];
        if (ph->text == "B") {
            stack.push_back(name->text);
        } else {
            ASSERT_EQ(ph->text, "E") << "only B/E events";
            ASSERT_FALSE(stack.empty()) << "E without a B";
            EXPECT_EQ(stack.back(), name->text) << "B/E names match";
            stack.pop_back();
        }
        pids.insert(pid->text);
        names.insert(name->text);
    }
    for (const auto &[thread, stack] : stacks)
        EXPECT_TRUE(stack.empty())
            << "spans balance on pid " << thread.first;
    EXPECT_GE(pids.size(), 2u) << "the service and a worker";
    for (const char *span :
         {"sweepd.submit", "sweepd.job", "experiment.run"})
        EXPECT_TRUE(names.count(span)) << "span " << span;

    const sweepd::WorkerStoreStats &w = stats.workers;
    const std::pair<uint64_t, const char *> totals[] = {
        {w.compileHits, "compile.cache.hits"},
        {w.compileMisses, "compile.cache.misses"},
        {w.circuitDiskHits, "store.circuit.disk_hits"},
        {w.problemBuilds, "store.problem.builds"},
        {w.problemDiskHits, "store.problem.disk_hits"},
        {w.problemMemHits, "store.problem.mem_hits"},
    };
    for (const auto &[total, metric] : totals)
        EXPECT_EQ(total,
                  counterIn(after, metric) - counterIn(before, metric))
            << "workers total of " << metric << " = registry change";
}

// ---------------------------------------------------------------

int
main(int argc, char **argv)
{
    // Worker mode: this binary is its own sweepd worker executable.
    if (argc > 1 &&
        std::strcmp(argv[1], sweepd::kWorkerFlag) == 0)
        return sweepd::workerMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
