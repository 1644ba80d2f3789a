/**
 * @file
 * sweepd (process-per-job sweep runner) tests: pipe framing round
 * trips, one-job worker exchanges, crash isolation (an abort()ing
 * worker records one failed job and the service survives), the hard
 * timeout (a sleeping worker is killed and reaped within
 * tolerance), resume (re-submitting after a partial run re-runs
 * only the missing jobs and reproduces the uninterrupted document
 * byte for byte), and cross-process persistent-store sharing (a
 * second worker process serves chemistry and compilation from the
 * disk tier with zero rebuilds).
 *
 * The test binary doubles as the worker executable: when invoked
 * with --worker it behaves exactly like `qcc_sweepd --worker`
 * (fault-injection hooks included), so every test is hermetic.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/subprocess.hh"
#include "obs/trace.hh"
#include "store/store.hh"
#include "sweepd/protocol.hh"
#include "sweepd/service.hh"
#include "sweepd/worker.hh"
#include "sweepd_test_util.hh"

using namespace qcc;
using namespace qcc_test;

namespace {

struct VerboseSilencer
{
    VerboseSilencer() { setLogLevel(LogLevel::Quiet); }
} silencer;

/** Cheap stochastic H2 sweep over 4 seeds, deterministic bytes. */
SweepSpec
smallSweep()
{
    return SweepSpec::fromJson(R"({
      "name": "sweepd_unit",
      "base": {
        "molecule": "H2", "bond": 0.74, "mode": "sampled",
        "optimizer": "spsa", "spsa_iter": 8, "shots": 1024,
        "reference": false
      },
      "axes": { "seed": [11, 12, 13, 14] },
      "concurrency": 2,
      "emit_timings": false
    })");
}

sweepd::SweepdOptions
serviceOptions()
{
    sweepd::SweepdOptions opts;
    opts.workerPath = selfPath();
    return opts;
}

/** Run one spec through a worker process directly (no service). */
sweepd::WorkerReply
runWorkerJob(const ExperimentSpec &spec)
{
    sweepd::WorkerReply reply;
    ChildProcess child = spawnChildProcess(
        {selfPath(), std::string(sweepd::kWorkerFlag)}, {});
    EXPECT_GT(child.pid, 0);
    if (child.pid <= 0)
        return reply;
    EXPECT_TRUE(writeFrame(
        child.stdinFd,
        sweepd::encodeJobRequest(sweepd::JobRequest{spec})));
    closeFd(child.stdinFd);
    std::string payload;
    const FrameStatus fs =
        readFrame(child.stdoutFd, payload, 120000.0);
    closeFd(child.stdoutFd);
    const ExitStatus es = reapProcess(child.pid);
    EXPECT_EQ(fs, FrameStatus::Ok) << frameStatusName(fs);
    EXPECT_TRUE(es.ok()) << es.describe();
    if (fs == FrameStatus::Ok) {
        EXPECT_TRUE(sweepd::decodeReply(payload, reply));
    }
    return reply;
}

} // namespace

// ---------------------------------------------------------------
// framing

TEST(SweepdFraming, RoundTripsPayloadsThroughAPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "{\"hello\": \"world\"}";
    ASSERT_TRUE(writeFrame(fds[1], payload));
    std::string back;
    EXPECT_EQ(readFrame(fds[0], back, 1000.0), FrameStatus::Ok);
    EXPECT_EQ(back, payload);

    // An empty payload frames fine too.
    ASSERT_TRUE(writeFrame(fds[1], ""));
    EXPECT_EQ(readFrame(fds[0], back, 1000.0), FrameStatus::Ok);
    EXPECT_EQ(back, "");

    ::close(fds[1]);
    // Writer gone: the reader sees a clean EOF, not a hang.
    EXPECT_EQ(readFrame(fds[0], back, 1000.0), FrameStatus::Eof);
    ::close(fds[0]);
}

TEST(SweepdSpawn, WorkerPipesCloseOnExec)
{
    // The service's ends of one worker's pipes must not leak into
    // the worker it execs for another lane.
    ChildProcess child = spawnChildProcess(
        {selfPath(), std::string(sweepd::kWorkerFlag)}, {});
    ASSERT_GT(child.pid, 0);
    const int inFlags = ::fcntl(child.stdinFd, F_GETFD);
    const int outFlags = ::fcntl(child.stdoutFd, F_GETFD);
    // No request: the worker sees EOF on its stdin and exits.
    closeFd(child.stdinFd);
    closeFd(child.stdoutFd);
    const ExitStatus es = reapProcess(child.pid);
    EXPECT_TRUE(es.exited) << es.describe();
    ASSERT_NE(inFlags, -1);
    ASSERT_NE(outFlags, -1);
    EXPECT_TRUE(inFlags & FD_CLOEXEC);
    EXPECT_TRUE(outFlags & FD_CLOEXEC);
}

TEST(SweepdSpawn, AParentWithoutStdinStillWiresTheWorker)
{
    // A service started with fd 0 closed gets fd 0 back from pipe2
    // for its worker's stdin. The worker must still read its request
    // there (it used to lose it and poll its own reply pipe). Runs in
    // a forked child so this process keeps its stdin.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ignoreSigpipe();
        ::close(STDIN_FILENO);
        ChildProcess child = spawnChildProcess(
            {selfPath(), std::string(sweepd::kWorkerFlag)}, {});
        bool replied = false;
        if (child.pid > 0) {
            // Not a job: the worker answers with a failed reply.
            writeFrame(child.stdinFd, "not a job request");
            closeFd(child.stdinFd);
            std::string payload;
            replied = readFrame(child.stdoutFd, payload, 20000.0) ==
                      FrameStatus::Ok;
            killProcess(child.pid);
            reapProcess(child.pid);
        }
        _exit(replied ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "the worker never replied";
}

TEST(SweepdProtocol, DuplicateSpecFieldsRejected)
{
    try {
        sweepd::decodeJobRequest(R"({"spec": {"seed": 1, "seed": 2}})");
        FAIL() << "duplicate request field accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.field(), "seed");
    }
}

TEST(SweepdFraming, RejectsCorruptStreams)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Stray text where a frame header should be.
    const char junk[] = "this is not a frame header at all";
    ASSERT_EQ(::write(fds[1], junk, sizeof(junk) - 1),
              ssize_t(sizeof(junk) - 1));
    ::close(fds[1]);
    std::string back;
    EXPECT_EQ(readFrame(fds[0], back, 1000.0),
              FrameStatus::Corrupt);
    ::close(fds[0]);
}

TEST(SweepdFraming, TimesOutOnASilentPeer)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string back;
    EXPECT_EQ(readFrame(fds[0], back, 50.0), FrameStatus::Timeout);
    ::close(fds[0]);
    ::close(fds[1]);
}

// ---------------------------------------------------------------
// one worker process

TEST(SweepdWorker, RunsOneJobAndReturnsItsResult)
{
    ExperimentSpec spec;
    spec.molecule = "H2";
    spec.bond = 0.74;
    spec.mode = "sampled";
    spec.optimizer = "spsa";
    spec.spsaIter = 8;
    spec.shots = 1024;
    spec.seed = 7;
    spec.reference = false;

    const sweepd::WorkerReply reply = runWorkerJob(spec);
    ASSERT_TRUE(reply.done) << reply.error;
    EXPECT_EQ(reply.result.spec.molecule, "H2");
    EXPECT_LT(reply.result.energy(), 0.0); // bound H2
    EXPECT_GT(reply.result.shots, 0u);
}

TEST(SweepdWorker, ReportsASpecErrorAsFastFail)
{
    ExperimentSpec spec;
    spec.molecule = "unobtainium";
    const sweepd::WorkerReply reply = runWorkerJob(spec);
    EXPECT_FALSE(reply.done);
    EXPECT_TRUE(reply.fastFail);
    EXPECT_NE(reply.error.find("unobtainium"), std::string::npos);
}

// ---------------------------------------------------------------
// one contract across executors

TEST(SweepdService, AggregateMatchesTheInProcessEngineByteForByte)
{
    TempDir json("identity");
    EnvGuard jsonEnv("QCC_JSON", json.path());

    SweepEngineOptions serial;
    serial.concurrency = 1;
    const std::string inProcess =
        SweepEngine(smallSweep(), serial).run().json();

    sweepd::SweepdOptions opts = serviceOptions();
    opts.concurrency = 2;
    const std::string pooled =
        sweepd::SweepdService(opts).submit(smallSweep()).json();

    EXPECT_EQ(pooled, inProcess);
    EXPECT_EQ(slurp(json.path() + "/SWEEP_sweepd_unit.json"),
              inProcess);
}

TEST(SweepdService, ABadInputFailsAfterOneAttempt)
{
    TempDir json("bad_input");
    EnvGuard jsonEnv("QCC_JSON", json.path());

    SweepSpec spec = smallSweep();
    spec.axes.clear();
    spec.base.grouping = "rainbow"; // not a registered strategy
    sweepd::SweepdOptions opts = serviceOptions();
    opts.retries = 2;

    ResultStore store = sweepd::SweepdService(opts).submit(spec);
    ASSERT_EQ(store.countWithStatus(JobStatus::Failed), 1u);
    EXPECT_EQ(store.jobs()[0].attempts, 1);
    EXPECT_NE(store.jobs()[0].error.find("rainbow"), std::string::npos);
}

TEST(SweepdService, BothExecutorsSplitThePoolOverTheJobsThatRun)
{
    // Concurrency 8 over two jobs runs two lanes, so each job gets
    // half the pool, on either executor. The sweep.job / sweepd.job
    // spans record the lanes each job was given.
    TempDir json("lanes");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    SweepSpec spec = smallSweep();
    spec.axes[0].values.resize(2);

    SweepEngineOptions eo;
    eo.concurrency = 8;
    sweepd::SweepdOptions so = serviceOptions();
    so.concurrency = 8;
    EXPECT_EQ(SweepEngine(spec, eo).concurrency(), 2u);
    EXPECT_EQ(sweepd::SweepdService(so).concurrency(spec), 2u);

    setTraceEnabled(true);
    clearTrace();
    SweepEngine(spec, eo).run();
    sweepd::SweepdService(so).submit(spec);
    const JsonValue doc = JsonValue::parse(traceEventsJson());
    setTraceEnabled(false);
    clearTrace();

    const double expected = std::max(1u, parallelThreads() / 2);
    std::map<std::string, int> jobs;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    for (const JsonValue &e : events->items) {
        const JsonValue *name = e.find("name");
        const JsonValue *args = e.find("args");
        if (!name || !args || (name->text != "sweep.job" &&
                               name->text != "sweepd.job"))
            continue;
        const JsonValue *lanes = args->find("lanes");
        ASSERT_NE(lanes, nullptr);
        EXPECT_EQ(lanes->number, expected) << name->text;
        ++jobs[name->text];
    }
    EXPECT_EQ(jobs["sweep.job"], 2);
    EXPECT_EQ(jobs["sweepd.job"], 2);
}

// ---------------------------------------------------------------
// crash isolation

TEST(SweepdService, AWorkerCrashRecordsOneFailedJobAndTheSweepFinishes)
{
    TempDir json("crash");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    // Seed 13 calls abort() inside the worker.
    EnvGuard crash("QCC_SWEEPD_TEST_CRASH_SEED", "13");

    sweepd::SweepdService service(serviceOptions());
    sweepd::SweepdRunStats stats;
    ResultStore store = service.submit(smallSweep(), &stats);

    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 3u);
    ASSERT_EQ(store.countWithStatus(JobStatus::Failed), 1u);
    const SweepJobRecord &failed = store.jobs()[2]; // seed 13
    EXPECT_EQ(failed.status, JobStatus::Failed);
    EXPECT_NE(failed.error.find("signal 6"), std::string::npos)
        << failed.error;
}

// ---------------------------------------------------------------
// hard timeout

TEST(SweepdService, HardTimeoutKillsAndReapsTheWorker)
{
    TempDir json("timeout");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    // Seed 12 sleeps ~30 s in the worker; the budget is 5 s, which
    // a sanitized H2 job (about 2 s under TSan) stays well inside.
    EnvGuard sleeper("QCC_SWEEPD_TEST_SLEEP_SEED", "12");

    SweepSpec spec = SweepSpec::fromJson(R"({
      "name": "sweepd_timeout",
      "base": {
        "molecule": "H2", "bond": 0.74, "mode": "sampled",
        "optimizer": "spsa", "spsa_iter": 8, "shots": 1024,
        "reference": false
      },
      "axes": { "seed": [11, 12] },
      "emit_timings": false
    })");

    sweepd::SweepdOptions opts = serviceOptions();
    opts.jobTimeoutMs = 5000.0;

    sweepd::SweepdService service(opts);
    ResultStore store = service.submit(spec);

    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 1u);
    ASSERT_EQ(store.countWithStatus(JobStatus::TimedOut), 1u);
    const SweepJobRecord &killed = store.jobs()[1]; // seed 12
    EXPECT_EQ(killed.status, JobStatus::TimedOut);
    EXPECT_EQ(killed.timeoutKind, TimeoutKind::Hard);
    EXPECT_FALSE(killed.finished()); // no result to read
    // Killed and reaped at the deadline, not after the 30 s sleep.
    EXPECT_LT(killed.wallMillis, 10000.0);
    EXPECT_NE(killed.error.find("hard timeout"), std::string::npos)
        << killed.error;
    // The aggregate names the kind, distinguishing it from the
    // in-process engine's soft variant.
    EXPECT_NE(store.json().find("\"timeout_kind\": \"hard\""),
              std::string::npos);
}

// ---------------------------------------------------------------
// resume

TEST(SweepdService, ResumeReRunsOnlyMissingJobsAndReproducesBytes)
{
    // Uninterrupted baseline.
    TempDir cleanDir("resume_clean");
    std::string cleanDoc;
    {
        EnvGuard jsonEnv("QCC_JSON", cleanDir.path());
        sweepd::SweepdService service(serviceOptions());
        sweepd::SweepdRunStats stats;
        service.submit(smallSweep(), &stats);
        EXPECT_EQ(stats.resumed, 0u);
        EXPECT_EQ(stats.ran, 4u);
        cleanDoc = slurp(cleanDir.path() +
                         "/SWEEP_sweepd_unit.json");
    }

    // Interrupted run: one job crashes, three complete; the
    // write-through aggregate is left behind as the resume source.
    TempDir dir("resume");
    EnvGuard jsonEnv("QCC_JSON", dir.path());
    {
        EnvGuard crash("QCC_SWEEPD_TEST_CRASH_SEED", "13");
        sweepd::SweepdService service(serviceOptions());
        ResultStore store = service.submit(smallSweep());
        EXPECT_EQ(store.countWithStatus(JobStatus::Done), 3u);
    }

    // Resubmit: the three completed jobs are adopted (zero
    // re-runs), only the crashed one executes, and the final
    // document is byte-identical to the uninterrupted run.
    sweepd::SweepdService service(serviceOptions());
    sweepd::SweepdRunStats stats;
    ResultStore store = service.submit(smallSweep(), &stats);
    EXPECT_EQ(stats.resumed, 3u);
    EXPECT_EQ(stats.ran, 1u);
    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 4u);
    EXPECT_EQ(slurp(dir.path() + "/SWEEP_sweepd_unit.json"),
              cleanDoc);
}

TEST(SweepdService, ResumeIgnoresRecordsWhoseSpecChanged)
{
    TempDir dir("resume_hash");
    EnvGuard jsonEnv("QCC_JSON", dir.path());
    {
        sweepd::SweepdService service(serviceOptions());
        service.submit(smallSweep());
    }

    // Same name, different axis values: every spec_hash changes, so
    // nothing may be adopted.
    SweepSpec changed = smallSweep();
    changed.axes[0].values.clear();
    for (uint64_t s : {21, 22, 23, 24}) {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = double(s);
        v.text = std::to_string(s);
        changed.axes[0].values.push_back(v);
    }

    sweepd::SweepdService service(serviceOptions());
    sweepd::SweepdRunStats stats;
    service.submit(changed, &stats);
    EXPECT_EQ(stats.resumed, 0u);
    EXPECT_EQ(stats.ran, 4u);
}

TEST(SweepdService, AnUnparseableResumeDocumentRunsTheSweepInFull)
{
    // A service killed mid-write can leave a truncated aggregate.
    TempDir dir("resume_torn");
    EnvGuard jsonEnv("QCC_JSON", dir.path());
    std::ofstream(dir.path() + "/SWEEP_sweepd_unit.json")
        << "{\"jobs\": [{\"index\": 0, \"sta";

    sweepd::SweepdRunStats stats;
    ResultStore store =
        sweepd::SweepdService(serviceOptions()).submit(smallSweep(),
                                                        &stats);
    EXPECT_EQ(stats.resumed, 0u);
    EXPECT_EQ(stats.ran, 4u);
    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 4u);
}

// ---------------------------------------------------------------
// cross-process store sharing

TEST(SweepdService, WorkersUseTheProgrammaticStoreDir)
{
    TempDir json("store_dir_json");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    TempDir storeRoot("store_dir");
    EnvGuard noEnvStore("QCC_STORE_DIR");
    StoreConfigGuard restore;
    setStoreDir(storeRoot.path()); // what qcc_sweepd --store-dir does
    setStoreEnabled(true);

    sweepd::SweepdOptions opts = serviceOptions();
    opts.resume = false; // the second submit must run every job
    sweepd::SweepdService(opts).submit(smallSweep());

    // Warm store: every worker reads the problem back from disk.
    sweepd::SweepdRunStats stats;
    sweepd::SweepdService(opts).submit(smallSweep(), &stats);
    EXPECT_EQ(stats.ran, 4u);
    EXPECT_EQ(stats.workers.problemBuilds, 0u);
    EXPECT_EQ(stats.workers.problemDiskHits, 4u);
}

TEST(SweepdService, WorkersHonorTheProgrammaticStoreKillSwitch)
{
    TempDir json("store_off_json");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    TempDir storeRoot("store_off");
    EnvGuard envStore("QCC_STORE_DIR", storeRoot.path());
    StoreConfigGuard restore;
    setStoreDir(storeRoot.path());
    setStoreEnabled(false); // what qcc_sweepd --no-store does

    sweepd::SweepdRunStats stats;
    sweepd::SweepdService(serviceOptions()).submit(smallSweep(), &stats);
    EXPECT_EQ(stats.workers.problemBuilds, 4u);
    EXPECT_EQ(stats.workers.problemDiskHits, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(storeRoot.path()));
}

TEST(SweepdWorker, SecondWorkerServesEverythingFromTheSharedStore)
{
    TempDir storeRoot("store");
    EnvGuard storeEnv("QCC_STORE_DIR",
                      storeRoot.path() + "/tier");
    EnvGuard storeOn("QCC_STORE", "1");

    ExperimentSpec spec;
    spec.molecule = "H2";
    spec.bond = 0.74;
    spec.mode = "sampled";
    spec.optimizer = "spsa";
    spec.spsaIter = 8;
    spec.shots = 1024;
    spec.seed = 7;
    spec.reference = false;
    spec.pipeline = "mtr";
    spec.architecture = "xtree5";

    // Cold store: the first worker builds the chemistry and
    // compiles fresh.
    const sweepd::WorkerReply first = runWorkerJob(spec);
    ASSERT_TRUE(first.done) << first.error;
    EXPECT_EQ(counterIn(first.metrics, "store.problem.builds"), 1u);
    EXPECT_EQ(counterIn(first.metrics, "store.problem.disk_hits"), 0u);
    EXPECT_GT(counterIn(first.metrics, "compile.cache.misses"), 0u);

    // Warm store, brand-new process: chemistry comes off disk and
    // every compile is a hit — zero rebuilds anywhere.
    const sweepd::WorkerReply second = runWorkerJob(spec);
    ASSERT_TRUE(second.done) << second.error;
    EXPECT_EQ(counterIn(second.metrics, "store.problem.builds"), 0u);
    EXPECT_GT(counterIn(second.metrics, "store.problem.disk_hits"), 0u);
    EXPECT_EQ(counterIn(second.metrics, "compile.cache.misses"), 0u);
    EXPECT_GT(counterIn(second.metrics, "store.circuit.disk_hits"), 0u);

    // Same inputs, same bytes: process isolation and the shared
    // tier change wall time, never results.
    ExperimentResult::JsonOptions jo;
    jo.timings = false;
    jo.trace = false;
    EXPECT_EQ(first.result.json(jo), second.result.json(jo));
}

// ---------------------------------------------------------------

int
main(int argc, char **argv)
{
    // Worker mode: this binary is its own worker executable, so the
    // process tests are hermetic (no dependency on build layout).
    if (argc > 1 &&
        std::strcmp(argv[1], sweepd::kWorkerFlag) == 0)
        return sweepd::workerMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
