/**
 * @file
 * sweepd (forked sweep runner) tests: pipe framing round trips,
 * worker exchanges (one worker answers many requests, one job per
 * telemetry rider), crash isolation (an abort()ing worker records
 * one failed job and the service survives), the hard timeout (a
 * sleeping worker is killed and reaped within tolerance), worker
 * lifetime (every worker is reaped before submit() returns, one
 * forked per lane plus one per crash or kill), the journal (one
 * whole line per completed job, no aggregate until the end, torn and
 * killed appends), resume (re-submitting after a partial run re-runs
 * only the missing jobs and reproduces the uninterrupted document
 * byte for byte), and cross-process persistent-store sharing (a
 * second worker process serves chemistry and compilation from the
 * disk tier with zero rebuilds).
 *
 * The test binary doubles as the worker executable: when invoked
 * with --worker it behaves exactly like `qcc_sweepd --worker`
 * (fault-injection hooks included), so every test is hermetic. Both
 * roles register one extra experiment kind, "rejects_late", which
 * looks up its problem and then throws a SpecError: a BadInput job
 * that moves counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/subprocess.hh"
#include "obs/metrics.hh"
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

/** The sampled-SPSA H2 job the worker tests send. */
ExperimentSpec
h2Job(uint64_t seed)
{
    ExperimentSpec spec;
    spec.molecule = "H2";
    spec.bond = 0.74;
    spec.mode = "sampled";
    spec.optimizer = "spsa";
    spec.spsaIter = 8;
    spec.shots = 1024;
    spec.seed = seed;
    spec.reference = false;
    return spec;
}

/**
 * Experiment kind "rejects_late": looks up the job's problem (moving
 * the store counters), then fails as bad input.
 */
ExperimentResult
rejectLate(const ExperimentSpec &spec)
{
    ExperimentSpec estimate = spec;
    estimate.kind = "estimate";
    Experiment(estimate).run();
    throw SpecError("kind", "rejected after the problem lookup");
}

/** True when this process has no child left, running or unreaped. */
bool
noChildLeft()
{
    int status = 0;
    return ::waitpid(-1, &status, WNOHANG) == -1 && errno == ECHILD;
}

/** The whole (newline-terminated) lines of a journal. */
size_t
wholeLines(const std::string &journal)
{
    return size_t(std::count(journal.begin(), journal.end(), '\n'));
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

TEST(SweepdWorker, AnswersManyRequestsWithOneJobPerRider)
{
    // One worker process, two jobs on the same problem, a cold store
    // of its own and tracing on: the second job finds the problem in
    // the worker's memo, and neither rider carries the other job.
    TempDir storeRoot("two_requests");
    ChildProcess child = spawnChildProcess(
        {selfPath(), std::string(sweepd::kWorkerFlag)},
        {{"QCC_STORE_DIR", storeRoot.path()},
         {"QCC_STORE", "1"},
         {"QCC_TRACE", "1"}});
    ASSERT_GT(child.pid, 0);
    std::vector<sweepd::WorkerReply> replies;
    for (uint64_t seed : {7, 8}) {
        ASSERT_TRUE(writeFrame(
            child.stdinFd,
            sweepd::encodeJobRequest(sweepd::JobRequest{h2Job(seed)})));
        std::string payload;
        const FrameStatus fs =
            readFrame(child.stdoutFd, payload, 120000.0);
        ASSERT_EQ(fs, FrameStatus::Ok) << frameStatusName(fs);
        sweepd::WorkerReply reply;
        ASSERT_TRUE(sweepd::decodeReply(payload, reply));
        ASSERT_TRUE(reply.done) << reply.error;
        replies.push_back(std::move(reply));
    }
    // Closing stdin ends the worker cleanly.
    const ExitStatus es = stopChildProcess(child, 60000.0);
    EXPECT_TRUE(es.ok()) << es.describe();

    EXPECT_EQ(counterIn(replies[0].metrics, "store.problem.builds"), 1u);
    EXPECT_EQ(counterIn(replies[1].metrics, "store.problem.builds"), 0u);
    EXPECT_EQ(counterIn(replies[1].metrics, "store.problem.mem_hits"), 1u);
    EXPECT_EQ(counterIn(replies[1].metrics, "store.problem.disk_hits"),
              0u);
    std::set<std::string> pids;
    for (const sweepd::WorkerReply &reply : replies) {
        int runs = 0;
        for (const JsonValue &e : reply.trace.items) {
            const JsonValue *name = e.find("name");
            const JsonValue *ph = e.find("ph");
            if (name && ph && name->text == "experiment.run" &&
                ph->text == "B")
                ++runs;
            if (const JsonValue *pid = e.find("pid"))
                pids.insert(pid->text);
        }
        EXPECT_EQ(runs, 1) << "one job per trace rider";
    }
    EXPECT_EQ(pids.size(), 1u) << "one worker answered both";
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

TEST(SweepdService, AFailedReplyCarriesItsRiders)
{
    // A bad-input job that looked up its problem before failing: its
    // counters reach the service registry and the worker totals.
    TempDir json("failed_riders");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    SweepSpec spec = smallSweep();
    spec.axes.clear();
    spec.base.kind = "rejects_late";
    sweepd::SweepdOptions opts = serviceOptions();
    opts.retries = 2;

    const char *const lookups[] = {"store.problem.builds",
                                   "store.problem.disk_hits",
                                   "store.problem.mem_hits"};
    const JsonValue before = JsonValue::parse(metricsJson());
    sweepd::SweepdRunStats stats;
    ResultStore store = sweepd::SweepdService(opts).submit(spec, &stats);
    const JsonValue after = JsonValue::parse(metricsJson());

    ASSERT_EQ(store.countWithStatus(JobStatus::Failed), 1u);
    EXPECT_EQ(store.jobs()[0].attempts, 1) << "bad input, one attempt";
    uint64_t registry = 0;
    for (const char *name : lookups)
        registry += counterIn(after, name) - counterIn(before, name);
    EXPECT_EQ(registry, 1u);
    EXPECT_EQ(stats.workers.problemBuilds +
                  stats.workers.problemDiskHits +
                  stats.workers.problemMemHits,
              1u);
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
// worker lifetime

TEST(SweepdService, EveryWorkerIsReapedAndEachLaneForksOne)
{
    // At concurrency 1 a fault-free submit forks one worker, and a
    // crash or a hard-deadline kill forks one replacement for the
    // jobs after it. Whatever happens, submit() returns with no child
    // of this process left, running or unreaped.
    TempDir json("reaped");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    MetricCounter &spawned = metricCounter("sweepd.workers.spawned");
    sweepd::SweepdOptions opts = serviceOptions();
    opts.concurrency = 1;
    opts.resume = false;

    uint64_t before = spawned.value();
    EXPECT_EQ(sweepd::SweepdService(opts)
                  .submit(smallSweep())
                  .countWithStatus(JobStatus::Done),
              4u);
    EXPECT_TRUE(noChildLeft()) << "clean run";
    EXPECT_EQ(spawned.value() - before, 1u) << "clean run";

    {
        // Seed 13 aborts; a fresh worker serves seed 14.
        EnvGuard crash("QCC_SWEEPD_TEST_CRASH_SEED", "13");
        before = spawned.value();
        ResultStore store = sweepd::SweepdService(opts).submit(smallSweep());
        EXPECT_EQ(store.countWithStatus(JobStatus::Failed), 1u);
        EXPECT_TRUE(noChildLeft()) << "crash";
        EXPECT_EQ(spawned.value() - before, 2u) << "crash";
    }

    {
        // Seed 12 sleeps past the deadline; a fresh worker serves 11.
        EnvGuard sleeper("QCC_SWEEPD_TEST_SLEEP_SEED", "12");
        SweepSpec spec = smallSweep();
        std::swap(spec.axes[0].values[0], spec.axes[0].values[1]);
        spec.axes[0].values.resize(2);
        sweepd::SweepdOptions timed = opts;
        timed.jobTimeoutMs = 5000.0;
        before = spawned.value();
        ResultStore store = sweepd::SweepdService(timed).submit(spec);
        EXPECT_EQ(store.countWithStatus(JobStatus::TimedOut), 1u);
        EXPECT_EQ(store.countWithStatus(JobStatus::Done), 1u);
        EXPECT_TRUE(noChildLeft()) << "hard timeout";
        EXPECT_EQ(spawned.value() - before, 2u) << "hard timeout";
    }

    {
        SweepSpec bad = smallSweep();
        bad.axes[0].field = "no_such_field";
        EXPECT_ANY_THROW(sweepd::SweepdService(opts).submit(bad));
        EXPECT_TRUE(noChildLeft()) << "throwing expansion";
    }

    // The lanes share the idle workers: never more than one a lane.
    opts.concurrency = 2;
    before = spawned.value();
    sweepd::SweepdService(opts).submit(smallSweep());
    EXPECT_TRUE(noChildLeft()) << "two lanes";
    EXPECT_GE(spawned.value() - before, 1u);
    EXPECT_LE(spawned.value() - before, 2u);
}

// ---------------------------------------------------------------
// journal

TEST(SweepdService, MidSweepTheJournalHoldsTheCompletedJobsAndNoAggregate)
{
    TempDir json("journal_progress");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    const std::string journal = json.path() + "/SWEEP_sweepd_unit.journal";
    const std::string aggregate = json.path() + "/SWEEP_sweepd_unit.json";

    std::vector<std::pair<size_t, size_t>> seen; // completed, lines
    bool aggregateSeen = false;
    sweepd::SweepdOptions opts = serviceOptions();
    opts.progress = [&](const SweepProgress &p) {
        seen.emplace_back(p.completed, wholeLines(slurp(journal)));
        aggregateSeen |= std::filesystem::exists(aggregate);
    };
    sweepd::SweepdService(opts).submit(smallSweep());

    ASSERT_EQ(seen.size(), 4u);
    for (const auto &[completed, lines] : seen)
        EXPECT_EQ(lines, completed);
    EXPECT_FALSE(aggregateSeen) << "no aggregate before the end";
    EXPECT_TRUE(std::filesystem::exists(aggregate));
    EXPECT_EQ(wholeLines(slurp(journal)), 4u);
}

TEST(SweepdService, ATornLastJournalLineIsIgnoredAndTheWholeLinesAdopted)
{
    TempDir dir("journal_torn_tail");
    EnvGuard jsonEnv("QCC_JSON", dir.path());
    const std::string journal = dir.path() + "/SWEEP_sweepd_unit.journal";
    const std::string aggregate = dir.path() + "/SWEEP_sweepd_unit.json";
    sweepd::SweepdService(serviceOptions()).submit(smallSweep());
    const std::string clean = slurp(aggregate);

    // Keep three whole lines and half of the fourth.
    const std::string full = slurp(journal);
    size_t third = 0;
    for (int i = 0; i < 3; ++i)
        third = full.find('\n', third) + 1;
    std::ofstream(journal, std::ios::binary | std::ios::trunc)
        << full.substr(0, third + (full.size() - third) / 2);

    sweepd::SweepdRunStats stats;
    sweepd::SweepdService(serviceOptions()).submit(smallSweep(), &stats);
    EXPECT_EQ(stats.resumed, 3u);
    EXPECT_EQ(stats.ran, 1u);
    EXPECT_EQ(slurp(aggregate), clean);
    EXPECT_EQ(wholeLines(slurp(journal)), 4u);
}

TEST(SweepdJournal, ResumeAdoptsEveryWholeLineWhenKilledMidAppend)
{
    // A child starts a journal, appends 240 records' lines, and
    // starts over, until it is SIGKILLed after a random 2-22 ms:
    // wherever the kill lands, the journal is whole lines and at
    // most one torn last line, and a resume adopts every record that
    // has a whole line.
    std::vector<ExperimentSpec> jobs(240);
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].molecule = i % 2 ? "LiH" : "H2";
        jobs[i].mode = "sampled";
        jobs[i].optimizer = "spsa";
        jobs[i].seed = 7 + i;
    }
    ResultStore store("killed", false);
    store.reset(jobs);
    std::vector<std::string> lines;
    for (size_t i = 0; i < jobs.size(); ++i) {
        SweepJobRecord rec;
        rec.index = i;
        rec.spec = jobs[i];
        rec.specHash = sweepJobHash(jobs[i]);
        rec.status = JobStatus::Done;
        rec.attempts = 1;
        rec.result.spec = jobs[i];
        rec.result.vqe.energy = -1.1 - 1e-3 * double(i);
        lines.push_back(store.journalLine(rec));
    }
    TempDir dir("journal_killed");
    const std::string path = dir.path() + "/SWEEP_killed.journal";
    SweepJournal(path, "");

    std::mt19937 rng(2021);
    std::uniform_int_distribution<int> delayUs(2000, 22000);
    for (int trial = 0; trial < 20; ++trial) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0)
            for (;;) {
                SweepJournal journal(path, "");
                for (const std::string &line : lines)
                    journal.append(line);
            }
        ::usleep(useconds_t(delayUs(rng)));
        ::kill(pid, SIGKILL);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        const std::string text = slurp(path);
        ResultStore resumed("killed", false);
        resumed.reset(jobs);
        EXPECT_EQ(resumed.adoptJournal(text), wholeLines(text))
            << "trial " << trial << ": " << text.size() << " bytes";
    }
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
    // journal is left behind as the resume source.
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
    // A service killed mid-append can leave a torn last journal
    // line; here it is the only line.
    TempDir dir("resume_torn");
    EnvGuard jsonEnv("QCC_JSON", dir.path());
    std::ofstream(dir.path() + "/SWEEP_sweepd_unit.journal")
        << "{\"index\": 0, \"sta";

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

    // Warm store: each worker reads the problem back from disk once
    // and serves its later jobs from its memo.
    sweepd::SweepdRunStats stats;
    sweepd::SweepdService(opts).submit(smallSweep(), &stats);
    EXPECT_EQ(stats.ran, 4u);
    EXPECT_EQ(stats.workers.problemBuilds, 0u);
    EXPECT_GE(stats.workers.problemDiskHits, 1u);
    EXPECT_EQ(stats.workers.problemDiskHits +
                  stats.workers.problemMemHits,
              4u);
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
    EXPECT_EQ(stats.workers.problemDiskHits, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(storeRoot.path()));
    EXPECT_EQ(stats.workers.problemBuilds + stats.workers.problemMemHits,
              4u);
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
    // Both roles know the test kind: the service expands it, the
    // worker runs it.
    experimentKindRegistry().add("rejects_late", rejectLate);
    // Worker mode: this binary is its own worker executable, so the
    // process tests are hermetic (no dependency on build layout).
    if (argc > 1 &&
        std::strcmp(argv[1], sweepd::kWorkerFlag) == 0)
        return sweepd::workerMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
