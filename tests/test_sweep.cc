/**
 * @file
 * Tests for the sweep subsystem: SweepSpec JSON round-tripping and
 * axis expansion (cartesian order, numeric ranges, explicit jobs),
 * engine determinism (byte-identical SWEEP json at concurrency 1
 * and N under one seed), failure isolation (a bad job is recorded,
 * the sweep continues), the soft per-job timeout, cooperative
 * mid-sweep cancellation, cross-job sharing of the global compile
 * cache, and resume (spec_hash-keyed adoption of completed jobs
 * from a sweep journal; an aggregate is refused).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <random>

#include <sys/wait.h>
#include <unistd.h>

#include "api/experiment.hh"
#include "common/binio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/registry.hh"
#include "compiler/cache.hh"
#include "obs/metrics.hh"
#include "sweep/sweep_engine.hh"

using namespace qcc;

namespace {

struct VerboseSilencer
{
    VerboseSilencer() { setLogLevel(LogLevel::Quiet); }
} silencer;

/** Cheap stochastic H2 sweep: grouping x seed, 4 jobs. */
SweepSpec
smallSweep()
{
    return SweepSpec::fromJson(R"({
      "name": "unit",
      "base": {
        "molecule": "H2", "bond": 0.74, "mode": "sampled",
        "optimizer": "spsa", "spsa_iter": 10, "shots": 1024,
        "reference": false
      },
      "axes": {
        "grouping": ["greedy", "graph-coloring"],
        "seed": [2021, 2022]
      },
      "emit_timings": false
    })");
}

/** Write every record of `store` to `path` as journal lines. */
bool
writeJournal(const ResultStore &store, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    for (const SweepJobRecord &r : store.jobs())
        out << store.journalLine(r);
    return bool(out);
}

} // namespace

TEST(SweepSpec, JsonRoundTripReproducesTheSpec)
{
    SweepSpec spec = smallSweep();
    spec.concurrency = 3;
    spec.jobTimeoutMs = 1500.0;
    spec.retries = 2;
    ExperimentSpec extra;
    extra.molecule = "LiH";
    extra.bond = 1.6;
    spec.explicitJobs.push_back(extra);

    const std::string doc = spec.json();
    SweepSpec back = SweepSpec::fromJson(doc);
    EXPECT_EQ(back.json(), doc);
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.concurrency, 3u);
    EXPECT_EQ(back.jobTimeoutMs, 1500.0);
    EXPECT_EQ(back.retries, 2);
    EXPECT_FALSE(back.emitTimings);
    ASSERT_EQ(back.axes.size(), 2u);
    EXPECT_EQ(back.axes[0].field, "grouping");
    EXPECT_EQ(back.axes[1].values.size(), 2u);
    ASSERT_EQ(back.explicitJobs.size(), 1u);
    EXPECT_EQ(back.explicitJobs[0].molecule, "LiH");

    // Expansion agrees job for job.
    const auto a = spec.expand(), b = back.expand();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].json(), b[i].json()) << i;
}

TEST(SweepSpec, CartesianExpansionOrderIsDocumentOrder)
{
    SweepSpec spec = smallSweep();
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 4u);
    // First axis (grouping) slowest, second (seed) fastest.
    EXPECT_EQ(jobs[0].grouping, "greedy");
    EXPECT_EQ(jobs[0].seed, uint64_t{2021});
    EXPECT_EQ(jobs[1].grouping, "greedy");
    EXPECT_EQ(jobs[1].seed, uint64_t{2022});
    EXPECT_EQ(jobs[2].grouping, "graph-coloring");
    EXPECT_EQ(jobs[2].seed, uint64_t{2021});
    EXPECT_EQ(jobs[3].grouping, "graph-coloring");
    EXPECT_EQ(jobs[3].seed, uint64_t{2022});
    // Base fields flow into every job.
    for (const auto &j : jobs) {
        EXPECT_EQ(j.molecule, "H2");
        EXPECT_EQ(j.shots, uint64_t{1024});
    }
}

TEST(SweepSpec, RangeAxisExpandsEndpointInclusive)
{
    SweepSpec spec = SweepSpec::fromJson(R"({
      "base": {"molecule": "LiH"},
      "axes": {"bond": {"from": 1.0, "to": 2.6, "step": 0.2}}
    })");
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 9u);
    EXPECT_DOUBLE_EQ(jobs.front().bond, 1.0);
    EXPECT_NEAR(jobs.back().bond, 2.6, 1e-12);
    for (size_t i = 1; i < jobs.size(); ++i)
        EXPECT_NEAR(jobs[i].bond - jobs[i - 1].bond, 0.2, 1e-12);

    // A span that is not a whole number of steps must stop short of
    // `to`, never overshoot it.
    SweepSpec ragged = SweepSpec::fromJson(R"({
      "base": {"molecule": "LiH"},
      "axes": {"bond": {"from": 1.0, "to": 2.0, "step": 0.4}}
    })");
    const auto rjobs = ragged.expand();
    ASSERT_EQ(rjobs.size(), 3u);
    EXPECT_NEAR(rjobs.back().bond, 1.8, 1e-12);
}

TEST(SweepSpec, ExplicitJobsInheritBaseRegardlessOfKeyOrder)
{
    // JSON object key order must not change semantics: a document
    // that lists "jobs" before "base" still expands the jobs over
    // the base defaults.
    SweepSpec spec = SweepSpec::fromJson(R"({
      "jobs": [ {"bond": 1.6} ],
      "base": {"molecule": "LiH", "compression": 0.5}
    })");
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].molecule, "LiH");
    EXPECT_EQ(jobs[0].compression, 0.5);
    EXPECT_EQ(jobs[0].bond, 1.6);
}

TEST(SweepSpec, DiagnosticsNameTheOffendingElement)
{
    // Unknown axis field -> SpecError with the field name.
    EXPECT_THROW(SweepSpec::fromJson(
                     R"({"axes": {"warp": [1, 2]}})"),
                 SpecError);
    // Ill-typed axis value.
    EXPECT_THROW(SweepSpec::fromJson(
                     R"({"axes": {"bond": ["x"]}})"),
                 SpecError);
    // Unknown sweep-level field.
    try {
        SweepSpec::fromJson(R"({"jobz": []})");
        FAIL() << "unknown sweep field accepted";
    } catch (const SweepError &e) {
        EXPECT_EQ(e.element(), "jobz");
    }
    // Malformed ranges.
    EXPECT_THROW(SweepSpec::fromJson(
                     R"({"axes": {"bond": {"from": 1, "to": 2}}})"),
                 SweepError);
    EXPECT_THROW(
        SweepSpec::fromJson(
            R"({"axes": {"bond": {"from": 2, "to": 1, "step": 1}}})"),
        SweepError);
    // Wild ranges must fail with a diagnostic, not cast-UB or OOM.
    EXPECT_THROW(
        SweepSpec::fromJson(R"({"axes": {"bond":
            {"from": 0, "to": 1e300, "step": 1e-300}}})"),
        SweepError);
    EXPECT_THROW(
        SweepSpec::fromJson(R"({"axes": {"bond":
            {"from": 0, "to": 1e12, "step": 1e-6}}})"),
        SweepError);
    // A bare base is a one-job sweep; empty axis lists are not.
    EXPECT_EQ(SweepSpec::fromJson("{}").expand().size(), 1u);
    EXPECT_THROW(SweepSpec::fromJson(R"({"axes": {"seed": []}})"),
                 SweepError);
}

namespace {

/** The element a SweepError names, or "" when the document parses. */
std::string
rejectedElement(const std::string &doc)
{
    try {
        SweepSpec::fromJson(doc);
    } catch (const SweepError &e) {
        return e.element();
    }
    return "";
}

} // namespace

TEST(SweepSpec, ConcurrencyAboveTheCapIsRejected)
{
    // The engine starts min(concurrency, jobs) - 1 threads, sweepd
    // forks that many workers: the document is where to refuse.
    EXPECT_EQ(rejectedElement(R"({"concurrency": 100000})"),
              "concurrency");
    EXPECT_EQ(rejectedElement(R"({"concurrency": 1025})"),
              "concurrency");
    EXPECT_EQ(rejectedElement(R"({"concurrency": 4294967297})"),
              "concurrency");
    EXPECT_EQ(rejectedElement(R"({"concurrency": -1})"),
              "concurrency");
    EXPECT_EQ(SweepSpec::fromJson(R"({"concurrency": 1024})")
                  .concurrency,
              SweepSpec::kMaxConcurrency);
    EXPECT_EQ(SweepSpec::fromJson(R"({"concurrency": 0})").concurrency,
              0u);
}

TEST(SweepSpec, AxisProductAboveTheCapIsRejected)
{
    // Every axis passes the per-axis cap; the product does not.
    EXPECT_EQ(rejectedElement(R"({"axes": {
        "bond": {"from": 0, "to": 1000, "step": 1},
        "seed": {"from": 0, "to": 999, "step": 1}}})"),
              "axes");
    EXPECT_EQ(rejectedElement(R"({"axes": {
        "bond": {"from": 1, "to": 101, "step": 1},
        "seed": {"from": 1, "to": 101, "step": 1},
        "spsa_iter": {"from": 1, "to": 101, "step": 1}}})"),
              "axes");
    // Value lists count the same as ranges.
    std::string list = "[1";
    for (int i = 2; i <= 1001; ++i)
        list += ", " + std::to_string(i);
    list += "]";
    EXPECT_EQ(rejectedElement(R"({"axes": {"seed": )" + list +
                              R"(, "spsa_iter": )" + list + "}}"),
              "axes");
    // At the cap exactly the document parses (it is not expanded).
    const SweepSpec atCap = SweepSpec::fromJson(R"({"axes": {
        "bond": {"from": 1, "to": 1000, "step": 1},
        "seed": {"from": 1, "to": 1000, "step": 1}}})");
    EXPECT_EQ(atCap.jobCount(), SweepSpec::kMaxAxisPoints);

    // A programmatic spec meets the same bound when it is counted
    // (expand() shares the check and throws before it reserves).
    SweepSpec built;
    for (const char *field : {"bond", "seed", "spsa_iter"}) {
        SweepAxis axis{field, {}};
        for (int i = 1; i <= 101; ++i)
            axis.values.push_back(JsonValue::parse(std::to_string(i)));
        built.axes.push_back(std::move(axis));
    }
    try {
        (void)built.jobCount();
        FAIL() << "an oversized axis product was counted";
    } catch (const SweepError &e) {
        EXPECT_EQ(e.element(), "axes");
    }
}

TEST(SweepSpec, ConcurrencyArgumentsParseInTheDocumentRange)
{
    unsigned n = 7;
    EXPECT_TRUE(parseConcurrency("0", n));
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(parseConcurrency("1024", n));
    EXPECT_EQ(n, 1024u);
    for (const char *bad : {"-1", "1025", "4294967295", "", "4x", "+4",
                            " 4", "0x10"})
        EXPECT_FALSE(parseConcurrency(bad, n)) << '"' << bad << '"';
    EXPECT_EQ(n, 1024u);
}

TEST(SweepSpec, DuplicateSpecFieldsRejectedInBaseAndJobs)
{
    // The bare-spec rule holds for every spec object in a sweep: a
    // duplicated member would give one document two meanings.
    try {
        SweepSpec::fromJson(R"({"name": "d",
            "base": {"molecule": "H2", "molecule": "LiH"}})");
        FAIL() << "duplicate base field accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.field(), "molecule");
        EXPECT_NE(std::string(e.what()).find("duplicate"),
                  std::string::npos);
    }
    try {
        SweepSpec::fromJson(R"({"name": "d",
            "jobs": [{"bond": 1.0, "bond": 2.0}]})");
        FAIL() << "duplicate job field accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.field(), "bond");
        EXPECT_NE(std::string(e.what()).find("duplicate"),
                  std::string::npos);
    }
    // A resume record whose spec repeats a member rehydrates nothing.
    ExperimentResult r;
    EXPECT_TRUE(ExperimentResult::fromJsonDom(
        JsonValue::parse(R"({"spec": {"seed": 1}, "energy": -1.0})"),
        r));
    EXPECT_FALSE(ExperimentResult::fromJsonDom(
        JsonValue::parse(R"({"spec": {"seed": 1, "seed": 2},
                             "energy": -1.0})"),
        r));
}

TEST(SweepEngine, ByteIdenticalAggregateAtConcurrency1AndN)
{
    // The determinism contract: with timings off, the SWEEP json is
    // a pure function of (spec, QCC_SEED) — scheduling must never
    // leak in. Run the same stochastic sweep serially and on four
    // workers and diff the documents byte for byte.
    SweepEngineOptions serial;
    serial.concurrency = 1;
    ResultStore s1 = SweepEngine(smallSweep(), serial).run();

    SweepEngineOptions wide;
    wide.concurrency = 4;
    ResultStore s4 = SweepEngine(smallSweep(), wide).run();

    EXPECT_EQ(s1.countWithStatus(JobStatus::Done), 4u);
    EXPECT_EQ(s1.json(), s4.json());

    // And the jobs really differ from one another (distinct seeds).
    EXPECT_NE(s1.jobs()[0].result.energy(),
              s1.jobs()[1].result.energy());
}

TEST(SweepEngine, FailedJobIsRecordedAndTheSweepContinues)
{
    SweepSpec spec = smallSweep();
    ExperimentSpec bad = spec.base;
    bad.molecule = "C60"; // not in the catalog
    ExperimentSpec worse = spec.base;
    worse.grouping = "rainbow"; // not a registered strategy
    spec.explicitJobs.push_back(bad);
    spec.explicitJobs.push_back(worse);

    ResultStore store = SweepEngine(spec).run();
    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 4u);
    EXPECT_EQ(store.countWithStatus(JobStatus::Failed), 2u);
    const SweepJobRecord &molFail = store.jobs()[4];
    EXPECT_EQ(molFail.status, JobStatus::Failed);
    EXPECT_NE(molFail.error.find("molecule"), std::string::npos);
    // Spec errors fail fast: no retry can fix a typo'd key.
    EXPECT_EQ(molFail.attempts, 1);
    const SweepJobRecord &grpFail = store.jobs()[5];
    EXPECT_NE(grpFail.error.find("rainbow"), std::string::npos);

    // The aggregate records both outcomes.
    const std::string doc = store.json();
    EXPECT_NE(doc.find("\"failed\": 2"), std::string::npos);
    EXPECT_NE(doc.find("rainbow"), std::string::npos);
}

TEST(SweepEngine, BadInputGetsOneAttemptWhateverTheRetryBudget)
{
    // The one classification table both executors use (the sweepd
    // worker reports BadInput as fast_fail): errors that fail the
    // same way every time are never retried.
    EXPECT_EQ(jobFaultOf(SpecError("molecule", "unknown")),
              JobFault::BadInput);
    EXPECT_EQ(jobFaultOf(RegistryError("grouping", "rainbow", {})),
              JobFault::BadInput);
    EXPECT_EQ(jobFaultOf(JsonError("truncated document", 3)),
              JobFault::BadInput);
    EXPECT_EQ(jobFaultOf(std::runtime_error("transient")),
              JobFault::Threw);

    SweepSpec spec = smallSweep();
    spec.axes.clear();
    spec.base.grouping = "rainbow"; // not a registered strategy
    spec.retries = 2;
    ResultStore store = SweepEngine(spec).run();
    ASSERT_EQ(store.countWithStatus(JobStatus::Failed), 1u);
    EXPECT_EQ(store.jobs()[0].attempts, 1);
}

TEST(SweepEngine, BasisNgOutsideTheTableFailsOneJobNotTheSweep)
{
    // The STO-nG table stops at 6 primitives. basis_ng 7 is a spec
    // error at Experiment construction: the job is filed as bad
    // input after one attempt and the sweep returns, rather than the
    // basis builder ending the process after job 0.
    SweepSpec spec = SweepSpec::fromJson(R"({
      "name": "basis_ng_bound",
      "base": {
        "molecule": "H2", "bond": 0.74, "mode": "sampled",
        "optimizer": "spsa", "spsa_iter": 10, "shots": 1024,
        "reference": false
      },
      "axes": {"basis_ng": [3, 7]},
      "emit_timings": false
    })");
    spec.retries = 2;
    ResultStore store = SweepEngine(spec).run();
    ASSERT_EQ(store.jobs().size(), 2u);
    EXPECT_EQ(store.jobs()[0].status, JobStatus::Done);
    const SweepJobRecord &bad = store.jobs()[1];
    EXPECT_EQ(bad.status, JobStatus::Failed);
    EXPECT_EQ(bad.attempts, 1);
    EXPECT_NE(bad.error.find("basis_ng"), std::string::npos)
        << bad.error;
}

TEST(SweepEngine, SoftTimeoutDemotesOverBudgetJobs)
{
    SweepSpec spec = smallSweep();
    spec.jobTimeoutMs = 1e-6; // everything blows the budget
    ResultStore store = SweepEngine(spec).run();
    EXPECT_EQ(store.countWithStatus(JobStatus::TimedOut), 4u);
    // The runs still finished; their results stay inspectable.
    for (const auto &r : store.jobs()) {
        EXPECT_TRUE(r.finished());
        EXPECT_LT(r.result.energy(), 0.0);
    }
    // ...but they are out of the summaries.
    EXPECT_NE(store.json().find("\"best_energy\": []"),
              std::string::npos);
    // The record and the document both name the kind: this is the
    // in-process engine's soft semantics (the job DID complete),
    // not sweepd's hard kill.
    EXPECT_EQ(store.jobs()[0].timeoutKind, TimeoutKind::Soft);
    EXPECT_NE(store.json().find("\"timeout_kind\": \"soft\""),
              std::string::npos);
}

TEST(SweepSpec, JobHashIsStableAndSpecSensitive)
{
    const std::vector<ExperimentSpec> jobs = smallSweep().expand();
    // Deterministic: the same expanded spec always hashes the same.
    EXPECT_EQ(sweepJobHash(jobs[0]), sweepJobHash(jobs[0]));
    EXPECT_EQ(sweepJobHash(jobs[0]).size(), 32u);
    // Sensitive: distinct jobs get distinct resume keys.
    EXPECT_NE(sweepJobHash(jobs[0]), sweepJobHash(jobs[1]));
    ExperimentSpec tweaked = jobs[0];
    tweaked.seed += 1;
    EXPECT_NE(sweepJobHash(jobs[0]), sweepJobHash(tweaked));
}

TEST(SweepEngine, ResumeAdoptsCompletedJobsAndReproducesBytes)
{
    // A full run's journal is the resume source.
    ResultStore first = SweepEngine(smallSweep()).run();
    EXPECT_EQ(first.countWithStatus(JobStatus::Done), 4u);
    const std::string doc = first.json();
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("qcc_resume_" + std::to_string(::getpid()) + ".journal"))
            .string();
    ASSERT_TRUE(writeJournal(first, path));

    // Resuming from it re-runs nothing and reproduces the bytes.
    SweepEngineOptions opts;
    opts.resumeFrom = path;
    SweepEngine engine(smallSweep(), opts);
    ResultStore second = engine.run();
    EXPECT_EQ(engine.adopted(), 4u);
    EXPECT_EQ(second.countWithStatus(JobStatus::Done), 4u);
    EXPECT_EQ(second.json(), doc);

    // A different sweep adopts nothing from it: every job's
    // spec_hash differs, so the stale records are ignored.
    SweepSpec other = smallSweep();
    other.base.shots = 2048;
    SweepEngine fresh(other, opts);
    ResultStore third = fresh.run();
    EXPECT_EQ(fresh.adopted(), 0u);
    EXPECT_EQ(third.countWithStatus(JobStatus::Done), 4u);

    std::filesystem::remove(path);

    // A missing resume file is a hard error, not a silent cold run.
    SweepEngineOptions missing;
    missing.resumeFrom = path;
    EXPECT_THROW(SweepEngine(smallSweep(), missing).run(),
                 SweepError);

    // An aggregate carries no build key, so it is refused before any
    // job runs, even though its records would match.
    const std::string aggregate =
        (std::filesystem::temp_directory_path() /
         ("qcc_resume_" + std::to_string(::getpid()) + ".json"))
            .string();
    ASSERT_FALSE(first.writeTo(aggregate).empty());
    size_t landed = 0;
    SweepEngineOptions fromAggregate;
    fromAggregate.resumeFrom = aggregate;
    fromAggregate.progress = [&](const SweepProgress &) { ++landed; };
    EXPECT_THROW(SweepEngine(smallSweep(), fromAggregate).run(),
                 SweepError);
    EXPECT_EQ(landed, 0u);
    std::filesystem::remove(aggregate);
}

TEST(ResultStore, WriteToLeavesAWholeFileWhenKilledMidWrite)
{
    // A child rewrites a 240-record aggregate (about 200 KB) in a
    // loop and is SIGKILLed after a random 2-22 ms: wherever the kill
    // lands, the file holds one complete document.
    std::vector<ExperimentSpec> jobs(240);
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].molecule = i % 2 ? "LiH" : "H2";
        jobs[i].mode = "sampled";
        jobs[i].optimizer = "spsa";
        jobs[i].seed = 7 + i;
    }
    ResultStore store("killed", false);
    store.reset(jobs);
    for (size_t i = 0; i < jobs.size(); ++i) {
        SweepJobRecord rec;
        rec.index = i;
        rec.spec = jobs[i];
        rec.specHash = sweepJobHash(jobs[i]);
        rec.status = JobStatus::Done;
        rec.attempts = 1;
        rec.result.spec = jobs[i];
        rec.result.vqe.energy = -1.1 - 1e-3 * double(i);
        store.record(std::move(rec));
    }
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("qcc_killed_write_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "SWEEP_killed.json").string();
    ASSERT_EQ(store.writeTo(path), path);

    std::mt19937 rng(2021);
    std::uniform_int_distribution<int> delayUs(2000, 22000);
    for (int trial = 0; trial < 20; ++trial) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0)
            for (;;)
                store.writeTo(path);
        ::usleep(useconds_t(delayUs(rng)));
        ::kill(pid, SIGKILL);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        std::string doc;
        ASSERT_TRUE(readFileBytes(path, doc)) << "trial " << trial;
        EXPECT_NO_THROW(JsonValue::parse(doc))
            << "trial " << trial << ": " << doc.size() << " bytes";
    }
    // The document and the killed writers' *.tmp.* leftovers.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST(SweepEngine, CancellationSkipsUnclaimedJobs)
{
    // Serial engine, cancel after the second completion: jobs 0-1
    // are recorded done, jobs 2-3 never run.
    SweepEngineOptions opts;
    opts.concurrency = 1;
    SweepEngine *handle = nullptr;
    opts.progress = [&handle](const SweepProgress &p) {
        if (p.completed == 2)
            handle->requestCancel();
    };
    SweepEngine engine(smallSweep(), opts);
    handle = &engine;
    ResultStore store = engine.run();

    EXPECT_TRUE(engine.cancelled());
    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 2u);
    EXPECT_EQ(store.countWithStatus(JobStatus::Skipped), 2u);
    EXPECT_EQ(store.jobs()[0].status, JobStatus::Done);
    EXPECT_EQ(store.jobs()[3].status, JobStatus::Skipped);
    // Skipped jobs still carry their spec in the aggregate.
    EXPECT_NE(store.json().find("\"skipped\": 2"),
              std::string::npos);
}

TEST(SweepEngine, JobsShareTheGlobalCompileCache)
{
    // Three seed-varied compiled jobs: the first misses, the rest
    // rebind the shared entry.
    SweepSpec spec = SweepSpec::fromJson(R"({
      "name": "cache",
      "base": {
        "molecule": "H2", "bond": 0.74, "optimizer": "spsa",
        "spsa_iter": 2, "reference": false,
        "pipeline": "mtr", "architecture": "xtree5"
      },
      "axes": {"seed": [1, 2, 3]}
    })");
    globalCircuitCache().clear();
    const MetricCounter &hits = metricCounter("compile.cache.hits");
    const uint64_t hits0 = hits.value();
    SweepEngineOptions opts;
    opts.concurrency = 1;
    ResultStore store = SweepEngine(spec, opts).run();

    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 3u);
    EXPECT_GE(hits.value() - hits0, uint64_t{2});
    // All three jobs compiled the same structure.
    EXPECT_EQ(store.jobs()[0].result.compiled.cnots,
              store.jobs()[2].result.compiled.cnots);
}

TEST(SweepEngine, AggregateCarriesCurvesAndSummaries)
{
    SweepSpec spec = SweepSpec::fromJson(R"({
      "name": "curve",
      "base": {"molecule": "H2", "compression": 0.67},
      "axes": {"bond": [0.6, 0.74, 1.0]},
      "emit_timings": false
    })");
    ResultStore store = SweepEngine(spec).run();
    ASSERT_EQ(store.countWithStatus(JobStatus::Done), 3u);

    const std::string doc = store.json();
    EXPECT_NE(doc.find("\"curves\""), std::string::npos);
    EXPECT_NE(doc.find("\"best_energy\""), std::string::npos);
    EXPECT_NE(doc.find("\"grouping_settings\""), std::string::npos);
    EXPECT_NE(doc.find("\"fci\""), std::string::npos);
    // Timings are volatile; the deterministic document drops them.
    EXPECT_EQ(doc.find("\"wall_ms\""), std::string::npos);
    EXPECT_EQ(doc.find("\"timing_ms\""), std::string::npos);

    // The equilibrium point wins the best-energy summary.
    const auto &jobs = store.jobs();
    EXPECT_LT(jobs[1].result.energy(), jobs[0].result.energy());
    EXPECT_LT(jobs[1].result.energy(), jobs[2].result.energy());
    EXPECT_NE(doc.find("\"molecule\": \"H2\", \"job\": 1"),
              std::string::npos);
}

TEST(SweepEngine, EstimateSweepRunsSimulationFree)
{
    // A whole estimate sweep — the Table I costing path — runs
    // through the ordinary engine with kind dispatch per job.
    SweepSpec spec = SweepSpec::fromJson(R"({
      "name": "est_unit",
      "base": {
        "kind": "estimate", "molecule": "H2", "max_iter": 20,
        "shots": 1000, "reference": false
      },
      "axes": {
        "grouping": ["greedy", "sorted-insertion", "graph-coloring"]
      },
      "emit_timings": false
    })");
    ResultStore store = SweepEngine(spec).run();
    ASSERT_EQ(store.countWithStatus(JobStatus::Done), 3u);
    for (const auto &rec : store.jobs()) {
        EXPECT_TRUE(rec.result.estimate.present);
        EXPECT_EQ(rec.result.shots, 0u) << "estimate spent shots";
        EXPECT_EQ(rec.result.estimate.shotBudget, 1000u * 20u);
        EXPECT_GT(rec.result.estimate.gates, 0u);
    }
    // All groupings cost the same circuit; settings may differ.
    EXPECT_EQ(store.jobs()[0].result.estimate.cnots,
              store.jobs()[2].result.estimate.cnots);

    const std::string doc = store.json();
    EXPECT_NE(doc.find("\"estimate\""), std::string::npos);
    // Ground-state aggregates stay empty: HF placeholders must not
    // masquerade as a best energy or a dissociation curve.
    EXPECT_NE(doc.find("\"best_energy\": []"), std::string::npos);
    EXPECT_NE(doc.find("\"curves\": []"), std::string::npos);

    // Resume adopts estimate records byte-identically too.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("qcc_est_resume_" + std::to_string(::getpid()) + ".journal"))
            .string();
    ASSERT_TRUE(writeJournal(store, path));
    SweepEngineOptions opts;
    opts.resumeFrom = path;
    SweepEngine resumed(spec, opts);
    ResultStore second = resumed.run();
    EXPECT_EQ(resumed.adopted(), 3u);
    EXPECT_EQ(second.json(), doc);
    std::filesystem::remove(path);
}

TEST(SweepEngine, MixedKindSweepKeepsKindsApart)
{
    // One sweep can mix workloads via a kind axis (vqe jobs reuse
    // the spec's evolve-free defaults, estimate jobs never sample).
    SweepSpec spec = SweepSpec::fromJson(R"({
      "name": "mixed",
      "base": {
        "molecule": "H2", "mode": "sampled", "optimizer": "spsa",
        "spsa_iter": 5, "shots": 512, "reference": false
      },
      "axes": {"kind": ["vqe", "estimate"]},
      "emit_timings": false
    })");
    ResultStore store = SweepEngine(spec).run();
    ASSERT_EQ(store.countWithStatus(JobStatus::Done), 2u);
    const auto &jobs = store.jobs();
    EXPECT_FALSE(jobs[0].result.estimate.present);
    EXPECT_GT(jobs[0].result.shots, 0u);
    EXPECT_TRUE(jobs[1].result.estimate.present);
    EXPECT_EQ(jobs[1].result.shots, 0u);
    // best_energy reports only the vqe job.
    EXPECT_NE(store.json().find("\"molecule\": \"H2\", \"job\": 0"),
              std::string::npos);
}

TEST(SweepSpecFiles, ShippedTableSpecsParseAndExpand)
{
    // The full Table I/II studies ship as spec files (copied next to
    // the binaries at configure time). They must stay parseable and
    // expand to the paper's row structure; every expanded job must
    // construct an Experiment (validating molecule, registry keys,
    // and device names) without running anything.
    struct Expected
    {
        const char *path;
        size_t jobs;
    };
    const Expected files[] = {
        {"specs/table1_full.json", 9 * 3},
        {"specs/table2_full.json", 9 * 5},
    };
    for (const auto &f : files) {
        SweepSpec spec;
        try {
            spec = SweepSpec::fromFile(f.path);
        } catch (const SweepError &) {
            GTEST_SKIP() << f.path
                         << " not present next to the test binary "
                            "(run from the build tree)";
        }
        EXPECT_EQ(spec.jobCount(), f.jobs) << f.path;
        std::vector<ExperimentSpec> jobs = spec.expand();
        ASSERT_EQ(jobs.size(), f.jobs) << f.path;
        for (const ExperimentSpec &job : jobs)
            EXPECT_NO_THROW(Experiment e(job))
                << f.path << " molecule=" << job.molecule;
        // Both tables end at CH4, the largest benchmark molecule.
        EXPECT_EQ(jobs.back().molecule, "CH4") << f.path;
    }
}

TEST(SweepSpecFiles, ShippedSpecsKeepTheirJobHashes)
{
    // sweepJobHash is the resume key of every archived SWEEP_
    // document: each shipped spec file must expand to the same jobs
    // with the same spec bytes. One FNV-1a digest of the job hashes
    // (newline-joined, in job order) per file.
    struct Expected
    {
        const char *path;
        size_t jobs;
        const char *digest;
    };
    const Expected files[] = {
        {"specs/ci_smoke.json", 4, "df91600c859b3fe1"},
        {"specs/ci_smoke_store.json", 4, "df91600c859b3fe1"},
        {"specs/evolve_h2.json", 10, "0cbd092b9f266364"},
        {"specs/fig10_lih_noisy.json", 6, "88741dac4edbd8ae"},
        {"specs/lih_curve.json", 9, "70fac6cc35768b7f"},
        {"specs/table1_full.json", 27, "5bf4c4c7583834e5"},
        {"specs/table1_slice.json", 9, "8d16359c8b11f0d3"},
        {"specs/table2_full.json", 45, "79919ded0785d4d6"},
    };
    for (const auto &f : files) {
        SweepSpec spec;
        try {
            spec = SweepSpec::fromFile(f.path);
        } catch (const SweepError &) {
            GTEST_SKIP() << f.path
                         << " not present next to the test binary "
                            "(run from the build tree)";
        }
        const std::vector<ExperimentSpec> jobs = spec.expand();
        ASSERT_EQ(jobs.size(), f.jobs) << f.path;
        std::string joined;
        for (const ExperimentSpec &job : jobs)
            joined += sweepJobHash(job) + "\n";
        char digest[17];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      (unsigned long long)fnv1a(joined.data(),
                                                joined.size()));
        EXPECT_STREQ(digest, f.digest) << f.path;
    }
}
