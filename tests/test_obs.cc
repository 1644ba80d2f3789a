/**
 * @file
 * Observability-layer tests: metric counter/gauge/histogram
 * semantics and the cross-process metrics merge; span nesting across
 * the thread pool (balanced per-thread B/E stacks in the emitted
 * Chrome trace); the disabled-mode cost contract (zero events, zero
 * heap allocations); byte-identical adoption round trips (the sweepd
 * worker-reply path); torn-snapshot freedom for the store counters'
 * cross-counter invariants under concurrent writers; the VQE loop's
 * one vqe.optimize span and its attribution args; and sweep
 * byte-identity with tracing on vs off.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <thread>
#include <vector>

#include "api/experiment.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/store.hh"
#include "sweep/sweep_engine.hh"

using namespace qcc;

// ---- allocation counter -------------------------------------------
// Global new/delete replacements that count and forward. This test
// binary is its own executable (one per tests/test_*.cc), so the
// override is isolated; it exists to pin the disabled-span contract:
// no heap traffic on the hot path when QCC_TRACE is off.

static std::atomic<uint64_t> gAllocs{0};

// The replacements forward new -> malloc and delete -> free by
// design; GCC's allocator-pair matching can't see that and flags
// the free() as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

// The nothrow forms too (std::stable_sort's temporary buffer uses
// them): left to the runtime, ASan's nothrow new would hand out
// memory that the free() above releases as an alloc-dealloc
// mismatch.
void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

struct VerboseSilencer
{
    VerboseSilencer() { setLogLevel(LogLevel::Quiet); }
} silencer;

/** One parsed trace event, as much as the tests care about. */
struct Ev
{
    std::string name, ph;
    double ts = 0.0;
    long long pid = 0, tid = 0;
};

std::vector<Ev>
parseEvents(const std::string &array_json)
{
    const JsonValue doc = JsonValue::parse(array_json);
    EXPECT_TRUE(doc.isArray());
    std::vector<Ev> out;
    for (const JsonValue &e : doc.items) {
        Ev ev;
        const JsonValue *v = e.find("name");
        if (v)
            ev.name = v->text;
        if ((v = e.find("ph")))
            ev.ph = v->text;
        if ((v = e.find("ts")))
            ev.ts = v->number;
        if ((v = e.find("pid")))
            ev.pid = (long long)v->number;
        if ((v = e.find("tid")))
            ev.tid = (long long)v->number;
        out.push_back(ev);
    }
    return out;
}

} // namespace

// ---- metrics ------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics)
{
    MetricCounter &c = metricCounter("test.obs.counter");
    c.reset();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);

    MetricGauge &g = metricGauge("test.obs.gauge");
    g.reset();
    g.set(7);
    EXPECT_EQ(g.value(), 7);
    g.max(3); // below: no change
    EXPECT_EQ(g.value(), 7);
    g.max(11);
    EXPECT_EQ(g.value(), 11);

    MetricHistogram &h = metricHistogram("test.obs.hist");
    h.reset();
    h.record(0);
    h.record(1);
    h.record(1000);
    const MetricHistogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sumUs, 1001u);
    EXPECT_NEAR(s.mean(), 1001.0 / 3.0, 1e-9);
    // Quantiles are bucket upper bounds: the p100 sample (1000 us)
    // lands in bucket 10 whose upper edge is 2^10 - 1.
    EXPECT_GE(s.quantile(1.0), 1000.0);
    EXPECT_LE(s.quantile(0.0), 1.0);
}

TEST(Metrics, BucketOfIsBitWidthClippedToRange)
{
    EXPECT_EQ(MetricHistogram::bucketOf(0), 0u);
    EXPECT_EQ(MetricHistogram::bucketOf(1), 1u);
    EXPECT_EQ(MetricHistogram::bucketOf(2), 2u);
    EXPECT_EQ(MetricHistogram::bucketOf(3), 2u);
    EXPECT_EQ(MetricHistogram::bucketOf(4), 3u);
    EXPECT_EQ(MetricHistogram::bucketOf(~uint64_t(0)),
              MetricHistogram::kBuckets - 1);
}

TEST(Metrics, JsonSnapshotRoundTripsThroughMerge)
{
    // Unique names so parallel registry users can't interfere.
    MetricCounter &c = metricCounter("test.merge.counter");
    MetricGauge &g = metricGauge("test.merge.gauge");
    MetricHistogram &h = metricHistogram("test.merge.hist");
    c.reset();
    g.reset();
    h.reset();
    c.add(5);
    g.set(9);
    h.record(100);
    h.record(3);

    const std::string doc = metricsJson();
    const JsonValue parsed = JsonValue::parse(doc);
    ASSERT_TRUE(parsed.isObject());

    // Merging a snapshot of ourselves doubles counters and
    // histograms; the gauge merges by max, so it stays put.
    ASSERT_TRUE(mergeMetricsDom(parsed));
    EXPECT_EQ(c.value(), 10u);
    EXPECT_EQ(g.value(), 9);
    const MetricHistogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 4u);
    EXPECT_EQ(s.sumUs, 206u);

    EXPECT_FALSE(mergeMetricsDom(JsonValue::parse("[1, 2]")));
}

TEST(Metrics, MergeSkipsGaugesOutsideTheInt64Range)
{
    MetricGauge &g = metricGauge("test.merge.huge_gauge");
    g.set(7);
    for (const char *v : {"1e300", "-1e300", "9223372036854775808"}) {
        const std::string doc =
            std::string(R"({"gauges": {"test.merge.huge_gauge": )") +
            v + "}}";
        ASSERT_TRUE(mergeMetricsDom(JsonValue::parse(doc))) << v;
        EXPECT_EQ(g.value(), 7) << v;
    }
    ASSERT_TRUE(mergeMetricsDom(JsonValue::parse(
        R"({"gauges": {"test.merge.huge_gauge": 9e18}})")));
    EXPECT_EQ(g.value(), int64_t(9e18)); // in range: merged by max
}

// ---- tracing ------------------------------------------------------

TEST(Trace, SpansNestAcrossPoolThreads)
{
    setTraceEnabled(true);
    clearTrace();
    {
        TraceSpan outer("test.outer");
        outer.arg("items", 64);
        parallelFor(0, 4096, [](size_t lo, size_t hi) {
            TraceSpan inner("test.chunk");
            inner.arg("lo", lo);
            TraceSpan leaf("test.leaf"); // nested within the chunk
            (void)hi;
        },
                    /*grain=*/64);
    }
    const std::string json = traceEventsArrayJson();
    setTraceEnabled(false);
    clearTrace();

    const std::vector<Ev> evs = parseEvents(json);
    ASSERT_GE(evs.size(), 6u); // outer pair + >= 1 chunk/leaf pair

    // Global order is sorted by timestamp...
    for (size_t i = 1; i < evs.size(); ++i)
        EXPECT_LE(evs[i - 1].ts, evs[i].ts);

    // ...and per (pid, tid) the B/E events form balanced,
    // properly-nested stacks with matching names — Perfetto's
    // well-formedness requirement.
    std::map<std::pair<long long, long long>,
             std::vector<std::string>>
        stacks;
    size_t pairs = 0;
    for (const Ev &e : evs) {
        auto &stack = stacks[{e.pid, e.tid}];
        if (e.ph == "B") {
            stack.push_back(e.name);
        } else {
            ASSERT_EQ(e.ph, "E");
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(stack.back(), e.name);
            stack.pop_back();
            ++pairs;
        }
    }
    for (const auto &[key, stack] : stacks)
        EXPECT_TRUE(stack.empty());
    EXPECT_EQ(pairs * 2, evs.size());
    EXPECT_GE(pairs, 3u);
}

TEST(Trace, DisabledSpansCostNoEventsAndNoAllocations)
{
    setTraceEnabled(false);
    clearTrace();

    const uint64_t before =
        gAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        TraceSpan span("test.disabled");
        span.arg("i", i);
        span.arg("flag", true);
        span.arg("x", 1.5);
        EXPECT_FALSE(span.active());
        EXPECT_GE(span.elapsedMillis(), 0.0); // clock still works
    }
    const uint64_t after = gAllocs.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(traceEventCount(), 0u);
    EXPECT_EQ(writeTraceJson("disabled"), "");
}

TEST(Trace, AdoptedEventsReserializeByteIdentically)
{
    setTraceEnabled(true);
    clearTrace();
    {
        TraceSpan span("test.roundtrip");
        span.arg("kind", "adopted");
        span.arg("jobs", 12);
        span.arg("delta", -3);
        span.arg("ok", true);
        span.arg("ratio", 0.25);
        TraceSpan bare("test.noargs");
    }
    const std::string original = traceEventsArrayJson();
    ASSERT_NE(original, "[]");

    // The sweepd service path: parse a worker's array, adopt it into
    // a clean buffer, re-serialize. Timestamps, pids, tids, and args
    // must survive verbatim.
    const JsonValue doc = JsonValue::parse(original);
    clearTrace();
    const size_t adopted = adoptTraceEventsDom(doc);
    EXPECT_EQ(adopted, 4u);
    const std::string replayed = traceEventsArrayJson();
    setTraceEnabled(false);
    clearTrace();

    EXPECT_EQ(original, replayed);
}

TEST(Trace, AdoptionSkipsEventsWhoseNumbersDoNotFit)
{
    setTraceEnabled(true);
    clearTrace();
    // One valid event, then one per field out of its integer range.
    const JsonValue doc = JsonValue::parse(R"([
      {"name": "ok", "ph": "B", "ts": 1.5, "pid": 2, "tid": 3},
      {"name": "pid", "ph": "B", "ts": 1.5, "pid": 1e300, "tid": 3},
      {"name": "tid", "ph": "B", "ts": 1.5, "pid": 2, "tid": -1e300},
      {"name": "ts", "ph": "B", "ts": 1e300, "pid": 2, "tid": 3}
    ])");
    EXPECT_EQ(adoptTraceEventsDom(doc), 1u);
    EXPECT_EQ(traceEventCount(), 1u);
    const std::string replayed = traceEventsArrayJson();
    setTraceEnabled(false);
    clearTrace();
    EXPECT_NE(replayed.find("\"ok\""), std::string::npos);
    EXPECT_EQ(replayed.find("-9223372036854775808"), std::string::npos);
}

TEST(Trace, WrapperDocumentParsesAndNamesTraceEvents)
{
    setTraceEnabled(true);
    clearTrace();
    { TraceSpan span("test.wrapper"); }
    const std::string doc = traceEventsJson();
    setTraceEnabled(false);
    clearTrace();

    const JsonValue parsed = JsonValue::parse(doc);
    ASSERT_TRUE(parsed.isObject());
    const JsonValue *events = parsed.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->isArray());
    EXPECT_EQ(events->items.size(), 2u);
}

// ---- store counter snapshot consistency --------------------------

TEST(StoreCounterConsistency, SnapshotsNeverTearCrossCounterInvariants)
{
    MetricCounter &circuitMisses =
        metricCounter("store.circuit.disk_misses");
    MetricCounter &circuitBad = metricCounter("store.circuit.bad_entries");
    MetricCounter &circuitWrites =
        metricCounter("store.circuit.disk_writes");
    MetricCounter &problemBuilds = metricCounter("store.problem.builds");
    MetricCounter &problemWrites =
        metricCounter("store.problem.disk_writes");
    auto resetAll = [&] {
        for (MetricCounter *c : {&circuitMisses, &circuitBad,
                                 &circuitWrites, &problemBuilds,
                                 &problemWrites})
            c->reset();
    };
    resetAll();

    // Writers bump the counters as the real stores do: a disk write
    // only ever follows the miss (or build) that caused it, and is
    // published with addRelease(). The reader loads each write
    // counter before its causes and asserts "writes <= causes" on
    // every snapshot — a relaxed-only implementation shows transient
    // violations here (write visible before its miss).
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                circuitMisses.add();
                circuitWrites.addRelease();
                problemBuilds.add();
                problemWrites.addRelease();
            }
        });
    }

    for (int i = 0; i < 20000; ++i) {
        const uint64_t cWrites = circuitWrites.value();
        const uint64_t cCauses = circuitMisses.value() + circuitBad.value();
        const uint64_t pWrites = problemWrites.value();
        const uint64_t pCauses = problemBuilds.value();
        ASSERT_LE(cWrites, cCauses);
        ASSERT_LE(pWrites, pCauses);
    }

    stop.store(true, std::memory_order_relaxed);
    for (std::thread &w : writers)
        w.join();
    resetAll();
}

// ---- the VQE loop's one span --------------------------------------

TEST(Trace, OptimizeSpanAttributesTheVqeLoop)
{
    // A noisy run: the apply side includes the compile-cache rebind
    // and the density-matrix executor.
    setTraceEnabled(true);
    clearTrace();
    const ExperimentResult res =
        Experiment(ExperimentSpec{.molecule = "H2",
                                  .mode = "noisy",
                                  .optimizer = "spsa",
                                  .spsaIter = 6,
                                  .reference = false})
            .run();
    const std::string json = traceEventsArrayJson();
    setTraceEnabled(false);
    clearTrace();

    // Walk the per-thread B/E stacks: one vqe.optimize, directly
    // inside experiment.run, and no other vqe.* span (the loop is
    // attributed by args, not by a span per evaluation).
    std::map<double, std::vector<std::pair<std::string, double>>>
        stacks;
    int optimizeSpans = 0;
    for (const JsonValue &e : JsonValue::parse(json).items) {
        const std::string name = e.find("name")->text;
        const double ts = e.find("ts")->number;
        auto &stack = stacks[e.find("tid")->number];
        if (e.find("ph")->text == "B") {
            if (name == "vqe.optimize") {
                ASSERT_FALSE(stack.empty());
                EXPECT_EQ(stack.back().first, "experiment.run");
            } else {
                EXPECT_NE(name.rfind("vqe.", 0), 0u) << name;
            }
            stack.emplace_back(name, ts);
            continue;
        }
        ASSERT_FALSE(stack.empty());
        const double spanMs = (ts - stack.back().second) / 1000.0;
        stack.pop_back();
        if (name != "vqe.optimize")
            continue;
        ++optimizeSpans;
        const JsonValue *args = e.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->find("evals")->number, double(res.vqe.evals));
        const double applyMs = args->find("apply_ms")->number;
        const double measureMs = args->find("measure_ms")->number;
        EXPECT_GT(applyMs, 0.0);
        EXPECT_GT(measureMs, 0.0);
        EXPECT_LE(applyMs + measureMs, spanMs + 1e-3);
    }
    EXPECT_EQ(optimizeSpans, 1);
    EXPECT_GT(res.vqe.evals, 6);
}

// ---- tracing does not perturb results -----------------------------

TEST(Trace, SweepResultsAreByteIdenticalTracedVsUntraced)
{
    // emit_timings: false keeps wall clocks out of the document, so
    // the two runs must serialize byte-identically; any divergence
    // means instrumentation leaked into computation.
    const char *specJson = R"({
      "name": "obs_identity",
      "base": {
        "molecule": "H2", "bond": 0.74, "mode": "sampled",
        "optimizer": "spsa", "spsa_iter": 6, "shots": 512,
        "reference": false, "seed": 2021
      },
      "axes": {"grouping": ["greedy", "graph-coloring"]},
      "emit_timings": false
    })";

    const bool storeWasEnabled = storeEnabled();
    setStoreEnabled(false);

    SweepEngineOptions opts;
    opts.concurrency = 2;

    setTraceEnabled(false);
    SweepEngine plain(SweepSpec::fromJson(specJson), opts);
    const std::string untraced = plain.run().json();

    setTraceEnabled(true);
    clearTrace();
    SweepEngine instrumented(SweepSpec::fromJson(specJson), opts);
    const std::string traced = instrumented.run().json();
    const size_t events = traceEventCount();
    setTraceEnabled(false);
    clearTrace();
    setStoreEnabled(storeWasEnabled);

    EXPECT_GT(events, 0u); // the traced run really did record spans
    EXPECT_EQ(untraced, traced);
}
