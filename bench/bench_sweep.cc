/**
 * @file
 * SweepEngine throughput study: the same >= 8-job sweep executed
 * several ways — serial with cold caches (compile cache and problem
 * memo cleared before every job, so each job pays full chemistry +
 * layout/routing), serial with the shared in-memory caches,
 * concurrent with the shared caches both with the per-job width cap
 * (capJobWidth: N jobs split parallelThreads() between them) and
 * without it (every job sizes its sweeps to the whole machine —
 * the nested-parallelism oversubscription the cap fixes), the same
 * sweep forced through kind=estimate (no simulator, costing only),
 * serial
 * against a cold persistent store (fresh directory, so this run
 * pays the write-through on top of the shared-cache path), serial
 * against the warm persistent store with the in-memory caches
 * dropped once (every compile and chemistry build is served from
 * disk — the restarted-process / second-sweep scenario), and the
 * sweepd process pool against that warm store (one long-lived
 * forked worker per lane, its workers sharing compiles
 * cross-process through the disk tier).
 * The jobs differ only in seed, which is exactly the
 * repeated-compilation shape batch studies produce (same molecule,
 * new parameterization), so the cold-vs-shared gap isolates what
 * the process-wide caches buy a sweep and the warm-disk row shows
 * what survives a process restart. Every row runs three times
 * (five under QCC_FULL), each run from fresh in-memory caches and,
 * for the cold disk row, an emptied store directory; a row reports
 * its median wall time with the min and max, and every speedup is a
 * ratio of medians, so one invocation reads through run-to-run
 * noise. Speedups land in BENCH_sweep.json; the aggregate store is
 * written as SWEEP_bench_sweep.json when QCC_JSON is set.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <vector>

#include "bench_util.hh"
#include "compiler/cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/problem_store.hh"
#include "store/store.hh"
#include "sweep/sweep_engine.hh"
#include "sweepd/service.hh"

using namespace qcc;
using namespace qccbench;

namespace {

using clock_type = std::chrono::steady_clock;

SweepSpec
studySpec(int n_seeds)
{
    SweepSpec spec;
    spec.name = "bench_sweep";
    spec.base.molecule = "BeH2";
    spec.base.optimizer = "spsa";
    spec.base.spsaIter = 2;
    spec.base.reference = false;
    spec.base.pipeline = "mtr";
    spec.base.architecture = "xtree17";
    SweepAxis seeds;
    seeds.field = "seed";
    for (int s = 1; s <= n_seeds; ++s) {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = double(s);
        v.text = std::to_string(s);
        seeds.values.push_back(v);
    }
    spec.axes.push_back(seeds);
    return spec;
}

struct RunOutcome
{
    double wallMs = 0.0;
    size_t done = 0;
    size_t cacheHits = 0;
    size_t cacheMisses = 0;
    size_t diskHits = 0;     // circuit + problem entries from disk
    size_t diskWrites = 0;
    size_t problemBuilds = 0;
};

RunOutcome
runStudy(const SweepSpec &spec, unsigned concurrency, bool cold_cache,
         ResultStore *store_out = nullptr, bool cap_width = true)
{
    // Every row starts with empty in-memory caches; whether jobs
    // after the first warm them up is the row's cold_cache knob, and
    // whether the persistent tier backs them is the caller's
    // setStoreDir state.
    globalCircuitCache().clear();
    globalProblemStore().clearMemory();
    const char *const counted[] = {
        "compile.cache.hits",        "compile.cache.misses",
        "store.circuit.disk_hits",   "store.problem.disk_hits",
        "store.circuit.disk_writes", "store.problem.disk_writes",
        "store.problem.builds"};
    std::map<std::string, uint64_t> before;
    for (const char *name : counted)
        before[name] = metricCounter(name).value();
    auto delta = [&](const char *name) {
        return size_t(metricCounter(name).value() - before[name]);
    };

    SweepEngineOptions opts;
    opts.concurrency = concurrency;
    opts.coldCompileCache = cold_cache;
    opts.coldProblemCache = cold_cache;
    opts.capJobWidth = cap_width;
    SweepEngine engine(spec, opts);

    const auto t0 = clock_type::now();
    ResultStore store = engine.run();
    RunOutcome out;
    out.wallMs = std::chrono::duration<double, std::milli>(
                     clock_type::now() - t0)
                     .count();
    out.done = store.countWithStatus(JobStatus::Done);
    out.cacheHits = delta("compile.cache.hits");
    out.cacheMisses = delta("compile.cache.misses");
    out.diskHits = delta("store.circuit.disk_hits") +
                   delta("store.problem.disk_hits");
    out.diskWrites = delta("store.circuit.disk_writes") +
                     delta("store.problem.disk_writes");
    out.problemBuilds = delta("store.problem.builds");
    if (store_out)
        *store_out = std::move(store);
    return out;
}

/** A row's repeated runs: the median-wall run and the wall spread. */
struct RowRuns
{
    RunOutcome median;
    double minMs = 0.0;
    double maxMs = 0.0;
};

/** Run one row `reps` times; `run()` performs and returns one run. */
template <typename Run>
RowRuns
repeatRow(int reps, Run run)
{
    std::vector<RunOutcome> runs;
    for (int r = 0; r < reps; ++r)
        runs.push_back(run());
    std::sort(runs.begin(), runs.end(),
              [](const RunOutcome &a, const RunOutcome &b) {
                  return a.wallMs < b.wallMs;
              });
    return {runs[runs.size() / 2], runs.front().wallMs,
            runs.back().wallMs};
}

void
printRow(const char *label, const RowRuns &r)
{
    const RunOutcome &o = r.median;
    std::printf("%-24s %9.1f %8.1f-%-8.1f %5zu %6zu %6zu %6zu %6zu "
                "%6zu\n",
                label, o.wallMs, r.minMs, r.maxMs, o.done, o.cacheHits,
                o.cacheMisses, o.diskHits, o.diskWrites,
                o.problemBuilds);
}

double
speedup(const RowRuns &base, const RowRuns &o)
{
    return o.median.wallMs > 0 ? base.median.wallMs / o.median.wallMs
                               : 0.0;
}

/**
 * The same sweep through the sweepd process pool (one forked worker
 * per lane, serving the lane's jobs, qcc_sweepd --worker). This
 * process's cache counters are meaningless here — each worker has
 * its own — so the row reports wall clock and completions; with
 * QCC_STORE_DIR pointing at the warm bench store, workers share
 * compiles and chemistry through the disk tier, and each keeps them
 * in memory for its later jobs.
 */
RunOutcome
runProcessPool(const SweepSpec &spec, unsigned concurrency,
               const std::string &worker_path)
{
    sweepd::SweepdOptions opts;
    opts.workerPath = worker_path;
    opts.concurrency = concurrency;
    opts.resume = false;      // a bench row never adopts
    opts.writeThrough = false; // nor journals

    sweepd::SweepdService service(opts);
    const auto t0 = clock_type::now();
    ResultStore store = service.submit(spec);
    RunOutcome out;
    out.wallMs = std::chrono::duration<double, std::milli>(
                     clock_type::now() - t0)
                     .count();
    out.done = store.countWithStatus(JobStatus::Done);
    return out;
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Quiet);
    banner("SweepEngine: cold vs shared caches vs persistent store");

    const int nSeeds = fullMode() ? 16 : 8;
    const unsigned width = fullMode() ? parallelThreads() : 4;
    const int reps = fullMode() ? 5 : 3;
    SweepSpec spec = studySpec(nSeeds);

    // The persistent-store rows use a scratch directory next to the
    // bench output; wiped up front so disk_cold is genuinely cold.
    const std::string storeRoot =
        (std::filesystem::temp_directory_path() /
         "qcc_bench_sweep_store")
            .string();
    std::error_code ec;
    std::filesystem::remove_all(storeRoot, ec);
    setStoreDir(""); // in-memory rows run store-off
    setStoreEnabled(true);

    std::printf("study: BeH2 full UCCSD, MtR on XTree17Q, %d "
                "seed-varied jobs; each row runs %d times and shows "
                "the median wall time with the min-max spread\n\n",
                nSeeds, reps);
    std::printf("%-24s %9s %17s %5s %6s %6s %6s %6s %6s\n",
                "configuration", "wall(ms)", "min-max", "done", "hits",
                "misses", "dhits", "dwrite", "builds");
    rule();

    JsonReport report("sweep");
    auto addRow = [&](const char *key, const RowRuns &r,
                      const RowRuns *base, double conc) {
        const RunOutcome &o = r.median;
        std::vector<std::pair<std::string, double>> cols = {
            {"wall_ms", o.wallMs},
            {"wall_ms_min", r.minMs},
            {"wall_ms_max", r.maxMs},
            {"runs", double(reps)},
            {"jobs", double(nSeeds)},
            {"cache_hits", double(o.cacheHits)},
            {"cache_misses", double(o.cacheMisses)},
            {"disk_hits", double(o.diskHits)},
            {"disk_writes", double(o.diskWrites)},
            {"problem_builds", double(o.problemBuilds)}};
        // Concurrent rows differ from serial_shared only in
        // concurrency; the serial rows measure caching against
        // serial_cold. Speedups are ratios of medians.
        if (conc > 0)
            cols.push_back({"concurrency", conc});
        if (base)
            cols.push_back({conc > 0 ? "speedup_vs_serial_shared"
                                     : "speedup_vs_serial_cold",
                            speedup(*base, r)});
        report.row(key, cols);
    };

    const RowRuns cold =
        repeatRow(reps, [&] { return runStudy(spec, 1, true); });
    printRow("serial, cold caches", cold);
    addRow("serial_cold", cold, nullptr, 0);

    const RowRuns shared =
        repeatRow(reps, [&] { return runStudy(spec, 1, false); });
    printRow("serial, shared caches", shared);
    addRow("serial_shared", shared, &cold, 0);

    // Queue-wait probe: delta of the thread pool's
    // parallel.queue_wait_us histogram across the concurrent runs —
    // how long tasks sat submitted-but-unclaimed. Milliseconds here
    // would mean the pool, not the work, is the bottleneck.
    MetricHistogram &qwait =
        metricHistogram("parallel.queue_wait_us");
    const MetricHistogram::Snapshot qwBefore = qwait.snapshot();
    ResultStore store("bench_sweep", true);
    const RowRuns conc = repeatRow(
        reps, [&] { return runStudy(spec, width, false, &store); });
    const MetricHistogram::Snapshot qwAfter = qwait.snapshot();
    printRow(("concurrent x" + std::to_string(width) + ", capped")
                 .c_str(),
             conc);
    addRow("concurrent_capped", conc, &shared, double(width));
    MetricHistogram::Snapshot qw;
    qw.count = qwAfter.count - qwBefore.count;
    qw.sumUs = qwAfter.sumUs - qwBefore.sumUs;
    for (size_t i = 0; i < MetricHistogram::kBuckets; ++i)
        qw.buckets[i] = qwAfter.buckets[i] - qwBefore.buckets[i];
    std::printf("  pool queue wait over %d runs: %llu tasks, mean "
                "%.1f us, p95 <= %.0f us\n",
                reps, (unsigned long long)qw.count, qw.mean(),
                qw.quantile(0.95));
    report.row("queue_wait",
               {{"runs", double(reps)},
                {"tasks", double(qw.count)},
                {"mean_us", qw.mean()},
                {"p95_us", qw.quantile(0.95)}});

    // Instrumentation-overhead row: the identical concurrent run
    // with QCC_TRACE on, every span recording into the in-memory
    // buffers. Acceptance: within 3% of the untraced row — spans
    // are two clock reads and an appended struct, not a lock.
    size_t tracedEvents = 0;
    const RowRuns traced = repeatRow(reps, [&] {
        setTraceEnabled(true);
        clearTrace();
        const RunOutcome o = runStudy(spec, width, false);
        setTraceEnabled(false);
        tracedEvents = traceEventCount();
        clearTrace();
        return o;
    });
    const double overheadPct =
        conc.median.wallMs > 0
            ? (traced.median.wallMs / conc.median.wallMs - 1.0) * 100.0
            : 0.0;
    printRow(("concurrent x" + std::to_string(width) + ", traced")
                 .c_str(),
             traced);
    report.row("concurrent_traced",
               {{"wall_ms", traced.median.wallMs},
                {"wall_ms_min", traced.minMs},
                {"wall_ms_max", traced.maxMs},
                {"runs", double(reps)},
                {"jobs", double(nSeeds)},
                {"concurrency", double(width)},
                {"trace_events", double(tracedEvents)},
                {"overhead_pct_vs_capped", overheadPct}});

    // Same run without the per-job width cap: every one of the
    // `width` jobs sizes its data-parallel sweeps to the whole
    // machine, oversubscribing it width-fold. The capped row above
    // splits parallelThreads() across the workers instead (results
    // are bit-identical either way; see common/parallel).
    const RowRuns uncapped = repeatRow(reps, [&] {
        return runStudy(spec, width, false, nullptr,
                        /*cap_width=*/false);
    });
    printRow(("concurrent x" + std::to_string(width) + ", uncapped")
                 .c_str(),
             uncapped);
    addRow("concurrent_uncapped", uncapped, &shared, double(width));

    // The same sweep costed instead of run: every job forced to
    // kind=estimate skips the simulator and optimizer entirely and
    // pays only chemistry + synthesis + compile, which the shared
    // caches then collapse across jobs. This row is the floor the
    // --estimate qcc_sweep mode promises ("costing is effectively
    // free" next to a real run of the same spec).
    SweepSpec estSpec = spec;
    estSpec.name = "bench_sweep_estimate";
    estSpec.base.kind = "estimate";
    const RowRuns est =
        repeatRow(reps, [&] { return runStudy(estSpec, 1, false); });
    printRow("serial, estimate kind", est);
    addRow("estimate_kind", est, &cold, 0);

    // Persistent-store rows: first against an empty directory (pays
    // serialization on every fresh compile/build; emptied before
    // every run), then against the directory the last cold run
    // filled, with the in-memory caches dropped — the "new process,
    // warm disk" case.
    setStoreDir(storeRoot);
    const RowRuns diskCold = repeatRow(reps, [&] {
        std::filesystem::remove_all(storeRoot, ec);
        return runStudy(spec, 1, false);
    });
    printRow("serial, disk store cold", diskCold);
    addRow("disk_cold", diskCold, &cold, 0);

    const RowRuns warmDisk =
        repeatRow(reps, [&] { return runStudy(spec, 1, false); });
    printRow("serial, disk store warm", warmDisk);
    addRow("warm_disk", warmDisk, &cold, 0);

    // Process-per-job row: the sweepd pool against the store the
    // disk rows just warmed, so forked workers share compiles and
    // chemistry across process boundaries through the disk tier.
    const std::string workerBin =
        (std::filesystem::path(
             sweepd::selfExecutablePath(nullptr))
             .parent_path() /
         "qcc_sweepd")
            .string();
    if (std::filesystem::exists(workerBin)) {
        const RowRuns pool = repeatRow(reps, [&] {
            return runProcessPool(spec, width, workerBin);
        });
        printRow(("process pool x" + std::to_string(width) +
                  ", warm disk")
                     .c_str(),
                 pool);
        addRow("process_pool", pool, &shared, double(width));
    } else {
        std::printf("%-24s   (skipped: %s not built)\n",
                    "process pool", workerBin.c_str());
    }
    setStoreDir("");

    rule();
    std::printf("medians of %d runs each:\n", reps);
    std::printf("concurrent vs serial shared:       %.2fx\n",
                speedup(shared, conc));
    std::printf("width cap vs uncapped:             %.2fx\n",
                speedup(uncapped, conc));
    std::printf("tracing overhead vs capped:        %+.1f%% "
                "(acceptance: <= 3%%)\n",
                overheadPct);
    std::printf("warm disk store vs serial cold:    %.2fx "
                "(acceptance: >= 2x)\n",
                speedup(cold, warmDisk));
    std::printf("estimate kind vs serial cold:      %.2fx\n",
                speedup(cold, est));
    std::printf("expected shape: the shared rows replace all but "
                "one compile and chemistry build per program with "
                "cache hits; the warm-disk row gets the same "
                "effect across process restarts, paying only "
                "deserialization; the capped row avoids running "
                "width x parallelThreads() threads at once.\n");

    store.write(); // SWEEP_bench_sweep.json under QCC_JSON
    std::filesystem::remove_all(storeRoot, ec);
    return 0;
}
