/**
 * @file
 * qcc_sweep — run a SweepSpec file end to end. The declarative
 * counterpart of the per-point examples: one JSON document names a
 * whole study (axes over molecules, bond ranges, compression
 * thresholds, groupings, seeds, ...), the engine fans the expanded
 * jobs over a bounded worker pool with the shared compile cache,
 * and the aggregate lands in SWEEP_<name>.json — per-job records
 * plus best-energy/curve/settings summaries. Shipped spec files
 * under examples/specs/ reproduce the Figure 10 LiH dissociation
 * curve and a Table I slice.
 *
 *   qcc_sweep specs/lih_curve.json
 *   qcc_sweep specs/table1_slice.json --concurrency 4
 *   qcc_sweep specs/table1_full.json --estimate
 *
 * --estimate re-runs any spec in resource-estimation mode (kind
 * "estimate" forced onto every job): no simulator state is ever
 * allocated, so a whole Table I costing finishes in milliseconds.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/store.hh"
#include "sweep/sweep_engine.hh"

using namespace qcc;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <spec.json> [options]\n"
        "  --concurrency N   worker width (default: spec, then "
        "QCC_THREADS)\n"
        "  --cold-cache      clear the compile cache before every "
        "job\n"
        "  --store-dir DIR   persistent store root (overrides "
        "QCC_STORE_DIR)\n"
        "  --no-store        disable the persistent store\n"
        "  --estimate        force kind \"estimate\" onto every job "
        "(simulation-free costing)\n"
        "  --list            print the expanded job list and exit\n"
        "  --quiet           suppress per-job progress lines\n"
        "\nThe aggregate is written as SWEEP_<name>.json under the\n"
        "QCC_JSON convention, falling back to the current "
        "directory.\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Quiet);
    if (argc < 2)
        return usage(argv[0]);

    std::string specPath;
    unsigned concurrency = 0;
    bool coldCache = false, listOnly = false, quiet = false;
    bool forceEstimate = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--concurrency" && i + 1 < argc) {
            if (!parseConcurrency(argv[++i], concurrency)) {
                error("qcc_sweep: --concurrency expects an integer "
                      "in [0, " +
                      std::to_string(SweepSpec::kMaxConcurrency) +
                      "]");
                return 2;
            }
        } else if (arg == "--cold-cache") {
            coldCache = true;
        } else if (arg == "--store-dir" && i + 1 < argc) {
            setStoreDir(argv[++i]);
        } else if (arg == "--no-store") {
            setStoreEnabled(false);
        } else if (arg == "--estimate") {
            forceEstimate = true;
        } else if (arg == "--list") {
            listOnly = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            specPath = arg;
        }
    }
    if (specPath.empty())
        return usage(argv[0]);

    SweepSpec spec;
    try {
        spec = SweepSpec::fromFile(specPath);
    } catch (const std::exception &e) {
        error(std::string("qcc_sweep: ") + e.what());
        return 1;
    }
    if (forceEstimate) {
        // Re-cost the same study without touching the spec file; the
        // suffixed name keeps the aggregate from clobbering a real
        // run's SWEEP_<name>.json.
        spec.name += "_estimate";
        spec.base.kind = "estimate";
        for (ExperimentSpec &job : spec.explicitJobs)
            job.kind = "estimate";
    }

    std::vector<ExperimentSpec> jobs;
    try {
        jobs = spec.expand();
    } catch (const std::exception &e) {
        error(std::string("qcc_sweep: ") + e.what());
        return 1;
    }

    std::printf("sweep '%s': %zu jobs", spec.name.c_str(),
                jobs.size());
    if (!spec.axes.empty()) {
        std::printf(" (");
        for (size_t a = 0; a < spec.axes.size(); ++a)
            std::printf("%s%s x %zu", a ? ", " : "",
                        spec.axes[a].field.c_str(),
                        spec.axes[a].values.size());
        std::printf(")");
    }
    std::printf("\n");

    if (listOnly) {
        for (size_t i = 0; i < jobs.size(); ++i)
            std::printf("  #%-3zu %-5s bond %-5.2f comp %-4.2f "
                        "%s/%s\n",
                        i, jobs[i].molecule.c_str(), jobs[i].bond,
                        jobs[i].compression, jobs[i].mode.c_str(),
                        jobs[i].optimizer.c_str());
        return 0;
    }

    SweepEngineOptions opts;
    opts.concurrency = concurrency;
    opts.coldCompileCache = coldCache;
    if (!quiet) {
        opts.progress = [](const SweepProgress &p) {
            const SweepJobRecord &r = *p.last;
            std::printf("[%zu/%zu] #%-3zu %-5s bond %-5.2f  %-9s",
                        p.completed, p.total, r.index,
                        r.spec.molecule.c_str(),
                        r.effectiveSpec().bond,
                        jobStatusName(r.status));
            if (r.finished())
                std::printf("  E = %+.6f Ha", r.result.energy());
            if (!r.error.empty())
                std::printf("  (%s)", r.error.c_str());
            std::printf("\n");
            std::fflush(stdout);
        };
    }

    SweepEngine engine(spec, opts);
    std::printf("running at concurrency %u%s...\n\n",
                engine.concurrency(),
                coldCache ? ", cold compile cache" : "");
    ResultStore store = engine.run();

    // ---- console summary ----------------------------------------
    std::printf("\n%zu done, %zu failed, %zu timed out, %zu "
                "skipped\n",
                store.countWithStatus(JobStatus::Done),
                store.countWithStatus(JobStatus::Failed),
                store.countWithStatus(JobStatus::TimedOut),
                store.countWithStatus(JobStatus::Skipped));

    // One table per kind, each with the columns that matter for it.
    bool header = false;
    for (const auto &rec : store.jobs()) {
        if (rec.status != JobStatus::Done ||
            rec.effectiveSpec().kind != "vqe")
            continue;
        if (!header) {
            std::printf("\n%-4s %-5s %-8s %14s %14s %14s\n", "job",
                        "mol", "bond(A)", "HF", "VQE", "FCI");
            header = true;
        }
        std::printf("%-4zu %-5s %-8.2f %14.6f %14.6f ",
                    rec.index, rec.spec.molecule.c_str(),
                    rec.effectiveSpec().bond,
                    rec.result.hartreeFock, rec.result.energy());
        if (rec.result.haveFci)
            std::printf("%14.6f\n", rec.result.fci);
        else
            std::printf("%14s\n", "-");
    }

    header = false;
    for (const auto &rec : store.jobs()) {
        if (rec.status != JobStatus::Done ||
            rec.effectiveSpec().kind != "evolve")
            continue;
        const TimeEvolutionResult &ev = rec.result.evolution;
        if (!header) {
            std::printf("\n%-4s %-5s %8s %6s %6s %14s %12s\n",
                        "job", "mol", "t(Ha^-1)", "steps", "order",
                        "<H>(t)", "fidelity");
            header = true;
        }
        std::printf("%-4zu %-5s %8.3f %6d %6d %14.6f ", rec.index,
                    rec.spec.molecule.c_str(), ev.time, ev.steps,
                    ev.order, ev.finalEnergy);
        if (ev.haveFidelity)
            std::printf("%12.9f\n", ev.fidelity);
        else
            std::printf("%12s\n", "-");
    }

    header = false;
    for (const auto &rec : store.jobs()) {
        if (rec.status != JobStatus::Done ||
            rec.effectiveSpec().kind != "estimate")
            continue;
        const EstimateResult &es = rec.result.estimate;
        if (!header) {
            std::printf("\n%-4s %-5s %-9s %6s %8s %8s %8s %7s "
                        "%12s\n",
                        "job", "mol", "grouping", "qubits",
                        "settings", "gates", "cnots", "depth",
                        "shot budget");
            header = true;
        }
        std::printf("%-4zu %-5s %-9s %6u %8zu %8zu %8zu %7zu "
                    "%12llu\n",
                    rec.index, rec.spec.molecule.c_str(),
                    rec.effectiveSpec().grouping.c_str(), es.qubits,
                    es.measurementSettings, es.gates, es.cnots,
                    es.depth,
                    (unsigned long long)es.shotBudget);
    }

    std::string path = store.write();
    if (path.empty()) // QCC_JSON unset: the CLI still delivers
        path = store.writeTo("SWEEP_" + store.name() + ".json");
    if (!path.empty())
        std::printf("\nwrote %s\n", path.c_str());

    if (storeEnabled()) {
        auto n = [](const char *name) {
            return (unsigned long long)metricCounter(name).value();
        };
        std::printf("\npersistent store (%s): circuits %llu hit / "
                    "%llu written / %llu bad; problems %llu memo + "
                    "%llu disk hit / %llu built / %llu written\n",
                    storeDir().c_str(), n("store.circuit.disk_hits"),
                    n("store.circuit.disk_writes"),
                    n("store.circuit.bad_entries"),
                    n("store.problem.mem_hits"),
                    n("store.problem.disk_hits"),
                    n("store.problem.builds"),
                    n("store.problem.disk_writes"));
    }

    // Telemetry documents under the same QCC_JSON convention as the
    // aggregate: a trace only when QCC_TRACE is on, metrics always.
    const std::string tracePath = writeTraceJson(store.name());
    if (!tracePath.empty())
        std::printf("wrote %s\n", tracePath.c_str());
    const std::string metricsPath = writeMetricsJson(store.name());
    if (!metricsPath.empty())
        std::printf("wrote %s\n", metricsPath.c_str());

    return store.countWithStatus(JobStatus::Failed) == 0 ? 0 : 1;
}
