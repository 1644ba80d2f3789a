/**
 * @file
 * The traced per-layer run (--trace 1). It never produces an
 * end-to-end number. With QCC_TRACE on it replays a seeded sample of
 * the workload's jobs by calling each layer's public entry point in
 * the order the facade calls them, each inside a benchmark-side
 * "layer.*" span, checks the replay against the facade's records,
 * and reads the obs registry for counters. The program's own spans
 * (compile.*, gradient.*, sample.measure, sweep.job, sweepd.job and
 * adopted worker spans) land in the same Chrome trace.
 */

#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <type_traits>

#include "ansatz/compression.hh"
#include "api/registries.hh"
#include "chem/basis.hh"
#include "chem/hartree_fock.hh"
#include "chem/integrals.hh"
#include "chem/mo_integrals.hh"
#include "chem/molecules.hh"
#include "common/json.hh"
#include "compiler/cache.hh"
#include "estimate/estimate.hh"
#include "ferm/active_space.hh"
#include "ferm/hamiltonian.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/problem_store.hh"
#include "store/store.hh"
#include "sweep/sweep_engine.hh"
#include "sweepd/service.hh"
#include "vqe/driver.hh"

namespace qccbench {

using namespace qcc;

namespace {

/** Per-metric samples collected during the run. */
using Samples = std::map<std::string, std::vector<double>>;

/** Timed call inside a benchmark span; appends ms to `s[metric]`. */
template <typename Fn>
auto
timed(Samples &s, const std::string &metric, const char *span, Fn &&fn)
{
    TraceSpan sp(span);
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        s[metric].push_back(sp.elapsedMillis());
    } else {
        auto r = fn();
        s[metric].push_back(sp.elapsedMillis());
        return r;
    }
}

/** Counter readings of the obs registry. */
struct RegistrySnapshot
{
    std::map<std::string, uint64_t> counters;

    static RegistrySnapshot
    take()
    {
        RegistrySnapshot r;
        for (const char *name :
             {"parallel.pool_jobs", "parallel.inline_jobs",
              "compile.cache.hits",
              "compile.cache.misses", "compile.cache.disk_hits",
              "store.problem.builds", "store.problem.disk_hits"})
            r.counters[name] = metricCounter(name).value();
        return r;
    }

    uint64_t
    delta(const RegistrySnapshot &before, const std::string &name) const
    {
        return counters.at(name) - before.counters.at(name);
    }
};

/**
 * One problem built through the public chemistry stages (as
 * buildMolecularProblem does), each stage in its own span.
 */
MolecularProblem
stagedBuild(const ProblemKey &key, Samples &s)
{
    const BenchmarkMolecule &entry = benchmarkMolecule(key.molecule);
    const Molecule mol = entry.build(key.bond);
    const BasisSet basis = timed(s, "chem.basis_ms", "layer.chem.basis",
                                 [&] { return BasisSet::stoNg(mol, 3); });
    const IntegralTables ints =
        timed(s, "chem.integrals_ms", "layer.chem.integrals",
              [&] { return computeIntegrals(basis, mol); });
    const ScfResult scf = timed(s, "chem.scf_ms", "layer.chem.scf",
                                [&] { return runRhf(ints, mol); });
    ActiveSpaceResult as =
        timed(s, "chem.active_space_ms", "layer.chem.active_space", [&] {
            const MoIntegrals mo =
                transformToMo(ints, scf.coeffs, mol.nuclearRepulsion());
            return applyActiveSpace(mo, scf.orbitalEnergies,
                                    mol.nElectrons(), entry.nFrozen,
                                    entry.targetSpatial);
        });
    MolecularProblem p;
    p.hamiltonian =
        timed(s, "ferm.hamiltonian_ms", "layer.ferm.hamiltonian",
              [&] { return buildQubitHamiltonian(as.active); });
    p.nSpatial = unsigned(as.active.nOrb);
    p.nElectrons = as.nActiveElectrons;
    p.nQubits = 2 * p.nSpatial;
    p.hartreeFockEnergy = scf.energyTotal;
    return p;
}

/** The driver options the facade derives from a spec. */
VqeDriverOptions
driverOptions(const ExperimentSpec &s, const GroupingFn &grouping)
{
    VqeDriverOptions o;
    o.optimizer = optimizerRegistry().get(s.optimizer)();
    o.noise.cnotDepolarizing = s.cnotError;
    o.noise.singleQubitDepolarizing = s.singleQubitError;
    if (s.shots > 0)
        o.sampling.shots = s.shots;
    o.sampling.grouping = grouping;
    o.maxIter = s.maxIter;
    o.spsaIter = s.spsaIter;
    if (s.seed != 0)
        o.seed = s.seed;
    return o;
}

std::unique_ptr<VqeDriver>
makeDriver(const ExperimentSpec &s, const PauliSum &h, const Ansatz &a)
{
    const GroupingFn &g = groupingRegistry().get(s.grouping);
    const VqeDriverOptions o = driverOptions(s, g);
    return std::make_unique<VqeDriver>(
        h, a, o,
        makeEstimationStrategy(s.mode,
                               EstimationConfig{&h, o.noise, o.sampling, g}));
}

/** Compile `prog` on `arch` with a preset, cache cleared or not. */
CompileResult
compileOn(const std::string &preset, const std::string &arch,
          const Ansatz &prog)
{
    const PipelineOptions po = pipelinePresetRegistry().get(preset)();
    const Device dev = makeDevice(arch);
    const std::vector<double> params(prog.nParams, 0.0);
    return dev.tree ? CompilerPipeline(*dev.tree, po).compile(prog, params)
                    : CompilerPipeline(*dev.graph, po).compile(prog, params);
}

/**
 * Replay one job the way the facade runs it and compare with the
 * facade's record `ref`. Returns the VQE (evals, iterations).
 */
std::pair<int, int>
replayJob(const ExperimentSpec &s, const ExperimentResult &ref, Samples &smp,
          uint64_t &settings_total, Report &rep)
{
    const BenchmarkMolecule &entry = benchmarkMolecule(s.molecule);
    // The facade reads the problem from the store; the probe loads it
    // from a warm disk tier with the memo cleared. The tier is on only
    // for that load, so the compiler and estimator probes below never
    // read a compile from disk.
    setStoreEnabled(true);
    globalProblemStore().clearMemory();
    globalProblemStore().get(entry, s.bond, 3); // writes the disk entry
    globalProblemStore().clearMemory();

    TraceSpan root("bench.job");
    root.arg("molecule", s.molecule);
    const std::string who = "replay " + s.molecule + " (" + s.kind + ", " +
                            s.mode + ")";
    const MolecularProblem prob =
        timed(smp, "store.problem_load_ms", "layer.store.problem_load",
              [&] { return globalProblemStore().get(entry, s.bond, 3); });
    setStoreEnabled(false);
    rep.check(prob.nQubits == ref.nQubits,
              who + ": qubit count differs from the facade");

    const Ansatz full =
        timed(smp, "ansatz.uccsd_ms", "layer.ansatz.uccsd",
              [&] { return buildUccsd(prob.nSpatial, prob.nElectrons); });
    // Jobs without compression still time it at the paper's 0.5.
    const double ratio = s.compression < 1.0 ? s.compression : 0.5;
    CompressedAnsatz compressed =
        timed(smp, "ansatz.compress_ms", "layer.ansatz.compress",
              [&] { return compressAnsatz(full, prob.hamiltonian, ratio); });
    const Ansatz prog = s.compression < 1.0 ? compressed.ansatz : full;
    rep.check(prog.nParams == ref.nParams,
              who + ": parameter count differs from the facade");

    const GroupingFn &grouping = groupingRegistry().get(s.grouping);
    const size_t nSettings =
        timed(smp, "pauli.group_ms", "layer.pauli.group",
              [&] { return grouping(prob.hamiltonian).size(); });
    settings_total += nSettings;
    rep.check(nSettings == ref.measurementSettings,
              who + ": measurement settings differ from the facade");

    std::pair<int, int> vqeCounts{0, 0};
    if (s.kind == "vqe") {
        // A cold compile cache, so the hit and miss counts of the run
        // do not depend on what the passes left in it.
        globalCircuitCache().clear();
        VqeResult vr;
        {
            TraceSpan span("layer.vqe.run");
            vr = makeDriver(s, prob.hamiltonian, prog)->run();
        }
        rep.check(std::fabs(vr.energy - ref.energy()) <= 1e-9 &&
                      vr.evals == ref.vqe.evals &&
                      vr.iterations == ref.vqe.iterations,
                  who + ": replayed VQE differs from the facade");
        vqeCounts = {vr.evals, vr.iterations};
    }

    // Compiler: the paper's two routers on this program.
    {
        globalCircuitCache().clear();
        const CompileResult mtr =
            timed(smp, "compiler.miss_ms.mtr", "layer.compiler.miss_mtr",
                  [&] { return compileOn("mtr", "xtree17", prog); });
        for (const PassStats &ps : mtr.report.passes)
            smp["compiler.pass_ms." + ps.pass].push_back(ps.millis);
        const CompileResult hit =
            timed(smp, "compiler.hit_ms", "layer.compiler.hit",
                  [&] { return compileOn("mtr", "xtree17", prog); });
        rep.check(hit.report.cacheHit && hit.circuit.cnotCount() ==
                                             mtr.circuit.cnotCount(),
                  who + ": second mtr compile was not a matching cache hit");
        const CompileResult sabre =
            timed(smp, "compiler.miss_ms.sabre", "layer.compiler.miss_sabre",
                  [&] { return compileOn("sabre", "grid17", prog); });
        for (const PassStats &ps : sabre.report.passes)
            smp["compiler.pass_ms." + ps.pass].push_back(ps.millis);
    }

    // Estimator: the job's own flow when it names one, else mtr/xtree17.
    {
        const std::string preset = s.pipeline.empty() ? "mtr" : s.pipeline;
        const std::string arch =
            s.architecture.empty() ? "xtree17" : s.architecture;
        const PipelineOptions po = pipelinePresetRegistry().get(preset)();
        const Device dev = makeDevice(arch);
        globalCircuitCache().clear();
        EstimateRequest req;
        req.hamiltonian = &prob.hamiltonian;
        req.program = &prog;
        req.grouping = grouping;
        req.shotsPerEstimate = ref.spec.shots;
        req.iterations = s.maxIter;
        const EstimateResult e = timed(
            smp, "estimate.resources_ms", "layer.estimate.resources", [&] {
                if (dev.tree) {
                    const CompilerPipeline pipe(*dev.tree, po);
                    req.pipeline = &pipe;
                    return estimateResources(req);
                }
                const CompilerPipeline pipe(*dev.graph, po);
                req.pipeline = &pipe;
                return estimateResources(req);
            });
        if (s.kind == "estimate")
            rep.check(e.cnots == ref.estimate.cnots &&
                          e.swaps == ref.estimate.swaps &&
                          e.gates == ref.estimate.gates &&
                          e.measurementSettings ==
                              ref.estimate.measurementSettings,
                      who + ": replayed estimate differs from the facade");
    }
    return vqeCounts;
}

/** A seeded sample: the first job of each distinct class, up to 4. */
std::vector<size_t>
replaySample(const SweepSpec &spec, uint64_t seed)
{
    std::vector<size_t> order(spec.explicitJobs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Rng(seed, "replay-sample").shuffle(order);
    std::set<std::string> classes;
    std::vector<size_t> out;
    for (size_t i : order) {
        const ExperimentSpec &s = spec.explicitJobs[i];
        const std::string cls = s.molecule + "|" +
                                std::to_string(s.compression) + "|" +
                                s.mode + "|" + s.pipeline + "|" +
                                s.architecture;
        if (classes.insert(cls).second)
            out.push_back(i);
        if (out.size() == 4)
            break;
    }
    return out;
}

/**
 * Fixed-size simulator and gradient probes, the same in every
 * workload: ideal energies at 6/8/10/12 qubits, a density-matrix
 * energy, a sampled energy, and one parameter-shift gradient.
 */
void
simProbes(Samples &smp)
{
    TraceSpan root("bench.probe");
    struct Probe
    {
        const char *metric;
        const char *span;
        const char *molecule;
        double compression;
        const char *mode;
    };
    const Probe probes[] = {
        {"sim.energy_ms.q6", "layer.sim.energy_q6", "LiH", 1.0, "ideal"},
        {"sim.energy_ms.q8", "layer.sim.energy_q8", "NaH", 1.0, "ideal"},
        {"sim.energy_ms.q10", "layer.sim.energy_q10", "HF", 1.0, "ideal"},
        {"sim.energy_ms.q12", "layer.sim.energy_q12", "BeH2", 0.1, "ideal"},
        {"sim.dm_energy_ms", "layer.sim.dm_energy", "LiH", 0.7, "noisy"},
        {"sim.sample_ms", "layer.sim.sample", "LiH", 1.0, "sampled"},
    };
    for (const Probe &p : probes) {
        const BenchmarkMolecule &m = benchmarkMolecule(p.molecule);
        const MolecularProblem prob =
            globalProblemStore().get(m, m.equilibriumBond, 3);
        const Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
        const Ansatz prog =
            p.compression < 1.0
                ? compressAnsatz(full, prob.hamiltonian, p.compression).ansatz
                : full;
        ExperimentSpec s;
        s.molecule = p.molecule;
        s.mode = p.mode;
        s.shots = 2048;
        s.seed = 11;
        auto driver = makeDriver(s, prob.hamiltonian, prog);
        std::vector<double> params(prog.nParams);
        for (size_t i = 0; i < params.size(); ++i)
            params[i] = 0.05 * std::sin(double(i) + 1.0);
        for (int rep = 0; rep < 5; ++rep)
            timed(smp, p.metric, p.span, [&] { driver->energy(params); });
        if (std::string(p.metric) == "sim.energy_ms.q10")
            for (int rep = 0; rep < 3; ++rep)
                timed(smp, "vqe.gradient_ms", "layer.vqe.gradient",
                      [&] { driver->gradient(params); });
    }
}

/** Per-span self time and calls, from a Chrome trace-event array. */
struct SpanStats
{
    double selfMs = 0.0;
    double totalMs = 0.0;
    uint64_t calls = 0;
};

/**
 * Self time of every span name, plus the share of the bench.job
 * spans' wall time that child spans cover. False when the events do
 * not pair up.
 */
bool
analyzeTrace(const JsonValue &events, std::map<std::string, SpanStats> &out,
             double &coverage)
{
    struct Open
    {
        std::string name;
        double ts;
        double childUs;
    };
    std::map<std::pair<long long, long long>, std::vector<Open>> stacks;
    double jobUs = 0.0, jobCoveredUs = 0.0;
    for (const JsonValue &e : events.items) {
        const JsonValue *ph = e.find("ph"), *name = e.find("name"),
                        *ts = e.find("ts"), *pid = e.find("pid"),
                        *tid = e.find("tid");
        if (!ph || !ts || !pid || !tid)
            return false;
        auto &stack = stacks[{(long long)pid->number, (long long)tid->number}];
        if (ph->text == "B") {
            stack.push_back({name ? name->text : "?", ts->number, 0.0});
        } else if (ph->text == "E") {
            if (stack.empty())
                return false;
            const Open o = stack.back();
            stack.pop_back();
            const double dur = ts->number - o.ts;
            SpanStats &st = out[o.name];
            st.selfMs += (dur - o.childUs) / 1000.0;
            st.totalMs += dur / 1000.0;
            ++st.calls;
            if (!stack.empty())
                stack.back().childUs += dur;
            if (o.name == "bench.job") {
                jobUs += dur;
                jobCoveredUs += o.childUs;
            }
        }
    }
    for (const auto &[k, stack] : stacks)
        if (!stack.empty())
            return false;
    coverage = jobUs > 0.0 ? jobCoveredUs / jobUs : 0.0;
    return true;
}

} // namespace

void
runTraced(const Options &opt, const Workload &w, Report &rep)
{
    Samples smp;
    setTraceEnabled(true);
    clearTrace();

    // ---- set-up through the staged chemistry (cold layer times) ---
    // Each staged build is checked once against the store's problem,
    // which the passes and the replay use.
    {
        TraceSpan root("bench.setup");
        globalProblemStore().clearMemory();
        for (const ProblemKey &p : w.problems) {
            const MolecularProblem staged = stagedBuild(p, smp);
            const MolecularProblem stored = globalProblemStore().get(
                benchmarkMolecule(p.molecule), p.bond, 3);
            rep.check(staged.hamiltonian.numTerms() ==
                              stored.hamiltonian.numTerms() &&
                          staged.nQubits == stored.nQubits &&
                          staged.hartreeFockEnergy ==
                              stored.hartreeFockEnergy,
                      p.molecule + " bond " + std::to_string(p.bond) +
                          ": staged chemistry differs from the store's "
                          "problem");
        }
    }
    setTraceEnabled(false);

    // ---- passes ---------------------------------------------------
    // One untimed warm-up, then rounds of (untraced at concurrency 1,
    // untraced at 2, traced at the workload's own). Alternating them
    // spreads machine phases over all three kinds, and the ratios
    // below are ratios of medians.
    const SweepSpec &spec = w.passSpecs.front();
    auto tally = [&](const PassResult &p) {
        rep.attempted += p.store.size();
        const size_t done = p.store.countWithStatus(JobStatus::Done);
        rep.failed += p.store.size() - done;
        rep.check(done == p.store.size(), "a traced-run pass had failed jobs");
    };
    tally(runPass(opt, w, spec, w.concurrency));
    constexpr int kRounds = 3;
    std::vector<double> wall1, wall2, untracedRates, tracedRates;
    RegistrySnapshot poolBefore, before, after;
    std::optional<PassResult> first2; // the first untraced concurrency-2 pass
    for (int round = 0; round < kRounds; ++round) {
        const RegistrySnapshot s0 = RegistrySnapshot::take();
        const PassResult c1 = runPass(opt, w, spec, 1);
        const RegistrySnapshot s1 = RegistrySnapshot::take();
        PassResult c2 = runPass(opt, w, spec, 2);
        const RegistrySnapshot s2 = RegistrySnapshot::take();
        // On a thread of its own: a thread's trace buffer holds 65536
        // events, and at concurrency 1 the pool adopts every worker's
        // events (about 130 a job) on the thread that submits the sweep.
        setTraceEnabled(true);
        const PassResult traced =
            std::async(std::launch::async, [&] {
                return runPass(opt, w, spec, w.concurrency);
            }).get();
        setTraceEnabled(false);

        tally(c1);
        tally(c2);
        tally(traced);
        for (const SweepJobRecord &r : c1.store.jobs())
            wall1.push_back(r.wallMillis);
        for (const SweepJobRecord &r : c2.store.jobs())
            wall2.push_back(r.wallMillis);
        const PassResult &untraced = w.concurrency == 1 ? c1 : c2;
        untracedRates.push_back(double(untraced.store.size()) /
                                untraced.seconds);
        tracedRates.push_back(double(traced.store.size()) / traced.seconds);
        if (round == 0) {
            poolBefore = s0;
            before = s1;
            after = s2;
            first2.emplace(std::move(c2));
        }
    }
    const PassResult &p2 = *first2;
    if (w.processPool)
        rep.check(p2.workerProblemBuilds ==
                          after.delta(before, "store.problem.builds") &&
                      p2.workerProblemDiskHits ==
                          after.delta(before, "store.problem.disk_hits"),
                  "worker store counters disagree with the merged registry");

    // ---- replay: the facade's layers, one span each ---------------
    // Tracing stays on from here to the API round trip. The disk
    // store is on only inside replayJob's problem-load probe; the
    // in-process workloads give it a directory of its own.
    setTraceEnabled(true);
    if (!w.processPool)
        setStoreDir(opt.runDir + "/trace_store");
    const bool storeWas = storeEnabled();
    const RegistrySnapshot replayBefore = RegistrySnapshot::take();
    uint64_t settings = 0, evals = 0, iterations = 0;
    const std::vector<size_t> sample = replaySample(spec, opt.seed);
    for (size_t idx : sample) {
        const SweepJobRecord &ref = p2.store.jobs()[idx];
        if (ref.status != JobStatus::Done)
            continue;
        const auto [ev, it] =
            replayJob(ref.spec, ref.result, smp, settings, rep);
        evals += uint64_t(ev);
        iterations += uint64_t(it);
        ++rep.attempted;
    }
    const RegistrySnapshot replayAfter = RegistrySnapshot::take();
    setStoreEnabled(storeWas);
    simProbes(smp);

    // ---- result JSON round trip over the pass's records -----------
    {
        TraceSpan root("bench.api");
        for (const SweepJobRecord &r : p2.store.jobs()) {
            if (r.status != JobStatus::Done)
                continue;
            const ExperimentResult::JsonOptions jo{spec.emitTimings, false};
            const std::string doc =
                timed(smp, "api.result_json_ms", "layer.api.result_json",
                      [&] { return r.result.json(jo); });
            ExperimentResult back;
            const bool ok = timed(smp, "api.result_parse_ms",
                                  "layer.api.result_parse", [&] {
                                      return ExperimentResult::fromJsonDom(
                                          JsonValue::parse(doc), back);
                                  });
            rep.check(ok && back.json(jo) == doc,
                      "result JSON does not round-trip");
        }
    }
    setTraceEnabled(false);

    // ---- sweep aggregate write and resume adoption ----------------
    const std::string aggPath = opt.runDir + "/aggregate.json";
    std::vector<double> writeMs, adoptMs;
    for (int i = 0; i < 5; ++i) {
        const double t0 = nowSeconds();
        p2.store.writeTo(aggPath);
        writeMs.push_back((nowSeconds() - t0) * 1e3);
    }
    const std::string aggDoc = p2.store.json();
    for (int i = 0; i < 3; ++i) {
        ResultStore fresh(spec.name, spec.emitTimings);
        fresh.reset(spec.expand());
        const double t0 = nowSeconds();
        const size_t adopted = fresh.adoptCompleted(aggDoc);
        adoptMs.push_back((nowSeconds() - t0) * 1e3);
        rep.check(adopted == p2.store.size(),
                  "resume adopted fewer jobs than the aggregate holds");
    }

    // ---- the other runner on a small sample: per-job overhead -----
    SweepSpec small = spec;
    small.name = spec.name + "_small";
    small.explicitJobs.clear();
    for (size_t idx : sample)
        small.explicitJobs.push_back(spec.explicitJobs[idx]);
    std::vector<double> sweepOverhead, sweepdOverhead;
    auto overheads = [](const ResultStore &st, std::vector<double> &out) {
        for (const SweepJobRecord &r : st.jobs())
            if (r.status == JobStatus::Done)
                out.push_back(r.wallMillis - r.result.totalMillis);
    };
    {
        Workload other = w;
        other.processPool = !w.processPool;
        const PassResult cross = runPass(opt, other, small, 2);
        rep.attempted += cross.store.size();
        overheads(cross.store, w.processPool ? sweepOverhead : sweepdOverhead);
    }
    overheads(p2.store, w.processPool ? sweepdOverhead : sweepOverhead);

    // ---- the Chrome trace and its per-span table -------------------
    const std::string tracePath =
        opt.runDir + "/TRACE_EVENTS_" + w.name + ".json";
    const std::string traceDoc = traceEventsJson();
    std::ofstream(tracePath, std::ios::binary) << traceDoc;
    std::map<std::string, SpanStats> spans;
    double coverage = 0.0;
    const JsonValue parsed = JsonValue::parse(traceDoc);
    const JsonValue *events = parsed.find("traceEvents");
    rep.check(events && analyzeTrace(*events, spans, coverage),
              "trace events do not pair up");
    rep.notes["trace_file"] = tracePath;
    rep.notes["trace_events"] = std::to_string(traceEventCount());
    rep.notes["trace_dropped"] = std::to_string(traceDroppedCount());
    std::vector<std::pair<std::string, SpanStats>> table(spans.begin(),
                                                         spans.end());
    std::sort(table.begin(), table.end(), [](const auto &a, const auto &b) {
        return a.second.selfMs > b.second.selfMs;
    });
    std::fprintf(stderr, "%-34s %12s %12s %8s\n", "span", "self_ms",
                 "total_ms", "calls");
    for (const auto &[name, st] : table)
        std::fprintf(stderr, "%-34s %12.3f %12.3f %8llu\n", name.c_str(),
                     st.selfMs, st.totalMs, (unsigned long long)st.calls);

    // ---- per-layer metrics ----------------------------------------
    auto medianOf = [&](const std::string &key, const std::string &unit,
                        double scale = 1.0, std::string name = "") {
        const std::vector<double> &v = smp[key];
        rep.check(!v.empty(), "no samples for " + key);
        rep.set(name.empty() ? key : name, median(v) * scale, unit,
                v.size());
    };
    auto meanOf = [&](const std::string &key) {
        const std::vector<double> &v = smp[key];
        double sum = 0.0;
        for (double x : v)
            sum += x;
        rep.check(!v.empty(), "no samples for " + key);
        rep.set(key, v.empty() ? 0.0 : sum / double(v.size()), "ms", v.size());
    };
    // Set-up chemistry: mean per problem, so the once-per-process
    // STO-nG fits show (they are most of chem.basis_ms).
    for (const char *k : {"chem.basis_ms", "chem.integrals_ms", "chem.scf_ms",
                          "chem.active_space_ms", "ferm.hamiltonian_ms"})
        meanOf(k);
    for (const char *k :
         {"store.problem_load_ms", "pauli.group_ms", "ansatz.uccsd_ms",
          "ansatz.compress_ms", "compiler.miss_ms.mtr",
          "compiler.miss_ms.sabre",
          "compiler.hit_ms", "compiler.pass_ms.chain-synthesis",
          "compiler.pass_ms.hier-layout", "compiler.pass_ms.merge-to-root",
          "compiler.pass_ms.sabre-route", "estimate.resources_ms",
          "sim.energy_ms.q6", "sim.energy_ms.q8", "sim.energy_ms.q10",
          "sim.energy_ms.q12", "sim.dm_energy_ms", "sim.sample_ms",
          "vqe.gradient_ms"})
        medianOf(k, "ms");
    medianOf("api.result_json_ms", "us", 1e3, "api.result_json_us");
    medianOf("api.result_parse_ms", "us", 1e3, "api.result_parse_us");

    const size_t n = sample.size();
    rep.set("store.problem.builds",
            double(after.delta(before, "store.problem.builds")), "count", 1);
    rep.set("store.problem.disk_hits",
            double(after.delta(before, "store.problem.disk_hits")), "count", 1);
    rep.set("compile.cache.disk_hits",
            double(after.delta(before, "compile.cache.disk_hits")), "count", 1);
    rep.set("compile.cache.hits",
            double(replayAfter.delta(replayBefore, "compile.cache.hits")),
            "count", n);
    rep.set("compile.cache.misses",
            double(replayAfter.delta(replayBefore, "compile.cache.misses")),
            "count", n);
    rep.set("pauli.settings", double(settings), "count", n);
    rep.set("vqe.evals", double(evals), "count", n);
    rep.set("vqe.iterations", double(iterations), "count", n);
    // Parallel regions of the concurrency-1 pass: with QCC_JOB_WIDTH=1
    // (run.py) they all run inline and the pool stays idle.
    rep.set("parallel.pool_jobs",
            double(before.delta(poolBefore, "parallel.pool_jobs")), "count",
            1);
    rep.set("parallel.inline_jobs",
            double(before.delta(poolBefore, "parallel.inline_jobs")),
            "count", 1);

    rep.set("sweep.job_inflation", median(wall2) / median(wall1), "ratio",
            wall1.size() + wall2.size());
    rep.set("sweep.job_overhead_ms", median(sweepOverhead), "ms",
            sweepOverhead.size());
    rep.set("sweepd.job_overhead_ms", median(sweepdOverhead), "ms",
            sweepdOverhead.size());
    rep.set("sweep.aggregate_write_ms", median(writeMs), "ms", writeMs.size());
    rep.set("sweep.aggregate_kb", double(aggDoc.size()) / 1024.0, "KB", 1);
    rep.set("sweep.adopt_ms", median(adoptMs), "ms", adoptMs.size());

    auto list = [](const std::vector<double> &v) {
        std::string out;
        for (double x : v) {
            if (!out.empty())
                out += ' ';
            out += std::to_string(x);
        }
        return out;
    };
    rep.notes["passes.untraced_jobs_per_s"] = list(untracedRates);
    rep.notes["passes.traced_jobs_per_s"] = list(tracedRates);
    const double rateUntraced = median(untracedRates);
    rep.set("obs.trace_overhead_pct",
            (rateUntraced - median(tracedRates)) / rateUntraced * 100.0, "%",
            untracedRates.size() + tracedRates.size());
    rep.set("trace.coverage", coverage, "ratio", n);
    rep.check(coverage >= 0.95, "layer spans cover less than 95% of the "
                                "replayed jobs");
}

} // namespace qccbench
