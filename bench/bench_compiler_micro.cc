/**
 * @file
 * Compiler-throughput microbenchmarks (google-benchmark): time to
 * compile compressed UCCSD programs with Merge-to-Root (including
 * the hierarchical layout) vs SABRE routing of chain circuits, plus
 * the pass-manager pipeline with and without the circuit cache.
 * The paper's complexity claim: MtR is O(n * #strings), so compile
 * time should scale linearly in program size and sit far below the
 * general-purpose router.
 *
 * After the registered benchmarks, a whole-Hamiltonian compile study
 * times per-term compilation of the LiH and H2O Hamiltonians over
 * repeated parameter bindings (a miniature VQE outer loop) in two
 * configurations — serial+uncached vs thread-pool-parallel+cached —
 * and writes the headline numbers to BENCH_compiler.json when
 * QCC_JSON is set.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <map>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "bench_util.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/chain_synthesis.hh"
#include "compiler/merge_to_root.hh"
#include "compiler/pipeline.hh"
#include "compiler/sabre.hh"
#include "ferm/hamiltonian.hh"
#include "obs/metrics.hh"

using namespace qcc;

namespace {

struct Prepared
{
    Ansatz ansatz;
    Circuit chain;
    PauliSum hamiltonian;
};

/** Build the 50%-compressed program for one catalog molecule. */
const Prepared &
prepared(const std::string &name)
{
    static std::map<std::string, Prepared> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        setLogLevel(LogLevel::Quiet);
        const auto &entry = benchmarkMolecule(name);
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
        CompressedAnsatz comp =
            compressAnsatz(full, prob.hamiltonian, 0.5);
        std::vector<double> zeros(comp.ansatz.nParams, 0.0);
        Prepared p{comp.ansatz,
                   synthesizeChainCircuit(comp.ansatz, zeros, true),
                   prob.hamiltonian};
        it = cache.emplace(name, std::move(p)).first;
    }
    return it->second;
}

void
benchMtr(benchmark::State &state, const std::string &name)
{
    const Prepared &p = prepared(name);
    XTree tree = makeXTree(17);
    std::vector<double> zeros(p.ansatz.nParams, 0.0);
    for (auto _ : state) {
        MtrResult r = mergeToRootCompile(p.ansatz, zeros, tree);
        benchmark::DoNotOptimize(r.swapCount);
    }
    state.counters["strings"] = double(p.ansatz.numStrings());
}

void
benchSabre(benchmark::State &state, const std::string &name)
{
    const Prepared &p = prepared(name);
    XTree tree = makeXTree(17);
    for (auto _ : state) {
        SabreResult r = sabreCompile(
            p.chain, tree.graph,
            Layout::identity(p.chain.numQubits(), 17));
        benchmark::DoNotOptimize(r.swapCount);
    }
    state.counters["gates"] = double(p.chain.size());
}

/**
 * The pass-manager MtR flow. `cached` exercises the steady state of
 * a VQE loop: every iteration after the first hits the circuit
 * cache with fresh parameters, so the measured cost is the rebind.
 */
void
benchPipelineMtr(benchmark::State &state, const std::string &name,
                 bool cached)
{
    const Prepared &p = prepared(name);
    XTree tree = makeXTree(17);
    PipelineOptions o;
    o.useCache = cached;
    CompilerPipeline pipe(tree, o);
    std::vector<double> params(p.ansatz.nParams, 0.0);
    double bump = 0.0;
    for (auto _ : state) {
        if (!params.empty())
            params[0] = (bump += 1e-3); // new binding each iteration
        CompileResult r = pipe.compile(p.ansatz, params);
        benchmark::DoNotOptimize(r.swapCount);
    }
    state.counters["strings"] = double(p.ansatz.numStrings());
}

} // namespace

BENCHMARK_CAPTURE(benchMtr, LiH, std::string("LiH"));
BENCHMARK_CAPTURE(benchMtr, NaH, std::string("NaH"));
BENCHMARK_CAPTURE(benchMtr, BeH2, std::string("BeH2"));
BENCHMARK_CAPTURE(benchSabre, LiH, std::string("LiH"));
BENCHMARK_CAPTURE(benchSabre, NaH, std::string("NaH"));
BENCHMARK_CAPTURE(benchSabre, BeH2, std::string("BeH2"));
BENCHMARK_CAPTURE(benchPipelineMtr, LiH_uncached, std::string("LiH"),
                  false);
BENCHMARK_CAPTURE(benchPipelineMtr, LiH_cached, std::string("LiH"),
                  true);
BENCHMARK_CAPTURE(benchPipelineMtr, BeH2_uncached,
                  std::string("BeH2"), false);
BENCHMARK_CAPTURE(benchPipelineMtr, BeH2_cached, std::string("BeH2"),
                  true);

namespace {

/**
 * One first-order Trotter step of the whole Hamiltonian as a single
 * program: exp(i theta w_j P_j) for every term, theta the shared
 * parameter — the paper's Pauli-string IR applied to H itself.
 */
Ansatz
trotterProgram(const PauliSum &h)
{
    Ansatz a;
    a.nQubits = h.numQubits();
    a.nParams = 1;
    for (const auto &t : h.terms())
        a.rotations.push_back({0, t.coeff.real(), t.string});
    return a;
}

/**
 * Time `iters` compiles of the whole-Hamiltonian Trotter program
 * with a fresh theta per iteration (the VQE outer-loop access
 * pattern: same structure, new binding every energy evaluation).
 */
double
timeProgramCompiles(const CompilerPipeline &pipe, const Ansatz &prog,
                    int iters)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i) {
        CompileResult r = pipe.compile(prog, {0.1 + 0.01 * i});
        benchmark::DoNotOptimize(r.swapCount);
    }
    return std::chrono::duration<double, std::milli>(clock::now() -
                                                     t0)
        .count();
}

/** Same access pattern through the per-term fan-out path. */
double
timeTermCompiles(const CompilerPipeline &pipe, const PauliSum &h,
                 int iters)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i) {
        auto results = pipe.compileTerms(h, 0.1 + 0.01 * i);
        benchmark::DoNotOptimize(results.size());
    }
    return std::chrono::duration<double, std::milli>(clock::now() -
                                                     t0)
        .count();
}

/**
 * Whole-Hamiltonian compile study onto XTree17Q, serial+uncached vs
 * parallel+cached, in both granularities: the Trotter program
 * compiled as one circuit (cache rebinds dominate) and term-by-term
 * through the thread-pool fan-out (parallelism dominates on
 * multicore hosts; `threads` is recorded alongside).
 */
void
hamiltonianCompileStudy()
{
    using namespace qccbench;
    banner("whole-Hamiltonian compile: serial+uncached vs "
           "parallel+cached (MtR flow, XTree17Q)");

    JsonReport json("compiler");
    XTree tree = makeXTree(17);
    const int iters = fullMode() ? 8 : 4;
    const unsigned threads = parallelThreads();

    std::printf("%-12s %7s %6s %8s %16s %16s %8s\n", "workload",
                "terms", "iters", "threads", "serial+uncached",
                "parallel+cached", "speedup");
    rule();

    for (const char *name : {"LiH", "H2O"}) {
        const Prepared &p = prepared(name);
        const Ansatz prog = trotterProgram(p.hamiltonian);

        PipelineOptions serialOpts;
        serialOpts.useCache = false;
        CompilerPipeline serialPipe(tree, serialOpts);
        CompilerPipeline parallelPipe(tree, PipelineOptions{});

        struct Variant
        {
            const char *suffix;
            bool perTerm;
        };
        for (const Variant &v :
             {Variant{"", false}, Variant{"_terms", true}}) {
            // The serial row runs every pool sweep inline on one
            // lane.
            double serialMs;
            {
                ParallelWidthCap cap(1);
                serialMs =
                    v.perTerm
                        ? timeTermCompiles(serialPipe, p.hamiltonian,
                                           iters)
                        : timeProgramCompiles(serialPipe, prog, iters);
            }
            // Cache counters are global and cumulative; bracket the
            // cached run so the row reports only its own activity.
            const MetricCounter &hits =
                metricCounter("compile.cache.hits");
            const uint64_t hits0 = hits.value();
            double parallelMs =
                v.perTerm
                    ? timeTermCompiles(parallelPipe, p.hamiltonian,
                                       iters)
                    : timeProgramCompiles(parallelPipe, prog, iters);
            const uint64_t cacheHits = hits.value() - hits0;

            double speedup =
                parallelMs > 0 ? serialMs / parallelMs : 0;
            std::string label = std::string(name) + v.suffix;
            std::printf("%-12s %7zu %6d %8u %14.2fms %14.2fms "
                        "%7.2fx\n",
                        label.c_str(), p.hamiltonian.numTerms(),
                        iters, threads, serialMs, parallelMs,
                        speedup);
            json.row(label,
                     {{"terms", double(p.hamiltonian.numTerms())},
                      {"iters", double(iters)},
                      {"threads", double(threads)},
                      {"serial_uncached_ms", serialMs},
                      {"parallel_cached_ms", parallelMs},
                      {"speedup", speedup},
                      {"cache_hits", double(cacheHits)}});
        }
    }
    rule();
    std::printf("parallel fan-out over common/parallel; cached "
                "iterations rebind RZ angles on memoized\n"
                "structures instead of re-running layout+routing "
                "(PipelineOptions::useCache = false disables).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    hamiltonianCompileStudy();
    return 0;
}
