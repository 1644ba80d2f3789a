/**
 * @file
 * Simulator-kernel microbenchmarks. Two parts:
 *
 *  - google-benchmark timings of the individual primitives (the
 *    specialized stride-based Pauli-rotation kernel vs the generic
 *    full-scan path and vs the equivalent basis+CNOT-chain gate
 *    circuit, plus Hamiltonian expectation evaluation);
 *
 *  - a variant report comparing the four execution tiers on a
 *    VQE-representative layered circuit and on the hot kernels:
 *    scalar (naive full-scan replay), kernel (stride kernels, vector
 *    path off — the pre-SIMD production path), simd (stride kernels
 *    + AVX2), fused (gate fusion + cache-blocked execution + AVX2).
 *    The variant rows are what lands in BENCH_sim.json (QCC_JSON=1);
 *    `fused_vs_kernel` at n >= 14 is the headline speedup. The
 *    dm_circuit rows time the noisy Fig. 10 circuits (LiH, NaH) on
 *    the density matrix, per-gate against the fused executor. Pass
 *    --benchmark_filter=nope to skip the google-benchmark section and
 *    emit only the variant report.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "bench_util.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "compiler/chain_synthesis.hh"
#include "compiler/pipeline.hh"
#include "ferm/hamiltonian.hh"
#include "sim/density_matrix.hh"
#include "sim/fusion.hh"
#include "sim/kernels.hh"
#include "sim/simd.hh"
#include "sim/statevector.hh"
#include "store/problem_store.hh"
#include "vqe/expectation_engine.hh"

using namespace qcc;

namespace {

PauliString
denseString(unsigned n)
{
    PauliString p(n);
    for (unsigned q = 0; q < n; ++q)
        p.setOp(q, q % 2 ? PauliOp::X : PauliOp::Z);
    return p;
}

void
benchKernelRotation(benchmark::State &state)
{
    const unsigned n = unsigned(state.range(0));
    PauliString p = denseString(n);
    Statevector sv(n);
    for (auto _ : state) {
        sv.applyPauliRotation(0.1, p);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    state.SetComplexityN(int64_t(1) << n);
}

void
benchGenericRotation(benchmark::State &state)
{
    const unsigned n = unsigned(state.range(0));
    PauliString p = denseString(n);
    Statevector sv(n);
    for (auto _ : state) {
        kern::applyPauliRotationGeneric(sv.amplitudes().data(),
                                        sv.dim(), p.xMask(),
                                        p.zMask(), 0.1);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    state.SetComplexityN(int64_t(1) << n);
}

void
benchGateDecomposition(benchmark::State &state)
{
    const unsigned n = unsigned(state.range(0));
    PauliString p = denseString(n);
    Circuit c = pauliRotationChain(p, 0.1, n);
    Statevector sv(n);
    for (auto _ : state) {
        sv.applyCircuit(c);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    state.SetComplexityN(int64_t(1) << n);
}

void
benchKernelExpectation(benchmark::State &state)
{
    const unsigned n = unsigned(state.range(0));
    PauliString p = denseString(n);
    Statevector sv(n);
    for (auto _ : state) {
        double e = sv.expectation(p);
        benchmark::DoNotOptimize(e);
    }
    state.SetComplexityN(int64_t(1) << n);
}

void
benchGenericExpectation(benchmark::State &state)
{
    const unsigned n = unsigned(state.range(0));
    PauliString p = denseString(n);
    Statevector sv(n);
    for (auto _ : state) {
        double e = kern::expectationGeneric(sv.amplitudes().data(),
                                            sv.dim(), p.xMask(),
                                            p.zMask());
        benchmark::DoNotOptimize(e);
    }
    state.SetComplexityN(int64_t(1) << n);
}

void
benchLiHEnergyTermwise(benchmark::State &state)
{
    setVerbose(false);
    static MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("LiH"), 1.6);
    Statevector sv(prob.nQubits, 0b001001);
    for (auto _ : state) {
        double e = sv.expectation(prob.hamiltonian);
        benchmark::DoNotOptimize(e);
    }
    state.counters["terms"] = double(prob.hamiltonian.numTerms());
}

void
benchLiHEnergyGrouped(benchmark::State &state)
{
    setVerbose(false);
    static MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("LiH"), 1.6);
    static ExpectationEngine engine(prob.hamiltonian);
    Statevector sv(prob.nQubits, 0b001001);
    for (auto _ : state) {
        double e = engine.energy(sv);
        benchmark::DoNotOptimize(e);
    }
    state.counters["terms"] = double(prob.hamiltonian.numTerms());
    state.counters["groups"] = double(engine.numGroups());
}

// ---------------------------------------------------------------------
// Variant report: scalar / kernel / simd / fused on shared workloads.
// ---------------------------------------------------------------------

/**
 * VQE-shaped layered circuit: per layer an Euler rotation block
 * RZ-RY-RZ on every qubit, a CNOT entangling chain, and a diagonal
 * tail (S, RZ) — the gate mix chain synthesis emits. Exercises 1q
 * merging, diagonal coalescing, and blocked CNOT execution at once.
 */
Circuit
layeredCircuit(unsigned n, unsigned layers)
{
    Circuit c(n);
    double a = 0.3;
    for (unsigned l = 0; l < layers; ++l) {
        for (unsigned q = 0; q < n; ++q) {
            c.rz(q, a);
            c.ry(q, a * 0.7 + 0.1);
            c.rz(q, -a * 0.4);
            a += 0.05;
        }
        for (unsigned q = 0; q + 1 < n; ++q)
            c.cnot(q, q + 1);
        for (unsigned q = 0; q < n; ++q) {
            c.s(q);
            c.rz(q, 0.1 + 0.01 * q);
        }
    }
    return c;
}

/** Median-of-batches wall time per call, in milliseconds. */
double
timeMs(const std::function<void()> &fn)
{
    using clock = std::chrono::steady_clock;
    fn(); // warm up (page in the state, settle dispatch)
    auto once = clock::now();
    fn();
    double t1 =
        std::chrono::duration<double>(clock::now() - once).count();
    // Size batches so each takes ~40 ms, then keep the fastest of
    // three (robust against scheduler noise on shared runners).
    const int reps =
        int(std::clamp(0.04 / std::max(t1, 1e-7), 1.0, 2000.0));
    double best = 1e300;
    for (int b = 0; b < 3; ++b) {
        auto t0 = clock::now();
        for (int r = 0; r < reps; ++r)
            fn();
        double dt =
            std::chrono::duration<double>(clock::now() - t0).count();
        best = std::min(best, dt / reps);
    }
    return best * 1e3;
}

/** Naive full-scan gate replay: the scalar reference tier. */
void
applyCircuitNaive(Statevector &sv, const Circuit &c)
{
    cplx *amp = sv.amplitudes().data();
    const size_t dim = sv.dim();
    for (const Gate &g : c.gates()) {
        if (g.kind == GateKind::CNOT) {
            const uint64_t cb = 1ull << g.q0, tb = 1ull << g.q1;
            for (size_t b = 0; b < dim; ++b)
                if ((b & cb) && !(b & tb))
                    std::swap(amp[b], amp[b | tb]);
        } else if (g.kind == GateKind::SWAP) {
            const uint64_t ab = 1ull << g.q0, bb = 1ull << g.q1;
            for (size_t b = 0; b < dim; ++b)
                if ((b & ab) && !(b & bb))
                    std::swap(amp[b ^ ab], amp[b ^ ab ^ (ab | bb)]);
        } else {
            cplx u[4];
            gateMatrix(g.kind, g.angle, u);
            kern::apply1qGeneric(amp, dim, g.q0, u);
        }
    }
}

void
variantCircuitRow(qccbench::JsonReport &rep, unsigned n)
{
    const Circuit c = layeredCircuit(n, 3);
    const size_t fusedOps = fuseCircuit(c).ops.size();
    Statevector sv(n);

    kern::setSimdEnabled(false);
    const double scalarMs =
        timeMs([&] { applyCircuitNaive(sv, c); });
    const double kernelMs =
        timeMs([&] { sv.applyCircuit(c, false); });
    const double fusedScalarMs =
        timeMs([&] { sv.applyCircuit(c, true); });
    kern::setSimdEnabled(true);
    const double simdMs =
        timeMs([&] { sv.applyCircuit(c, false); });
    const double fusedMs =
        timeMs([&] { sv.applyCircuit(c, true); });

    std::printf("  circuit n=%-2u (%zu gates -> %zu fused ops): "
                "scalar %.3f  kernel %.3f  simd %.3f  fused %.3f ms"
                "  [fused_vs_kernel %.2fx]\n",
                n, c.size(), fusedOps, scalarMs, kernelMs, simdMs,
                fusedMs, kernelMs / fusedMs);
    rep.row("circuit_n" + std::to_string(n),
            {{"qubits", double(n)},
             {"gates", double(c.size())},
             {"fused_ops", double(fusedOps)},
             {"scalar_ms", scalarMs},
             {"kernel_ms", kernelMs},
             {"simd_ms", simdMs},
             {"fused_scalar_ms", fusedScalarMs},
             {"fused_ms", fusedMs},
             {"simd_vs_kernel", kernelMs / simdMs},
             {"fused_vs_kernel", kernelMs / fusedMs}});
}

void
variantRotationRow(qccbench::JsonReport &rep, unsigned n)
{
    PauliString p = denseString(n);
    Statevector sv(n);
    const double scalarMs = timeMs([&] {
        kern::applyPauliRotationGeneric(sv.amplitudes().data(),
                                        sv.dim(), p.xMask(),
                                        p.zMask(), 0.1);
    });
    kern::setSimdEnabled(false);
    const double kernelMs =
        timeMs([&] { sv.applyPauliRotation(0.1, p); });
    kern::setSimdEnabled(true);
    const double simdMs =
        timeMs([&] { sv.applyPauliRotation(0.1, p); });
    std::printf("  rotation n=%-2u: scalar %.3f  kernel %.3f  "
                "simd %.3f ms  [simd_vs_kernel %.2fx]\n",
                n, scalarMs, kernelMs, simdMs, kernelMs / simdMs);
    rep.row("rotation_n" + std::to_string(n),
            {{"qubits", double(n)},
             {"scalar_ms", scalarMs},
             {"kernel_ms", kernelMs},
             {"simd_ms", simdMs},
             {"simd_vs_kernel", kernelMs / simdMs}});
}

void
variantExpectationRow(qccbench::JsonReport &rep, unsigned n)
{
    PauliString p = denseString(n);
    Statevector sv(n);
    const double scalarMs = timeMs([&] {
        double e = kern::expectationGeneric(sv.amplitudes().data(),
                                            sv.dim(), p.xMask(),
                                            p.zMask());
        benchmark::DoNotOptimize(e);
    });
    kern::setSimdEnabled(false);
    const double kernelMs = timeMs([&] {
        double e = sv.expectation(p);
        benchmark::DoNotOptimize(e);
    });
    kern::setSimdEnabled(true);
    const double simdMs = timeMs([&] {
        double e = sv.expectation(p);
        benchmark::DoNotOptimize(e);
    });
    std::printf("  expectation n=%-2u: scalar %.3f  kernel %.3f  "
                "simd %.3f ms  [simd_vs_kernel %.2fx]\n",
                n, scalarMs, kernelMs, simdMs, kernelMs / simdMs);
    rep.row("expectation_n" + std::to_string(n),
            {{"qubits", double(n)},
             {"scalar_ms", scalarMs},
             {"kernel_ms", kernelMs},
             {"simd_ms", simdMs},
             {"simd_vs_kernel", kernelMs / simdMs}});
}

void
variantGroupRow(qccbench::JsonReport &rep, unsigned n)
{
    // A 24-term diagonal family with varied masks, like a rotated
    // qubit-wise-commuting group after basis change.
    std::vector<double> w;
    std::vector<uint64_t> z;
    uint64_t m = 0x9e3779b97f4a7c15ull;
    for (int t = 0; t < 24; ++t) {
        w.push_back(0.01 * (t + 1));
        z.push_back(m & ((1ull << n) - 1));
        m = m * 6364136223846793005ull + 1442695040888963407ull;
    }
    Statevector sv(n);
    kern::setSimdEnabled(false);
    const double kernelMs = timeMs([&] {
        double e = kern::diagonalGroupExpectation(
            sv.amplitudes().data(), sv.dim(), w.data(), z.data(),
            z.size());
        benchmark::DoNotOptimize(e);
    });
    kern::setSimdEnabled(true);
    const double simdMs = timeMs([&] {
        double e = kern::diagonalGroupExpectation(
            sv.amplitudes().data(), sv.dim(), w.data(), z.data(),
            z.size());
        benchmark::DoNotOptimize(e);
    });
    std::printf("  group(24) n=%-2u: kernel %.3f  simd %.3f ms  "
                "[simd_vs_kernel %.2fx]\n",
                n, kernelMs, simdMs, kernelMs / simdMs);
    rep.row("group_n" + std::to_string(n),
            {{"qubits", double(n)},
             {"terms", 24.0},
             {"kernel_ms", kernelMs},
             {"simd_ms", simdMs},
             {"simd_vs_kernel", kernelMs / simdMs}});
}

/**
 * The noisy VQE circuit of the paper's Fig. 10 study: a molecule's
 * UCCSD ansatz compressed to 0.3, chain-synthesized with its HF
 * preparation, on the density matrix under the paper's 1e-4 CNOT
 * depolarizing model. Times the per-gate reference against the
 * fused executor and counts the sweeps each makes over the 4^n
 * vector.
 */
void
variantDensityMatrixRow(qccbench::JsonReport &rep,
                        const std::string &molecule)
{
    const BenchmarkMolecule &m = benchmarkMolecule(molecule);
    const MolecularProblem prob =
        globalProblemStore().get(m, m.equilibriumBond, 3);
    const Ansatz ansatz =
        compressAnsatz(buildUccsd(prob.nSpatial, prob.nElectrons),
                       prob.hamiltonian, 0.3)
            .ansatz;
    std::vector<double> params(ansatz.nParams);
    for (size_t i = 0; i < params.size(); ++i)
        params[i] = 0.05 * std::sin(double(i) + 1.0);
    const Circuit c = cachedChainCircuit(ansatz, params, true);
    const NoiseModel noise = NoiseModel::paperDefault();
    const unsigned n = prob.nQubits;
    DensityMatrix rho(n);

    size_t perGateOps = 0, executorOps = 0;
    auto run = [&](bool fuse, size_t &ops) {
        rho.reset();
        ops = rho.applyGates(c.gates(), noise, fuse);
    };
    const double perGateMs = timeMs([&] { run(false, perGateOps); });
    const double executorMs =
        timeMs([&] { run(true, executorOps); });

    std::printf("  dm circuit %s n=%-2u (%zu gates; %zu -> %zu "
                "sweeps): per-gate %.3f  executor %.3f ms  "
                "[per_gate_vs_executor %.2fx]\n",
                molecule.c_str(), n, c.size(), perGateOps, executorOps,
                perGateMs, executorMs, perGateMs / executorMs);
    rep.row("dm_circuit_n" + std::to_string(n),
            {{"qubits", double(n)},
             {"gates", double(c.size())},
             {"per_gate_ops", double(perGateOps)},
             {"executor_ops", double(executorOps)},
             {"per_gate_ms", perGateMs},
             {"executor_ms", executorMs},
             {"per_gate_vs_executor", perGateMs / executorMs}});
}

void
variantReport()
{
    const bool simdWasActive = kern::simdActive();
    qccbench::banner("sim kernel variants (scalar / kernel / simd / "
                     "fused)");
    std::printf("  simd: compiled=%d supported=%d (%s)\n",
                int(kern::simdCompiled()), int(kern::simdSupported()),
                kern::simdName());

    qccbench::JsonReport rep("sim");
    std::vector<unsigned> sizes = {10, 14};
    if (qccbench::fullMode()) {
        sizes.push_back(16);
        sizes.push_back(18);
    }
    for (unsigned n : sizes)
        variantCircuitRow(rep, n);
    for (unsigned n : sizes)
        variantRotationRow(rep, n);
    for (unsigned n : sizes)
        variantExpectationRow(rep, n);
    variantGroupRow(rep, sizes.back());
    for (const char *molecule : {"LiH", "NaH"})
        variantDensityMatrixRow(rep, molecule);

    kern::setSimdEnabled(simdWasActive);
    qccbench::rule();
}

} // namespace

BENCHMARK(benchKernelRotation)->DenseRange(8, 20, 4);
BENCHMARK(benchGenericRotation)->DenseRange(8, 20, 4);
BENCHMARK(benchGateDecomposition)->DenseRange(8, 16, 4);
BENCHMARK(benchKernelExpectation)->DenseRange(12, 20, 4);
BENCHMARK(benchGenericExpectation)->DenseRange(12, 20, 4);
BENCHMARK(benchLiHEnergyTermwise);
BENCHMARK(benchLiHEnergyGrouped);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    variantReport();
    return 0;
}
