/**
 * @file
 * Simulator-kernel microbenchmarks. Two parts:
 *
 *  - google-benchmark timings of the individual primitives (the
 *    specialized stride-based Pauli-rotation kernel vs the generic
 *    full-scan path and vs the equivalent basis+CNOT-chain gate
 *    circuit, plus Hamiltonian expectation evaluation per term and
 *    by X mask);
 *
 *  - a variant report comparing the three execution tiers on a
 *    VQE-representative layered circuit and on the hot kernels:
 *    scalar (naive full-scan replay), kernel (per-gate stride
 *    kernels, vector path off) and simd (per-gate stride kernels +
 *    AVX2, the production path: Statevector::applyCircuit).
 *    The variant rows are what lands in BENCH_sim.json (QCC_JSON=1);
 *    `simd_vs_kernel` is the derived speedup. The rotation rows come
 *    per pivot class (x1, bit0 and the unsuffixed pivot-2 string),
 *    and the lambda and energy rows time H|psi> and <psi|H|psi> on
 *    LiH and HF per term against per X mask. The noisy_circuit rows
 *    time the noisy Fig. 10 circuits (LiH, NaH) in the
 *    Pauli-transfer frame against the per-gate density-matrix
 *    reference, with each side's sweeps and the frame's plan build.
 *    Pass --benchmark_filter=nope to skip the google-benchmark
 *    section and emit only the variant report.
 *
 * The generic kernels and the density matrix with its per-gate
 * replay are the test references of tests/sim_reference.hh.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
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
#include "sim/kernels.hh"
#include "sim/pauli_frame.hh"
#include "sim/simd.hh"
#include "sim/statevector.hh"
#include "sim_reference.hh"
#include "store/problem_store.hh"
#include "vqe/expectation_engine.hh"

using namespace qcc;
using namespace qcc_test;

namespace {

PauliString
denseString(unsigned n)
{
    PauliString p(n);
    for (unsigned q = 0; q < n; ++q)
        p.setOp(q, q % 2 ? PauliOp::X : PauliOp::Z);
    return p;
}

/**
 * The pair kernels' pivot classes, by the lowest X bit: "" is
 * denseString (pivot 2, the rows' historical shape), "x1" is X on
 * qubit 0 alone (one register per pair) and "bit0" adds X on qubit
 * 0 to denseString (each pair gathered from two registers).
 */
PauliString
pivotClassString(unsigned n, const std::string &cls)
{
    PauliString p = denseString(n);
    if (cls == "x1") {
        for (unsigned q = 1; q < n; ++q)
            p.setOp(q, PauliOp::Z);
        p.setOp(0, PauliOp::X);
    } else if (cls == "bit0") {
        p.setOp(0, PauliOp::X);
    }
    return p;
}

/** "rotation" + "_x1" + "_n14" style row names. */
std::string
rowName(const char *what, const std::string &cls, unsigned n)
{
    return std::string(what) + (cls.empty() ? "" : "_" + cls) + "_n" +
           std::to_string(n);
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
        applyPauliRotationGeneric(sv.amplitudes().data(), sv.dim(),
                                  p.xMask(), p.zMask(), 0.1);
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
benchLiHEnergyTermwise(benchmark::State &state)
{
    setLogLevel(LogLevel::Quiet);
    static MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("LiH"), 1.6);
    Statevector sv(prob.nQubits, 0b001001);
    for (auto _ : state) {
        double e = perTermEnergy(prob.hamiltonian, sv);
        benchmark::DoNotOptimize(e);
    }
    state.counters["terms"] = double(prob.hamiltonian.numTerms());
}

void
benchLiHEnergyByMask(benchmark::State &state)
{
    setLogLevel(LogLevel::Quiet);
    static MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("LiH"), 1.6);
    static ExpectationEngine engine(prob.hamiltonian);
    Statevector sv(prob.nQubits, 0b001001);
    for (auto _ : state) {
        double e = engine.energy(sv);
        benchmark::DoNotOptimize(e);
    }
    state.counters["terms"] = double(prob.hamiltonian.numTerms());
}

// ---------------------------------------------------------------------
// Variant report: scalar / kernel / simd on shared workloads.
// ---------------------------------------------------------------------

/**
 * VQE-shaped layered circuit: per layer an Euler rotation block
 * RZ-RY-RZ on every qubit, a CNOT entangling chain, and a diagonal
 * tail (S, RZ) — the gate mix chain synthesis emits: dense 1q,
 * diagonal and CNOT kernels at once.
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
            apply1qGeneric(amp, dim, g.q0, u);
        }
    }
}

void
variantCircuitRow(qccbench::JsonReport &rep, unsigned n)
{
    const Circuit c = layeredCircuit(n, 3);
    Statevector sv(n);

    kern::setSimdEnabled(false);
    const double scalarMs =
        timeMs([&] { applyCircuitNaive(sv, c); });
    const double kernelMs = timeMs([&] { sv.applyCircuit(c); });
    kern::setSimdEnabled(true);
    const double simdMs = timeMs([&] { sv.applyCircuit(c); });

    std::printf("  circuit n=%-2u (%zu gates): scalar %.3f  kernel "
                "%.3f  simd %.3f ms  [simd_vs_kernel %.2fx]\n",
                n, c.size(), scalarMs, kernelMs, simdMs,
                kernelMs / simdMs);
    rep.row("circuit_n" + std::to_string(n),
            {{"qubits", double(n)},
             {"gates", double(c.size())},
             {"scalar_ms", scalarMs},
             {"kernel_ms", kernelMs},
             {"simd_ms", simdMs},
             {"simd_vs_kernel", kernelMs / simdMs}});
}

void
variantRotationRow(qccbench::JsonReport &rep, unsigned n,
                   const std::string &cls)
{
    PauliString p = pivotClassString(n, cls);
    Statevector sv(n);
    const double scalarMs = timeMs([&] {
        applyPauliRotationGeneric(sv.amplitudes().data(), sv.dim(),
                                  p.xMask(), p.zMask(), 0.1);
    });
    kern::setSimdEnabled(false);
    const double kernelMs =
        timeMs([&] { sv.applyPauliRotation(0.1, p); });
    kern::setSimdEnabled(true);
    const double simdMs =
        timeMs([&] { sv.applyPauliRotation(0.1, p); });
    std::printf("  %s: scalar %.3f  kernel %.3f  simd %.3f ms  "
                "[simd_vs_kernel %.2fx]\n",
                rowName("rotation", cls, n).c_str(), scalarMs,
                kernelMs, simdMs, kernelMs / simdMs);
    rep.row(rowName("rotation", cls, n),
            {{"qubits", double(n)},
             {"scalar_ms", scalarMs},
             {"kernel_ms", kernelMs},
             {"simd_ms", simdMs},
             {"simd_vs_kernel", kernelMs / simdMs}});
}

/**
 * lambda = H|psi> as the adjoint gradient computes it and <psi|H|psi>
 * as ExpectationEngine does (real coefficients, on the HF state): one
 * sweep per term through the test references against one sweep per
 * X mask through kern::XMaskGroups.
 */
void
variantHamiltonianRows(qccbench::JsonReport &rep, const char *molecule)
{
    const MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule(molecule), 1.6);
    const PauliSum &h = prob.hamiltonian;
    Statevector psi(prob.nQubits,
                    hartreeFockMask(prob.nSpatial, prob.nElectrons));
    kern::XMaskGroups groups;
    for (const PauliTerm &t : h.terms())
        groups.add(t.string.xMask(), t.string.zMask(), t.coeff.real());
    auto row = [&](const char *what, double perTermMs, double byMaskMs) {
        std::printf("  %s %s (n=%u, %zu terms, %zu masks): per-term "
                    "%.4f  by-mask %.4f ms  [%.2fx]\n",
                    what, molecule, prob.nQubits, h.numTerms(),
                    groups.masks(), perTermMs, byMaskMs,
                    perTermMs / byMaskMs);
        rep.row(std::string(what) + "_" + molecule,
                {{"qubits", double(prob.nQubits)},
                 {"terms", double(h.numTerms())},
                 {"masks", double(groups.masks())},
                 {"per_term_ms", perTermMs},
                 {"by_mask_ms", byMaskMs},
                 {"by_mask_vs_per_term", perTermMs / byMaskMs}});
    };

    std::vector<cplx> out(psi.dim());
    row("lambda", timeMs([&] {
            std::fill(out.begin(), out.end(), cplx(0.0));
            for (const PauliTerm &t : h.terms())
                accumulatePauli(psi, t.coeff.real(), t.string, out);
        }),
        timeMs([&] {
            std::fill(out.begin(), out.end(), cplx(0.0));
            groups.apply(psi.amplitudes().data(), psi.dim(), out.data());
        }));

    const ExpectationEngine engine(h);
    row("energy", timeMs([&] {
            double e = perTermEnergy(h, psi);
            benchmark::DoNotOptimize(e);
        }),
        timeMs([&] {
            double e = engine.energy(psi);
            benchmark::DoNotOptimize(e);
        }));
}

/**
 * The noisy VQE circuit of the paper's Fig. 10 study: a molecule's
 * UCCSD ansatz compressed to 0.3, chain-synthesized with its HF
 * preparation, under the paper's 1e-4 CNOT depolarizing model. Times
 * one state preparation on the per-gate density-matrix reference and
 * in the Pauli-transfer frame, counts the sweeps each makes over its
 * state (4^n complex entries, 4^n reals), and times the frame's plan
 * build on its own (the compile is a cache hit by then).
 */
void
variantNoisyCircuitRow(qccbench::JsonReport &rep,
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
    std::vector<double> theta(ansatz.rotations.size());
    for (size_t j = 0; j < theta.size(); ++j)
        theta[j] = params[ansatz.rotations[j].param] *
                   ansatz.rotations[j].coeff;
    const Circuit c = cachedChainCircuit(ansatz, params, true);
    const NoiseModel noise = NoiseModel::paperDefault();
    const unsigned n = prob.nQubits;

    size_t referenceSweeps = 0;
    const double referenceMs = timeMs([&] {
        DensityMatrix rho(n);
        referenceSweeps = applyPerGate(rho, c, noise);
    });
    std::shared_ptr<const FramePlan> plan;
    const double planMs =
        timeMs([&] { plan = FramePlan::build(ansatz, noise); });
    PauliFrame frame(n);
    const double frameMs = timeMs([&] { plan->prepare(frame, theta); });

    std::printf("  noisy circuit %s n=%-2u (%zu gates; %zu -> %zu "
                "sweeps): reference %.3f  frame %.4f ms, plan %.3f "
                "ms  [reference_vs_frame %.1fx]\n",
                molecule.c_str(), n, c.size(), referenceSweeps,
                plan->sweeps(), referenceMs, frameMs, planMs,
                referenceMs / frameMs);
    rep.row("noisy_circuit_n" + std::to_string(n),
            {{"qubits", double(n)},
             {"gates", double(c.size())},
             {"reference_sweeps", double(referenceSweeps)},
             {"frame_sweeps", double(plan->sweeps())},
             {"reference_ms", referenceMs},
             {"frame_ms", frameMs},
             {"plan_ms", planMs},
             {"reference_vs_frame", referenceMs / frameMs}});
}

void
variantReport()
{
    const bool simdWasActive = kern::simdActive();
    qccbench::banner("sim kernel variants (scalar / kernel / simd)");
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
    for (const std::string cls : {"", "x1", "bit0"})
        for (unsigned n : sizes)
            variantRotationRow(rep, n, cls);
    for (const char *molecule : {"LiH", "HF"})
        variantHamiltonianRows(rep, molecule);
    for (const char *molecule : {"LiH", "NaH"})
        variantNoisyCircuitRow(rep, molecule);

    kern::setSimdEnabled(simdWasActive);
    qccbench::rule();
}

} // namespace

BENCHMARK(benchKernelRotation)->DenseRange(8, 20, 4);
BENCHMARK(benchGenericRotation)->DenseRange(8, 20, 4);
BENCHMARK(benchGateDecomposition)->DenseRange(8, 16, 4);
BENCHMARK(benchLiHEnergyTermwise);
BENCHMARK(benchLiHEnergyByMask);

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
