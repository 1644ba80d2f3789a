/**
 * @file
 * Fuzz-style property test for the compiler pipeline: random Pauli
 * programs (random strings, widths, parameter bindings, HF masks)
 * are pushed through every flow — chain synthesis, hierarchical
 * layout + Merge-to-Root, and chain + SABRE — and each compile must
 * (a) pass the pipeline's own verify pass and (b) be exhaustively
 * unitary-equivalent to its logical reference on <= 6 qubits, where
 * equivalence can be checked over every basis state.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "ansatz/uccsd.hh"
#include "arch/xtree.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "compiler/chain_synthesis.hh"
#include "compiler/pipeline.hh"
#include "compiler/verify.hh"
#include "evolve/trotter.hh"
#include "sim/simd.hh"
#include "sim/statevector.hh"

using namespace qcc;

namespace {

/** Random ansatz program: widths 2..6, up to 8 random strings. */
Ansatz
randomProgram(Rng &rng)
{
    Ansatz a;
    a.nQubits = 2 + unsigned(rng.index(5)); // 2..6
    const uint64_t full = (uint64_t{1} << a.nQubits) - 1;
    const size_t nRot = 1 + rng.index(8);
    a.nParams = unsigned(nRot);
    a.hfMask = rng.index(full + 1);
    for (size_t j = 0; j < nRot; ++j) {
        // Random (x, z) masks cover all operators, identity rows
        // included (they synthesize to empty subcircuits).
        PauliString p(a.nQubits, rng.index(full + 1),
                      rng.index(full + 1));
        a.rotations.push_back(
            {unsigned(j), rng.uniform(0.2, 1.5), p});
    }
    return a;
}

/**
 * Random weight-1 Z rotations on qubits 0 and 1 with no HF prep:
 * each compiles to a bare RZ, so the circuit holds runs of adjacent
 * diagonals on one qubit.
 */
Ansatz
diagonalRunProgram(Rng &rng)
{
    Ansatz a;
    a.nQubits = 2 + unsigned(rng.index(5)); // 2..6
    const size_t nRot = 4 + rng.index(5);
    a.nParams = unsigned(nRot);
    a.hfMask = 0;
    for (size_t j = 0; j < nRot; ++j)
        a.rotations.push_back({unsigned(j), rng.uniform(0.2, 1.5),
                               PauliString(a.nQubits, 0,
                                           uint64_t{1} << rng.index(2))});
    return a;
}

std::vector<double>
randomParams(const Ansatz &a, Rng &rng)
{
    std::vector<double> p(a.nParams);
    for (double &v : p)
        v = rng.uniform(-0.8, 0.8);
    return p;
}

/** Compile under `opts` and check exhaustive unitary equivalence. */
void
checkFlow(const Ansatz &a, const std::vector<double> &params,
          const CompilerPipeline &pipe, const char *what,
          uint64_t trial)
{
    CompileResult res;
    ASSERT_NO_THROW(res = pipe.compile(a, params))
        << what << " trial " << trial;

    const Circuit logical = synthesizeChainCircuit(a, params, true);
    const unsigned nl = logical.numQubits();
    const bool routed =
        pipe.options().flow != PipelineOptions::Flow::ChainOnly;
    Layout initial =
        routed ? res.initialLayout : Layout::identity(nl, nl);
    Layout final_layout =
        routed ? res.finalLayout : Layout::identity(nl, nl);
    // trials = 0 on <= 6 qubits: every basis state is checked.
    EXPECT_TRUE(checkCompiledEquivalence(res.circuit, logical,
                                         initial, final_layout, 0))
        << what << " trial " << trial << " (" << a.nQubits
        << " qubits, " << a.rotations.size() << " rotations)";
}

} // namespace

TEST(PipelineFuzz, RandomProgramsCompileAndStayEquivalent)
{
    setLogLevel(LogLevel::Quiet);
    XTree tree = makeXTree(7);

    PipelineOptions chainOpts;
    chainOpts.flow = PipelineOptions::Flow::ChainOnly;
    chainOpts.verifyTrials = 2;
    chainOpts.useCache = false;
    CompilerPipeline chain(chainOpts);

    PipelineOptions mtrOpts;
    mtrOpts.verifyTrials = 2;
    mtrOpts.useCache = false;
    CompilerPipeline mtr(tree, mtrOpts);

    PipelineOptions sabreOpts;
    sabreOpts.flow = PipelineOptions::Flow::Sabre;
    sabreOpts.verifyTrials = 2;
    sabreOpts.useCache = false;
    CompilerPipeline sabre(tree, sabreOpts);

    const int trials = 12;
    for (uint64_t t = 0; t < trials; ++t) {
        Rng rng(deriveStream(0xF022 + t, 0));
        Ansatz a = randomProgram(rng);
        auto params = randomParams(a, rng);
        checkFlow(a, params, chain, "chain", t);
        checkFlow(a, params, mtr, "merge-to-root", t);
        checkFlow(a, params, sabre, "sabre", t);
    }
}

TEST(PipelineFuzz, CompiledCircuitsExecuteIdenticallyScalarAndSimd)
{
    // The scalar and SIMD gate kernels must agree on real compiler
    // output — routed circuits full of CNOT/SWAP runs and basis
    // sandwiches, not just synthetic gate streams.
    setLogLevel(LogLevel::Quiet);
    XTree tree = makeXTree(7);
    PipelineOptions opts;
    opts.verifyTrials = 0;
    opts.useCache = false;
    CompilerPipeline mtr(tree, opts);

    const bool simdWas = kern::simdActive();
    // Six random programs, then two runs of back-to-back diagonals.
    for (uint64_t t = 0; t < 8; ++t) {
        Rng rng(deriveStream(0x51D0 + t, 2));
        Ansatz a = t < 6 ? randomProgram(rng) : diagonalRunProgram(rng);
        auto params = randomParams(a, rng);
        CompileResult res = mtr.compile(a, params);
        const unsigned n = res.circuit.numQubits();

        // Random dense initial state shared by both paths.
        Statevector ref(n);
        {
            double norm2 = 0.0;
            for (auto &v : ref.amplitudes()) {
                v = cplx(rng.gaussian(), rng.gaussian());
                norm2 += std::norm(v);
            }
            for (auto &v : ref.amplitudes())
                v /= std::sqrt(norm2);
        }
        Statevector simd(n);
        simd.amplitudes() = ref.amplitudes();

        kern::setSimdEnabled(false);
        ref.applyCircuit(res.circuit);
        kern::setSimdEnabled(true);
        simd.applyCircuit(res.circuit);

        for (size_t i = 0; i < ref.dim(); ++i)
            ASSERT_NEAR(std::abs(simd.amplitudes()[i] -
                                 ref.amplitudes()[i]),
                        0.0, 1e-12)
                << "simd trial " << t << " index " << i;
    }
    kern::setSimdEnabled(simdWas);
}

TEST(PipelineFuzz, TrotterProgramsCompileAndExecuteIdentically)
{
    // Trotter circuits are a different gate population from random
    // UCCSD-style programs — long family-ordered rotation streams,
    // one shared dt parameter — so push them through the same three
    // flows and both gate paths.
    setLogLevel(LogLevel::Quiet);
    XTree tree = makeXTree(7);

    PipelineOptions chainOpts;
    chainOpts.flow = PipelineOptions::Flow::ChainOnly;
    chainOpts.verifyTrials = 2;
    chainOpts.useCache = false;
    CompilerPipeline chain(chainOpts);

    PipelineOptions mtrOpts;
    mtrOpts.verifyTrials = 2;
    mtrOpts.useCache = false;
    CompilerPipeline mtr(tree, mtrOpts);

    PipelineOptions sabreOpts;
    sabreOpts.flow = PipelineOptions::Flow::Sabre;
    sabreOpts.verifyTrials = 2;
    sabreOpts.useCache = false;
    CompilerPipeline sabre(tree, sabreOpts);

    const bool simdWas = kern::simdActive();
    for (uint64_t t = 0; t < 6; ++t) {
        Rng rng(deriveStream(0x7407 + t, 3));
        // Random Hermitian PauliSum -> Trotter program.
        const unsigned n = 2 + unsigned(rng.index(4)); // 2..5
        const uint64_t full = (uint64_t{1} << n) - 1;
        PauliSum h(n);
        const size_t nTerms = 2 + rng.index(5);
        for (size_t j = 0; j < nTerms; ++j)
            h.add(rng.uniform(-0.9, 0.9),
                  PauliString(n, rng.index(full + 1),
                              rng.index(full + 1)));
        const int steps = 1 + int(rng.index(3));
        const int order = 1 + int(rng.index(2));
        const TrotterBuild tb = buildTrotterAnsatz(
            h, rng.index(full + 1), steps, order);
        if (tb.ansatz.rotations.empty())
            continue; // all-identity draw: nothing to compile
        const std::vector<double> params = {rng.uniform(0.05, 0.4)};

        checkFlow(tb.ansatz, params, chain, "trotter-chain", t);
        checkFlow(tb.ansatz, params, mtr, "trotter-mtr", t);
        checkFlow(tb.ansatz, params, sabre, "trotter-sabre", t);

        // Scalar and SIMD agreement on the routed circuit.
        CompileResult res = mtr.compile(tb.ansatz, params);
        const unsigned nc = res.circuit.numQubits();
        Statevector ref(nc);
        {
            double norm2 = 0.0;
            for (auto &v : ref.amplitudes()) {
                v = cplx(rng.gaussian(), rng.gaussian());
                norm2 += std::norm(v);
            }
            for (auto &v : ref.amplitudes())
                v /= std::sqrt(norm2);
        }
        Statevector simd(nc);
        simd.amplitudes() = ref.amplitudes();
        kern::setSimdEnabled(false);
        ref.applyCircuit(res.circuit);
        kern::setSimdEnabled(true);
        simd.applyCircuit(res.circuit);
        for (size_t i = 0; i < ref.dim(); ++i)
            ASSERT_NEAR(std::abs(simd.amplitudes()[i] -
                                 ref.amplitudes()[i]),
                        0.0, 1e-12)
                << "trotter simd trial " << t << " index " << i;
    }
    kern::setSimdEnabled(simdWas);
}

TEST(PipelineFuzz, CachedRecompileOfRandomProgramsIsExact)
{
    setLogLevel(LogLevel::Quiet);
    XTree tree = makeXTree(7);
    CompilerPipeline cached(tree, PipelineOptions{});

    for (uint64_t t = 0; t < 6; ++t) {
        Rng rng(deriveStream(0xCA0 + t, 1));
        Ansatz a = randomProgram(rng);
        auto p1 = randomParams(a, rng);
        auto p2 = randomParams(a, rng);
        CompileResult first = cached.compile(a, p1);
        CompileResult rebound = cached.compile(a, p2);

        // The rebound compile must equal a from-scratch one.
        PipelineOptions fresh;
        fresh.useCache = false;
        CompilerPipeline uncached(tree, fresh);
        CompileResult want = uncached.compile(a, p2);
        ASSERT_EQ(rebound.circuit.size(), want.circuit.size());
        for (size_t g = 0; g < want.circuit.size(); ++g) {
            const Gate &x = rebound.circuit.gates()[g];
            const Gate &y = want.circuit.gates()[g];
            EXPECT_TRUE(x.kind == y.kind && x.q0 == y.q0 &&
                        x.q1 == y.q1 && x.angle == y.angle)
                << "gate " << g << " trial " << t;
        }
        const Circuit logical =
            synthesizeChainCircuit(a, p2, true);
        EXPECT_TRUE(checkCompiledEquivalence(
            rebound.circuit, logical, rebound.initialLayout,
            rebound.finalLayout, 0))
            << "trial " << t;
    }
}
