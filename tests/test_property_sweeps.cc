/**
 * @file
 * Property-based sweeps over randomized inputs: Pauli-algebra laws,
 * Merge-to-Root and SABRE validity/equivalence on random Pauli
 * programs across tree shapes, and simulator-channel invariants.
 * Parameterized over RNG seeds so each instantiation exercises a
 * different random instance.
 */

#include <gtest/gtest.h>

#include "ansatz/uccsd.hh"
#include "arch/grid.hh"
#include "common/rng.hh"
#include "compiler/chain_synthesis.hh"
#include "compiler/merge_to_root.hh"
#include "compiler/peephole.hh"
#include "compiler/sabre.hh"
#include "compiler/verify.hh"
#include "sim/backend.hh"
#include "sim/statevector.hh"

using namespace qcc;

namespace {

PauliString
randomString(Rng &rng, unsigned n, unsigned min_weight = 0)
{
    while (true) {
        PauliString p(n);
        for (unsigned q = 0; q < n; ++q) {
            switch (rng.index(4)) {
              case 1: p.setOp(q, PauliOp::X); break;
              case 2: p.setOp(q, PauliOp::Y); break;
              case 3: p.setOp(q, PauliOp::Z); break;
              default: break;
            }
        }
        if (p.weight() >= min_weight)
            return p;
    }
}

Ansatz
randomProgram(Rng &rng, unsigned n, unsigned n_strings)
{
    Ansatz a;
    a.nQubits = n;
    a.nParams = n_strings;
    for (unsigned k = 0; k < n_strings; ++k) {
        a.rotations.push_back({k, 1.0, randomString(rng, n, 1)});
        a.excitations.push_back(
            {Excitation::Kind::Single, {0, 0, 0, 0}});
    }
    return a;
}

} // namespace

class SeededProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SeededProperty, PauliProductPreservesUnitarity)
{
    Rng rng(GetParam());
    const unsigned n = 5;
    PauliString a = randomString(rng, n);
    PauliString b = randomString(rng, n);
    auto [phase, ab] = a.product(b);
    // |phase| = 1 and (AB)(BA) phase product = +1 on equal strings.
    EXPECT_NEAR(std::abs(phase), 1.0, 1e-14);
    auto [phase2, abba] = ab.product(ab);
    EXPECT_TRUE(abba.isIdentity());
    EXPECT_NEAR(std::abs(phase2 - 1.0), 0.0, 1e-14); // P^2 = I
}

TEST_P(SeededProperty, RotationCircuitMatchesKernel)
{
    Rng rng(GetParam());
    const unsigned n = 4;
    PauliString p = randomString(rng, n, 1);
    double theta = rng.uniform(-1.5, 1.5);

    Statevector direct(n);
    for (auto &amp : direct.amplitudes())
        amp = cplx(rng.gaussian(), rng.gaussian());
    direct.normalize();
    Statevector viaGates = direct;

    direct.applyPauliRotation(theta, p);
    viaGates.applyCircuit(pauliRotationChain(p, theta, n));
    for (size_t i = 0; i < direct.dim(); ++i)
        EXPECT_NEAR(std::abs(direct.amplitudes()[i] -
                             viaGates.amplitudes()[i]),
                    0.0, 1e-11);
}

TEST_P(SeededProperty, MtrValidAndEquivalentOnRandomPrograms)
{
    Rng rng(GetParam());
    const unsigned n = 5;
    Ansatz a = randomProgram(rng, n, 6);
    std::vector<double> params(a.nParams);
    for (auto &x : params)
        x = rng.uniform(-0.4, 0.4);

    for (unsigned treeSize : {5u, 8u}) {
        XTree tree = makeXTree(treeSize);
        MtrResult res =
            mergeToRootCompile(a, params, tree, false);
        EXPECT_TRUE(respectsCoupling(res.circuit, tree.graph));
        Circuit logical = synthesizeChainCircuit(a, params, false);
        EXPECT_TRUE(checkCompiledEquivalence(res.circuit, logical,
                                             res.initialLayout,
                                             res.finalLayout, 2));
    }
}

TEST_P(SeededProperty, SabreValidAndEquivalentOnRandomPrograms)
{
    Rng rng(GetParam() + 1000);
    const unsigned n = 5;
    Ansatz a = randomProgram(rng, n, 4);
    std::vector<double> params(a.nParams, 0.2);
    Circuit logical = synthesizeChainCircuit(a, params, false);

    XTree tree = makeXTree(8);
    SabreResult res = sabreCompile(logical, tree.graph,
                                   Layout::identity(n, 8));
    EXPECT_TRUE(respectsCoupling(res.circuit, tree.graph));
    EXPECT_TRUE(checkCompiledEquivalence(res.circuit, logical,
                                         res.initialLayout,
                                         res.finalLayout, 2));
}

TEST_P(SeededProperty, PeepholePreservesRandomCircuits)
{
    Rng rng(GetParam() + 2000);
    const unsigned n = 4;
    Circuit c(n);
    for (int i = 0; i < 60; ++i) {
        switch (rng.index(6)) {
          case 0: c.h(unsigned(rng.index(n))); break;
          case 1: c.x(unsigned(rng.index(n))); break;
          case 2: c.rz(unsigned(rng.index(n)),
                       rng.uniform(-1, 1)); break;
          case 3: c.rx(unsigned(rng.index(n)),
                       rng.uniform(-1, 1)); break;
          case 4: c.s(unsigned(rng.index(n))); break;
          default: {
              unsigned q0 = unsigned(rng.index(n));
              unsigned q1 = (q0 + 1 + unsigned(rng.index(n - 1))) % n;
              c.cnot(q0, q1);
              break;
          }
        }
    }
    Circuit opt = cancelGates(c);
    EXPECT_LE(opt.totalGates(), c.totalGates());

    Statevector sa(n), sb(n);
    for (auto &amp : sa.amplitudes())
        amp = cplx(rng.gaussian(), rng.gaussian());
    sa.normalize();
    sb.amplitudes() = sa.amplitudes();
    sa.applyCircuit(c);
    sb.applyCircuit(opt);
    for (size_t i = 0; i < sa.dim(); ++i)
        EXPECT_NEAR(std::abs(sa.amplitudes()[i] -
                             sb.amplitudes()[i]),
                    0.0, 1e-10);
}

TEST_P(SeededProperty, DepolarizingChannelsContractPurity)
{
    // In the Pauli-transfer frame rotations are orthogonal and every
    // damping factor lies in [0, 1], so raising the error rates can
    // only lower Tr(rho^2); no channel touches the trace.
    Rng rng(GetParam() + 3000);
    const unsigned n = 3;
    Ansatz a;
    a.nQubits = n;
    a.hfMask = rng.index(1u << n);
    std::vector<double> params;
    for (unsigned j = 0; j < 5; ++j) {
        a.rotations.push_back(
            {a.nParams++, 1.0,
             PauliString(n, rng.index(1u << n), rng.index(1u << n))});
        params.push_back(rng.uniform(-1.5, 1.5));
    }
    double purity = 1.0;
    for (double p : {0.0, 0.02, 0.05, 0.12}) {
        NoiseModel nm;
        nm.cnotDepolarizing = p;
        nm.singleQubitDepolarizing = p / 4;
        PauliFrameBackend b(n, nm);
        b.applyAnsatz(a, params);
        const double next = b.state().purity();
        EXPECT_LE(next, purity + 1e-12) << "p " << p;
        EXPECT_EQ(b.state().trace(), 1.0);
        purity = next;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));
