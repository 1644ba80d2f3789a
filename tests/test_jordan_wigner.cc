/**
 * @file
 * Unit tests for second quantization and the Jordan-Wigner transform:
 * canonical anticommutation relations, number operators, Hermiticity,
 * and the known H2 qubit Hamiltonian structure.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "chem/molecules.hh"
#include "ferm/fermion_op.hh"
#include "ferm/hamiltonian.hh"
#include "ferm/jordan_wigner.hh"
#include "sim/lanczos.hh"
#include "sim/statevector.hh"
#include "sim_reference.hh"

using namespace qcc;

TEST(JordanWigner, LadderShape)
{
    PauliSum a2 = jwLadder(2, 4, false);
    ASSERT_EQ(a2.numTerms(), 2u);
    // Z chain on qubits 0,1; X or Y on qubit 2.
    for (const auto &t : a2.terms()) {
        EXPECT_EQ(t.string.op(0), PauliOp::Z);
        EXPECT_EQ(t.string.op(1), PauliOp::Z);
        EXPECT_EQ(t.string.op(3), PauliOp::I);
        EXPECT_TRUE(t.string.op(2) == PauliOp::X ||
                    t.string.op(2) == PauliOp::Y);
    }
}

TEST(JordanWigner, AnnihilatesVacuumAndLowersOccupied)
{
    // a_1 |q1=1, q0=0> = |00> (up to JW sign), a_1 |00> = 0.
    PauliSum a1 = jwLadder(1, 2, false);
    {
        Statevector sv(2, 0b10);
        std::vector<cplx> out(4, 0.0);
        for (const auto &t : a1.terms())
            qcc_test::accumulatePauli(sv, t.coeff, t.string, out);
        EXPECT_NEAR(std::abs(out[0b00]), 1.0, 1e-12);
        EXPECT_NEAR(std::abs(out[0b10]), 0.0, 1e-12);
    }
    {
        Statevector sv(2, 0b00);
        std::vector<cplx> out(4, 0.0);
        for (const auto &t : a1.terms())
            qcc_test::accumulatePauli(sv, t.coeff, t.string, out);
        for (const auto &amp : out)
            EXPECT_NEAR(std::abs(amp), 0.0, 1e-12);
    }
}

TEST(JordanWigner, CanonicalAnticommutation)
{
    // {a_p, a+_q} = delta_pq, {a_p, a_q} = 0, over 3 modes.
    const unsigned n = 3;
    for (unsigned p = 0; p < n; ++p) {
        for (unsigned q = 0; q < n; ++q) {
            PauliSum ap = jwLadder(p, n, false);
            PauliSum aqd = jwLadder(q, n, true);
            PauliSum anti = ap.product(aqd);
            anti.add(aqd.product(ap));
            anti.simplify();
            if (p == q) {
                ASSERT_EQ(anti.numTerms(), 1u);
                EXPECT_TRUE(anti.terms()[0].string.isIdentity());
                EXPECT_NEAR(std::abs(anti.terms()[0].coeff - 1.0),
                            0.0, 1e-12);
            } else {
                EXPECT_EQ(anti.numTerms(), 0u) << p << "," << q;
            }

            PauliSum aq = jwLadder(q, n, false);
            PauliSum anti2 = ap.product(aq);
            anti2.add(aq.product(ap));
            anti2.simplify();
            EXPECT_EQ(anti2.numTerms(), 0u);
        }
    }
}

TEST(JordanWigner, NumberOperator)
{
    // a+_p a_p = (I - Z_p)/2.
    PauliSum num = jwLadder(1, 3, true).product(jwLadder(1, 3, false));
    num.simplify();
    ASSERT_EQ(num.numTerms(), 2u);
    for (const auto &t : num.terms()) {
        if (t.string.isIdentity()) {
            EXPECT_NEAR(std::abs(t.coeff - 0.5), 0.0, 1e-12);
        } else {
            EXPECT_EQ(t.string.op(1), PauliOp::Z);
            EXPECT_NEAR(std::abs(t.coeff + 0.5), 0.0, 1e-12);
        }
    }
}

TEST(JordanWigner, FermionOpAdjointRoundTrip)
{
    FermionOp t(4);
    t.add({0.5, 0.25}, {{2, true}, {0, false}});
    FermionOp tdd = t.adjoint().adjoint();
    ASSERT_EQ(tdd.terms().size(), 1u);
    EXPECT_NEAR(std::abs(tdd.terms()[0].coeff -
                         std::complex<double>(0.5, 0.25)),
                0.0, 1e-14);
    EXPECT_EQ(tdd.terms()[0].ops[0].mode, 2u);
    EXPECT_TRUE(tdd.terms()[0].ops[0].creation);
}

TEST(Hamiltonian, HfMaskBlockSpin)
{
    // 3 spatial orbitals, 4 electrons: alpha {0,1}, beta {3,4}.
    EXPECT_EQ(hartreeFockMask(3, 4), 0b011011u);
    EXPECT_EQ(hartreeFockMask(2, 2), 0b0101u);
}

TEST(Hamiltonian, H2QubitHamiltonianStructure)
{
    MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    // The canonical JW H2 Hamiltonian has 15 terms on 4 qubits.
    EXPECT_EQ(prob.nQubits, 4u);
    EXPECT_EQ(prob.hamiltonian.numTerms(), 15u);
    EXPECT_LT(prob.hamiltonian.maxImagCoeff(), 1e-10);
}

TEST(Hamiltonian, HfExpectationMatchesScf)
{
    // <HF| H_qubit |HF> must equal the RHF total energy.
    for (const char *name : {"H2", "LiH", "HF"}) {
        const auto &entry = benchmarkMolecule(name);
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Statevector hf(prob.nQubits,
                       hartreeFockMask(prob.nSpatial,
                                       prob.nElectrons));
        double e = hf.expectation(prob.hamiltonian);
        // Frozen-core/removed-virtual spaces shift the HF reference
        // by construction only when orbitals are dropped; for H2/HF
        // nothing is removed, LiH removes two virtuals (HF value
        // unchanged: virtuals don't enter the HF energy).
        EXPECT_NEAR(e, prob.hartreeFockEnergy, 1e-6) << name;
    }
}

TEST(Hamiltonian, H2GroundStateMatchesFci)
{
    // STO-3G H2 FCI at 0.74 A: about -1.137 Ha.
    MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    double e = lanczosGroundEnergy(prob.hamiltonian);
    EXPECT_NEAR(e, -1.137, 0.004);
}
