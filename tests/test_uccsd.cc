/**
 * @file
 * Unit tests for the UCCSD generator, headlined by the exact
 * reproduction of Table I: parameter counts, Pauli string counts,
 * and gate/CNOT counts of the chain-synthesized circuits for all
 * nine benchmark molecules.
 */

#include <gtest/gtest.h>

#include "ansatz/uccsd.hh"
#include "chem/molecules.hh"
#include "compiler/chain_synthesis.hh"
#include "sim/statevector.hh"

using namespace qcc;

namespace {

/** (qubits, electrons) pairs for the Table I benchmarks. */
struct TableRow
{
    const char *name;
    unsigned qubits, electrons;
    unsigned nPauli, nParam, nGates, nCnots;
};

const std::vector<TableRow> tableI = {
    {"H2", 4, 2, 12, 3, 150, 56},
    {"LiH", 6, 2, 40, 8, 610, 280},
    {"NaH", 8, 2, 84, 15, 1476, 768},
    {"HF", 10, 8, 144, 24, 2856, 1616},
    {"BeH2", 12, 4, 640, 92, 13704, 8064},
    {"H2O", 12, 8, 640, 92, 13704, 8064},
    {"BH3", 14, 6, 1488, 204, 34280, 21072},
    {"NH3", 14, 8, 1488, 204, 34280, 21072},
    {"CH4", 16, 8, 2688, 360, 66312, 42368},
};

} // namespace

class UccsdTableI : public ::testing::TestWithParam<TableRow>
{
};

TEST_P(UccsdTableI, ReproducesPaperCosts)
{
    const TableRow &row = GetParam();
    Ansatz a = buildUccsd(row.qubits / 2, row.electrons);
    EXPECT_EQ(a.nQubits, row.qubits) << row.name;
    EXPECT_EQ(a.nParams, row.nParam) << row.name;
    EXPECT_EQ(a.numStrings(), row.nPauli) << row.name;

    std::vector<double> zeros(a.nParams, 0.0);
    Circuit c = synthesizeChainCircuit(a, zeros, true);
    // CNOT counts (the paper's cost metric) must match exactly;
    // total gate counts agree to within 0.1% (the original Qiskit
    // Aqua toolchain differs by 2-4 single-qubit gates on three of
    // the nine molecules; see EXPERIMENTS.md).
    EXPECT_EQ(c.cnotCount(), row.nCnots) << row.name;
    EXPECT_EQ(chainCnotCount(a), row.nCnots) << row.name;
    EXPECT_NEAR(double(c.totalGates()), double(row.nGates),
                std::max(2.0, 0.001 * row.nGates))
        << row.name;
}

INSTANTIATE_TEST_SUITE_P(
    TableI, UccsdTableI, ::testing::ValuesIn(tableI),
    [](const ::testing::TestParamInfo<TableRow> &info) {
        return std::string(info.param.name);
    });

TEST(Uccsd, SinglesHaveTwoStringsDoublesEight)
{
    Ansatz a = buildUccsd(3, 2); // LiH-sized
    std::vector<unsigned> perParam(a.nParams, 0);
    for (const auto &r : a.rotations)
        ++perParam[r.param];
    for (unsigned k = 0; k < a.nParams; ++k) {
        if (a.excitations[k].kind == Excitation::Kind::Single) {
            EXPECT_EQ(perParam[k], 2u);
        } else {
            EXPECT_EQ(perParam[k], 8u);
        }
    }
}

TEST(Uccsd, StringCoefficientsAreHalfOrEighth)
{
    Ansatz a = buildUccsd(2, 2);
    for (const auto &r : a.rotations) {
        double c = std::abs(r.coeff);
        if (a.excitations[r.param].kind == Excitation::Kind::Single) {
            EXPECT_NEAR(c, 0.5, 1e-12);
        } else {
            EXPECT_NEAR(c, 0.125, 1e-12);
        }
    }
}

TEST(Uccsd, StringsOfOneParameterCommute)
{
    // The Pauli terms of a single excitation generator commute, so
    // applying them sequentially is exact (no Trotter error within
    // one parameter).
    Ansatz a = buildUccsd(3, 2);
    for (unsigned k = 0; k < a.nParams; ++k) {
        std::vector<const PauliRotation *> rs;
        for (const auto &r : a.rotations)
            if (r.param == k)
                rs.push_back(&r);
        for (size_t i = 0; i < rs.size(); ++i)
            for (size_t j = i + 1; j < rs.size(); ++j)
                EXPECT_TRUE(rs[i]->string.commutesWith(rs[j]->string));
    }
}

TEST(Uccsd, ZeroParametersGiveHartreeFockState)
{
    Ansatz a = buildUccsd(2, 2);
    std::vector<double> zeros(a.nParams, 0.0);
    Statevector sv(a.nQubits, a.hfMask);
    for (const auto &r : a.rotations)
        sv.applyPauliRotation(0.0 * r.coeff, r.string);
    EXPECT_NEAR(std::abs(sv.amplitudes()[a.hfMask]), 1.0, 1e-12);
}

TEST(Uccsd, PreservesParticleNumber)
{
    // The UCCSD state must stay in the N-electron sector: total
    // number operator expectation unchanged for random parameters.
    Ansatz a = buildUccsd(3, 2);
    std::vector<double> params(a.nParams);
    for (size_t i = 0; i < params.size(); ++i)
        params[i] = 0.1 * double(i + 1) / params.size();

    Statevector sv(a.nQubits, a.hfMask);
    for (const auto &r : a.rotations)
        sv.applyPauliRotation(params[r.param] * r.coeff, r.string);

    // N = sum_p (I - Z_p)/2.
    PauliSum number(a.nQubits);
    for (unsigned q = 0; q < a.nQubits; ++q) {
        number.add(0.5, PauliString(a.nQubits));
        number.add(-0.5, PauliString::single(a.nQubits, q, PauliOp::Z));
    }
    EXPECT_NEAR(sv.expectation(number), 2.0, 1e-9);
}

TEST(Uccsd, SinglesStringsAreXZChainY)
{
    // A single excitation i->a yields two strings with X/Y endpoints
    // and a Z chain strictly between.
    Ansatz a = buildUccsd(3, 2); // spatial 0 occ; 1,2 virt
    const auto &r0 = a.rotations[0];
    ASSERT_EQ(a.excitations[r0.param].kind, Excitation::Kind::Single);
    unsigned i = a.excitations[r0.param].so[0];
    unsigned v = a.excitations[r0.param].so[1];
    EXPECT_TRUE(r0.string.op(i) == PauliOp::X ||
                r0.string.op(i) == PauliOp::Y);
    EXPECT_TRUE(r0.string.op(v) == PauliOp::X ||
                r0.string.op(v) == PauliOp::Y);
    for (unsigned q = i + 1; q < v; ++q)
        EXPECT_EQ(r0.string.op(q), PauliOp::Z);
}
