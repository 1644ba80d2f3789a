/**
 * @file
 * Unit tests for the McMurchie-Davidson integral engine: Hermite
 * coefficients, known closed-form Gaussian integrals, matrix
 * symmetries, ERI permutational symmetry, and bit identity with the
 * seed's per-call loop in chem_reference.hh.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>

#include "chem/integrals.hh"
#include "chem/molecules.hh"
#include "chem_reference.hh"

using namespace qcc;

namespace {

std::vector<double>
flat(const Matrix &m)
{
    std::vector<double> out;
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            out.push_back(m(r, c));
    return out;
}

/** memcmp equality, naming the first differing element in %a. */
::testing::AssertionResult
sameBits(const char *what, const std::vector<double> &got,
         const std::vector<double> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << what << ": " << got.size() << " values vs "
               << want.size();
    for (size_t i = 0; i < got.size(); ++i) {
        if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s[%zu]: %a, reference %a", what, i,
                          got[i], want[i]);
            return ::testing::AssertionFailure() << buf;
        }
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(HermiteE, SSOverlapIsGaussianProduct)
{
    // E_0^{00} = exp(-q AB^2) with q = ab/(a+b).
    double a = 0.8, b = 1.3, ab = 0.9;
    auto e = hermiteE(0, 0, a, b, ab);
    ASSERT_EQ(e.size(), 1u);
    EXPECT_NEAR(e[0], std::exp(-a * b / (a + b) * ab * ab), 1e-14);
}

TEST(HermiteE, SameCenterPOverlap)
{
    // <p|p> same center: S = E_0^{11} sqrt(pi/p) must equal
    // 1/(2p) sqrt(pi/p).
    double a = 0.7, b = 0.4;
    auto e = hermiteE(1, 1, a, b, 0.0);
    EXPECT_NEAR(e[0], 1.0 / (2 * (a + b)), 1e-14);
}

TEST(HermiteE, MatchesTheReferenceBitForBit)
{
    for (int i = 0; i <= 3; ++i)
        for (int j = 0; j <= 3; ++j)
            for (double ab : {0.0, 0.9, -2.35})
                EXPECT_TRUE(sameBits(
                    "E", hermiteE(i, j, 0.8, 1.3, ab),
                    qcc_test::hermiteE(i, j, 0.8, 1.3, ab)))
                    << "i=" << i << " j=" << j << " ab=" << ab;
}

TEST(Integrals, MatchTheReferenceBitForBit)
{
    // S, T, V and the ERI tensor must equal the seed's per-call loop
    // bit for bit: the problem store's entries and every pinned
    // energy derive from them. The comparison runs in one process,
    // so a libm that rounds differently moves both sides together.
    struct Case
    {
        std::string molecule;
        double bond;
        int nGauss;
    };
    std::vector<Case> cases;
    for (const BenchmarkMolecule &m : benchmarkMolecules())
        for (double bond : {m.sweepLo, m.equilibriumBond, m.sweepHi})
            cases.push_back({m.name, bond, 3});
    for (const char *name : {"H2", "LiH", "NaH"})
        for (int ng = 1; ng <= 6; ++ng)
            cases.push_back(
                {name, benchmarkMolecule(name).equilibriumBond, ng});

    for (const Case &c : cases) {
        SCOPED_TRACE(c.molecule + " bond " + std::to_string(c.bond) +
                     " basis_ng " + std::to_string(c.nGauss));
        Molecule mol = benchmarkMolecule(c.molecule).build(c.bond);
        BasisSet basis = BasisSet::stoNg(mol, c.nGauss);
        IntegralTables got = computeIntegrals(basis, mol);
        IntegralTables want = qcc_test::computeIntegrals(basis, mol);
        ASSERT_EQ(got.nbf, want.nbf);
        EXPECT_TRUE(sameBits("S", flat(got.s), flat(want.s)));
        EXPECT_TRUE(sameBits("T", flat(got.t), flat(want.t)));
        EXPECT_TRUE(sameBits("V", flat(got.v), flat(want.v)));
        EXPECT_TRUE(sameBits("ERI", got.eri, want.eri));
    }
}

TEST(Integrals, H2OverlapKineticKnown)
{
    // Two unit-exponent s-Gaussians: closed forms exist for S and T.
    // Use the basis machinery on an H2-like system with our fitted
    // basis and check qualitative invariants instead: S diagonal = 1,
    // 0 < S offdiag < 1, T positive definite diagonal.
    Molecule mol = benchmarkMolecule("H2").build(0.74);
    BasisSet basis = BasisSet::stoNg(mol);
    IntegralTables ints = computeIntegrals(basis, mol);

    ASSERT_EQ(ints.nbf, 2u);
    EXPECT_NEAR(ints.s(0, 0), 1.0, 1e-8);
    EXPECT_NEAR(ints.s(1, 1), 1.0, 1e-8);
    EXPECT_GT(ints.s(0, 1), 0.5); // strongly overlapping at 0.74 A
    EXPECT_LT(ints.s(0, 1), 0.8);
    EXPECT_GT(ints.t(0, 0), 0.0);
    EXPECT_LT(ints.v(0, 0), 0.0); // attraction is negative
}

TEST(Integrals, OverlapShrinksWithDistance)
{
    double prev = 1.0;
    for (double d : {0.5, 1.0, 1.5, 2.5}) {
        Molecule mol = benchmarkMolecule("H2").build(d);
        BasisSet basis = BasisSet::stoNg(mol);
        IntegralTables ints = computeIntegrals(basis, mol);
        EXPECT_LT(ints.s(0, 1), prev);
        prev = ints.s(0, 1);
    }
}

TEST(Integrals, MatricesSymmetric)
{
    Molecule mol = benchmarkMolecule("H2O").build(0.96);
    BasisSet basis = BasisSet::stoNg(mol);
    IntegralTables ints = computeIntegrals(basis, mol);
    for (size_t i = 0; i < ints.nbf; ++i) {
        for (size_t j = 0; j < ints.nbf; ++j) {
            EXPECT_NEAR(ints.s(i, j), ints.s(j, i), 1e-10);
            EXPECT_NEAR(ints.t(i, j), ints.t(j, i), 1e-10);
            EXPECT_NEAR(ints.v(i, j), ints.v(j, i), 1e-10);
        }
    }
}

TEST(Integrals, EriPermutationalSymmetry)
{
    Molecule mol = benchmarkMolecule("LiH").build(1.6);
    BasisSet basis = BasisSet::stoNg(mol);
    IntegralTables ints = computeIntegrals(basis, mol);
    const size_t n = ints.nbf;
    // Spot-check the full 8-fold symmetry on a subset.
    for (size_t i = 0; i < n; i += 2) {
        for (size_t j = 0; j < n; j += 3) {
            for (size_t k = 0; k < n; k += 2) {
                for (size_t l = 0; l < n; l += 3) {
                    double ref = ints.eriAt(i, j, k, l);
                    EXPECT_NEAR(ints.eriAt(j, i, k, l), ref, 1e-10);
                    EXPECT_NEAR(ints.eriAt(i, j, l, k), ref, 1e-10);
                    EXPECT_NEAR(ints.eriAt(k, l, i, j), ref, 1e-10);
                    EXPECT_NEAR(ints.eriAt(l, k, j, i), ref, 1e-10);
                }
            }
        }
    }
}

TEST(Integrals, EriDiagonalPositive)
{
    // (ii|ii) is a Coulomb self-repulsion: strictly positive.
    Molecule mol = benchmarkMolecule("HF").build(0.92);
    BasisSet basis = BasisSet::stoNg(mol);
    IntegralTables ints = computeIntegrals(basis, mol);
    for (size_t i = 0; i < ints.nbf; ++i)
        EXPECT_GT(ints.eriAt(i, i, i, i), 0.0);
}

TEST(Integrals, H2EriKnownMagnitudes)
{
    // STO-3G H2 at 0.74 A: (11|11) ~ 0.775 Ha (textbook value ~0.7746
    // for the true STO-3G contraction; our re-fitted basis matches to
    // a few mHa).
    Molecule mol = benchmarkMolecule("H2").build(0.74);
    BasisSet basis = BasisSet::stoNg(mol);
    IntegralTables ints = computeIntegrals(basis, mol);
    EXPECT_NEAR(ints.eriAt(0, 0, 0, 0), 0.7746, 0.01);
    // Coulomb > exchange-type magnitude ordering.
    EXPECT_GT(ints.eriAt(0, 0, 0, 0), ints.eriAt(0, 1, 0, 1));
}

TEST(Integrals, NuclearRepulsion)
{
    Molecule mol = benchmarkMolecule("H2").build(0.74);
    // 1/(0.74 * 1.8897...) Ha.
    EXPECT_NEAR(mol.nuclearRepulsion(),
                1.0 / (0.74 * angstromToBohr), 1e-10);
}

TEST(Integrals, BenchmarkBasisSizes)
{
    // AO counts that set up the Table I qubit arithmetic.
    struct Case
    {
        const char *name;
        size_t nbf;
    };
    for (const auto &c : std::vector<Case>{{"H2", 2},
                                           {"LiH", 6},
                                           {"NaH", 10},
                                           {"HF", 6},
                                           {"BeH2", 7},
                                           {"H2O", 7},
                                           {"BH3", 8},
                                           {"NH3", 8},
                                           {"CH4", 9}}) {
        const auto &entry = benchmarkMolecule(c.name);
        Molecule mol = entry.build(entry.equilibriumBond);
        BasisSet basis = BasisSet::stoNg(mol);
        EXPECT_EQ(basis.size(), c.nbf) << c.name;
    }
}
