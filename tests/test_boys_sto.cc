/**
 * @file
 * Unit tests for the Boys function and the STO-nG table. The fits are
 * validated against the canonical STO-3G 1s expansion (Hehre,
 * Stewart, Pople 1969): exponents (2.227660, 0.405771, 0.109818) and
 * coefficients (0.154329, 0.535328, 0.444635) at zeta = 1.
 * test_sto_ng_table holds every row to the fitter bit for bit.
 */

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <stdexcept>

#include "chem/boys.hh"
#include "chem/sto_ng.hh"
#include "chem_reference.hh"

using namespace qcc;

TEST(Boys, ZeroArgument)
{
    auto f = boys(3, 0.0);
    for (int m = 0; m <= 3; ++m)
        EXPECT_NEAR(f[m], 1.0 / (2 * m + 1), 1e-14);
}

TEST(Boys, F0ClosedForm)
{
    // F_0(T) = sqrt(pi/T)/2 erf(sqrt(T)).
    for (double t : {0.1, 0.5, 1.0, 5.0, 20.0, 40.0, 80.0}) {
        double expected =
            0.5 * std::sqrt(M_PI / t) * std::erf(std::sqrt(t));
        EXPECT_NEAR(boys(0, t)[0], expected, 1e-12) << "T = " << t;
    }
}

TEST(Boys, RecursionConsistency)
{
    // F_{m+1} = ((2m+1) F_m - exp(-T)) / (2T).
    for (double t : {0.3, 2.0, 10.0, 34.0, 36.0, 60.0}) {
        auto f = boys(5, t);
        for (int m = 0; m < 5; ++m) {
            double rhs =
                ((2 * m + 1) * f[m] - std::exp(-t)) / (2 * t);
            EXPECT_NEAR(f[m + 1], rhs, 1e-11)
                << "T = " << t << " m = " << m;
        }
    }
}

TEST(Boys, MonotoneDecreasingInOrder)
{
    auto f = boys(6, 3.0);
    for (int m = 0; m < 6; ++m)
        EXPECT_GT(f[m], f[m + 1]);
}

TEST(Boys, DerivativeIdentityAcrossSeriesAsymptoticSwitch)
{
    // dF_m/dT = -F_{m+1}; check it with a central difference that
    // straddles the series/asymptotic switch at T = 35, which also
    // verifies the two evaluation branches are mutually consistent.
    const double eps = 1e-3;
    auto lo = boys(5, 35.0 - eps);  // series branch
    auto hi = boys(5, 35.0 + eps);  // asymptotic branch
    auto mid = boys(5, 35.0 + 1e-9);
    for (int m = 0; m <= 4; ++m) {
        double numDeriv = (hi[m] - lo[m]) / (2 * eps);
        EXPECT_NEAR(numDeriv, -mid[m + 1], 1e-9) << "m = " << m;
    }
}

TEST(Boys, MatchesTheReferenceBitForBit)
{
    // Every branch: the T = 0 limit, the series with downward
    // recursion (whose start depends on mmax), and the asymptote.
    for (int mmax = 0; mmax <= 8; ++mmax) {
        for (double t : {0.0, 1e-14, 0.3, 2.0, 17.5, 34.999, 35.0,
                         60.0, 900.0}) {
            const std::vector<double> got = boys(mmax, t);
            const std::vector<double> want =
                qcc_test::boys(mmax, t);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(double)),
                      0)
                << "mmax = " << mmax << " T = " << t;
        }
    }
}

TEST(StoNg, Reproduces1sSto3gExpansion)
{
    const StoFit &fit = stoNgFit(1, 0, 3);
    ASSERT_EQ(fit.exponents.size(), 3u);
    // Canonical values, exponents descending.
    EXPECT_NEAR(fit.exponents[0], 2.227660, 0.05);
    EXPECT_NEAR(fit.exponents[1], 0.405771, 0.01);
    EXPECT_NEAR(fit.exponents[2], 0.109818, 0.003);
    EXPECT_NEAR(fit.coeffs[0], 0.154329, 0.01);
    EXPECT_NEAR(fit.coeffs[1], 0.535328, 0.01);
    EXPECT_NEAR(fit.coeffs[2], 0.444635, 0.01);
    EXPECT_GT(fit.overlap, 0.9984);
}

TEST(StoNg, FitQualityImprovesWithMoreGaussians)
{
    double prev = 0.0;
    for (int ng = 1; ng <= 4; ++ng) {
        const StoFit &fit = stoNgFit(1, 0, ng);
        EXPECT_GT(fit.overlap, prev) << "n_gauss = " << ng;
        prev = fit.overlap;
    }
    EXPECT_GT(stoNgFit(1, 0, 1).overlap, 0.97);
    EXPECT_GT(stoNgFit(1, 0, 4).overlap, 0.9996);
}

TEST(StoNg, HigherShellsFitWell)
{
    EXPECT_GT(stoNgFit(2, 0, 3).overlap, 0.995); // 2s (node-less fit)
    EXPECT_GT(stoNgFit(2, 1, 3).overlap, 0.998); // 2p
    EXPECT_GT(stoNgFit(3, 0, 3).overlap, 0.99);  // 3s
    EXPECT_GT(stoNgFit(3, 1, 3).overlap, 0.99);  // 3p
}

TEST(StoNg, CoefficientsNormalized)
{
    // Coefficients over normalized primitives with the Gram matrix
    // should give unit self-overlap; spot check by refitting overlap
    // magnitude bound |c| <= something sane and 2s tightest-primitive
    // coefficient negative (the well-known STO-3G sign pattern).
    const StoFit &fit2s = stoNgFit(2, 0, 3);
    EXPECT_LT(fit2s.coeffs[0], 0.0);
    const StoFit &fit1s = stoNgFit(1, 0, 3);
    for (double c : fit1s.coeffs)
        EXPECT_GT(c, 0.0);
}

TEST(StoNg, CachedFitsAreStable)
{
    const StoFit &a = stoNgFit(2, 1, 3);
    const StoFit &b = stoNgFit(2, 1, 3);
    EXPECT_EQ(&a, &b);
}

TEST(StoNg, UnsupportedShellsThrow)
{
    // Outside the table: a shell past 3p, or a contraction length
    // outside [1, kStoNgMaxGaussians]. These throw rather than end
    // the process, so a sweep can file the job and carry on.
    EXPECT_THROW(stoNgFit(4, 0, 3), std::out_of_range);
    EXPECT_THROW(stoNgFit(3, 2, 3), std::out_of_range);
    EXPECT_THROW(stoNgFit(1, 1, 3), std::out_of_range);
    EXPECT_THROW(stoNgFit(1, 0, 0), std::out_of_range);
    EXPECT_THROW(stoNgFit(1, 0, kStoNgMaxGaussians + 1),
                 std::out_of_range);
    EXPECT_NO_THROW(stoNgFit(3, 1, kStoNgMaxGaussians));
}
