/**
 * @file
 * The committed STO-nG table (src/chem/sto_ng.cc) against the fitter
 * it was printed from (tests/chem_reference.hh): every one of the 30
 * rows is refit and must match bit for bit, so the table stays the
 * fitter's output. The fits take about 9 s in Release, so this suite
 * carries the `long` label.
 */

#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>

#include "chem/sto_ng.hh"
#include "chem_reference.hh"

using namespace qcc;

namespace {

/** memcmp equality of one value, printing both in %a otherwise. */
::testing::AssertionResult
sameBits(const char *what, size_t i, double table, double fitter)
{
    if (std::memcmp(&table, &fitter, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s[%zu]: table %a, fitter %a",
                  what, i, table, fitter);
    return ::testing::AssertionFailure() << buf;
}

} // namespace

TEST(StoNg, TableMatchesTheFitter)
{
    const int shells[][2] = {{1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1}};
    for (const auto &sh : shells) {
        for (int ng = 1; ng <= kStoNgMaxGaussians; ++ng) {
            SCOPED_TRACE("n = " + std::to_string(sh[0]) +
                         ", l = " + std::to_string(sh[1]) +
                         ", n_gauss = " + std::to_string(ng));
            const StoFit &row = stoNgFit(sh[0], sh[1], ng);
            const StoFit fit = qcc_test::fitShell(sh[0], sh[1], ng);
            ASSERT_EQ(row.exponents.size(), fit.exponents.size());
            ASSERT_EQ(row.coeffs.size(), fit.coeffs.size());
            for (size_t i = 0; i < fit.exponents.size(); ++i) {
                EXPECT_TRUE(sameBits("exponents", i, row.exponents[i],
                                     fit.exponents[i]));
                EXPECT_TRUE(sameBits("coeffs", i, row.coeffs[i],
                                     fit.coeffs[i]));
            }
            EXPECT_TRUE(
                sameBits("overlap", 0, row.overlap, fit.overlap));
        }
    }
}
