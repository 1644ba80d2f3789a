/**
 * @file
 * STO-nG contractions of the Slater shells 1s, 2s, 2p, 3s and 3p at
 * unit zeta, for 1 to 6 Gaussians. Each is a least-squares fit of the
 * Slater radial function r^{n-1} exp(-r) by n_gauss primitives
 * r^l exp(-alpha r^2) (overlap-maximizing, Nelder-Mead over
 * log-exponents, linear solve for coefficients). The library does not
 * fit at run time: sto_ng.cc commits the fitter's output as exact
 * hex floats. The fitter itself lives in tests/chem_reference.hh,
 * and StoNg.TableMatchesTheFitter refits every row and requires bit
 * equality, so the table stays derived data, not copied constants.
 * Scaling to an element's zeta multiplies exponents by zeta^2; the
 * coefficients, expressed over radially normalized primitives, are
 * invariant under that scaling.
 */

#ifndef QCC_CHEM_STO_NG_HH
#define QCC_CHEM_STO_NG_HH

#include <vector>

namespace qcc {

/** Largest contraction length the table holds (basis_ng's bound). */
constexpr int kStoNgMaxGaussians = 6;

/** Result of fitting one Slater shell with Gaussians at zeta = 1. */
struct StoFit
{
    /** Gaussian exponents, descending. */
    std::vector<double> exponents;
    /** Coefficients over radially normalized primitives. */
    std::vector<double> coeffs;
    /** Achieved normalized overlap with the Slater target (<= 1). */
    double overlap;
};

/**
 * The (n, l) Slater shell at zeta = 1 with n_gauss primitives, from
 * the committed table (immutable: repeated calls return the same
 * object). Supported: 1s, 2s, 2p, 3s, 3p with
 * 1 <= n_gauss <= kStoNgMaxGaussians; anything else throws
 * std::out_of_range.
 */
const StoFit &stoNgFit(int n, int l, int n_gauss = 3);

} // namespace qcc

#endif // QCC_CHEM_STO_NG_HH
