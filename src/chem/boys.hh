/**
 * @file
 * Boys function F_m(T) = int_0^1 t^{2m} exp(-T t^2) dt, the special
 * function at the heart of Gaussian Coulomb integrals.
 */

#ifndef QCC_CHEM_BOYS_HH
#define QCC_CHEM_BOYS_HH

#include <vector>

namespace qcc {

/**
 * Evaluate F_0..F_mmax at T. Uses the Taylor series at small T and
 * the asymptotic form plus stable downward recursion at large T.
 *
 * @param mmax highest order required
 * @param t    argument (>= 0)
 * @return vector of mmax+1 values
 */
std::vector<double> boys(int mmax, double t);

/** The same values written to f[0..mmax], for callers that keep them
 *  on the stack (the integral loops). */
void boys(int mmax, double t, double *f);

} // namespace qcc

#endif // QCC_CHEM_BOYS_HH
