#include "chem/boys.hh"

#include <cmath>

#include "common/logging.hh"

namespace qcc {

namespace {

/**
 * Series evaluation of F_m(T) = exp(-T)/2 * sum_k (2T)^k *
 * Gamma(m+1/2) / Gamma(m+k+3/2); converges quickly for T < ~35.
 */
double
boysSeries(int m, double t)
{
    double term = 1.0 / (2.0 * m + 1.0);
    double sum = term;
    for (int k = 1; k < 400; ++k) {
        term *= 2.0 * t / (2.0 * m + 2.0 * k + 1.0);
        sum += term;
        if (term < 1e-17 * sum)
            break;
    }
    return std::exp(-t) * sum;
}

} // namespace

void
boys(int mmax, double t, double *f)
{
    if (t < 0)
        panic("boys: negative argument");

    if (t < 1e-13) {
        for (int m = 0; m <= mmax; ++m)
            f[m] = 1.0 / (2.0 * m + 1.0);
        return;
    }

    if (t < 35.0) {
        // Series at the top order, stable downward recursion below:
        // F_m(T) = (2T F_{m+1}(T) + exp(-T)) / (2m + 1).
        f[mmax] = boysSeries(mmax, t);
        const double et = std::exp(-t);
        for (int m = mmax - 1; m >= 0; --m)
            f[m] = (2.0 * t * f[m + 1] + et) / (2.0 * m + 1.0);
        return;
    }

    // Large T: F_0 = sqrt(pi/T)/2 to machine precision, upward
    // recursion is stable when 2T dominates (T >= 35 >> m here).
    f[0] = 0.5 * std::sqrt(M_PI / t);
    const double et = std::exp(-t);
    for (int m = 1; m <= mmax; ++m)
        f[m] = ((2.0 * m - 1.0) * f[m - 1] - et) / (2.0 * t);
}

std::vector<double>
boys(int mmax, double t)
{
    std::vector<double> f(mmax + 1);
    boys(mmax, t, f.data());
    return f;
}

} // namespace qcc
