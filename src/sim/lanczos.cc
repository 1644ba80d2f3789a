#include "sim/lanczos.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/kernels.hh"
#include "sim/statevector.hh"

namespace qcc {

double
tridiagMinEigen(const std::vector<double> &diag,
                const std::vector<double> &off)
{
    const size_t n = diag.size();
    if (n == 0)
        panic("tridiagMinEigen: empty matrix");
    if (off.size() + 1 != n)
        panic("tridiagMinEigen: off-diagonal size mismatch");
    if (n == 1)
        return diag[0];

    // Gershgorin bounds.
    double lo = diag[0], hi = diag[0];
    for (size_t i = 0; i < n; ++i) {
        double r = 0.0;
        if (i > 0)
            r += std::fabs(off[i - 1]);
        if (i + 1 < n)
            r += std::fabs(off[i]);
        lo = std::min(lo, diag[i] - r);
        hi = std::max(hi, diag[i] + r);
    }

    // Sturm count: number of eigenvalues strictly below x.
    auto countBelow = [&](double x) {
        int count = 0;
        double d = 1.0;
        for (size_t i = 0; i < n; ++i) {
            double offsq = (i > 0) ? off[i - 1] * off[i - 1] : 0.0;
            d = diag[i] - x - (d == 0.0 ? offsq / 1e-300 : offsq / d);
            if (d < 0)
                ++count;
        }
        return count;
    };

    for (int it = 0; it < 200 && hi - lo > 1e-13 * (1 + std::fabs(lo));
         ++it) {
        double mid = 0.5 * (lo + hi);
        if (countBelow(mid) >= 1)
            hi = mid;
        else
            lo = mid;
    }
    return 0.5 * (lo + hi);
}

double
lanczosGroundEnergy(const PauliSum &h, const LanczosOptions &opts)
{
    const unsigned n = h.numQubits();
    const size_t dim = size_t{1} << n;

    Rng rng(opts.seed);
    Statevector v(n);
    for (size_t b = 0; b < dim; ++b)
        v.amplitudes()[b] = cplx(rng.gaussian(), rng.gaussian());
    v.normalize();

    kern::XMaskGroups hv;
    for (const auto &t : h.terms())
        hv.add(t.string.xMask(), t.string.zMask(), t.coeff);

    std::vector<cplx> vPrev(dim, cplx(0, 0));
    std::vector<double> alpha, beta;
    double prevRitz = 1e300;
    double betaPrev = 0.0;

    for (int k = 0; k < opts.maxIter; ++k) {
        // w = H v
        std::vector<cplx> w(dim, cplx(0, 0));
        hv.apply(v.amplitudes().data(), dim, w.data());

        // alpha_k = <v, w>
        cplx a(0, 0);
        for (size_t b = 0; b < dim; ++b)
            a += std::conj(v.amplitudes()[b]) * w[b];
        alpha.push_back(a.real());

        // w -= alpha v + beta_{k-1} v_{k-1}
        for (size_t b = 0; b < dim; ++b)
            w[b] -= a.real() * v.amplitudes()[b] + betaPrev * vPrev[b];

        double nw = 0.0;
        for (const auto &x : w)
            nw += std::norm(x);
        nw = std::sqrt(nw);

        double ritz = tridiagMinEigen(alpha, beta);
        if (std::fabs(ritz - prevRitz) < opts.tol || nw < 1e-12)
            return ritz;
        prevRitz = ritz;

        beta.push_back(nw);
        betaPrev = nw;
        vPrev = v.amplitudes();
        for (size_t b = 0; b < dim; ++b)
            v.amplitudes()[b] = w[b] / nw;
    }
    return prevRitz;
}

} // namespace qcc
