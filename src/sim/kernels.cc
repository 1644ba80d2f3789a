#include "sim/kernels.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/parallel.hh"
#include "sim/simd.hh"

namespace qcc {
namespace kern {

namespace {

/** i^{e mod 4}. */
inline cplx
iPow(int e)
{
    static const cplx table[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    return table[e & 3];
}

/** +1 / -1 according to the parity of |m & b|. */
inline double
paritySign(uint64_t m, uint64_t b)
{
    return (std::popcount(m & b) & 1) ? -1.0 : 1.0;
}

/**
 * exp(i theta P)'s constants as the pair kernels take them (x != 0).
 * With u = i sin(t) i^{|x&z|} and the partner-sign relation
 * (-1)^{|z & (b^x)|} = sigma * (-1)^{|z & b|} where
 * sigma = (-1)^{|z & x|}, each pair costs one popcount:
 *   amp[b]   = c a   + u sigma s_b a2
 *   amp[b^x] = c a2  + u       s_b a
 * The update is written in real arithmetic so both the scalar and
 * AVX2 bodies reduce to plain FMAs.
 */
struct PairRotation
{
    double c, ur, ui, vr, vi;
    uint64_t pivot; ///< lowest set bit of x

    PairRotation(uint64_t x, uint64_t z, double theta)
    {
        const cplx is(0, std::sin(theta));
        const cplx u = is * iPow(std::popcount(x & z));
        const double sigma = paritySign(z, x);
        c = std::cos(theta);
        ur = u.real();
        ui = u.imag();
        vr = sigma * ur;
        vi = sigma * ui;
        pivot = x & (~x + 1);
    }
};

} // namespace

void
apply1q(cplx *amp, size_t dim, unsigned q, const cplx u[4])
{
    const uint64_t bit = 1ull << q;
    const cplx uc[4] = {u[0], u[1], u[2], u[3]};
    parallelFor(0, dim / 2, [=](size_t lo, size_t hi) {
        ranges::apply1q(amp, lo, hi, bit, uc);
    });
}

void
applyDiag1q(cplx *amp, size_t dim, unsigned q, cplx d0, cplx d1)
{
    const uint64_t bit = 1ull << q;
    parallelFor(0, dim, [=](size_t lo, size_t hi) {
        ranges::diag1q(amp, lo, hi, bit, d0, d1);
    });
}

void
applyX(cplx *amp, size_t dim, unsigned q)
{
    const uint64_t bit = 1ull << q;
    parallelFor(0, dim / 2, [=](size_t lo, size_t hi) {
        ranges::applyX(amp, lo, hi, bit);
    });
}

void
applyCx(cplx *amp, size_t dim, unsigned control, unsigned target)
{
    const uint64_t cb = 1ull << control, tb = 1ull << target;
    parallelFor(0, dim / 2, [=](size_t lo, size_t hi) {
        ranges::applyCx(amp, lo, hi, cb, tb);
    });
}

void
applySwap(cplx *amp, size_t dim, unsigned a, unsigned b)
{
    const uint64_t ab = 1ull << a, bb = 1ull << b;
    parallelFor(0, dim / 2, [=](size_t lo, size_t hi) {
        ranges::applySwap(amp, lo, hi, ab, bb);
    });
}

void
applyPauliRotation(cplx *amp, size_t dim, uint64_t x, uint64_t z,
                   double theta)
{
    if (x == 0) {
        // Diagonal string (|x&z| = 0): a two-valued per-amplitude
        // phase selected by the parity of |z & b|.
        const double c = std::cos(theta);
        const cplx is(0, std::sin(theta));
        const cplx fEven = c + is, fOdd = c - is;
        parallelFor(0, dim, [=](size_t lo, size_t hi) {
            ranges::pauliRotDiag(amp, lo, hi, z, fEven, fOdd);
        });
        return;
    }
    const PairRotation r(x, z, theta);
    parallelFor(0, dim / 2, [=](size_t lo, size_t hi) {
        ranges::pauliRotPairs(amp, lo, hi, x, z, r.pivot, r.c, r.ur,
                              r.ui, r.vr, r.vi);
    });
}

void
XMaskGroups::add(uint64_t x, uint64_t z, cplx coeff)
{
    // (P v)[b] = i^{|x&z|} (-1)^{|z & (b^x)|} v[b^x]
    //          = i^{|x&z|} (-1)^{|z&x|} (-1)^{|z&b|} v[b^x].
    const cplx w =
        coeff * iPow(std::popcount(x & z)) * paritySign(z, x);
    auto g = std::find_if(groups.begin(), groups.end(),
                          [x](const Group &e) { return e.x == x; });
    if (g == groups.end())
        g = groups.insert(groups.end(), Group{x, {}, {}, {}});
    g->z.push_back(z);
    g->wr.push_back(w.real());
    g->wi.push_back(w.imag());
}

void
XMaskGroups::apply(const cplx *v, size_t dim, cplx *out) const
{
    for (const Group &g : groups) {
        parallelFor(0, dim, [&](size_t lo, size_t hi) {
            ranges::maskMatvec(out, v, lo, hi, g.x, g.z.data(),
                               g.wr.data(), g.wi.data(), g.z.size());
        });
    }
}

double
XMaskGroups::expectation(const cplx *v, size_t dim) const
{
    static BufferPool<cplx> pool;
    std::vector<cplx> hv = pool.acquire(dim);
    const double e = expectation(v, dim, hv.data());
    pool.release(std::move(hv));
    return e;
}

double
XMaskGroups::expectation(const cplx *v, size_t dim, cplx *hv) const
{
    std::fill(hv, hv + dim, cplx(0.0));
    apply(v, dim, hv);
    return parallelReduce(0, dim, 0.0, [=](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t b = lo; b < hi; ++b)
            s += v[b].real() * hv[b].real() + v[b].imag() * hv[b].imag();
        return s;
    });
}

cplx
pauliInnerAndRotate(cplx *bra, cplx *ket, size_t dim, uint64_t x,
                    uint64_t z, double theta)
{
    if (x == 0) {
        const cplx t = parallelReduce(
            0, dim, cplx(0.0), [=](size_t lo, size_t hi) {
                return ranges::pauliInnerDiagScalar(bra, ket, lo, hi,
                                                    z);
            });
        applyPauliRotation(bra, dim, x, z, theta);
        applyPauliRotation(ket, dim, x, z, theta);
        return t;
    }
    // With P|c> = eps (-1)^{|z&c|} |c^x> and the partner-sign
    // relation s_{b^x} = sigma s_b, the (b, b^x) pair contributes
    //   eps s_b (sigma conj(bra[b]) ket[b^x] + conj(bra[b^x]) ket[b])
    // so eps and sigma factor out of the sweep's two partial sums.
    // Each chunk rotates its own pairs after reading them.
    const double sigma = paritySign(z, x);
    const PairRotation r(x, z, theta);
    const cplx t = parallelReduce(
        0, dim / 2, cplx(0.0), [=](size_t lo, size_t hi) {
            return ranges::pauliInnerRotPairs(bra, ket, lo, hi, x, z,
                                              r.pivot, sigma, r.c, r.ur,
                                              r.ui, r.vr, r.vi);
        });
    return iPow(std::popcount(x & z)) * t;
}

} // namespace kern
} // namespace qcc
