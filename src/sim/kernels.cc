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

/**
 * Seed reference phase: P|b> = i^{|x&z|} (-1)^{|z & b|} |b ^ x| for
 * the canonical Pauli (x, z).
 */
inline cplx
pauliPhase(uint64_t x, uint64_t z, uint64_t b)
{
    return iPow(std::popcount(x & z) + 2 * std::popcount(z & b));
}

/** +1 / -1 according to the parity of |m & b|. */
inline double
paritySign(uint64_t m, uint64_t b)
{
    return (std::popcount(m & b) & 1) ? -1.0 : 1.0;
}

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
    const double c = std::cos(theta);
    const cplx is(0, std::sin(theta));

    if (x == 0) {
        // Diagonal string (|x&z| = 0): a two-valued per-amplitude
        // phase selected by the parity of |z & b|.
        const cplx fEven = c + is, fOdd = c - is;
        parallelFor(0, dim, [=](size_t lo, size_t hi) {
            ranges::pauliRotDiag(amp, lo, hi, z, fEven, fOdd);
        });
        return;
    }

    // Pair kernel. With u = i sin(t) i^{|x&z|} and the partner-sign
    // relation (-1)^{|z & (b^x)|} = sigma * (-1)^{|z & b|} where
    // sigma = (-1)^{|z & x|}, each pair costs one popcount:
    //   amp[b]   = c a   + u sigma s_b a2
    //   amp[b^x] = c a2  + u       s_b a
    // The update is written in real arithmetic so both the scalar and
    // AVX2 bodies reduce to plain FMAs.
    const cplx u = is * iPow(std::popcount(x & z));
    const double sigma = paritySign(z, x);
    const double ur = u.real(), ui = u.imag();
    const double vr = sigma * ur, vi = sigma * ui;
    const uint64_t pivot = x & (~x + 1); // lowest set bit of x
    parallelFor(0, dim / 2, [=](size_t lo, size_t hi) {
        ranges::pauliRotPairs(amp, lo, hi, x, z, pivot, c, ur, ui,
                              vr, vi);
    });
}

void
applyPauli(cplx *amp, size_t dim, uint64_t x, uint64_t z)
{
    if (x == 0) {
        parallelFor(0, dim, [=](size_t lo, size_t hi) {
            for (size_t b = lo; b < hi; ++b)
                if (std::popcount(z & b) & 1)
                    amp[b] = -amp[b];
        });
        return;
    }
    const cplx eps = iPow(std::popcount(x & z));
    const double sigma = paritySign(z, x);
    const cplx epsSigma = eps * sigma;
    const uint64_t pivot = x & (~x + 1);
    parallelFor(0, dim / 2, [=](size_t lo, size_t hi) {
        for (size_t k = lo; k < hi; ++k) {
            const size_t b = expandBit(k, pivot);
            const size_t b2 = b ^ x;
            const double sb = paritySign(z, b);
            const cplx a = amp[b], a2 = amp[b2];
            amp[b] = (epsSigma * sb) * a2;
            amp[b2] = (eps * sb) * a;
        }
    });
}

void
accumulatePauli(const cplx *amp, size_t dim, uint64_t x, uint64_t z,
                cplx w, cplx *out)
{
    // phase(b^x) = eps * sigma * (-1)^{|z & b|}; fold everything
    // constant into the weight.
    const cplx weps =
        w * iPow(std::popcount(x & z)) * paritySign(z, x);
    parallelFor(0, dim, [=](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b)
            out[b] += (weps * paritySign(z, b)) * amp[b ^ x];
    });
}

double
expectation(const cplx *amp, size_t dim, uint64_t x, uint64_t z)
{
    if (x == 0) {
        return parallelReduce(
            0, dim, 0.0, [=](size_t lo, size_t hi) {
                return ranges::expectDiag(amp, lo, hi, z);
            });
    }
    // Pair-compacted sweep. The (b, b^x) contributions combine to
    //   s_b (conj(a) a2 + sigma conj(a2) a)
    // which is twice the real part of conj(a) a2 when sigma = +1 and
    // twice i times its imaginary part when sigma = -1 (sigma and
    // i^{|x&z|} always conspire to make <P> real), so each pair is a
    // single real dot product.
    const int e = std::popcount(x & z) & 3;
    const bool sigmaPos = (std::popcount(z & x) & 1) == 0;
    const uint64_t pivot = x & (~x + 1);
    const double t = parallelReduce(
        0, dim / 2, 0.0, [=](size_t lo, size_t hi) {
            return ranges::expectPairs(amp, lo, hi, x, z, pivot,
                                       sigmaPos);
        });
    if (sigmaPos)
        return 2.0 * iPow(e).real() * t;
    // contribution = eps * (-2i) * t with eps = i^e.
    return -2.0 * iPow(e + 1).real() * t;
}

cplx
pauliInner(const cplx *bra, const cplx *ket, size_t dim, uint64_t x,
           uint64_t z)
{
    // s * conj(u) v accumulated into (re, im), written out so the
    // loops stay plain multiply-adds.
    auto addConjMul = [](double s, cplx u, cplx v, double &re,
                         double &im) {
        re += s * (u.real() * v.real() + u.imag() * v.imag());
        im += s * (u.real() * v.imag() - u.imag() * v.real());
    };
    if (x == 0) {
        return parallelReduce(
            0, dim, cplx(0.0), [=](size_t lo, size_t hi) {
                double re = 0.0, im = 0.0;
                for (size_t b = lo; b < hi; ++b)
                    addConjMul(paritySign(z, b), bra[b], ket[b], re,
                               im);
                return cplx(re, im);
            });
    }
    // With P|c> = eps (-1)^{|z&c|} |c^x> and the partner-sign
    // relation s_{b^x} = sigma s_b, the (b, b^x) pair contributes
    //   eps s_b (sigma conj(bra[b]) ket[b^x] + conj(bra[b^x]) ket[b])
    // so eps and sigma factor out of the sweep's two partial sums.
    const double sigma = paritySign(z, x);
    const uint64_t pivot = x & (~x + 1);
    const cplx t = parallelReduce(
        0, dim / 2, cplx(0.0), [=](size_t lo, size_t hi) {
            double pr = 0.0, pi = 0.0, qr = 0.0, qi = 0.0;
            for (size_t k = lo; k < hi; ++k) {
                const size_t b = expandBit(k, pivot);
                const size_t b2 = b ^ x;
                const double sb = paritySign(z, b);
                addConjMul(sb, bra[b], ket[b2], pr, pi);
                addConjMul(sb, bra[b2], ket[b], qr, qi);
            }
            return cplx(sigma * pr + qr, sigma * pi + qi);
        });
    return iPow(std::popcount(x & z)) * t;
}

double
diagonalGroupExpectation(const cplx *amp, size_t dim, const double *w,
                         const uint64_t *zmask, size_t n_terms)
{
    return parallelReduce(0, dim, 0.0, [=](size_t lo, size_t hi) {
        return ranges::groupExpect(amp, lo, hi, 0, w, zmask,
                                   n_terms);
    });
}

void
depolarize1(cplx *rho, size_t dim, unsigned q, unsigned n_qubits,
            double p)
{
    if (p <= 0.0)
        return;
    const double keep = 1.0 - 4.0 * p / 3.0;
    const double mix = (4.0 * p / 3.0) / 2.0;
    const uint64_t kbit = 1ull << q;
    const uint64_t bbit = kbit << n_qubits;
    // Each compacted k names one disjoint 2x2 sub-block, so the
    // per-element result is independent of the chunking.
    parallelFor(0, dim / 4, [=](size_t lo, size_t hi) {
        ranges::depolarize1(rho, lo, hi, kbit, bbit, keep, mix);
    });
}

void
depolarize2(cplx *rho, size_t dim, unsigned a, unsigned b,
            unsigned n_qubits, double p)
{
    if (p <= 0.0)
        return;
    const double keep = 1.0 - 16.0 * p / 15.0;
    const double mix = (16.0 * p / 15.0) / 4.0;
    const uint64_t ka = 1ull << std::min(a, b);
    const uint64_t kb = 1ull << std::max(a, b);
    const uint64_t ba = ka << n_qubits;
    const uint64_t bb = kb << n_qubits;
    parallelFor(0, dim / 16, [=](size_t lo, size_t hi) {
        ranges::depolarize2(rho, lo, hi, ka, kb, ba, bb, keep, mix);
    });
}

void
cxDepolarize2(cplx *rho, size_t dim, unsigned control, unsigned target,
              unsigned n_qubits, double p)
{
    const double keep = p > 0.0 ? 1.0 - 16.0 * p / 15.0 : 1.0;
    const double mix = p > 0.0 ? (16.0 * p / 15.0) / 4.0 : 0.0;
    const uint64_t ka = 1ull << std::min(control, target);
    const uint64_t kb = 1ull << std::max(control, target);
    const uint64_t ba = ka << n_qubits;
    const uint64_t bb = kb << n_qubits;
    const bool controlLow = control < target;
    parallelFor(0, dim / 16, [=](size_t lo, size_t hi) {
        ranges::cxDepolarize2(rho, lo, hi, ka, kb, ba, bb, controlLow,
                              keep, mix);
    });
}

void
apply1qGeneric(cplx *amp, size_t dim, unsigned q, const cplx u[4])
{
    const uint64_t bit = 1ull << q;
    for (size_t b = 0; b < dim; ++b) {
        if (b & bit)
            continue;
        cplx a0 = amp[b];
        cplx a1 = amp[b | bit];
        amp[b] = u[0] * a0 + u[1] * a1;
        amp[b | bit] = u[2] * a0 + u[3] * a1;
    }
}

void
applyPauliRotationGeneric(cplx *amp, size_t dim, uint64_t x, uint64_t z,
                          double theta)
{
    const cplx c = std::cos(theta);
    const cplx is = cplx(0, std::sin(theta));

    if (x == 0) {
        for (size_t b = 0; b < dim; ++b)
            amp[b] *= c + is * pauliPhase(x, z, b);
        return;
    }
    for (size_t b = 0; b < dim; ++b) {
        const size_t b2 = b ^ x;
        if (b2 < b)
            continue;
        cplx a = amp[b], a2 = amp[b2];
        amp[b] = c * a + is * pauliPhase(x, z, b2) * a2;
        amp[b2] = c * a2 + is * pauliPhase(x, z, b) * a;
    }
}

double
expectationGeneric(const cplx *amp, size_t dim, uint64_t x, uint64_t z)
{
    cplx s = 0.0;
    for (size_t b = 0; b < dim; ++b)
        s += std::conj(amp[b]) * pauliPhase(x, z, b ^ x) * amp[b ^ x];
    return s.real();
}

} // namespace kern
} // namespace qcc
