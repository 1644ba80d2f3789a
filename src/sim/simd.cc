/**
 * @file
 * Scalar and AVX2 bodies of the range primitives declared in
 * sim/simd.hh, plus the runtime dispatch state. The AVX2 functions
 * are compiled with per-function target("avx2,fma") attributes so the
 * rest of the build keeps the default ISA; they are only ever called
 * after __builtin_cpu_supports says the CPU can run them.
 *
 * Vector layout notes (AVX2, 4 doubles = 2 complex per register):
 *  - cmulBcast multiplies two packed complexes by per-lane-pair
 *    broadcast factors with one fmaddsub (even lanes subtract, odd
 *    lanes add — exactly the complex product split into real parts).
 *  - Parity-sign kernels process even-aligned index pairs: the sign
 *    of b+1 is the sign of b times (-1)^{z&1}, so one popcount per
 *    pair of amplitudes suffices (maskMatvec's eight-amplitude body
 *    reads z's low three bits from a sign-pattern table instead).
 */

#include "sim/simd.hh"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <utility>

#include "sim/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)
#define QCC_SIMD_X86 1
#include <immintrin.h>
#define QCC_AVX2 __attribute__((target("avx2,fma")))
#endif

namespace qcc {
namespace kern {

namespace {

bool
envSimdEnabled()
{
    const char *e = std::getenv("QCC_SIMD");
    return !(e && e[0] == '0' && e[1] == '\0');
}

std::atomic<bool> &
simdFlag()
{
    static std::atomic<bool> flag(envSimdEnabled());
    return flag;
}

inline double
paritySign(uint64_t m, uint64_t b)
{
    return (std::popcount(m & b) & 1) ? -1.0 : 1.0;
}

/** One Pauli-rotation pair update (shared by scalar loop and tails). */
inline void
rotPairOne(cplx *amp, size_t b, size_t b2, uint64_t z, double c,
           double ur, double ui, double vr, double vi)
{
    const double sb = paritySign(z, b);
    const double wr = sb * ur, wi = sb * ui;
    const double xr = sb * vr, xi = sb * vi;
    const double ar = amp[b].real(), ai = amp[b].imag();
    const double br = amp[b2].real(), bi = amp[b2].imag();
    amp[b] = cplx(c * ar + xr * br - xi * bi,
                  c * ai + xr * bi + xi * br);
    amp[b2] = cplx(c * br + wr * ar - wi * ai,
                   c * bi + wr * ai + wi * ar);
}

/** s * conj(u) v accumulated into (re, im) as plain multiply-adds. */
inline void
addConjMul(double s, cplx u, cplx v, double &re, double &im)
{
    re += s * (u.real() * v.real() + u.imag() * v.imag());
    im += s * (u.real() * v.imag() - u.imag() * v.real());
}

/** f(b) = sum_t (wr[t] + i wi[t]) (-1)^{|z[t] & b|} of maskMatvec. */
inline void
maskPhase(uint64_t b, const uint64_t *z, const double *wr,
          const double *wi, size_t n_terms, double &fr, double &fi)
{
    fr = 0.0;
    fi = 0.0;
    for (size_t t = 0; t < n_terms; ++t) {
        const double s = paritySign(z[t], b);
        fr += s * wr[t];
        fi += s * wi[t];
    }
}

} // namespace

bool
simdCompiled()
{
#ifdef QCC_SIMD_X86
    return true;
#else
    return false;
#endif
}

bool
simdSupported()
{
#ifdef QCC_SIMD_X86
    static const bool ok = __builtin_cpu_supports("avx2") &&
                           __builtin_cpu_supports("fma");
    return ok;
#else
    return false;
#endif
}

bool
simdActive()
{
    return simdSupported() &&
           simdFlag().load(std::memory_order_relaxed);
}

void
setSimdEnabled(bool enabled)
{
    simdFlag().store(enabled, std::memory_order_relaxed);
}

const char *
simdName()
{
    return simdActive() ? "avx2" : "scalar";
}

namespace ranges {

// ---------------------------------------------------------------
// Scalar bodies (the seed's loops, re-expressed over ranges).
// ---------------------------------------------------------------

void
apply1qScalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit,
              const cplx u[4])
{
    const cplx u0 = u[0], u1 = u[1], u2 = u[2], u3 = u[3];
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = expandBit(k, bit);
        const cplx a0 = amp[b], a1 = amp[b | bit];
        amp[b] = u0 * a0 + u1 * a1;
        amp[b | bit] = u2 * a0 + u3 * a1;
    }
}

void
diag1qScalar(cplx *amp, size_t b_lo, size_t b_hi, uint64_t bit,
             cplx d0, cplx d1)
{
    for (size_t b = b_lo; b < b_hi; ++b)
        amp[b] *= (b & bit) ? d1 : d0;
}

void
pauliRotPairsScalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t x,
                    uint64_t z, uint64_t pivot, double c, double ur,
                    double ui, double vr, double vi)
{
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = expandBit(k, pivot);
        rotPairOne(amp, b, b ^ x, z, c, ur, ui, vr, vi);
    }
}

void
pauliRotDiagScalar(cplx *amp, size_t b_lo, size_t b_hi, uint64_t z,
                   cplx f_even, cplx f_odd)
{
    for (size_t b = b_lo; b < b_hi; ++b)
        amp[b] *= (std::popcount(z & b) & 1) ? f_odd : f_even;
}

cplx
pauliInnerRotPairsScalar(cplx *bra, cplx *ket, size_t k_lo, size_t k_hi,
                         uint64_t x, uint64_t z, uint64_t pivot,
                         double sigma, double c, double ur, double ui,
                         double vr, double vi)
{
    double pr = 0.0, pi = 0.0, qr = 0.0, qi = 0.0;
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = expandBit(k, pivot);
        const size_t b2 = b ^ x;
        const double sb = paritySign(z, b);
        addConjMul(sb, bra[b], ket[b2], pr, pi);
        addConjMul(sb, bra[b2], ket[b], qr, qi);
        rotPairOne(bra, b, b2, z, c, ur, ui, vr, vi);
        rotPairOne(ket, b, b2, z, c, ur, ui, vr, vi);
    }
    return cplx(sigma * pr + qr, sigma * pi + qi);
}

cplx
pauliInnerDiagScalar(const cplx *bra, const cplx *ket, size_t b_lo,
                     size_t b_hi, uint64_t z)
{
    double re = 0.0, im = 0.0;
    for (size_t b = b_lo; b < b_hi; ++b)
        addConjMul(paritySign(z, b), bra[b], ket[b], re, im);
    return cplx(re, im);
}

void
maskMatvecScalar(cplx *out, const cplx *v, size_t b_lo, size_t b_hi,
                 uint64_t x, const uint64_t *z, const double *wr,
                 const double *wi, size_t n_terms)
{
    for (size_t b = b_lo; b < b_hi; ++b) {
        double fr, fi;
        maskPhase(b, z, wr, wi, n_terms, fr, fi);
        const cplx a = v[b ^ x];
        out[b] += cplx(fr * a.real() - fi * a.imag(),
                       fr * a.imag() + fi * a.real());
    }
}

void
applyX(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit)
{
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = expandBit(k, bit);
        std::swap(amp[b], amp[b | bit]);
    }
}

void
applyCx(cplx *amp, size_t k_lo, size_t k_hi, uint64_t cbit,
        uint64_t tbit)
{
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = expandBit(k, tbit);
        if (b & cbit)
            std::swap(amp[b], amp[b | tbit]);
    }
}

void
applySwap(cplx *amp, size_t k_lo, size_t k_hi, uint64_t abit,
          uint64_t bbit)
{
    for (size_t k = k_lo; k < k_hi; ++k) {
        // idx has the b-bit clear; the |01> <-> |10> partner is in the
        // other half of the pair loop, so each pair is visited once.
        const size_t idx = expandBit(k, bbit);
        if (idx & abit)
            std::swap(amp[idx], amp[idx ^ (abit | bbit)]);
    }
}

// ---------------------------------------------------------------
// AVX2 bodies.
// ---------------------------------------------------------------

#ifdef QCC_SIMD_X86

namespace {

/** (a0, a1) * (br + i bi) with br/bi broadcast per lane pair. */
QCC_AVX2 inline __m256d
cmulBcast(__m256d a, __m256d br, __m256d bi)
{
    const __m256d as = _mm256_shuffle_pd(a, a, 0x5);
    return _mm256_fmaddsub_pd(a, br, _mm256_mul_pd(as, bi));
}

/** Two complexes at lo and hi as one register (lo in lanes 0-1). */
QCC_AVX2 inline __m256d
loadPair(const double *lo, const double *hi)
{
    return _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(lo)), _mm_loadu_pd(hi), 1);
}

QCC_AVX2 inline void
storePair(double *lo, double *hi, __m256d v)
{
    _mm_storeu_pd(lo, _mm256_castpd256_pd128(v));
    _mm_storeu_pd(hi, _mm256_extractf128_pd(v, 1));
}

/** (u0, u1) -> (u1, u0): swap the two complexes of a register. */
QCC_AVX2 inline __m256d
swapHalves(__m256d v)
{
    return _mm256_permute2f128_pd(v, v, 0x01);
}

/**
 * The rotation on one pair register p = (amp[b], amp[b^x]):
 * kr = (vr, vr, ur, ur) and ki = (vi, vi, ui, ui) scaled by s_b.
 * Lane for lane the arithmetic of the pivot >= 2 body, so a pair
 * rounds the same in whichever body or register it lands.
 */
QCC_AVX2 inline __m256d
rotPairReg(__m256d p, double sb, __m256d cv, __m256d kr, __m256d ki)
{
    const __m256d s = _mm256_set1_pd(sb);
    return _mm256_fmadd_pd(
        p, cv,
        cmulBcast(swapHalves(p), _mm256_mul_pd(s, kr),
                  _mm256_mul_pd(s, ki)));
}

/**
 * s * conj(u) * v lane-wise into two accumulators: re gathers
 * (ur vr, ui vi) and im (ur vi, ui vr) per complex lane, so each
 * complex's real part is re's lane sum and its imaginary part im's
 * lane difference.
 */
QCC_AVX2 inline void
conjMulAcc(__m256d s, __m256d u, __m256d v, __m256d &re, __m256d &im)
{
    re = _mm256_fmadd_pd(s, _mm256_mul_pd(u, v), re);
    im = _mm256_fmadd_pd(
        s, _mm256_mul_pd(u, _mm256_shuffle_pd(v, v, 0x5)), im);
}

/** The two complexes an (re, im) accumulator pair of conjMulAcc holds. */
QCC_AVX2 inline void
conjMulSums(__m256d re, __m256d im, cplx &lo, cplx &hi)
{
    alignas(32) double r[4], i[4];
    _mm256_store_pd(r, re);
    _mm256_store_pd(i, im);
    lo = cplx(r[0] + r[1], i[0] - i[1]);
    hi = cplx(r[2] + r[3], i[2] - i[3]);
}

QCC_AVX2 void
apply1qAvx2(cplx *ampc, size_t k_lo, size_t k_hi, uint64_t bit,
            const cplx u[4])
{
    double *amp = reinterpret_cast<double *>(ampc);
    if (bit == 1) {
        // Adjacent pairs: one register holds both amplitudes; the
        // column vectors (u0,u2) and (u1,u3) act on lane-duplicated
        // copies.
        const __m256d uAr = _mm256_setr_pd(u[0].real(), u[0].real(),
                                           u[2].real(), u[2].real());
        const __m256d uAi = _mm256_setr_pd(u[0].imag(), u[0].imag(),
                                           u[2].imag(), u[2].imag());
        const __m256d uBr = _mm256_setr_pd(u[1].real(), u[1].real(),
                                           u[3].real(), u[3].real());
        const __m256d uBi = _mm256_setr_pd(u[1].imag(), u[1].imag(),
                                           u[3].imag(), u[3].imag());
        for (size_t k = k_lo; k < k_hi; ++k) {
            double *p = amp + 4 * k;
            const __m256d v = _mm256_loadu_pd(p);
            const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
            const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
            _mm256_storeu_pd(p,
                             _mm256_add_pd(cmulBcast(a0, uAr, uAi),
                                           cmulBcast(a1, uBr, uBi)));
        }
        return;
    }
    // bit >= 2: k-space runs of `bit` pairs map to two contiguous
    // amplitude streams.
    const __m256d u0r = _mm256_set1_pd(u[0].real());
    const __m256d u0i = _mm256_set1_pd(u[0].imag());
    const __m256d u1r = _mm256_set1_pd(u[1].real());
    const __m256d u1i = _mm256_set1_pd(u[1].imag());
    const __m256d u2r = _mm256_set1_pd(u[2].real());
    const __m256d u2i = _mm256_set1_pd(u[2].imag());
    const __m256d u3r = _mm256_set1_pd(u[3].real());
    const __m256d u3i = _mm256_set1_pd(u[3].imag());
    size_t k = k_lo;
    while (k < k_hi) {
        if ((k & (bit - 1)) == 0 && k + bit <= k_hi) {
            // Whole runs as a fixed loop nest: the aligned run at k
            // is the amplitude blocks [2k, 2k + bit) and
            // [2k + bit, 2k + 2 bit).
            for (; k + bit <= k_hi; k += bit) {
                double *p0 = amp + 4 * k;
                double *p1 = p0 + 2 * bit;
                for (size_t i = 0; i < 2 * bit; i += 4) {
                    const __m256d a0 = _mm256_loadu_pd(p0 + i);
                    const __m256d a1 = _mm256_loadu_pd(p1 + i);
                    _mm256_storeu_pd(
                        p0 + i, _mm256_add_pd(cmulBcast(a0, u0r, u0i),
                                              cmulBcast(a1, u1r, u1i)));
                    _mm256_storeu_pd(
                        p1 + i, _mm256_add_pd(cmulBcast(a0, u2r, u2i),
                                              cmulBcast(a1, u3r, u3i)));
                }
            }
            continue;
        }
        // A partial run at either end of the range.
        const size_t runEnd =
            std::min<size_t>(k_hi, (k | (bit - 1)) + 1);
        const size_t b = expandBit(k, bit);
        double *p0 = amp + 2 * b;
        double *p1 = amp + 2 * (b | bit);
        const size_t len = runEnd - k;
        size_t i = 0;
        for (; i + 2 <= len; i += 2) {
            const __m256d a0 = _mm256_loadu_pd(p0 + 2 * i);
            const __m256d a1 = _mm256_loadu_pd(p1 + 2 * i);
            _mm256_storeu_pd(p0 + 2 * i,
                             _mm256_add_pd(cmulBcast(a0, u0r, u0i),
                                           cmulBcast(a1, u1r, u1i)));
            _mm256_storeu_pd(p1 + 2 * i,
                             _mm256_add_pd(cmulBcast(a0, u2r, u2i),
                                           cmulBcast(a1, u3r, u3i)));
        }
        for (; i < len; ++i) {
            const cplx a0 = ampc[b + i], a1 = ampc[(b + i) | bit];
            ampc[b + i] = u[0] * a0 + u[1] * a1;
            ampc[(b + i) | bit] = u[2] * a0 + u[3] * a1;
        }
        k = runEnd;
    }
}

QCC_AVX2 void
diag1qAvx2(cplx *ampc, size_t b_lo, size_t b_hi, uint64_t bit,
           cplx d0, cplx d1)
{
    double *amp = reinterpret_cast<double *>(ampc);
    if (bit == 1) {
        // Alternating (d0, d1) pattern: align to even b so the fixed
        // register pattern lines up.
        size_t b = b_lo;
        if ((b & 1) && b < b_hi) {
            ampc[b] *= d1;
            ++b;
        }
        const __m256d dr = _mm256_setr_pd(d0.real(), d0.real(),
                                          d1.real(), d1.real());
        const __m256d di = _mm256_setr_pd(d0.imag(), d0.imag(),
                                          d1.imag(), d1.imag());
        for (; b + 2 <= b_hi; b += 2) {
            const __m256d v = _mm256_loadu_pd(amp + 2 * b);
            _mm256_storeu_pd(amp + 2 * b, cmulBcast(v, dr, di));
        }
        if (b < b_hi)
            ampc[b] *= d0;
        return;
    }
    const __m256d d0r = _mm256_set1_pd(d0.real());
    const __m256d d0i = _mm256_set1_pd(d0.imag());
    const __m256d d1r = _mm256_set1_pd(d1.real());
    const __m256d d1i = _mm256_set1_pd(d1.imag());
    size_t b = b_lo;
    while (b < b_hi) {
        if ((b & (2 * bit - 1)) == 0 && b + 2 * bit <= b_hi) {
            // Whole blocks of 2 bit as a fixed loop nest: d0 on the
            // lower run, d1 on the upper.
            for (; b + 2 * bit <= b_hi; b += 2 * bit) {
                double *p0 = amp + 2 * b;
                double *p1 = p0 + 2 * bit;
                for (size_t i = 0; i < 2 * bit; i += 4) {
                    _mm256_storeu_pd(
                        p0 + i,
                        cmulBcast(_mm256_loadu_pd(p0 + i), d0r, d0i));
                    _mm256_storeu_pd(
                        p1 + i,
                        cmulBcast(_mm256_loadu_pd(p1 + i), d1r, d1i));
                }
            }
            continue;
        }
        // A partial run at either end of the range: the factor is
        // constant over each run of `bit` indices.
        const size_t runEnd =
            std::min<size_t>(b_hi, (b | (bit - 1)) + 1);
        const bool one = (b & bit) != 0;
        const __m256d fr = one ? d1r : d0r;
        const __m256d fi = one ? d1i : d0i;
        const cplx f = one ? d1 : d0;
        size_t i = b;
        for (; i + 2 <= runEnd; i += 2) {
            const __m256d v = _mm256_loadu_pd(amp + 2 * i);
            _mm256_storeu_pd(amp + 2 * i, cmulBcast(v, fr, fi));
        }
        for (; i < runEnd; ++i)
            ampc[i] *= f;
        b = runEnd;
    }
}

/** The pair (b, b^x) gathered into one register and rotated. */
QCC_AVX2 inline void
rotLonePair(double *amp, size_t b, uint64_t x, uint64_t z, __m256d cv,
            __m256d kr, __m256d ki)
{
    double *p = amp + 2 * b;
    double *p2 = amp + 2 * (b ^ x);
    storePair(p, p2,
              rotPairReg(loadPair(p, p2), paritySign(z, b), cv, kr, ki));
}

/**
 * The pivot >= 2 rotation of two neighbouring pairs: a = amp[b, b+1]
 * and a2 = amp[b^x, (b+1)^x] (x has bit 0 clear), sv = (s_b, s_b,
 * s_{b+1}, s_{b+1}), stored back to p = amp + 2b and p2 = amp +
 * 2(b^x).
 */
QCC_AVX2 inline void
rotTwoPairs(double *p, double *p2, __m256d a, __m256d a2, __m256d sv,
            __m256d cv, __m256d urv, __m256d uiv, __m256d vrv,
            __m256d viv)
{
    const __m256d xr = _mm256_mul_pd(sv, vrv);
    const __m256d xi = _mm256_mul_pd(sv, viv);
    const __m256d wr = _mm256_mul_pd(sv, urv);
    const __m256d wi = _mm256_mul_pd(sv, uiv);
    _mm256_storeu_pd(p, _mm256_fmadd_pd(a, cv, cmulBcast(a2, xr, xi)));
    _mm256_storeu_pd(p2, _mm256_fmadd_pd(a2, cv, cmulBcast(a, wr, wi)));
}

QCC_AVX2 void
pauliRotPairsAvx2(cplx *ampc, size_t k_lo, size_t k_hi, uint64_t x,
                  uint64_t z, uint64_t pivot, double c, double ur,
                  double ui, double vr, double vi)
{
    double *amp = reinterpret_cast<double *>(ampc);
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d kr = _mm256_setr_pd(vr, vr, ur, ur);
    const __m256d ki = _mm256_setr_pd(vi, vi, ui, ui);
    if (pivot == 1) {
        // x holds bit 0, so the partner of 2k sits in another register
        // (or, for x = 1, in the same one): gather each pair alone.
        for (size_t k = k_lo; k < k_hi; ++k)
            rotLonePair(amp, 2 * k, x, z, cv, kr, ki);
        return;
    }
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const __m256d urv = _mm256_set1_pd(ur);
    const __m256d uiv = _mm256_set1_pd(ui);
    const __m256d vrv = _mm256_set1_pd(vr);
    const __m256d viv = _mm256_set1_pd(vi);
    size_t k = k_lo;
    while (k < k_hi) {
        const size_t runStart = k & ~size_t(pivot - 1);
        const size_t runEnd =
            std::min<size_t>(k_hi, runStart + pivot);
        const size_t b0 = expandBit(runStart, pivot); // even
        const size_t len = runEnd - runStart;
        size_t j = k - runStart;
        if ((j & 1) && j < len) {
            rotLonePair(amp, b0 + j, x, z, cv, kr, ki);
            ++j;
        }
        for (; j + 2 <= len; j += 2) {
            const size_t b = b0 + j;
            const size_t b2 = b ^ x; // x bit0 clear: b2+1 = (b+1)^x
            const __m256d sv =
                _mm256_mul_pd(_mm256_set1_pd(paritySign(z, b)), evec);
            rotTwoPairs(amp + 2 * b, amp + 2 * b2,
                        _mm256_loadu_pd(amp + 2 * b),
                        _mm256_loadu_pd(amp + 2 * b2), sv, cv, urv, uiv,
                        vrv, viv);
        }
        if (j < len)
            rotLonePair(amp, b0 + j, x, z, cv, kr, ki);
        k = runEnd;
    }
}

/**
 * pauliRotDiagAvx2 on one amplitude in 128-bit lanes, with the
 * vector body's arithmetic: a range rounds alike however it is cut.
 */
QCC_AVX2 inline void
rotDiagOne(double *amp, size_t b, uint64_t z, __m256d hr, __m256d hi,
           __m256d dr, __m256d di)
{
    const __m128d s = _mm_set1_pd(paritySign(z, b));
    const __m128d fr = _mm_fmadd_pd(s, _mm256_castpd256_pd128(dr),
                                    _mm256_castpd256_pd128(hr));
    const __m128d fi = _mm_fmadd_pd(s, _mm256_castpd256_pd128(di),
                                    _mm256_castpd256_pd128(hi));
    const __m128d v = _mm_loadu_pd(amp + 2 * b);
    _mm_storeu_pd(amp + 2 * b,
                  _mm_fmaddsub_pd(v, fr,
                                  _mm_mul_pd(_mm_shuffle_pd(v, v, 0x1), fi)));
}

QCC_AVX2 void
pauliRotDiagAvx2(cplx *ampc, size_t b_lo, size_t b_hi, uint64_t z,
                 cplx f_even, cplx f_odd)
{
    double *amp = reinterpret_cast<double *>(ampc);
    // factor(b) = h + s_b * d with s_b = (-1)^{|z & b|}.
    const cplx h = 0.5 * (f_even + f_odd);
    const cplx d = 0.5 * (f_even - f_odd);
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const __m256d hr = _mm256_set1_pd(h.real());
    const __m256d hi = _mm256_set1_pd(h.imag());
    const __m256d dr = _mm256_set1_pd(d.real());
    const __m256d di = _mm256_set1_pd(d.imag());
    size_t b = b_lo;
    if ((b & 1) && b < b_hi)
        rotDiagOne(amp, b++, z, hr, hi, dr, di);
    for (; b + 2 <= b_hi; b += 2) {
        const double s0 = paritySign(z, b);
        const __m256d sv = _mm256_mul_pd(_mm256_set1_pd(s0), evec);
        const __m256d fr = _mm256_fmadd_pd(sv, dr, hr);
        const __m256d fi = _mm256_fmadd_pd(sv, di, hi);
        const __m256d v = _mm256_loadu_pd(amp + 2 * b);
        _mm256_storeu_pd(amp + 2 * b, cmulBcast(v, fr, fi));
    }
    if (b < b_hi)
        rotDiagOne(amp, b, z, hr, hi, dr, di);
}

/**
 * One pair's share of pauliInnerRotPairsAvx2's sum in the scalar
 * accumulators, then the pair rotated in both states. A function
 * rather than a lambda, so it compiles for this target wherever it
 * is inlined.
 */
QCC_AVX2 inline void
innerRotLonePair(cplx *brac, cplx *ketc, size_t b, uint64_t x,
                 uint64_t z, __m256d cv, __m256d kr, __m256d ki,
                 double &pr, double &pi, double &qr, double &qi)
{
    const size_t b2 = b ^ x;
    const double sb = paritySign(z, b);
    addConjMul(sb, brac[b], ketc[b2], pr, pi);
    addConjMul(sb, brac[b2], ketc[b], qr, qi);
    rotLonePair(reinterpret_cast<double *>(brac), b, x, z, cv, kr, ki);
    rotLonePair(reinterpret_cast<double *>(ketc), b, x, z, cv, kr, ki);
}

QCC_AVX2 cplx
pauliInnerRotPairsAvx2(cplx *brac, cplx *ketc, size_t k_lo, size_t k_hi,
                       uint64_t x, uint64_t z, uint64_t pivot,
                       double sigma, double c, double ur, double ui,
                       double vr, double vi)
{
    double *bra = reinterpret_cast<double *>(brac);
    double *ket = reinterpret_cast<double *>(ketc);
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d kr = _mm256_setr_pd(vr, vr, ur, ur);
    const __m256d ki = _mm256_setr_pd(vi, vi, ui, ui);
    // p sums conj(bra[b]) ket[b^x], q sums conj(bra[b^x]) ket[b].
    cplx p(0.0), q(0.0);
    if (pivot == 1) {
        // x holds bit 0: gathered u = (bra[b], bra[b^x]) and v =
        // (ket[b], ket[b^x]), b = 2k; conj(u) * swapped v is the p
        // term in the low complex and the q term in the high one.
        __m256d re = _mm256_setzero_pd(), im = _mm256_setzero_pd();
        for (size_t k = k_lo; k < k_hi; ++k) {
            const size_t b = 2 * k, b2 = b ^ x;
            const double sb = paritySign(z, b);
            const __m256d u = loadPair(bra + 2 * b, bra + 2 * b2);
            const __m256d v = loadPair(ket + 2 * b, ket + 2 * b2);
            conjMulAcc(_mm256_set1_pd(sb), u, swapHalves(v), re, im);
            storePair(bra + 2 * b, bra + 2 * b2,
                      rotPairReg(u, sb, cv, kr, ki));
            storePair(ket + 2 * b, ket + 2 * b2,
                      rotPairReg(v, sb, cv, kr, ki));
        }
        conjMulSums(re, im, p, q);
        return cplx(sigma * p.real() + q.real(),
                    sigma * p.imag() + q.imag());
    }
    // (pr, pi, qr, qi) take the pairs done one at a time.
    double pr = 0.0, pi = 0.0, qr = 0.0, qi = 0.0;
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const __m256d urv = _mm256_set1_pd(ur);
    const __m256d uiv = _mm256_set1_pd(ui);
    const __m256d vrv = _mm256_set1_pd(vr);
    const __m256d viv = _mm256_set1_pd(vi);
    __m256d pre = _mm256_setzero_pd(), pim = _mm256_setzero_pd();
    __m256d qre = _mm256_setzero_pd(), qim = _mm256_setzero_pd();
    size_t k = k_lo;
    while (k < k_hi) {
        const size_t runStart = k & ~size_t(pivot - 1);
        const size_t runEnd = std::min<size_t>(k_hi, runStart + pivot);
        const size_t b0 = expandBit(runStart, pivot);
        const size_t len = runEnd - runStart;
        size_t j = k - runStart;
        if ((j & 1) && j < len)
            innerRotLonePair(brac, ketc, b0 + j++, x, z, cv, kr, ki, pr,
                             pi, qr, qi);
        for (; j + 2 <= len; j += 2) {
            const size_t b = b0 + j;
            const size_t b2 = b ^ x;
            const __m256d sv =
                _mm256_mul_pd(_mm256_set1_pd(paritySign(z, b)), evec);
            const __m256d u = _mm256_loadu_pd(bra + 2 * b);
            const __m256d u2 = _mm256_loadu_pd(bra + 2 * b2);
            const __m256d v = _mm256_loadu_pd(ket + 2 * b);
            const __m256d v2 = _mm256_loadu_pd(ket + 2 * b2);
            conjMulAcc(sv, u, v2, pre, pim);
            conjMulAcc(sv, u2, v, qre, qim);
            rotTwoPairs(bra + 2 * b, bra + 2 * b2, u, u2, sv, cv, urv,
                        uiv, vrv, viv);
            rotTwoPairs(ket + 2 * b, ket + 2 * b2, v, v2, sv, cv, urv,
                        uiv, vrv, viv);
        }
        if (j < len)
            innerRotLonePair(brac, ketc, b0 + j, x, z, cv, kr, ki, pr, pi,
                             qr, qi);
        k = runEnd;
    }
    cplx p1, q1;
    conjMulSums(pre, pim, p, p1);
    conjMulSums(qre, qim, q, q1);
    p += p1;
    q += q1;
    p += cplx(pr, pi);
    q += cplx(qr, qi);
    return cplx(sigma * p.real() + q.real(), sigma * p.imag() + q.imag());
}

/**
 * maskMatvec on one amplitude in 128-bit lanes: lane for lane the
 * arithmetic of the four-amplitude body, so results do not depend on
 * where a range starts or ends.
 */
QCC_AVX2 inline void
maskMatvecOneAvx2(double *out, const double *v, size_t b, uint64_t x,
                  const uint64_t *z, const double *wr, const double *wi,
                  size_t n_terms)
{
    double fr, fi;
    maskPhase(b, z, wr, wi, n_terms, fr, fi);
    const __m128d a = _mm_loadu_pd(v + 2 * (b ^ x));
    const __m128d prod = _mm_fmaddsub_pd(
        a, _mm_set1_pd(fr),
        _mm_mul_pd(_mm_shuffle_pd(a, a, 0x1), _mm_set1_pd(fi)));
    _mm_storeu_pd(out + 2 * b,
                  _mm_add_pd(_mm_loadu_pd(out + 2 * b), prod));
}

QCC_AVX2 void
maskMatvecAvx2(cplx *outc, const cplx *vc, size_t b_lo, size_t b_hi,
               uint64_t x, const uint64_t *z, const double *wr,
               const double *wi, size_t n_terms)
{
    double *out = reinterpret_cast<double *>(outc);
    const double *v = reinterpret_cast<const double *>(vc);
    // Sign patterns of z's low three bits over eight amplitudes
    // b..b+7 (b a multiple of 8), each duplicated over a complex's
    // two lanes: pat[c][h] covers (b + 2h, b + 2h + 1). Eight
    // amplitudes give eight independent FMA chains per term.
    struct Patterns
    {
        double v[8][4][4];
    };
    static const Patterns pat = [] {
        Patterns p{};
        for (unsigned c = 0; c < 8; ++c) {
            for (unsigned i = 0; i < 8; ++i) {
                const double s = (std::popcount(c & i) & 1) ? -1.0 : 1.0;
                p.v[c][i / 2][2 * (i & 1)] = s;
                p.v[c][i / 2][2 * (i & 1) + 1] = s;
            }
        }
        return p;
    }();
    const uint64_t xl = x & 7;
    size_t b = b_lo;
    for (; b < b_hi && (b & 7); ++b)
        maskMatvecOneAvx2(out, v, b, x, z, wr, wi, n_terms);
    for (; b + 8 <= b_hi; b += 8) {
        __m256d fr[4], fi[4];
        for (int h = 0; h < 4; ++h)
            fr[h] = fi[h] = _mm256_setzero_pd();
        for (size_t t = 0; t < n_terms; ++t) {
            const uint64_t zm = z[t];
            const double s = paritySign(zm & ~uint64_t{7}, b);
            const __m256d sr = _mm256_set1_pd(s * wr[t]);
            const __m256d si = _mm256_set1_pd(s * wi[t]);
            for (int h = 0; h < 4; ++h) {
                const __m256d ph = _mm256_loadu_pd(pat.v[zm & 7][h]);
                fr[h] = _mm256_fmadd_pd(ph, sr, fr[h]);
                fi[h] = _mm256_fmadd_pd(ph, si, fi[h]);
            }
        }
        // v[(b + i) ^ x] is entry i ^ (x & 7) of the aligned block at
        // (b ^ x) & ~7: register h reads register h ^ (xl >> 1) of
        // that block, its halves swapped when x holds bit 0.
        const double *src = v + 2 * ((b ^ x) & ~uint64_t{7});
        double *o = out + 2 * b;
        for (int h = 0; h < 4; ++h) {
            __m256d w = _mm256_loadu_pd(src + 4 * (h ^ (xl >> 1)));
            if (xl & 1)
                w = swapHalves(w);
            _mm256_storeu_pd(o + 4 * h,
                             _mm256_add_pd(_mm256_loadu_pd(o + 4 * h),
                                           cmulBcast(w, fr[h], fi[h])));
        }
    }
    for (; b < b_hi; ++b)
        maskMatvecOneAvx2(out, v, b, x, z, wr, wi, n_terms);
}

} // namespace

#endif // QCC_SIMD_X86

// ---------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------

void
apply1q(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit,
        const cplx u[4])
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        apply1qAvx2(amp, k_lo, k_hi, bit, u);
        return;
    }
#endif
    apply1qScalar(amp, k_lo, k_hi, bit, u);
}

void
diag1q(cplx *amp, size_t b_lo, size_t b_hi, uint64_t bit, cplx d0,
       cplx d1)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        diag1qAvx2(amp, b_lo, b_hi, bit, d0, d1);
        return;
    }
#endif
    diag1qScalar(amp, b_lo, b_hi, bit, d0, d1);
}

void
pauliRotPairs(cplx *amp, size_t k_lo, size_t k_hi, uint64_t x,
              uint64_t z, uint64_t pivot, double c, double ur,
              double ui, double vr, double vi)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        pauliRotPairsAvx2(amp, k_lo, k_hi, x, z, pivot, c, ur, ui,
                          vr, vi);
        return;
    }
#endif
    pauliRotPairsScalar(amp, k_lo, k_hi, x, z, pivot, c, ur, ui, vr,
                        vi);
}

void
pauliRotDiag(cplx *amp, size_t b_lo, size_t b_hi, uint64_t z,
             cplx f_even, cplx f_odd)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        pauliRotDiagAvx2(amp, b_lo, b_hi, z, f_even, f_odd);
        return;
    }
#endif
    pauliRotDiagScalar(amp, b_lo, b_hi, z, f_even, f_odd);
}

cplx
pauliInnerRotPairs(cplx *bra, cplx *ket, size_t k_lo, size_t k_hi,
                   uint64_t x, uint64_t z, uint64_t pivot, double sigma,
                   double c, double ur, double ui, double vr, double vi)
{
#ifdef QCC_SIMD_X86
    if (simdActive())
        return pauliInnerRotPairsAvx2(bra, ket, k_lo, k_hi, x, z, pivot,
                                      sigma, c, ur, ui, vr, vi);
#endif
    return pauliInnerRotPairsScalar(bra, ket, k_lo, k_hi, x, z, pivot,
                                    sigma, c, ur, ui, vr, vi);
}

void
maskMatvec(cplx *out, const cplx *v, size_t b_lo, size_t b_hi,
           uint64_t x, const uint64_t *z, const double *wr,
           const double *wi, size_t n_terms)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        maskMatvecAvx2(out, v, b_lo, b_hi, x, z, wr, wi, n_terms);
        return;
    }
#endif
    maskMatvecScalar(out, v, b_lo, b_hi, x, z, wr, wi, n_terms);
}

} // namespace ranges
} // namespace kern
} // namespace qcc
