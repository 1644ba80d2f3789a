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
 *    pair of amplitudes (or per 4, in the grouped sweep) suffices.
 *  - diagonalGroupExpectation uses _mm256_hadd_pd, which interleaves
 *    lanes as (b, b+2, b+1, b+3); the per-term low-bit sign patterns
 *    are stored in that order so the FMA accumulation lines up.
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

/** One expectation pair contribution (partial sum, unscaled). */
inline double
expectPairOne(const cplx *amp, size_t b, size_t b2, uint64_t z,
              bool sigma_pos)
{
    const double sb = paritySign(z, b);
    if (sigma_pos)
        return sb * (amp[b].real() * amp[b2].real() +
                     amp[b].imag() * amp[b2].imag());
    return sb * (amp[b].real() * amp[b2].imag() -
                 amp[b].imag() * amp[b2].real());
}

/**
 * The CNOT on a two-bit pair state s (bit 0 the lower qubit): it
 * flips the target bit when the control bit is set. The map is its
 * own inverse, so the permuted block reads new[s] = old[perm[s]].
 */
inline const int *
cxPerm(bool control_low)
{
    static const int lowControl[4] = {0, 3, 2, 1};
    static const int highControl[4] = {0, 1, 3, 2};
    return control_low ? lowControl : highControl;
}

inline double
groupExpectOne(const cplx *amp, size_t b, uint64_t g, const double *w,
               const uint64_t *zmask, size_t n_terms)
{
    const double p = std::norm(amp[b]);
    double s = 0.0;
    for (size_t t = 0; t < n_terms; ++t)
        s += w[t] * paritySign(zmask[t], g) * p;
    return s;
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
diagMulScalar(cplx *amp, size_t b_lo, size_t b_hi,
              const cplx *pattern, uint64_t pat_mask, cplx scale)
{
    for (size_t b = b_lo; b < b_hi; ++b)
        amp[b] *= scale * pattern[b & pat_mask];
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

double
expectPairsScalar(const cplx *amp, size_t k_lo, size_t k_hi,
                  uint64_t x, uint64_t z, uint64_t pivot,
                  bool sigma_pos)
{
    double s = 0.0;
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = expandBit(k, pivot);
        s += expectPairOne(amp, b, b ^ x, z, sigma_pos);
    }
    return s;
}

double
expectDiagScalar(const cplx *amp, size_t b_lo, size_t b_hi,
                 uint64_t z)
{
    double s = 0.0;
    for (size_t b = b_lo; b < b_hi; ++b)
        s += paritySign(z, b) * std::norm(amp[b]);
    return s;
}

double
groupExpectScalar(const cplx *amp, size_t b_lo, size_t b_hi,
                  uint64_t b_offset, const double *w,
                  const uint64_t *zmask, size_t n_terms)
{
    double s = 0.0;
    for (size_t b = b_lo; b < b_hi; ++b)
        s += groupExpectOne(amp, b, b_offset | b, w, zmask, n_terms);
    return s;
}

void
depolarize1Scalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t kbit,
                  uint64_t bbit, double keep, double mix)
{
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t base = expandBit(expandBit(k, kbit), bbit);
        const cplx tr = amp[base] + amp[base | kbit | bbit];
        amp[base] = keep * amp[base] + mix * tr;
        amp[base | kbit | bbit] =
            keep * amp[base | kbit | bbit] + mix * tr;
        amp[base | kbit] *= keep;
        amp[base | bbit] *= keep;
    }
}

void
depolarize2Scalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t ka,
                  uint64_t kb, uint64_t ba, uint64_t bb, double keep,
                  double mix)
{
    const uint64_t sub[4] = {0, ka, kb, ka | kb};
    const uint64_t bsub[4] = {0, ba, bb, ba | bb};
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t base = expandBit(
            expandBit(expandBit(expandBit(k, ka), kb), ba), bb);
        cplx tr = 0.0;
        for (int s = 0; s < 4; ++s)
            tr += amp[base | sub[s] | bsub[s]];
        for (int s1 = 0; s1 < 4; ++s1) {
            for (int s2 = 0; s2 < 4; ++s2) {
                const size_t idx = base | sub[s1] | bsub[s2];
                amp[idx] *= keep;
                if (s1 == s2)
                    amp[idx] += mix * tr;
            }
        }
    }
}

void
cxDepolarize2Scalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t ka,
                    uint64_t kb, uint64_t ba, uint64_t bb,
                    bool control_low, double keep, double mix)
{
    const int *perm = cxPerm(control_low);
    const uint64_t sub[4] = {0, ka, kb, ka | kb};
    const uint64_t bsub[4] = {0, ba, bb, ba | bb};
    const bool noisy = keep != 1.0 || mix != 0.0;
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t base = expandBit(
            expandBit(expandBit(expandBit(k, ka), kb), ba), bb);
        cplx v[4][4];
        for (int s1 = 0; s1 < 4; ++s1)
            for (int s2 = 0; s2 < 4; ++s2)
                v[s1][s2] = amp[base | sub[perm[s1]] | bsub[perm[s2]]];
        if (noisy) {
            // The same operations in the same order as
            // depolarize2Scalar on the permuted block, so the fused
            // sweep rounds exactly like the three-sweep sequence.
            cplx tr = 0.0;
            for (int s = 0; s < 4; ++s)
                tr += v[s][s];
            for (int s1 = 0; s1 < 4; ++s1) {
                for (int s2 = 0; s2 < 4; ++s2) {
                    v[s1][s2] *= keep;
                    if (s1 == s2)
                        v[s1][s2] += mix * tr;
                }
            }
        }
        for (int s1 = 0; s1 < 4; ++s1)
            for (int s2 = 0; s2 < 4; ++s2)
                amp[base | sub[s1] | bsub[s2]] = v[s1][s2];
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

/** Full complex product of two packed-complex registers. */
QCC_AVX2 inline __m256d
cmulVar(__m256d a, __m256d b)
{
    const __m256d br = _mm256_movedup_pd(b);
    const __m256d bi = _mm256_permute_pd(b, 0xF);
    return cmulBcast(a, br, bi);
}

QCC_AVX2 inline double
hsum(__m256d v)
{
    __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
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
        // The factor is constant over each run of `bit` indices.
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

QCC_AVX2 void
diagMulAvx2(cplx *ampc, size_t b_lo, size_t b_hi,
            const cplx *patternc, uint64_t pat_mask, cplx scale)
{
    double *amp = reinterpret_cast<double *>(ampc);
    const double *pat = reinterpret_cast<const double *>(patternc);
    if (pat_mask == 0) {
        const cplx f = scale * patternc[0];
        const __m256d fr = _mm256_set1_pd(f.real());
        const __m256d fi = _mm256_set1_pd(f.imag());
        size_t b = b_lo;
        for (; b + 2 <= b_hi; b += 2) {
            const __m256d v = _mm256_loadu_pd(amp + 2 * b);
            _mm256_storeu_pd(amp + 2 * b, cmulBcast(v, fr, fi));
        }
        if (b < b_hi)
            ampc[b] *= f;
        return;
    }
    // pat_mask is odd (power-of-two length), so even-aligned index
    // pairs never straddle the pattern wrap.
    const __m256d sr = _mm256_set1_pd(scale.real());
    const __m256d si = _mm256_set1_pd(scale.imag());
    size_t b = b_lo;
    if ((b & 1) && b < b_hi) {
        ampc[b] *= scale * patternc[b & pat_mask];
        ++b;
    }
    for (; b + 2 <= b_hi; b += 2) {
        const __m256d a = _mm256_loadu_pd(amp + 2 * b);
        const __m256d p =
            _mm256_loadu_pd(pat + 2 * (b & pat_mask));
        _mm256_storeu_pd(amp + 2 * b,
                         cmulVar(a, cmulBcast(p, sr, si)));
    }
    if (b < b_hi)
        ampc[b] *= scale * patternc[b & pat_mask];
}

QCC_AVX2 void
pauliRotPairsAvx2(cplx *ampc, size_t k_lo, size_t k_hi, uint64_t x,
                  uint64_t z, uint64_t pivot, double c, double ur,
                  double ui, double vr, double vi)
{
    if (pivot < 2) {
        // x touches bit 0: pairs are interleaved, not worth shuffling.
        pauliRotPairsScalar(ampc, k_lo, k_hi, x, z, pivot, c, ur, ui,
                            vr, vi);
        return;
    }
    double *amp = reinterpret_cast<double *>(ampc);
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const __m256d cv = _mm256_set1_pd(c);
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
            rotPairOne(ampc, b0 + j, (b0 + j) ^ x, z, c, ur, ui, vr,
                       vi);
            ++j;
        }
        for (; j + 2 <= len; j += 2) {
            const size_t b = b0 + j;
            const size_t b2 = b ^ x; // x bit0 clear: b2+1 = (b+1)^x
            const double s0 = paritySign(z, b);
            const __m256d sv =
                _mm256_mul_pd(_mm256_set1_pd(s0), evec);
            const __m256d a = _mm256_loadu_pd(amp + 2 * b);
            const __m256d a2 = _mm256_loadu_pd(amp + 2 * b2);
            const __m256d xr = _mm256_mul_pd(sv, vrv);
            const __m256d xi = _mm256_mul_pd(sv, viv);
            const __m256d wr = _mm256_mul_pd(sv, urv);
            const __m256d wi = _mm256_mul_pd(sv, uiv);
            _mm256_storeu_pd(
                amp + 2 * b,
                _mm256_fmadd_pd(a, cv, cmulBcast(a2, xr, xi)));
            _mm256_storeu_pd(
                amp + 2 * b2,
                _mm256_fmadd_pd(a2, cv, cmulBcast(a, wr, wi)));
        }
        for (; j < len; ++j)
            rotPairOne(ampc, b0 + j, (b0 + j) ^ x, z, c, ur, ui, vr,
                       vi);
        k = runEnd;
    }
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
    if ((b & 1) && b < b_hi) {
        ampc[b] *= (std::popcount(z & b) & 1) ? f_odd : f_even;
        ++b;
    }
    for (; b + 2 <= b_hi; b += 2) {
        const double s0 = paritySign(z, b);
        const __m256d sv = _mm256_mul_pd(_mm256_set1_pd(s0), evec);
        const __m256d fr = _mm256_fmadd_pd(sv, dr, hr);
        const __m256d fi = _mm256_fmadd_pd(sv, di, hi);
        const __m256d v = _mm256_loadu_pd(amp + 2 * b);
        _mm256_storeu_pd(amp + 2 * b, cmulBcast(v, fr, fi));
    }
    for (; b < b_hi; ++b)
        ampc[b] *= (std::popcount(z & b) & 1) ? f_odd : f_even;
}

QCC_AVX2 double
expectPairsAvx2(const cplx *ampc, size_t k_lo, size_t k_hi,
                uint64_t x, uint64_t z, uint64_t pivot,
                bool sigma_pos)
{
    if (pivot < 2)
        return expectPairsScalar(ampc, k_lo, k_hi, x, z, pivot,
                                 sigma_pos);
    const double *amp = reinterpret_cast<const double *>(ampc);
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const __m256d evenMask = _mm256_castsi256_pd(
        _mm256_setr_epi64x(-1, 0, -1, 0));
    __m256d acc = _mm256_setzero_pd();
    double tail = 0.0;
    size_t k = k_lo;
    while (k < k_hi) {
        const size_t runStart = k & ~size_t(pivot - 1);
        const size_t runEnd =
            std::min<size_t>(k_hi, runStart + pivot);
        const size_t b0 = expandBit(runStart, pivot);
        const size_t len = runEnd - runStart;
        size_t j = k - runStart;
        if ((j & 1) && j < len) {
            tail += expectPairOne(ampc, b0 + j, (b0 + j) ^ x, z,
                                  sigma_pos);
            ++j;
        }
        for (; j + 2 <= len; j += 2) {
            const size_t b = b0 + j;
            const size_t b2 = b ^ x;
            const double s0 = paritySign(z, b);
            const __m256d sv =
                _mm256_mul_pd(_mm256_set1_pd(s0), evec);
            const __m256d a = _mm256_loadu_pd(amp + 2 * b);
            const __m256d a2 = _mm256_loadu_pd(amp + 2 * b2);
            __m256d t;
            if (sigma_pos) {
                const __m256d m = _mm256_mul_pd(a, a2);
                t = _mm256_add_pd(m, _mm256_shuffle_pd(m, m, 0x5));
            } else {
                const __m256d as = _mm256_shuffle_pd(a, a, 0x5);
                const __m256d m = _mm256_mul_pd(as, a2);
                t = _mm256_sub_pd(_mm256_shuffle_pd(m, m, 0x5), m);
            }
            t = _mm256_and_pd(t, evenMask);
            acc = _mm256_fmadd_pd(t, sv, acc);
        }
        for (; j < len; ++j)
            tail += expectPairOne(ampc, b0 + j, (b0 + j) ^ x, z,
                                  sigma_pos);
        k = runEnd;
    }
    return hsum(acc) + tail;
}

QCC_AVX2 double
expectDiagAvx2(const cplx *ampc, size_t b_lo, size_t b_hi, uint64_t z)
{
    const double *amp = reinterpret_cast<const double *>(ampc);
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const __m256d evenMask = _mm256_castsi256_pd(
        _mm256_setr_epi64x(-1, 0, -1, 0));
    __m256d acc = _mm256_setzero_pd();
    double tail = 0.0;
    size_t b = b_lo;
    if ((b & 1) && b < b_hi) {
        tail += paritySign(z, b) * std::norm(ampc[b]);
        ++b;
    }
    for (; b + 2 <= b_hi; b += 2) {
        const double s0 = paritySign(z, b);
        const __m256d sv = _mm256_mul_pd(_mm256_set1_pd(s0), evec);
        const __m256d a = _mm256_loadu_pd(amp + 2 * b);
        const __m256d m = _mm256_mul_pd(a, a);
        __m256d t = _mm256_add_pd(m, _mm256_shuffle_pd(m, m, 0x5));
        t = _mm256_and_pd(t, evenMask);
        acc = _mm256_fmadd_pd(t, sv, acc);
    }
    for (; b < b_hi; ++b)
        tail += paritySign(z, b) * std::norm(ampc[b]);
    return hsum(acc) + tail;
}

QCC_AVX2 double
groupExpectAvx2(const cplx *ampc, size_t b_lo, size_t b_hi,
                uint64_t b_offset, const double *w,
                const uint64_t *zmask, size_t n_terms)
{
    const double *amp = reinterpret_cast<const double *>(ampc);
    // Per-term sign patterns over the low two index bits, in the
    // (b, b+2, b+1, b+3) lane order produced by hadd below.
    static const double patTable[4][4] = {
        {1.0, 1.0, 1.0, 1.0},
        {1.0, 1.0, -1.0, -1.0},
        {1.0, -1.0, 1.0, -1.0},
        {1.0, -1.0, -1.0, 1.0},
    };
    const __m256d pats[4] = {
        _mm256_loadu_pd(patTable[0]),
        _mm256_loadu_pd(patTable[1]),
        _mm256_loadu_pd(patTable[2]),
        _mm256_loadu_pd(patTable[3]),
    };
    __m256d acc = _mm256_setzero_pd();
    double tail = 0.0;
    size_t b = b_lo;
    for (; b < b_hi && ((b_offset | b) & 3); ++b)
        tail += groupExpectOne(ampc, b, b_offset | b, w, zmask,
                               n_terms);
    for (; b + 4 <= b_hi; b += 4) {
        const uint64_t g = b_offset | b;
        const __m256d v0 = _mm256_loadu_pd(amp + 2 * b);
        const __m256d v1 = _mm256_loadu_pd(amp + 2 * b + 4);
        const __m256d p = _mm256_hadd_pd(_mm256_mul_pd(v0, v0),
                                         _mm256_mul_pd(v1, v1));
        for (size_t t = 0; t < n_terms; ++t) {
            const uint64_t zm = zmask[t];
            const double ws = w[t] * paritySign(zm & ~3ull, g);
            acc = _mm256_fmadd_pd(_mm256_mul_pd(p, pats[zm & 3]),
                                  _mm256_set1_pd(ws), acc);
        }
    }
    for (; b < b_hi; ++b)
        tail += groupExpectOne(ampc, b, b_offset | b, w, zmask,
                               n_terms);
    return hsum(acc) + tail;
}

QCC_AVX2 void
depolarize1Avx2(cplx *ampc, size_t k_lo, size_t k_hi, uint64_t kbit,
                uint64_t bbit, double keep, double mix)
{
    if (kbit < 2) {
        // Runs shorter than one register: the scalar sweep wins.
        depolarize1Scalar(ampc, k_lo, k_hi, kbit, bbit, keep, mix);
        return;
    }
    double *amp = reinterpret_cast<double *>(ampc);
    const __m256d keepv = _mm256_set1_pd(keep);
    const __m256d mixv = _mm256_set1_pd(mix);
    size_t k = k_lo;
    while (k < k_hi) {
        // Low k bits below kbit map 1:1 onto base, so each k-run is
        // four contiguous amplitude streams (one per block entry).
        const size_t runEnd =
            std::min<size_t>(k_hi, (k | (kbit - 1)) + 1);
        const size_t base = expandBit(expandBit(k, kbit), bbit);
        double *p00 = amp + 2 * base;
        double *p01 = amp + 2 * (base | kbit);
        double *p10 = amp + 2 * (base | bbit);
        double *p11 = amp + 2 * (base | kbit | bbit);
        const size_t len = runEnd - k;
        size_t i = 0;
        for (; i + 2 <= len; i += 2) {
            const __m256d a00 = _mm256_loadu_pd(p00 + 2 * i);
            const __m256d a11 = _mm256_loadu_pd(p11 + 2 * i);
            // keep/mix are real, so packed complex scales are plain
            // element-wise mul/fmadd.
            const __m256d tr = _mm256_add_pd(a00, a11);
            _mm256_storeu_pd(p00 + 2 * i,
                             _mm256_fmadd_pd(
                                 mixv, tr,
                                 _mm256_mul_pd(keepv, a00)));
            _mm256_storeu_pd(p11 + 2 * i,
                             _mm256_fmadd_pd(
                                 mixv, tr,
                                 _mm256_mul_pd(keepv, a11)));
            _mm256_storeu_pd(
                p01 + 2 * i,
                _mm256_mul_pd(keepv,
                              _mm256_loadu_pd(p01 + 2 * i)));
            _mm256_storeu_pd(
                p10 + 2 * i,
                _mm256_mul_pd(keepv,
                              _mm256_loadu_pd(p10 + 2 * i)));
        }
        if (i < len)
            depolarize1Scalar(ampc, k + i, runEnd, kbit, bbit, keep,
                              mix);
        k = runEnd;
    }
}

QCC_AVX2 void
depolarize2Avx2(cplx *ampc, size_t k_lo, size_t k_hi, uint64_t ka,
                uint64_t kb, uint64_t ba, uint64_t bb, double keep,
                double mix)
{
    if (ka < 2) {
        depolarize2Scalar(ampc, k_lo, k_hi, ka, kb, ba, bb, keep,
                          mix);
        return;
    }
    double *amp = reinterpret_cast<double *>(ampc);
    const __m256d keepv = _mm256_set1_pd(keep);
    const __m256d mixv = _mm256_set1_pd(mix);
    const uint64_t sub[4] = {0, ka, kb, ka | kb};
    const uint64_t bsub[4] = {0, ba, bb, ba | bb};
    size_t k = k_lo;
    while (k < k_hi) {
        const size_t runEnd =
            std::min<size_t>(k_hi, (k | (ka - 1)) + 1);
        const size_t base = expandBit(
            expandBit(expandBit(expandBit(k, ka), kb), ba), bb);
        // 16 contiguous streams, one per 4x4 block entry.
        double *p[4][4];
        for (int s1 = 0; s1 < 4; ++s1)
            for (int s2 = 0; s2 < 4; ++s2)
                p[s1][s2] = amp + 2 * (base | sub[s1] | bsub[s2]);
        const size_t len = runEnd - k;
        size_t i = 0;
        for (; i + 2 <= len; i += 2) {
            __m256d tr = _mm256_loadu_pd(p[0][0] + 2 * i);
            for (int s = 1; s < 4; ++s)
                tr = _mm256_add_pd(tr,
                                   _mm256_loadu_pd(p[s][s] + 2 * i));
            for (int s1 = 0; s1 < 4; ++s1) {
                for (int s2 = 0; s2 < 4; ++s2) {
                    __m256d v = _mm256_mul_pd(
                        keepv, _mm256_loadu_pd(p[s1][s2] + 2 * i));
                    if (s1 == s2)
                        v = _mm256_fmadd_pd(mixv, tr, v);
                    _mm256_storeu_pd(p[s1][s2] + 2 * i, v);
                }
            }
        }
        if (i < len)
            depolarize2Scalar(ampc, k + i, runEnd, ka, kb, ba, bb,
                              keep, mix);
        k = runEnd;
    }
}

/**
 * cxDepolarize2Avx2 for a pair on qubit 0 (ka == 1). The two ket
 * states that differ in bit 0 are adjacent, so one register holds a
 * (bit 0 clear, bit 0 set) lane pair: eight registers per block, and
 * the CNOT is a lane blend across the two ket rows (control on qubit
 * 0) or a lane swap within the upper row (target on qubit 0).
 */
QCC_AVX2 void
cxDepolarize2Qubit0Avx2(cplx *ampc, size_t k_lo, size_t k_hi,
                        uint64_t kb, uint64_t ba, uint64_t bb,
                        bool control_low, double keep, double mix)
{
    double *amp = reinterpret_cast<double *>(ampc);
    const int *perm = cxPerm(control_low);
    const bool noisy = keep != 1.0 || mix != 0.0;
    const __m256d keepv = _mm256_set1_pd(keep);
    const __m128d mixv = _mm_set1_pd(mix);
    const __m128d zero = _mm_setzero_pd();
    const uint64_t bsub[4] = {0, ba, bb, ba | bb};
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t base = expandBit(
            expandBit(expandBit(expandBit(k, 1), kb), ba), bb);
        // r[h][s2]: ket states (2h, 2h + 1) against bra state s2.
        double *row[2] = {amp + 2 * base, amp + 2 * (base | kb)};
        __m256d r[2][4], v[2][4];
        for (int h = 0; h < 2; ++h)
            for (int s2 = 0; s2 < 4; ++s2)
                r[h][s2] = _mm256_loadu_pd(row[h] + 2 * bsub[s2]);
        for (int s2 = 0; s2 < 4; ++s2) {
            const int ps = perm[s2];
            if (control_low) {
                v[0][s2] = _mm256_blend_pd(r[0][ps], r[1][ps], 0xC);
                v[1][s2] = _mm256_blend_pd(r[1][ps], r[0][ps], 0xC);
            } else {
                v[0][s2] = r[0][ps];
                v[1][s2] =
                    _mm256_permute2f128_pd(r[1][ps], r[1][ps], 0x01);
            }
        }
        if (noisy) {
            // Diagonal entry s is lane s & 1 of v[s >> 1][s]; sum
            // them in depolarize2Scalar's order.
            __m128d tr = _mm_setzero_pd();
            for (int s = 0; s < 4; ++s)
                tr = _mm_add_pd(
                    tr, (s & 1) ? _mm256_extractf128_pd(v[s >> 1][s], 1)
                                : _mm256_castpd256_pd128(v[s >> 1][s]));
            const __m128d mtr = _mm_mul_pd(mixv, tr);
            const __m256d addLow = _mm256_set_m128d(zero, mtr);
            const __m256d addHigh = _mm256_set_m128d(mtr, zero);
            for (int h = 0; h < 2; ++h) {
                for (int s2 = 0; s2 < 4; ++s2) {
                    v[h][s2] = _mm256_mul_pd(keepv, v[h][s2]);
                    if (s2 >> 1 == h)
                        v[h][s2] = _mm256_add_pd(
                            v[h][s2], (s2 & 1) ? addHigh : addLow);
                }
            }
        }
        for (int h = 0; h < 2; ++h)
            for (int s2 = 0; s2 < 4; ++s2)
                _mm256_storeu_pd(row[h] + 2 * bsub[s2], v[h][s2]);
    }
}

QCC_AVX2 void
cxDepolarize2Avx2(cplx *ampc, size_t k_lo, size_t k_hi, uint64_t ka,
                  uint64_t kb, uint64_t ba, uint64_t bb,
                  bool control_low, double keep, double mix)
{
    if (ka == 1) {
        cxDepolarize2Qubit0Avx2(ampc, k_lo, k_hi, kb, ba, bb,
                                control_low, keep, mix);
        return;
    }
    double *amp = reinterpret_cast<double *>(ampc);
    const int *perm = cxPerm(control_low);
    const bool noisy = keep != 1.0 || mix != 0.0;
    const __m256d keepv = _mm256_set1_pd(keep);
    const __m256d mixv = _mm256_set1_pd(mix);
    const uint64_t sub[4] = {0, ka, kb, ka | kb};
    const uint64_t bsub[4] = {0, ba, bb, ba | bb};
    size_t k = k_lo;
    while (k < k_hi) {
        const size_t runEnd =
            std::min<size_t>(k_hi, (k | (ka - 1)) + 1);
        const size_t base = expandBit(
            expandBit(expandBit(expandBit(k, ka), kb), ba), bb);
        // 16 contiguous streams, read through the permutation.
        double *p[4][4];
        for (int s1 = 0; s1 < 4; ++s1)
            for (int s2 = 0; s2 < 4; ++s2)
                p[s1][s2] = amp + 2 * (base | sub[s1] | bsub[s2]);
        const size_t len = runEnd - k;
        size_t i = 0;
        for (; i + 2 <= len; i += 2) {
            __m256d v[4][4];
            for (int s1 = 0; s1 < 4; ++s1)
                for (int s2 = 0; s2 < 4; ++s2)
                    v[s1][s2] = _mm256_loadu_pd(
                        p[perm[s1]][perm[s2]] + 2 * i);
            if (noisy) {
                // depolarize2Avx2's operations on the permuted block.
                __m256d tr = v[0][0];
                for (int s = 1; s < 4; ++s)
                    tr = _mm256_add_pd(tr, v[s][s]);
                for (int s1 = 0; s1 < 4; ++s1) {
                    for (int s2 = 0; s2 < 4; ++s2) {
                        v[s1][s2] = _mm256_mul_pd(keepv, v[s1][s2]);
                        if (s1 == s2)
                            v[s1][s2] =
                                _mm256_fmadd_pd(mixv, tr, v[s1][s2]);
                    }
                }
            }
            for (int s1 = 0; s1 < 4; ++s1)
                for (int s2 = 0; s2 < 4; ++s2)
                    _mm256_storeu_pd(p[s1][s2] + 2 * i, v[s1][s2]);
        }
        if (i < len)
            cxDepolarize2Scalar(ampc, k + i, runEnd, ka, kb, ba, bb,
                                control_low, keep, mix);
        k = runEnd;
    }
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
diagMul(cplx *amp, size_t b_lo, size_t b_hi, const cplx *pattern,
        uint64_t pat_mask, cplx scale)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        diagMulAvx2(amp, b_lo, b_hi, pattern, pat_mask, scale);
        return;
    }
#endif
    diagMulScalar(amp, b_lo, b_hi, pattern, pat_mask, scale);
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

double
expectPairs(const cplx *amp, size_t k_lo, size_t k_hi, uint64_t x,
            uint64_t z, uint64_t pivot, bool sigma_pos)
{
#ifdef QCC_SIMD_X86
    if (simdActive())
        return expectPairsAvx2(amp, k_lo, k_hi, x, z, pivot,
                               sigma_pos);
#endif
    return expectPairsScalar(amp, k_lo, k_hi, x, z, pivot, sigma_pos);
}

double
expectDiag(const cplx *amp, size_t b_lo, size_t b_hi, uint64_t z)
{
#ifdef QCC_SIMD_X86
    if (simdActive())
        return expectDiagAvx2(amp, b_lo, b_hi, z);
#endif
    return expectDiagScalar(amp, b_lo, b_hi, z);
}

double
groupExpect(const cplx *amp, size_t b_lo, size_t b_hi,
            uint64_t b_offset, const double *w, const uint64_t *zmask,
            size_t n_terms)
{
#ifdef QCC_SIMD_X86
    if (simdActive())
        return groupExpectAvx2(amp, b_lo, b_hi, b_offset, w, zmask,
                               n_terms);
#endif
    return groupExpectScalar(amp, b_lo, b_hi, b_offset, w, zmask,
                             n_terms);
}

void
depolarize1(cplx *amp, size_t k_lo, size_t k_hi, uint64_t kbit,
            uint64_t bbit, double keep, double mix)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        depolarize1Avx2(amp, k_lo, k_hi, kbit, bbit, keep, mix);
        return;
    }
#endif
    depolarize1Scalar(amp, k_lo, k_hi, kbit, bbit, keep, mix);
}

void
depolarize2(cplx *amp, size_t k_lo, size_t k_hi, uint64_t ka,
            uint64_t kb, uint64_t ba, uint64_t bb, double keep,
            double mix)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        depolarize2Avx2(amp, k_lo, k_hi, ka, kb, ba, bb, keep, mix);
        return;
    }
#endif
    depolarize2Scalar(amp, k_lo, k_hi, ka, kb, ba, bb, keep, mix);
}

void
cxDepolarize2(cplx *amp, size_t k_lo, size_t k_hi, uint64_t ka,
              uint64_t kb, uint64_t ba, uint64_t bb, bool control_low,
              double keep, double mix)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        cxDepolarize2Avx2(amp, k_lo, k_hi, ka, kb, ba, bb,
                          control_low, keep, mix);
        return;
    }
#endif
    cxDepolarize2Scalar(amp, k_lo, k_hi, ka, kb, ba, bb, control_low,
                        keep, mix);
}

} // namespace ranges
} // namespace kern
} // namespace qcc
