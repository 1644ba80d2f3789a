/**
 * @file
 * Reference implementations the simulator's production paths are
 * tested and timed against: the seed's full-scan kernels, the
 * read-only pair-compacted <bra|P|ket> (scalar and AVX2) that the
 * adjoint's fused backward step must reproduce bit for bit, the
 * per-term H*v and <H>, and the density-matrix simulator with its
 * depolarizing channels, replayed gate by gate. Production always
 * runs the bit-mask kernels, the fused kern::pauliInnerAndRotate, H
 * by X mask, the statevector's per-gate replay
 * (Statevector::applyCircuit) and, for noisy states, the
 * Pauli-transfer frame (sim/pauli_frame.hh); these stay here, beside
 * the tests that read them (test_kernels, test_density_matrix,
 * test_gradient) and bench_sim_micro.
 */

#ifndef QCC_TESTS_SIM_REFERENCE_HH
#define QCC_TESTS_SIM_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "pauli/grouping.hh"
#include "pauli/pauli_sum.hh"
#include "sim/kernels.hh"
#include "sim/noise_model.hh"
#include "sim/simd.hh"
#include "sim/statevector.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace qcc_test {

using qcc::cplx;

/**
 * Phase of the canonical Pauli (x, z) on a basis state:
 * P|b> = i^{|x&z|} (-1)^{|z & b|} |b ^ x>.
 */
inline cplx
pauliPhase(uint64_t x, uint64_t z, uint64_t b)
{
    static const cplx table[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    return table[(std::popcount(x & z) + 2 * std::popcount(z & b)) &
                 3];
}

/** @{ Full-scan kernels (the seed's algorithms). */
inline void
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

inline void
applyPauliRotationGeneric(cplx *amp, size_t dim, uint64_t x,
                          uint64_t z, double theta)
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

inline double
expectationGeneric(const cplx *amp, size_t dim, uint64_t x, uint64_t z)
{
    cplx s = 0.0;
    for (size_t b = 0; b < dim; ++b)
        s += std::conj(amp[b]) * pauliPhase(x, z, b ^ x) * amp[b ^ x];
    return s.real();
}
/** @} */

/**
 * @{ The read-only <bra|P|ket> that the adjoint's backward step fuses
 * with its two rotations (kern::pauliInnerAndRotate): the pair sum
 * over compacted k in [k_lo, k_hi) of s_b (sigma conj(bra[b])
 * ket[b^x] + conj(bra[b^x]) ket[b]), b = expandBit(k, pivot), with a
 * scalar and an AVX2 body, and its fixed-chunk reduction. The AVX2
 * body takes two pairs at a time inside each run of pivot pairs,
 * single pairs at the ends of a range and every pair alone when
 * pivot = 1; the fused kernel must accumulate exactly so.
 */
inline void
addConjMulRef(double s, cplx u, cplx v, double &re, double &im)
{
    re += s * (u.real() * v.real() + u.imag() * v.imag());
    im += s * (u.real() * v.imag() - u.imag() * v.real());
}

inline double
paritySignRef(uint64_t m, uint64_t b)
{
    return (std::popcount(m & b) & 1) ? -1.0 : 1.0;
}

inline cplx
pauliInnerPairsScalar(const cplx *bra, const cplx *ket, size_t k_lo,
                      size_t k_hi, uint64_t x, uint64_t z,
                      uint64_t pivot, double sigma)
{
    double pr = 0.0, pi = 0.0, qr = 0.0, qi = 0.0;
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = qcc::kern::expandBit(k, pivot);
        const size_t b2 = b ^ x;
        const double sb = paritySignRef(z, b);
        addConjMulRef(sb, bra[b], ket[b2], pr, pi);
        addConjMulRef(sb, bra[b2], ket[b], qr, qi);
    }
    return cplx(sigma * pr + qr, sigma * pi + qi);
}

#if defined(__x86_64__) || defined(__i386__)
#define QCC_REF_AVX2 __attribute__((target("avx2,fma")))

/** Two complexes at lo and hi as one register (lo in lanes 0-1). */
QCC_REF_AVX2 inline __m256d
loadPairRef(const double *lo, const double *hi)
{
    return _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(lo)), _mm_loadu_pd(hi), 1);
}

/** s * conj(u) * v lane-wise: re gathers (ur vr, ui vi), im
 *  (ur vi, ui vr) per complex lane. */
QCC_REF_AVX2 inline void
conjMulAccRef(__m256d s, __m256d u, __m256d v, __m256d &re, __m256d &im)
{
    re = _mm256_fmadd_pd(s, _mm256_mul_pd(u, v), re);
    im = _mm256_fmadd_pd(
        s, _mm256_mul_pd(u, _mm256_shuffle_pd(v, v, 0x5)), im);
}

/** The two complexes an (re, im) accumulator pair holds. */
QCC_REF_AVX2 inline void
conjMulSumsRef(__m256d re, __m256d im, cplx &lo, cplx &hi)
{
    alignas(32) double r[4], i[4];
    _mm256_store_pd(r, re);
    _mm256_store_pd(i, im);
    lo = cplx(r[0] + r[1], i[0] - i[1]);
    hi = cplx(r[2] + r[3], i[2] - i[3]);
}

/** One pair into the scalar accumulators of the AVX2 body. */
QCC_REF_AVX2 inline void
innerLonePairRef(const cplx *bra, const cplx *ket, size_t b, uint64_t x,
                 uint64_t z, double &pr, double &pi, double &qr,
                 double &qi)
{
    const size_t b2 = b ^ x;
    const double sb = paritySignRef(z, b);
    addConjMulRef(sb, bra[b], ket[b2], pr, pi);
    addConjMulRef(sb, bra[b2], ket[b], qr, qi);
}

QCC_REF_AVX2 inline cplx
pauliInnerPairsAvx2(const cplx *brac, const cplx *ketc, size_t k_lo,
                    size_t k_hi, uint64_t x, uint64_t z, uint64_t pivot,
                    double sigma)
{
    const double *bra = reinterpret_cast<const double *>(brac);
    const double *ket = reinterpret_cast<const double *>(ketc);
    // p sums conj(bra[b]) ket[b^x], q sums conj(bra[b^x]) ket[b].
    cplx p(0.0), q(0.0);
    if (pivot == 1) {
        __m256d re = _mm256_setzero_pd(), im = _mm256_setzero_pd();
        for (size_t k = k_lo; k < k_hi; ++k) {
            const size_t b = 2 * k, b2 = b ^ x;
            conjMulAccRef(_mm256_set1_pd(paritySignRef(z, b)),
                          loadPairRef(bra + 2 * b, bra + 2 * b2),
                          loadPairRef(ket + 2 * b2, ket + 2 * b), re, im);
        }
        conjMulSumsRef(re, im, p, q);
        return cplx(sigma * p.real() + q.real(),
                    sigma * p.imag() + q.imag());
    }
    double pr = 0.0, pi = 0.0, qr = 0.0, qi = 0.0;
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    __m256d pre = _mm256_setzero_pd(), pim = _mm256_setzero_pd();
    __m256d qre = _mm256_setzero_pd(), qim = _mm256_setzero_pd();
    size_t k = k_lo;
    while (k < k_hi) {
        const size_t runStart = k & ~size_t(pivot - 1);
        const size_t runEnd = std::min<size_t>(k_hi, runStart + pivot);
        const size_t b0 = qcc::kern::expandBit(runStart, pivot);
        const size_t len = runEnd - runStart;
        size_t j = k - runStart;
        if ((j & 1) && j < len)
            innerLonePairRef(brac, ketc, b0 + j++, x, z, pr, pi, qr, qi);
        for (; j + 2 <= len; j += 2) {
            const size_t b = b0 + j;
            const size_t b2 = b ^ x;
            const __m256d sv = _mm256_mul_pd(
                _mm256_set1_pd(paritySignRef(z, b)), evec);
            conjMulAccRef(sv, _mm256_loadu_pd(bra + 2 * b),
                          _mm256_loadu_pd(ket + 2 * b2), pre, pim);
            conjMulAccRef(sv, _mm256_loadu_pd(bra + 2 * b2),
                          _mm256_loadu_pd(ket + 2 * b), qre, qim);
        }
        if (j < len)
            innerLonePairRef(brac, ketc, b0 + j, x, z, pr, pi, qr, qi);
        k = runEnd;
    }
    cplx p1, q1;
    conjMulSumsRef(pre, pim, p, p1);
    conjMulSumsRef(qre, qim, q, q1);
    p += p1;
    q += q1;
    p += cplx(pr, pi);
    q += cplx(qr, qi);
    return cplx(sigma * p.real() + q.real(), sigma * p.imag() + q.imag());
}
#endif

/** The body the running dispatch selects (qcc::kern::simdActive). */
inline cplx
pauliInnerPairs(const cplx *bra, const cplx *ket, size_t k_lo,
                size_t k_hi, uint64_t x, uint64_t z, uint64_t pivot,
                double sigma)
{
#if defined(__x86_64__) || defined(__i386__)
    if (qcc::kern::simdActive())
        return pauliInnerPairsAvx2(bra, ket, k_lo, k_hi, x, z, pivot,
                                   sigma);
#endif
    return pauliInnerPairsScalar(bra, ket, k_lo, k_hi, x, z, pivot,
                                 sigma);
}

/** <bra| P |ket>, reduced over the chunks of the fused kernel. */
inline cplx
pauliInner(const cplx *bra, const cplx *ket, size_t dim, uint64_t x,
           uint64_t z)
{
    if (x == 0) {
        return qcc::parallelReduce(
            0, dim, cplx(0.0), [=](size_t lo, size_t hi) {
                return qcc::kern::ranges::pauliInnerDiagScalar(
                    bra, ket, lo, hi, z);
            });
    }
    const double sigma = paritySignRef(z, x);
    const uint64_t pivot = x & (~x + 1);
    const cplx t = qcc::parallelReduce(
        0, dim / 2, cplx(0.0), [=](size_t lo, size_t hi) {
            return pauliInnerPairs(bra, ket, lo, hi, x, z, pivot, sigma);
        });
    return pauliPhase(x, z, 0) * t;
}
/** @} */

/**
 * out[b] += w * (P amp)[b] for all b: one sweep per Pauli term, the
 * H*v that kern::XMaskGroups replaces (one sweep per X mask).
 */
inline void
accumulatePauli(const cplx *amp, size_t dim, uint64_t x, uint64_t z,
                cplx w, cplx *out)
{
    // phase(b^x) = eps * sigma * (-1)^{|z & b|}; fold everything
    // constant into the weight.
    const cplx weps = w * pauliPhase(x, z, x);
    qcc::parallelFor(0, dim, [=](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b)
            out[b] += (std::popcount(z & b) & 1 ? -weps : weps) *
                      amp[b ^ x];
    });
}

/** out += w * P|sv>; out must match the state's dimension. */
inline void
accumulatePauli(const qcc::Statevector &sv, cplx w,
                const qcc::PauliString &p, std::vector<cplx> &out)
{
    accumulatePauli(sv.amplitudes().data(), sv.dim(), p.xMask(),
                    p.zMask(), w, out.data());
}

/**
 * Mixed state on n qubits as a vectorized density matrix: a 4^n
 * vector whose low n index bits are the ket and high n bits the bra,
 * so a gate acts as U on the ket bits and conj(U) on the bra bits.
 * Every gate and channel is a linear map on this vector.
 */
class DensityMatrix
{
  public:
    explicit DensityMatrix(unsigned n, uint64_t basis = 0)
        : nQubits(n), vec(size_t{1} << (2 * n), cplx(0.0))
    {
        vec[basis | (basis << n)] = 1.0;
    }

    unsigned numQubits() const { return nQubits; }

    /** <r| rho |c>. */
    cplx element(uint64_t r, uint64_t c) const
    {
        return vec[r | (c << nQubits)];
    }

    std::vector<cplx> &vectorized() { return vec; }
    const std::vector<cplx> &vectorized() const { return vec; }

    /** rho -> U rho U+ for one gate (a SWAP as three CNOTs). */
    void applyGate(const qcc::Gate &g)
    {
        const size_t dim = vec.size();
        switch (g.kind) {
          case qcc::GateKind::CNOT:
            qcc::kern::applyCx(vec.data(), dim, g.q0, g.q1);
            qcc::kern::applyCx(vec.data(), dim, g.q0 + nQubits,
                               g.q1 + nQubits);
            return;
          case qcc::GateKind::SWAP:
            for (unsigned s : {0u, nQubits}) {
                qcc::kern::applyCx(vec.data(), dim, g.q0 + s, g.q1 + s);
                qcc::kern::applyCx(vec.data(), dim, g.q1 + s, g.q0 + s);
                qcc::kern::applyCx(vec.data(), dim, g.q0 + s, g.q1 + s);
            }
            return;
          default: {
              cplx u[4], uc[4];
              qcc::gateMatrix(g.kind, g.angle, u);
              for (int i = 0; i < 4; ++i)
                  uc[i] = std::conj(u[i]);
              qcc::kern::apply1q(vec.data(), dim, g.q0, u);
              qcc::kern::apply1q(vec.data(), dim, g.q0 + nQubits, uc);
              return;
          }
        }
    }

    /** rho -> U rho U+ for U = exp(i theta P). */
    void applyPauliRotation(double theta, const qcc::PauliString &p)
    {
        const uint64_t x = p.xMask(), z = p.zMask();
        // Bra side: conj(U) = exp(-i theta conj(P)) with conj(P) =
        // (-1)^{|x&z|} P on the shifted masks.
        qcc::kern::applyPauliRotation(vec.data(), vec.size(), x, z,
                                      theta);
        qcc::kern::applyPauliRotation(
            vec.data(), vec.size(), x << nQubits, z << nQubits,
            (std::popcount(x & z) & 1) ? theta : -theta);
    }

    /**
     * Uniform single-qubit depolarizing channel on q:
     * D(rho) = (1 - 4p/3) rho + (4p/3)(I/2 (x) Tr_q rho).
     */
    void depolarize1(unsigned q, double p)
    {
        if (p <= 0.0)
            return;
        const double keep = 1.0 - 4.0 * p / 3.0;
        const double mix = (4.0 * p / 3.0) / 2.0;
        const uint64_t kbit = 1ull << q, bbit = kbit << nQubits;
        for (size_t b = 0; b < vec.size(); ++b) {
            if (b & (kbit | bbit))
                continue;
            const cplx tr = vec[b] + vec[b | kbit | bbit];
            vec[b] = keep * vec[b] + mix * tr;
            vec[b | kbit | bbit] = keep * vec[b | kbit | bbit] + mix * tr;
            vec[b | kbit] *= keep;
            vec[b | bbit] *= keep;
        }
    }

    /**
     * Uniform two-qubit depolarizing channel on (a, b):
     *   D(rho) = (1-p) rho + p/15 sum_{(P,Q) != II} (P@Q) rho (P@Q)
     *          = (1 - 16p/15) rho + (16p/15) (I4/4 @ Tr_ab rho),
     * swept as disjoint 4x4 sub-blocks. No-op for p <= 0.
     */
    void depolarize2(unsigned a, unsigned b, double p)
    {
        if (p <= 0.0)
            return;
        const double keep = 1.0 - 16.0 * p / 15.0;
        const double mix = (16.0 * p / 15.0) / 4.0;
        const uint64_t ka = 1ull << std::min(a, b);
        const uint64_t kb = 1ull << std::max(a, b);
        const uint64_t ba = ka << nQubits, bb = kb << nQubits;
        const uint64_t sub[4] = {0, ka, kb, ka | kb};
        const uint64_t bsub[4] = {0, ba, bb, ba | bb};
        using qcc::kern::expandBit;
        for (size_t k = 0; k < vec.size() / 16; ++k) {
            const size_t base = expandBit(
                expandBit(expandBit(expandBit(k, ka), kb), ba), bb);
            cplx tr = 0.0;
            for (int s = 0; s < 4; ++s)
                tr += vec[base | sub[s] | bsub[s]];
            for (int s1 = 0; s1 < 4; ++s1) {
                for (int s2 = 0; s2 < 4; ++s2) {
                    const size_t idx = base | sub[s1] | bsub[s2];
                    vec[idx] *= keep;
                    if (s1 == s2)
                        vec[idx] += mix * tr;
                }
            }
        }
    }

    /**
     * One gate and its channel: the two-qubit channel after a CNOT
     * (three times for a routed SWAP, three CNOTs on hardware), the
     * one-qubit channel after a 1q gate when configured.
     */
    void applyGateNoisy(const qcc::Gate &g, const qcc::NoiseModel &noise)
    {
        applyGate(g);
        if (g.kind == qcc::GateKind::CNOT) {
            depolarize2(g.q0, g.q1, noise.cnotDepolarizing);
        } else if (g.kind == qcc::GateKind::SWAP) {
            for (int i = 0; i < 3; ++i)
                depolarize2(g.q0, g.q1, noise.cnotDepolarizing);
        } else {
            depolarize1(g.q0, noise.singleQubitDepolarizing);
        }
    }

    /** Validate `c` (throws qcc::SimError), then replay it gate by gate. */
    void applyCircuit(const qcc::Circuit &c,
                      const qcc::NoiseModel &noise = {})
    {
        qcc::validateCircuitOrThrow(c, nQubits);
        for (const qcc::Gate &g : c.gates())
            applyGateNoisy(g, noise);
    }

    /**
     * Outcome probabilities after the family's basis change (X -> H,
     * Y -> H Sdg): the diagonal of U rho U+.
     */
    std::vector<double> basisProbabilities(
        const std::vector<std::pair<unsigned, qcc::PauliOp>> &rotations)
        const
    {
        std::vector<cplx> rho = vec;
        for (const auto &[q, op] : rotations) {
            cplx u[4], uc[4];
            qcc::basisChangeMatrix(op, u);
            for (int i = 0; i < 4; ++i)
                uc[i] = std::conj(u[i]);
            qcc::kern::apply1q(rho.data(), rho.size(), q, u);
            qcc::kern::apply1q(rho.data(), rho.size(), q + nQubits, uc);
        }
        std::vector<double> probs(size_t{1} << nQubits);
        for (uint64_t b = 0; b < probs.size(); ++b)
            probs[b] = std::max(0.0, rho[b | (b << nQubits)].real());
        return probs;
    }

    /** Tr(P rho) = sum_b <b|P|b^x> rho[b^x, b]. */
    double expectation(const qcc::PauliString &p) const
    {
        const uint64_t x = p.xMask(), z = p.zMask();
        cplx s = 0.0;
        for (uint64_t b = 0; b < (uint64_t{1} << nQubits); ++b)
            s += pauliPhase(x, z, b ^ x) *
                 vec[(b ^ x) | (b << nQubits)];
        return s.real();
    }

    /** Tr(H rho) over the real parts of H's coefficients. */
    double expectation(const qcc::PauliSum &h) const
    {
        double e = 0.0;
        for (const auto &t : h.terms())
            e += t.coeff.real() * expectation(t.string);
        return e;
    }

    double trace() const
    {
        cplx s = 0.0;
        for (uint64_t b = 0; b < (uint64_t{1} << nQubits); ++b)
            s += vec[b | (b << nQubits)];
        return s.real();
    }

    /** Tr(rho^2) = sum |rho[r,c]|^2 for Hermitian rho. */
    double purity() const
    {
        double s = 0.0;
        for (const cplx &v : vec)
            s += std::norm(v);
        return s;
    }

  private:
    unsigned nQubits;
    std::vector<cplx> vec;
};

/**
 * Gate-by-gate noisy replay. Returns the sweeps it makes over the
 * vectorized state: two per gate (ket and bra) and one per channel.
 */
inline size_t
applyPerGate(DensityMatrix &rho, const qcc::Circuit &c,
             const qcc::NoiseModel &noise)
{
    const double p2 = noise.cnotDepolarizing;
    const double p1 = noise.singleQubitDepolarizing;
    size_t sweeps = 0;
    for (const qcc::Gate &g : c.gates()) {
        rho.applyGateNoisy(g, noise);
        if (g.kind == qcc::GateKind::CNOT)
            sweeps += p2 > 0.0 ? 3 : 2;
        else if (g.kind == qcc::GateKind::SWAP)
            sweeps += p2 > 0.0 ? 9 : 6;
        else
            sweeps += p1 > 0.0 ? 3 : 2;
    }
    return sweeps;
}

/**
 * <psi|H|psi> with real coefficients, one full-scan
 * expectationGeneric per term: the per-term reference of the energy
 * by X mask (kern::XMaskGroups::expectation).
 */
inline double
perTermEnergy(const qcc::PauliSum &h, const qcc::Statevector &psi)
{
    double e = 0.0;
    for (const qcc::PauliTerm &t : h.terms())
        e += t.coeff.real() *
             expectationGeneric(psi.amplitudes().data(), psi.dim(),
                                t.string.xMask(), t.string.zMask());
    return e;
}

} // namespace qcc_test

#endif // QCC_TESTS_SIM_REFERENCE_HH
