/**
 * @file
 * Runtime-dispatched SIMD layer under the simulator kernels. The
 * public kernels in sim/kernels.hh split their sweeps into index
 * ranges (via common/parallel) and hand each range to one of the
 * primitives below; every primitive has a portable scalar
 * implementation and, on x86-64 with AVX2+FMA, a vectorized one
 * compiled with per-function target attributes (no special build
 * flags needed). Which one runs is decided once at startup:
 *
 *   - QCC_SIMD=0 forces the scalar fallback, the only path on CPUs
 *     without AVX2 (the CI matrix pins one leg to this so it cannot
 *     rot on AVX2 runners);
 *   - QCC_SIMD=1 / unset uses the vector path when the CPU supports
 *     it (checked with __builtin_cpu_supports);
 *   - setSimdEnabled() overrides the environment at runtime, which
 *     is how the equivalence tests and bench_sim_micro exercise both
 *     paths inside one process.
 *
 * Every primitive takes an explicit index range, which is how the
 * kernels split one sweep into parallel chunks; a primitive touches
 * nothing outside its range.
 *
 * Index conventions match sim/kernels.hh: `b` ranges are raw basis
 * indices, `k` ranges are compacted pair indices expanded around a
 * pivot bit with expandBit.
 */

#ifndef QCC_SIM_SIMD_HH
#define QCC_SIM_SIMD_HH

#include <complex>
#include <cstddef>
#include <cstdint>

namespace qcc {
namespace kern {

using cplx = std::complex<double>;

/** True when this build carries the AVX2 kernel bodies (x86 only). */
bool simdCompiled();

/** True when the running CPU supports AVX2 + FMA. */
bool simdSupported();

/** True when the vector path is selected (support + QCC_SIMD). */
bool simdActive();

/**
 * Force the vector path on or off at runtime, overriding QCC_SIMD.
 * Enabling on an unsupported CPU is a silent no-op (scalar runs).
 * Used by the equivalence tests and the bench variants.
 */
void setSimdEnabled(bool enabled);

/** "avx2" or "scalar", for bench/report labels. */
const char *simdName();

/**
 * Range primitives. Each `xxx` dispatches to `xxxScalar` or the
 * AVX2 body according to simdActive(); the scalar forms are exposed
 * so tests can pin the oracle path explicitly.
 */
namespace ranges {

/** 2x2 unitary on pair-bit `bit` over compacted k in [k_lo, k_hi). */
void apply1q(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit,
             const cplx u[4]);
void apply1qScalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit,
                   const cplx u[4]);

/** diag(d0, d1) on `bit` over basis indices [b_lo, b_hi). */
void diag1q(cplx *amp, size_t b_lo, size_t b_hi, uint64_t bit,
            cplx d0, cplx d1);
void diag1qScalar(cplx *amp, size_t b_lo, size_t b_hi, uint64_t bit,
                  cplx d0, cplx d1);

/**
 * Pauli-rotation pair update over compacted k in [k_lo, k_hi) with
 * pivot = lowest set bit of x and the folded constants of
 * kern::applyPauliRotation: amp[b] += (c-1)*amp[b] + s_b*(vr+i*vi)*
 * amp[b^x], etc., where s_b = (-1)^{|z&b|}.
 *
 * This and pauliInnerPairs have AVX2 bodies for every pivot class.
 * With pivot 1 (x holds bit 0) the pair of k is (2k, 2k ^ x), whose
 * amplitudes sit in different registers unless x = 1; those bodies
 * gather each pair into one register. Every body touches only the
 * pairs of its own k range, and the rotation gives each pair the
 * same arithmetic wherever the range starts or ends.
 */
void pauliRotPairs(cplx *amp, size_t k_lo, size_t k_hi, uint64_t x,
                   uint64_t z, uint64_t pivot, double c, double ur,
                   double ui, double vr, double vi);
void pauliRotPairsScalar(cplx *amp, size_t k_lo, size_t k_hi,
                         uint64_t x, uint64_t z, uint64_t pivot,
                         double c, double ur, double ui, double vr,
                         double vi);

/** Diagonal rotation (x == 0): amp[b] *= f_even or f_odd by the
 *  parity of |z & b| over [b_lo, b_hi). */
void pauliRotDiag(cplx *amp, size_t b_lo, size_t b_hi, uint64_t z,
                  cplx f_even, cplx f_odd);
void pauliRotDiagScalar(cplx *amp, size_t b_lo, size_t b_hi,
                        uint64_t z, cplx f_even, cplx f_odd);

/**
 * Pair-compacted partial sum of <bra|P|ket> / i^{|x&z|} over k in
 * [k_lo, k_hi) (x != 0, pivot = lowest set bit of x): the sum of
 * s_b (sigma conj(bra[b]) ket[b^x] + conj(bra[b^x]) ket[b]) with
 * b = expandBit(k, pivot) and sigma = (-1)^{|z&x|}.
 */
cplx pauliInnerPairs(const cplx *bra, const cplx *ket, size_t k_lo,
                     size_t k_hi, uint64_t x, uint64_t z,
                     uint64_t pivot, double sigma);
cplx pauliInnerPairsScalar(const cplx *bra, const cplx *ket,
                           size_t k_lo, size_t k_hi, uint64_t x,
                           uint64_t z, uint64_t pivot, double sigma);

/**
 * sum_b (-1)^{|z&b|} conj(bra[b]) ket[b] over [b_lo, b_hi), the x = 0
 * case of kern::pauliInner. Scalar only, with no dispatcher: the
 * adjoint gradient's generators all carry an X or Y.
 */
cplx pauliInnerDiagScalar(const cplx *bra, const cplx *ket,
                          size_t b_lo, size_t b_hi, uint64_t z);

/**
 * One X mask's share of a Pauli-sum matvec over [b_lo, b_hi):
 * out[b] += f(b) * v[b ^ x] with f(b) = sum_t (wr[t] + i wi[t]) *
 * (-1)^{|z[t] & b|}, each term's coefficient already folded with
 * its i^{|x&z|} (-1)^{|z&x|} (see kern::XMaskGroups). Writes only
 * out[b_lo, b_hi); out and v must not overlap.
 */
void maskMatvec(cplx *out, const cplx *v, size_t b_lo, size_t b_hi,
                uint64_t x, const uint64_t *z, const double *wr,
                const double *wi, size_t n_terms);
void maskMatvecScalar(cplx *out, const cplx *v, size_t b_lo,
                      size_t b_hi, uint64_t x, const uint64_t *z,
                      const double *wr, const double *wi,
                      size_t n_terms);

/** @{ Permutation range kernels (scalar; these are pure moves). */
void applyX(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit);
void applyCx(cplx *amp, size_t k_lo, size_t k_hi, uint64_t cbit,
             uint64_t tbit);
void applySwap(cplx *amp, size_t k_lo, size_t k_hi, uint64_t abit,
               uint64_t bbit);
/** @} */

} // namespace ranges
} // namespace kern
} // namespace qcc

#endif // QCC_SIM_SIMD_HH
