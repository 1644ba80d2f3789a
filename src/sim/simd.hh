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
 *   - QCC_SIMD=0 forces the scalar fallback (the CI matrix pins one
 *     leg to this so the dispatch seam cannot rot);
 *   - QCC_SIMD=1 / unset uses the vector path when the CPU supports
 *     it (checked with __builtin_cpu_supports);
 *   - setSimdEnabled() overrides the environment at runtime, which
 *     is how the equivalence tests and bench_sim_micro exercise both
 *     paths inside one process.
 *
 * The range primitives are also the building blocks of the fused,
 * cache-blocked executor (sim/fusion.hh): they take explicit index
 * ranges and a global-offset parameter where bit-parity signs depend
 * on the absolute basis index, so the same code runs over a whole
 * 2^n array or over one L2-sized block of it.
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
 * amp[b] *= scale * pattern[b & pat_mask] over [b_lo, b_hi).
 * pat_mask + 1 is a power of two (the pattern length); the fused
 * executor uses this to apply a whole run of diagonal gates as one
 * block sweep with the block-constant part folded into `scale`.
 */
void diagMul(cplx *amp, size_t b_lo, size_t b_hi,
             const cplx *pattern, uint64_t pat_mask, cplx scale);
void diagMulScalar(cplx *amp, size_t b_lo, size_t b_hi,
                   const cplx *pattern, uint64_t pat_mask, cplx scale);

/**
 * Pauli-rotation pair update over compacted k in [k_lo, k_hi) with
 * pivot = lowest set bit of x and the folded constants of
 * kern::applyPauliRotation: amp[b] += (c-1)*amp[b] + s_b*(vr+i*vi)*
 * amp[b^x], etc., where s_b = (-1)^{|z&b|}.
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

/** Pair-compacted expectation partial sum (see kern::expectation). */
double expectPairs(const cplx *amp, size_t k_lo, size_t k_hi,
                   uint64_t x, uint64_t z, uint64_t pivot,
                   bool sigma_pos);
double expectPairsScalar(const cplx *amp, size_t k_lo, size_t k_hi,
                         uint64_t x, uint64_t z, uint64_t pivot,
                         bool sigma_pos);

/** sum_b (-1)^{|z&b|} |amp[b]|^2 over [b_lo, b_hi). */
double expectDiag(const cplx *amp, size_t b_lo, size_t b_hi,
                  uint64_t z);
double expectDiagScalar(const cplx *amp, size_t b_lo, size_t b_hi,
                        uint64_t z);

/**
 * Grouped diagonal-family partial sum over local indices
 * [b_lo, b_hi): sum_t w[t] * sum_b (-1)^{|zmask[t] & (b_offset|b)|}
 * * |amp[b]|^2. b_offset is the block base when amp points at one
 * block of a larger state (its set bits must be disjoint from the
 * local index range), 0 for whole-array sweeps.
 */
double groupExpect(const cplx *amp, size_t b_lo, size_t b_hi,
                   uint64_t b_offset, const double *w,
                   const uint64_t *zmask, size_t n_terms);
double groupExpectScalar(const cplx *amp, size_t b_lo, size_t b_hi,
                         uint64_t b_offset, const double *w,
                         const uint64_t *zmask, size_t n_terms);

/**
 * Single-qubit depolarizing sweep over one vectorized density
 * matrix. k in [k_lo, k_hi) compacts away the ket bit `kbit` and the
 * bra bit `bbit` (kbit < bbit required): each k names one 2x2
 * sub-block {base, base|kbit, base|bbit, base|kbit|bbit}, which is
 * scaled by `keep` with `mix * (partial trace)` added back on the
 * two diagonal entries. keep/mix are real, so the AVX2 body is plain
 * mul/fmadd on packed complex doubles.
 */
void depolarize1(cplx *amp, size_t k_lo, size_t k_hi, uint64_t kbit,
                 uint64_t bbit, double keep, double mix);
void depolarize1Scalar(cplx *amp, size_t k_lo, size_t k_hi,
                       uint64_t kbit, uint64_t bbit, double keep,
                       double mix);

/**
 * Two-qubit depolarizing sweep: k compacts away the two ket bits
 * (ka < kb) and two bra bits (ba < bb, both above kb); each k names
 * a 4x4 sub-block scaled by `keep` with `mix * (partial trace over
 * the four diagonal entries)` added on the diagonal.
 */
void depolarize2(cplx *amp, size_t k_lo, size_t k_hi, uint64_t ka,
                 uint64_t kb, uint64_t ba, uint64_t bb, double keep,
                 double mix);
void depolarize2Scalar(cplx *amp, size_t k_lo, size_t k_hi,
                       uint64_t ka, uint64_t kb, uint64_t ba,
                       uint64_t bb, double keep, double mix);

/**
 * A CNOT conjugated onto a vectorized density matrix, fused with
 * the two-qubit depolarizing channel on its pair: one sweep for what
 * applyCx on the ket bits, applyCx on the bra bits and depolarize2
 * do in three. k compacts away the same four bits as depolarize2;
 * `control_low` puts the control on the lower qubit (ka/ba), else on
 * the higher (kb/bb). Each 4x4 sub-block is read through the CNOT's
 * permutation and written back scaled by `keep`, with `mix * trace`
 * added on the diagonal; keep == 1 with mix == 0 only permutes.
 */
void cxDepolarize2(cplx *amp, size_t k_lo, size_t k_hi, uint64_t ka,
                   uint64_t kb, uint64_t ba, uint64_t bb,
                   bool control_low, double keep, double mix);
void cxDepolarize2Scalar(cplx *amp, size_t k_lo, size_t k_hi,
                         uint64_t ka, uint64_t kb, uint64_t ba,
                         uint64_t bb, bool control_low, double keep,
                         double mix);

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
