/**
 * @file
 * Specialized amplitude-array kernels shared by the statevector and
 * density-matrix simulators. Every kernel operates on a raw
 * std::complex<double> array addressed by basis-index bit masks, so
 * the density matrix can reuse them on its vectorized form (ket masks
 * as-is, bra masks shifted by n).
 *
 * The fast paths follow the standard bit-mask simulation recipe
 * (cf. arXiv:2509.04955): pair loops enumerate 2^(n-1) compacted
 * indices and expand them around a pivot bit instead of scanning all
 * 2^n indices with a skip branch; diagonal and permutation gates get
 * dedicated single-pass kernels; the Pauli-rotation kernel folds the
 * i^{|x&z|} prefactor and the (-1)^{|z&x|} partner-sign relation into
 * constants so each amplitude pair costs one popcount. All sweeps are
 * block-parallel via parallelFor/parallelReduce, and each chunk runs
 * through the runtime-dispatched scalar/AVX2 range primitives of
 * sim/simd.hh (QCC_SIMD selects the path; see that header).
 *
 * The *Generic functions preserve the original full-scan reference
 * implementations; tests check kernel/generic equivalence and
 * bench_sim_micro measures the speedup.
 */

#ifndef QCC_SIM_KERNELS_HH
#define QCC_SIM_KERNELS_HH

#include <complex>
#include <cstddef>
#include <cstdint>

namespace qcc {
namespace kern {

using cplx = std::complex<double>;

/**
 * Expand a compacted index k in [0, dim/2) to the full index with a
 * zero at the pivot bit position: bits of k below the pivot stay put,
 * bits at or above it shift up by one.
 */
inline size_t
expandBit(size_t k, uint64_t pivot)
{
    const uint64_t low = pivot - 1;
    return ((k & ~low) << 1) | (k & low);
}

/** Apply an arbitrary 2x2 unitary (row-major) on index bit q. */
void apply1q(cplx *amp, size_t dim, unsigned q, const cplx u[4]);

/** Diagonal 1q gate diag(d0, d1) on index bit q (Z, S, Sdg, RZ). */
void applyDiag1q(cplx *amp, size_t dim, unsigned q, cplx d0, cplx d1);

/** X permutation kernel: swap amplitudes across index bit q. */
void applyX(cplx *amp, size_t dim, unsigned q);

/** CX permutation kernel on (control, target) index bits. */
void applyCx(cplx *amp, size_t dim, unsigned control, unsigned target);

/** SWAP permutation kernel on index bits (a, b). */
void applySwap(cplx *amp, size_t dim, unsigned a, unsigned b);

/**
 * exp(i theta P) for the canonical Pauli P = i^{|x&z|} X^x Z^z given
 * by raw index-bit masks. Stride-based pair kernel; a pure phase pass
 * when x == 0.
 */
void applyPauliRotation(cplx *amp, size_t dim, uint64_t x, uint64_t z,
                        double theta);

/** Apply P in place (same mask convention). */
void applyPauli(cplx *amp, size_t dim, uint64_t x, uint64_t z);

/** out[b] += w * (P amp)[b] for all b. */
void accumulatePauli(const cplx *amp, size_t dim, uint64_t x, uint64_t z,
                     cplx w, cplx *out);

/** Re <amp| P |amp> (amp need not be normalized). */
double expectation(const cplx *amp, size_t dim, uint64_t x, uint64_t z);

/**
 * <bra| P |ket> for two distinct states: read-only, pair-compacted
 * like expectation() (one popcount per amplitude pair, no scratch
 * copy of P|ket>), and reduced in fixed chunk order.
 */
cplx pauliInner(const cplx *bra, const cplx *ket, size_t dim,
                uint64_t x, uint64_t z);

/**
 * One grouped sweep for a qubit-wise-commuting family already rotated
 * to its diagonal basis: returns sum_t w[t] * sum_b |amp[b]|^2 *
 * (-1)^{|zmask[t] & b|}. The per-amplitude probability is computed
 * once and shared by every term of the family.
 */
double diagonalGroupExpectation(const cplx *amp, size_t dim,
                                const double *w, const uint64_t *zmask,
                                size_t n_terms);

/**
 * Uniform single-qubit depolarizing channel on a vectorized density
 * matrix (rho over `dim` = 4^n entries, bra index bits above the n
 * ket bits): D(rho) = (1 - 4p/3) rho + (4p/3)(I/2 (x) Tr_q rho).
 * No-op for p <= 0.
 */
void depolarize1(cplx *rho, size_t dim, unsigned q, unsigned n_qubits,
                 double p);

/**
 * Uniform two-qubit depolarizing channel on a vectorized density
 * matrix: D(rho) = (1 - 16p/15) rho + (16p/15)(I4/4 (x) Tr_ab rho).
 * No-op for p <= 0.
 */
void depolarize2(cplx *rho, size_t dim, unsigned a, unsigned b,
                 unsigned n_qubits, double p);

/**
 * A noisy CNOT on a vectorized density matrix in one sweep: the
 * CNOT on the ket bits (control, target), the same on the bra bits,
 * then depolarize2 on the pair, rounding as those three sweeps do.
 * For p <= 0 the channel arithmetic is skipped and the sweep only
 * moves entries.
 */
void cxDepolarize2(cplx *rho, size_t dim, unsigned control,
                   unsigned target, unsigned n_qubits, double p);

/** @{ Reference full-scan implementations (the seed's algorithms). */
void apply1qGeneric(cplx *amp, size_t dim, unsigned q, const cplx u[4]);
void applyPauliRotationGeneric(cplx *amp, size_t dim, uint64_t x,
                               uint64_t z, double theta);
double expectationGeneric(const cplx *amp, size_t dim, uint64_t x,
                          uint64_t z);
/** @} */

} // namespace kern
} // namespace qcc

#endif // QCC_SIM_KERNELS_HH
