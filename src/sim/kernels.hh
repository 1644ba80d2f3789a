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
 * constants so each amplitude pair costs one popcount. A Pauli sum
 * is held by X mask (XMaskGroups): H*v and <v|H|v> make one sweep per
 * mask, not one per term, and <v|H|v> is the only expectation of a
 * pure state (a single string's is a one-term sum). All sweeps are
 * block-parallel via parallelFor/parallelReduce, and each chunk runs
 * through the range primitives of sim/simd.hh, runtime-dispatched
 * between scalar and AVX2 bodies (QCC_SIMD selects the path; see
 * that header). On a density matrix the one two-qubit channel is
 * fused with its CNOT (cxDepolarize2).
 *
 * The original full-scan implementations, the single-string <P> and
 * the standalone two-qubit channel live on as test oracles in
 * tests/sim_reference.hh; the kernel tests check equivalence against
 * them and bench_sim_micro measures the speedup.
 */

#ifndef QCC_SIM_KERNELS_HH
#define QCC_SIM_KERNELS_HH

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

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

/**
 * A Pauli sum held by X mask for H*v products. Terms that share an
 * X mask move the same amplitudes (b <- b ^ x), so apply() makes one
 * sweep per distinct mask, with the per-amplitude phase sum
 * f_x(b) = sum_t w_t (-1)^{|z_t & b|}: add() folds each coefficient
 * with i^{|x&z|} (-1)^{|z&x|} into one real and one imaginary
 * weight. Masks keep the order of their first add(), terms within a
 * mask theirs. No table grows with the state.
 */
class XMaskGroups
{
  public:
    /** Add coeff * P for the canonical Pauli (x, z). */
    void add(uint64_t x, uint64_t z, cplx coeff);

    /** out[b] += (H v)[b] over a dim-sized state; out != v. */
    void apply(const cplx *v, size_t dim, cplx *out) const;

    /**
     * Re <v| H v>: one apply() into pooled 2^n scratch, then one
     * fixed-chunk reduction, so the result is bit-identical at any
     * lane cap. Safe to call concurrently.
     */
    double expectation(const cplx *v, size_t dim) const;

    /** Distinct X masks: the sweeps apply() makes. */
    size_t masks() const { return groups.size(); }

  private:
    struct Group
    {
        uint64_t x;
        std::vector<uint64_t> z;
        std::vector<double> wr, wi;
    };
    std::vector<Group> groups;
};

/**
 * <bra| P |ket> for two distinct states: read-only, pair-compacted
 * (one popcount per amplitude pair, no scratch copy of P|ket>), and
 * reduced in fixed chunk order.
 */
cplx pauliInner(const cplx *bra, const cplx *ket, size_t dim,
                uint64_t x, uint64_t z);

/**
 * Uniform single-qubit depolarizing channel on a vectorized density
 * matrix (rho over `dim` = 4^n entries, bra index bits above the n
 * ket bits): D(rho) = (1 - 4p/3) rho + (4p/3)(I/2 (x) Tr_q rho).
 * No-op for p <= 0.
 */
void depolarize1(cplx *rho, size_t dim, unsigned q, unsigned n_qubits,
                 double p);

/**
 * A noisy CNOT on a vectorized density matrix in one sweep: the
 * CNOT on the ket bits (control, target), the same on the bra bits,
 * then the uniform two-qubit depolarizing channel on the pair,
 *   D(rho) = (1 - 16p/15) rho + (16p/15)(I4/4 (x) Tr_ab rho),
 * rounding as those three sweeps do. For p <= 0 the channel
 * arithmetic is skipped and the sweep only moves entries.
 */
void cxDepolarize2(cplx *rho, size_t dim, unsigned control,
                   unsigned target, unsigned n_qubits, double p);

} // namespace kern
} // namespace qcc

#endif // QCC_SIM_KERNELS_HH
