/**
 * @file
 * Density-matrix simulator with depolarizing noise channels, used for
 * the paper's noisy VQE case studies on LiH and NaH (Section VI-D).
 * The density matrix is stored in vectorized form: a 2^(2n) vector
 * whose low n index bits are the ket and high n bits the bra, so gates
 * act as U on the ket qubits and conj(U) on the bra qubits. Noise
 * enters through applyGates: each CNOT carries the uniform two-qubit
 * depolarizing channel in one fused sweep, and under single-qubit
 * noise depolarize1 follows each 1q gate. The standalone two-qubit
 * channel and the per-gate noisy replay are test references
 * (tests/sim_reference.hh).
 */

#ifndef QCC_SIM_DENSITY_MATRIX_HH
#define QCC_SIM_DENSITY_MATRIX_HH

#include <complex>
#include <span>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "pauli/pauli_sum.hh"
#include "sim/noise_model.hh"

namespace qcc {

/** Mixed-state simulator for up to kMaxQubits qubits. */
class DensityMatrix
{
  public:
    /**
     * Widest register: 4^13 entries take 1 GiB. The constructor
     * refuses more before it allocates anything.
     */
    static constexpr unsigned kMaxQubits = 13;

    /** |basis><basis| on n qubits. */
    explicit DensityMatrix(unsigned n, uint64_t basis = 0);

    /** Reset to |basis><basis| without reallocating. */
    void reset(uint64_t basis = 0);

    unsigned numQubits() const { return nQubits; }

    /** Matrix element <r| rho |c>. */
    std::complex<double> element(uint64_t r, uint64_t c) const;

    /**
     * Raw vectorized storage (low n index bits = ket, high n = bra).
     * Every channel and gate of this class is a linear map on this
     * vector, so callers may hold differences of density matrices in
     * a DensityMatrix and push them through gates/channels — the
     * gradient engine's pair-difference sweep does exactly that.
     * Writers must preserve the vector's length.
     */
    std::vector<std::complex<double>> &vectorized() { return vec; }
    const std::vector<std::complex<double>> &vectorized() const
    {
        return vec;
    }

    /** Apply a unitary gate (rho -> U rho U+). */
    void applyGate(const Gate &g);

    /**
     * Exact (noise-free) rho -> U rho U+ for U = exp(i theta P),
     * applied directly on the vectorized form: the rotation on the
     * ket index bits and its conjugate on the bra bits.
     */
    void applyPauliRotation(double theta, const PauliString &p);

    /**
     * Apply a circuit, inserting noise channels per the model.
     * Operands are validated once up front (throws SimError with a
     * gate-level diagnostic), then the gates run through applyGates.
     */
    void applyCircuit(const Circuit &c, const NoiseModel &noise = {});

    /**
     * Run a range of already-validated gates with their noise
     * channels, walking the range once:
     *
     *  - each qubit's 1q gates multiply into one pending 2x2 matrix,
     *    applied (U on the ket bit, conj(U) on the bra bit, one
     *    diagonal multiply each when U is diagonal) when a two-qubit
     *    gate touches the qubit or the range ends;
     *  - each CNOT and its uniform two-qubit depolarizing channel
     *    are one kern::cxDepolarize2 sweep;
     *  - a SWAP is three such sweeps, which is exact because the
     *    uniform two-qubit channel commutes with every unitary on
     *    its pair;
     *  - with single-qubit noise on, each 1q gate is applied at once
     *    (applyGate) and followed by depolarize1, so nothing merges
     *    across a channel.
     *
     * Returns the number of sweeps over the vectorized state.
     */
    size_t applyGates(std::span<const Gate> gates,
                      const NoiseModel &noise);

    /** Single-qubit depolarizing channel with probability p on q. */
    void depolarize1(unsigned q, double p);

    /**
     * Computational-basis outcome probabilities after conjugating a
     * copy of rho by the given single-qubit basis-change rotations
     * (X -> H, Y -> H Sdg): the diagonal of U rho U+, clamped to
     * [0, 1] against roundoff. Feeds the shot-sampling backend path.
     */
    std::vector<double> basisProbabilities(
        const std::vector<std::pair<unsigned, PauliOp>> &rotations)
        const;

    /** Tr(P rho). */
    double expectation(const PauliString &p) const;

    /** Tr(H rho) for a Pauli sum. */
    double expectation(const PauliSum &h) const;

    /** Tr(rho); should stay 1 up to roundoff. */
    double trace() const;

    /** Tr(rho^2), purity diagnostic. */
    double purity() const;

  private:
    /** Apply a 1q unitary on a raw index bit of the vectorized rho. */
    void applyRaw1q(unsigned bit_index, const std::complex<double> u[4]);

    /** Apply CNOT on raw (control, target) index bits. */
    void applyRawCnot(unsigned control_bit, unsigned target_bit);

    unsigned nQubits;
    std::vector<std::complex<double>> vec;
};

} // namespace qcc

#endif // QCC_SIM_DENSITY_MATRIX_HH
