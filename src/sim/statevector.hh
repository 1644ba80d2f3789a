/**
 * @file
 * Statevector simulator. Provides gate-by-gate execution of compiled
 * circuits (the compiler's verify pass replays them) and direct
 * O(2^n) kernels for Pauli-string rotations exp(i theta P) and
 * Pauli-sum expectation values (used by the VQE driver, mirroring the
 * paper's use of the Aer statevector simulator). All sweeps dispatch
 * to the specialized block-parallel bit-mask kernels in
 * sim/kernels.hh; see sim/backend.hh for the backend interface the
 * VQE layer consumes.
 *
 * Circuit validation lives here too: applyCircuit checks every gate
 * operand against the register width once, before any gate runs,
 * and throws SimError with a VerifyIssue-style diagnostic (gate
 * index + message) instead of asserting deep inside a kernel.
 */

#ifndef QCC_SIM_STATEVECTOR_HH
#define QCC_SIM_STATEVECTOR_HH

#include <complex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "pauli/pauli_sum.hh"

namespace qcc {

using cplx = std::complex<double>;

/** Diagnostic for a rejected circuit (mirrors compiler VerifyIssue). */
struct SimIssue {
    std::string what;
    long gateIndex = -1;
};

/** Thrown by applyCircuit-style entry points on invalid circuits. */
class SimError : public std::runtime_error {
  public:
    explicit SimError(SimIssue issue);
    const SimIssue &issue() const { return issue_; }

  private:
    SimIssue issue_;
};

/**
 * Validate every gate of `c` against a register of `width` qubits:
 * operands in range, two-qubit operands distinct, and the circuit's
 * own width equal to the register's. Returns the first problem found,
 * or nullopt when the circuit is safe to execute.
 */
std::optional<SimIssue> validateCircuit(const Circuit &c,
                                        unsigned width);

/** validateCircuit + throw SimError on failure. */
void validateCircuitOrThrow(const Circuit &c, unsigned width);

/**
 * Dense 2^n-amplitude quantum state. Basis index bit q corresponds to
 * qubit q (qubit 0 is the least-significant bit).
 */
class Statevector
{
  public:
    /** |0...0> on n qubits. */
    explicit Statevector(unsigned n);

    /** Computational basis state |basis>. */
    Statevector(unsigned n, uint64_t basis);

    /**
     * |basis> on n qubits adopting `buffer` as amplitude storage
     * (resized to 2^n; no allocation when the buffer already has
     * the capacity). Pairs with common/parallel's BufferPool so the
     * gradient engine's per-task states recycle heap blocks: move
     * the storage back out through amplitudes() when done.
     */
    Statevector(unsigned n, uint64_t basis,
                std::vector<cplx> &&buffer);

    /** Reset to |basis> without reallocating. */
    void reset(uint64_t basis = 0);

    unsigned numQubits() const { return nQubits; }
    size_t dim() const { return amp.size(); }
    const std::vector<cplx> &amplitudes() const { return amp; }
    std::vector<cplx> &amplitudes() { return amp; }

    /** Apply one gate of the circuit IR. */
    void applyGate(const Gate &g);

    /**
     * Apply every gate of a circuit. Operands are validated against
     * the register width up front (throws SimError with a gate-level
     * diagnostic, leaving the state untouched); the gates then run
     * one by one through applyGate.
     */
    void applyCircuit(const Circuit &c);

    /**
     * Apply exp(i theta P) directly (one pass over the state). This is
     * the mathematical definition of the Pauli-string simulation
     * circuit of Section II-A, bypassing synthesis.
     */
    void applyPauliRotation(double theta, const PauliString &p);

    /**
     * Computational-basis outcome probabilities after applying the
     * given single-qubit basis-change rotations (X -> H, Y -> H Sdg,
     * the basisChangeOps convention) to a copy of the state. With no
     * rotations this is simply |amp|^2. Feeds the shot-sampling
     * backend path; the state itself is left untouched.
     */
    std::vector<double> basisProbabilities(
        const std::vector<std::pair<unsigned, PauliOp>> &rotations)
        const;

    /**
     * <psi| H |psi> for a Pauli sum (real coefficients): the terms
     * are grouped by X mask on every call, then one sweep per mask
     * (kern::XMaskGroups::expectation). The VQE hot loop groups once
     * (vqe/expectation_engine.hh).
     */
    double expectation(const PauliSum &h) const;

    /** <this|other>. */
    cplx inner(const Statevector &other) const;

    /** L2 norm. */
    double norm() const;

    /** Scale so the norm is one. */
    void normalize();

  private:
    unsigned nQubits;
    std::vector<cplx> amp;
};

/** 2x2 matrix for a single-qubit gate kind (angle for RX/RY/RZ). */
void gateMatrix(GateKind k, double angle, cplx out[4]);

} // namespace qcc

#endif // QCC_SIM_STATEVECTOR_HH
