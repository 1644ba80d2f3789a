/**
 * @file
 * Gate fusion and cache-blocked execution for statevector circuit
 * replay. The builder rewrites a gate stream into a shorter list of
 * fused ops:
 *
 *  - runs of diagonal gates (Z, S, Sdg, RZ) coalesce into one Diag op
 *    holding per-qubit diag(d0, d1) factors, applied later as a
 *    single sweep no matter how many gates contributed;
 *  - consecutive 1q gates on the same qubit (with only commuting ops
 *    in between) merge into a single 2x2 matrix product, and pending
 *    diagonal factors on that qubit are absorbed into the matrix;
 *  - CNOT/SWAP pass through but participate in the commuting
 *    look-back (a diagonal on the control commutes with a CNOT).
 *
 * The executor then walks the amplitude array in L2-sized blocks:
 * maximal runs of block-local ops (every touched bit below the block
 * width, Diag always, CNOT whose high control only selects blocks)
 * are applied per block while it is cache-hot, so a fused batch costs
 * one memory pass instead of one per gate. Ops that cross blocks run
 * through the global kernels between segments.
 *
 * This is also where circuit validation lives: applyCircuit entry
 * points validate every gate operand against the register width once
 * and throw SimError with a VerifyIssue-style diagnostic (gate index
 * + message) instead of asserting deep inside a kernel.
 *
 * The density matrix does not go through the builder: its own
 * executor (DensityMatrix::applyGates) merges 1q runs per qubit and
 * fuses each CNOT with its depolarizing channel into one sweep, so
 * noisy circuits fuse too.
 *
 * Fused execution is the only production path on both simulators.
 * The per-gate replays it is checked and timed against live with
 * the tests (tests/sim_reference.hh).
 */

#ifndef QCC_SIM_FUSION_HH
#define QCC_SIM_FUSION_HH

#include <complex>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.hh"

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

/** One per-qubit diagonal factor of a Diag op. */
struct DiagFactor {
    unsigned bit = 0; // index bit position
    cplx d0{1.0, 0.0}, d1{1.0, 0.0};
};

/** One fused operation over index-bit positions. */
struct FusedOp {
    enum class Kind : uint8_t { OneQ, Diag, Cnot, Swap };
    Kind kind = Kind::OneQ;
    unsigned b0 = 0, b1 = 0; // OneQ: b0; Cnot: (control, target)
    cplx u[4] = {};          // OneQ matrix, row-major
    uint32_t fBegin = 0, fEnd = 0; // Diag: span into factors
};

/** A fused program over an amplitude array of 2^widthBits entries. */
struct FusedProgram {
    unsigned widthBits = 0;
    std::vector<FusedOp> ops;
    std::vector<DiagFactor> factors;
    size_t sourceGates = 0;

    bool empty() const { return ops.empty(); }
};

/**
 * Incremental fusion over index-bit positions. Callers stream gates
 * in program order; build() returns the fused program. fuseCircuit
 * feeds it a statevector circuit; the builder itself only sees raw
 * bit positions.
 */
class FusionBuilder {
  public:
    explicit FusionBuilder(unsigned width_bits);

    void add1q(unsigned bit, const cplx u[4]);
    void addDiag(unsigned bit, cplx d0, cplx d1);
    void addCnot(unsigned control, unsigned target);
    void addSwap(unsigned a, unsigned b);

    FusedProgram build();

  private:
    struct Pending {
        FusedOp::Kind kind;
        unsigned b0 = 0, b1 = 0;
        cplx u[4] = {};
        std::vector<DiagFactor> factors; // Diag only
    };

    bool touches(const Pending &op, unsigned bit) const;
    Pending *findMergeable1q(unsigned bit);
    Pending *findMergeableDiag(unsigned bit);

    unsigned width;
    std::vector<Pending> pending;
};

/**
 * Translate a circuit into a fused program over the statevector
 * index bits. The circuit must already be validated.
 */
FusedProgram fuseCircuit(const Circuit &c);

/**
 * Execute a fused program over amp[0 .. 2^p.widthBits), walking the
 * array in cache-sized blocks per segment of block-local ops.
 */
void applyFusedProgram(cplx *amp, const FusedProgram &p);

} // namespace qcc

#endif // QCC_SIM_FUSION_HH
