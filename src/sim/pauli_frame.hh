/**
 * @file
 * Noisy simulation in the Pauli-transfer frame, the state model of
 * the paper's Section VI-D noise study. A mixed state rho on n qubits
 * is held as its 4^n real Pauli coefficients r_Q = Tr(Q sigma), with
 * sigma = C^dag rho C the state seen through a Clifford frame C. The
 * chain-synthesized ansatz circuits are Clifford apart from their
 * RZs, and both NoiseModel channels are uniform depolarizing, so:
 *
 *  - every Clifford gate only moves the frame (a tableau of the 2n
 *    pulled-back generators C^dag X_q C, C^dag Z_q C);
 *  - an RZ on qubit q is the rotation exp(-i a/2 C^dag Z_q C) on r:
 *    Q pairs with Q * P, and only anticommuting pairs turn;
 *  - a depolarizing channel on qubits S damps r_Q by 1 - 16p/15 (two
 *    qubits) or 1 - 4p/3 (one qubit) when Q anticommutes with a
 *    pulled-back generator of S, so every channel between two RZs
 *    folds into one diagonal damping sweep.
 *
 * A FramePlan walks one compiled chain circuit once and keeps, per
 * rotation, its axis and sign, and per segment between two RZs, two
 * 2^n tables of packed anticommutation bits: Q = (Qx, Qz) anticommutes
 * with a generator R when parity(Qx & Rz) ^ parity(Qz & Rx) = 1, so
 * Tx[Qx] ^ Tz[Qz] holds every channel's test field and the damping
 * exponent is the number of nonzero fields. r is only ever nonzero on
 * the rows Qx spanned by the rotation axes' X parts, and the sweeps
 * visit only those rows.
 *
 * Every sweep is element-wise and every reduction sums fixed row
 * blocks in row order, so results do not depend on the thread count
 * or a lane cap. The tests hold this model to the per-gate
 * density-matrix replay in tests/sim_reference.hh.
 */

#ifndef QCC_SIM_PAULI_FRAME_HH
#define QCC_SIM_PAULI_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "ansatz/uccsd.hh"
#include "pauli/pauli_sum.hh"
#include "sim/noise_model.hh"

namespace qcc {

/** i^e X^x Z^z: a Pauli with its phase, as the frame tableau holds it. */
struct SignedPauli
{
    uint64_t x = 0;
    uint64_t z = 0;
    unsigned e = 0; ///< phase exponent mod 4
};

class FramePlan;

/**
 * A mixed state as Pauli coefficients in a Clifford frame. r is laid
 * out row-major by X part: r[(Qx << n) | Qz] for the Hermitian Pauli
 * i^{|Qx&Qz|} X^Qx Z^Qz, so r[0] is the trace.
 */
class PauliFrame
{
  public:
    /** Widest register: r takes 8 * 4^13 bytes = 512 MiB. */
    static constexpr unsigned kMaxQubits = 13;

    /** |basis><basis| on n qubits, identity frame. */
    explicit PauliFrame(unsigned n, uint64_t basis = 0);

    /** Reset to |basis><basis| and the identity frame. */
    void reset(uint64_t basis = 0);

    unsigned numQubits() const { return nQubits; }

    /** Exact (noise-free) rho -> U rho U^dag for U = exp(i theta P). */
    void applyPauliRotation(double theta, const PauliString &p);

    /** Tr(P rho). */
    double expectation(const PauliString &p) const;

    /** Tr(H rho) over the real parts of H's coefficients. */
    double expectation(const PauliSum &h) const;

    /**
     * Computational-basis outcome probabilities after the family's
     * basis-change rotations (X -> H, Y -> H Sdg): one signed Pauli
     * per subset of measured qubits, then one 2^n Walsh transform.
     * Clamped to [0, 1] against roundoff.
     */
    std::vector<double> basisProbabilities(
        const std::vector<std::pair<unsigned, PauliOp>> &rotations)
        const;

    /** Tr(rho); 1 up to roundoff. */
    double trace() const { return r[0]; }

    /** Tr(rho^2) = 2^-n sum_Q r_Q^2. */
    double purity() const;

    /** The coefficients, r[(Qx << n) | Qz]. */
    const std::vector<double> &coefficients() const { return r; }

  private:
    friend class FramePlan;

    /** C^dag P C for the canonical Pauli (x, z), as x, z and a sign. */
    SignedPauli pullBack(uint64_t x, uint64_t z) const;

    unsigned nQubits;
    std::vector<double> r;
    std::vector<SignedPauli> rows; ///< C^dag X_q C, then C^dag Z_q C
};

/**
 * One compiled chain circuit under one noise model, walked once with
 * a Clifford tableau. Immutable after build(), so one plan serves
 * concurrent evaluations.
 */
class FramePlan
{
  public:
    /**
     * Compile `ansatz` through cachedChainCircuit (HF preparation
     * included) and walk its gates. Accepts exactly what chain
     * synthesis emits (X, H, RX(+-pi/2), CNOT and one RZ per
     * non-identity rotation, whose pulled-back axis must be +-P and
     * whose angle must be -2 theta) and panics on anything else.
     * Emits one sim.frame.plan span and counts sim.frame.plans.
     */
    static std::shared_ptr<const FramePlan>
    build(const Ansatz &ansatz, const NoiseModel &noise);

    /** True when `ansatz` and `noise` have this plan's structure. */
    bool matches(const Ansatz &ansatz, const NoiseModel &noise) const;

    /**
     * Prepare the circuit's state in `state` (which must have this
     * plan's width): |0>, then each segment's damping and each
     * rotation, with theta[j] the angle of the ansatz's rotation j
     * (exp(i theta_j P_j)); identity rotations' angles are ignored.
     */
    void prepare(PauliFrame &state,
                 const std::vector<double> &theta) const;

    /**
     * dE/dtheta_j of E = Tr(H rho(theta)) for every non-identity
     * rotation j, in program order, by reverse mode: one forward
     * pass keeping r after each rotation but the last, then one
     * backward walk of the adjoint D_k U_k^T (dampings are diagonal,
     * rotations orthogonal). States beyond `max_snapshot_bytes` are
     * replayed from the nearest kept one, which gives the same bits.
     */
    std::vector<double> gradient(const std::vector<double> &theta,
                                 const PauliSum &h,
                                 size_t max_snapshot_bytes) const;

    unsigned numQubits() const { return nQubits; }
    const NoiseModel &noise() const { return noiseModel; }
    size_t numRotations() const { return rotations.size(); }

    /** Damping sweeps: segments holding at least one channel. */
    size_t numDampings() const;

    /** Sweeps over r per prepare(): rotations plus dampings. */
    size_t sweeps() const { return numRotations() + numDampings(); }

    /** Bytes of the plan's tables. */
    size_t bytes() const;

  private:
    FramePlan() = default;

    /** One RZ: exp(i sign theta_source P) in the frame. */
    struct Rotation
    {
        size_t source = 0; ///< ansatz rotation index
        uint64_t x = 0, z = 0;
        double sign = 1.0;
        size_t activeRows = 0; ///< row prefix live after this rotation
        /**
         * Per-row and per-column bytes: bit 2 the anticommutation
         * parity, bits 0-1 the i-power of the pair's product (see
         * pauli_frame.cc).
         */
        std::vector<uint8_t> tx, tz;
    };

    /** The channels between two RZs, as packed test fields. */
    struct Segment
    {
        unsigned words2 = 0;   ///< words of two-qubit channel fields
        unsigned words1 = 0;   ///< words of one-qubit channel fields
        size_t activeRows = 0; ///< row prefix live in this segment
        std::vector<uint64_t> tx, tz; ///< 2^n x (words2 + words1)
    };

    void rotate(std::vector<double> &r, const Rotation &rot,
                double theta) const;
    void damp(std::vector<double> &r, const Segment &seg) const;

    unsigned nQubits = 0;
    NoiseModel noiseModel;
    uint64_t hfMask = 0;
    std::vector<std::pair<uint64_t, uint64_t>> strings; ///< (x, z)
    std::vector<uint64_t> rowList; ///< spanned rows, growing prefixes
    std::vector<Rotation> rotations;
    std::vector<Segment> segments;     ///< rotations.size() + 1
    std::vector<SignedPauli> finalRows; ///< the frame at the end
    std::vector<double> pow2, pow1;     ///< damping factor powers
};

/**
 * The plan of one state model: built on first use for the ansatz it
 * is asked for, then shared by every backend the model makes and by
 * the noisy gradient. Holds one plan, so memory does not grow across
 * ansatz structures; asking for another structure replaces it.
 */
class FramePlanSlot
{
  public:
    explicit FramePlanSlot(NoiseModel noise) : noiseModel(noise) {}

    /** This slot's plan for `ansatz`, built under the lock if needed. */
    std::shared_ptr<const FramePlan> get(const Ansatz &ansatz);

    const NoiseModel &noise() const { return noiseModel; }

  private:
    NoiseModel noiseModel;
    std::mutex mutex;
    std::shared_ptr<const FramePlan> plan;
};

} // namespace qcc

#endif // QCC_SIM_PAULI_FRAME_HH
