/**
 * @file
 * Exact VQE gradients for the ansatz rotations exp(i phi P), P^2 = I.
 * Parameters shared by several rotations (UCCSD singles span 2
 * strings, doubles 8) accumulate by the chain rule over per-rotation
 * derivatives dE/dphi. Two families of routes compute them:
 *
 *  - adjoint (reverse mode, Jones & Gacon arXiv:2009.02823), on
 *    either exact state model. On the ideal pure state: psi(theta)
 *    and lambda = H|psi> (one sweep per distinct X mask of the
 *    Hamiltonian), then a backward walk of R fused sweeps, each
 *    reading dE/dphi_j = -2 Im <lambda|P_j|psi_j> and un-applying
 *    rotation j from both states in one pass over the amplitude
 *    pairs (kern::pauliInnerAndRotate), with no energy evaluation at
 *    all. An evaluation already holds psi and lambda (the ideal
 *    strategy's measure() keeps H|psi>), so the driver's gradient of
 *    an evaluation runs the walk alone; gradientAdjoint(params)
 *    makes both itself first, to the same bits. On the noisy
 *    Pauli-transfer frame (sim/pauli_frame.hh): the plan's dampings
 *    are diagonal and its rotations orthogonal, so one forward pass
 *    keeping each rotation's state and one backward walk of the
 *    adjoint give all R derivatives in O(R) sweeps;
 *  - parameter shift: the energy is a sinusoid in phi, so
 *    dE/dphi = [E(phi + s) - E(phi - s)] / sin(2s), 2R shifted
 *    energies for R non-identity rotations. The shift is s = pi/4,
 *    where sin(2s) is exactly 1 in double (the numerically optimal
 *    two-point rule). This serves the readouts that need each
 *    shifted state (shot sampling).
 *
 * Batching the 2R shifted evaluations into one engine call is what
 * makes parameter shift cheap; the engine exploits it two ways:
 *
 *  - prefix sharing: the shifted replay for rotation j agrees with
 *    the base replay up to rotation j, so a forward sweep snapshots
 *    each prefix state once and every task replays only its suffix
 *    (halves the rotation work even on one core);
 *  - thread fan-out: independent tasks run over the common/parallel
 *    pool; results land in task-indexed slots and reduce in fixed
 *    order, so a run capped to one lane (ParallelWidthCap) agrees
 *    with an uncapped one bit-for-bit.
 */

#ifndef QCC_VQE_GRADIENT_HH
#define QCC_VQE_GRADIENT_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "ansatz/uccsd.hh"
#include "pauli/pauli_sum.hh"
#include "sim/backend.hh"
#include "sim/kernels.hh"
#include "sim/noise_model.hh"
#include "sim/statevector.hh"

namespace qcc {

/** Constructs a fresh backend for one shifted evaluation. */
using BackendFactory = std::function<std::unique_ptr<SimBackend>()>;

/**
 * Evaluates <H> in a backend's current (already prepared) state.
 * `task` is the stable shifted-evaluation index — identical at any
 * lane cap — so stochastic evaluators can derive a per-task rng
 * stream that does not depend on scheduling.
 */
using StateEnergyFn =
    std::function<double(SimBackend &backend, size_t task)>;

/** Estimates <H> from a prefix-shared pure state (same task rule). */
using StateEstimator =
    std::function<double(const Statevector &psi, size_t task)>;

/** Parameter-shift configuration. */
struct GradientOptions
{
    /**
     * Snapshot memory budget. When R snapshots exceed it the
     * statevector path replays each prefix from scratch and the
     * noisy adjoint keeps every few states and replays the rest from
     * them (same bits either way).
     */
    size_t maxPrefixBytes = size_t{1} << 30;
};

/** Precompiled gradient plan for one (H, ansatz) pair. */
class ParameterShiftEngine
{
  public:
    ParameterShiftEngine(const PauliSum &h, const Ansatz &ansatz,
                         GradientOptions opts = {});

    /**
     * Exact dE/dtheta at `params` on the ideal pure state by reverse
     * mode, with <H> over the real parts of the Hamiltonian's
     * coefficients (the analytic readout's convention). Runs on the
     * caller; every sweep is a fixed-chunk kernel, so the result is
     * bit-identical at any lane cap.
     */
    std::vector<double>
    gradientAdjoint(const std::vector<double> &params) const;

    /**
     * The same gradient continued from an evaluation at `params`:
     * only the backward walk, from psi = |psi(params)> as
     * SimBackend::applyAnsatz prepares it and lambda = H|psi> as
     * ExpectationEngine::energy(psi, lambda) leaves it. Uses both up
     * (they hold neither state afterwards); equal to
     * gradientAdjoint(params) bit for bit.
     */
    std::vector<double> gradientAdjoint(const std::vector<double> &params,
                                        Statevector &psi,
                                        std::vector<cplx> &lambda) const;

    /**
     * dE/dtheta at `params` through prefix-shared statevector
     * replays; `estimate` reads each shifted state (exact energy,
     * shot sampler, ...).
     */
    std::vector<double>
    gradientStatevector(const std::vector<double> &params,
                        const StateEstimator &estimate) const;

    /**
     * dE/dtheta at `params` on the gate-level depolarizing-noise
     * model, by reverse mode in the Pauli-transfer frame on `plan`
     * (which must be this ansatz's, e.g. from the noisy StateModel's
     * slot). Matches the pair difference of shifted energies up to
     * floating-point associativity, runs no energy evaluation, and
     * is bit-identical at any lane cap.
     */
    std::vector<double>
    gradientNoisy(const std::vector<double> &params,
                  const FramePlan &plan) const;

    /**
     * Generic fallback for arbitrary backends: each of the 2R tasks
     * builds a backend with `make`, prepares the shifted state with
     * a full replay, and reads the energy with `energy`.
     */
    std::vector<double>
    gradient(const std::vector<double> &params,
             const BackendFactory &make,
             const StateEnergyFn &energy) const;

    /** Shifted energies per parameter-shift gradient (2R). */
    size_t numShiftedEvaluations() const
    {
        return 2 * shiftable.size();
    }

    const Ansatz &unrolledAnsatz() const { return unrolled; }

  private:
    /** Resolved per-rotation base angles for `params`. */
    std::vector<double>
    baseAngles(const std::vector<double> &params) const;

    /**
     * The adjoint's backward walk over 2^n-amplitude psi and lambda
     * at the rotation angles `base`: one fused sweep per shiftable
     * rotation (kern::pauliInnerAndRotate), then assemble().
     */
    std::vector<double> backwardWalk(const std::vector<double> &base,
                                     cplx *psi, cplx *lambda) const;

    /**
     * Chain-rule assembly: per-rotation derivatives (one per
     * shiftable rotation) land on their parameters.
     */
    std::vector<double>
    assemble(const std::vector<double> &perRotation) const;

    GradientOptions opts;
    PauliSum ham;
    kern::XMaskGroups hRe; ///< Re-coefficient H by X mask (adjoint)
    const Ansatz *source;  ///< non-owning; outlives the engine
    Ansatz unrolled;       ///< one parameter per rotation
    std::vector<size_t> shiftable; ///< non-identity rotation indices
};

} // namespace qcc

#endif // QCC_VQE_GRADIENT_HH
