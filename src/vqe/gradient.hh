/**
 * @file
 * Exact VQE gradients for the ansatz rotations exp(i phi P), P^2 = I.
 * Parameters shared by several rotations (UCCSD singles span 2
 * strings, doubles 8) accumulate by the chain rule over per-rotation
 * derivatives dE/dphi. Two families of routes compute them:
 *
 *  - adjoint (reverse mode, Jones & Gacon arXiv:2009.02823): the
 *    ideal pure-state route. One forward replay, lambda = H|psi>,
 *    then a backward walk that reads dE/dphi_j = -2 Im <lambda|P_j|
 *    psi_j> and un-applies each rotation from both states — 3R - 2
 *    rotation sweeps, R read-only inner products and one sweep per
 *    distinct X mask of the Hamiltonian, on two state vectors, with
 *    no energy evaluation at all;
 *  - parameter shift: the energy is a sinusoid in phi, so
 *    dE/dphi = [E(phi + s) - E(phi - s)] / sin(2s), 2R shifted
 *    energies for R non-identity rotations. The shift is s = pi/4,
 *    where sin(2s) is exactly 1 in double (the numerically optimal
 *    two-point rule). This serves the readouts that need each
 *    shifted state (shot sampling) and the noisy density-matrix
 *    model.
 *
 * Batching the 2R shifted evaluations into one engine call is what
 * makes parameter shift cheap; the engine exploits it three ways:
 *
 *  - prefix sharing: the shifted replay for rotation j agrees with
 *    the base replay up to rotation j, so a forward sweep snapshots
 *    each prefix state once and every task replays only its suffix
 *    (halves the rotation work even on one core);
 *  - pair-difference sweeps (gate-level noisy path): gates and
 *    depolarizing channels are linear superoperators, so
 *    E+ - E- = Tr(H L(RZ+ rho_j - RZ- rho_j)) needs ONE suffix
 *    application per rotation instead of two full circuit
 *    executions — and the shifted circuits come from the compiler
 *    pipeline's CircuitCache, so no shift ever re-synthesizes;
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
     * Prefix-snapshot memory budget. When R snapshots exceed it the
     * statevector path replays each prefix from scratch and the
     * noisy path streams one forward state (serial but still
     * pair-differenced).
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
     * dE/dtheta at `params` through prefix-shared statevector
     * replays; `estimate` reads each shifted state (exact energy,
     * shot sampler, ...).
     */
    std::vector<double>
    gradientStatevector(const std::vector<double> &params,
                        const StateEstimator &estimate) const;

    /**
     * dE/dtheta at `params` on the gate-level depolarizing-noise
     * model: the ansatz is chain-synthesized through the cached
     * compiler pipeline (one structure, 2R angle rebinds) and every
     * rotation's shifted pair is evaluated with one pair-difference
     * suffix sweep. Exactly matches shifting through
     * DensityMatrixBackend up to floating-point associativity.
     */
    std::vector<double>
    gradientNoisy(const std::vector<double> &params,
                  const NoiseModel &noise) const;

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
