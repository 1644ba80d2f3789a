/**
 * @file
 * Hamiltonian-expectation engine for the VQE inner loop. Construction
 * groups the Pauli sum by X mask (kern::XMaskGroups, real
 * coefficients, as the adjoint gradient's lambda = H|psi> reads
 * them), and a pure state's energy is Re <psi|H psi>: one sweep per
 * X mask into 2^n scratch, then one fixed-chunk reduction. The
 * scratch is pooled, or the caller's buffer when the caller keeps
 * H|psi>: the ideal strategy hands it to the adjoint gradient of the
 * same evaluation as its lambda (vqe/estimation.hh).
 *
 * Qubit-wise-commuting measurement families are what shot sampling
 * needs (sim/sampling.hh); an exact statevector reads every term off
 * H|psi> directly, so the engine has no per-family plans. energy()
 * is const and thread-safe, so one engine serves concurrent gradient
 * tasks, and its bits do not depend on the lane cap.
 */

#ifndef QCC_VQE_EXPECTATION_ENGINE_HH
#define QCC_VQE_EXPECTATION_ENGINE_HH

#include <vector>

#include "pauli/pauli_sum.hh"
#include "sim/backend.hh"
#include "sim/kernels.hh"
#include "sim/statevector.hh"

namespace qcc {

/** Precompiled evaluator for one Hamiltonian. */
class ExpectationEngine
{
  public:
    explicit ExpectationEngine(const PauliSum &h);

    /** <psi| H |psi> by X mask. */
    double energy(const Statevector &psi) const;

    /**
     * energy(psi), leaving H|psi> in `hpsi` (resized to 2^n): the
     * same sweeps and reduction, so the same bits.
     */
    double energy(const Statevector &psi, std::vector<cplx> &hpsi) const;

    /**
     * Energy in a backend's current state: the statevector path when
     * available, the backend's own expectation otherwise (a mixed
     * state has no pure state to apply H to).
     */
    double energy(const SimBackend &backend) const;

  private:
    PauliSum ham;
    kern::XMaskGroups hRe; ///< Re-coefficient H by X mask
};

} // namespace qcc

#endif // QCC_VQE_EXPECTATION_ENGINE_HH
