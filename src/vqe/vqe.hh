/**
 * @file
 * VQE primitives (Section II-B): the ansatz-state preparation and
 * single-point energy evaluations every layer above builds on —
 * E(theta) = sum_i w_i <psi(theta)| P_i |psi(theta)> through the
 * pluggable SimBackend interface, with the density-matrix backend
 * reproducing the noisy case studies of Section VI-D. The
 * optimization loop itself lives in VqeDriver (vqe/driver.hh),
 * driven through an EstimationStrategy and a VqeOptimizer; the
 * legacy runVqe/runVqeNoisy convenience wrappers (and their
 * VqeOptions) are gone — spec-level code goes through
 * qcc::Experiment, Hamiltonian-level code through the driver.
 */

#ifndef QCC_VQE_VQE_HH
#define QCC_VQE_VQE_HH

#include <vector>

#include "ansatz/uccsd.hh"
#include "common/rng.hh"
#include "pauli/pauli_sum.hh"
#include "sim/backend.hh"
#include "sim/noise_model.hh"
#include "sim/statevector.hh"

namespace qcc {

/** VQE outcome. */
struct VqeResult
{
    double energy = 0.0;
    std::vector<double> params;
    int iterations = 0;  ///< outer-loop iterations (paper metric)
    int evals = 0;       ///< energy evaluations that ran (objective
                         ///< calls plus shifted gradient energies)
    bool converged = false;
};

/** |psi(theta)>: HF state plus the ansatz rotation sequence. */
Statevector prepareAnsatzState(const Ansatz &ansatz,
                               const std::vector<double> &params);

/**
 * E(theta) in an arbitrary backend: applyAnsatz then the backend's
 * own expectation (by X mask on a statevector, the density matrix's
 * own on a mixed state).
 */
double ansatzEnergy(SimBackend &backend, const PauliSum &h,
                    const Ansatz &ansatz,
                    const std::vector<double> &params);

/** Noise-free energy of the ansatz state (statevector backend). */
double ansatzEnergy(const PauliSum &h, const Ansatz &ansatz,
                    const std::vector<double> &params);

/**
 * Noisy energy: the ansatz is chain-synthesized to a gate circuit and
 * executed on the density-matrix backend with depolarizing noise
 * after every CNOT.
 */
double ansatzEnergyNoisy(const PauliSum &h, const Ansatz &ansatz,
                         const std::vector<double> &params,
                         const NoiseModel &noise);

} // namespace qcc

#endif // QCC_VQE_VQE_HH
