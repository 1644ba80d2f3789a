#include "vqe/vqe.hh"

#include "common/logging.hh"

namespace qcc {

Statevector
prepareAnsatzState(const Ansatz &ansatz,
                   const std::vector<double> &params)
{
    if (params.size() != ansatz.nParams)
        fatal("prepareAnsatzState: parameter count mismatch");
    Statevector sv(ansatz.nQubits, ansatz.hfMask);
    for (const auto &r : ansatz.rotations)
        sv.applyPauliRotation(params[r.param] * r.coeff, r.string);
    return sv;
}

double
ansatzEnergy(SimBackend &backend, const PauliSum &h,
             const Ansatz &ansatz, const std::vector<double> &params)
{
    if (h.numQubits() != ansatz.nQubits)
        fatal("ansatzEnergy: Hamiltonian/ansatz width mismatch");
    // One-shot evaluation: the backend groups H by X mask per call;
    // VqeDriver's engine groups it once for the whole optimization.
    backend.applyAnsatz(ansatz, params);
    return backend.expectation(h);
}

double
ansatzEnergy(const PauliSum &h, const Ansatz &ansatz,
             const std::vector<double> &params)
{
    StatevectorBackend backend(ansatz.nQubits);
    return ansatzEnergy(backend, h, ansatz, params);
}

double
ansatzEnergyNoisy(const PauliSum &h, const Ansatz &ansatz,
                  const std::vector<double> &params,
                  const NoiseModel &noise)
{
    // DensityMatrixBackend::applyAnsatz synthesizes through the
    // compiler pipeline's cached chain path, so repeated evaluations
    // of the same ansatz (every SPSA step, every bond point of a
    // sweep) reuse the memoized structure and only rebind angles.
    DensityMatrixBackend backend(ansatz.nQubits, noise);
    return ansatzEnergy(backend, h, ansatz, params);
}

} // namespace qcc
