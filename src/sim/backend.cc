#include "sim/backend.hh"

#include "common/logging.hh"
#include "compiler/pipeline.hh"

namespace qcc {

void
SimBackend::applyAnsatz(const Ansatz &ansatz,
                        const std::vector<double> &params)
{
    if (params.size() != ansatz.nParams)
        fatal("SimBackend::applyAnsatz: parameter count mismatch");
    if (ansatz.nQubits != numQubits())
        fatal("SimBackend::applyAnsatz: width mismatch");
    prepare(ansatz.hfMask);
    for (const auto &r : ansatz.rotations)
        applyPauliRotation(params[r.param] * r.coeff, r.string);
}

void
DensityMatrixBackend::applyAnsatz(const Ansatz &ansatz,
                                  const std::vector<double> &params)
{
    if (params.size() != ansatz.nParams)
        fatal("DensityMatrixBackend::applyAnsatz: parameter count "
              "mismatch");
    if (ansatz.nQubits != numQubits())
        fatal("DensityMatrixBackend::applyAnsatz: width mismatch");
    // Execute the gate-level circuit (HF preparation included) so the
    // noise model charges every synthesized CNOT. The cached pipeline
    // path memoizes the structure, so the per-iteration work inside a
    // noisy VQE loop is an angle rebind rather than a resynthesis.
    Circuit c = cachedChainCircuit(ansatz, params, true);
    prepare(0);
    rho.applyCircuit(c, noiseModel);
}

} // namespace qcc
