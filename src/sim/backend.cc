#include "sim/backend.hh"

#include "common/logging.hh"

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
PauliFrameBackend::applyAnsatz(const Ansatz &ansatz,
                               const std::vector<double> &params)
{
    if (params.size() != ansatz.nParams)
        fatal("PauliFrameBackend::applyAnsatz: parameter count "
              "mismatch");
    if (ansatz.nQubits != numQubits())
        fatal("PauliFrameBackend::applyAnsatz: width mismatch");
    // The plan is the gate-level circuit (HF preparation included)
    // walked once, so the noise model charges every synthesized CNOT
    // while an evaluation reads its angles straight from params.
    std::vector<double> theta(ansatz.rotations.size());
    for (size_t j = 0; j < theta.size(); ++j) {
        const PauliRotation &r = ansatz.rotations[j];
        theta[j] = params[r.param] * r.coeff;
    }
    slot->get(ansatz)->prepare(frame, theta);
}

} // namespace qcc
