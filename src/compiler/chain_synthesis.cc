#include "compiler/chain_synthesis.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace qcc {

Circuit
pauliRotationChain(const PauliString &p, double theta,
                   unsigned n_qubits)
{
    if (p.numQubits() > n_qubits)
        panic("pauliRotationChain: string wider than circuit");

    Circuit c(n_qubits);
    const auto sup = p.support();
    if (sup.empty())
        return c; // identity: global phase only

    const double halfPi = M_PI / 2.0;

    // Basis change into the Z eigenbasis on every non-trivial qubit.
    for (unsigned q : sup) {
        PauliOp op = p.op(q);
        if (op == PauliOp::X)
            c.h(q);
        else if (op == PauliOp::Y)
            c.rx(q, halfPi);
    }

    // CNOT chain in ascending qubit order (Figure 2(b) plan).
    for (size_t i = 0; i + 1 < sup.size(); ++i)
        c.cnot(sup[i], sup[i + 1]);

    // exp(i theta Z) = RZ(-2 theta) up to no global phase.
    c.rz(sup.back(), -2.0 * theta);

    for (size_t i = sup.size() - 1; i-- > 0;)
        c.cnot(sup[i], sup[i + 1]);

    for (unsigned q : sup) {
        PauliOp op = p.op(q);
        if (op == PauliOp::X)
            c.h(q);
        else if (op == PauliOp::Y)
            c.rx(q, -halfPi);
    }
    return c;
}

Circuit
synthesizeChainCircuit(const Ansatz &ansatz,
                       const std::vector<double> &params,
                       bool include_hf_prep)
{
    if (params.size() != ansatz.nParams)
        fatal("synthesizeChainCircuit: parameter count mismatch");

    const size_t n = ansatz.rotations.size();
    std::vector<Circuit> parts(n);
    parallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) {
                const auto &r = ansatz.rotations[i];
                parts[i] = pauliRotationChain(
                    r.string, params[r.param] * r.coeff,
                    ansatz.nQubits);
            }
        },
        /*grain=*/8);

    Circuit c(ansatz.nQubits);
    if (include_hf_prep) {
        for (unsigned q = 0; q < ansatz.nQubits; ++q)
            if ((ansatz.hfMask >> q) & 1)
                c.x(q);
    }
    for (const Circuit &part : parts)
        c.append(part);
    return c;
}

size_t
chainCnotCount(const Ansatz &ansatz)
{
    size_t n = 0;
    for (const auto &r : ansatz.rotations) {
        unsigned w = r.string.weight();
        if (w >= 2)
            n += 2 * (size_t(w) - 1);
    }
    return n;
}

} // namespace qcc
