#include "vqe/expectation_engine.hh"

#include "common/logging.hh"

namespace qcc {

ExpectationEngine::ExpectationEngine(const PauliSum &h) : ham(h)
{
    if (h.maxImagCoeff() > 1e-9)
        warn("ExpectationEngine: dropping imaginary coefficient "
             "parts (Hamiltonian should be Hermitian)");
    for (const PauliTerm &t : h.terms())
        hRe.add(t.string.xMask(), t.string.zMask(), t.coeff.real());
}

double
ExpectationEngine::energy(const Statevector &psi) const
{
    if (psi.numQubits() != ham.numQubits())
        panic("ExpectationEngine::energy: width mismatch");
    return hRe.expectation(psi.amplitudes().data(), psi.dim());
}

double
ExpectationEngine::energy(const SimBackend &backend) const
{
    if (const Statevector *sv = backend.statevector())
        return energy(*sv);
    return backend.expectation(ham);
}

} // namespace qcc
