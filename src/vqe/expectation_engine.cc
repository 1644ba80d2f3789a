#include "vqe/expectation_engine.hh"

#include <array>
#include <cmath>

#include "common/logging.hh"
#include "sim/fusion.hh"
#include "sim/kernels.hh"

namespace qcc {

ExpectationEngine::ExpectationEngine(const PauliSum &h,
                                     const GroupingFn &grouping)
    : ham(h), nQubits(h.numQubits())
{
    if (h.maxImagCoeff() > 1e-9)
        warn("ExpectationEngine: dropping imaginary coefficient "
             "parts (Hamiltonian should be Hermitian)");

    // All diagonal terms (identity included) share one direct sweep:
    // they commute qubit-wise with each other and need no rotation.
    GroupPlan diag;
    PauliSum offDiag(nQubits);
    for (const auto &t : h.terms()) {
        if (t.string.xMask() == 0) {
            diag.weights.push_back(t.coeff.real());
            diag.zMasks.push_back(t.string.zMask());
        } else {
            offDiag.add(t.coeff, t.string);
        }
    }
    if (!diag.weights.empty())
        plans.push_back(std::move(diag));

    const std::vector<MeasurementGroup> groups =
        grouping ? grouping(offDiag) : groupQubitWise(offDiag);
    for (const auto &group : groups) {
        GroupPlan plan;
        plan.rotations = basisChangeOps(group.basis);
        // A rotated family sweep costs one state copy plus one
        // apply1q pass per rotated qubit before it starts paying
        // off; families too small to amortize that are cheaper
        // through the pair-compacted per-term kernel.
        const bool sweep = group.termIndices.size() >=
                           2 * (plan.rotations.size() + 2);
        for (size_t idx : group.termIndices) {
            const PauliTerm &t = offDiag.terms()[idx];
            if (sweep) {
                plan.weights.push_back(t.coeff.real());
                // After the basis rotations every member is Z on
                // exactly its own support.
                plan.zMasks.push_back(t.string.supportMask());
            } else {
                termwise.push_back({t.coeff.real(), t.string.xMask(),
                                    t.string.zMask()});
            }
        }
        if (!plan.weights.empty())
            plans.push_back(std::move(plan));
    }
}

size_t
ExpectationEngine::numGroups() const
{
    return plans.size() + termwise.size();
}

double
ExpectationEngine::energy(const Statevector &psi) const
{
    if (psi.numQubits() != nQubits)
        panic("ExpectationEngine::energy: width mismatch");
    const auto &amp = psi.amplitudes();
    const size_t dim = amp.size();

    double e = 0.0;
    for (const auto &plan : plans) {
        if (plan.rotations.empty()) {
            e += kern::diagonalGroupExpectation(
                amp.data(), dim, plan.weights.data(),
                plan.zMasks.data(), plan.zMasks.size());
            continue;
        }
        // Cache-blocked family sweep: rotate and accumulate one hot
        // block at a time instead of copying the whole state
        // (sim/fusion.hh).
        std::vector<std::pair<unsigned, std::array<cplx, 4>>> rots;
        rots.reserve(plan.rotations.size());
        for (const auto &[q, op] : plan.rotations) {
            std::array<cplx, 4> u;
            basisChangeMatrix(op, u.data());
            rots.emplace_back(q, u);
        }
        e += rotatedGroupExpectation(amp.data(), dim, rots,
                                     plan.weights.data(),
                                     plan.zMasks.data(),
                                     plan.zMasks.size());
    }
    for (const auto &t : termwise)
        e += t.weight * kern::expectation(amp.data(), dim, t.x, t.z);
    return e;
}

double
ExpectationEngine::energy(const SimBackend &backend) const
{
    if (const Statevector *sv = backend.statevector())
        return energy(*sv);
    return backend.expectation(ham);
}

} // namespace qcc
