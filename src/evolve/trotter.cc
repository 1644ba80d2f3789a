#include "evolve/trotter.hh"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/kernels.hh"

namespace qcc {

TrotterBuild
buildTrotterAnsatz(const PauliSum &h, uint64_t hf_mask, int steps,
                   int order, const GroupingFn &grouping)
{
    if (steps < 1)
        throw std::invalid_argument(
            "buildTrotterAnsatz: steps must be >= 1");
    if (order != 1 && order != 2)
        throw std::invalid_argument(
            "buildTrotterAnsatz: product-formula order must be 1 "
            "or 2");

    TrotterBuild out;
    out.steps = steps;
    out.order = order;
    out.ansatz.nQubits = h.numQubits();
    out.ansatz.nParams = 1;
    out.ansatz.hfMask = hf_mask;
    // One synthetic "excitation" so the one-per-parameter invariant
    // of the Ansatz IR holds for dt.
    out.ansatz.excitations.push_back(
        {Excitation::Kind::Single, {0, 0, 0, 0}});

    // Family-ordered term sequence: rotations from one QWC family
    // are adjacent, so their basis sandwiches cancel in peephole.
    const auto &terms = h.terms();
    const auto groups = grouping ? grouping(h) : groupQubitWise(h);
    std::vector<size_t> ordered;
    ordered.reserve(terms.size());
    for (const auto &g : groups)
        for (size_t idx : g.termIndices)
            ordered.push_back(idx);

    // One step as (coeff, string) rotations; exp(i theta coeff P)
    // with theta = dt, so coeff = -w_j gives exp(-i w_j dt P_j).
    std::vector<PauliRotation> step;
    for (size_t idx : ordered) {
        const PauliTerm &t = terms[idx];
        if (t.string.isIdentity()) {
            ++out.identityTerms; // global phase only
            continue;
        }
        const double w = t.coeff.real();
        step.push_back(
            {0, order == 2 ? -w / 2.0 : -w, t.string});
    }
    if (order == 2) {
        // Strang: forward half-steps then the same list reversed.
        const size_t half = step.size();
        for (size_t j = half; j-- > 0;)
            step.push_back(step[j]);
    }
    out.termsPerStep = step.size();

    out.ansatz.rotations.reserve(step.size() * size_t(steps));
    for (int r = 0; r < steps; ++r)
        for (const auto &rot : step)
            out.ansatz.rotations.push_back(rot);
    return out;
}

Statevector
exactEvolvedState(const PauliSum &h, unsigned n_qubits,
                  uint64_t basis, double time)
{
    if (n_qubits > kMaxExactEvolveQubits)
        throw std::invalid_argument(
            "exactEvolvedState: width exceeds the exact-reference "
            "cap");
    if (h.numQubits() != n_qubits)
        throw std::invalid_argument(
            "exactEvolvedState: Hamiltonian width mismatch");

    // Shift out the identity coefficient: exp(-iHt) =
    // e^{-i c0 t} exp(-i (H - c0) t). The traceless part has a much
    // smaller L1 norm, so the series needs fewer slices; the scalar
    // phase is restored at the end to keep the state exact.
    kern::XMaskGroups traceless;
    cplx c0 = 0.0;
    double l1 = 0.0;
    for (const auto &t : h.terms()) {
        if (t.string.isIdentity()) {
            c0 += t.coeff;
            continue;
        }
        traceless.add(t.string.xMask(), t.string.zMask(), t.coeff);
        l1 += std::abs(t.coeff);
    }

    const size_t dim = size_t{1} << n_qubits;
    Statevector psi(n_qubits, basis);
    std::vector<cplx> cur = psi.amplitudes();
    std::vector<cplx> result(dim), term(dim), tmp(dim);

    // Slice so each factor has ||(H - c0) dt||_1 <= 1: the Taylor
    // series then converges to machine precision in ~20 orders.
    const int slices =
        std::max(1, int(std::ceil(std::abs(time) * l1)));
    const double dt = time / slices;
    const cplx midt(0.0, -dt);

    for (int s = 0; s < slices; ++s) {
        result = cur;
        term = cur;
        for (int k = 1; k <= 200; ++k) {
            std::fill(tmp.begin(), tmp.end(), cplx(0.0, 0.0));
            traceless.apply(term.data(), dim, tmp.data());
            const cplx f = midt / double(k);
            double termNorm2 = 0.0;
            for (size_t b = 0; b < dim; ++b) {
                term[b] = f * tmp[b];
                result[b] += term[b];
                termNorm2 += std::norm(term[b]);
            }
            // The evolution is unitary and cur starts normalized,
            // so ||result|| stays ~1: an absolute cut suffices.
            if (termNorm2 <= 1e-32)
                break;
        }
        cur = result;
    }

    // Restore the identity phase e^{-i c0 t} (c0 is real for a
    // Hermitian H; any stray imaginary part is applied faithfully).
    const cplx phase =
        std::exp(cplx(0.0, -1.0) * c0 * cplx(time, 0.0));
    for (cplx &v : cur)
        v *= phase;

    psi.amplitudes() = std::move(cur);
    psi.normalize(); // scrub 1e-16-level Taylor truncation drift
    return psi;
}

double
stateFidelity(const Statevector &a, const Statevector &b)
{
    return std::norm(a.inner(b));
}

} // namespace qcc
