#include "vqe/gradient.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/trace.hh"
#include "sim/kernels.hh"

namespace qcc {

namespace {

/**
 * The parameter shift s = pi/4 on the rotation angle phi (the
 * exp(i phi P) convention): sin(2s) is exactly 1 in double, so each
 * derivative is the bare difference E+ - E-.
 */
constexpr double kShift = 0.78539816339744830961;

/**
 * Shared scratch-statevector pool for the per-task replays and the
 * adjoint's two states: with grain-1 fan-out every task is its own
 * chunk, so without the pool each shifted evaluation paid one O(2^n)
 * allocation.
 */
BufferPool<cplx> &
statePool()
{
    static BufferPool<cplx> pool;
    return pool;
}

} // namespace

ParameterShiftEngine::ParameterShiftEngine(const PauliSum &h,
                                           const Ansatz &ansatz,
                                           GradientOptions o)
    : opts(o), ham(h), source(&ansatz)
{
    if (ham.numQubits() != ansatz.nQubits)
        fatal("ParameterShiftEngine: Hamiltonian/ansatz width "
              "mismatch");

    // The unrolled twin: same qubit count, same HF mask, same string
    // sequence, but one parameter per rotation with the coefficient
    // folded into the binding. Same structure -> the same FramePlan
    // as the source ansatz, so every shifted evaluation of the noisy
    // model runs on the plan its driver already built.
    unrolled.nQubits = ansatz.nQubits;
    unrolled.nParams = unsigned(ansatz.rotations.size());
    unrolled.hfMask = ansatz.hfMask;
    unrolled.rotations.reserve(ansatz.rotations.size());
    for (size_t j = 0; j < ansatz.rotations.size(); ++j) {
        const PauliRotation &r = ansatz.rotations[j];
        unrolled.rotations.push_back({unsigned(j), 1.0, r.string});
        // exp(i phi I) is a global phase: no energy dependence, no
        // shift job.
        if (!r.string.isIdentity())
            shiftable.push_back(j);
    }
    // The adjoint's H, real coefficients as ExpectationEngine reads
    // them.
    for (const PauliTerm &t : ham.terms())
        hRe.add(t.string.xMask(), t.string.zMask(), t.coeff.real());
}

std::vector<double>
ParameterShiftEngine::baseAngles(
    const std::vector<double> &params) const
{
    if (params.size() != source->nParams)
        fatal("ParameterShiftEngine: parameter count mismatch");
    // Exactly the products the direct replay computes, so a zero
    // shift reproduces the unshifted state bit-for-bit.
    std::vector<double> base(source->rotations.size());
    for (size_t j = 0; j < source->rotations.size(); ++j) {
        const PauliRotation &r = source->rotations[j];
        base[j] = params[r.param] * r.coeff;
    }
    return base;
}

std::vector<double>
ParameterShiftEngine::assemble(
    const std::vector<double> &perRotation) const
{
    // Chain rule in fixed rotation order: every lane cap assembles
    // identical sums.
    std::vector<double> grad(source->nParams, 0.0);
    for (size_t i = 0; i < shiftable.size(); ++i) {
        const PauliRotation &r = source->rotations[shiftable[i]];
        grad[r.param] += r.coeff * perRotation[i];
    }
    return grad;
}

std::vector<double>
ParameterShiftEngine::gradientAdjoint(
    const std::vector<double> &params) const
{
    TraceSpan span("gradient.adjoint");
    span.arg("rotations", shiftable.size());
    const std::vector<double> base = baseAngles(params);
    const unsigned n = source->nQubits;
    const size_t dim = size_t{1} << n;

    // Forward replay: the state an evaluation prepares
    // (SimBackend::applyAnsatz), identity rotations included, so this
    // route and one continued from an evaluation agree bit for bit.
    Statevector psi(n, source->hfMask, statePool().acquire(dim));
    for (size_t j = 0; j < base.size(); ++j)
        psi.applyPauliRotation(base[j], source->rotations[j].string);

    // lambda = H|psi> (not a state: unnormalized), one sweep per X
    // mask, as ExpectationEngine::energy leaves it.
    std::vector<cplx> lambda = statePool().acquire(dim);
    std::fill(lambda.begin(), lambda.end(), cplx(0.0));
    hRe.apply(psi.amplitudes().data(), dim, lambda.data());

    std::vector<double> g =
        backwardWalk(base, psi.amplitudes().data(), lambda.data());
    statePool().release(std::move(psi.amplitudes()));
    statePool().release(std::move(lambda));
    return g;
}

std::vector<double>
ParameterShiftEngine::gradientAdjoint(const std::vector<double> &params,
                                      Statevector &psi,
                                      std::vector<cplx> &lambda) const
{
    TraceSpan span("gradient.adjoint");
    span.arg("rotations", shiftable.size());
    const size_t dim = size_t{1} << source->nQubits;
    if (psi.numQubits() != source->nQubits || lambda.size() != dim)
        panic("gradientAdjoint: psi or lambda does not match the "
              "ansatz width");
    return backwardWalk(baseAngles(params), psi.amplitudes().data(),
                        lambda.data());
}

std::vector<double>
ParameterShiftEngine::backwardWalk(const std::vector<double> &base,
                                   cplx *psi, cplx *lambda) const
{
    // With psi_j the state just after rotation j and
    // lambda_j = U_{j+1}^dag ... U_{R-1}^dag H|psi>,
    //   dE/dphi_j = 2 Re <lambda_j| iP_j |psi_j>
    //             = -2 Im <lambda_j| P_j |psi_j>,
    // and un-applying U_j = exp(i phi_j P_j) from both steps to j - 1,
    // in the same pass over the pairs. Identity rotations are global
    // phases that psi and lambda carry alike, which <lambda|P|psi>
    // never sees, so the walk skips them.
    const size_t dim = size_t{1} << source->nQubits;
    const auto &rots = source->rotations;
    std::vector<double> dphi(shiftable.size());
    for (size_t i = shiftable.size(); i-- > 0;) {
        const size_t j = shiftable[i];
        dphi[i] = -2.0 * kern::pauliInnerAndRotate(
                             lambda, psi, dim, rots[j].string.xMask(),
                             rots[j].string.zMask(), -base[j])
                             .imag();
    }
    return assemble(dphi);
}

std::vector<double>
ParameterShiftEngine::gradientStatevector(
    const std::vector<double> &params,
    const StateEstimator &estimate) const
{
    TraceSpan span("gradient.statevector");
    span.arg("evaluations", 2 * shiftable.size());
    const std::vector<double> base = baseAngles(params);
    const unsigned n = source->nQubits;
    const size_t dim = size_t{1} << n;
    const auto &rots = unrolled.rotations;

    // Prefix sharing: snapshot the state just before each shiftable
    // rotation during one forward sweep, so every task replays only
    // its suffix. Falls back to full per-task replays when the
    // snapshots would blow the memory budget.
    const bool snapshot =
        shiftable.size() * dim * sizeof(cplx) <= opts.maxPrefixBytes;
    std::vector<std::vector<cplx>> prefixes;
    if (snapshot) {
        prefixes.resize(shiftable.size());
        Statevector sv(n, source->hfMask);
        size_t si = 0;
        for (size_t j = 0; j < rots.size(); ++j) {
            if (si < shiftable.size() && shiftable[si] == j)
                prefixes[si++] = sv.amplitudes();
            sv.applyPauliRotation(base[j], rots[j].string);
        }
    }

    const size_t tasks = 2 * shiftable.size();
    std::vector<double> shifted(tasks, 0.0);
    auto evalRange = [&](size_t lo, size_t hi) {
        // Scratch state from the shared pool: chunks recycle the
        // same few 2^n blocks call after call.
        Statevector sv(n, 0, statePool().acquire(dim));
        for (size_t t = lo; t < hi; ++t) {
            const size_t i = t / 2;
            const size_t rot = shiftable[i];
            const double sign = (t % 2 == 0) ? 1.0 : -1.0;
            if (snapshot) {
                sv.amplitudes() = prefixes[i];
            } else {
                sv.reset(source->hfMask);
                for (size_t j = 0; j < rot; ++j)
                    sv.applyPauliRotation(base[j], rots[j].string);
            }
            sv.applyPauliRotation(base[rot] + sign * kShift,
                                  rots[rot].string);
            for (size_t j = rot + 1; j < rots.size(); ++j)
                sv.applyPauliRotation(base[j], rots[j].string);
            shifted[t] = estimate(sv, t);
        }
        statePool().release(std::move(sv.amplitudes()));
    };
    parallelFor(0, tasks, evalRange, /*grain=*/1);

    std::vector<double> diffs(shiftable.size());
    for (size_t i = 0; i < shiftable.size(); ++i)
        diffs[i] = shifted[2 * i] - shifted[2 * i + 1];
    return assemble(diffs);
}

std::vector<double>
ParameterShiftEngine::gradientNoisy(const std::vector<double> &params,
                                    const FramePlan &plan) const
{
    TraceSpan span("gradient.noisy");
    span.arg("rotations", shiftable.size());
    if (!plan.matches(*source, plan.noise()))
        panic("gradientNoisy: the plan is not this ansatz's");
    span.arg("snapshots", plan.snapshots(opts.maxPrefixBytes));
    // The plan's rotations are the shiftable ones, in program order.
    return assemble(
        plan.gradient(baseAngles(params), ham, opts.maxPrefixBytes));
}

std::vector<double>
ParameterShiftEngine::gradient(const std::vector<double> &params,
                               const BackendFactory &make,
                               const StateEnergyFn &energy) const
{
    TraceSpan span("gradient.batch");
    span.arg("evaluations", 2 * shiftable.size());
    const std::vector<double> base = baseAngles(params);
    const size_t tasks = 2 * shiftable.size();
    std::vector<double> shifted(tasks, 0.0);
    auto evalRange = [&](size_t lo, size_t hi) {
        for (size_t t = lo; t < hi; ++t) {
            const size_t rot = shiftable[t / 2];
            const double sign = (t % 2 == 0) ? 1.0 : -1.0;
            std::vector<double> angles = base;
            angles[rot] += sign * kShift;
            std::unique_ptr<SimBackend> backend = make();
            backend->applyAnsatz(unrolled, angles);
            shifted[t] = energy(*backend, t);
        }
    };
    parallelFor(0, tasks, evalRange, /*grain=*/1);

    std::vector<double> diffs(shiftable.size());
    for (size_t i = 0; i < shiftable.size(); ++i)
        diffs[i] = shifted[2 * i] - shifted[2 * i + 1];
    return assemble(diffs);
}

} // namespace qcc
