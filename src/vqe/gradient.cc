#include "vqe/gradient.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/trace.hh"
#include "compiler/pipeline.hh"
#include "sim/density_matrix.hh"
#include "sim/fusion.hh"
#include "sim/kernels.hh"

namespace qcc {

namespace {

/**
 * Shared scratch-statevector pool for the batched per-task replays
 * and the adjoint's two states: with grain-1 fan-out every task is
 * its own chunk, so without the pool each shifted evaluation paid
 * one O(2^n) allocation.
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
    if (std::fabs(std::sin(2.0 * opts.shift)) < 1e-12)
        fatal("ParameterShiftEngine: sin(2*shift) vanishes — the "
              "two-point rule is singular at this shift");

    // The unrolled twin: same qubit count, same HF mask, same string
    // sequence, but one parameter per rotation with the coefficient
    // folded into the binding. Same strings -> same CircuitCache key
    // as the source ansatz, so the gate-level path rebinds rather
    // than recompiles every shifted evaluation.
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
ParameterShiftEngine::assemble(const std::vector<double> &perRotation,
                               double scale) const
{
    // Chain rule in fixed rotation order: batched and serial runs
    // assemble identical sums.
    std::vector<double> grad(source->nParams, 0.0);
    for (size_t i = 0; i < shiftable.size(); ++i) {
        const PauliRotation &r = source->rotations[shiftable[i]];
        grad[r.param] += r.coeff * perRotation[i] * scale;
    }
    return grad;
}

double
ParameterShiftEngine::shiftScale() const
{
    return 1.0 / std::sin(2.0 * opts.shift);
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
    const auto &rots = source->rotations;

    // Forward replay. Identity rotations are global phases: dropping
    // them rephases psi and lambda alike, which <lambda|P|psi> never
    // sees.
    Statevector psi(n, source->hfMask, statePool().acquire(dim));
    for (size_t j : shiftable)
        psi.applyPauliRotation(base[j], rots[j].string);

    // lambda = H|psi> (not a state: unnormalized), real coefficients
    // as ExpectationEngine reads them.
    std::vector<cplx> lambda = statePool().acquire(dim);
    std::fill(lambda.begin(), lambda.end(), cplx(0.0));
    for (const PauliTerm &t : ham.terms())
        psi.accumulatePauli(t.coeff.real(), t.string, lambda);

    // Backward walk. With psi_j the state just after rotation j and
    // lambda_j = U_{j+1}^dag ... U_{R-1}^dag H|psi>,
    //   dE/dphi_j = 2 Re <lambda_j| iP_j |psi_j>
    //             = -2 Im <lambda_j| P_j |psi_j>,
    // and un-applying U_j = exp(i phi_j P_j) from both steps to j - 1.
    std::vector<double> dphi(shiftable.size());
    for (size_t i = shiftable.size(); i-- > 0;) {
        const size_t j = shiftable[i];
        const uint64_t x = rots[j].string.xMask();
        const uint64_t z = rots[j].string.zMask();
        dphi[i] = -2.0 * kern::pauliInner(lambda.data(),
                                          psi.amplitudes().data(), dim,
                                          x, z)
                             .imag();
        if (i == 0)
            break;
        psi.applyPauliRotation(-base[j], rots[j].string);
        kern::applyPauliRotation(lambda.data(), dim, x, z, -base[j]);
    }
    statePool().release(std::move(psi.amplitudes()));
    statePool().release(std::move(lambda));
    return assemble(dphi, 1.0);
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
            sv.applyPauliRotation(base[rot] + sign * opts.shift,
                                  rots[rot].string);
            for (size_t j = rot + 1; j < rots.size(); ++j)
                sv.applyPauliRotation(base[j], rots[j].string);
            shifted[t] = estimate(sv, t);
        }
        statePool().release(std::move(sv.amplitudes()));
    };
    if (opts.batched)
        parallelFor(0, tasks, evalRange, /*grain=*/1);
    else
        evalRange(0, tasks);

    std::vector<double> diffs(shiftable.size());
    for (size_t i = 0; i < shiftable.size(); ++i)
        diffs[i] = shifted[2 * i] - shifted[2 * i + 1];
    return assemble(diffs, shiftScale());
}

std::vector<double>
ParameterShiftEngine::gradientNoisy(
    const std::vector<double> &params, const NoiseModel &noise) const
{
    TraceSpan span("gradient.noisy");
    span.arg("evaluations", 2 * shiftable.size());
    const std::vector<double> base = baseAngles(params);
    const unsigned n = source->nQubits;

    // Same cache entry as DensityMatrixBackend::applyAnsatz: every
    // shifted "compile" below is an angle tweak on this structure.
    const Circuit c = cachedChainCircuit(unrolled, base, true);
    std::vector<size_t> rzIndex;
    for (size_t g = 0; g < c.gates().size(); ++g)
        if (c.gates()[g].kind == GateKind::RZ)
            rzIndex.push_back(g);
    if (rzIndex.size() != shiftable.size())
        // Chain synthesis emits exactly one RZ per non-identity
        // rotation; anything else means the invariant moved — use
        // the slow generic replay rather than mis-assign shifts.
        return gradient(
            params,
            [&] {
                return std::make_unique<DensityMatrixBackend>(n,
                                                              noise);
            },
            [&](SimBackend &b, size_t) {
                return b.expectation(ham);
            });

    const std::span<const Gate> gates = c.gates();
    // Every gate range below runs through the density matrix's one
    // gate-range entry point, fused unless QCC_FUSION=0.
    const bool fuse = fusionEnabled();
    // E+ - E- for rotation j in one sweep: gates and depolarizing
    // channels are linear superoperators L, so
    //   E+ - E- = Tr(H L(RZ(a-2s) rho_j - RZ(a+2s) rho_j))
    // with rho_j the state just before the RZ. One suffix
    // application per rotation instead of two circuit executions.
    auto pairDiff = [&](const DensityMatrix &prefix, size_t i) {
        const size_t gi = rzIndex[i];
        const Gate &rz = gates[gi];
        DensityMatrix delta = prefix;
        {
            DensityMatrix minus = prefix;
            Gate up = rz, down = rz;
            up.angle -= 2.0 * opts.shift;   // phi + s
            down.angle += 2.0 * opts.shift; // phi - s
            delta.applyGate(up);
            minus.applyGate(down);
            auto &dv = delta.vectorized();
            const auto &mv = minus.vectorized();
            for (size_t k = 0; k < dv.size(); ++k)
                dv[k] -= mv[k];
        }
        // The RZ's own 1q channel commutes into the difference
        // (linearity), then the rest of the circuit runs noisy.
        if (noise.singleQubitDepolarizing > 0.0)
            delta.depolarize1(rz.q0, noise.singleQubitDepolarizing);
        delta.applyGates(gates.subspan(gi + 1), noise, fuse);
        return delta.expectation(ham);
    };

    std::vector<double> diffs(shiftable.size(), 0.0);
    const size_t vecBytes =
        (size_t{1} << (2 * n)) * sizeof(std::complex<double>);
    if (shiftable.size() * vecBytes <= opts.maxPrefixBytes) {
        // Snapshot every pre-RZ state in one forward sweep, then
        // fan the independent suffix sweeps over the pool.
        std::vector<DensityMatrix> prefixes;
        prefixes.reserve(shiftable.size());
        DensityMatrix rho(n);
        size_t from = 0;
        for (size_t gi : rzIndex) {
            rho.applyGates(gates.subspan(from, gi - from), noise, fuse);
            prefixes.push_back(rho);
            from = gi;
        }
        auto evalRange = [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                diffs[i] = pairDiff(prefixes[i], i);
        };
        if (opts.batched)
            parallelFor(0, shiftable.size(), evalRange, /*grain=*/1);
        else
            evalRange(0, shiftable.size());
    } else {
        // Streaming fallback: one forward state, each pair handled
        // as it is reached. O(1) extra memory, inherently serial.
        // The forward ranges match the snapshot path's, so both give
        // the same bits.
        DensityMatrix rho(n);
        size_t from = 0;
        for (size_t i = 0; i < rzIndex.size(); ++i) {
            rho.applyGates(gates.subspan(from, rzIndex[i] - from),
                           noise, fuse);
            diffs[i] = pairDiff(rho, i);
            from = rzIndex[i];
        }
    }
    return assemble(diffs, shiftScale());
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
            angles[rot] += sign * opts.shift;
            std::unique_ptr<SimBackend> backend = make();
            backend->applyAnsatz(unrolled, angles);
            shifted[t] = energy(*backend, t);
        }
    };
    if (opts.batched)
        parallelFor(0, tasks, evalRange, /*grain=*/1);
    else
        evalRange(0, tasks);

    std::vector<double> diffs(shiftable.size());
    for (size_t i = 0; i < shiftable.size(); ++i)
        diffs[i] = shifted[2 * i] - shifted[2 * i + 1];
    return assemble(diffs, shiftScale());
}

std::vector<double>
finiteDifferenceGradient(const Ansatz &ansatz,
                         const std::vector<double> &params,
                         const BackendFactory &make,
                         const StateEnergyFn &energy, double step)
{
    if (params.size() != ansatz.nParams)
        fatal("finiteDifferenceGradient: parameter count mismatch");
    std::vector<double> grad(params.size());
    std::vector<double> x = params;
    for (size_t k = 0; k < params.size(); ++k) {
        const double orig = x[k];
        double e[2];
        for (int s = 0; s < 2; ++s) {
            x[k] = orig + (s == 0 ? step : -step);
            std::unique_ptr<SimBackend> backend = make();
            backend->applyAnsatz(ansatz, x);
            e[s] = energy(*backend, 2 * k + size_t(s));
        }
        x[k] = orig;
        grad[k] = (e[0] - e[1]) / (2.0 * step);
    }
    return grad;
}

} // namespace qcc
