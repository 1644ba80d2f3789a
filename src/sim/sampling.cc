#include "sim/sampling.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "pauli/grouping.hh"

namespace qcc {

namespace {

/**
 * Floor per family: even a tiny-coefficient family keeps enough
 * shots for a meaningful mean (and a nonzero variance estimate).
 */
constexpr uint64_t kMinShotsPerGroup = 16;

} // namespace

SamplingEngine::SamplingEngine(const PauliSum &h, SamplingOptions o)
    : ham(h), opts(o), nQubits(h.numQubits())
{
    if (ham.maxImagCoeff() > 1e-9)
        warn("SamplingEngine: dropping imaginary coefficient parts "
             "(Hamiltonian should be Hermitian)");
    if (opts.shots == 0)
        panic("SamplingEngine: shot budget must be positive");

    // Identity terms are an exact constant: sampling them would spend
    // shots on an observable with zero variance.
    PauliSum sampled(nQubits);
    for (const auto &t : h.terms()) {
        if (t.string.isIdentity())
            offset += t.coeff.real();
        else
            sampled.add(t.coeff, t.string);
    }

    const std::vector<MeasurementGroup> families =
        opts.grouping ? opts.grouping(sampled)
                      : groupQubitWise(sampled);
    for (const auto &group : families) {
        SampledGroup g;
        g.rotations = basisChangeOps(group.basis);
        for (size_t idx : group.termIndices) {
            const PauliTerm &t = sampled.terms()[idx];
            g.weights.push_back(t.coeff.real());
            // After the basis rotations every member is Z on exactly
            // its own support.
            g.zMasks.push_back(t.string.supportMask());
            g.absWeight += std::fabs(t.coeff.real());
        }
        groups.push_back(std::move(g));
    }

    // Shot allocation: proportional to family |coefficient| weight
    // with a per-family floor, uniform when every weight is zero.
    // Computed once — the allocation is a property of the
    // Hamiltonian, not the state.
    allocation.assign(groups.size(), 0);
    if (groups.empty())
        return;
    double totalWeight = 0.0;
    for (const auto &g : groups)
        totalWeight += g.absWeight;
    const uint64_t floor_shots =
        std::min(kMinShotsPerGroup,
                 std::max<uint64_t>(1, opts.shots / groups.size()));
    size_t heaviest = 0;
    uint64_t assigned = 0;
    for (size_t i = 0; i < groups.size(); ++i) {
        uint64_t s;
        if (totalWeight <= 0.0) {
            s = opts.shots / groups.size();
        } else {
            s = uint64_t(std::llround(
                double(opts.shots) * groups[i].absWeight /
                totalWeight));
        }
        allocation[i] = std::max(floor_shots, s);
        assigned += allocation[i];
        if (groups[i].absWeight > groups[heaviest].absWeight)
            heaviest = i;
    }
    // Rounding may leave the budget short; the heaviest family (the
    // one whose variance dominates) absorbs the remainder.
    if (assigned < opts.shots)
        allocation[heaviest] += opts.shots - assigned;
}

SampledEnergy
SamplingEngine::measure(SimBackend &backend, Rng &rng) const
{
    if (backend.numQubits() != nQubits)
        panic("SamplingEngine::measure: backend/Hamiltonian width "
              "mismatch");
    return measureFrom(
        [&](const std::vector<std::pair<unsigned, PauliOp>> &rot) {
            return backend.measurementProbabilities(rot);
        },
        rng);
}

SampledEnergy
SamplingEngine::measure(const Statevector &psi, Rng &rng) const
{
    if (psi.numQubits() != nQubits)
        panic("SamplingEngine::measure: state/Hamiltonian width "
              "mismatch");
    return measureFrom(
        [&](const std::vector<std::pair<unsigned, PauliOp>> &rot) {
            return psi.basisProbabilities(rot);
        },
        rng);
}

SampledEnergy
SamplingEngine::measureFrom(const ProbabilityFn &probabilities,
                            Rng &rng) const
{
    TraceSpan span("sample.measure");
    span.arg("groups", groups.size());
    span.arg("shots", opts.shots);

    SampledEnergy out;
    out.energy = offset;

    for (size_t gi = 0; gi < groups.size(); ++gi) {
        const SampledGroup &g = groups[gi];
        const uint64_t shots = allocation[gi];

        std::vector<double> probs = probabilities(g.rotations);

        // Inverse-CDF sampling: one cumulative pass, then one binary
        // search per shot. Outcomes are tallied so each distinct
        // bitstring's term values are evaluated once.
        std::vector<double> cdf(probs.size());
        double acc = 0.0;
        for (size_t b = 0; b < probs.size(); ++b) {
            acc += probs[b];
            cdf[b] = acc;
        }
        if (acc <= 0.0)
            panic("SamplingEngine::measure: backend returned an "
                  "empty outcome distribution");

        std::vector<uint32_t> counts(probs.size(), 0);
        for (uint64_t s = 0; s < shots; ++s) {
            const double u = rng.uniform() * acc;
            const size_t b =
                std::upper_bound(cdf.begin(), cdf.end(), u) -
                cdf.begin();
            ++counts[std::min(b, cdf.size() - 1)];
        }

        // Family observable per outcome: sum_t w_t (-1)^{|b & m_t|}.
        // Mean estimates the family energy; the sample variance of
        // the observable over the shot record gives the estimator
        // variance contribution var/shots.
        double sum = 0.0, sumSq = 0.0;
        for (size_t b = 0; b < counts.size(); ++b) {
            if (!counts[b])
                continue;
            double v = 0.0;
            for (size_t t = 0; t < g.weights.size(); ++t) {
                const int sign =
                    (std::popcount(uint64_t(b) & g.zMasks[t]) & 1)
                        ? -1
                        : 1;
                v += g.weights[t] * sign;
            }
            sum += double(counts[b]) * v;
            sumSq += double(counts[b]) * v * v;
        }
        const double mean = sum / double(shots);
        out.energy += mean;
        if (shots > 1) {
            const double var =
                std::max(0.0, (sumSq - double(shots) * mean * mean) /
                                  double(shots - 1));
            out.variance += var / double(shots);
        }
        out.shots += shots;
    }
    return out;
}

} // namespace qcc
