#include "vqe/estimation.hh"

#include <algorithm>
#include <numeric>

#include "common/rng.hh"

namespace qcc {

StateModel
statevectorModel(unsigned n)
{
    StateModel m;
    m.pureState = true;
    m.make = [n] { return std::make_unique<StatevectorBackend>(n); };
    return m;
}

StateModel
pauliFrameModel(unsigned n, NoiseModel noise)
{
    StateModel m;
    m.pureState = false;
    m.plans = std::make_shared<FramePlanSlot>(noise);
    m.make = [n, noise, plans = m.plans] {
        return std::make_unique<PauliFrameBackend>(n, noise, plans);
    };
    return m;
}

// ------------------------------------------------------ analytic

AnalyticEstimation::AnalyticEstimation(const PauliSum &h,
                                       StateModel state_model,
                                       std::string mode_name)
    : engine(h), model(std::move(state_model)),
      modeName(std::move(mode_name))
{
}

std::unique_ptr<SimBackend>
AnalyticEstimation::makeBackend() const
{
    return model.make();
}

EnergyEstimate
AnalyticEstimation::measure(SimBackend &backend, uint64_t,
                            std::vector<cplx> &hpsi) const
{
    // A pure state keeps H|psi>: it is the adjoint's lambda at this
    // point (gradientFrom).
    if (const Statevector *psi = backend.statevector())
        return {engine.energy(*psi, hpsi), 0.0, 0};
    return {engine.energy(backend), 0.0, 0};
}

std::vector<double>
AnalyticEstimation::gradient(const ParameterShiftEngine &shift,
                             const std::vector<double> &params,
                             uint64_t, uint64_t *shots_out) const
{
    if (shots_out)
        *shots_out = 0;
    // Reverse mode on either state: no shifted state is ever read
    // out. The noisy route runs on the model's shared plan.
    if (model.pureState)
        return shift.gradientAdjoint(params);
    return shift.gradientNoisy(params,
                               *model.plans->get(shift.unrolledAnsatz()));
}

std::vector<double>
AnalyticEstimation::gradientFrom(SimBackend &backend,
                                 std::vector<cplx> &hpsi,
                                 const ParameterShiftEngine &shift,
                                 const std::vector<double> &params,
                                 uint64_t call_stream,
                                 uint64_t *shots_out) const
{
    // The Pauli frame's adjoint runs its own forward pass.
    Statevector *psi = backend.statevector();
    if (!psi)
        return gradient(shift, params, call_stream, shots_out);
    if (shots_out)
        *shots_out = 0;
    return shift.gradientAdjoint(params, *psi, hpsi);
}

size_t
AnalyticEstimation::gradientEvaluations(
    const ParameterShiftEngine &) const
{
    return 0;
}

// ------------------------------------------------------- sampled

SampledEstimation::SampledEstimation(const PauliSum &h,
                                     SamplingOptions sampling,
                                     StateModel state_model,
                                     std::string mode_name)
    : sampler(h, std::move(sampling)), model(std::move(state_model)),
      modeName(std::move(mode_name))
{
    perEstimate = std::accumulate(sampler.shotAllocation().begin(),
                                  sampler.shotAllocation().end(),
                                  uint64_t{0});
}

std::unique_ptr<SimBackend>
SampledEstimation::makeBackend() const
{
    return model.make();
}

EnergyEstimate
SampledEstimation::measure(SimBackend &backend, uint64_t stream,
                           std::vector<cplx> &) const
{
    Rng rng(stream);
    SampledEnergy s = sampler.measure(backend, rng);
    return {s.energy, s.variance, s.shots};
}

EnergyEstimate
SampledEstimation::finalReadout(SimBackend &backend, uint64_t stream,
                                unsigned factor) const
{
    // Scale this strategy's own sampling policy (same grouping and
    // allocation rule), not whatever the driver options happen to
    // hold — injected strategies stay self-consistent.
    SamplingOptions big = sampler.options();
    big.shots *= std::max(1u, factor);
    SamplingEngine readout(sampler.hamiltonian(), big);
    Rng rng(stream);
    SampledEnergy s = readout.measure(backend, rng);
    return {s.energy, s.variance, s.shots};
}

std::vector<double>
SampledEstimation::gradient(const ParameterShiftEngine &shift,
                            const std::vector<double> &params,
                            uint64_t call_stream,
                            uint64_t *shots_out) const
{
    // Every shifted evaluation spends the fixed allocation;
    // accounted here once so the parallel tasks touch no shared
    // state. Per-task streams derive from (call_stream, task), so
    // the gradient replays bit-for-bit at any lane cap.
    if (shots_out)
        *shots_out = gradientEvaluations(shift) * perEstimate;
    if (model.pureState)
        return shift.gradientStatevector(
            params, [&](const Statevector &psi, size_t task) {
                Rng rng(deriveStream(call_stream, task));
                return sampler.measure(psi, rng).energy;
            });
    // Mixed state + shot readout: generic per-task backends (each
    // task prepares its shifted state on the model's shared plan).
    return shift.gradient(
        params, model.make, [&](SimBackend &backend, size_t task) {
            Rng rng(deriveStream(call_stream, task));
            return sampler.measure(backend, rng).energy;
        });
}

size_t
SampledEstimation::gradientEvaluations(
    const ParameterShiftEngine &shift) const
{
    return shift.numShiftedEvaluations();
}

// ------------------------------------------------------ registry

Registry<EstimationFactory> &
estimationRegistry()
{
    static Registry<EstimationFactory> reg = [] {
        Registry<EstimationFactory> r("evaluation mode");
        r.add("ideal", [](const EstimationConfig &c) {
            return std::make_unique<AnalyticEstimation>(
                *c.hamiltonian,
                statevectorModel(c.hamiltonian->numQubits()),
                "ideal");
        });
        r.add("noisy", [](const EstimationConfig &c) {
            return std::make_unique<AnalyticEstimation>(
                *c.hamiltonian,
                pauliFrameModel(c.hamiltonian->numQubits(), c.noise),
                "noisy");
        });
        r.add("sampled", [](const EstimationConfig &c) {
            return std::make_unique<SampledEstimation>(
                *c.hamiltonian, c.sampling,
                statevectorModel(c.hamiltonian->numQubits()),
                "sampled");
        });
        // Noisy state + shot readout reproduces a real-hardware run
        // end to end.
        r.add("noisy_sampled", [](const EstimationConfig &c) {
            return std::make_unique<SampledEstimation>(
                *c.hamiltonian, c.sampling,
                pauliFrameModel(c.hamiltonian->numQubits(), c.noise),
                "noisy_sampled");
        });
        return r;
    }();
    return reg;
}

std::unique_ptr<EstimationStrategy>
makeEstimationStrategy(const std::string &mode,
                       const EstimationConfig &config)
{
    return estimationRegistry().get(mode)(config);
}

bool
pauliFrameMode(const std::string &mode)
{
    return mode == "noisy" || mode == "noisy_sampled";
}

} // namespace qcc
