#include "vqe/estimation.hh"

#include <algorithm>
#include <numeric>

#include "common/rng.hh"

namespace qcc {

StateModel
statevectorModel(unsigned n)
{
    StateModel m;
    m.id = "statevector";
    m.pureState = true;
    m.make = [n] { return std::make_unique<StatevectorBackend>(n); };
    return m;
}

StateModel
densityMatrixModel(unsigned n, NoiseModel noise)
{
    StateModel m;
    m.id = "density_matrix";
    m.pureState = false;
    m.noise = noise;
    m.make = [n, noise] {
        return std::make_unique<DensityMatrixBackend>(n, noise);
    };
    return m;
}

// ------------------------------------------------------ analytic

AnalyticEstimation::AnalyticEstimation(const PauliSum &h,
                                       StateModel state_model,
                                       std::string mode_name,
                                       const GroupingFn &grouping)
    : engine(h, grouping), model(std::move(state_model)),
      modeName(std::move(mode_name))
{
}

std::unique_ptr<SimBackend>
AnalyticEstimation::makeBackend() const
{
    return model.make();
}

EnergyEstimate
AnalyticEstimation::measure(SimBackend &backend, uint64_t) const
{
    return {engine.energy(backend), 0.0, 0};
}

std::vector<double>
AnalyticEstimation::gradient(const ParameterShiftEngine &shift,
                             const std::vector<double> &params,
                             uint64_t, uint64_t *shots_out) const
{
    if (shots_out)
        *shots_out = 0;
    // Pure state: reverse mode, no shifted state is ever read out.
    if (model.pureState)
        return shift.gradientAdjoint(params);
    // Mixed state: the pair-differenced noisy sweep (one suffix
    // application per rotation through the cached compiled circuit).
    return shift.gradientNoisy(params, model.noise);
}

size_t
AnalyticEstimation::gradientEvaluations(
    const ParameterShiftEngine &shift) const
{
    return model.pureState ? 0 : shift.numShiftedEvaluations();
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
SampledEstimation::measure(SimBackend &backend,
                           uint64_t stream) const
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
    // accounted here once so the batched tasks touch no shared
    // state. Per-task streams derive from (call_stream, task), so
    // batched and serial execution replay bit-for-bit.
    if (shots_out)
        *shots_out = gradientEvaluations(shift) * perEstimate;
    if (model.pureState)
        return shift.gradientStatevector(
            params, [&](const Statevector &psi, size_t task) {
                Rng rng(deriveStream(call_stream, task));
                return sampler.measure(psi, rng).energy;
            });
    // Mixed state + shot readout: generic per-task backends (each
    // task prepares its shifted state with a full noisy replay).
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
                statevectorModel(c.hamiltonian->numQubits()), "ideal",
                c.grouping);
        });
        r.add("noisy", [](const EstimationConfig &c) {
            return std::make_unique<AnalyticEstimation>(
                *c.hamiltonian,
                densityMatrixModel(c.hamiltonian->numQubits(),
                                   c.noise),
                "noisy", c.grouping);
        });
        r.add("sampled", [](const EstimationConfig &c) {
            return std::make_unique<SampledEstimation>(
                *c.hamiltonian, c.sampling,
                statevectorModel(c.hamiltonian->numQubits()),
                "sampled");
        });
        // The ROADMAP composition: density-matrix state + shot
        // readout reproduces a real-hardware run end to end.
        r.add("noisy_sampled", [](const EstimationConfig &c) {
            return std::make_unique<SampledEstimation>(
                *c.hamiltonian, c.sampling,
                densityMatrixModel(c.hamiltonian->numQubits(),
                                   c.noise),
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
densityMatrixMode(const std::string &mode)
{
    return mode == "noisy" || mode == "noisy_sampled";
}

} // namespace qcc
