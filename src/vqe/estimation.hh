/**
 * @file
 * Energy-estimation strategies for the VQE driver. A strategy is the
 * composition of two orthogonal choices (which the since-removed
 * EvalMode enum used to weld together):
 *
 *  - a *state model*: how |psi(theta)> is realized — the ideal
 *    statevector, or the density matrix with depolarizing channels
 *    (gate circuits through the cached compiler pipeline);
 *  - a *readout*: how <H> is extracted from that state — the exact
 *    analytic expectation, or the shot-based SamplingEngine.
 *
 * The four products are the driver's evaluation modes, and the
 * composition is literal: NoisySampled (the end-to-end hardware
 * model, density-matrix state + shot readout) is one registry line
 * pairing the density-matrix model with the sampled readout — no new
 * code path. Strategies own their engines (ExpectationEngine or
 * SamplingEngine), construct fresh backends, and pick the optimal
 * gradient route for their state model and readout (the adjoint for
 * the analytic pure state, parameter shift wherever a readout needs
 * each shifted state or the state is mixed); the driver only derives
 * rng streams and keeps the trace.
 *
 * Modes are looked up by name in estimationRegistry() ("ideal",
 * "noisy", "sampled", "noisy_sampled"); unknown names throw a
 * RegistryError listing the registered modes.
 */

#ifndef QCC_VQE_ESTIMATION_HH
#define QCC_VQE_ESTIMATION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hh"
#include "pauli/pauli_sum.hh"
#include "sim/backend.hh"
#include "sim/noise_model.hh"
#include "sim/sampling.hh"
#include "vqe/expectation_engine.hh"
#include "vqe/gradient.hh"

namespace qcc {

/** One energy estimate with its statistical cost. */
struct EnergyEstimate
{
    double energy = 0.0;
    double variance = 0.0; ///< estimator variance (0 when exact)
    uint64_t shots = 0;    ///< shots spent on this estimate
};

/**
 * The state-model half of a strategy: whether the state is pure
 * (enabling the statevector gradient routes: the adjoint under
 * analytic readout, prefix-shared parameter shift under shot
 * readout), the noise channels (density-matrix models), and a
 * factory for fresh backends.
 */
struct StateModel
{
    bool pureState = true; ///< backend exposes a Statevector
    NoiseModel noise;      ///< channels (density-matrix model)
    BackendFactory make;   ///< fresh backend for this model
};

/** Ideal pure-state model on n qubits. */
StateModel statevectorModel(unsigned n);

/** Depolarizing-noise mixed-state model on n qubits. */
StateModel densityMatrixModel(unsigned n, NoiseModel noise);

/**
 * How the driver turns a prepared state into an energy estimate and
 * a parameter-shift gradient. Implementations are immutable after
 * construction except for engine-internal scratch; measure() and
 * gradient() derive all stochastic behavior from the caller's
 * streams, so a strategy adds no hidden state to the seed contract.
 */
class EstimationStrategy
{
  public:
    virtual ~EstimationStrategy() = default;

    /** Mode name recorded in traces ("ideal", "noisy_sampled", ...). */
    virtual const std::string &name() const = 0;

    /** True when estimates carry shot noise (stochastic readout). */
    virtual bool stochastic() const = 0;

    /** Fresh backend realizing this strategy's state model. */
    virtual std::unique_ptr<SimBackend> makeBackend() const = 0;

    /**
     * Estimate <H> in the backend's current (already prepared)
     * state. `stream` seeds stochastic readout; analytic strategies
     * ignore it.
     */
    virtual EnergyEstimate measure(SimBackend &backend,
                                   uint64_t stream) const = 0;

    /**
     * Generous end-of-run readout at the best parameters: like
     * measure() but with `factor` times this strategy's per-estimate
     * budget (the driver asks for 8x), using the strategy's own
     * sampling policy (grouping, weight-proportional allocation).
     * The default re-measures once — stochastic strategies with a
     * scalable budget override.
     */
    virtual EnergyEstimate
    finalReadout(SimBackend &backend, uint64_t stream,
                 unsigned factor) const
    {
        (void)factor;
        return measure(backend, stream);
    }

    /**
     * Full gradient through `engine`, routed over this strategy's
     * optimal path (adjoint, prefix-shared statevector replays,
     * pair-differenced noisy sweeps, or generic per-task backends).
     * `call_stream` seeds per-task readout streams; `shots_out`,
     * when non-null, receives the shots the gradient spent.
     */
    virtual std::vector<double>
    gradient(const ParameterShiftEngine &engine,
             const std::vector<double> &params, uint64_t call_stream,
             uint64_t *shots_out) const = 0;

    /**
     * Energy evaluations one gradient() call runs through `engine`:
     * 2R on the parameter-shift routes, 0 on the adjoint route.
     */
    virtual size_t
    gradientEvaluations(const ParameterShiftEngine &engine) const = 0;
};

/**
 * Analytic (exact expectation) readout over a state model: H by X
 * mask on a pure state, the backend's own expectation on a density
 * matrix (vqe/expectation_engine.hh).
 */
class AnalyticEstimation : public EstimationStrategy
{
  public:
    AnalyticEstimation(const PauliSum &h, StateModel model,
                       std::string mode_name);

    const std::string &name() const override { return modeName; }
    bool stochastic() const override { return false; }
    std::unique_ptr<SimBackend> makeBackend() const override;
    EnergyEstimate measure(SimBackend &backend,
                           uint64_t stream) const override;
    std::vector<double>
    gradient(const ParameterShiftEngine &engine,
             const std::vector<double> &params, uint64_t call_stream,
             uint64_t *shots_out) const override;
    size_t
    gradientEvaluations(const ParameterShiftEngine &engine) const override;

  private:
    ExpectationEngine engine;
    StateModel model;
    std::string modeName;
};

/** Shot-based (SamplingEngine) readout over a state model. */
class SampledEstimation : public EstimationStrategy
{
  public:
    SampledEstimation(const PauliSum &h, SamplingOptions sampling,
                      StateModel model, std::string mode_name);

    const std::string &name() const override { return modeName; }
    bool stochastic() const override { return true; }
    std::unique_ptr<SimBackend> makeBackend() const override;
    EnergyEstimate measure(SimBackend &backend,
                           uint64_t stream) const override;
    EnergyEstimate finalReadout(SimBackend &backend, uint64_t stream,
                                unsigned factor) const override;
    std::vector<double>
    gradient(const ParameterShiftEngine &engine,
             const std::vector<double> &params, uint64_t call_stream,
             uint64_t *shots_out) const override;
    size_t
    gradientEvaluations(const ParameterShiftEngine &engine) const override;

  private:
    SamplingEngine sampler;
    StateModel model;
    std::string modeName;
    uint64_t perEstimate = 0; ///< shots one estimate spends
};

/** Everything a mode factory needs to assemble a strategy. */
struct EstimationConfig
{
    const PauliSum *hamiltonian = nullptr;
    NoiseModel noise;
    SamplingOptions sampling;
    /** No built-in mode reads it: sampled modes take
     *  sampling.grouping, and analytic readout groups by X mask. */
    GroupingFn grouping;
};

using EstimationFactory = std::function<std::unique_ptr<
    EstimationStrategy>(const EstimationConfig &)>;

/**
 * Mode registry seeded with the four built-in compositions:
 * "ideal", "noisy", "sampled", and "noisy_sampled" (density-matrix
 * state + shot readout — the ROADMAP composition).
 */
Registry<EstimationFactory> &estimationRegistry();

/** Build the strategy for `mode`; throws RegistryError when unknown. */
std::unique_ptr<EstimationStrategy>
makeEstimationStrategy(const std::string &mode,
                       const EstimationConfig &config);

/**
 * True for the built-in modes whose state is a density matrix
 * ("noisy", "noisy_sampled"): they hold 4^n entries, so callers
 * check the register width before building one.
 */
bool densityMatrixMode(const std::string &mode);

} // namespace qcc

#endif // QCC_VQE_ESTIMATION_HH
