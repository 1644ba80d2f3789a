/**
 * @file
 * Energy-estimation strategies for the VQE driver. A strategy is the
 * composition of two orthogonal choices (which the since-removed
 * EvalMode enum used to weld together):
 *
 *  - a *state model*: how |psi(theta)> is realized — the ideal
 *    statevector, or the Pauli-transfer frame with depolarizing
 *    channels (the chain-synthesized gate circuit, walked once into
 *    a FramePlan the model shares);
 *  - a *readout*: how <H> is extracted from that state — the exact
 *    analytic expectation, or the shot-based SamplingEngine.
 *
 * The four products are the driver's evaluation modes, and the
 * composition is literal: NoisySampled (the end-to-end hardware
 * model, noisy mixed state + shot readout) is one registry line
 * pairing the Pauli-frame model with the sampled readout — no new
 * code path. Strategies own their engines (ExpectationEngine or
 * SamplingEngine), construct fresh backends, and pick the optimal
 * gradient route for their state model and readout (an adjoint for
 * analytic readout, on the pure state or in the Pauli frame, and
 * parameter shift wherever a readout needs each shifted state); the
 * driver only derives rng streams, keeps the trace and owns the
 * H|psi> buffer an evaluation leaves. Analytic readout on a pure
 * state fills that buffer in measure(), and gradientFrom() walks the
 * adjoint back from the evaluation's state and it; every other
 * strategy's gradientFrom() runs its gradient() as before.
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
 * readout), the noisy model's plan slot, and a factory for fresh
 * backends.
 */
struct StateModel
{
    bool pureState = true; ///< backend exposes a Statevector
    /**
     * The mixed-state model's one FramePlan, shared by every backend
     * `make` returns and by the noisy gradient; null when pure. It
     * lives as long as the model, so plans do not pile up across
     * jobs.
     */
    std::shared_ptr<FramePlanSlot> plans;
    BackendFactory make; ///< fresh backend for this model
};

/** Ideal pure-state model on n qubits. */
StateModel statevectorModel(unsigned n);

/** Depolarizing-noise mixed-state model on n qubits (Pauli frame). */
StateModel pauliFrameModel(unsigned n, NoiseModel noise);

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
     * ignore it. `hpsi` is the caller's buffer for H|psi>: a
     * strategy whose gradientFrom() continues from the evaluation
     * (analytic readout on a pure state) leaves H|psi> there; the
     * others leave it alone.
     */
    virtual EnergyEstimate measure(SimBackend &backend, uint64_t stream,
                                   std::vector<cplx> &hpsi) const = 0;

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
        std::vector<cplx> hpsi;
        return measure(backend, stream, hpsi);
    }

    /**
     * Full gradient through `engine`, routed over this strategy's
     * optimal path (the pure-state or Pauli-frame adjoint,
     * prefix-shared statevector replays, or generic per-task
     * backends).
     * `call_stream` seeds per-task readout streams; `shots_out`,
     * when non-null, receives the shots the gradient spent.
     */
    virtual std::vector<double>
    gradient(const ParameterShiftEngine &engine,
             const std::vector<double> &params, uint64_t call_stream,
             uint64_t *shots_out) const = 0;

    /**
     * The gradient at `params`, continued from the evaluation there:
     * `backend` still holds the state measure() read and `hpsi` what
     * it left. May use both up. The default ignores them and runs
     * gradient(), as the sampled and noisy strategies do.
     */
    virtual std::vector<double>
    gradientFrom(SimBackend &backend, std::vector<cplx> &hpsi,
                 const ParameterShiftEngine &engine,
                 const std::vector<double> &params, uint64_t call_stream,
                 uint64_t *shots_out) const
    {
        (void)backend;
        (void)hpsi;
        return gradient(engine, params, call_stream, shots_out);
    }

    /**
     * Energy evaluations one gradient() call runs through `engine`:
     * 2R on the parameter-shift routes, 0 on the adjoint routes.
     */
    virtual size_t
    gradientEvaluations(const ParameterShiftEngine &engine) const = 0;
};

/**
 * Analytic (exact expectation) readout over a state model: H by X
 * mask on a pure state, the backend's own expectation in the Pauli
 * frame (vqe/expectation_engine.hh).
 */
class AnalyticEstimation : public EstimationStrategy
{
  public:
    AnalyticEstimation(const PauliSum &h, StateModel model,
                       std::string mode_name);

    const std::string &name() const override { return modeName; }
    bool stochastic() const override { return false; }
    std::unique_ptr<SimBackend> makeBackend() const override;
    EnergyEstimate measure(SimBackend &backend, uint64_t stream,
                           std::vector<cplx> &hpsi) const override;
    std::vector<double>
    gradient(const ParameterShiftEngine &engine,
             const std::vector<double> &params, uint64_t call_stream,
             uint64_t *shots_out) const override;
    std::vector<double>
    gradientFrom(SimBackend &backend, std::vector<cplx> &hpsi,
                 const ParameterShiftEngine &engine,
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
    EnergyEstimate measure(SimBackend &backend, uint64_t stream,
                           std::vector<cplx> &hpsi) const override;
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
 * "ideal", "noisy", "sampled", and "noisy_sampled" (noisy Pauli-frame
 * state + shot readout).
 */
Registry<EstimationFactory> &estimationRegistry();

/** Build the strategy for `mode`; throws RegistryError when unknown. */
std::unique_ptr<EstimationStrategy>
makeEstimationStrategy(const std::string &mode,
                       const EstimationConfig &config);

/**
 * True for the built-in modes whose state is the Pauli frame
 * ("noisy", "noisy_sampled"): it holds 4^n coefficients (8 * 4^n
 * bytes), so callers check the register width against
 * PauliFrame::kMaxQubits before building one.
 */
bool pauliFrameMode(const std::string &mode);

} // namespace qcc

#endif // QCC_VQE_ESTIMATION_HH
