/**
 * @file
 * Unified VQE driver: one object owning the evaluation loop — an
 * EstimationStrategy (state model + readout), a parameter-shift
 * gradient engine, and a classical VqeOptimizer strategy. The
 * strategy seam composes the evaluation modes:
 *
 *  - ideal:         statevector state, analytic expectation by X
 *                   mask;
 *  - noisy:         density-matrix state with depolarizing channels
 *                   (gate circuits through the cached compiler
 *                   pipeline), analytic expectation;
 *  - sampled:       statevector state, shot-based SamplingEngine
 *                   readout (the NISQ measurement-cost model);
 *  - noisy_sampled: density-matrix state + shot readout — the
 *                   end-to-end hardware model, composed from the
 *                   same two parts rather than a new code path;
 *
 * and the optimizers (L-BFGS with exact gradients — adjoint on the
 * ideal path, parameter shift elsewhere — plain gradient descent,
 * SPSA, Nelder-Mead) are
 * registry-backed strategy objects (vqe/optimizers.hh). Every run
 * records a machine-readable trace — per-point energy, estimator
 * variance, cumulative shots, gradient norm — that writeTrace()
 * serializes as TRACE_<name>.json under the QCC_JSON convention, so
 * convergence and measurement-cost trajectories can be captured
 * without scraping stdout. All stochastic behavior derives from one
 * seed (default: the QCC_SEED-backed global seed).
 *
 * VqeDriverOptions holds what a run varies: the optimizer, the noise
 * and sampling models, the iteration budgets and the seed. The rest
 * is fixed: gradient descent starts from a 0.4 step and stops at the
 * L-BFGS default tolerances (LbfgsOptions), parameter shift uses
 * s = pi/4 (vqe/gradient.hh), and stochastic modes report a final
 * readout at 8x the per-evaluation shot budget.
 *
 * Construction is strategy-injection only (the legacy EvalMode-enum
 * shim is gone): spec-level code goes through qcc::Experiment
 * (api/experiment.hh) or the sweep layer (sweep/sweep_engine.hh),
 * Hamiltonian-level code builds a strategy with
 * makeEstimationStrategy and hands it to the driver.
 */

#ifndef QCC_VQE_DRIVER_HH
#define QCC_VQE_DRIVER_HH

#include <memory>
#include <string>
#include <vector>

#include "ansatz/uccsd.hh"
#include "common/rng.hh"
#include "pauli/pauli_sum.hh"
#include "sim/backend.hh"
#include "sim/noise_model.hh"
#include "sim/sampling.hh"
#include "vqe/estimation.hh"
#include "vqe/gradient.hh"
#include "vqe/vqe.hh"

namespace qcc {

class VqeOptimizer;

/**
 * Sub-stream tags for the driver's stochastic consumers: no two
 * consumers share a stream, and optimizer strategies (SPSA) derive
 * theirs from the same table.
 */
constexpr uint64_t kVqeStreamEnergy = 1;
constexpr uint64_t kVqeStreamGradient = 2;
constexpr uint64_t kVqeStreamSpsa = 3;
constexpr uint64_t kVqeStreamReadout = 4;

/** Driver configuration. */
struct VqeDriverOptions
{
    /**
     * Optimizer strategy (vqe/optimizers.hh, or by name from the api
     * OptimizerRegistry); null means L-BFGS.
     */
    std::shared_ptr<const VqeOptimizer> optimizer;

    NoiseModel noise;         ///< noisy-mode channels
    SamplingOptions sampling; ///< sampled-mode shot policy

    int maxIter = 200;        ///< outer-loop iteration budget
    int spsaIter = 250;       ///< SPSA iteration budget

    /**
     * Master seed for every stochastic component of the run (shot
     * draws, SPSA perturbations). Defaults to the process-wide
     * QCC_SEED-backed seed, so one environment variable reproduces
     * the whole run.
     */
    uint64_t seed = globalSeed();
};

/** One trace record. */
struct VqeTracePoint
{
    int iter = 0;         ///< optimizer iteration / evaluation index
    double energy = 0.0;
    double variance = 0.0; ///< estimator variance (0 when exact)
    uint64_t shots = 0;    ///< cumulative shots spent so far
    double gradNorm = 0.0; ///< infinity norm (0 when not computed)
};

/** Machine-readable run record. */
struct VqeTrace
{
    std::string mode;      ///< estimation-strategy name
    std::string optimizer;
    uint64_t seed = 0;
    std::vector<VqeTracePoint> points;

    /** Full JSON document (stable field order, %.17g numbers). */
    std::string json() const;
};

/**
 * VQE driver owning backend construction, energy estimation,
 * gradients, and the optimizer loop. Not thread-safe; gradient
 * evaluations internally fan out over the thread pool.
 */
class VqeDriver
{
  public:
    /**
     * Strategy-injection constructor: the driver estimates energies
     * through `strategy` and minimizes with opts.optimizer (L-BFGS
     * when null).
     */
    VqeDriver(const PauliSum &h, const Ansatz &ansatz,
              VqeDriverOptions opts,
              std::unique_ptr<EstimationStrategy> strategy);

    // Not copyable or movable: shiftEngine points at this driver's
    // own ansatz member, so a relocated driver would leave the
    // engine reading the old object's storage.
    VqeDriver(const VqeDriver &) = delete;
    VqeDriver &operator=(const VqeDriver &) = delete;

    /**
     * One energy estimate at `params` (recorded in the trace).
     * Stochastic strategies consume a per-call rng stream derived
     * from the seed and the evaluation counter.
     */
    double energy(const std::vector<double> &params);

    /**
     * Exact gradient at `params` over the strategy's route
     * (evaluationsPerGradient() energy evaluations).
     */
    std::vector<double> gradient(const std::vector<double> &params);

    /**
     * Minimize from a zero start with the configured optimizer. The
     * optimization runs under one "vqe.optimize" trace span whose
     * args split it: evals, apply_ms (state preparation, compile
     * cache rebind included) and measure_ms (readout). There is no
     * span per evaluation, so a traced sweep stays far below the
     * per-thread event cap.
     */
    VqeResult run();

    const VqeTrace &trace() const { return traceData; }
    uint64_t shotsSpent() const { return shotsTotal; }
    const VqeDriverOptions &options() const { return opts; }

    /** Ansatz parameter count (optimizer start-vector dimension). */
    unsigned numParams() const { return ansatz.nParams; }

    /** Gradient calls so far (optimizer evals accounting). */
    uint64_t gradientCount() const { return gradCount; }

    /**
     * Energy evaluations one gradient() runs, as the strategy
     * reports them (2R for parameter shift, 0 for the adjoint).
     */
    size_t evaluationsPerGradient() const
    {
        return strategy->gradientEvaluations(shiftEngine);
    }

    /**
     * Write the trace as TRACE_<name>.json under the QCC_JSON
     * convention ("1" = current directory, otherwise a directory).
     * Returns the path written, or empty when QCC_JSON is unset.
     */
    std::string writeTrace(const std::string &name) const;

  private:
    friend class GradientDescentVqeOptimizer;

    /** applyAnsatz on the evaluation backend, timed into applyMs. */
    void prepareState(const std::vector<double> &params);
    double measureCurrent(SimBackend &backend, uint64_t stream,
                          double *variance_out);
    VqeResult runGradientDescent();
    void recordPoint(int iter, double e, double var, double gnorm);

    PauliSum ham;
    Ansatz ansatz;
    VqeDriverOptions opts;
    std::unique_ptr<EstimationStrategy> strategy;
    std::shared_ptr<const VqeOptimizer> optimizer;
    ParameterShiftEngine shiftEngine;
    std::unique_ptr<SimBackend> evalBackend; ///< reused, serial path
    VqeTrace traceData;
    uint64_t shotsTotal = 0;
    uint64_t evalCount = 0;
    uint64_t gradCount = 0;
    /** Wall time in prepareState / measureCurrent (vqe.optimize). */
    double applyMs = 0.0;
    double measureMs = 0.0;
};

} // namespace qcc

#endif // QCC_VQE_DRIVER_HH
