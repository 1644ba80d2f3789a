#include "vqe/driver.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/logging.hh"
#include "common/optimize.hh"
#include "obs/trace.hh"
#include "vqe/optimizers.hh"

namespace qcc {

namespace {

using clock_type = std::chrono::steady_clock;

/**
 * Gradient descent's initial step. It stops at the L-BFGS defaults
 * (LbfgsOptions: gradient infinity norm, relative energy change), so
 * both gradient optimizers share one convergence criterion.
 */
constexpr double kDescentRate = 0.4;

/**
 * Stochastic modes re-read the energy at the best parameters with
 * this multiple of the per-evaluation shot budget before reporting,
 * so the returned energy is not limited by one iteration's noise
 * floor.
 */
constexpr unsigned kFinalReadoutFactor = 8;

double
millisSince(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock_type::now() -
                                                     t0)
        .count();
}

double
infNorm(const std::vector<double> &v)
{
    double m = 0.0;
    for (double e : v)
        m = std::max(m, std::fabs(e));
    return m;
}

} // namespace

std::string
VqeTrace::json() const
{
    std::string out = "{\n";
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  \"mode\": \"%s\",\n  \"optimizer\": \"%s\",\n"
                  "  \"seed\": %llu,\n  \"points\": [",
                  mode.c_str(), optimizer.c_str(),
                  (unsigned long long)seed);
    out += buf;
    for (size_t i = 0; i < points.size(); ++i) {
        const VqeTracePoint &p = points[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"iter\": %d, \"energy\": %.17g, "
                      "\"variance\": %.17g, \"shots\": %llu, "
                      "\"grad_norm\": %.17g}",
                      i ? "," : "", p.iter, p.energy, p.variance,
                      (unsigned long long)p.shots, p.gradNorm);
        out += buf;
    }
    out += "\n  ]\n}\n";
    return out;
}

VqeDriver::VqeDriver(const PauliSum &h, const Ansatz &a,
                     VqeDriverOptions o,
                     std::unique_ptr<EstimationStrategy> strat)
    : ham(h), ansatz(a), opts(std::move(o)),
      strategy(std::move(strat)),
      shiftEngine(h, ansatz)
{
    if (ham.numQubits() != ansatz.nQubits)
        fatal("VqeDriver: Hamiltonian/ansatz width mismatch");
    if (!strategy)
        fatal("VqeDriver: null estimation strategy");
    optimizer = opts.optimizer;
    if (!optimizer)
        optimizer = std::make_shared<LbfgsVqeOptimizer>();
    evalBackend = strategy->makeBackend();
    traceData.mode = strategy->name();
    traceData.optimizer = optimizer->name();
    traceData.seed = opts.seed;
}

void
VqeDriver::prepareState(const std::vector<double> &params)
{
    const auto t0 = clock_type::now();
    evalBackend->applyAnsatz(ansatz, params);
    ++preparations;
    applyMs += millisSince(t0);
}

Evaluation
VqeDriver::evaluateAt(const std::vector<double> &params, uint64_t stream,
                      double *variance_out)
{
    prepareState(params);
    evaluatedAt = params;
    const auto t0 = clock_type::now();
    EnergyEstimate est = strategy->measure(*evalBackend, stream, hpsi);
    measureMs += millisSince(t0);
    shotsTotal += est.shots;
    if (variance_out)
        *variance_out = est.variance;
    return {est.energy,
            [this, state = preparations] { return gradientFrom(state); }};
}

std::vector<double>
VqeDriver::gradientFrom(uint64_t state)
{
    if (state != preparations)
        panic("VqeDriver: gradient of a stale evaluation (the state "
              "it needs was prepared again or used up)");
    ++preparations; // the walk may use up the prepared state
    uint64_t shots = 0;
    std::vector<double> g =
        strategy->gradientFrom(*evalBackend, hpsi, shiftEngine,
                               evaluatedAt, nextGradientStream(), &shots);
    shotsTotal += shots;
    return g;
}

uint64_t
VqeDriver::nextGradientStream()
{
    // Per-call, per-task streams: independent of scheduling, so the
    // fan-out is bit-identical at any lane cap.
    return deriveStream(deriveStream(opts.seed, kVqeStreamGradient),
                        gradCount++);
}

void
VqeDriver::recordPoint(int iter, double e, double var, double gnorm)
{
    traceData.points.push_back({iter, e, var, shotsTotal, gnorm});
}

Evaluation
VqeDriver::evaluate(const std::vector<double> &params)
{
    const uint64_t stream = deriveStream(
        deriveStream(opts.seed, kVqeStreamEnergy), evalCount);
    ++evalCount;
    double var = 0.0;
    Evaluation e = evaluateAt(params, stream, &var);
    recordPoint(int(evalCount), e.value, var, 0.0);
    return e;
}

double
VqeDriver::energy(const std::vector<double> &params)
{
    return evaluate(params).value;
}

std::vector<double>
VqeDriver::gradient(const std::vector<double> &params)
{
    uint64_t shots = 0;
    std::vector<double> g = strategy->gradient(
        shiftEngine, params, nextGradientStream(), &shots);
    shotsTotal += shots;
    return g;
}

VqeResult
VqeDriver::runGradientDescent()
{
    std::vector<double> x(ansatz.nParams, 0.0);
    const bool stochastic = strategy->stochastic();

    VqeResult res;
    const LbfgsOptions tol;
    double var = 0.0;
    // The latest evaluation, at x: each iteration's gradient
    // continues from it.
    Evaluation at = evaluateAt(
        x,
        deriveStream(deriveStream(opts.seed, kVqeStreamEnergy),
                     evalCount++),
        &var);
    double e = at.value;
    int evals = 1;
    double bestE = e;
    std::vector<double> bestX = x;

    int iter = 0;
    for (; iter < opts.maxIter; ++iter) {
        std::vector<double> g = at.gradient();
        const double gnorm = infNorm(g);
        recordPoint(iter, e, var, gnorm);
        if (gnorm < tol.gtol) {
            res.converged = true;
            break;
        }

        double eNew = e;
        std::vector<double> xNew = x;
        if (!stochastic) {
            // Deterministic objective: Armijo backtracking from the
            // initial step.
            double gg = 0.0;
            for (double v : g)
                gg += v * v;
            double step = kDescentRate;
            bool accepted = false;
            for (int ls = 0; ls < 30; ++ls) {
                for (size_t j = 0; j < x.size(); ++j)
                    xNew[j] = x[j] - step * g[j];
                Evaluation trial = evaluateAt(xNew, 0, &var);
                eNew = trial.value;
                ++evals;
                if (eNew <= e - 1e-4 * step * gg) {
                    at = std::move(trial);
                    accepted = true;
                    break;
                }
                step *= 0.5;
            }
            if (!accepted) {
                res.converged = true; // no descent left at this scale
                break;
            }
        } else {
            // Stochastic estimates: decaying open-loop step (the
            // SPSA gain schedule), no line search to fool.
            const double step =
                kDescentRate / std::pow(iter + 1.0, 0.602);
            for (size_t j = 0; j < x.size(); ++j)
                xNew[j] = x[j] - step * g[j];
            at = evaluateAt(xNew,
                            deriveStream(deriveStream(opts.seed,
                                                      kVqeStreamEnergy),
                                         evalCount++),
                            &var);
            eNew = at.value;
            ++evals;
        }

        const double change = std::fabs(e - eNew);
        x = std::move(xNew);
        e = eNew;
        if (e < bestE) {
            bestE = e;
            bestX = x;
        }
        if (!stochastic &&
            change < tol.ftol * (1.0 + std::fabs(e))) {
            ++iter;
            res.converged = true;
            break;
        }
    }

    res.energy = stochastic ? bestE : e;
    res.params = stochastic ? bestX : x;
    res.iterations = iter;
    res.evals = evals + int(gradCount * evaluationsPerGradient());
    if (stochastic)
        res.converged = true; // ran its budget; noise floor decides
    return res;
}

VqeResult
VqeDriver::run()
{
    VqeResult res;
    {
        TraceSpan span("vqe.optimize");
        const double apply0 = applyMs, measure0 = measureMs;
        res = optimizer->minimize(*this);
        span.arg("evals", res.evals);
        span.arg("apply_ms", applyMs - apply0);
        span.arg("measure_ms", measureMs - measure0);
    }

    if (strategy->stochastic()) {
        // Shot-frugal reporting: one generous readout at the best
        // parameters instead of tightening every iteration. The
        // strategy scales its own sampling policy, so injected
        // strategies and driver options cannot diverge here.
        prepareState(res.params);
        EnergyEstimate fin = strategy->finalReadout(
            *evalBackend, deriveStream(opts.seed, kVqeStreamReadout),
            kFinalReadoutFactor);
        shotsTotal += fin.shots;
        res.energy = fin.energy;
        recordPoint(res.iterations, fin.energy, fin.variance, 0.0);
    }
    return res;
}

std::string
VqeDriver::writeTrace(const std::string &name) const
{
    const std::string path = qccJsonPath("TRACE_" + name + ".json");
    if (path.empty())
        return {};
    return writeOutputFile(path, traceData.json(),
                           "VqeDriver::writeTrace");
}

} // namespace qcc
