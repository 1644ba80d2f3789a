/**
 * @file
 * Derivative-free and quasi-Newton optimizers used by the VQE outer
 * loop (and by the STO-nG fitter in tests/chem_reference.hh, the
 * oracle of the committed basis table). The paper optimizes VQE
 * parameters with SLSQP; our problems are unconstrained, so L-BFGS with
 * numerical gradients is the equivalent quasi-Newton choice. Nelder-Mead
 * and SPSA cover noise-free derivative-free and noisy regimes.
 */

#ifndef QCC_COMMON_OPTIMIZE_HH
#define QCC_COMMON_OPTIMIZE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace qcc {

/** Scalar objective over a parameter vector. */
using ObjectiveFn = std::function<double(const std::vector<double> &)>;

/** Optional analytic gradient. */
using GradientFn =
    std::function<std::vector<double>(const std::vector<double> &)>;

/** Result of a minimization run. */
struct OptimizeResult
{
    std::vector<double> x;    ///< best parameters found
    double fun = 0.0;         ///< objective at x
    int iterations = 0;       ///< outer-loop iterations (paper metric)
    int funEvals = 0;         ///< objective evaluations
    bool converged = false;   ///< tolerance reached before maxIter
};

/** Nelder-Mead options. */
struct NelderMeadOptions
{
    int maxIter = 2000;
    double xatol = 1e-6;      ///< simplex size tolerance
    double fatol = 1e-8;      ///< function spread tolerance
    double initStep = 0.1;    ///< initial simplex edge length
};

/** Downhill-simplex minimization (Nelder-Mead). */
OptimizeResult nelderMead(const ObjectiveFn &f, std::vector<double> x0,
                          const NelderMeadOptions &opts = {});

/** L-BFGS options. */
struct LbfgsOptions
{
    int maxIter = 200;
    int history = 10;         ///< stored curvature pairs
    double gtol = 1e-5;       ///< gradient infinity-norm tolerance
    double ftol = 1e-9;       ///< relative objective-change tolerance
    double fdStep = 1e-6;     ///< central-difference step when no grad
};

/**
 * L-BFGS minimization with Armijo backtracking line search. If grad is
 * null, central finite differences are used (2*dim evaluations per
 * gradient, mirroring SciPy SLSQP's numerical-gradient mode used by the
 * paper).
 */
OptimizeResult lbfgsMinimize(const ObjectiveFn &f, std::vector<double> x0,
                             const LbfgsOptions &opts = {},
                             const GradientFn &grad = nullptr);

/** SPSA options (for noisy objectives). */
struct SpsaOptions
{
    int maxIter = 300;
    double a = 0.2;           ///< step-size numerator
    double c = 0.1;           ///< perturbation size
    double alpha = 0.602;     ///< step-size decay exponent
    double gamma = 0.101;     ///< perturbation decay exponent
    double stability = 10.0;  ///< step-size stability constant A
    uint64_t seed = 7;
};

/**
 * Simultaneous-perturbation stochastic approximation: two objective
 * evaluations per iteration regardless of dimension, robust to shot and
 * hardware noise.
 */
OptimizeResult spsa(const ObjectiveFn &f, std::vector<double> x0,
                    const SpsaOptions &opts = {});

/** Central-difference numerical gradient helper. */
std::vector<double> numericalGradient(const ObjectiveFn &f,
                                      const std::vector<double> &x,
                                      double step = 1e-6);

} // namespace qcc

#endif // QCC_COMMON_OPTIMIZE_HH
