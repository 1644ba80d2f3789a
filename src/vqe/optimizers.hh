/**
 * @file
 * Classical-optimizer strategies for the VQE driver. Each optimizer
 * the legacy VqeDriverOptions::Method enum switched over is now an
 * object: minimize() drives the driver's public energy()/gradient()
 * evaluation interface (every evaluation lands in the driver's trace
 * as before) and returns the VqeResult. The api-layer
 * OptimizerRegistry maps names ("lbfgs", "gd", "spsa",
 * "nelder-mead") onto these factories so an ExperimentSpec can pick
 * an optimizer by string; makeVqeOptimizer covers the legacy enum.
 */

#ifndef QCC_VQE_OPTIMIZERS_HH
#define QCC_VQE_OPTIMIZERS_HH

#include <memory>

#include "vqe/driver.hh"

namespace qcc {

/** One classical outer-loop minimization strategy. */
class VqeOptimizer
{
  public:
    virtual ~VqeOptimizer() = default;

    /** Name recorded in traces ("lbfgs", "gd", ...). */
    virtual const char *name() const = 0;

    /** Minimize the driver's energy from a zero start. */
    virtual VqeResult minimize(VqeDriver &driver) const = 0;
};

/** Quasi-Newton L-BFGS on the strategy's exact gradients. */
class LbfgsVqeOptimizer : public VqeOptimizer
{
  public:
    const char *name() const override { return "lbfgs"; }
    VqeResult minimize(VqeDriver &driver) const override;
};

/**
 * Steepest descent on exact gradients: Armijo backtracking on
 * deterministic objectives, a decaying open-loop gain schedule on
 * stochastic ones.
 */
class GradientDescentVqeOptimizer : public VqeOptimizer
{
  public:
    const char *name() const override { return "gd"; }
    VqeResult minimize(VqeDriver &driver) const override;
};

/** Noise-robust SPSA: two evaluations per iteration. */
class SpsaVqeOptimizer : public VqeOptimizer
{
  public:
    const char *name() const override { return "spsa"; }
    VqeResult minimize(VqeDriver &driver) const override;
};

/** Derivative-free Nelder-Mead simplex. */
class NelderMeadVqeOptimizer : public VqeOptimizer
{
  public:
    const char *name() const override { return "nelder-mead"; }
    VqeResult minimize(VqeDriver &driver) const override;
};

/** Strategy object for a legacy Method enum value. */
std::unique_ptr<VqeOptimizer>
makeVqeOptimizer(VqeDriverOptions::Method method);

} // namespace qcc

#endif // QCC_VQE_OPTIMIZERS_HH
