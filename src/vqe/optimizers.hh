/**
 * @file
 * Classical-optimizer strategies for the VQE driver. Each optimizer
 * is an object: minimize() drives the driver's public
 * energy()/gradient() evaluation interface (every evaluation lands
 * in the driver's trace) and returns the VqeResult. The api-layer
 * OptimizerRegistry maps names ("lbfgs", "gd", "spsa",
 * "nelder-mead") onto these classes so an ExperimentSpec can pick
 * an optimizer by string.
 */

#ifndef QCC_VQE_OPTIMIZERS_HH
#define QCC_VQE_OPTIMIZERS_HH

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

} // namespace qcc

#endif // QCC_VQE_OPTIMIZERS_HH
