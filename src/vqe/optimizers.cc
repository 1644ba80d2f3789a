#include "vqe/optimizers.hh"

#include <algorithm>

#include "common/optimize.hh"

namespace qcc {

namespace {

ObjectiveFn
objectiveOf(VqeDriver &driver)
{
    return [&driver](const std::vector<double> &x) {
        return driver.energy(x);
    };
}

} // namespace

VqeResult
LbfgsVqeOptimizer::minimize(VqeDriver &driver) const
{
    LbfgsOptions lo;
    lo.maxIter = driver.options().maxIter;
    OptimizeResult opt = lbfgsMinimize(
        [&driver](const std::vector<double> &x) {
            return driver.evaluate(x);
        },
        std::vector<double>(driver.numParams(), 0.0), lo);
    VqeResult res;
    res.energy = opt.fun;
    res.params = opt.x;
    res.iterations = opt.iterations;
    res.evals = opt.funEvals +
        int(driver.gradientCount() * driver.evaluationsPerGradient());
    res.converged = opt.converged;
    return res;
}

VqeResult
GradientDescentVqeOptimizer::minimize(VqeDriver &driver) const
{
    // The descent loop lives on the driver (friend access): it
    // interleaves its own trace records and stream draws with the
    // line search, which no public evaluation hook reproduces.
    return driver.runGradientDescent();
}

VqeResult
SpsaVqeOptimizer::minimize(VqeDriver &driver) const
{
    const VqeDriverOptions &o = driver.options();
    SpsaOptions so;
    so.maxIter = o.spsaIter;
    so.seed = deriveStream(o.seed, kVqeStreamSpsa);
    OptimizeResult opt =
        spsa(objectiveOf(driver),
             std::vector<double>(driver.numParams(), 0.0), so);
    VqeResult res;
    res.energy = opt.fun;
    res.params = opt.x;
    res.iterations = opt.iterations;
    res.evals = opt.funEvals;
    res.converged = opt.converged;
    return res;
}

VqeResult
NelderMeadVqeOptimizer::minimize(VqeDriver &driver) const
{
    const VqeDriverOptions &o = driver.options();
    NelderMeadOptions no;
    no.maxIter = o.maxIter * std::max(1u, driver.numParams());
    OptimizeResult opt =
        nelderMead(objectiveOf(driver),
                   std::vector<double>(driver.numParams(), 0.0), no);
    VqeResult res;
    res.energy = opt.fun;
    res.params = opt.x;
    res.iterations = opt.iterations;
    res.evals = opt.funEvals;
    res.converged = opt.converged;
    return res;
}

} // namespace qcc
