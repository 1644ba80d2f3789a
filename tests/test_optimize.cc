/**
 * @file
 * Unit tests for the classical optimizers (Nelder-Mead, L-BFGS, SPSA)
 * on standard minimization problems, and L-BFGS's gradient requests:
 * one per accepted point, each of the evaluation just made.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "common/optimize.hh"

using namespace qcc;

namespace {

double
quadratic(const std::vector<double> &x)
{
    double s = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        s += (i + 1) * (x[i] - 1.0) * (x[i] - 1.0);
    return s;
}

double
rosenbrock(const std::vector<double> &x)
{
    double s = 0.0;
    for (size_t i = 0; i + 1 < x.size(); ++i) {
        double a = x[i + 1] - x[i] * x[i];
        double b = 1.0 - x[i];
        s += 100.0 * a * a + b * b;
    }
    return s;
}

/** `f` as an L-BFGS objective whose evaluations carry no gradient,
 *  so L-BFGS takes central differences. */
EvaluationFn
withoutGradient(double (*f)(const std::vector<double> &))
{
    return [f](const std::vector<double> &x) {
        return Evaluation{f(x), nullptr};
    };
}

} // namespace

TEST(NelderMead, QuadraticBowl)
{
    OptimizeResult r = nelderMead(quadratic, {0.0, 0.0, 0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.fun, 0.0, 1e-10);
    for (double xi : r.x)
        EXPECT_NEAR(xi, 1.0, 1e-4);
}

TEST(NelderMead, Rosenbrock2d)
{
    NelderMeadOptions o;
    o.maxIter = 5000;
    OptimizeResult r = nelderMead(rosenbrock, {-1.2, 1.0}, o);
    EXPECT_NEAR(r.x[0], 1.0, 1e-3);
    EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMead, ZeroDimensional)
{
    OptimizeResult r = nelderMead(quadratic, {});
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.funEvals, 1);
}

TEST(Lbfgs, QuadraticConvergesFast)
{
    OptimizeResult r =
        lbfgsMinimize(withoutGradient(quadratic), {5.0, -3.0, 2.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.fun, 0.0, 1e-9);
    EXPECT_LT(r.iterations, 50);
}

TEST(Lbfgs, RosenbrockWithNumericalGradient)
{
    // The banana valley with finite-difference gradients: expect the
    // basin to be reached (looser tolerance than the analytic case,
    // as the ftol stop triggers in the flat valley floor).
    LbfgsOptions o;
    o.maxIter = 2000;
    o.ftol = 1e-14;
    OptimizeResult r =
        lbfgsMinimize(withoutGradient(rosenbrock), {-1.2, 1.0}, o);
    EXPECT_LT(r.fun, 1e-5);
    EXPECT_NEAR(r.x[0], 1.0, 5e-3);
    EXPECT_NEAR(r.x[1], 1.0, 1e-2);
}

TEST(Lbfgs, AnalyticGradientMatchesNumerical)
{
    EvaluationFn f = [](const std::vector<double> &x) {
        return Evaluation{quadratic(x), [x] {
                              std::vector<double> g(x.size());
                              for (size_t i = 0; i < x.size(); ++i)
                                  g[i] = 2.0 * (i + 1) * (x[i] - 1.0);
                              return g;
                          }};
    };
    OptimizeResult r = lbfgsMinimize(f, {4.0, 4.0, 4.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.fun, 0.0, 1e-10);
}

TEST(Lbfgs, AsksForOneGradientPerAcceptedPointOfItsLatestEvaluation)
{
    // An objective that records its calls: every evaluation gets a
    // serial, and each gradient request notes whose it is and which
    // evaluation came last.
    int evaluations = 0;
    std::vector<std::pair<int, int>> requests; // (owner, latest)
    EvaluationFn f = [&](const std::vector<double> &x) {
        const int serial = ++evaluations;
        return Evaluation{rosenbrock(x), [&, serial, x] {
                              requests.push_back({serial, evaluations});
                              const double a = x[1] - x[0] * x[0];
                              return std::vector<double>{
                                  -400.0 * x[0] * a - 2.0 * (1.0 - x[0]),
                                  200.0 * a};
                          }};
    };
    LbfgsOptions o;
    o.maxIter = 2000;
    const OptimizeResult r = lbfgsMinimize(f, {-1.2, 1.0}, o);
    EXPECT_LT(r.fun, 1e-8);
    EXPECT_EQ(r.funEvals, evaluations);
    // x0 and every accepted point, and no rejected trial.
    EXPECT_EQ(int(requests.size()), r.iterations + 1);
    EXPECT_GT(evaluations, int(requests.size()));
    for (const auto &[owner, latest] : requests)
        EXPECT_EQ(owner, latest);
}

TEST(Lbfgs, FewerIterationsForFewerParameters)
{
    // The paper's convergence claim in miniature: a 2-parameter
    // quadratic needs no more iterations than a 12-parameter one.
    OptimizeResult small = lbfgsMinimize(withoutGradient(quadratic),
                                         std::vector<double>(2, 5.0));
    OptimizeResult large = lbfgsMinimize(withoutGradient(quadratic),
                                         std::vector<double>(12, 5.0));
    EXPECT_LE(small.iterations, large.iterations + 1);
    EXPECT_LT(small.funEvals, large.funEvals);
}

TEST(NumericalGradient, MatchesAnalytic)
{
    std::vector<double> x{0.3, -0.7};
    auto g = numericalGradient(quadratic, x, 1e-6);
    EXPECT_NEAR(g[0], 2.0 * (x[0] - 1.0), 1e-6);
    EXPECT_NEAR(g[1], 4.0 * (x[1] - 1.0), 1e-6);
}

TEST(Spsa, NoisyQuadratic)
{
    // SPSA should find the basin even with evaluation noise.
    uint64_t state = 12345;
    auto noisy = [&state](const std::vector<double> &x) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        double noise = double(int64_t(state >> 33)) / double(1ll << 31);
        return quadratic(x) + 1e-3 * noise;
    };
    SpsaOptions o;
    o.maxIter = 800;
    OptimizeResult r = spsa(noisy, {2.0, -1.0}, o);
    EXPECT_LT(std::fabs(r.x[0] - 1.0), 0.15);
    EXPECT_LT(std::fabs(r.x[1] - 1.0), 0.15);
}
