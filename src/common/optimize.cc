#include "common/optimize.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"

namespace qcc {

std::vector<double>
numericalGradient(const ObjectiveFn &f, const std::vector<double> &x,
                  double step)
{
    std::vector<double> g(x.size());
    std::vector<double> xp = x;
    for (size_t i = 0; i < x.size(); ++i) {
        double orig = xp[i];
        xp[i] = orig + step;
        double fp = f(xp);
        xp[i] = orig - step;
        double fm = f(xp);
        xp[i] = orig;
        g[i] = (fp - fm) / (2.0 * step);
    }
    return g;
}

OptimizeResult
nelderMead(const ObjectiveFn &f, std::vector<double> x0,
           const NelderMeadOptions &opts)
{
    const size_t n = x0.size();
    OptimizeResult res;
    if (n == 0) {
        res.x = x0;
        res.fun = f(x0);
        res.funEvals = 1;
        res.converged = true;
        return res;
    }

    // Initial simplex: x0 plus one vertex per coordinate direction.
    std::vector<std::vector<double>> simplex(n + 1, x0);
    for (size_t i = 0; i < n; ++i)
        simplex[i + 1][i] += opts.initStep;

    std::vector<double> fv(n + 1);
    int evals = 0;
    for (size_t i = 0; i <= n; ++i) {
        fv[i] = f(simplex[i]);
        ++evals;
    }

    auto order = [&]() {
        std::vector<size_t> idx(n + 1);
        std::iota(idx.begin(), idx.end(), size_t{0});
        std::sort(idx.begin(), idx.end(),
                  [&](size_t a, size_t b) { return fv[a] < fv[b]; });
        std::vector<std::vector<double>> s2(n + 1);
        std::vector<double> f2(n + 1);
        for (size_t i = 0; i <= n; ++i) {
            s2[i] = simplex[idx[i]];
            f2[i] = fv[idx[i]];
        }
        simplex = std::move(s2);
        fv = std::move(f2);
    };

    int iter = 0;
    for (; iter < opts.maxIter; ++iter) {
        order();

        double fspread = std::fabs(fv[n] - fv[0]);
        double xspread = 0.0;
        for (size_t i = 0; i < n; ++i)
            xspread = std::max(
                xspread, std::fabs(simplex[n][i] - simplex[0][i]));
        if (fspread < opts.fatol && xspread < opts.xatol) {
            res.converged = true;
            break;
        }

        // Centroid of all but worst.
        std::vector<double> cen(n, 0.0);
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < n; ++j)
                cen[j] += simplex[i][j];
        }
        for (double &c : cen)
            c /= double(n);

        auto blend = [&](double coef) {
            std::vector<double> p(n);
            for (size_t j = 0; j < n; ++j)
                p[j] = cen[j] + coef * (simplex[n][j] - cen[j]);
            return p;
        };

        std::vector<double> xr = blend(-1.0);
        double fr = f(xr);
        ++evals;

        if (fr < fv[0]) {
            std::vector<double> xe = blend(-2.0);
            double fe = f(xe);
            ++evals;
            if (fe < fr) {
                simplex[n] = xe;
                fv[n] = fe;
            } else {
                simplex[n] = xr;
                fv[n] = fr;
            }
        } else if (fr < fv[n - 1]) {
            simplex[n] = xr;
            fv[n] = fr;
        } else {
            bool outside = fr < fv[n];
            std::vector<double> xc = blend(outside ? -0.5 : 0.5);
            double fc = f(xc);
            ++evals;
            if (fc < std::min(fr, fv[n])) {
                simplex[n] = xc;
                fv[n] = fc;
            } else {
                // Shrink toward best vertex.
                for (size_t i = 1; i <= n; ++i) {
                    for (size_t j = 0; j < n; ++j) {
                        simplex[i][j] = simplex[0][j] +
                            0.5 * (simplex[i][j] - simplex[0][j]);
                    }
                    fv[i] = f(simplex[i]);
                    ++evals;
                }
            }
        }
    }

    order();
    res.x = simplex[0];
    res.fun = fv[0];
    res.iterations = iter;
    res.funEvals = evals;
    return res;
}

OptimizeResult
lbfgsMinimize(const EvaluationFn &f, std::vector<double> x0,
              const LbfgsOptions &opts)
{
    const size_t n = x0.size();
    OptimizeResult res;
    res.x = x0;
    if (n == 0) {
        res.fun = f(x0).value;
        res.funEvals = 1;
        res.converged = true;
        return res;
    }

    int evals = 0;
    // The gradient of `e`, the evaluation just made at x.
    auto gradient = [&](const Evaluation &e, const std::vector<double> &x) {
        if (e.gradient)
            return e.gradient();
        evals += int(2 * n);
        return numericalGradient(
            [&f](const std::vector<double> &p) { return f(p).value; }, x,
            opts.fdStep);
    };

    std::vector<double> x = x0;
    Evaluation ex = f(x);
    double fx = ex.value;
    ++evals;
    std::vector<double> g = gradient(ex, x);

    std::deque<std::vector<double>> sHist, yHist;
    std::deque<double> rhoHist;

    auto infNorm = [](const std::vector<double> &v) {
        double m = 0.0;
        for (double e : v)
            m = std::max(m, std::fabs(e));
        return m;
    };

    int iter = 0;
    for (; iter < opts.maxIter; ++iter) {
        if (infNorm(g) < opts.gtol) {
            res.converged = true;
            break;
        }

        // Two-loop recursion for the search direction d = -H g.
        std::vector<double> q = g;
        std::vector<double> alpha(sHist.size());
        for (size_t i = sHist.size(); i-- > 0;) {
            double a = rhoHist[i] *
                std::inner_product(sHist[i].begin(), sHist[i].end(),
                                   q.begin(), 0.0);
            alpha[i] = a;
            for (size_t j = 0; j < n; ++j)
                q[j] -= a * yHist[i][j];
        }
        double scale = 1.0;
        if (!sHist.empty()) {
            double sy = std::inner_product(sHist.back().begin(),
                                           sHist.back().end(),
                                           yHist.back().begin(), 0.0);
            double yy = std::inner_product(yHist.back().begin(),
                                           yHist.back().end(),
                                           yHist.back().begin(), 0.0);
            if (yy > 0)
                scale = sy / yy;
        }
        for (double &e : q)
            e *= scale;
        for (size_t i = 0; i < sHist.size(); ++i) {
            double b = rhoHist[i] *
                std::inner_product(yHist[i].begin(), yHist[i].end(),
                                   q.begin(), 0.0);
            for (size_t j = 0; j < n; ++j)
                q[j] += sHist[i][j] * (alpha[i] - b);
        }
        std::vector<double> d(n);
        for (size_t j = 0; j < n; ++j)
            d[j] = -q[j];

        double dg = std::inner_product(d.begin(), d.end(), g.begin(),
                                       0.0);
        if (dg > -1e-16) {
            // Not a descent direction; reset to steepest descent.
            for (size_t j = 0; j < n; ++j)
                d[j] = -g[j];
            dg = -std::inner_product(g.begin(), g.end(), g.begin(), 0.0);
            sHist.clear();
            yHist.clear();
            rhoHist.clear();
        }

        // Armijo backtracking.
        double step = 1.0;
        Evaluation eNew;
        std::vector<double> xNew = x;
        bool accepted = false;
        for (int ls = 0; ls < 40; ++ls) {
            for (size_t j = 0; j < n; ++j)
                xNew[j] = x[j] + step * d[j];
            eNew = f(xNew);
            ++evals;
            if (eNew.value <= fx + 1e-4 * step * dg) {
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if (!accepted) {
            res.converged = true; // no further progress possible
            break;
        }

        const double fNew = eNew.value;
        std::vector<double> gNew = gradient(eNew, xNew);
        std::vector<double> s(n), y(n);
        for (size_t j = 0; j < n; ++j) {
            s[j] = xNew[j] - x[j];
            y[j] = gNew[j] - g[j];
        }
        double sy = std::inner_product(s.begin(), s.end(), y.begin(),
                                       0.0);
        if (sy > 1e-12) {
            sHist.push_back(std::move(s));
            yHist.push_back(std::move(y));
            rhoHist.push_back(1.0 / sy);
            if (int(sHist.size()) > opts.history) {
                sHist.pop_front();
                yHist.pop_front();
                rhoHist.pop_front();
            }
        }

        double fChange = std::fabs(fx - fNew);
        x = std::move(xNew);
        fx = fNew;
        g = std::move(gNew);

        if (fChange < opts.ftol * (1.0 + std::fabs(fx))) {
            ++iter;
            res.converged = true;
            break;
        }
    }

    res.x = x;
    res.fun = fx;
    res.iterations = iter;
    res.funEvals = evals;
    return res;
}

OptimizeResult
spsa(const ObjectiveFn &f, std::vector<double> x0,
     const SpsaOptions &opts)
{
    const size_t n = x0.size();
    OptimizeResult res;
    Rng rng(opts.seed);

    std::vector<double> x = x0;
    std::vector<double> best = x;
    double fBest = f(x);
    int evals = 1;

    int iter = 0;
    for (; iter < opts.maxIter; ++iter) {
        double ak = opts.a /
            std::pow(iter + 1 + opts.stability, opts.alpha);
        double ck = opts.c / std::pow(iter + 1, opts.gamma);

        std::vector<double> delta(n);
        for (size_t j = 0; j < n; ++j)
            delta[j] = rng.coin() ? 1.0 : -1.0;

        std::vector<double> xp = x, xm = x;
        for (size_t j = 0; j < n; ++j) {
            xp[j] += ck * delta[j];
            xm[j] -= ck * delta[j];
        }
        double fp = f(xp), fm = f(xm);
        evals += 2;

        for (size_t j = 0; j < n; ++j)
            x[j] -= ak * (fp - fm) / (2.0 * ck * delta[j]);

        double fx = f(x);
        ++evals;
        if (fx < fBest) {
            fBest = fx;
            best = x;
        }
    }

    res.x = best;
    res.fun = fBest;
    res.iterations = iter;
    res.funEvals = evals;
    res.converged = true;
    return res;
}

} // namespace qcc
