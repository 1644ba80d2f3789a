/**
 * @file
 * Reference implementations the chemistry front end is tested
 * against: the STO-nG fitter whose output src/chem/sto_ng.cc commits
 * as a table, and the seed's per-call McMurchie-Davidson integral
 * loop (with its Hermite E and Boys helpers) that
 * src/chem/integrals.cc must reproduce bit for bit. Production never
 * fits or runs this loop; StoNg.TableMatchesTheFitter and
 * Integrals.MatchTheReferenceBitForBit hold the two to these copies.
 */

#ifndef QCC_TESTS_CHEM_REFERENCE_HH
#define QCC_TESTS_CHEM_REFERENCE_HH

#include <array>
#include <cmath>
#include <vector>

#include "chem/basis.hh"
#include "chem/integrals.hh"
#include "chem/molecule.hh"
#include "chem/sto_ng.hh"
#include "common/linalg.hh"
#include "common/logging.hh"
#include "common/matrix.hh"
#include "common/optimize.hh"

namespace qcc_test {

using qcc::BasisSet;
using qcc::IntegralTables;
using qcc::Matrix;
using qcc::Molecule;
using qcc::StoFit;

/** @{ STO-nG fitter. The unit-zeta Slater radial function
 *  r^{n-1} exp(-r) is least-squares fit by n_gauss Gaussian
 *  primitives r^l exp(-alpha r^2) (overlap-maximizing fit,
 *  Nelder-Mead over log-exponents, linear solve for coefficients). */

/** Radial quadrature grid: composite Simpson on [0, rmax]. */
struct RadialGrid
{
    std::vector<double> r;
    std::vector<double> w; ///< weights including the r^2 measure

    RadialGrid(double rmax, int n)
    {
        // n must be even for Simpson.
        if (n % 2)
            ++n;
        const double h = rmax / n;
        r.resize(n + 1);
        w.resize(n + 1);
        for (int i = 0; i <= n; ++i) {
            r[i] = i * h;
            double simpson =
                (i == 0 || i == n) ? 1.0 : (i % 2 ? 4.0 : 2.0);
            w[i] = simpson * h / 3.0 * r[i] * r[i];
        }
    }
};

/** <u, v> = int u(r) v(r) r^2 dr on the grid. */
inline double
radialInner(const RadialGrid &g, const std::vector<double> &u,
            const std::vector<double> &v)
{
    double s = 0.0;
    for (size_t i = 0; i < g.r.size(); ++i)
        s += g.w[i] * u[i] * v[i];
    return s;
}

inline std::vector<double>
slaterRadial(const RadialGrid &g, int n)
{
    std::vector<double> f(g.r.size());
    for (size_t i = 0; i < g.r.size(); ++i)
        f[i] = std::pow(g.r[i], n - 1) * std::exp(-g.r[i]);
    return f;
}

inline std::vector<double>
gaussRadial(const RadialGrid &g, int l, double alpha)
{
    std::vector<double> f(g.r.size());
    for (size_t i = 0; i < g.r.size(); ++i)
        f[i] = std::pow(g.r[i], l) * std::exp(-alpha * g.r[i] * g.r[i]);
    return f;
}

/**
 * For fixed exponents, the best coefficients maximize
 * (c.b)^2 / (c.A.c) with A the Gram matrix of the Gaussians and b
 * their overlaps with the Slater target; the solution is c = A^{-1} b.
 * Returns the achieved normalized overlap and fills coeffs.
 */
inline double
bestCoefficients(const RadialGrid &g, int n, int l,
                 const std::vector<double> &alphas,
                 std::vector<double> &coeffs)
{
    const size_t ng = alphas.size();
    std::vector<std::vector<double>> gr(ng);
    for (size_t i = 0; i < ng; ++i)
        gr[i] = gaussRadial(g, l, alphas[i]);
    std::vector<double> target = slaterRadial(g, n);

    Matrix a(ng, ng);
    std::vector<double> b(ng);
    for (size_t i = 0; i < ng; ++i) {
        b[i] = radialInner(g, gr[i], target);
        for (size_t j = 0; j < ng; ++j)
            a(i, j) = radialInner(g, gr[i], gr[j]);
    }

    std::vector<double> c = qcc::solveLinear(a, b);
    double num = 0.0, den = 0.0;
    for (size_t i = 0; i < ng; ++i) {
        num += c[i] * b[i];
        for (size_t j = 0; j < ng; ++j)
            den += c[i] * a(i, j) * c[j];
    }
    double tt = radialInner(g, target, target);
    coeffs = std::move(c);
    if (den <= 0 || tt <= 0)
        return 0.0;
    return num / std::sqrt(den * tt);
}

/** Fit the (n, l) Slater shell at zeta = 1 with n_gauss primitives. */
inline StoFit
fitShell(int n, int l, int n_gauss)
{
    if (n_gauss < 1 || n_gauss > 6)
        qcc::fatal("stoNgFit: n_gauss out of range");
    RadialGrid grid(45.0, 4000);

    // Geometric starting guesses bracketing the Slater decay scale.
    std::vector<double> x0(n_gauss);
    double hi = (n == 1) ? 2.5 : (n == 2 ? 1.0 : 0.5);
    for (int i = 0; i < n_gauss; ++i)
        x0[i] = std::log(hi / std::pow(4.5, i));

    auto objective = [&](const std::vector<double> &logAlpha) {
        std::vector<double> alphas(logAlpha.size());
        for (size_t i = 0; i < alphas.size(); ++i) {
            alphas[i] = std::exp(logAlpha[i]);
            if (alphas[i] > 1e6 || alphas[i] < 1e-6)
                return 1.0; // out of sensible range
        }
        // Penalize near-coincident exponents (ill-conditioned Gram).
        for (size_t i = 0; i < alphas.size(); ++i)
            for (size_t j = i + 1; j < alphas.size(); ++j)
                if (std::fabs(std::log(alphas[i] / alphas[j])) < 0.05)
                    return 1.0;
        std::vector<double> c;
        return 1.0 - bestCoefficients(grid, n, l, alphas, c);
    };

    qcc::NelderMeadOptions nm;
    nm.maxIter = 4000;
    nm.initStep = 0.4;
    nm.xatol = 1e-9;
    nm.fatol = 1e-13;
    qcc::OptimizeResult res = qcc::nelderMead(objective, x0, nm);

    StoFit fit;
    fit.exponents.resize(n_gauss);
    for (int i = 0; i < n_gauss; ++i)
        fit.exponents[i] = std::exp(res.x[i]);

    std::vector<double> cRaw;
    fit.overlap =
        bestCoefficients(grid, n, l, fit.exponents, cRaw);

    // Express coefficients over radially normalized primitives and
    // normalize the contraction itself.
    fit.coeffs.resize(n_gauss);
    std::vector<std::vector<double>> gr(n_gauss);
    for (int i = 0; i < n_gauss; ++i)
        gr[i] = gaussRadial(grid, l, fit.exponents[i]);
    for (int i = 0; i < n_gauss; ++i) {
        double nrm = std::sqrt(radialInner(grid, gr[i], gr[i]));
        fit.coeffs[i] = cRaw[i] * nrm;
    }
    double self = 0.0;
    for (int i = 0; i < n_gauss; ++i) {
        for (int j = 0; j < n_gauss; ++j) {
            double sij = radialInner(grid, gr[i], gr[j]) /
                std::sqrt(radialInner(grid, gr[i], gr[i]) *
                          radialInner(grid, gr[j], gr[j]));
            self += fit.coeffs[i] * fit.coeffs[j] * sij;
        }
    }
    for (auto &c : fit.coeffs)
        c /= std::sqrt(self);

    // Sort exponents descending, carrying coefficients along.
    for (int i = 0; i < n_gauss; ++i) {
        for (int j = i + 1; j < n_gauss; ++j) {
            if (fit.exponents[j] > fit.exponents[i]) {
                std::swap(fit.exponents[i], fit.exponents[j]);
                std::swap(fit.coeffs[i], fit.coeffs[j]);
            }
        }
    }
    return fit;
}
/** @} */

/** @{ The seed's integral loop: every Hermite E table and Hermite
 *  Coulomb tensor is rebuilt, in fresh vectors, where it is used. */

/**
 * Series evaluation of F_m(T) = exp(-T)/2 * sum_k (2T)^k *
 * Gamma(m+1/2) / Gamma(m+k+3/2); converges quickly for T < ~35.
 */
inline double
boysSeries(int m, double t)
{
    double term = 1.0 / (2.0 * m + 1.0);
    double sum = term;
    for (int k = 1; k < 400; ++k) {
        term *= 2.0 * t / (2.0 * m + 2.0 * k + 1.0);
        sum += term;
        if (term < 1e-17 * sum)
            break;
    }
    return std::exp(-t) * sum;
}

/** Boys function F_0..F_mmax at T. */
inline std::vector<double>
boys(int mmax, double t)
{
    if (t < 0)
        qcc::panic("boys: negative argument");
    std::vector<double> f(mmax + 1);

    if (t < 1e-13) {
        for (int m = 0; m <= mmax; ++m)
            f[m] = 1.0 / (2.0 * m + 1.0);
        return f;
    }

    if (t < 35.0) {
        // Series at the top order, stable downward recursion below:
        // F_m(T) = (2T F_{m+1}(T) + exp(-T)) / (2m + 1).
        f[mmax] = boysSeries(mmax, t);
        const double et = std::exp(-t);
        for (int m = mmax - 1; m >= 0; --m)
            f[m] = (2.0 * t * f[m + 1] + et) / (2.0 * m + 1.0);
        return f;
    }

    // Large T: F_0 = sqrt(pi/T)/2 to machine precision, upward
    // recursion is stable when 2T dominates (T >= 35 >> m here).
    f[0] = 0.5 * std::sqrt(M_PI / t);
    const double et = std::exp(-t);
    for (int m = 1; m <= mmax; ++m)
        f[m] = ((2.0 * m - 1.0) * f[m - 1] - et) / (2.0 * t);
    return f;
}

/**
 * Hermite expansion coefficients E_t^{ij} (t = 0..i+j) for the 1D
 * product of Gaussians with exponents a, b separated by ab = Ax - Bx.
 */
inline std::vector<double>
hermiteE(int i, int j, double a, double b, double ab)
{
    const double p = a + b;
    const double q = a * b / p;
    const double pa = -b * ab / p; // P - A
    const double pb = a * ab / p;  // P - B

    // e[ii][jj] is the vector over t = 0..ii+jj.
    std::vector<std::vector<std::vector<double>>> e(
        i + 1, std::vector<std::vector<double>>(j + 1));
    e[0][0] = {std::exp(-q * ab * ab)};

    auto get = [](const std::vector<double> &v, int t) {
        return (t < 0 || t >= int(v.size())) ? 0.0 : v[t];
    };

    for (int ii = 0; ii <= i; ++ii) {
        for (int jj = 0; jj <= j; ++jj) {
            if (ii == 0 && jj == 0)
                continue;
            std::vector<double> cur(ii + jj + 1, 0.0);
            if (ii > 0) {
                const auto &prev = e[ii - 1][jj];
                for (int t = 0; t <= ii + jj; ++t) {
                    cur[t] = get(prev, t - 1) / (2.0 * p) +
                             pa * get(prev, t) +
                             (t + 1) * get(prev, t + 1);
                }
            } else {
                const auto &prev = e[ii][jj - 1];
                for (int t = 0; t <= ii + jj; ++t) {
                    cur[t] = get(prev, t - 1) / (2.0 * p) +
                             pb * get(prev, t) +
                             (t + 1) * get(prev, t + 1);
                }
            }
            e[ii][jj] = std::move(cur);
        }
    }
    return e[i][j];
}

/** Everything needed about one basis function for integral loops. */
struct BfData
{
    std::array<double, 3> center;
    int l[3]; ///< lx, ly, lz
    std::vector<double> alpha;
    std::vector<double> coeff; ///< contraction coeff x primitive norm
};

inline std::vector<BfData>
flattenBasis(const BasisSet &basis)
{
    std::vector<BfData> out;
    for (const auto &bf : basis.functions()) {
        const qcc::Shell &sh = basis.shells()[bf.shell];
        BfData d;
        d.center = sh.center;
        d.l[0] = bf.lx;
        d.l[1] = bf.ly;
        d.l[2] = bf.lz;
        d.alpha = sh.alpha;
        d.coeff.resize(sh.alpha.size());
        for (size_t i = 0; i < sh.alpha.size(); ++i)
            d.coeff[i] = sh.coeff[i] *
                qcc::primitiveNorm(sh.alpha[i], bf.lx, bf.ly, bf.lz);
        out.push_back(std::move(d));
    }
    return out;
}

/** 1D overlap S_ij = E_0^{ij} sqrt(pi/p). */
inline double
overlap1d(int i, int j, double a, double b, double ab)
{
    return hermiteE(i, j, a, b, ab)[0] * std::sqrt(M_PI / (a + b));
}

/** 1D kinetic-energy block acting on the right function. */
inline double
kinetic1d(int i, int j, double a, double b, double ab)
{
    double term = -2.0 * b * b * overlap1d(i, j + 2, a, b, ab) +
                  b * (2.0 * j + 1.0) * overlap1d(i, j, a, b, ab);
    if (j >= 2)
        term -= 0.5 * j * (j - 1.0) * overlap1d(i, j - 2, a, b, ab);
    return term;
}

/**
 * Hermite Coulomb tensor R_{tuv} = R^0_{tuv}(p, PC). Built by the
 * standard downward recursion over the auxiliary index n.
 */
struct HermiteR
{
    int tmax, umax, vmax;
    std::vector<double> data;

    HermiteR(int tm, int um, int vm, double p,
             const std::array<double, 3> &pc)
        : tmax(tm), umax(um), vmax(vm),
          data(size_t(tm + 1) * (um + 1) * (vm + 1))
    {
        const int nmax = tm + um + vm;
        const double r2 =
            pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2];
        std::vector<double> f = boys(nmax, p * r2);

        // work[n][t][u][v], filled for t+u+v <= nmax - n.
        auto sz = size_t(tm + 1) * (um + 1) * (vm + 1);
        std::vector<std::vector<double>> work(nmax + 1,
                                              std::vector<double>(sz));
        auto at = [&](std::vector<double> &w, int t, int u,
                      int v) -> double & {
            return w[(size_t(t) * (umax + 1) + u) * (vmax + 1) + v];
        };

        for (int n = nmax; n >= 0; --n) {
            at(work[n], 0, 0, 0) =
                std::pow(-2.0 * p, n) * f[n];
            if (n == nmax)
                continue;
            for (int t = 0; t <= tmax; ++t) {
                for (int u = 0; u <= umax; ++u) {
                    for (int v = 0; v <= vmax; ++v) {
                        if (t + u + v == 0 || t + u + v > nmax - n)
                            continue;
                        double val = 0.0;
                        if (t > 0) {
                            if (t > 1)
                                val += (t - 1) *
                                    at(work[n + 1], t - 2, u, v);
                            val += pc[0] *
                                at(work[n + 1], t - 1, u, v);
                        } else if (u > 0) {
                            if (u > 1)
                                val += (u - 1) *
                                    at(work[n + 1], t, u - 2, v);
                            val += pc[1] *
                                at(work[n + 1], t, u - 1, v);
                        } else {
                            if (v > 1)
                                val += (v - 1) *
                                    at(work[n + 1], t, u, v - 2);
                            val += pc[2] *
                                at(work[n + 1], t, u, v - 1);
                        }
                        at(work[n], t, u, v) = val;
                    }
                }
            }
        }
        data = work[0];
    }

    double
    operator()(int t, int u, int v) const
    {
        return data[(size_t(t) * (umax + 1) + u) * (vmax + 1) + v];
    }
};

/** Compute all AO integrals for the basis/molecule pair. */
inline IntegralTables
computeIntegrals(const BasisSet &basis, const Molecule &mol)
{
    const std::vector<BfData> bf = flattenBasis(basis);
    const size_t n = bf.size();

    IntegralTables out;
    out.nbf = n;
    out.s = Matrix(n, n);
    out.t = Matrix(n, n);
    out.v = Matrix(n, n);
    out.eri.assign(n * n * n * n, 0.0);

    // --- One-electron integrals -------------------------------------
    for (size_t mu = 0; mu < n; ++mu) {
        for (size_t nu = mu; nu < n; ++nu) {
            const BfData &A = bf[mu], &B = bf[nu];
            std::array<double, 3> abv{A.center[0] - B.center[0],
                                      A.center[1] - B.center[1],
                                      A.center[2] - B.center[2]};
            double sSum = 0.0, tSum = 0.0, vSum = 0.0;

            for (size_t ip = 0; ip < A.alpha.size(); ++ip) {
                for (size_t jp = 0; jp < B.alpha.size(); ++jp) {
                    const double a = A.alpha[ip], b = B.alpha[jp];
                    const double cc = A.coeff[ip] * B.coeff[jp];
                    const double p = a + b;

                    double s1[3], k1[3];
                    for (int d = 0; d < 3; ++d) {
                        s1[d] = overlap1d(A.l[d], B.l[d], a, b,
                                          abv[d]);
                        k1[d] = kinetic1d(A.l[d], B.l[d], a, b,
                                          abv[d]);
                    }
                    sSum += cc * s1[0] * s1[1] * s1[2];
                    tSum += cc * (k1[0] * s1[1] * s1[2] +
                                  s1[0] * k1[1] * s1[2] +
                                  s1[0] * s1[1] * k1[2]);

                    // Nuclear attraction.
                    std::array<double, 3> pCtr;
                    for (int d = 0; d < 3; ++d)
                        pCtr[d] = (a * A.center[d] + b * B.center[d])
                            / p;
                    std::vector<double> ex =
                        hermiteE(A.l[0], B.l[0], a, b, abv[0]);
                    std::vector<double> ey =
                        hermiteE(A.l[1], B.l[1], a, b, abv[1]);
                    std::vector<double> ez =
                        hermiteE(A.l[2], B.l[2], a, b, abv[2]);

                    for (const auto &atom : mol.atoms) {
                        std::array<double, 3> pc{
                            pCtr[0] - atom.pos[0],
                            pCtr[1] - atom.pos[1],
                            pCtr[2] - atom.pos[2]};
                        HermiteR r(int(ex.size()) - 1,
                                   int(ey.size()) - 1,
                                   int(ez.size()) - 1, p, pc);
                        double acc = 0.0;
                        for (size_t tt = 0; tt < ex.size(); ++tt)
                            for (size_t uu = 0; uu < ey.size(); ++uu)
                                for (size_t vv = 0; vv < ez.size();
                                     ++vv)
                                    acc += ex[tt] * ey[uu] * ez[vv] *
                                        r(int(tt), int(uu), int(vv));
                        vSum -= atom.z * cc * 2.0 * M_PI / p * acc;
                    }
                }
            }
            out.s(mu, nu) = out.s(nu, mu) = sSum;
            out.t(mu, nu) = out.t(nu, mu) = tSum;
            out.v(mu, nu) = out.v(nu, mu) = vSum;
        }
    }

    // --- Two-electron integrals (8-fold symmetry) --------------------
    auto setEri = [&](size_t i, size_t j, size_t k, size_t l,
                      double val) {
        auto idx = [&](size_t a, size_t b, size_t c, size_t d) {
            return ((a * n + b) * n + c) * n + d;
        };
        out.eri[idx(i, j, k, l)] = val;
        out.eri[idx(j, i, k, l)] = val;
        out.eri[idx(i, j, l, k)] = val;
        out.eri[idx(j, i, l, k)] = val;
        out.eri[idx(k, l, i, j)] = val;
        out.eri[idx(l, k, i, j)] = val;
        out.eri[idx(k, l, j, i)] = val;
        out.eri[idx(l, k, j, i)] = val;
    };

    for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
    for (size_t k = 0; k < n; ++k) {
    for (size_t l = k; l < n; ++l) {
        if (i * n + j > k * n + l)
            continue;
        const BfData &A = bf[i], &B = bf[j], &C = bf[k], &D = bf[l];
        std::array<double, 3> abv{A.center[0] - B.center[0],
                                  A.center[1] - B.center[1],
                                  A.center[2] - B.center[2]};
        std::array<double, 3> cdv{C.center[0] - D.center[0],
                                  C.center[1] - D.center[1],
                                  C.center[2] - D.center[2]};
        double total = 0.0;

        for (size_t ip = 0; ip < A.alpha.size(); ++ip) {
        for (size_t jp = 0; jp < B.alpha.size(); ++jp) {
            const double a = A.alpha[ip], b = B.alpha[jp];
            const double p = a + b;
            std::array<double, 3> pCtr;
            for (int d = 0; d < 3; ++d)
                pCtr[d] = (a * A.center[d] + b * B.center[d]) / p;
            std::vector<double> e1x =
                hermiteE(A.l[0], B.l[0], a, b, abv[0]);
            std::vector<double> e1y =
                hermiteE(A.l[1], B.l[1], a, b, abv[1]);
            std::vector<double> e1z =
                hermiteE(A.l[2], B.l[2], a, b, abv[2]);
            const double cAB = A.coeff[ip] * B.coeff[jp];

            for (size_t kp = 0; kp < C.alpha.size(); ++kp) {
            for (size_t lp = 0; lp < D.alpha.size(); ++lp) {
                const double c = C.alpha[kp], d = D.alpha[lp];
                const double q = c + d;
                std::array<double, 3> qCtr;
                for (int dd = 0; dd < 3; ++dd)
                    qCtr[dd] =
                        (c * C.center[dd] + d * D.center[dd]) / q;
                std::vector<double> e2x =
                    hermiteE(C.l[0], D.l[0], c, d, cdv[0]);
                std::vector<double> e2y =
                    hermiteE(C.l[1], D.l[1], c, d, cdv[1]);
                std::vector<double> e2z =
                    hermiteE(C.l[2], D.l[2], c, d, cdv[2]);

                const double alpha = p * q / (p + q);
                std::array<double, 3> pq{pCtr[0] - qCtr[0],
                                         pCtr[1] - qCtr[1],
                                         pCtr[2] - qCtr[2]};
                HermiteR r(int(e1x.size() + e2x.size()) - 2,
                           int(e1y.size() + e2y.size()) - 2,
                           int(e1z.size() + e2z.size()) - 2, alpha,
                           pq);

                double acc = 0.0;
                for (size_t t1 = 0; t1 < e1x.size(); ++t1)
                for (size_t u1 = 0; u1 < e1y.size(); ++u1)
                for (size_t v1 = 0; v1 < e1z.size(); ++v1) {
                    const double eabc =
                        e1x[t1] * e1y[u1] * e1z[v1];
                    if (eabc == 0.0)
                        continue;
                    for (size_t t2 = 0; t2 < e2x.size(); ++t2)
                    for (size_t u2 = 0; u2 < e2y.size(); ++u2)
                    for (size_t v2 = 0; v2 < e2z.size(); ++v2) {
                        double sign =
                            ((t2 + u2 + v2) % 2) ? -1.0 : 1.0;
                        acc += eabc * sign * e2x[t2] * e2y[u2] *
                            e2z[v2] *
                            r(int(t1 + t2), int(u1 + u2),
                              int(v1 + v2));
                    }
                }
                total += cAB * C.coeff[kp] * D.coeff[lp] *
                    2.0 * std::pow(M_PI, 2.5) /
                    (p * q * std::sqrt(p + q)) * acc;
            }
            }
        }
        }
        setEri(i, j, k, l, total);
    }
    }
    }
    }
    return out;
}
/** @} */

} // namespace qcc_test

#endif // QCC_TESTS_CHEM_REFERENCE_HH
