#include "chem/integrals.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "chem/boys.hh"
#include "common/logging.hh"

namespace qcc {

namespace {

/** Largest (t+1)(u+1)(v+1) over t + u + v <= n: R_{tuv}'s size. */
constexpr int
hermiteRSize(int n)
{
    int best = 0;
    for (int t = 0; t <= n; ++t)
        for (int u = 0; t + u <= n; ++u)
            best = std::max(best, (t + 1) * (u + 1) * (n - t - u + 1));
    return best;
}

/**
 * Highest angular momentum of a shell (BasisSet::stoNg stops at p).
 * It sizes every stack table below: four such functions give a
 * Hermite Coulomb tensor of auxiliary order at most kMaxN.
 */
constexpr int kMaxL = 1;
constexpr int kMaxN = 4 * kMaxL;
constexpr int kMaxRSize = hermiteRSize(kMaxN);
/** E_t^{ij} rows reach t = i + j <= 2 kMaxL in the integral loops. */
constexpr int kMaxE = 2 * kMaxL + 1;

/**
 * Hermite expansion coefficients E_t^{ii,jj} for every ii <= i,
 * jj <= j: row (ii, jj), t = 0..ii+jj, starts at
 * e + (ii * (j + 1) + jj) * stride. Rows of ii = 0 step in jj from
 * P - B, the rest in ii from P - A.
 */
void
hermiteTable(int i, int j, double a, double b, double ab, double *e,
             int stride)
{
    const double p = a + b;
    const double q = a * b / p;
    const double pa = -b * ab / p; // P - A
    const double pb = a * ab / p;  // P - B
    auto row = [&](int ii, int jj) {
        return e + (size_t(ii) * (j + 1) + jj) * stride;
    };
    row(0, 0)[0] = std::exp(-q * ab * ab);

    for (int ii = 0; ii <= i; ++ii) {
        for (int jj = 0; jj <= j; ++jj) {
            if (ii == 0 && jj == 0)
                continue;
            const double *prev =
                ii > 0 ? row(ii - 1, jj) : row(ii, jj - 1);
            const double shift = ii > 0 ? pa : pb;
            const int len = ii + jj; // entries of prev
            auto get = [&](int t) {
                return (t < 0 || t >= len) ? 0.0 : prev[t];
            };
            double *cur = row(ii, jj);
            for (int t = 0; t <= ii + jj; ++t)
                cur[t] = get(t - 1) / (2.0 * p) + shift * get(t) +
                         (t + 1) * get(t + 1);
        }
    }
}

/**
 * One axis of a primitive pair: E_t^{ii,jj} up to (i, j + 2), which
 * holds the overlap row, the kinetic rows j + 2 and j - 2, and the
 * Coulomb row (i, j).
 */
struct HermiteTable
{
    static constexpr int kStride = 2 * kMaxL + 3;
    double e[(kMaxL + 1) * (kMaxL + 3) * kStride] = {};
    int cols;

    HermiteTable(int i, int j, double a, double b, double ab)
        : cols(j + 3)
    {
        hermiteTable(i, j + 2, a, b, ab, e, kStride);
    }

    const double *
    row(int ii, int jj) const
    {
        return e + (ii * cols + jj) * kStride;
    }
};

/** Everything needed about one basis function for integral loops. */
struct BfData
{
    std::array<double, 3> center;
    int l[3]; ///< lx, ly, lz
    std::vector<double> alpha;
    std::vector<double> coeff; ///< contraction coeff x primitive norm
};

std::vector<BfData>
flattenBasis(const BasisSet &basis)
{
    std::vector<BfData> out;
    for (const auto &bf : basis.functions()) {
        const Shell &sh = basis.shells()[bf.shell];
        if (bf.lx + bf.ly + bf.lz > kMaxL)
            panic("computeIntegrals: angular momentum above the "
                  "fixed-size Hermite tables");
        BfData d;
        d.center = sh.center;
        d.l[0] = bf.lx;
        d.l[1] = bf.ly;
        d.l[2] = bf.lz;
        d.alpha = sh.alpha;
        d.coeff.resize(sh.alpha.size());
        for (size_t i = 0; i < sh.alpha.size(); ++i)
            d.coeff[i] = sh.coeff[i] *
                primitiveNorm(sh.alpha[i], bf.lx, bf.ly, bf.lz);
        out.push_back(std::move(d));
    }
    return out;
}

/** 1D overlap S_ij = E_0^{ij} sqrt(pi/p). */
double
overlap1d(const HermiteTable &e, int i, int j, double p)
{
    return e.row(i, j)[0] * std::sqrt(M_PI / p);
}

/** 1D kinetic-energy block acting on the right function. */
double
kinetic1d(const HermiteTable &e, int i, int j, double b, double p)
{
    double term = -2.0 * b * b * overlap1d(e, i, j + 2, p) +
                  b * (2.0 * j + 1.0) * overlap1d(e, i, j, p);
    if (j >= 2)
        term -= 0.5 * j * (j - 1.0) * overlap1d(e, i, j - 2, p);
    return term;
}

/**
 * Hermite Coulomb tensor R_{tuv} = R^0_{tuv}(p, PC). Built by the
 * standard downward recursion over the auxiliary index n, two layers
 * at a time on the stack (layer n reads only layer n + 1).
 */
struct HermiteR
{
    int umax, vmax;
    double data[kMaxRSize] = {};

    HermiteR(int tm, int um, int vm, double p,
             const std::array<double, 3> &pc)
        : umax(um), vmax(vm)
    {
        const int nmax = tm + um + vm;
        const double r2 =
            pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2];
        double f[kMaxN + 1] = {};
        boys(nmax, p * r2, f);

        // Layer n lives in data for even n, so layer 0 ends there;
        // it is filled for t+u+v <= nmax - n.
        double odd[kMaxRSize] = {};
        auto layer = [&](int n) { return n % 2 ? odd : data; };
        auto at = [&](const double *w, int t, int u, int v) {
            return w[(size_t(t) * (umax + 1) + u) * (vmax + 1) + v];
        };

        for (int n = nmax; n >= 0; --n) {
            double *cur = layer(n);
            cur[0] = std::pow(-2.0 * p, n) * f[n];
            if (n == nmax)
                continue;
            const double *prev = layer(n + 1);
            for (int t = 0; t <= tm; ++t) {
                for (int u = 0; u <= umax; ++u) {
                    for (int v = 0; v <= vmax; ++v) {
                        if (t + u + v == 0 || t + u + v > nmax - n)
                            continue;
                        double val = 0.0;
                        if (t > 0) {
                            if (t > 1)
                                val += (t - 1) * at(prev, t - 2, u, v);
                            val += pc[0] * at(prev, t - 1, u, v);
                        } else if (u > 0) {
                            if (u > 1)
                                val += (u - 1) * at(prev, t, u - 2, v);
                            val += pc[1] * at(prev, t, u - 1, v);
                        } else {
                            if (v > 1)
                                val += (v - 1) * at(prev, t, u, v - 2);
                            val += pc[2] * at(prev, t, u, v - 1);
                        }
                        cur[(size_t(t) * (umax + 1) + u) * (vmax + 1) +
                            v] = val;
                    }
                }
            }
        }
    }

    double
    operator()(int t, int u, int v) const
    {
        return data[(size_t(t) * (umax + 1) + u) * (vmax + 1) + v];
    }
};

/** One primitive pair of a basis-function pair, as the ERI reads it. */
struct PrimPair
{
    double p;                  ///< a + b
    std::array<double, 3> ctr; ///< Gaussian product center P
    double ca, cb;             ///< the two primitive coefficients
    double e[3][kMaxE];        ///< E_t^{l_i l_j} per axis
};

/** Basis functions x <= y and their primitive pairs, ip-major. */
struct BfPair
{
    size_t x, y;
    int len[3]; ///< E row length per axis, l_i + l_j + 1
    std::vector<PrimPair> prims;
};

} // namespace

std::vector<double>
hermiteE(int i, int j, double a, double b, double ab)
{
    const int stride = i + j + 1;
    std::vector<double> e(size_t(i + 1) * (j + 1) * stride);
    hermiteTable(i, j, a, b, ab, e.data(), stride);
    const double *last = e.data() + (size_t(i) * (j + 1) + j) * stride;
    return std::vector<double>(last, last + i + j + 1);
}

IntegralTables
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

    // --- Pair data and one-electron integrals ------------------------
    std::vector<BfPair> pairs;
    pairs.reserve(n * (n + 1) / 2);
    for (size_t mu = 0; mu < n; ++mu) {
        for (size_t nu = mu; nu < n; ++nu) {
            const BfData &A = bf[mu], &B = bf[nu];
            std::array<double, 3> abv{A.center[0] - B.center[0],
                                      A.center[1] - B.center[1],
                                      A.center[2] - B.center[2]};
            BfPair &pair = pairs.emplace_back();
            pair.x = mu;
            pair.y = nu;
            for (int d = 0; d < 3; ++d)
                pair.len[d] = A.l[d] + B.l[d] + 1;
            pair.prims.reserve(A.alpha.size() * B.alpha.size());
            double sSum = 0.0, tSum = 0.0, vSum = 0.0;

            for (size_t ip = 0; ip < A.alpha.size(); ++ip) {
                for (size_t jp = 0; jp < B.alpha.size(); ++jp) {
                    const double a = A.alpha[ip], b = B.alpha[jp];
                    const double cc = A.coeff[ip] * B.coeff[jp];
                    const double p = a + b;
                    const HermiteTable e[3] = {
                        {A.l[0], B.l[0], a, b, abv[0]},
                        {A.l[1], B.l[1], a, b, abv[1]},
                        {A.l[2], B.l[2], a, b, abv[2]}};

                    double s1[3], k1[3];
                    for (int d = 0; d < 3; ++d) {
                        s1[d] = overlap1d(e[d], A.l[d], B.l[d], p);
                        k1[d] = kinetic1d(e[d], A.l[d], B.l[d], b, p);
                    }
                    sSum += cc * s1[0] * s1[1] * s1[2];
                    tSum += cc * (k1[0] * s1[1] * s1[2] +
                                  s1[0] * k1[1] * s1[2] +
                                  s1[0] * s1[1] * k1[2]);

                    PrimPair &pp = pair.prims.emplace_back();
                    pp.p = p;
                    pp.ca = A.coeff[ip];
                    pp.cb = B.coeff[jp];
                    for (int d = 0; d < 3; ++d) {
                        pp.ctr[d] =
                            (a * A.center[d] + b * B.center[d]) / p;
                        const double *row = e[d].row(A.l[d], B.l[d]);
                        for (int t = 0; t < pair.len[d]; ++t)
                            pp.e[d][t] = row[t];
                    }
                    const double *ex = pp.e[0], *ey = pp.e[1],
                                 *ez = pp.e[2];

                    // Nuclear attraction.
                    for (const auto &atom : mol.atoms) {
                        std::array<double, 3> pc{
                            pp.ctr[0] - atom.pos[0],
                            pp.ctr[1] - atom.pos[1],
                            pp.ctr[2] - atom.pos[2]};
                        HermiteR r(pair.len[0] - 1, pair.len[1] - 1,
                                   pair.len[2] - 1, p, pc);
                        double acc = 0.0;
                        for (int tt = 0; tt < pair.len[0]; ++tt)
                            for (int uu = 0; uu < pair.len[1]; ++uu)
                                for (int vv = 0; vv < pair.len[2];
                                     ++vv)
                                    acc += ex[tt] * ey[uu] * ez[vv] *
                                        r(tt, uu, vv);
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

    // Pairs are in (x, y) order, so bra <= ket walks each quartet
    // (ij|kl) with i <= j, k <= l and ij <= kl exactly once.
    for (size_t bra = 0; bra < pairs.size(); ++bra) {
    for (size_t ket = bra; ket < pairs.size(); ++ket) {
        const BfPair &AB = pairs[bra], &CD = pairs[ket];
        double total = 0.0;

        for (const PrimPair &P : AB.prims) {
            const double p = P.p;
            const double *e1x = P.e[0], *e1y = P.e[1], *e1z = P.e[2];

            for (const PrimPair &Q : CD.prims) {
                const double q = Q.p;
                const double *e2x = Q.e[0], *e2y = Q.e[1],
                             *e2z = Q.e[2];

                const double alpha = p * q / (p + q);
                std::array<double, 3> pq{P.ctr[0] - Q.ctr[0],
                                         P.ctr[1] - Q.ctr[1],
                                         P.ctr[2] - Q.ctr[2]};
                HermiteR r(AB.len[0] + CD.len[0] - 2,
                           AB.len[1] + CD.len[1] - 2,
                           AB.len[2] + CD.len[2] - 2, alpha, pq);

                double acc = 0.0;
                for (int t1 = 0; t1 < AB.len[0]; ++t1)
                for (int u1 = 0; u1 < AB.len[1]; ++u1)
                for (int v1 = 0; v1 < AB.len[2]; ++v1) {
                    const double eabc =
                        e1x[t1] * e1y[u1] * e1z[v1];
                    if (eabc == 0.0)
                        continue;
                    for (int t2 = 0; t2 < CD.len[0]; ++t2)
                    for (int u2 = 0; u2 < CD.len[1]; ++u2)
                    for (int v2 = 0; v2 < CD.len[2]; ++v2) {
                        double sign =
                            ((t2 + u2 + v2) % 2) ? -1.0 : 1.0;
                        acc += eabc * sign * e2x[t2] * e2y[u2] *
                            e2z[v2] * r(t1 + t2, u1 + u2, v1 + v2);
                    }
                }
                total += P.ca * P.cb * Q.ca * Q.cb *
                    2.0 * std::pow(M_PI, 2.5) /
                    (p * q * std::sqrt(p + q)) * acc;
            }
        }
        setEri(AB.x, AB.y, CD.x, CD.y, total);
    }
    }
    return out;
}

} // namespace qcc
