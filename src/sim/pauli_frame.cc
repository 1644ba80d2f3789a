#include "sim/pauli_frame.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/pipeline.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/kernels.hh"

namespace qcc {

namespace {

/** Channel test fields per packed word: 4 bits each, top nibble free. */
constexpr unsigned kFieldsPerWord = 15;

unsigned
parity(uint64_t v)
{
    return std::popcount(v) & 1;
}

/**
 * (i^a X^x Z^z)(i^b X^x' Z^z'): moving Z^z past X^x' costs
 * (-1)^{|z & x'|}, so only its parity enters the phase.
 */
SignedPauli
mul(const SignedPauli &a, const SignedPauli &b)
{
    return {a.x ^ b.x, a.z ^ b.z, (a.e + b.e + 2 * parity(a.z & b.x)) & 3};
}

/**
 * The sign s with p = s * i^{|x&z|} X^x Z^z (the Hermitian canonical
 * Pauli). Panics when p is not Hermitian.
 */
double
hermitianSign(const SignedPauli &p)
{
    const unsigned d = (p.e + 4 - (std::popcount(p.x & p.z) & 3)) & 3;
    if (d & 1)
        panic("PauliFrame: a pulled-back Pauli is not Hermitian");
    return d ? -1.0 : 1.0;
}

/** Nonzero 4-bit fields in v (at most kFieldsPerWord of them). */
unsigned
nonzeroFields(uint64_t v)
{
    v |= v >> 1;
    v |= v >> 2;
    v &= 0x1111111111111111ull;
    return unsigned((v * 0x1111111111111111ull) >> 60);
}

/**
 * Rows per parallel chunk: a chunk covers at least 2^14 coefficients,
 * so small registers run inline.
 */
size_t
rowGrain(unsigned n)
{
    return std::max<size_t>(1, (size_t{1} << 14) >> n);
}

/**
 * Per-row and per-column bytes for a rotation about the canonical P
 * = (px, pz). Q = (Qx, Qz) anticommutes with P when
 * parity(Qx & pz) ^ parity(Qz & px) = 1 (bit 2 of tx ^ tz); then
 * iPQ = t R for R = Q * P with t = +1 when the i-power g of PQ is 3
 * and t = -1 when it is 1, where
 *   g = fx(Qx) + fz(Qz) + 2 parity((px ^ pz) & Qx & Qz)   (mod 4)
 * per the single-qubit phases of Aaronson and Gottesman, and
 * fx, fz (bits 0-1 of tx, tz) hold the separable parts.
 */
void
rotationTables(unsigned n, uint64_t px, uint64_t pz,
               std::vector<uint8_t> &tx, std::vector<uint8_t> &tz)
{
    const uint64_t xm = px & ~pz, ym = px & pz, zm = pz & ~px;
    const size_t dim = size_t{1} << n;
    tx.resize(dim);
    tz.resize(dim);
    for (uint64_t q = 0; q < dim; ++q) {
        const unsigned fx = unsigned(std::popcount(zm & q)) + 4 -
                            (std::popcount(ym & q) & 3);
        const unsigned fz = unsigned(std::popcount(ym & q)) + 4 -
                            (std::popcount(xm & q) & 3);
        tx[q] = uint8_t((parity(q & pz) << 2) | (fx & 3));
        tz[q] = uint8_t((parity(q & px) << 2) | (fz & 3));
    }
}

/** The pair-selector of entry (qx, qz); see rotationTables. */
unsigned
pairSelector(unsigned tx, unsigned tz, uint64_t m, uint64_t qz)
{
    return ((tx ^ tz) & 4) | ((tx + tz + 2 * parity(m & qz)) & 3);
}

/** A rotation axis with its tables. */
struct Axis
{
    uint64_t x, z;
    const uint8_t *tx, *tz;
};

/**
 * r -> U r for U = exp(i phi P) on the listed rows: anticommuting
 * pairs (Q, R = Q * P) turn as
 *   r_Q' = cos(2 phi) r_Q - t sin(2 phi) r_R,
 *   r_R' = cos(2 phi) r_R + t sin(2 phi) r_Q,
 * commuting ones stay. `rows` must hold every row's partner.
 */
void
rotateRows(double *r, unsigned n, const uint64_t *rows, size_t n_rows,
           const Axis &ax, double phi)
{
    const double c = std::cos(2.0 * phi), s = std::sin(2.0 * phi);
    // Indexed by the pair selector: commuting (0-3), t = -1 (5) and
    // t = +1 (7); 4 and 6 cannot occur.
    const double cc[8] = {1, 1, 1, 1, c, c, c, c};
    const double ss[8] = {0, 0, 0, 0, 0, -s, 0, s};
    const size_t dim = size_t{1} << n;
    const uint64_t dm = ax.x ^ ax.z;
    if (ax.x != 0) {
        const uint64_t pivot = ax.x & (~ax.x + 1);
        parallelFor(
            0, n_rows,
            [&](size_t lo, size_t hi) {
                for (size_t ri = lo; ri < hi; ++ri) {
                    const uint64_t qx = rows[ri];
                    if (qx & pivot)
                        continue;
                    double *a = r + (qx << n);
                    double *b = r + ((qx ^ ax.x) << n);
                    const unsigned tx = ax.tx[qx];
                    const uint64_t m = dm & qx;
                    for (uint64_t qz = 0; qz < dim; ++qz) {
                        const unsigned sel =
                            pairSelector(tx, ax.tz[qz], m, qz);
                        const double ra = a[qz], rb = b[qz ^ ax.z];
                        a[qz] = cc[sel] * ra - ss[sel] * rb;
                        b[qz ^ ax.z] = cc[sel] * rb + ss[sel] * ra;
                    }
                }
            },
            rowGrain(n));
        return;
    }
    // A Z-type axis pairs entries within a row, and a row turns
    // whole (parity(Qx & pz) = 1) or not at all.
    const uint64_t pivot = ax.z & (~ax.z + 1);
    parallelFor(
        0, n_rows,
        [&](size_t lo, size_t hi) {
            for (size_t ri = lo; ri < hi; ++ri) {
                const uint64_t qx = rows[ri];
                const unsigned tx = ax.tx[qx];
                if (!(tx & 4))
                    continue;
                double *a = r + (qx << n);
                const uint64_t m = dm & qx;
                for (uint64_t k = 0; k < dim / 2; ++k) {
                    const uint64_t qz = kern::expandBit(k, pivot);
                    const unsigned sel = pairSelector(tx, ax.tz[qz], m, qz);
                    const double ra = a[qz], rb = a[qz ^ ax.z];
                    a[qz] = cc[sel] * ra - ss[sel] * rb;
                    a[qz ^ ax.z] = cc[sel] * rb + ss[sel] * ra;
                }
            }
        },
        rowGrain(n));
}

/**
 * sum over anticommuting pairs of t (adj_R r_Q - adj_Q r_R): half of
 * <adj, G r> for the generator G of rotateRows. Row partials are
 * summed in row order, so the result does not depend on chunking.
 */
double
pairInner(const double *adj, const double *r, unsigned n,
          const uint64_t *rows, size_t n_rows, const Axis &ax)
{
    const double tt[8] = {0, 0, 0, 0, 0, -1, 0, 1};
    const size_t dim = size_t{1} << n;
    const uint64_t dm = ax.x ^ ax.z;
    const uint64_t pivot =
        ax.x ? ax.x & (~ax.x + 1) : ax.z & (~ax.z + 1);
    std::vector<double> partial(n_rows, 0.0);
    parallelFor(
        0, n_rows,
        [&](size_t lo, size_t hi) {
            for (size_t ri = lo; ri < hi; ++ri) {
                const uint64_t qx = rows[ri];
                const unsigned tx = ax.tx[qx];
                const uint64_t m = dm & qx;
                double sum = 0.0;
                if (ax.x != 0) {
                    if (qx & pivot)
                        continue;
                    const uint64_t qx2 = qx ^ ax.x;
                    const double *ra = r + (qx << n), *rb = r + (qx2 << n);
                    const double *aa = adj + (qx << n);
                    const double *ab = adj + (qx2 << n);
                    for (uint64_t qz = 0; qz < dim; ++qz) {
                        const double t =
                            tt[pairSelector(tx, ax.tz[qz], m, qz)];
                        const uint64_t qz2 = qz ^ ax.z;
                        sum += t * (ab[qz2] * ra[qz] - aa[qz] * rb[qz2]);
                    }
                } else {
                    if (!(tx & 4))
                        continue;
                    const double *ra = r + (qx << n);
                    const double *aa = adj + (qx << n);
                    for (uint64_t k = 0; k < dim / 2; ++k) {
                        const uint64_t qz = kern::expandBit(k, pivot);
                        const double t =
                            tt[pairSelector(tx, ax.tz[qz], m, qz)];
                        const uint64_t qz2 = qz ^ ax.z;
                        sum += t * (aa[qz2] * ra[qz] - aa[qz] * ra[qz2]);
                    }
                }
                partial[ri] = sum;
            }
        },
        rowGrain(n));
    double total = 0.0;
    for (double p : partial)
        total += p;
    return total;
}

} // namespace

// ---------------------------------------------------------- PauliFrame

PauliFrame::PauliFrame(unsigned n, uint64_t basis) : nQubits(n)
{
    if (n > kMaxQubits)
        fatal("PauliFrame: state too large");
    r.assign(size_t{1} << (2 * n), 0.0);
    reset(basis);
}

void
PauliFrame::reset(uint64_t basis)
{
    if (basis >= (uint64_t{1} << nQubits))
        panic("PauliFrame::reset: basis state out of range");
    std::fill(r.begin(), r.end(), 0.0);
    // |b><b| = 2^-n sum_z (-1)^{|z & b|} Z^z: row 0 only.
    const size_t dim = size_t{1} << nQubits;
    for (uint64_t qz = 0; qz < dim; ++qz)
        r[qz] = parity(qz & basis) ? -1.0 : 1.0;
    rows.assign(2 * nQubits, SignedPauli{});
    for (unsigned q = 0; q < nQubits; ++q) {
        rows[q].x = uint64_t{1} << q;
        rows[nQubits + q].z = uint64_t{1} << q;
    }
}

SignedPauli
PauliFrame::pullBack(uint64_t x, uint64_t z) const
{
    SignedPauli acc{0, 0, unsigned(std::popcount(x & z)) & 3};
    for (uint64_t m = x; m; m &= m - 1)
        acc = mul(acc, rows[std::countr_zero(m)]);
    for (uint64_t m = z; m; m &= m - 1)
        acc = mul(acc, rows[nQubits + std::countr_zero(m)]);
    return acc;
}

void
PauliFrame::applyPauliRotation(double theta, const PauliString &p)
{
    if (p.numQubits() != nQubits)
        panic("PauliFrame::applyPauliRotation: width mismatch");
    if (p.isIdentity())
        return;
    const SignedPauli q = pullBack(p.xMask(), p.zMask());
    std::vector<uint8_t> tx, tz;
    rotationTables(nQubits, q.x, q.z, tx, tz);
    std::vector<uint64_t> all(size_t{1} << nQubits);
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    rotateRows(r.data(), nQubits, all.data(), all.size(),
               Axis{q.x, q.z, tx.data(), tz.data()},
               hermitianSign(q) * theta);
}

double
PauliFrame::expectation(const PauliString &p) const
{
    if (p.numQubits() != nQubits)
        panic("PauliFrame::expectation: width mismatch");
    const SignedPauli q = pullBack(p.xMask(), p.zMask());
    return hermitianSign(q) * r[(q.x << nQubits) | q.z];
}

double
PauliFrame::expectation(const PauliSum &h) const
{
    double e = 0.0;
    for (const auto &t : h.terms())
        e += t.coeff.real() * expectation(t.string);
    return e;
}

std::vector<double>
PauliFrame::basisProbabilities(
    const std::vector<std::pair<unsigned, PauliOp>> &rotations) const
{
    // After the basis change, qubit q reads Z_q of U rho U^dag, which
    // is the family's own operator M_q (X, Y or Z) on rho, so
    //   p(b) = 2^-n sum_z (-1)^{|b & z|} Tr(prod_{q in z} M_q rho).
    std::vector<PauliOp> measured(nQubits, PauliOp::Z);
    for (const auto &[q, op] : rotations) {
        if (q >= nQubits)
            panic("basisProbabilities: qubit out of range");
        measured[q] = op;
    }
    const size_t dim = size_t{1} << nQubits;
    std::vector<SignedPauli> prod(dim);
    std::vector<double> w(dim);
    w[0] = r[0];
    for (unsigned q = 0; q < nQubits; ++q) {
        const uint64_t bit = uint64_t{1} << q;
        const PauliOp op = measured[q];
        const SignedPauli mq =
            pullBack(op == PauliOp::Z ? 0 : bit, op == PauliOp::X ? 0 : bit);
        for (size_t m = 0; m < bit; ++m) {
            const SignedPauli p = mul(prod[m], mq);
            prod[m | bit] = p;
            w[m | bit] = hermitianSign(p) * r[(p.x << nQubits) | p.z];
        }
    }
    for (size_t len = 1; len < dim; len <<= 1)
        for (size_t i = 0; i < dim; i += 2 * len)
            for (size_t j = i; j < i + len; ++j) {
                const double a = w[j], b = w[j + len];
                w[j] = a + b;
                w[j + len] = a - b;
            }
    // Clamp the tiny negative excursions roundoff produces so
    // sampling never sees a negative weight.
    const double scale = 1.0 / double(dim);
    for (double &v : w)
        v = std::max(0.0, v * scale);
    return w;
}

double
PauliFrame::purity() const
{
    double s = 0.0;
    for (double v : r)
        s += v * v;
    return s / double(size_t{1} << nQubits);
}

// ----------------------------------------------------------- FramePlan

std::shared_ptr<const FramePlan>
FramePlan::build(const Ansatz &ansatz, const NoiseModel &noise)
{
    TraceSpan span("sim.frame.plan");
    static MetricCounter &plans = metricCounter("sim.frame.plans");
    plans.add();

    const unsigned n = ansatz.nQubits;
    if (n > PauliFrame::kMaxQubits)
        fatal("FramePlan: register too wide for the Pauli frame");
    std::shared_ptr<FramePlan> plan(new FramePlan());
    plan->nQubits = n;
    plan->noiseModel = noise;
    plan->hfMask = ansatz.hfMask;
    std::vector<size_t> sources;
    for (size_t j = 0; j < ansatz.rotations.size(); ++j) {
        const PauliString &s = ansatz.rotations[j].string;
        plan->strings.emplace_back(s.xMask(), s.zMask());
        if (!s.isIdentity())
            sources.push_back(j);
    }

    // Distinct nonzero probe angles, so the check below that chain k
    // is RZ(-2 theta_k) about +-P_k cannot pass by accident at zero.
    std::vector<double> probe(ansatz.nParams);
    for (size_t i = 0; i < probe.size(); ++i)
        probe[i] = 0.5 + double(i);
    const Circuit c = cachedChainCircuit(ansatz, probe, true);

    const bool on2 = noise.cnotDepolarizing > 0.0;
    const bool on1 = noise.singleQubitDepolarizing > 0.0;
    // The tableau: rows[q] = C^dag X_q C, rows[n + q] = C^dag Z_q C.
    std::vector<SignedPauli> rows(2 * n);
    for (unsigned q = 0; q < n; ++q) {
        rows[q].x = uint64_t{1} << q;
        rows[n + q].z = uint64_t{1} << q;
    }
    // Channel generators of the open segment, 4 (two-qubit) or 2
    // (one-qubit) rows each.
    std::vector<std::array<SignedPauli, 4>> ch2;
    std::vector<std::array<SignedPauli, 2>> ch1;
    size_t max2 = 0, max1 = 0;
    std::vector<bool> inSpan(size_t{1} << n, false);
    inSpan[0] = true;
    plan->rowList = {0};

    auto closeSegment = [&] {
        Segment seg;
        seg.activeRows = plan->rowList.size();
        seg.words2 = unsigned((ch2.size() + kFieldsPerWord - 1) /
                              kFieldsPerWord);
        seg.words1 = unsigned((ch1.size() + kFieldsPerWord - 1) /
                              kFieldsPerWord);
        const unsigned words = seg.words2 + seg.words1;
        max2 = std::max(max2, ch2.size());
        max1 = std::max(max1, ch1.size());
        if (words > 0) {
            // Column i of Tx: the bits generator rows put on Qx's bit
            // i (their Z part), of Tz: on Qz's bit i (their X part).
            // Tx and Tz then fill by doubling: T[m | 2^i] = T[m] ^
            // col[i].
            std::vector<uint64_t> colX(size_t{n} * words, 0);
            std::vector<uint64_t> colZ(size_t{n} * words, 0);
            auto place = [&](unsigned word, unsigned bit,
                             const SignedPauli &g) {
                for (unsigned i = 0; i < n; ++i) {
                    colX[size_t{i} * words + word] |=
                        ((g.z >> i) & 1) << bit;
                    colZ[size_t{i} * words + word] |=
                        ((g.x >> i) & 1) << bit;
                }
            };
            for (size_t k = 0; k < ch2.size(); ++k)
                for (unsigned g = 0; g < 4; ++g)
                    place(unsigned(k / kFieldsPerWord),
                          unsigned(4 * (k % kFieldsPerWord) + g),
                          ch2[k][g]);
            for (size_t k = 0; k < ch1.size(); ++k)
                for (unsigned g = 0; g < 2; ++g)
                    place(seg.words2 + unsigned(k / kFieldsPerWord),
                          unsigned(4 * (k % kFieldsPerWord) + g),
                          ch1[k][g]);
            const size_t dim = size_t{1} << n;
            seg.tx.assign(dim * words, 0);
            seg.tz.assign(dim * words, 0);
            for (unsigned i = 0; i < n; ++i) {
                const size_t half = size_t{1} << i;
                for (size_t m = 0; m < half; ++m)
                    for (unsigned w = 0; w < words; ++w) {
                        seg.tx[(m | half) * words + w] =
                            seg.tx[m * words + w] ^
                            colX[size_t{i} * words + w];
                        seg.tz[(m | half) * words + w] =
                            seg.tz[m * words + w] ^
                            colZ[size_t{i} * words + w];
                    }
            }
        }
        plan->segments.push_back(std::move(seg));
        ch2.clear();
        ch1.clear();
    };
    auto channel1 = [&](unsigned q) {
        if (on1)
            ch1.push_back({rows[q], rows[n + q]});
    };

    constexpr double halfPi = M_PI / 2.0;
    for (const Gate &g : c.gates()) {
        const unsigned q = g.q0;
        switch (g.kind) {
          case GateKind::X:
            rows[n + q].e = (rows[n + q].e + 2) & 3; // X Z X = -Z
            channel1(q);
            break;
          case GateKind::H:
            std::swap(rows[q], rows[n + q]);
            channel1(q);
            break;
          case GateKind::RX: {
              // RX(+-pi/2)^dag Z RX(+-pi/2) = +-Y = +-i X Z; X stays.
              if (g.angle != halfPi && g.angle != -halfPi)
                  panic("FramePlan: RX angle is not +-pi/2");
              SignedPauli y = mul(rows[q], rows[n + q]);
              y.e = (y.e + (g.angle > 0 ? 1 : 3)) & 3;
              rows[n + q] = y;
              channel1(q);
              break;
          }
          case GateKind::CNOT: {
              // X_c -> X_c X_t and Z_t -> Z_c Z_t.
              const unsigned t = g.q1;
              rows[q] = mul(rows[q], rows[t]);
              rows[n + t] = mul(rows[n + q], rows[n + t]);
              if (on2)
                  ch2.push_back(
                      {rows[q], rows[n + q], rows[t], rows[n + t]});
              break;
          }
          case GateKind::RZ: {
              const size_t k = plan->rotations.size();
              if (k >= sources.size())
                  panic("FramePlan: more RZs than non-identity "
                        "rotations");
              const PauliRotation &src = ansatz.rotations[sources[k]];
              const SignedPauli axis = rows[n + q];
              if (axis.x != src.string.xMask() ||
                  axis.z != src.string.zMask())
                  panic("FramePlan: an RZ's pulled-back axis is not its "
                        "rotation's string");
              if (g.angle != -2.0 * (probe[src.param] * src.coeff))
                  panic("FramePlan: an RZ's angle is not -2 theta");
              closeSegment();
              if (!inSpan[axis.x]) {
                  const size_t m = plan->rowList.size();
                  for (size_t i = 0; i < m; ++i) {
                      const uint64_t v = plan->rowList[i] ^ axis.x;
                      plan->rowList.push_back(v);
                      inSpan[v] = true;
                  }
              }
              Rotation rot;
              rot.source = sources[k];
              rot.x = axis.x;
              rot.z = axis.z;
              // RZ(a) = exp(-i a/2 Z_q) with a = -2 theta is
              // exp(i theta sign P) in the frame.
              rot.sign = hermitianSign(axis);
              rot.activeRows = plan->rowList.size();
              rotationTables(n, rot.x, rot.z, rot.tx, rot.tz);
              plan->rotations.push_back(std::move(rot));
              channel1(q);
              break;
          }
          default:
            panic("FramePlan: gate " + g.str() +
                  " is not one chain synthesis emits");
        }
    }
    closeSegment();
    if (plan->rotations.size() != sources.size())
        panic("FramePlan: fewer RZs than non-identity rotations");
    plan->finalRows = rows;

    const double f2 = 1.0 - 16.0 * noise.cnotDepolarizing / 15.0;
    const double f1 = 1.0 - 4.0 * noise.singleQubitDepolarizing / 3.0;
    plan->pow2.assign(max2 + 1, 1.0);
    plan->pow1.assign(max1 + 1, 1.0);
    for (size_t e = 1; e <= max2; ++e)
        plan->pow2[e] = plan->pow2[e - 1] * f2;
    for (size_t e = 1; e <= max1; ++e)
        plan->pow1[e] = plan->pow1[e - 1] * f1;

    span.arg("rotations", plan->rotations.size());
    span.arg("segments", plan->numDampings());
    span.arg("bytes", plan->bytes());
    return plan;
}

bool
FramePlan::matches(const Ansatz &ansatz, const NoiseModel &noise) const
{
    if (ansatz.nQubits != nQubits || ansatz.hfMask != hfMask ||
        ansatz.rotations.size() != strings.size() ||
        noise.cnotDepolarizing != noiseModel.cnotDepolarizing ||
        noise.singleQubitDepolarizing !=
            noiseModel.singleQubitDepolarizing)
        return false;
    for (size_t j = 0; j < strings.size(); ++j) {
        const PauliString &s = ansatz.rotations[j].string;
        if (s.xMask() != strings[j].first ||
            s.zMask() != strings[j].second)
            return false;
    }
    return true;
}

size_t
FramePlan::numDampings() const
{
    size_t d = 0;
    for (const Segment &s : segments)
        d += (s.words2 + s.words1) > 0;
    return d;
}

size_t
FramePlan::bytes() const
{
    size_t b = rowList.size() * sizeof(uint64_t);
    for (const Rotation &r : rotations)
        b += r.tx.size() + r.tz.size();
    for (const Segment &s : segments)
        b += (s.tx.size() + s.tz.size()) * sizeof(uint64_t);
    return b;
}

void
FramePlan::rotate(std::vector<double> &r, const Rotation &rot,
                  double theta) const
{
    rotateRows(r.data(), nQubits, rowList.data(), rot.activeRows,
               Axis{rot.x, rot.z, rot.tx.data(), rot.tz.data()},
               rot.sign * theta);
}

void
FramePlan::damp(std::vector<double> &r, const Segment &seg) const
{
    const unsigned words = seg.words2 + seg.words1;
    if (words == 0)
        return;
    const unsigned n = nQubits;
    const size_t dim = size_t{1} << n;
    const double *p2 = pow2.data(), *p1 = pow1.data();
    parallelFor(
        0, seg.activeRows,
        [&](size_t lo, size_t hi) {
            for (size_t ri = lo; ri < hi; ++ri) {
                const uint64_t qx = rowList[ri];
                double *a = r.data() + (qx << n);
                const uint64_t *tx = seg.tx.data() + qx * words;
                const uint64_t *tz = seg.tz.data();
                if (words == 1 && seg.words1 == 0) {
                    const uint64_t t = tx[0];
                    for (uint64_t qz = 0; qz < dim; ++qz)
                        a[qz] *= p2[nonzeroFields(t ^ tz[qz])];
                    continue;
                }
                for (uint64_t qz = 0; qz < dim; ++qz) {
                    const uint64_t *u = tz + qz * words;
                    unsigned e2 = 0, e1 = 0;
                    for (unsigned w = 0; w < seg.words2; ++w)
                        e2 += nonzeroFields(tx[w] ^ u[w]);
                    for (unsigned w = seg.words2; w < words; ++w)
                        e1 += nonzeroFields(tx[w] ^ u[w]);
                    a[qz] *= p2[e2] * p1[e1];
                }
            }
        },
        rowGrain(n));
}

void
FramePlan::prepare(PauliFrame &state,
                   const std::vector<double> &theta) const
{
    if (state.numQubits() != nQubits)
        panic("FramePlan::prepare: width mismatch");
    if (theta.size() != strings.size())
        panic("FramePlan::prepare: angle count mismatch");
    // The circuit starts from |0> (its X layer prepares HF).
    state.reset(0);
    for (size_t k = 0; k < rotations.size(); ++k) {
        damp(state.r, segments[k]);
        rotate(state.r, rotations[k], theta[rotations[k].source]);
    }
    damp(state.r, segments.back());
    state.rows = finalRows;
}

std::vector<double>
FramePlan::gradient(const std::vector<double> &theta, const PauliSum &h,
                    size_t max_snapshot_bytes) const
{
    if (theta.size() != strings.size())
        panic("FramePlan::gradient: angle count mismatch");
    if (h.numQubits() != nQubits)
        panic("FramePlan::gradient: Hamiltonian width mismatch");
    const unsigned n = nQubits;
    const size_t dim = size_t{1} << n;
    const size_t K = rotations.size();
    std::vector<double> grad(K, 0.0);
    if (K == 0)
        return grad;

    // The backward walk reads r after rotations 0 .. K-2 (the last
    // rotation's is the forward state itself). Keep r after every
    // stride-th of those (after rotation k when (k + 1) % stride ==
    // 0), within the budget; every other state replays from the
    // nearest kept one (or from |0>), through the same sweeps, so
    // any stride gives the same bits.
    const size_t stateBytes = rowList.size() * dim * sizeof(double);
    size_t stride = 1;
    if ((K - 1) * stateBytes > max_snapshot_bytes) {
        const size_t fit = max_snapshot_bytes / stateBytes;
        stride = fit == 0 ? K : (K - 1 + fit - 1) / fit;
    }
    std::vector<std::vector<double>> snaps((K - 1) / stride);
    auto save = [&](const std::vector<double> &r, size_t k) {
        std::vector<double> &s = snaps[(k + 1) / stride - 1];
        s.resize(rotations[k].activeRows * dim);
        for (size_t ri = 0; ri < rotations[k].activeRows; ++ri)
            std::memcpy(s.data() + ri * dim, r.data() + (rowList[ri] << n),
                        dim * sizeof(double));
    };
    auto step = [&](std::vector<double> &r, size_t k) {
        damp(r, segments[k]);
        rotate(r, rotations[k], theta[rotations[k].source]);
    };

    PauliFrame fwd(n);
    std::vector<double> &r = fwd.r;
    for (size_t k = 0; k < K; ++k) {
        step(r, k);
        if (k + 1 < K && (k + 1) % stride == 0)
            save(r, k);
    }

    // adj = D_K h~, with h~ the Hamiltonian pulled back through the
    // final frame; rows outside the span never meet r.
    fwd.rows = finalRows;
    std::vector<double> adj(r.size(), 0.0);
    std::vector<bool> inSpan(dim, false);
    for (uint64_t row : rowList)
        inSpan[row] = true;
    for (const PauliTerm &t : h.terms()) {
        const SignedPauli q =
            fwd.pullBack(t.string.xMask(), t.string.zMask());
        if (inSpan[q.x])
            adj[(q.x << n) | q.z] += t.coeff.real() * hermitianSign(q);
    }
    damp(adj, segments.back());

    // Backward walk: with r the state just after rotation k and adj
    // the adjoint there, dE/dphi_k = <adj, G_k r>; then adj becomes
    // D_k U_k^T adj.
    for (size_t k = K; k-- > 0;) {
        const Rotation &rot = rotations[k];
        if (k + 1 < K) {
            const size_t kept = (k + 1) / stride;
            size_t from = 0;
            if (kept == 0) {
                fwd.reset(0);
            } else {
                const size_t at = kept * stride - 1;
                const std::vector<double> &s = snaps[kept - 1];
                std::fill(r.begin(), r.end(), 0.0);
                for (size_t ri = 0; ri < rotations[at].activeRows; ++ri)
                    std::memcpy(r.data() + (rowList[ri] << n),
                                s.data() + ri * dim, dim * sizeof(double));
                from = at + 1;
            }
            for (size_t j = from; j <= k; ++j)
                step(r, j);
        }
        const Axis ax{rot.x, rot.z, rot.tx.data(), rot.tz.data()};
        grad[k] = rot.sign * 2.0 *
                  pairInner(adj.data(), r.data(), n, rowList.data(),
                            rot.activeRows, ax);
        if (k == 0)
            break;
        rotateRows(adj.data(), n, rowList.data(), rot.activeRows, ax,
                   -rot.sign * theta[rot.source]);
        damp(adj, segments[k]);
    }
    return grad;
}

// ------------------------------------------------------- FramePlanSlot

std::shared_ptr<const FramePlan>
FramePlanSlot::get(const Ansatz &ansatz)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!plan || !plan->matches(ansatz, noiseModel))
        plan = FramePlan::build(ansatz, noiseModel);
    return plan;
}

} // namespace qcc
