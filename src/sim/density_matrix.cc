#include "sim/density_matrix.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "pauli/grouping.hh"
#include "sim/fusion.hh"
#include "sim/kernels.hh"
#include "sim/statevector.hh"

namespace qcc {

using std::complex;

DensityMatrix::DensityMatrix(unsigned n, uint64_t basis) : nQubits(n)
{
    if (n > kMaxQubits)
        fatal("DensityMatrix: state too large");
    if (basis >= (uint64_t{1} << n))
        panic("DensityMatrix: basis state out of range");
    vec.assign(size_t{1} << (2 * n), complex<double>(0, 0));
    vec[basis | (basis << n)] = 1.0;
}

void
DensityMatrix::reset(uint64_t basis)
{
    if (basis >= (uint64_t{1} << nQubits))
        panic("DensityMatrix::reset: basis state out of range");
    std::fill(vec.begin(), vec.end(), complex<double>(0, 0));
    vec[basis | (basis << nQubits)] = 1.0;
}

complex<double>
DensityMatrix::element(uint64_t r, uint64_t c) const
{
    return vec[r | (c << nQubits)];
}

void
DensityMatrix::applyRaw1q(unsigned bit_index, const complex<double> u[4])
{
    kern::apply1q(vec.data(), vec.size(), bit_index, u);
}

void
DensityMatrix::applyRawCnot(unsigned control_bit, unsigned target_bit)
{
    kern::applyCx(vec.data(), vec.size(), control_bit, target_bit);
}

void
DensityMatrix::applyGate(const Gate &g)
{
    switch (g.kind) {
      case GateKind::CNOT:
        applyRawCnot(g.q0, g.q1);
        applyRawCnot(g.q0 + nQubits, g.q1 + nQubits);
        return;
      case GateKind::SWAP: {
          // SWAP = three alternating CNOTs on both ket and bra sides.
          applyRawCnot(g.q0, g.q1);
          applyRawCnot(g.q1, g.q0);
          applyRawCnot(g.q0, g.q1);
          applyRawCnot(g.q0 + nQubits, g.q1 + nQubits);
          applyRawCnot(g.q1 + nQubits, g.q0 + nQubits);
          applyRawCnot(g.q0 + nQubits, g.q1 + nQubits);
          return;
      }
      default: {
          complex<double> u[4], uc[4];
          gateMatrix(g.kind, g.angle, u);
          for (int i = 0; i < 4; ++i)
              uc[i] = std::conj(u[i]);
          applyRaw1q(g.q0, u);
          applyRaw1q(g.q0 + nQubits, uc);
          return;
      }
    }
}

void
DensityMatrix::applyPauliRotation(double theta, const PauliString &p)
{
    if (p.numQubits() != nQubits)
        panic("DensityMatrix::applyPauliRotation: width mismatch");
    const uint64_t x = p.xMask(), z = p.zMask();
    // Ket side: U = exp(i theta P). Bra side: conj(U) = exp(-i theta
    // conj(P)) with conj(P) = (-1)^{|x&z|} P, acting on the shifted
    // masks.
    kern::applyPauliRotation(vec.data(), vec.size(), x, z, theta);
    const double braTheta =
        (std::popcount(x & z) & 1) ? theta : -theta;
    kern::applyPauliRotation(vec.data(), vec.size(), x << nQubits,
                             z << nQubits, braTheta);
}

void
DensityMatrix::applyGateNoisy(const Gate &g, const NoiseModel &noise)
{
    applyGate(g);
    if (noise.isNoiseless())
        return;
    if (g.kind == GateKind::CNOT) {
        depolarize2(g.q0, g.q1, noise.cnotDepolarizing);
    } else if (g.kind == GateKind::SWAP) {
        // A routed SWAP is three CNOTs on hardware: apply the
        // two-qubit channel three times.
        for (int i = 0; i < 3; ++i)
            depolarize2(g.q0, g.q1, noise.cnotDepolarizing);
    } else if (noise.singleQubitDepolarizing > 0.0) {
        depolarize1(g.q0, noise.singleQubitDepolarizing);
    }
}

void
DensityMatrix::applyCircuit(const Circuit &c, const NoiseModel &noise)
{
    applyCircuit(c, noise, fusionEnabled());
}

void
DensityMatrix::applyCircuit(const Circuit &c, const NoiseModel &noise,
                            bool fuse)
{
    validateCircuitOrThrow(c, nQubits);
    applyGates(c.gates(), noise, fuse);
}

size_t
DensityMatrix::applyGates(std::span<const Gate> gates,
                          const NoiseModel &noise, bool fuse)
{
    const double p2 = noise.cnotDepolarizing;
    const double p1 = noise.singleQubitDepolarizing;
    size_t sweeps = 0;
    if (!fuse) {
        for (const Gate &g : gates) {
            applyGateNoisy(g, noise);
            if (g.kind == GateKind::CNOT)
                sweeps += p2 > 0.0 ? 3 : 2;
            else if (g.kind == GateKind::SWAP)
                sweeps += p2 > 0.0 ? 9 : 6;
            else
                sweeps += p1 > 0.0 ? 3 : 2;
        }
        return sweeps;
    }

    const size_t dim = vec.size();
    complex<double> *rho = vec.data();
    // pending[q] holds the product of q's 1q gates not yet applied.
    struct Pending
    {
        complex<double> u[4] = {};
        bool live = false;
    };
    std::array<Pending, kMaxQubits> pending;
    auto flush = [&](unsigned q) {
        Pending &pq = pending[q];
        if (!pq.live)
            return;
        pq.live = false;
        sweeps += 2;
        const complex<double> *u = pq.u;
        if (u[1] == 0.0 && u[2] == 0.0) {
            kern::applyDiag1q(rho, dim, q, u[0], u[3]);
            kern::applyDiag1q(rho, dim, q + nQubits, std::conj(u[0]),
                              std::conj(u[3]));
            return;
        }
        const complex<double> uc[4] = {std::conj(u[0]),
                                       std::conj(u[1]),
                                       std::conj(u[2]),
                                       std::conj(u[3])};
        kern::apply1q(rho, dim, q, u);
        kern::apply1q(rho, dim, q + nQubits, uc);
    };
    auto cx = [&](unsigned control, unsigned target) {
        kern::cxDepolarize2(rho, dim, control, target, nQubits, p2);
        ++sweeps;
    };

    for (const Gate &g : gates) {
        switch (g.kind) {
          case GateKind::CNOT:
            flush(g.q0);
            flush(g.q1);
            cx(g.q0, g.q1);
            break;
          case GateKind::SWAP:
            flush(g.q0);
            flush(g.q1);
            cx(g.q0, g.q1);
            cx(g.q1, g.q0);
            cx(g.q0, g.q1);
            break;
          default: {
              if (p1 > 0.0) {
                  applyGateNoisy(g, noise);
                  sweeps += 3;
                  break;
              }
              complex<double> m[4];
              gateMatrix(g.kind, g.angle, m);
              Pending &pq = pending[g.q0];
              if (!pq.live) {
                  std::copy(m, m + 4, pq.u);
                  pq.live = true;
                  break;
              }
              // The new gate acts after the pending product: u = m u.
              const complex<double> *u = pq.u;
              const complex<double> r[4] = {
                  m[0] * u[0] + m[1] * u[2], m[0] * u[1] + m[1] * u[3],
                  m[2] * u[0] + m[3] * u[2], m[2] * u[1] + m[3] * u[3]};
              std::copy(r, r + 4, pq.u);
              break;
          }
        }
    }
    for (unsigned q = 0; q < nQubits; ++q)
        flush(q);
    return sweeps;
}

void
DensityMatrix::depolarize2(unsigned a, unsigned b, double p)
{
    // Uniform two-qubit depolarizing channel:
    //   D(rho) = (1-p) rho + p/15 sum_{(P,Q) != II} (P@Q) rho (P@Q)
    //          = (1 - 16p/15) rho + (16p/15) (I4/4 @ Tr_ab rho),
    // swept as disjoint 4x4 sub-blocks by the dispatched kernel.
    kern::depolarize2(vec.data(), vec.size(), a, b, nQubits, p);
}

void
DensityMatrix::depolarize1(unsigned q, double p)
{
    // D(rho) = (1 - 4p/3) rho + (4p/3)(I/2 @ Tr_q rho).
    kern::depolarize1(vec.data(), vec.size(), q, nQubits, p);
}

void
DensityMatrix::conjugatePauli1(unsigned q, PauliOp op)
{
    complex<double> u[4], uc[4];
    GateKind k = op == PauliOp::X   ? GateKind::X
                 : op == PauliOp::Y ? GateKind::Y
                                    : GateKind::Z;
    gateMatrix(k, 0.0, u);
    for (int i = 0; i < 4; ++i)
        uc[i] = std::conj(u[i]);
    applyRaw1q(q, u);
    applyRaw1q(q + nQubits, uc);
}

std::vector<double>
DensityMatrix::basisProbabilities(
    const std::vector<std::pair<unsigned, PauliOp>> &rotations) const
{
    std::vector<complex<double>> rho = vec;
    for (const auto &[q, op] : rotations) {
        if (q >= nQubits)
            panic("basisProbabilities: qubit out of range");
        complex<double> u[4], uc[4];
        basisChangeMatrix(op, u);
        for (int i = 0; i < 4; ++i)
            uc[i] = std::conj(u[i]);
        kern::apply1q(rho.data(), rho.size(), q, u);
        kern::apply1q(rho.data(), rho.size(), q + nQubits, uc);
    }
    const uint64_t dim = uint64_t{1} << nQubits;
    std::vector<double> probs(dim);
    for (uint64_t b = 0; b < dim; ++b) {
        // Diagonal entries of a positive-semidefinite rho are real;
        // clamp the tiny negative excursions roundoff produces so
        // sampling never sees a negative weight.
        probs[b] =
            std::max(0.0, rho[b | (b << nQubits)].real());
    }
    return probs;
}

double
DensityMatrix::expectation(const PauliString &p) const
{
    if (p.numQubits() != nQubits)
        panic("DensityMatrix::expectation: width mismatch");
    const uint64_t x = p.xMask(), z = p.zMask();
    const uint64_t dim = uint64_t{1} << nQubits;

    // Tr(P rho) = sum_b <b|P rho|b> = sum_b phase(b^x) rho[b^x, b]
    // with P|c> = i^{|x&z|} (-1)^{|z&c|} |c^x>.
    static const complex<double> table[4] = {
        {1, 0}, {0, 1}, {-1, 0}, {0, -1}
    };
    complex<double> s = 0.0;
    const int yPhase = std::popcount(x & z);
    for (uint64_t b = 0; b < dim; ++b) {
        const uint64_t bx = b ^ x;
        const int e = (yPhase + 2 * std::popcount(z & bx)) & 3;
        s += table[e] * vec[bx | (b << nQubits)];
    }
    return s.real();
}

double
DensityMatrix::expectation(const PauliSum &h) const
{
    double e = 0.0;
    for (const auto &t : h.terms())
        e += t.coeff.real() * expectation(t.string);
    return e;
}

double
DensityMatrix::trace() const
{
    const uint64_t dim = uint64_t{1} << nQubits;
    complex<double> s = 0.0;
    for (uint64_t b = 0; b < dim; ++b)
        s += vec[b | (b << nQubits)];
    return s.real();
}

double
DensityMatrix::purity() const
{
    // Tr(rho^2) = sum_{r,c} |rho[r,c]|^2 for Hermitian rho.
    double s = 0.0;
    for (const auto &v : vec)
        s += std::norm(v);
    return s;
}

} // namespace qcc
