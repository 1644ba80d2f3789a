/**
 * @file
 * Reference implementations the simulator's production paths are
 * tested and timed against: the seed's full-scan kernels, the
 * per-term H*v and <H>, the statevector's per-gate circuit replay,
 * and the density-matrix simulator with its depolarizing channels,
 * replayed gate by gate. Production always runs the bit-mask
 * kernels, H by X mask, the fused statevector executor and, for
 * noisy states, the Pauli-transfer frame (sim/pauli_frame.hh);
 * these stay here, beside the tests that read them (test_kernels,
 * test_density_matrix, test_gradient, test_pipeline_fuzz) and
 * bench_sim_micro.
 */

#ifndef QCC_TESTS_SIM_REFERENCE_HH
#define QCC_TESTS_SIM_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "pauli/grouping.hh"
#include "pauli/pauli_sum.hh"
#include "sim/fusion.hh"
#include "sim/kernels.hh"
#include "sim/noise_model.hh"
#include "sim/statevector.hh"

namespace qcc_test {

using qcc::cplx;

/**
 * Phase of the canonical Pauli (x, z) on a basis state:
 * P|b> = i^{|x&z|} (-1)^{|z & b|} |b ^ x>.
 */
inline cplx
pauliPhase(uint64_t x, uint64_t z, uint64_t b)
{
    static const cplx table[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    return table[(std::popcount(x & z) + 2 * std::popcount(z & b)) &
                 3];
}

/** @{ Full-scan kernels (the seed's algorithms). */
inline void
apply1qGeneric(cplx *amp, size_t dim, unsigned q, const cplx u[4])
{
    const uint64_t bit = 1ull << q;
    for (size_t b = 0; b < dim; ++b) {
        if (b & bit)
            continue;
        cplx a0 = amp[b];
        cplx a1 = amp[b | bit];
        amp[b] = u[0] * a0 + u[1] * a1;
        amp[b | bit] = u[2] * a0 + u[3] * a1;
    }
}

inline void
applyPauliRotationGeneric(cplx *amp, size_t dim, uint64_t x,
                          uint64_t z, double theta)
{
    const cplx c = std::cos(theta);
    const cplx is = cplx(0, std::sin(theta));

    if (x == 0) {
        for (size_t b = 0; b < dim; ++b)
            amp[b] *= c + is * pauliPhase(x, z, b);
        return;
    }
    for (size_t b = 0; b < dim; ++b) {
        const size_t b2 = b ^ x;
        if (b2 < b)
            continue;
        cplx a = amp[b], a2 = amp[b2];
        amp[b] = c * a + is * pauliPhase(x, z, b2) * a2;
        amp[b2] = c * a2 + is * pauliPhase(x, z, b) * a;
    }
}

inline double
expectationGeneric(const cplx *amp, size_t dim, uint64_t x, uint64_t z)
{
    cplx s = 0.0;
    for (size_t b = 0; b < dim; ++b)
        s += std::conj(amp[b]) * pauliPhase(x, z, b ^ x) * amp[b ^ x];
    return s.real();
}
/** @} */

/**
 * out[b] += w * (P amp)[b] for all b: one sweep per Pauli term, the
 * H*v that kern::XMaskGroups replaces (one sweep per X mask).
 */
inline void
accumulatePauli(const cplx *amp, size_t dim, uint64_t x, uint64_t z,
                cplx w, cplx *out)
{
    // phase(b^x) = eps * sigma * (-1)^{|z & b|}; fold everything
    // constant into the weight.
    const cplx weps = w * pauliPhase(x, z, x);
    qcc::parallelFor(0, dim, [=](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b)
            out[b] += (std::popcount(z & b) & 1 ? -weps : weps) *
                      amp[b ^ x];
    });
}

/** out += w * P|sv>; out must match the state's dimension. */
inline void
accumulatePauli(const qcc::Statevector &sv, cplx w,
                const qcc::PauliString &p, std::vector<cplx> &out)
{
    accumulatePauli(sv.amplitudes().data(), sv.dim(), p.xMask(),
                    p.zMask(), w, out.data());
}

/** Gate-by-gate replay through Statevector::applyGate. */
inline void
applyPerGate(qcc::Statevector &sv, const qcc::Circuit &c)
{
    for (const qcc::Gate &g : c.gates())
        sv.applyGate(g);
}

/**
 * Mixed state on n qubits as a vectorized density matrix: a 4^n
 * vector whose low n index bits are the ket and high n bits the bra,
 * so a gate acts as U on the ket bits and conj(U) on the bra bits.
 * Every gate and channel is a linear map on this vector.
 */
class DensityMatrix
{
  public:
    explicit DensityMatrix(unsigned n, uint64_t basis = 0)
        : nQubits(n), vec(size_t{1} << (2 * n), cplx(0.0))
    {
        vec[basis | (basis << n)] = 1.0;
    }

    unsigned numQubits() const { return nQubits; }

    /** <r| rho |c>. */
    cplx element(uint64_t r, uint64_t c) const
    {
        return vec[r | (c << nQubits)];
    }

    std::vector<cplx> &vectorized() { return vec; }
    const std::vector<cplx> &vectorized() const { return vec; }

    /** rho -> U rho U+ for one gate (a SWAP as three CNOTs). */
    void applyGate(const qcc::Gate &g)
    {
        const size_t dim = vec.size();
        switch (g.kind) {
          case qcc::GateKind::CNOT:
            qcc::kern::applyCx(vec.data(), dim, g.q0, g.q1);
            qcc::kern::applyCx(vec.data(), dim, g.q0 + nQubits,
                               g.q1 + nQubits);
            return;
          case qcc::GateKind::SWAP:
            for (unsigned s : {0u, nQubits}) {
                qcc::kern::applyCx(vec.data(), dim, g.q0 + s, g.q1 + s);
                qcc::kern::applyCx(vec.data(), dim, g.q1 + s, g.q0 + s);
                qcc::kern::applyCx(vec.data(), dim, g.q0 + s, g.q1 + s);
            }
            return;
          default: {
              cplx u[4], uc[4];
              qcc::gateMatrix(g.kind, g.angle, u);
              for (int i = 0; i < 4; ++i)
                  uc[i] = std::conj(u[i]);
              qcc::kern::apply1q(vec.data(), dim, g.q0, u);
              qcc::kern::apply1q(vec.data(), dim, g.q0 + nQubits, uc);
              return;
          }
        }
    }

    /** rho -> U rho U+ for U = exp(i theta P). */
    void applyPauliRotation(double theta, const qcc::PauliString &p)
    {
        const uint64_t x = p.xMask(), z = p.zMask();
        // Bra side: conj(U) = exp(-i theta conj(P)) with conj(P) =
        // (-1)^{|x&z|} P on the shifted masks.
        qcc::kern::applyPauliRotation(vec.data(), vec.size(), x, z,
                                      theta);
        qcc::kern::applyPauliRotation(
            vec.data(), vec.size(), x << nQubits, z << nQubits,
            (std::popcount(x & z) & 1) ? theta : -theta);
    }

    /**
     * Uniform single-qubit depolarizing channel on q:
     * D(rho) = (1 - 4p/3) rho + (4p/3)(I/2 (x) Tr_q rho).
     */
    void depolarize1(unsigned q, double p)
    {
        if (p <= 0.0)
            return;
        const double keep = 1.0 - 4.0 * p / 3.0;
        const double mix = (4.0 * p / 3.0) / 2.0;
        const uint64_t kbit = 1ull << q, bbit = kbit << nQubits;
        for (size_t b = 0; b < vec.size(); ++b) {
            if (b & (kbit | bbit))
                continue;
            const cplx tr = vec[b] + vec[b | kbit | bbit];
            vec[b] = keep * vec[b] + mix * tr;
            vec[b | kbit | bbit] = keep * vec[b | kbit | bbit] + mix * tr;
            vec[b | kbit] *= keep;
            vec[b | bbit] *= keep;
        }
    }

    /**
     * Uniform two-qubit depolarizing channel on (a, b):
     *   D(rho) = (1-p) rho + p/15 sum_{(P,Q) != II} (P@Q) rho (P@Q)
     *          = (1 - 16p/15) rho + (16p/15) (I4/4 @ Tr_ab rho),
     * swept as disjoint 4x4 sub-blocks. No-op for p <= 0.
     */
    void depolarize2(unsigned a, unsigned b, double p)
    {
        if (p <= 0.0)
            return;
        const double keep = 1.0 - 16.0 * p / 15.0;
        const double mix = (16.0 * p / 15.0) / 4.0;
        const uint64_t ka = 1ull << std::min(a, b);
        const uint64_t kb = 1ull << std::max(a, b);
        const uint64_t ba = ka << nQubits, bb = kb << nQubits;
        const uint64_t sub[4] = {0, ka, kb, ka | kb};
        const uint64_t bsub[4] = {0, ba, bb, ba | bb};
        using qcc::kern::expandBit;
        for (size_t k = 0; k < vec.size() / 16; ++k) {
            const size_t base = expandBit(
                expandBit(expandBit(expandBit(k, ka), kb), ba), bb);
            cplx tr = 0.0;
            for (int s = 0; s < 4; ++s)
                tr += vec[base | sub[s] | bsub[s]];
            for (int s1 = 0; s1 < 4; ++s1) {
                for (int s2 = 0; s2 < 4; ++s2) {
                    const size_t idx = base | sub[s1] | bsub[s2];
                    vec[idx] *= keep;
                    if (s1 == s2)
                        vec[idx] += mix * tr;
                }
            }
        }
    }

    /**
     * One gate and its channel: the two-qubit channel after a CNOT
     * (three times for a routed SWAP, three CNOTs on hardware), the
     * one-qubit channel after a 1q gate when configured.
     */
    void applyGateNoisy(const qcc::Gate &g, const qcc::NoiseModel &noise)
    {
        applyGate(g);
        if (g.kind == qcc::GateKind::CNOT) {
            depolarize2(g.q0, g.q1, noise.cnotDepolarizing);
        } else if (g.kind == qcc::GateKind::SWAP) {
            for (int i = 0; i < 3; ++i)
                depolarize2(g.q0, g.q1, noise.cnotDepolarizing);
        } else {
            depolarize1(g.q0, noise.singleQubitDepolarizing);
        }
    }

    /** Validate `c` (throws qcc::SimError), then replay it gate by gate. */
    void applyCircuit(const qcc::Circuit &c,
                      const qcc::NoiseModel &noise = {})
    {
        qcc::validateCircuitOrThrow(c, nQubits);
        for (const qcc::Gate &g : c.gates())
            applyGateNoisy(g, noise);
    }

    /**
     * Outcome probabilities after the family's basis change (X -> H,
     * Y -> H Sdg): the diagonal of U rho U+.
     */
    std::vector<double> basisProbabilities(
        const std::vector<std::pair<unsigned, qcc::PauliOp>> &rotations)
        const
    {
        std::vector<cplx> rho = vec;
        for (const auto &[q, op] : rotations) {
            cplx u[4], uc[4];
            qcc::basisChangeMatrix(op, u);
            for (int i = 0; i < 4; ++i)
                uc[i] = std::conj(u[i]);
            qcc::kern::apply1q(rho.data(), rho.size(), q, u);
            qcc::kern::apply1q(rho.data(), rho.size(), q + nQubits, uc);
        }
        std::vector<double> probs(size_t{1} << nQubits);
        for (uint64_t b = 0; b < probs.size(); ++b)
            probs[b] = std::max(0.0, rho[b | (b << nQubits)].real());
        return probs;
    }

    /** Tr(P rho) = sum_b <b|P|b^x> rho[b^x, b]. */
    double expectation(const qcc::PauliString &p) const
    {
        const uint64_t x = p.xMask(), z = p.zMask();
        cplx s = 0.0;
        for (uint64_t b = 0; b < (uint64_t{1} << nQubits); ++b)
            s += pauliPhase(x, z, b ^ x) *
                 vec[(b ^ x) | (b << nQubits)];
        return s.real();
    }

    /** Tr(H rho) over the real parts of H's coefficients. */
    double expectation(const qcc::PauliSum &h) const
    {
        double e = 0.0;
        for (const auto &t : h.terms())
            e += t.coeff.real() * expectation(t.string);
        return e;
    }

    double trace() const
    {
        cplx s = 0.0;
        for (uint64_t b = 0; b < (uint64_t{1} << nQubits); ++b)
            s += vec[b | (b << nQubits)];
        return s.real();
    }

    /** Tr(rho^2) = sum |rho[r,c]|^2 for Hermitian rho. */
    double purity() const
    {
        double s = 0.0;
        for (const cplx &v : vec)
            s += std::norm(v);
        return s;
    }

  private:
    unsigned nQubits;
    std::vector<cplx> vec;
};

/**
 * Gate-by-gate noisy replay. Returns the sweeps it makes over the
 * vectorized state: two per gate (ket and bra) and one per channel.
 */
inline size_t
applyPerGate(DensityMatrix &rho, const qcc::Circuit &c,
             const qcc::NoiseModel &noise)
{
    const double p2 = noise.cnotDepolarizing;
    const double p1 = noise.singleQubitDepolarizing;
    size_t sweeps = 0;
    for (const qcc::Gate &g : c.gates()) {
        rho.applyGateNoisy(g, noise);
        if (g.kind == qcc::GateKind::CNOT)
            sweeps += p2 > 0.0 ? 3 : 2;
        else if (g.kind == qcc::GateKind::SWAP)
            sweeps += p2 > 0.0 ? 9 : 6;
        else
            sweeps += p1 > 0.0 ? 3 : 2;
    }
    return sweeps;
}

/**
 * <psi|H|psi> with real coefficients, one full-scan
 * expectationGeneric per term: the per-term reference of the energy
 * by X mask (kern::XMaskGroups::expectation).
 */
inline double
perTermEnergy(const qcc::PauliSum &h, const qcc::Statevector &psi)
{
    double e = 0.0;
    for (const qcc::PauliTerm &t : h.terms())
        e += t.coeff.real() *
             expectationGeneric(psi.amplitudes().data(), psi.dim(),
                                t.string.xMask(), t.string.zMask());
    return e;
}

} // namespace qcc_test

#endif // QCC_TESTS_SIM_REFERENCE_HH
