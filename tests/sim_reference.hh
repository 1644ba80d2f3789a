/**
 * @file
 * Reference implementations the simulator's production paths are
 * tested and timed against: the seed's full-scan kernels, the
 * per-term H*v and <H>, the standalone two-qubit depolarizing
 * channel, and per-gate circuit replays on both simulators.
 * Production always runs the bit-mask kernels, H by X mask, the
 * CNOT-fused channel and the fused executors; these stay here,
 * beside the tests that read them (test_kernels, test_density_matrix,
 * test_pipeline_fuzz) and bench_sim_micro.
 */

#ifndef QCC_TESTS_SIM_REFERENCE_HH
#define QCC_TESTS_SIM_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"
#include "common/parallel.hh"
#include "pauli/pauli_sum.hh"
#include "sim/density_matrix.hh"
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
 * Uniform two-qubit depolarizing channel on (a, b) of a vectorized
 * density matrix over `dim` = 4^n entries:
 *   D(rho) = (1-p) rho + p/15 sum_{(P,Q) != II} (P@Q) rho (P@Q)
 *          = (1 - 16p/15) rho + (16p/15) (I4/4 @ Tr_ab rho),
 * swept as disjoint 4x4 sub-blocks in one scalar pass. No-op for
 * p <= 0. After two CNOT moves it is the three-sweep reference of
 * kern::cxDepolarize2, which rounds the same way.
 */
inline void
depolarize2(cplx *rho, size_t dim, unsigned a, unsigned b,
            unsigned n_qubits, double p)
{
    if (p <= 0.0)
        return;
    const double keep = 1.0 - 16.0 * p / 15.0;
    const double mix = (16.0 * p / 15.0) / 4.0;
    const uint64_t ka = 1ull << std::min(a, b);
    const uint64_t kb = 1ull << std::max(a, b);
    const uint64_t ba = ka << n_qubits;
    const uint64_t bb = kb << n_qubits;
    const uint64_t sub[4] = {0, ka, kb, ka | kb};
    const uint64_t bsub[4] = {0, ba, bb, ba | bb};
    using qcc::kern::expandBit;
    for (size_t k = 0; k < dim / 16; ++k) {
        const size_t base = expandBit(
            expandBit(expandBit(expandBit(k, ka), kb), ba), bb);
        cplx tr = 0.0;
        for (int s = 0; s < 4; ++s)
            tr += rho[base | sub[s] | bsub[s]];
        for (int s1 = 0; s1 < 4; ++s1) {
            for (int s2 = 0; s2 < 4; ++s2) {
                const size_t idx = base | sub[s1] | bsub[s2];
                rho[idx] *= keep;
                if (s1 == s2)
                    rho[idx] += mix * tr;
            }
        }
    }
}

/** The two-qubit channel with probability p on (a, b) of rho. */
inline void
depolarize2(qcc::DensityMatrix &rho, unsigned a, unsigned b, double p)
{
    depolarize2(rho.vectorized().data(), rho.vectorized().size(), a, b,
                rho.numQubits(), p);
}

/**
 * One gate plus its noise channel, sweep by sweep: the gate on the
 * ket bits, then on the bra bits, then the two-qubit channel after
 * a CNOT (three times for a routed SWAP, which is three CNOTs on
 * hardware) or depolarize1 after a 1q gate when configured.
 */
inline void
applyGateNoisy(qcc::DensityMatrix &rho, const qcc::Gate &g,
               const qcc::NoiseModel &noise)
{
    rho.applyGate(g);
    if (noise.isNoiseless())
        return;
    if (g.kind == qcc::GateKind::CNOT) {
        depolarize2(rho, g.q0, g.q1, noise.cnotDepolarizing);
    } else if (g.kind == qcc::GateKind::SWAP) {
        for (int i = 0; i < 3; ++i)
            depolarize2(rho, g.q0, g.q1, noise.cnotDepolarizing);
    } else if (noise.singleQubitDepolarizing > 0.0) {
        rho.depolarize1(g.q0, noise.singleQubitDepolarizing);
    }
}

/**
 * Gate-by-gate replay through applyGateNoisy. Returns the sweeps it
 * makes over the vectorized state, counted as
 * DensityMatrix::applyGates counts its own.
 */
inline size_t
applyPerGate(qcc::DensityMatrix &rho, const qcc::Circuit &c,
             const qcc::NoiseModel &noise)
{
    const double p2 = noise.cnotDepolarizing;
    const double p1 = noise.singleQubitDepolarizing;
    size_t sweeps = 0;
    for (const qcc::Gate &g : c.gates()) {
        applyGateNoisy(rho, g, noise);
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
