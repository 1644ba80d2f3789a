/**
 * @file
 * Reference implementations the simulator's production paths are
 * tested and timed against: the seed's full-scan kernels, the
 * per-term H*v and <H>, and per-gate circuit replays on both
 * simulators. Production always runs the bit-mask kernels, H by X
 * mask and the fused executors; these stay here, beside the tests
 * that read them (test_kernels, test_pipeline_fuzz) and
 * bench_sim_micro.
 */

#ifndef QCC_TESTS_SIM_REFERENCE_HH
#define QCC_TESTS_SIM_REFERENCE_HH

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
 * Gate-by-gate replay through DensityMatrix::applyGateNoisy. Returns
 * the sweeps it makes over the vectorized state, counted as
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
