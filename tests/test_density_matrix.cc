/**
 * @file
 * Unit tests for the density-matrix simulator and depolarizing noise
 * channels: agreement with the statevector simulator in the
 * noiseless limit, trace preservation, purity decay, channel
 * fixed points, and the SIMD and fused channel sweeps against their
 * references.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "sim/density_matrix.hh"
#include "sim/kernels.hh"
#include "sim/simd.hh"
#include "sim/statevector.hh"

using namespace qcc;

namespace {

Circuit
smallCircuit(unsigned n)
{
    Circuit c(n);
    c.h(0);
    c.cnot(0, 1);
    c.rx(1, 0.37);
    c.rz(0, -0.81);
    if (n > 2) {
        c.cnot(1, 2);
        c.ry(2, 1.1);
    }
    return c;
}

} // namespace

TEST(DensityMatrix, PureStateMatchesStatevector)
{
    const unsigned n = 3;
    Circuit c = smallCircuit(n);

    Statevector sv(n);
    sv.applyCircuit(c);
    DensityMatrix rho(n);
    rho.applyCircuit(c, {});

    for (uint64_t r = 0; r < (1u << n); ++r)
        for (uint64_t k = 0; k < (1u << n); ++k)
            EXPECT_NEAR(std::abs(rho.element(r, k) -
                                 sv.amplitudes()[r] *
                                     std::conj(sv.amplitudes()[k])),
                        0.0, 1e-12);
}

TEST(DensityMatrix, ExpectationMatchesStatevector)
{
    const unsigned n = 3;
    Circuit c = smallCircuit(n);
    Statevector sv(n);
    sv.applyCircuit(c);
    DensityMatrix rho(n);
    rho.applyCircuit(c, {});

    PauliSum h(n);
    h.add(0.7, PauliString::fromString("XZY"));
    h.add(-0.2, PauliString::fromString("IZZ"));
    h.add(1.1, PauliString(n));
    EXPECT_NEAR(rho.expectation(h), sv.expectation(h), 1e-12);
}

TEST(DensityMatrix, TracePreservedUnderNoise)
{
    const unsigned n = 2;
    DensityMatrix rho(n);
    NoiseModel noise;
    noise.cnotDepolarizing = 0.05;
    Circuit c = smallCircuit(n);
    rho.applyCircuit(c, noise);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
}

TEST(DensityMatrix, DepolarizingReducesPurity)
{
    DensityMatrix rho(2);
    Circuit c(2);
    c.h(0);
    c.cnot(0, 1);
    rho.applyCircuit(c, {});
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
    rho.depolarize2(0, 1, 0.1);
    EXPECT_LT(rho.purity(), 1.0);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, FullDepolarizationGivesMaximallyMixed)
{
    DensityMatrix rho(2, 0b11);
    // p = 15/16 is the channel's fixed-point-reaching value: the
    // output is I/4 for any input.
    rho.depolarize2(0, 1, 15.0 / 16.0);
    for (uint64_t r = 0; r < 4; ++r)
        for (uint64_t c = 0; c < 4; ++c)
            EXPECT_NEAR(std::abs(rho.element(r, c) -
                                 (r == c ? 0.25 : 0.0)),
                        0.0, 1e-12);
}

TEST(DensityMatrix, MaximallyMixedIsDepolarizingFixedPoint)
{
    DensityMatrix rho(2, 0);
    rho.depolarize2(0, 1, 15.0 / 16.0); // now I/4
    double before = rho.purity();
    rho.depolarize2(0, 1, 0.3);
    EXPECT_NEAR(rho.purity(), before, 1e-12);
}

TEST(DensityMatrix, SingleQubitDepolarizing)
{
    DensityMatrix rho(1, 1);
    rho.depolarize1(0, 0.75); // fully depolarizing for 1 qubit
    EXPECT_NEAR(std::abs(rho.element(0, 0) - 0.5), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(rho.element(1, 1) - 0.5), 0.0, 1e-12);
}

TEST(DensityMatrix, NoiseShiftsEnergyTowardZero)
{
    // For a traceless observable, depolarizing noise pulls the
    // expectation toward 0.
    DensityMatrix rho(2);
    Circuit c(2);
    c.h(0);
    c.cnot(0, 1);

    DensityMatrix clean(2), noisy(2);
    NoiseModel nm;
    nm.cnotDepolarizing = 0.2;
    clean.applyCircuit(c, {});
    noisy.applyCircuit(c, nm);

    PauliString xx = PauliString::fromString("XX");
    EXPECT_GT(clean.expectation(xx), noisy.expectation(xx));
    EXPECT_GT(noisy.expectation(xx), 0.0);
}

TEST(DensityMatrix, SwapCountsAsThreeCnotChannels)
{
    NoiseModel nm;
    nm.cnotDepolarizing = 0.05;

    Circuit viaSwap(2);
    viaSwap.swap(0, 1);
    Circuit viaCnots(2);
    viaCnots.cnot(0, 1);
    viaCnots.cnot(1, 0);
    viaCnots.cnot(0, 1);

    DensityMatrix a(2, 0b01), b(2, 0b01);
    a.applyCircuit(viaSwap, nm);
    b.applyCircuit(viaCnots, nm);
    EXPECT_NEAR(a.purity(), b.purity(), 1e-10);
}

namespace {

/** A non-trivial mixed state with structure on every qubit. */
DensityMatrix
mixedState(unsigned n)
{
    DensityMatrix rho(n);
    NoiseModel nm;
    nm.cnotDepolarizing = 0.03;
    nm.singleQubitDepolarizing = 0.01;
    Circuit c(n);
    for (unsigned q = 0; q < n; ++q)
        c.ry(q, 0.3 + 0.41 * q);
    for (unsigned q = 0; q + 1 < n; ++q)
        c.cnot(q, q + 1);
    for (unsigned q = 0; q < n; ++q)
        c.rz(q, -0.7 + 0.13 * q);
    rho.applyCircuit(c, nm);
    return rho;
}

} // namespace

TEST(DensityMatrix, DepolarizeSimdMatchesScalar)
{
    const bool simdWas = kern::simdActive();
    const unsigned n = 4;
    // Every qubit choice: q = 0 exercises the low-pivot scalar
    // fallback inside the AVX2 body, higher q the run-based path.
    for (unsigned q = 0; q < n; ++q) {
        DensityMatrix a = mixedState(n), b = a;
        kern::setSimdEnabled(false);
        a.depolarize1(q, 0.07);
        kern::setSimdEnabled(true);
        b.depolarize1(q, 0.07);
        const auto &va = a.vectorized(), &vb = b.vectorized();
        for (size_t i = 0; i < va.size(); ++i)
            ASSERT_NEAR(std::abs(va[i] - vb[i]), 0.0, 1e-12)
                << "q=" << q << " i=" << i;
        EXPECT_NEAR(b.trace(), 1.0, 1e-12);
    }
    for (unsigned qa = 0; qa < n; ++qa) {
        for (unsigned qb = 0; qb < n; ++qb) {
            if (qa == qb)
                continue;
            DensityMatrix a = mixedState(n), b = a;
            kern::setSimdEnabled(false);
            a.depolarize2(qa, qb, 0.05);
            kern::setSimdEnabled(true);
            b.depolarize2(qa, qb, 0.05);
            const auto &va = a.vectorized(), &vb = b.vectorized();
            for (size_t i = 0; i < va.size(); ++i)
                ASSERT_NEAR(std::abs(va[i] - vb[i]), 0.0, 1e-12)
                    << "qa=" << qa << " qb=" << qb << " i=" << i;
            EXPECT_NEAR(b.trace(), 1.0, 1e-12);
        }
    }
    kern::setSimdEnabled(simdWas);
}

TEST(DensityMatrix, FusedCnotChannelMatchesThreeSweeps)
{
    // The one-sweep noisy CNOT against the three sweeps it replaces:
    // CX on the ket bits, CX on the bra bits, then depolarize2. Every
    // ordered pair, so the control sits on either side of the target
    // and qubit 0 (the AVX2 body's scalar fallback) is covered; p = 0
    // checks the move-only path.
    const bool simdWas = kern::simdActive();
    for (bool simd : {false, true}) {
        kern::setSimdEnabled(simd);
        for (unsigned n = 2; n <= 5; ++n) {
            const DensityMatrix seed = mixedState(n);
            for (unsigned c = 0; c < n; ++c) {
                for (unsigned t = 0; t < n; ++t) {
                    if (c == t)
                        continue;
                    for (double p : {0.0, 0.05}) {
                        auto ref = seed.vectorized();
                        auto got = ref;
                        kern::applyCx(ref.data(), ref.size(), c, t);
                        kern::applyCx(ref.data(), ref.size(), c + n,
                                      t + n);
                        kern::depolarize2(ref.data(), ref.size(), c, t,
                                          n, p);
                        kern::cxDepolarize2(got.data(), got.size(), c,
                                            t, n, p);
                        for (size_t i = 0; i < ref.size(); ++i)
                            ASSERT_NEAR(std::abs(got[i] - ref[i]), 0.0,
                                        1e-15)
                                << "simd=" << simd << " n=" << n
                                << " c=" << c << " t=" << t
                                << " p=" << p << " i=" << i;
                    }
                }
            }
        }
    }
    kern::setSimdEnabled(simdWas);
}

TEST(DensityMatrix, DepolarizeRangePrimitivesMatchScalar)
{
    // Drive the range primitives directly so the equivalence holds
    // for arbitrary sub-ranges, not just whole-array sweeps.
    const unsigned n = 3;
    DensityMatrix seed = mixedState(n);
    const uint64_t kbit = 1ull << 2, bbit = kbit << n;
    auto va = seed.vectorized(), vb = va;
    const size_t pairs = va.size() / 4;
    kern::ranges::depolarize1Scalar(va.data(), 1, pairs - 1, kbit,
                                    bbit, 0.9, 0.05);
    kern::ranges::depolarize1(vb.data(), 1, pairs - 1, kbit, bbit,
                              0.9, 0.05);
    for (size_t i = 0; i < va.size(); ++i)
        ASSERT_NEAR(std::abs(va[i] - vb[i]), 0.0, 1e-12) << i;

    const uint64_t ka = 1ull << 1, kb2 = 1ull << 2;
    auto wa = seed.vectorized(), wb = wa;
    const size_t blocks = wa.size() / 16;
    kern::ranges::depolarize2Scalar(wa.data(), 1, blocks - 1, ka, kb2,
                                    ka << n, kb2 << n, 0.8, 0.05);
    kern::ranges::depolarize2(wb.data(), 1, blocks - 1, ka, kb2,
                              ka << n, kb2 << n, 0.8, 0.05);
    for (size_t i = 0; i < wa.size(); ++i)
        ASSERT_NEAR(std::abs(wa[i] - wb[i]), 0.0, 1e-12) << i;
}
