/**
 * @file
 * Equivalence tests for the specialized simulator kernels: randomized
 * circuits and Pauli rotations checked against the generic dense
 * reference path, the <bra|P|ket> kernel against a dense Pauli
 * product, plus grouped-vs-termwise Hamiltonian expectation
 * agreement and the expectation width-check regression.
 */

#include <array>
#include <cmath>
#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "pauli/grouping.hh"
#include "sim/density_matrix.hh"
#include "sim/fusion.hh"
#include "sim/kernels.hh"
#include "sim/simd.hh"
#include "sim/statevector.hh"
#include "vqe/expectation_engine.hh"

using namespace qcc;

namespace {

std::vector<cplx>
randomAmplitudes(unsigned n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<cplx> amp(size_t{1} << n);
    double norm2 = 0.0;
    for (auto &a : amp) {
        a = cplx(rng.gaussian(), rng.gaussian());
        norm2 += std::norm(a);
    }
    for (auto &a : amp)
        a /= std::sqrt(norm2);
    return amp;
}

Statevector
randomState(unsigned n, uint64_t seed)
{
    Statevector sv(n);
    sv.amplitudes() = randomAmplitudes(n, seed);
    return sv;
}

PauliString
randomString(unsigned n, Rng &rng, bool allow_identity = true)
{
    for (;;) {
        uint64_t mask = (n == 64) ? ~0ull : ((1ull << n) - 1);
        PauliString p(n, rng.index(1ull << n) & mask,
                      rng.index(1ull << n) & mask);
        if (allow_identity || !p.isIdentity())
            return p;
    }
}

void
expectClose(const std::vector<cplx> &a, const std::vector<cplx> &b,
            const std::string &what, double tol = 1e-12)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(std::abs(a[i] - b[i]), 0.0, tol)
            << what << " at index " << i;
}

/** Pin the SIMD dispatch for one scope, restoring it on exit. */
struct SimdGuard {
    bool was;
    explicit SimdGuard(bool on) : was(kern::simdActive())
    {
        kern::setSimdEnabled(on);
    }
    ~SimdGuard() { kern::setSimdEnabled(was); }
};

/** Random circuit over all gate kinds (same mix as the dense test). */
Circuit
randomCircuit(unsigned n, int n_gates, Rng &rng)
{
    Circuit c(n);
    const GateKind oneQ[] = {GateKind::X,  GateKind::Y,  GateKind::Z,
                             GateKind::H,  GateKind::S,  GateKind::Sdg,
                             GateKind::RX, GateKind::RY, GateKind::RZ};
    for (int g = 0; g < n_gates; ++g) {
        if (n >= 2 && rng.uniform() < 0.3) {
            unsigned a = unsigned(rng.index(n));
            unsigned b = unsigned(rng.index(n - 1));
            if (b >= a)
                ++b;
            if (rng.coin())
                c.cnot(a, b);
            else
                c.swap(a, b);
        } else {
            GateKind k = oneQ[rng.index(std::size(oneQ))];
            c.push({k, unsigned(rng.index(n)), 0,
                    rng.uniform(-3.0, 3.0)});
        }
    }
    return c;
}

} // namespace

TEST(Kernels, Apply1qMatchesGeneric)
{
    Rng rng(7);
    for (unsigned n : {1u, 3u, 6u}) {
        for (int rep = 0; rep < 8; ++rep) {
            cplx u[4];
            for (auto &v : u)
                v = cplx(rng.gaussian(), rng.gaussian());
            const unsigned q = unsigned(rng.index(n));
            auto fast = randomAmplitudes(n, 100 + rep);
            auto ref = fast;
            kern::apply1q(fast.data(), fast.size(), q, u);
            kern::apply1qGeneric(ref.data(), ref.size(), q, u);
            expectClose(fast, ref, "apply1q n=" + std::to_string(n));
        }
    }
}

TEST(Kernels, PauliRotationMatchesGeneric)
{
    Rng rng(11);
    for (unsigned n : {1u, 2u, 5u, 9u}) {
        for (int rep = 0; rep < 20; ++rep) {
            PauliString p = randomString(n, rng);
            const double theta = rng.uniform(-3.0, 3.0);
            auto fast = randomAmplitudes(n, 1000 * n + rep);
            auto ref = fast;
            kern::applyPauliRotation(fast.data(), fast.size(),
                                     p.xMask(), p.zMask(), theta);
            kern::applyPauliRotationGeneric(ref.data(), ref.size(),
                                            p.xMask(), p.zMask(),
                                            theta);
            expectClose(fast, ref, "rotation " + p.str());
        }
    }
}

TEST(Kernels, ExpectationMatchesGeneric)
{
    Rng rng(13);
    for (unsigned n : {1u, 4u, 8u}) {
        auto amp = randomAmplitudes(n, 55 + n);
        for (int rep = 0; rep < 20; ++rep) {
            PauliString p = randomString(n, rng);
            double fast = kern::expectation(amp.data(), amp.size(),
                                            p.xMask(), p.zMask());
            double ref = kern::expectationGeneric(
                amp.data(), amp.size(), p.xMask(), p.zMask());
            EXPECT_NEAR(fast, ref, 1e-12) << p.str();
        }
    }
}

namespace {

/**
 * <bra| P |ket> with P built qubit by qubit from its I/X/Y/Z factors
 * (Y|0> = i|1>, Y|1> = -i|0>), independent of the mask convention
 * the kernels fold into constants.
 */
cplx
densePauliInner(const std::vector<cplx> &bra,
                const std::vector<cplx> &ket, const PauliString &p)
{
    std::vector<cplx> pk(ket.size(), 0.0);
    for (size_t b = 0; b < ket.size(); ++b) {
        cplx phase = 1.0;
        size_t out = b;
        for (unsigned q = 0; q < p.numQubits(); ++q) {
            const bool one = (b >> q) & 1;
            switch (p.op(q)) {
              case PauliOp::I:
                  break;
              case PauliOp::X:
                  out ^= size_t{1} << q;
                  break;
              case PauliOp::Y:
                  out ^= size_t{1} << q;
                  phase *= one ? cplx(0, -1) : cplx(0, 1);
                  break;
              case PauliOp::Z:
                  if (one)
                      phase = -phase;
                  break;
            }
        }
        pk[out] += phase * ket[b];
    }
    cplx s = 0.0;
    for (size_t b = 0; b < ket.size(); ++b)
        s += std::conj(bra[b]) * pk[b];
    return s;
}

} // namespace

TEST(Kernels, PauliInnerMatchesDenseReference)
{
    // Every pivot class the pair loop distinguishes: lowest X bit at
    // position 0 (pivot 1), higher pivots, and diagonal strings, at
    // n = 1 and odd widths.
    Rng rng(23);
    for (unsigned n : {1u, 3u, 5u, 7u}) {
        const uint64_t all = (uint64_t{1} << n) - 1;
        auto bra = randomAmplitudes(n, 300 + n);
        auto ket = randomAmplitudes(n, 400 + n);
        int pivotOne = 0, pivotHigh = 0, diagonal = 0;
        for (int rep = 0; rep < 60; ++rep) {
            uint64_t x = rng.index(uint64_t{1} << n) & all;
            const uint64_t z = rng.index(uint64_t{1} << n) & all;
            if (rep % 3 == 0)
                x = 0;
            else if (rep % 3 == 1 && x)
                x |= 1;
            else if (n > 1)
                x &= ~uint64_t{1};
            const PauliString p(n, x, z);
            pivotOne += (x & 1) != 0;
            pivotHigh += x != 0 && (x & 1) == 0;
            diagonal += x == 0;
            const cplx fast = kern::pauliInner(bra.data(), ket.data(),
                                               bra.size(), x, z);
            const cplx ref = densePauliInner(bra, ket, p);
            EXPECT_NEAR(std::abs(fast - ref), 0.0, 1e-12)
                << "n=" << n << " " << p.str();
        }
        EXPECT_GT(pivotOne, 0) << n;
        EXPECT_GT(diagonal, 0) << n;
        if (n > 1) {
            EXPECT_GT(pivotHigh, 0) << n;
        }
    }
}

TEST(Kernels, PauliInnerOnOneStateIsTheExpectation)
{
    Rng rng(29);
    for (unsigned n : {1u, 4u, 9u}) {
        auto amp = randomAmplitudes(n, 500 + n);
        for (int rep = 0; rep < 20; ++rep) {
            const PauliString p = randomString(n, rng);
            const cplx inner = kern::pauliInner(
                amp.data(), amp.data(), amp.size(), p.xMask(),
                p.zMask());
            const double e = kern::expectation(amp.data(), amp.size(),
                                               p.xMask(), p.zMask());
            EXPECT_NEAR(inner.real(), e, 1e-12) << p.str();
            EXPECT_NEAR(inner.imag(), 0.0, 1e-12) << p.str();
        }
    }
}

TEST(Kernels, RandomCircuitMatchesDenseApply)
{
    // Every specialized gate kernel (diagonal, X, CX, SWAP) against
    // the generic dense 2x2 path / explicit permutation reference.
    Rng rng(17);
    const unsigned n = 6;
    for (int rep = 0; rep < 6; ++rep) {
        Statevector fast = randomState(n, 900 + rep);
        std::vector<cplx> ref = fast.amplitudes();

        std::vector<Gate> gates;
        const GateKind oneQ[] = {GateKind::X,   GateKind::Y,
                                 GateKind::Z,   GateKind::H,
                                 GateKind::S,   GateKind::Sdg,
                                 GateKind::RX,  GateKind::RY,
                                 GateKind::RZ};
        for (int g = 0; g < 40; ++g) {
            if (rng.uniform() < 0.3) {
                unsigned a = unsigned(rng.index(n));
                unsigned b = unsigned(rng.index(n - 1));
                if (b >= a)
                    ++b;
                gates.push_back({rng.coin() ? GateKind::CNOT
                                            : GateKind::SWAP,
                                 a, b});
            } else {
                GateKind k = oneQ[rng.index(std::size(oneQ))];
                gates.push_back({k, unsigned(rng.index(n)), 0,
                                 rng.uniform(-3.0, 3.0)});
            }
        }

        for (const auto &g : gates) {
            fast.applyGate(g);
            // Reference path: dense 2x2 for 1q kinds, explicit
            // full-scan permutations for CNOT/SWAP (the seed's
            // loops).
            if (g.kind == GateKind::CNOT) {
                const uint64_t cb = 1ull << g.q0, tb = 1ull << g.q1;
                for (size_t b = 0; b < ref.size(); ++b)
                    if ((b & cb) && !(b & tb))
                        std::swap(ref[b], ref[b | tb]);
            } else if (g.kind == GateKind::SWAP) {
                const uint64_t ab = 1ull << g.q0, bb = 1ull << g.q1;
                for (size_t b = 0; b < ref.size(); ++b)
                    if ((b & ab) && !(b & bb))
                        std::swap(ref[b ^ ab ^ bb], ref[b]);
            } else {
                cplx u[4];
                gateMatrix(g.kind, g.angle, u);
                kern::apply1qGeneric(ref.data(), ref.size(), g.q0, u);
            }
        }
        expectClose(fast.amplitudes(), ref, "random circuit");
    }
}

TEST(Kernels, ParallelSweepMatchesSerial)
{
    // Force chunked execution by shrinking the grain far below the
    // state size; results must be bit-compatible with the serial
    // sweep up to floating-point associativity of the chunk combine.
    const unsigned n = 12;
    auto amp = randomAmplitudes(n, 77);
    auto ref = amp;
    Rng rng(19);
    PauliString p = randomString(n, rng, false);

    kern::applyPauliRotation(amp.data(), amp.size(), p.xMask(),
                             p.zMask(), 0.37);
    kern::applyPauliRotationGeneric(ref.data(), ref.size(), p.xMask(),
                                    p.zMask(), 0.37);
    expectClose(amp, ref, "parallel rotation");

    double e = 0.0;
    e = parallelReduce(0, amp.size(), 0.0,
                       [&](size_t lo, size_t hi) {
                           double s = 0;
                           for (size_t i = lo; i < hi; ++i)
                               s += std::norm(amp[i]);
                           return s;
                       },
                       /*grain=*/64);
    EXPECT_NEAR(e, 1.0, 1e-10);
}

TEST(Kernels, GroupedExpectationMatchesTermwise)
{
    Rng rng(23);
    for (unsigned n : {3u, 6u}) {
        PauliSum h(n);
        for (int t = 0; t < 25; ++t)
            h.add(rng.gaussian(), randomString(n, rng));
        h.simplify();

        Statevector psi = randomState(n, 40 + n);
        ExpectationEngine engine(h);
        EXPECT_GT(engine.numGroups(), 0u);
        EXPECT_LE(engine.numGroups(), h.numTerms());
        EXPECT_NEAR(engine.energy(psi), psi.expectation(h), 1e-10)
            << "n=" << n;
    }
}

TEST(Kernels, GroupedExpectationDiagonalFamilyFastPath)
{
    // An all-diagonal Hamiltonian needs no scratch rotation at all.
    PauliSum h(4);
    h.add(0.5, PauliString::fromString("ZZII"));
    h.add(-0.25, PauliString::fromString("IZZI"));
    h.add(1.5, PauliString(4));
    Statevector psi = randomState(4, 3);
    ExpectationEngine engine(h);
    EXPECT_EQ(engine.numGroups(), 1u);
    EXPECT_NEAR(engine.energy(psi), psi.expectation(h), 1e-12);
}

TEST(Kernels, ExpectationWidthMismatchPanics)
{
    // Regression: the PauliString overload used to silently accept a
    // width-mismatched string (reading out of range).
    // Pool workers may be alive from earlier tests; fork+exec style
    // keeps the death test safe with threads running.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Statevector sv(3);
    PauliString wide = PauliString::fromString("ZZZZZ");
    EXPECT_DEATH(sv.expectation(wide), "width mismatch");
}

// ---------------------------------------------------------------------
// SIMD dispatch: vector path vs forced-scalar path vs generic oracle.
// On machines without AVX2 both dispatches run the scalar bodies and
// the checks degenerate to (still valid) scalar-vs-generic tests.
// ---------------------------------------------------------------------

TEST(Simd, Apply1qMatchesScalarAndGeneric)
{
    Rng rng(31);
    for (unsigned n : {1u, 2u, 3u, 5u, 11u}) {
        for (int rep = 0; rep < 6; ++rep) {
            cplx u[4];
            for (auto &v : u)
                v = cplx(rng.gaussian(), rng.gaussian());
            for (unsigned q = 0; q < n; ++q) {
                auto ref = randomAmplitudes(n, 7000 + 64 * n + rep);
                auto vec = ref;
                auto sca = ref;
                kern::apply1qGeneric(ref.data(), ref.size(), q, u);
                {
                    SimdGuard g(true);
                    kern::apply1q(vec.data(), vec.size(), q, u);
                }
                {
                    SimdGuard g(false);
                    kern::apply1q(sca.data(), sca.size(), q, u);
                }
                const std::string what = "apply1q n=" +
                    std::to_string(n) + " q=" + std::to_string(q);
                expectClose(vec, ref, "simd " + what);
                expectClose(sca, ref, "scalar " + what);
            }
        }
    }
}

TEST(Simd, PauliRotationMatchesScalarAndGeneric)
{
    Rng rng(37);
    // Odd widths and n=1 stress the vector head/tail handling; the
    // random strings cover diagonal (x=0), pivot=1, and pivot>=2.
    for (unsigned n : {1u, 2u, 3u, 7u, 13u}) {
        for (int rep = 0; rep < 16; ++rep) {
            PauliString p = randomString(n, rng);
            const double theta = rng.uniform(-3.0, 3.0);
            auto ref = randomAmplitudes(n, 8000 + 64 * n + rep);
            auto vec = ref;
            auto sca = ref;
            kern::applyPauliRotationGeneric(ref.data(), ref.size(),
                                            p.xMask(), p.zMask(),
                                            theta);
            {
                SimdGuard g(true);
                kern::applyPauliRotation(vec.data(), vec.size(),
                                         p.xMask(), p.zMask(), theta);
            }
            {
                SimdGuard g(false);
                kern::applyPauliRotation(sca.data(), sca.size(),
                                         p.xMask(), p.zMask(), theta);
            }
            expectClose(vec, ref, "simd rotation " + p.str());
            expectClose(sca, ref, "scalar rotation " + p.str());
        }
    }
}

TEST(Simd, ExpectationMatchesScalarAndGeneric)
{
    Rng rng(41);
    for (unsigned n : {1u, 3u, 5u, 13u}) {
        auto amp = randomAmplitudes(n, 90 + n);
        for (int rep = 0; rep < 16; ++rep) {
            PauliString p = randomString(n, rng);
            const double ref = kern::expectationGeneric(
                amp.data(), amp.size(), p.xMask(), p.zMask());
            double vec, sca;
            {
                SimdGuard g(true);
                vec = kern::expectation(amp.data(), amp.size(),
                                        p.xMask(), p.zMask());
            }
            {
                SimdGuard g(false);
                sca = kern::expectation(amp.data(), amp.size(),
                                        p.xMask(), p.zMask());
            }
            EXPECT_NEAR(vec, ref, 1e-12) << "simd " << p.str();
            EXPECT_NEAR(sca, ref, 1e-12) << "scalar " << p.str();
        }
    }
}

TEST(Simd, DiagonalGroupExpectationMatchesScalar)
{
    Rng rng(43);
    for (unsigned n : {1u, 3u, 6u, 13u}) {
        auto amp = randomAmplitudes(n, 300 + n);
        const uint64_t mask = (1ull << n) - 1;
        // Term counts around the AVX2 4-probability quad boundary.
        for (size_t terms : {1u, 3u, 24u}) {
            std::vector<double> w;
            std::vector<uint64_t> z;
            for (size_t t = 0; t < terms; ++t) {
                w.push_back(rng.gaussian());
                z.push_back(rng.index(1ull << n) & mask);
            }
            // Scalar oracle straight from the definition.
            double ref = 0.0;
            for (size_t b = 0; b < amp.size(); ++b) {
                const double n2 = std::norm(amp[b]);
                for (size_t t = 0; t < terms; ++t)
                    ref += (std::popcount(z[t] & b) & 1 ? -w[t]
                                                        : w[t]) *
                           n2;
            }
            double vec, sca;
            {
                SimdGuard g(true);
                vec = kern::diagonalGroupExpectation(
                    amp.data(), amp.size(), w.data(), z.data(),
                    terms);
            }
            {
                SimdGuard g(false);
                sca = kern::diagonalGroupExpectation(
                    amp.data(), amp.size(), w.data(), z.data(),
                    terms);
            }
            EXPECT_NEAR(vec, ref, 1e-12)
                << "simd n=" << n << " terms=" << terms;
            EXPECT_NEAR(sca, ref, 1e-12)
                << "scalar n=" << n << " terms=" << terms;
        }
    }
}

// ---------------------------------------------------------------------
// Gate fusion + cache-blocked execution vs plain per-gate replay.
// ---------------------------------------------------------------------

TEST(Fusion, FusedCircuitMatchesPerGate)
{
    Rng rng(47);
    // n=14 exceeds the execution block width, so high-bit 1q gates,
    // block-selecting CNOT controls, and the segment machinery all
    // run; n=1 and odd widths cover the degenerate ends.
    for (unsigned n : {1u, 2u, 5u, 14u}) {
        const int reps = n >= 14 ? 2 : 5;
        for (int rep = 0; rep < reps; ++rep) {
            Circuit c = randomCircuit(n, n >= 14 ? 120 : 60, rng);
            Statevector ref = randomState(n, 500 + 16 * n + rep);
            Statevector fusedV(n), fusedS(n);
            fusedV.amplitudes() = ref.amplitudes();
            fusedS.amplitudes() = ref.amplitudes();
            {
                SimdGuard g(false);
                ref.applyCircuit(c, false);
                fusedS.applyCircuit(c, true);
            }
            {
                SimdGuard g(true);
                fusedV.applyCircuit(c, true);
            }
            expectClose(fusedS.amplitudes(), ref.amplitudes(),
                        "fused scalar n=" + std::to_string(n));
            expectClose(fusedV.amplitudes(), ref.amplitudes(),
                        "fused simd n=" + std::to_string(n));
        }
    }
}

TEST(Fusion, DiagonalRunsCoalesce)
{
    // A long run of commuting diagonal gates (with CNOTs whose
    // controls sit on the diagonal qubits interleaved) must fuse into
    // far fewer ops and still match per-gate replay.
    Circuit c(5);
    for (int pass = 0; pass < 3; ++pass) {
        for (unsigned q = 0; q < 5; ++q) {
            c.z(q);
            c.s(q);
            c.rz(q, 0.2 + 0.1 * q);
        }
        c.cnot(0, 4); // diag on control 0 commutes through
    }
    FusedProgram p = fuseCircuit(c);
    EXPECT_LT(p.ops.size(), c.size() / 3);

    Statevector a = randomState(5, 77), b(5);
    b.amplitudes() = a.amplitudes();
    a.applyCircuit(c, false);
    b.applyCircuit(c, true);
    expectClose(b.amplitudes(), a.amplitudes(), "diag coalesce");
}

TEST(Fusion, OneQubitRunsMerge)
{
    // RZ-RY-RZ Euler blocks per qubit collapse to one matrix each.
    Circuit c(4);
    for (unsigned q = 0; q < 4; ++q) {
        c.rz(q, 0.3);
        c.ry(q, 0.5);
        c.rz(q, -0.2);
        c.h(q);
    }
    FusedProgram p = fuseCircuit(c);
    EXPECT_EQ(p.ops.size(), 4u);

    Statevector a = randomState(4, 88), b(4);
    b.amplitudes() = a.amplitudes();
    a.applyCircuit(c, false);
    b.applyCircuit(c, true);
    expectClose(b.amplitudes(), a.amplitudes(), "1q merge");
}

TEST(Fusion, DensityMatrixFusedMatchesPerGate)
{
    // The fused executor against the per-gate reference under the
    // three noise models the simulator runs: noiseless, CNOT noise
    // only (1q runs merge), and CNOT plus 1q noise (nothing merges
    // across a channel). n = 7 puts qubit-0 pairs on the scalar
    // fallback and the bra bits high.
    NoiseModel cnotOnly;
    cnotOnly.cnotDepolarizing = 1e-3;
    NoiseModel both = cnotOnly;
    both.singleQubitDepolarizing = 1e-3;
    const std::pair<const char *, NoiseModel> models[] = {
        {"noiseless", NoiseModel{}}, {"cnot", cnotOnly},
        {"cnot+1q", both}};
    Rng rng(53);
    for (const auto &[label, noise] : models) {
        for (unsigned n : {1u, 2u, 4u, 7u}) {
            for (bool simd : {false, true}) {
                SimdGuard guard(simd);
                const std::string what =
                    std::string("dm fused ") + label +
                    " n=" + std::to_string(n) +
                    (simd ? " simd" : " scalar");
                Circuit c = randomCircuit(n, 40, rng);
                DensityMatrix a(n), b(n);
                // Evolve both away from the basis state first so the
                // check sees a dense matrix.
                Circuit warm = randomCircuit(n, 10, rng);
                a.applyCircuit(warm, noise, false);
                b.vectorized() = a.vectorized();
                a.applyCircuit(c, noise, false);
                b.applyCircuit(c, noise, true);
                expectClose(b.vectorized(), a.vectorized(), what);
                EXPECT_NEAR(b.trace(), 1.0, 1e-10) << what;
            }
        }
    }
}

TEST(Fusion, RotatedGroupExpectationMatchesCopyPath)
{
    Rng rng(59);
    // n=14 with low rotations exercises the zero-copy blocked sweep;
    // adding a rotation above the block width forces the scratch-copy
    // path. n=5 runs the single-block case.
    for (unsigned n : {5u, 14u}) {
        auto amp = randomAmplitudes(n, 600 + n);
        const uint64_t mask = (1ull << n) - 1;
        for (bool highRotation : {false, true}) {
            if (highRotation && n < 14)
                continue;
            std::vector<std::pair<unsigned, std::array<cplx, 4>>>
                rots;
            std::vector<unsigned> qs = {0, 2, unsigned(n - 1)};
            if (!highRotation && n >= 14)
                qs = {0, 2, 7};
            for (unsigned q : qs) {
                std::array<cplx, 4> u;
                basisChangeMatrix(rng.coin() ? PauliOp::X
                                             : PauliOp::Y,
                                  u.data());
                rots.emplace_back(q, u);
            }
            std::vector<double> w;
            std::vector<uint64_t> z;
            for (int t = 0; t < 12; ++t) {
                w.push_back(rng.gaussian());
                z.push_back(rng.index(1ull << n) & mask);
            }
            // Oracle: rotate a full copy, then the plain group sweep.
            auto copy = amp;
            for (const auto &[q, u] : rots)
                kern::apply1q(copy.data(), copy.size(), q, u.data());
            const double ref = kern::diagonalGroupExpectation(
                copy.data(), copy.size(), w.data(), z.data(),
                z.size());
            const double got = rotatedGroupExpectation(
                amp.data(), amp.size(), rots, w.data(), z.data(),
                z.size());
            EXPECT_NEAR(got, ref, 1e-11)
                << "n=" << n << " high=" << highRotation;
        }
    }
}

TEST(Fusion, EngineEnergyAgreesWithFusionOff)
{
    // The ExpectationEngine's fused rotated-family sweep against the
    // scratch-copy path on the same random Hamiltonian and state.
    Rng rng(61);
    PauliSum h(6);
    for (int t = 0; t < 40; ++t)
        h.add(rng.gaussian(), randomString(6, rng));
    h.simplify();
    Statevector psi = randomState(6, 99);
    ExpectationEngine engine(h);
    const bool was = fusionEnabled();
    setFusionEnabled(true);
    const double fused = engine.energy(psi);
    setFusionEnabled(false);
    const double plain = engine.energy(psi);
    setFusionEnabled(was);
    EXPECT_NEAR(fused, plain, 1e-11);
    EXPECT_NEAR(fused, psi.expectation(h), 1e-10);
}

// ---------------------------------------------------------------------
// Operand validation at the applyCircuit boundary.
// ---------------------------------------------------------------------

TEST(Validation, WidthMismatchThrowsSimError)
{
    Statevector sv(3);
    Circuit c(4);
    c.h(0);
    try {
        sv.applyCircuit(c);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("width"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.issue().gateIndex, -1);
    }
}

TEST(Validation, OutOfRangeOperandThrowsWithGateIndex)
{
    Statevector sv(3);
    Circuit c(3);
    c.h(0);
    c.cnot(0, 1);
    c.gates()[1].q1 = 9; // corrupt the CNOT target past the register
    try {
        sv.applyCircuit(c);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.issue().gateIndex, 1);
        EXPECT_NE(std::string(e.what()).find("gate 1"),
                  std::string::npos)
            << e.what();
    }
    // The state must be untouched: validation precedes execution.
    EXPECT_NEAR(std::abs(sv.amplitudes()[0]), 1.0, 1e-15);
}

TEST(Validation, IdenticalTwoQubitOperandsThrow)
{
    Statevector sv(3);
    Circuit c(3);
    c.cnot(0, 1);
    c.gates()[0].q1 = 0;
    EXPECT_THROW(sv.applyCircuit(c), SimError);
}

TEST(Validation, DensityMatrixValidatesToo)
{
    DensityMatrix rho(3);
    Circuit wide(5);
    wide.h(0);
    EXPECT_THROW(rho.applyCircuit(wide), SimError);

    Circuit c(3);
    c.swap(0, 2);
    c.gates()[0].q0 = 7;
    EXPECT_THROW(rho.applyCircuit(c), SimError);

    std::optional<SimIssue> issue = validateCircuit(c, 3);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->gateIndex, 0);
}
