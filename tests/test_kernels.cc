/**
 * @file
 * Equivalence tests for the specialized simulator kernels: randomized
 * circuits and Pauli rotations checked against the generic dense
 * reference path with the vector path off and on, the fused
 * <bra|P|ket>-and-rotate step against a dense Pauli product and, bit
 * for bit, against the read-only product and two rotations, H by X
 * mask against the per-term H*v and <H> (references in
 * sim_reference.hh),
 * and the expectation width-check regression. QCC_THREADS is pinned
 * to 4 before the pool first sizes itself, so the chunked sweeps run
 * on any runner.
 */

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>

#include "chem/molecules.hh"
#include "circuit/circuit.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "ferm/hamiltonian.hh"
#include "sim/kernels.hh"
#include "sim/simd.hh"
#include "sim/statevector.hh"
#include "sim_reference.hh"
#include "vqe/expectation_engine.hh"

using namespace qcc;
using namespace qcc_test;

namespace {

// Static initialization runs before any test can size the pool.
const bool kLanesPinned = [] {
    setenv("QCC_THREADS", "4", 1);
    unsetenv("QCC_JOB_WIDTH");
    return true;
}();

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

/** Random circuit over all gate kinds, 30% of them CNOT or SWAP. */
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
            apply1qGeneric(ref.data(), ref.size(), q, u);
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
            applyPauliRotationGeneric(ref.data(), ref.size(),
                                      p.xMask(), p.zMask(), theta);
            expectClose(fast, ref, "rotation " + p.str());
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
            // The fused step's product is read before its rotations.
            auto braRot = bra, ketRot = ket;
            const cplx fast = kern::pauliInnerAndRotate(
                braRot.data(), ketRot.data(), bra.size(), x, z, 0.3);
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
            auto bra = amp, ket = amp; // the kernel's states are distinct
            const cplx inner = kern::pauliInnerAndRotate(
                bra.data(), ket.data(), amp.size(), p.xMask(), p.zMask(),
                -0.7);
            const double e = expectationGeneric(
                amp.data(), amp.size(), p.xMask(), p.zMask());
            EXPECT_NEAR(inner.real(), e, 1e-12) << p.str();
            EXPECT_NEAR(inner.imag(), 0.0, 1e-12) << p.str();
        }
    }
}

TEST(Kernels, RandomCircuitMatchesDenseApply)
{
    // Statevector::applyCircuit, so every specialized gate kernel
    // (diagonal, X, CX, SWAP, dense 1q), against the generic dense
    // 2x2 path / explicit permutation reference, with the vector path
    // off and on. n = 14 puts gates on bits whose pairs span several
    // parallel chunks; n = 1 and odd widths cover the degenerate ends.
    Rng rng(17);
    for (unsigned n : {1u, 2u, 5u, 6u, 14u}) {
        const int reps = n >= 14 ? 2 : 6;
        for (int rep = 0; rep < reps; ++rep) {
            const Circuit c = randomCircuit(n, n >= 14 ? 120 : 40, rng);
            const Statevector start = randomState(n, 900 + 16 * n + rep);
            // Reference path: dense 2x2 for 1q kinds, explicit
            // full-scan permutations for CNOT/SWAP (the seed's
            // loops).
            std::vector<cplx> ref = start.amplitudes();
            for (const Gate &g : c.gates()) {
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
                    apply1qGeneric(ref.data(), ref.size(), g.q0, u);
                }
            }
            for (bool simd : {false, true}) {
                SimdGuard guard(simd);
                Statevector fast = start;
                fast.applyCircuit(c);
                expectClose(fast.amplitudes(), ref,
                            std::string(simd ? "simd" : "scalar") +
                                " random circuit n=" +
                                std::to_string(n));
            }
        }
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
    applyPauliRotationGeneric(ref.data(), ref.size(), p.xMask(),
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

TEST(Kernels, ExpectationWidthMismatchPanics)
{
    // Regression: the single-string expectation used to silently
    // accept a width-mismatched string (reading out of range); the
    // Pauli-sum path must refuse one too.
    // Pool workers may be alive from earlier tests; fork+exec style
    // keeps the death test safe with threads running.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Statevector sv(3);
    PauliSum wide(5);
    wide.add(1.0, PauliString::fromString("ZZZZZ"));
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
                apply1qGeneric(ref.data(), ref.size(), q, u);
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
    // n = 16 is parallelFor's largest inline range; n = 17 splits
    // the pairs into chunks on a multi-core pool.
    for (unsigned n : {1u, 2u, 3u, 7u, 13u, 16u, 17u}) {
        for (int rep = 0; rep < 16; ++rep) {
            PauliString p = randomString(n, rng);
            const double theta = rng.uniform(-3.0, 3.0);
            auto ref = randomAmplitudes(n, 8000 + 64 * n + rep);
            auto vec = ref;
            auto sca = ref;
            applyPauliRotationGeneric(ref.data(), ref.size(),
                                      p.xMask(), p.zMask(), theta);
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

namespace {

/** Canonical Pauli (x, z) over n qubits, masked to the width. */
struct Masks
{
    uint64_t x, z;
};

/**
 * X masks of every pivot class the pair kernels tell apart: x = 1,
 * x holding bit 0 and higher bits (low and high ones, so a pair's
 * two amplitudes lie near each other or far apart), pivot >= 2, and
 * x = 0.
 */
std::vector<Masks>
pivotClassMasks(unsigned n, Rng &rng)
{
    const uint64_t all = (uint64_t{1} << n) - 1;
    std::vector<Masks> out;
    auto z = [&] { return rng.index(uint64_t{1} << n) & all; };
    out.push_back({1, z()});
    if (n > 1) {
        out.push_back({1 | (uint64_t{1} << 1), z()});
        out.push_back({1 | (uint64_t{1} << (n - 1)), z()});
        out.push_back({(rng.index(uint64_t{1} << n) & all) | 1, z()});
        out.push_back({uint64_t{1} << 1, z()});
        out.push_back({(uint64_t{1} << (n - 1)) | (uint64_t{1} << 2 & all),
                       z()});
        out.push_back({(rng.index(uint64_t{1} << n) & all & ~uint64_t{1})
                           | (uint64_t{1} << (n - 1)),
                       z()});
    }
    out.push_back({0, z()});
    return out;
}

/** Sub-ranges of [0, len) with odd and even ends. */
std::vector<std::pair<size_t, size_t>>
subRanges(size_t len, Rng &rng)
{
    std::vector<std::pair<size_t, size_t>> out;
    const std::pair<size_t, size_t> fixed[] = {
        {0, len}, {1, len}, {0, len - 1}, {1, len / 2 + 1},
        {len / 2 - 1, len}, {len / 4, 3 * len / 4 + 1}};
    for (const auto &[a, b] : fixed)
        if (a < b && b <= len)
            out.push_back({a, b});
    for (int i = 0; i < 4; ++i) {
        size_t a = rng.index(len), b = rng.index(len + 1);
        if (a > b)
            std::swap(a, b);
        if (a < b)
            out.push_back({a, b});
    }
    return out;
}

/** A random partition of [0, len) into consecutive sub-ranges. */
std::vector<size_t>
randomCuts(size_t len, Rng &rng)
{
    std::vector<size_t> cuts = {0};
    while (cuts.back() < len)
        cuts.push_back(std::min(len, cuts.back() + 1 +
                                         rng.index(len / 5 + 3)));
    return cuts;
}

bool
sameBits(const std::vector<cplx> &a, const std::vector<cplx> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

/** Basis indices a compacted pair range [lo, hi) owns. */
std::vector<bool>
ownedIndices(size_t dim, size_t lo, size_t hi, uint64_t x)
{
    std::vector<bool> own(dim, false);
    if (x == 0) {
        for (size_t b = lo; b < hi; ++b)
            own[b] = true;
        return own;
    }
    const uint64_t pivot = x & (~x + 1);
    for (size_t k = lo; k < hi; ++k) {
        const size_t b = kern::expandBit(k, pivot);
        own[b] = own[b ^ x] = true;
    }
    return own;
}

} // namespace

TEST(Simd, PairPrimitivesStayInsideTheirRange)
{
    // Drive the range primitives on sub-ranges, as the parallel
    // sweeps' chunks do, for every pivot class: a sub-range writes
    // exactly its own pairs, a rotation rounds each pair the same at
    // any chunking, and an inner product's partial sum agrees
    // between the dispatched and scalar bodies.
    Rng rng(53);
    for (unsigned n : {1u, 2u, 7u, 16u}) {
        const size_t dim = size_t{1} << n;
        const auto bra = randomAmplitudes(n, 600 + n);
        const auto ket = randomAmplitudes(n, 700 + n);
        for (const Masks &m : pivotClassMasks(n, rng)) {
            const uint64_t pivot = m.x & (~m.x + 1);
            const size_t len = m.x ? dim / 2 : dim;
            const double theta = rng.uniform(-3.0, 3.0);
            const double c = std::cos(theta), sn = std::sin(theta);
            // The folded constants of kern::applyPauliRotation:
            // u = i sin(theta) i^{|x&z|}, sigma = (-1)^{|z&x|}.
            const cplx uu = cplx(0, sn) * pauliPhase(m.x, m.z, 0);
            const double sigma =
                std::popcount(m.z & m.x) & 1 ? -1.0 : 1.0;
            auto rotate = [&](std::vector<cplx> &a, size_t lo,
                              size_t hi, bool scalar) {
                if (m.x == 0) {
                    const cplx fe(c, sn), fo(c, -sn);
                    scalar ? kern::ranges::pauliRotDiagScalar(
                                 a.data(), lo, hi, m.z, fe, fo)
                           : kern::ranges::pauliRotDiag(a.data(), lo,
                                                        hi, m.z, fe, fo);
                    return;
                }
                const double ur = uu.real(), ui = uu.imag();
                (scalar ? kern::ranges::pauliRotPairsScalar
                        : kern::ranges::pauliRotPairs)(
                    a.data(), lo, hi, m.x, m.z, pivot, c, ur, ui,
                    sigma * ur, sigma * ui);
            };
            auto inner = [&](size_t lo, size_t hi, bool scalar) {
                if (m.x == 0) // one body, scalar
                    return kern::ranges::pauliInnerDiagScalar(
                        bra.data(), ket.data(), lo, hi, m.z);
                return (scalar ? pauliInnerPairsScalar : pauliInnerPairs)(
                    bra.data(), ket.data(), lo, hi, m.x, m.z, pivot,
                    sigma);
            };
            // The fused backward step on copies of both states.
            auto innerRotate = [&](std::vector<cplx> &b,
                                   std::vector<cplx> &k, size_t lo,
                                   size_t hi, bool scalar) {
                const double ur = uu.real(), ui = uu.imag();
                return (scalar ? kern::ranges::pauliInnerRotPairsScalar
                               : kern::ranges::pauliInnerRotPairs)(
                    b.data(), k.data(), lo, hi, m.x, m.z, pivot, sigma,
                    c, ur, ui, sigma * ur, sigma * ui);
            };
            for (bool simd : {true, false}) {
                SimdGuard g(simd);
                const std::string what =
                    std::string(simd ? "simd" : "scalar") + " n=" +
                    std::to_string(n) + " x=" + std::to_string(m.x) +
                    " z=" + std::to_string(m.z);
                auto whole = ket;
                rotate(whole, 0, len, false);
                auto wholeBra = bra;
                rotate(wholeBra, 0, len, false);
                auto scalarWhole = ket;
                rotate(scalarWhole, 0, len, true);
                auto scalarWholeBra = bra;
                rotate(scalarWholeBra, 0, len, true);
                expectClose(whole, scalarWhole, "rotation " + what);
                // Any partition rounds every pair as the whole sweep.
                const std::vector<size_t> cuts = randomCuts(len, rng);
                auto parts = ket;
                for (size_t i = 0; i + 1 < cuts.size(); ++i)
                    rotate(parts, cuts[i], cuts[i + 1], false);
                EXPECT_TRUE(sameBits(parts, whole))
                    << "partitioned rotation " << what;
                for (const auto &[lo, hi] : subRanges(len, rng)) {
                    auto one = ket;
                    rotate(one, lo, hi, false);
                    const auto own = ownedIndices(dim, lo, hi, m.x);
                    for (size_t b = 0; b < dim; ++b) {
                        const cplx want = own[b] ? whole[b] : ket[b];
                        ASSERT_EQ(one[b], want)
                            << "rotation [" << lo << ", " << hi
                            << ") index " << b << " " << what;
                    }
                    EXPECT_NEAR(std::abs(inner(lo, hi, false) -
                                         inner(lo, hi, true)),
                                0.0, 1e-13)
                        << "inner [" << lo << ", " << hi << ") "
                        << what;
                    if (m.x == 0) // diagonal steps run unfused
                        continue;
                    // The fused step sums as the read-only pair sum
                    // of the same body, and rotates exactly its own
                    // pairs of both states as the whole sweep does.
                    for (bool scalar : {false, true}) {
                        auto fb = bra, fk = ket;
                        EXPECT_EQ(innerRotate(fb, fk, lo, hi, scalar),
                                  inner(lo, hi, scalar))
                            << "fused inner [" << lo << ", " << hi
                            << ") scalar=" << scalar << " " << what;
                        const auto &rb = scalar ? scalarWholeBra : wholeBra;
                        const auto &rk = scalar ? scalarWhole : whole;
                        for (size_t b = 0; b < dim; ++b) {
                            ASSERT_EQ(fb[b], own[b] ? rb[b] : bra[b])
                                << "fused bra [" << lo << ", " << hi
                                << ") index " << b << " scalar=" << scalar
                                << " " << what;
                            ASSERT_EQ(fk[b], own[b] ? rk[b] : ket[b])
                                << "fused ket [" << lo << ", " << hi
                                << ") index " << b << " scalar=" << scalar
                                << " " << what;
                        }
                    }
                }
            }
        }
    }
}

TEST(Kernels, PauliInnerAndRotateMatchesUnfusedReference)
{
    // The fused backward step against the read-only <bra|P|ket> of
    // sim_reference.hh followed by two applyPauliRotation calls: the
    // same bits for the product and for both states, with the vector
    // path off and on, for every pivot class. At n = 17 the pair
    // reduction splits into four chunks (QCC_THREADS is pinned to 4).
    Rng rng(61);
    for (unsigned n : {1u, 2u, 5u, 6u, 12u, 17u}) {
        const auto bra = randomAmplitudes(n, 800 + n);
        const auto ket = randomAmplitudes(n, 900 + n);
        for (const Masks &m : pivotClassMasks(n, rng)) {
            const double theta = rng.uniform(-3.0, 3.0);
            for (bool simd : {false, true}) {
                SimdGuard g(simd);
                const std::string what =
                    std::string(simd ? "simd" : "scalar") + " n=" +
                    std::to_string(n) + " x=" + std::to_string(m.x) +
                    " z=" + std::to_string(m.z);
                auto refBra = bra, refKet = ket;
                const cplx want = pauliInner(refBra.data(), refKet.data(),
                                             refBra.size(), m.x, m.z);
                kern::applyPauliRotation(refBra.data(), refBra.size(),
                                         m.x, m.z, theta);
                kern::applyPauliRotation(refKet.data(), refKet.size(),
                                         m.x, m.z, theta);
                auto fusedBra = bra, fusedKet = ket;
                const cplx got = kern::pauliInnerAndRotate(
                    fusedBra.data(), fusedKet.data(), fusedBra.size(), m.x,
                    m.z, theta);
                EXPECT_EQ(got, want) << what;
                EXPECT_TRUE(sameBits(fusedBra, refBra)) << "bra " << what;
                EXPECT_TRUE(sameBits(fusedKet, refKet)) << "ket " << what;
            }
        }
    }
}

namespace {

/** A random H with complex coefficients, identity and x = 0 terms. */
std::vector<PauliTerm>
randomHamiltonian(unsigned n, size_t n_terms, Rng &rng)
{
    const uint64_t all = (uint64_t{1} << n) - 1;
    std::vector<PauliTerm> terms;
    terms.push_back({cplx(rng.gaussian(), rng.gaussian()),
                     PauliString(n)});
    // Few X masks, so each carries several terms.
    std::vector<uint64_t> xs = {0, 1};
    for (int i = 0; i < 4; ++i)
        xs.push_back(rng.index(uint64_t{1} << n) & all);
    while (terms.size() < n_terms) {
        const uint64_t x = xs[rng.index(xs.size())];
        const uint64_t z = rng.index(uint64_t{1} << n) & all;
        terms.push_back({cplx(rng.gaussian(), rng.gaussian()),
                         PauliString(n, x, z)});
    }
    return terms;
}

} // namespace

TEST(Kernels, XMaskGroupsMatchThePerTermReference)
{
    Rng rng(59);
    for (unsigned n : {1u, 2u, 7u, 13u, 16u}) {
        const size_t dim = size_t{1} << n;
        const auto v = randomAmplitudes(n, 800 + n);
        const auto terms = randomHamiltonian(n, 40, rng);
        kern::XMaskGroups h;
        std::vector<cplx> ref(dim, 0.0);
        for (const PauliTerm &t : terms) {
            h.add(t.string.xMask(), t.string.zMask(), t.coeff);
            accumulatePauli(v.data(), dim, t.string.xMask(),
                            t.string.zMask(), t.coeff, ref.data());
        }
        EXPECT_LE(h.masks(), 6u);
        for (bool simd : {true, false}) {
            SimdGuard g(simd);
            std::vector<cplx> out(dim, 0.0);
            h.apply(v.data(), dim, out.data());
            expectClose(out, ref,
                        std::string(simd ? "simd" : "scalar") +
                            " H v n=" + std::to_string(n));
        }
    }
}

TEST(Kernels, EnergyByMaskMatchesPerTermReference)
{
    // Every catalog Hamiltonian of up to 12 qubits at equilibrium, on
    // random states: the engine and Statevector::expectation against
    // one full-scan sweep per term.
    for (const BenchmarkMolecule &entry : benchmarkMolecules()) {
        if (entry.expectQubits > 12)
            continue;
        const MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        const PauliSum &h = prob.hamiltonian;
        const ExpectationEngine engine(h);
        for (uint64_t seed : {1u, 2u}) {
            const Statevector psi =
                randomState(prob.nQubits, 1000 + 8 * prob.nQubits + seed);
            const double ref = perTermEnergy(h, psi);
            EXPECT_NEAR(engine.energy(psi), ref, 1e-10) << entry.name;
            EXPECT_NEAR(psi.expectation(h), ref, 1e-10) << entry.name;
        }
    }

    // At n = 16 on four lanes the mask sweeps and the reduction split
    // into chunks; one lane runs the same chunks inline.
    const unsigned n = 16;
    Rng rng(71);
    PauliSum h(n);
    for (int t = 0; t < 40; ++t)
        h.add(rng.gaussian(), randomString(n, rng));
    h.simplify();
    const Statevector psi = randomState(n, 1100);
    const ExpectationEngine engine(h);
    const double wide = engine.energy(psi);
    EXPECT_NEAR(wide, perTermEnergy(h, psi), 1e-10);
    double capped;
    {
        ParallelWidthCap cap(1);
        capped = engine.energy(psi);
    }
    EXPECT_EQ(wide, capped);
}

TEST(Simd, MaskMatvecStaysInsideItsRange)
{
    // The one-mask primitive on sub-ranges: it writes exactly
    // out[lo, hi), and every entry rounds as in the whole sweep.
    Rng rng(61);
    for (unsigned n : {1u, 2u, 7u, 16u}) {
        const size_t dim = size_t{1} << n;
        const auto v = randomAmplitudes(n, 900 + n);
        const auto start = randomAmplitudes(n, 950 + n);
        for (const Masks &m : pivotClassMasks(n, rng)) {
            std::vector<uint64_t> z;
            std::vector<double> wr, wi;
            for (int t = 0; t < 9; ++t) {
                z.push_back(rng.index(dim));
                wr.push_back(rng.gaussian());
                wi.push_back(rng.gaussian());
            }
            auto run = [&](std::vector<cplx> &out, size_t lo, size_t hi,
                           bool scalar) {
                (scalar ? kern::ranges::maskMatvecScalar
                        : kern::ranges::maskMatvec)(
                    out.data(), v.data(), lo, hi, m.x, z.data(),
                    wr.data(), wi.data(), z.size());
            };
            for (bool simd : {true, false}) {
                SimdGuard g(simd);
                const std::string what =
                    std::string(simd ? "simd" : "scalar") + " n=" +
                    std::to_string(n) + " x=" + std::to_string(m.x);
                auto whole = start, scalarWhole = start;
                run(whole, 0, dim, false);
                run(scalarWhole, 0, dim, true);
                expectClose(whole, scalarWhole, "mask matvec " + what);
                const std::vector<size_t> cuts = randomCuts(dim, rng);
                auto parts = start;
                for (size_t i = 0; i + 1 < cuts.size(); ++i)
                    run(parts, cuts[i], cuts[i + 1], false);
                EXPECT_TRUE(sameBits(parts, whole))
                    << "partitioned mask matvec " << what;
                for (const auto &[lo, hi] : subRanges(dim, rng)) {
                    auto one = start;
                    run(one, lo, hi, false);
                    for (size_t b = 0; b < dim; ++b)
                        ASSERT_EQ(one[b], b >= lo && b < hi ? whole[b]
                                                            : start[b])
                            << "[" << lo << ", " << hi << ") index "
                            << b << " " << what;
                }
            }
        }
    }
}

TEST(Simd, OneQubitSweepsMatchScalarOnEveryBitOfATwelveQubitState)
{
    // 4096 amplitudes, bits 0-11. The low bits walk fixed loop
    // nests; sub-ranges start and end inside runs.
    Rng rng(67);
    const unsigned bits = 12;
    const size_t dim = size_t{1} << bits;
    const auto start = randomAmplitudes(bits, 1234);
    cplx u[4];
    for (auto &e : u)
        e = cplx(rng.gaussian(), rng.gaussian());
    const cplx d0(rng.gaussian(), rng.gaussian());
    const cplx d1(rng.gaussian(), rng.gaussian());
    for (unsigned q = 0; q < bits; ++q) {
        const uint64_t bit = uint64_t{1} << q;
        const std::string what = "bit " + std::to_string(q);
        std::vector<cplx> vec = start, sca = start;
        {
            SimdGuard g(true);
            kern::apply1q(vec.data(), dim, q, u);
        }
        {
            SimdGuard g(false);
            kern::apply1q(sca.data(), dim, q, u);
        }
        expectClose(vec, sca, "apply1q " + what);
        vec = start;
        sca = start;
        {
            SimdGuard g(true);
            kern::applyDiag1q(vec.data(), dim, q, d0, d1);
        }
        {
            SimdGuard g(false);
            kern::applyDiag1q(sca.data(), dim, q, d0, d1);
        }
        expectClose(vec, sca, "diag1q " + what);
        for (const auto &[lo, hi] : subRanges(dim / 2, rng)) {
            vec = start;
            sca = start;
            {
                SimdGuard g(true);
                kern::ranges::apply1q(vec.data(), lo, hi, bit, u);
            }
            kern::ranges::apply1qScalar(sca.data(), lo, hi, bit, u);
            expectClose(vec, sca, "apply1q range " + what);
        }
        for (const auto &[lo, hi] : subRanges(dim, rng)) {
            vec = start;
            sca = start;
            {
                SimdGuard g(true);
                kern::ranges::diag1q(vec.data(), lo, hi, bit, d0, d1);
            }
            kern::ranges::diag1qScalar(sca.data(), lo, hi, bit, d0, d1);
            expectClose(vec, sca, "diag1q range " + what);
        }
    }
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

TEST(Validation, SwapOperandsAreValidatedToo)
{
    Statevector sv(3);
    Circuit c(3);
    c.swap(0, 2);
    c.gates()[0].q0 = 7;
    EXPECT_THROW(sv.applyCircuit(c), SimError);

    std::optional<SimIssue> issue = validateCircuit(c, 3);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->gateIndex, 0);
}
