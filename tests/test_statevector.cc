/**
 * @file
 * Unit tests for the statevector simulator: gate kernels against
 * known algebra, the direct Pauli-rotation kernel against its gate
 * decomposition, and expectation values.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "pauli/pauli_sum.hh"
#include "sim/statevector.hh"

using namespace qcc;

namespace {

Statevector
randomState(unsigned n, uint64_t seed)
{
    Rng rng(seed);
    Statevector sv(n);
    for (auto &a : sv.amplitudes())
        a = cplx(rng.gaussian(), rng.gaussian());
    sv.normalize();
    return sv;
}

/** <psi|P|psi> for one string, as a one-term Pauli sum. */
double
stringExpectation(const Statevector &sv, const char *p)
{
    const PauliString s = PauliString::fromString(p);
    PauliSum one(s.numQubits());
    one.add(1.0, s);
    return sv.expectation(one);
}

} // namespace

TEST(Statevector, InitialBasisState)
{
    Statevector sv(3, 0b101);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0b101]), 1.0, 1e-14);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-14);
}

TEST(Statevector, XFlipsBit)
{
    Statevector sv(2);
    sv.applyGate({GateKind::X, 1});
    EXPECT_NEAR(std::abs(sv.amplitudes()[0b10]), 1.0, 1e-14);
}

TEST(Statevector, HadamardSuperposition)
{
    Statevector sv(1);
    sv.applyGate({GateKind::H, 0});
    EXPECT_NEAR(sv.amplitudes()[0].real(), 1 / std::sqrt(2), 1e-14);
    EXPECT_NEAR(sv.amplitudes()[1].real(), 1 / std::sqrt(2), 1e-14);
}

TEST(Statevector, CnotEntangles)
{
    Statevector sv(2);
    sv.applyGate({GateKind::H, 0});
    sv.applyGate({GateKind::CNOT, 0, 1});
    EXPECT_NEAR(std::abs(sv.amplitudes()[0b00]), 1 / std::sqrt(2),
                1e-14);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0b11]), 1 / std::sqrt(2),
                1e-14);
}

TEST(Statevector, SwapGate)
{
    Statevector sv(2, 0b01);
    sv.applyGate({GateKind::SWAP, 0, 1});
    EXPECT_NEAR(std::abs(sv.amplitudes()[0b10]), 1.0, 1e-14);
}

TEST(Statevector, PauliRotationMatchesGateDecomposition)
{
    // exp(i t P) == basis+CNOT-chain circuit, on random states.
    const std::vector<std::string> strings = {"ZZ", "XIYZ", "YXY",
                                              "XYZI", "ZIIZ", "Y"};
    for (const auto &s : strings) {
        PauliString p = PauliString::fromString(s);
        const unsigned n = p.numQubits();
        const double theta = 0.731;

        Statevector a = randomState(n, 42 + n);
        Statevector b = a;

        a.applyPauliRotation(theta, p);

        // Decomposition: V+ RZ(-2t) V with H / RX basis changes.
        Circuit c(n);
        auto sup = p.support();
        for (unsigned q : sup) {
            if (p.op(q) == PauliOp::X)
                c.h(q);
            else if (p.op(q) == PauliOp::Y)
                c.rx(q, M_PI / 2);
        }
        for (size_t i = 0; i + 1 < sup.size(); ++i)
            c.cnot(sup[i], sup[i + 1]);
        c.rz(sup.back(), -2 * theta);
        for (size_t i = sup.size() - 1; i-- > 0;)
            c.cnot(sup[i], sup[i + 1]);
        for (unsigned q : sup) {
            if (p.op(q) == PauliOp::X)
                c.h(q);
            else if (p.op(q) == PauliOp::Y)
                c.rx(q, -M_PI / 2);
        }
        b.applyCircuit(c);

        for (size_t i = 0; i < a.dim(); ++i)
            EXPECT_NEAR(std::abs(a.amplitudes()[i] -
                                 b.amplitudes()[i]),
                        0.0, 1e-12)
                << "string " << s;
    }
}

TEST(Statevector, RotationIdentityString)
{
    // exp(i t I) is a global phase e^{it}.
    Statevector sv = randomState(2, 9);
    Statevector orig = sv;
    sv.applyPauliRotation(0.4, PauliString(2));
    cplx ratio = sv.amplitudes()[1] / orig.amplitudes()[1];
    EXPECT_NEAR(std::abs(ratio - std::exp(cplx(0, 0.4))), 0.0, 1e-12);
}

TEST(Statevector, RotationPreservesNorm)
{
    Statevector sv = randomState(4, 17);
    sv.applyPauliRotation(1.234, PauliString::fromString("XZYX"));
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, ExpectationOfStabilizer)
{
    // |00> + |11>: <XX> = 1, <ZZ> = 1, <ZI> = 0.
    Statevector sv(2);
    sv.applyGate({GateKind::H, 0});
    sv.applyGate({GateKind::CNOT, 0, 1});
    EXPECT_NEAR(stringExpectation(sv, "XX"), 1.0, 1e-12);
    EXPECT_NEAR(stringExpectation(sv, "ZZ"), 1.0, 1e-12);
    EXPECT_NEAR(stringExpectation(sv, "ZI"), 0.0, 1e-12);
}

TEST(Statevector, ExpectationZSign)
{
    // Our convention: qubit |1> has <Z> = -1.
    Statevector sv(1, 1);
    EXPECT_NEAR(stringExpectation(sv, "Z"), -1.0, 1e-14);
}

TEST(Statevector, SumExpectationMatchesTermSum)
{
    Statevector sv = randomState(3, 23);
    PauliSum h(3);
    h.add(0.5, PauliString::fromString("XYZ"));
    h.add(-1.25, PauliString::fromString("ZZI"));
    h.add(0.75, PauliString(3));

    double direct = sv.expectation(h);
    double bySum = 0.5 * stringExpectation(sv, "XYZ") -
                   1.25 * stringExpectation(sv, "ZZI") + 0.75;
    EXPECT_NEAR(direct, bySum, 1e-12);
}
