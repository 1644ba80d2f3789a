/**
 * @file
 * The noisy simulator, the Pauli-transfer frame (sim/pauli_frame.hh),
 * against the density-matrix reference in sim_reference.hh: energies
 * on the benchmark molecules under every channel combination, QWC
 * family probabilities, exact rotations, the frame's physics (trace,
 * purity, the maximally mixed fixed point, noise pulling an
 * expectation toward zero) and bit identity under a one-lane cap.
 * QCC_THREADS is pinned to 4 before the pool first sizes itself, so
 * the capped and uncapped runs differ on any runner.
 */

#include <cmath>
#include <cstdlib>
#include <gtest/gtest.h>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "compiler/pipeline.hh"
#include "ferm/hamiltonian.hh"
#include "pauli/grouping.hh"
#include "sim/backend.hh"
#include "sim/pauli_frame.hh"
#include "sim_reference.hh"
#include "vqe/gradient.hh"

using namespace qcc;
using qcc_test::DensityMatrix;

namespace {

// Static initialization runs before any test can size the pool.
const bool kLanesPinned = [] {
    setenv("QCC_THREADS", "4", 1);
    unsetenv("QCC_JOB_WIDTH");
    return true;
}();

struct Fixture
{
    MolecularProblem prob;
    Ansatz ansatz;
    std::vector<double> params;
};

/** A benchmark molecule at equilibrium, compressed, at fixed angles. */
Fixture
fixture(const char *name, double compression)
{
    setLogLevel(LogLevel::Quiet);
    const BenchmarkMolecule &m = benchmarkMolecule(name);
    MolecularProblem prob = buildMolecularProblem(m, m.equilibriumBond);
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    if (compression < 1.0)
        a = compressAnsatz(a, prob.hamiltonian, compression).ansatz;
    std::vector<double> params(a.nParams);
    for (size_t i = 0; i < params.size(); ++i)
        params[i] = 0.1 * std::sin(1.0 + 3.7 * double(i));
    return {std::move(prob), std::move(a), std::move(params)};
}

NoiseModel
noise(double p2, double p1)
{
    NoiseModel nm;
    nm.cnotDepolarizing = p2;
    nm.singleQubitDepolarizing = p1;
    return nm;
}

/**
 * No channel, each channel alone and both, at the paper's 1e-4 and
 * at p2 = 2e-2 with p1 = 5e-3.
 */
const NoiseModel kModels[] = {
    noise(0.0, 0.0),  noise(1e-4, 0.0), noise(0.0, 1e-4),
    noise(1e-4, 1e-4), noise(2e-2, 0.0), noise(0.0, 5e-3),
    noise(2e-2, 5e-3)};

/** The chain circuit's state on the per-gate reference. */
DensityMatrix
reference(const Fixture &fix, const NoiseModel &nm)
{
    DensityMatrix rho(fix.ansatz.nQubits);
    rho.applyCircuit(cachedChainCircuit(fix.ansatz, fix.params, true),
                     nm);
    return rho;
}

/** A hand-built ansatz over `strings` (rightmost character qubit 0). */
Ansatz
ansatzOf(unsigned n, std::initializer_list<const char *> strings)
{
    Ansatz a;
    a.nQubits = n;
    for (const char *s : strings)
        a.rotations.push_back({a.nParams++, 1.0,
                               PauliString::fromString(s)});
    return a;
}

} // namespace

TEST(PauliFrame, RotationsMatchTheReference)
{
    // Exact rho -> U rho U+ in the frame against the reference on
    // every Pauli expectation.
    Rng rng(31);
    const unsigned n = 3;
    const uint64_t basis = 0b101;
    PauliFrame frame(n, basis);
    DensityMatrix rho(n, basis);
    for (int rep = 0; rep < 12; ++rep) {
        const PauliString p(n, rng.index(1u << n), rng.index(1u << n));
        const double theta = rng.uniform(-2.0, 2.0);
        frame.applyPauliRotation(theta, p);
        rho.applyPauliRotation(theta, p);
    }
    for (uint64_t x = 0; x < (1u << n); ++x)
        for (uint64_t z = 0; z < (1u << n); ++z) {
            const PauliString q(n, x, z);
            EXPECT_NEAR(frame.expectation(q), rho.expectation(q), 1e-13)
                << q.str();
        }
    EXPECT_NEAR(frame.purity(), 1.0, 1e-13);
}

TEST(PauliFrame, EnergiesMatchTheReference)
{
    for (const char *name : {"H2", "LiH", "NaH"}) {
        for (double compression : {0.3, 0.7, 1.0}) {
            const Fixture fix = fixture(name, compression);
            for (const NoiseModel &nm : kModels) {
                const double ref =
                    reference(fix, nm).expectation(fix.prob.hamiltonian);
                PauliFrameBackend b(fix.ansatz.nQubits, nm);
                b.applyAnsatz(fix.ansatz, fix.params);
                const double e = b.expectation(fix.prob.hamiltonian);
                EXPECT_LE(std::fabs(e - ref), 1e-12 * std::fabs(ref))
                    << name << " @" << compression << " p2 "
                    << nm.cnotDepolarizing << " p1 "
                    << nm.singleQubitDepolarizing << ": " << e << " vs "
                    << ref;
            }
        }
    }
}

TEST(PauliFrame, FamilyProbabilitiesMatchTheReference)
{
    for (const char *name : {"H2", "LiH", "NaH"}) {
        const Fixture fix = fixture(name, 0.3);
        for (const NoiseModel &nm : {kModels[3], kModels[6]}) {
            const DensityMatrix rho = reference(fix, nm);
            PauliFrameBackend b(fix.ansatz.nQubits, nm);
            b.applyAnsatz(fix.ansatz, fix.params);
            for (const MeasurementGroup &g :
                 groupQubitWiseSorted(fix.prob.hamiltonian)) {
                const auto ops = basisChangeOps(g.basis);
                const auto got = b.measurementProbabilities(ops);
                const auto want = rho.basisProbabilities(ops);
                ASSERT_EQ(got.size(), want.size());
                for (size_t i = 0; i < got.size(); ++i)
                    EXPECT_NEAR(got[i], want[i], 1e-13)
                        << name << " family " << g.basis.str() << " "
                        << i;
            }
        }
    }
}

TEST(PauliFrame, TracePreservedUnderNoise)
{
    // The identity coefficient commutes with every rotation and no
    // channel damps it, so the trace stays exactly 1.
    const Fixture fix = fixture("LiH", 0.3);
    PauliFrameBackend b(fix.ansatz.nQubits, kModels[6]);
    b.applyAnsatz(fix.ansatz, fix.params);
    EXPECT_EQ(b.state().trace(), 1.0);
}

TEST(PauliFrame, DepolarizingReducesPurity)
{
    const Fixture fix = fixture("H2", 1.0);
    PauliFrameBackend clean(fix.ansatz.nQubits);
    clean.applyAnsatz(fix.ansatz, fix.params);
    EXPECT_NEAR(clean.state().purity(), 1.0, 1e-13);
    PauliFrameBackend noisy(fix.ansatz.nQubits, kModels[4]);
    noisy.applyAnsatz(fix.ansatz, fix.params);
    EXPECT_LT(noisy.state().purity(), 1.0 - 1e-3);
}

TEST(PauliFrame, FullDepolarizationGivesMaximallyMixed)
{
    // p1 = 3/4 makes the one-qubit channel's factor exactly 0, and the
    // XY chain ends with a basis change on both qubits: I/4 for any
    // angle.
    const Ansatz a = ansatzOf(2, {"XY"});
    PauliFrameBackend b(2, noise(0.0, 0.75));
    b.applyAnsatz(a, {0.7});
    const auto &r = b.state().coefficients();
    EXPECT_EQ(r[0], 1.0);
    for (size_t i = 1; i < r.size(); ++i)
        EXPECT_EQ(r[i], 0.0) << i;
    EXPECT_EQ(b.state().purity(), 0.25);
    for (double p : b.measurementProbabilities({}))
        EXPECT_EQ(p, 0.25);
}

TEST(PauliFrame, MaximallyMixedIsDepolarizingFixedPoint)
{
    // The first chain leaves I/4; the second chain's rotation, CNOTs
    // and channels keep it there.
    const Ansatz a = ansatzOf(2, {"XY", "YX"});
    for (double theta : {0.0, 0.4, -1.3}) {
        PauliFrameBackend b(2, noise(0.3, 0.75));
        b.applyAnsatz(a, {0.7, theta});
        EXPECT_EQ(b.state().purity(), 0.25) << theta;
    }
}

TEST(PauliFrame, NoiseShiftsExpectationTowardZero)
{
    // For a traceless observable, depolarizing noise pulls the
    // expectation toward 0 without flipping it.
    const Fixture fix = fixture("H2", 1.0);
    PauliSum z0(fix.ansatz.nQubits);
    z0.add(1.0, PauliString::single(fix.ansatz.nQubits, 0, PauliOp::Z));
    PauliFrameBackend clean(fix.ansatz.nQubits);
    clean.applyAnsatz(fix.ansatz, fix.params);
    PauliFrameBackend noisy(fix.ansatz.nQubits, noise(0.2, 0.0));
    noisy.applyAnsatz(fix.ansatz, fix.params);
    const double c = clean.expectation(z0), e = noisy.expectation(z0);
    EXPECT_GT(std::fabs(c), 0.5);
    EXPECT_LT(std::fabs(e), std::fabs(c));
    EXPECT_GT(e * c, 0.0);
}

TEST(PauliFrame, OneLaneCapIsBitIdentical)
{
    // NaH is 8 qubits: its sweeps and reductions split into chunks
    // when uncapped.
    const Fixture fix = fixture("NaH", 0.3);
    const NoiseModel nm = kModels[6];
    const auto plan = FramePlan::build(fix.ansatz, nm);
    const auto groups = groupQubitWiseSorted(fix.prob.hamiltonian);
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    auto run = [&] {
        PauliFrameBackend b(fix.ansatz.nQubits, nm);
        b.applyAnsatz(fix.ansatz, fix.params);
        std::vector<double> out = {b.expectation(fix.prob.hamiltonian)};
        for (const MeasurementGroup &g : groups) {
            const auto p =
                b.measurementProbabilities(basisChangeOps(g.basis));
            out.insert(out.end(), p.begin(), p.end());
        }
        const auto grad = engine.gradientNoisy(fix.params, *plan);
        out.insert(out.end(), grad.begin(), grad.end());
        return out;
    };
    const std::vector<double> pooled = run();
    std::vector<double> serial;
    {
        ParallelWidthCap cap(1);
        serial = run();
    }
    EXPECT_EQ(pooled, serial);
}

TEST(PauliFrame, PlanCountsItsSweeps)
{
    // One rotation per non-identity string and at most one damping
    // sweep per segment between two RZs (plus the last).
    const Fixture fix = fixture("LiH", 0.3);
    const auto clean = FramePlan::build(fix.ansatz, {});
    const auto noisy = FramePlan::build(fix.ansatz, kModels[1]);
    size_t rotations = 0;
    for (const PauliRotation &r : fix.ansatz.rotations)
        rotations += !r.string.isIdentity();
    EXPECT_EQ(clean->numRotations(), rotations);
    EXPECT_EQ(clean->sweeps(), rotations);
    EXPECT_EQ(noisy->numRotations(), rotations);
    EXPECT_GT(noisy->numDampings(), 0u);
    EXPECT_LE(noisy->numDampings(), rotations + 1);
    EXPECT_TRUE(noisy->matches(fix.ansatz, kModels[1]));
    EXPECT_FALSE(noisy->matches(fix.ansatz, kModels[3]));
}
