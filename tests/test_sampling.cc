/**
 * @file
 * Shot-sampling backend tests: statistical convergence of sampled
 * <H> to the analytic expectation, seeded reproducibility, shot
 * allocation policy, exactness on deterministic distributions, the
 * measurement-basis rotation helpers, and the noisy Pauli-frame
 * sampling path.
 */

#include <bit>
#include <cmath>
#include <numeric>
#include <gtest/gtest.h>

#include "ansatz/uccsd.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "ferm/hamiltonian.hh"
#include "pauli/grouping.hh"
#include "sim/sampling.hh"
#include "vqe_test_util.hh"
#include "vqe/vqe.hh"

using namespace qcc;

namespace {

struct H2Fixture
{
    MolecularProblem prob;
    Ansatz ansatz;
    VqeResult converged;
};

const H2Fixture &
h2()
{
    static const H2Fixture fix = [] {
        setLogLevel(LogLevel::Quiet);
        MolecularProblem prob =
            buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
        Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
        VqeResult res = qcc_test::minimizeIdeal(prob.hamiltonian, a);
        return H2Fixture{std::move(prob), std::move(a), res};
    }();
    return fix;
}

StatevectorBackend
preparedH2()
{
    StatevectorBackend b(h2().ansatz.nQubits);
    b.applyAnsatz(h2().ansatz, h2().converged.params);
    return b;
}

} // namespace

TEST(Sampling, ConvergesToAnalyticAsShotsGrow)
{
    StatevectorBackend b = preparedH2();
    const double analytic =
        b.expectation(h2().prob.hamiltonian);

    double lastErr = 0.0;
    for (uint64_t shots : {uint64_t{256}, uint64_t{65536}}) {
        SamplingOptions so;
        so.shots = shots;
        SamplingEngine engine(h2().prob.hamiltonian, so);
        Rng rng(deriveSeed(101));
        SampledEnergy s = engine.measure(b, rng);
        const double err = std::fabs(s.energy - analytic);
        // Statistical tolerance: a 6-sigma band from the engine's
        // own variance estimate (false-failure odds ~1e-9).
        EXPECT_LE(err, 6.0 * std::sqrt(s.variance) + 1e-12)
            << shots << " shots";
        EXPECT_GE(s.shots, shots);
        lastErr = err;
    }
    // At 64k+ shots the estimate is tight in absolute terms too.
    EXPECT_LT(lastErr, 5e-3);
}

TEST(Sampling, VarianceShrinksWithBudget)
{
    StatevectorBackend b = preparedH2();
    auto varianceAt = [&](uint64_t shots) {
        SamplingOptions so;
        so.shots = shots;
        SamplingEngine engine(h2().prob.hamiltonian, so);
        Rng rng(deriveSeed(7));
        return engine.measure(b, rng).variance;
    };
    // 64x the shots -> roughly 64x less estimator variance; allow a
    // wide statistical band around the exact 1/N law.
    const double v1 = varianceAt(1024);
    const double v2 = varianceAt(65536);
    EXPECT_GT(v1, 10.0 * v2);
}

TEST(Sampling, DeterministicGivenSeed)
{
    StatevectorBackend b = preparedH2();
    SamplingEngine engine(h2().prob.hamiltonian, {});
    Rng r1(42), r2(42), r3(43);
    SampledEnergy a = engine.measure(b, r1);
    SampledEnergy c = engine.measure(b, r2);
    SampledEnergy d = engine.measure(b, r3);
    EXPECT_EQ(a.energy, c.energy);
    EXPECT_EQ(a.variance, c.variance);
    EXPECT_EQ(a.shots, c.shots);
    EXPECT_NE(a.energy, d.energy);
}

TEST(Sampling, IdentityTermsAreExactAndFree)
{
    PauliSum h(2);
    h.add(1.25, PauliString(2)); // identity only
    SamplingEngine engine(h, {});
    StatevectorBackend b(2);
    b.prepare(0);
    Rng rng(1);
    SampledEnergy s = engine.measure(b, rng);
    EXPECT_EQ(s.energy, 1.25);
    EXPECT_EQ(s.variance, 0.0);
    EXPECT_EQ(s.shots, uint64_t{0});
    EXPECT_EQ(engine.numGroups(), size_t{0});
    EXPECT_EQ(engine.constantOffset(), 1.25);
}

TEST(Sampling, DiagonalOnBasisStateIsExact)
{
    // |10>: <Z1 Z0> = -1 with zero variance — the distribution is a
    // point mass, so sampling is exact at any budget.
    PauliSum h(2);
    h.add(0.7, PauliString::fromString("ZZ"));
    SamplingOptions so;
    so.shots = 64;
    SamplingEngine engine(h, so);
    StatevectorBackend b(2);
    b.prepare(0b10);
    Rng rng(5);
    SampledEnergy s = engine.measure(b, rng);
    EXPECT_DOUBLE_EQ(s.energy, -0.7);
    EXPECT_EQ(s.variance, 0.0);
}

TEST(Sampling, ProportionalAllocationFollowsWeight)
{
    // Two QWC families with very different weights: the XX family
    // (weight 9) must receive far more shots than the ZI family
    // (weight 1).
    PauliSum h(2);
    h.add(9.0, PauliString::fromString("XX"));
    h.add(1.0, PauliString::fromString("ZI"));
    SamplingOptions so;
    so.shots = 1000;
    SamplingEngine engine(h, so);
    ASSERT_EQ(engine.numGroups(), size_t{2});
    const auto &alloc = engine.shotAllocation();
    const uint64_t total =
        std::accumulate(alloc.begin(), alloc.end(), uint64_t{0});
    EXPECT_GE(total, so.shots);
    const uint64_t hi = std::max(alloc[0], alloc[1]);
    const uint64_t lo = std::min(alloc[0], alloc[1]);
    EXPECT_GE(hi, 5 * lo);

    // A family whose weighted share rounds to nothing keeps the
    // engine's floor of 16 shots.
    PauliSum skewed(2);
    skewed.add(9.0, PauliString::fromString("XX"));
    skewed.add(1e-4, PauliString::fromString("ZI"));
    SamplingEngine floored(skewed, so);
    ASSERT_EQ(floored.numGroups(), size_t{2});
    EXPECT_EQ(std::min(floored.shotAllocation()[0],
                       floored.shotAllocation()[1]),
              uint64_t{16});
}

TEST(Sampling, GroupedFamiliesCoverEveryTerm)
{
    SamplingEngine engine(h2().prob.hamiltonian, {});
    // H2 groups into a handful of QWC families — far fewer
    // measurement settings than terms (the Section VIII-A economy).
    EXPECT_GT(engine.numGroups(), size_t{1});
    EXPECT_LT(engine.numGroups(),
              h2().prob.hamiltonian.numTerms());
}

TEST(Sampling, BasisProbabilitiesAreADistribution)
{
    StatevectorBackend b = preparedH2();
    SamplingEngine engine(h2().prob.hamiltonian, {});
    PauliString basis = PauliString::fromString("XYZI");
    auto probs =
        b.statevector()->basisProbabilities(basisChangeOps(basis));
    ASSERT_EQ(probs.size(), size_t{16});
    double sum = 0.0;
    for (double p : probs) {
        EXPECT_GE(p, 0.0);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Sampling, RotatedProbabilitiesReproduceExpectation)
{
    // For any QWC family basis B, <B> must equal the Z-string
    // expectation sum_b probs[b] * (-1)^{|b & support(B)|} of the
    // rotated distribution — the identity the whole sampling path
    // rests on, checked for X and Y rotations.
    StatevectorBackend b = preparedH2();
    for (const char *s : {"IIXX", "IYYI", "ZZII", "XYXY"}) {
        PauliString basis = PauliString::fromString(s);
        PauliSum one(basis.numQubits());
        one.add(1.0, basis);
        const double analytic = b.expectation(one);
        auto probs = b.statevector()->basisProbabilities(
            basisChangeOps(basis));
        double viaProbs = 0.0;
        const uint64_t support = basis.supportMask();
        for (size_t i = 0; i < probs.size(); ++i)
            viaProbs += (std::popcount(uint64_t(i) & support) & 1)
                            ? -probs[i]
                            : probs[i];
        EXPECT_NEAR(viaProbs, analytic, 1e-10) << s;
    }
}

TEST(Sampling, BasisChangeCircuitMatchesMatrixRotations)
{
    // The gate-level measurement circuit (Sdg/H) and the fused
    // matrix rotations must produce the same outcome distribution.
    StatevectorBackend b = preparedH2();
    PauliString basis = PauliString::fromString("XYYX");
    auto viaMatrix = b.statevector()->basisProbabilities(
        basisChangeOps(basis));

    Statevector sv = *b.statevector();
    sv.applyCircuit(basisChangeCircuit(basis));
    auto viaCircuit = sv.basisProbabilities({});
    ASSERT_EQ(viaMatrix.size(), viaCircuit.size());
    for (size_t i = 0; i < viaMatrix.size(); ++i)
        EXPECT_NEAR(viaMatrix[i], viaCircuit[i], 1e-12) << i;
}

TEST(Sampling, PauliFrameBackendMatchesAnalytic)
{
    // Noisy backend: the sampled estimate must track the Pauli
    // frame's own expectation, not the noiseless one.
    NoiseModel noise;
    noise.cnotDepolarizing = 1e-2;
    PauliFrameBackend b(h2().ansatz.nQubits, noise);
    b.applyAnsatz(h2().ansatz, h2().converged.params);
    const double analytic = b.expectation(h2().prob.hamiltonian);

    SamplingOptions so;
    so.shots = 65536;
    SamplingEngine engine(h2().prob.hamiltonian, so);
    Rng rng(deriveSeed(23));
    SampledEnergy s = engine.measure(b, rng);
    EXPECT_LE(std::fabs(s.energy - analytic),
              6.0 * std::sqrt(s.variance) + 1e-12);
}

TEST(Sampling, WidthMismatchFatal)
{
    PauliSum h(2);
    h.add(1.0, PauliString::fromString("ZZ"));
    SamplingEngine engine(h, {});
    StatevectorBackend b(3);
    Rng rng(1);
    EXPECT_DEATH(engine.measure(b, rng), "width");
}
