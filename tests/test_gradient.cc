/**
 * @file
 * Gradient tests: agreement with central finite differences on every
 * evaluation path (adjoint, ideal statevector, the noisy adjoint in
 * the Pauli-transfer frame, generic backend replay), adjoints against
 * parameter shift on the benchmark molecules and the noisy one
 * against the density-matrix reference's shifted energies,
 * bit-for-bit equality of pooled and serial (one-lane
 * ParallelWidthCap) execution and of the prefix-shared fast paths
 * against full replays, one frame plan per noisy model, the evals
 * accounting, and convergence of the gradient-driven optimizers.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "compiler/pipeline.hh"
#include "ferm/hamiltonian.hh"
#include "obs/metrics.hh"
#include "sim/lanczos.hh"
#include "sim/pauli_frame.hh"
#include "sim_reference.hh"
#include "vqe/driver.hh"
#include "vqe/expectation_engine.hh"
#include "vqe/gradient.hh"
#include "vqe/optimizers.hh"
#include "vqe/vqe.hh"
#include "vqe_test_util.hh"

using namespace qcc;
using qcc_test::finiteDifferenceGradient;

namespace {

struct Fixture
{
    MolecularProblem prob;
    Ansatz ansatz;
};

/** A benchmark molecule at its equilibrium bond (compression < 1
 *  keeps that fraction of the UCCSD parameters). */
Fixture
moleculeFixture(const char *name, double compression = 1.0)
{
    setLogLevel(LogLevel::Quiet);
    const BenchmarkMolecule &m = benchmarkMolecule(name);
    MolecularProblem prob = buildMolecularProblem(m, m.equilibriumBond);
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    if (compression < 1.0)
        a = compressAnsatz(a, prob.hamiltonian, compression).ansatz;
    return Fixture{std::move(prob), std::move(a)};
}

const Fixture &
h2()
{
    static const Fixture fix = [] {
        setLogLevel(LogLevel::Quiet);
        MolecularProblem prob =
            buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
        Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
        return Fixture{std::move(prob), std::move(a)};
    }();
    return fix;
}

const Fixture &
lih()
{
    static const Fixture fix = [] {
        setLogLevel(LogLevel::Quiet);
        MolecularProblem prob =
            buildMolecularProblem(benchmarkMolecule("LiH"), 1.6);
        Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
        return Fixture{std::move(prob), std::move(a)};
    }();
    return fix;
}

std::vector<double>
testParams(unsigned n)
{
    std::vector<double> p(n);
    for (unsigned i = 0; i < n; ++i)
        p[i] = 0.07 * double(i + 1) - 0.15;
    return p;
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    EXPECT_EQ(a.size(), b.size());
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

/** Random n-qubit Hamiltonian and nRot-rotation ansatz. */
std::pair<PauliSum, Ansatz>
randomProblem(unsigned n, unsigned nRot, uint64_t seed)
{
    Rng rng(seed);
    Ansatz a;
    a.nQubits = n;
    a.nParams = nRot;
    a.hfMask = rng.index(uint64_t{1} << n);
    for (unsigned j = 0; j < nRot; ++j)
        a.rotations.push_back(
            {j, 0.6,
             PauliString(n, rng.index(uint64_t{1} << n),
                         rng.index(uint64_t{1} << n))});
    PauliSum h(n);
    for (int t = 0; t < 8; ++t)
        h.add(rng.uniform(-1.0, 1.0),
              PauliString(n, rng.index(uint64_t{1} << n),
                          rng.index(uint64_t{1} << n)));
    return {std::move(h), std::move(a)};
}

/** `fn()` with every pool sweep it starts run inline, in order. */
template <typename Fn>
auto
serially(Fn fn)
{
    ParallelWidthCap cap(1);
    return fn();
}

} // namespace

TEST(Gradient, ShiftMatchesFiniteDifferences_Ideal)
{
    const Fixture &fix = h2();
    ExpectationEngine ee(fix.prob.hamiltonian);
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    auto params = testParams(fix.ansatz.nParams);

    auto g = engine.gradientStatevector(
        params,
        [&](const Statevector &psi, size_t) { return ee.energy(psi); });

    auto make = [&] {
        return std::make_unique<StatevectorBackend>(
            fix.ansatz.nQubits);
    };
    auto energy = [&](SimBackend &b, size_t) { return ee.energy(b); };
    auto fd =
        finiteDifferenceGradient(fix.ansatz, params, make, energy);
    EXPECT_LT(maxAbsDiff(g, fd), 1e-7);
}

TEST(Gradient, ShiftMatchesFiniteDifferences_Noisy)
{
    const Fixture &fix = h2();
    NoiseModel noise;
    noise.cnotDepolarizing = 1e-3;
    noise.singleQubitDepolarizing = 1e-4;
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    auto params = testParams(fix.ansatz.nParams);

    auto g = engine.gradientNoisy(params,
                                  *FramePlan::build(fix.ansatz, noise));

    auto make = [&] {
        return std::make_unique<PauliFrameBackend>(
            fix.ansatz.nQubits, noise);
    };
    auto energy = [&](SimBackend &b, size_t) {
        return b.expectation(fix.prob.hamiltonian);
    };
    auto fd =
        finiteDifferenceGradient(fix.ansatz, params, make, energy);
    EXPECT_LT(maxAbsDiff(g, fd), 1e-7);
}

TEST(Gradient, NoisyAdjointMatchesReferencePairDifference)
{
    // The frame's reverse mode against the density-matrix reference
    // executing both shifted chain circuits of every rotation gate by
    // gate: dE/dphi = E(phi + s) - E(phi - s) at s = pi/4.
    const Fixture fix = moleculeFixture("LiH", 0.3);
    const PauliSum &h = fix.prob.hamiltonian;
    const Ansatz &a = fix.ansatz;
    auto params = testParams(a.nParams);
    ParameterShiftEngine engine(h, a);
    const Ansatz &unrolled = engine.unrolledAnsatz();
    std::vector<double> base(a.rotations.size());
    for (size_t j = 0; j < base.size(); ++j)
        base[j] = params[a.rotations[j].param] * a.rotations[j].coeff;
    NoiseModel both;
    both.cnotDepolarizing = 2e-2;
    both.singleQubitDepolarizing = 5e-3;
    for (const NoiseModel &noise : {NoiseModel::paperDefault(), both}) {
        auto energy = [&](const std::vector<double> &angles) {
            qcc_test::DensityMatrix rho(a.nQubits);
            rho.applyCircuit(cachedChainCircuit(unrolled, angles, true),
                             noise);
            return rho.expectation(h);
        };
        std::vector<double> perRotation;
        for (size_t j = 0; j < a.rotations.size(); ++j) {
            if (a.rotations[j].string.isIdentity())
                continue;
            std::vector<double> up = base, down = base;
            up[j] += 0.78539816339744830961;
            down[j] -= 0.78539816339744830961;
            perRotation.push_back(energy(up) - energy(down));
        }
        std::vector<double> ref(a.nParams, 0.0);
        for (size_t j = 0, i = 0; j < a.rotations.size(); ++j)
            if (!a.rotations[j].string.isIdentity())
                ref[a.rotations[j].param] +=
                    a.rotations[j].coeff * perRotation[i++];
        const auto g =
            engine.gradientNoisy(params, *FramePlan::build(a, noise));
        EXPECT_LT(maxAbsDiff(g, ref), 1e-10)
            << "p2 " << noise.cnotDepolarizing;
    }
}

TEST(Gradient, NoisyAdjointMatchesGenericReplay)
{
    // Reverse mode against literally preparing both shifted states
    // of every rotation in the same frame.
    const Fixture &fix = h2();
    NoiseModel noise = NoiseModel::paperDefault();
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    auto params = testParams(fix.ansatz.nParams);

    auto fast = engine.gradientNoisy(
        params, *FramePlan::build(fix.ansatz, noise));
    auto slow = engine.gradient(
        params,
        [&] {
            return std::make_unique<PauliFrameBackend>(
                fix.ansatz.nQubits, noise);
        },
        [&](SimBackend &b, size_t) {
            return b.expectation(fix.prob.hamiltonian);
        });
    EXPECT_LT(maxAbsDiff(fast, slow), 1e-12);
}

TEST(Gradient, BatchedEqualsSerialBitForBit)
{
    const Fixture &fix = lih();
    ExpectationEngine ee(fix.prob.hamiltonian);
    NoiseModel noise = NoiseModel::paperDefault();
    auto params = testParams(fix.ansatz.nParams);

    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);

    auto est = [&](const Statevector &psi, size_t) {
        return ee.energy(psi);
    };
    EXPECT_EQ(engine.gradientStatevector(params, est), serially([&] {
                  return engine.gradientStatevector(params, est);
              }));
    const auto plan = FramePlan::build(fix.ansatz, noise);
    EXPECT_EQ(engine.gradientNoisy(params, *plan), serially([&] {
                  return engine.gradientNoisy(params, *plan);
              }));


    auto make = [&] {
        return std::make_unique<StatevectorBackend>(
            fix.ansatz.nQubits);
    };
    auto energy = [&](SimBackend &b, size_t) { return ee.energy(b); };
    EXPECT_EQ(engine.gradient(params, make, energy), serially([&] {
                  return engine.gradient(params, make, energy);
              }));
}

TEST(Gradient, BatchedEqualsSerialAtParallelKernelSizes)
{
    // The molecule fixtures are small enough that every kernel sweep
    // runs inline; this synthetic pair trips the chunked parallel
    // paths (16-qubit statevector, 8-qubit density matrix: both
    // 65536-element arrays, past 2x the parallel grain), pinning the
    // bit-for-bit guarantee where chunk scheduling is real. The
    // random off-diagonal terms alone leave both gradients at zero;
    // diagonal terms give them a slope, so nonzero numbers compare.
    auto addDiagonalTerms = [](PauliSum &h, unsigned n) {
        Rng rng(n);
        for (int t = 0; t < 8; ++t)
            h.add(rng.uniform(-1.0, 1.0),
                  PauliString(n, 0, rng.index(uint64_t{1} << n)));
    };
    {
        auto [h, a] = randomProblem(16, 4, 3);
        addDiagonalTerms(h, 16);
        ExpectationEngine ee(h);
        ParameterShiftEngine engine(h, a);
        std::vector<double> p(a.nParams, 0.15);
        auto est = [&](const Statevector &psi, size_t) {
            return ee.energy(psi);
        };
        const auto g = engine.gradientStatevector(p, est);
        EXPECT_GT(maxAbsDiff(g, std::vector<double>(g.size(), 0.0)),
                  1e-2);
        EXPECT_EQ(g, serially([&] {
                      return engine.gradientStatevector(p, est);
                  }));
    }
    {
        auto [h, a] = randomProblem(8, 3, 5);
        addDiagonalTerms(h, 8);
        NoiseModel noise;
        noise.cnotDepolarizing = 1e-3;
        ParameterShiftEngine engine(h, a);
        std::vector<double> p(a.nParams, 0.15);
        const auto plan = FramePlan::build(a, noise);
        const auto g = engine.gradientNoisy(p, *plan);
        EXPECT_GT(maxAbsDiff(g, std::vector<double>(g.size(), 0.0)),
                  1e-2);
        EXPECT_EQ(g, serially([&] {
                      return engine.gradientNoisy(p, *plan);
                  }));
    }
}

TEST(Gradient, AdjointMatchesParameterShift)
{
    // Full UCCSD on three molecules, and BeH2 compressed to 10%:
    // importance-ordered rotations whose parameters each drive
    // several strings, so the chain rule is exercised too.
    const struct
    {
        const char *name;
        double compression;
    } cases[] = {{"LiH", 1.0}, {"NaH", 1.0}, {"HF", 1.0},
                 {"BeH2", 0.1}};
    for (const auto &c : cases) {
        const Fixture fix = moleculeFixture(c.name, c.compression);
        ExpectationEngine ee(fix.prob.hamiltonian);
        ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
        const auto params = testParams(fix.ansatz.nParams);
        const auto shift = engine.gradientStatevector(
            params, [&](const Statevector &psi, size_t) {
                return ee.energy(psi);
            });
        EXPECT_LT(maxAbsDiff(engine.gradientAdjoint(params), shift),
                  1e-10)
            << c.name;
    }
}

TEST(Gradient, AdjointMatchesFiniteDifferencesWithIdentityRotation)
{
    // Identity rotations are global phases the adjoint skips: one
    // shares parameter 0 (which must not change its derivative), one
    // drives a parameter of its own (whose derivative is zero).
    const Fixture &fix = h2();
    Ansatz a = fix.ansatz;
    const PauliString identity(a.nQubits);
    a.rotations.insert(a.rotations.begin() + 1, {0, 0.5, identity});
    a.rotations.push_back({a.nParams, 1.0, identity});
    ++a.nParams;

    ExpectationEngine ee(fix.prob.hamiltonian);
    ParameterShiftEngine engine(fix.prob.hamiltonian, a);
    const auto params = testParams(a.nParams);
    const auto g = engine.gradientAdjoint(params);

    auto make = [&] {
        return std::make_unique<StatevectorBackend>(a.nQubits);
    };
    auto energy = [&](SimBackend &b, size_t) { return ee.energy(b); };
    EXPECT_LT(maxAbsDiff(g, finiteDifferenceGradient(a, params, make,
                                                     energy)),
              1e-7);
    EXPECT_EQ(g.back(), 0.0);
}

TEST(Gradient, AdjointBitIdenticalUnderWidthCap)
{
    // On a multi-core pool the full-state sweeps (H|psi>) split into
    // chunks from 16 qubits and the pair sweeps (rotations, inner
    // products) from 17; a cap of one lane runs the same chunks
    // inline.
    for (unsigned n : {16u, 17u}) {
        auto [h, a] = randomProblem(n, 6, 7);
        // Random off-diagonal terms alone leave the energy flat at
        // this width; diagonal terms anticommuting with about half
        // the rotations give it a slope.
        Rng rng(n);
        for (int t = 0; t < 8; ++t)
            h.add(rng.uniform(-1.0, 1.0),
                  PauliString(n, 0, rng.index(uint64_t{1} << n)));
        ParameterShiftEngine engine(h, a);
        const std::vector<double> p(a.nParams, 0.15);
        const auto wide = engine.gradientAdjoint(p);
        EXPECT_GT(maxAbsDiff(wide, std::vector<double>(p.size(), 0.0)),
                  1e-2)
            << n;
        std::vector<double> capped;
        {
            ParallelWidthCap cap(1);
            capped = engine.gradientAdjoint(p);
        }
        EXPECT_EQ(wide, capped) << n;

        ExpectationEngine ee(h);
        const auto shift = engine.gradientStatevector(
            p, [&](const Statevector &psi, size_t) {
                return ee.energy(psi);
            });
        EXPECT_LT(maxAbsDiff(wide, shift), 1e-10) << n;
    }
}

TEST(Gradient, EvalsCountOnlyEvaluationsThatRan)
{
    const Fixture &fix = h2();
    const PauliSum &h = fix.prob.hamiltonian;

    // Ideal L-BFGS: the adjoint runs no energy evaluation, so evals
    // is exactly the objective calls, one trace point each.
    {
        VqeDriverOptions o;
        VqeDriver driver(
            h, fix.ansatz, o,
            makeEstimationStrategy("ideal",
                                   EstimationConfig{&h, {}, {}, {}}));
        const VqeResult res = driver.run();
        EXPECT_EQ(driver.evaluationsPerGradient(), 0u);
        EXPECT_GT(driver.gradientCount(), 0u);
        EXPECT_EQ(res.evals, int(driver.trace().points.size()));
    }

    // Noisy L-BFGS: the frame's adjoint runs no energy evaluation
    // either.
    {
        VqeDriverOptions o;
        o.maxIter = 6;
        VqeDriver driver(h, fix.ansatz, o,
                         makeEstimationStrategy(
                             "noisy", EstimationConfig{
                                          &h, NoiseModel::paperDefault(),
                                          {}, {}}));
        const VqeResult res = driver.run();
        EXPECT_EQ(driver.evaluationsPerGradient(), 0u);
        EXPECT_GT(driver.gradientCount(), 0u);
        EXPECT_EQ(res.evals, int(driver.trace().points.size()));
    }

    // Sampled gradient descent: every gradient still reads out its
    // 2R shifted states, on top of one energy per iteration and the
    // starting point.
    {
        VqeDriverOptions o;
        o.optimizer = std::make_shared<GradientDescentVqeOptimizer>();
        o.maxIter = 4;
        o.sampling.shots = 512;
        VqeDriver driver(h, fix.ansatz, o,
                         makeEstimationStrategy(
                             "sampled", EstimationConfig{
                                            &h, {}, o.sampling, {}}));
        const VqeResult res = driver.run();
        const size_t twoR =
            ParameterShiftEngine(h, fix.ansatz).numShiftedEvaluations();
        EXPECT_EQ(driver.evaluationsPerGradient(), twoR);
        EXPECT_GT(driver.gradientCount(), 0u);
        EXPECT_EQ(res.evals,
                  1 + res.iterations +
                      int(driver.gradientCount() * twoR));
    }
}

TEST(Gradient, PrefixSharingEqualsFullReplayBitForBit)
{
    const Fixture &fix = h2();
    ExpectationEngine ee(fix.prob.hamiltonian);
    NoiseModel noise = NoiseModel::paperDefault();
    auto params = testParams(fix.ansatz.nParams);

    ParameterShiftEngine shared(fix.prob.hamiltonian, fix.ansatz);
    GradientOptions noSnapshots;
    noSnapshots.maxPrefixBytes = 0; // force replay/streaming paths
    ParameterShiftEngine replay(fix.prob.hamiltonian, fix.ansatz,
                                noSnapshots);

    auto est = [&](const Statevector &psi, size_t) {
        return ee.energy(psi);
    };
    EXPECT_EQ(shared.gradientStatevector(params, est),
              replay.gradientStatevector(params, est));
    const auto plan = FramePlan::build(fix.ansatz, noise);
    EXPECT_EQ(shared.gradientNoisy(params, *plan),
              replay.gradientNoisy(params, *plan));

    // The noisy adjoint under budgets that keep some but not all of
    // its snapshots. Whatever the s bytes of one frame state, the
    // power-of-two ladder holds one budget in [s, 2s), which keeps
    // one snapshot; the rungs above keep more, and the top ones all
    // (LiH@0.3 keeps 23 states of 4 KiB).
    const Fixture lihFix = moleculeFixture("LiH", 0.3);
    const auto lihPlan = FramePlan::build(lihFix.ansatz, noise);
    ASSERT_GE(lihPlan->numRotations(), 4u);
    const auto lihParams = testParams(lihFix.ansatz.nParams);
    const std::vector<double> unbudgeted =
        ParameterShiftEngine(lihFix.prob.hamiltonian, lihFix.ansatz)
            .gradientNoisy(lihParams, *lihPlan);
    for (size_t budget = 1; budget <= size_t{1} << 26; budget *= 2) {
        GradientOptions budgeted;
        budgeted.maxPrefixBytes = budget;
        EXPECT_EQ(ParameterShiftEngine(lihFix.prob.hamiltonian,
                                       lihFix.ansatz, budgeted)
                      .gradientNoisy(lihParams, *lihPlan),
                  unbudgeted)
            << "budget " << budget;
    }
}

TEST(Gradient, SampledGradientSeededAndBatchingInvariant)
{
    const Fixture &fix = h2();
    auto params = testParams(fix.ansatz.nParams);
    VqeDriverOptions o;
    o.sampling.shots = 4096;
    auto sampled = [&](const VqeDriverOptions &opts) {
        return makeEstimationStrategy(
            "sampled",
            EstimationConfig{&fix.prob.hamiltonian, opts.noise,
                             opts.sampling, {}});
    };

    VqeDriver d1(fix.prob.hamiltonian, fix.ansatz, o, sampled(o));
    VqeDriver d2(fix.prob.hamiltonian, fix.ansatz, o, sampled(o));
    VqeDriver d3(fix.prob.hamiltonian, fix.ansatz, o, sampled(o));

    auto g1 = d1.gradient(params);
    auto g2 = d2.gradient(params);
    auto g3 = serially([&] { return d3.gradient(params); });
    EXPECT_EQ(g1, g2); // same seed -> identical draws
    EXPECT_EQ(g1, g3); // scheduling never leaks into the streams

    // A sampled gradient still points the right way.
    ExpectationEngine ee(fix.prob.hamiltonian);
    ParameterShiftEngine exact(fix.prob.hamiltonian, fix.ansatz);
    auto ref = exact.gradientStatevector(
        params,
        [&](const Statevector &psi, size_t) { return ee.energy(psi); });
    EXPECT_LT(maxAbsDiff(g1, ref), 0.5);
}

TEST(Gradient, NoisyModelBuildsOnePlanForEnergyAndGradient)
{
    // The driver's backend, the adjoint and the unrolled twin all
    // run on the model's one plan.
    const Fixture &fix = h2();
    const PauliSum &h = fix.prob.hamiltonian;
    const MetricCounter &plans = metricCounter("sim.frame.plans");
    const MetricCounter &hits = metricCounter("compile.cache.hits");
    const MetricCounter &misses = metricCounter("compile.cache.misses");
    auto strat = makeEstimationStrategy(
        "noisy", EstimationConfig{&h, NoiseModel::paperDefault(), {}, {}});
    ParameterShiftEngine engine(h, fix.ansatz);
    auto params = testParams(fix.ansatz.nParams);
    const uint64_t plans0 = plans.value();
    auto backend = strat->makeBackend();
    backend->applyAnsatz(fix.ansatz, params);
    EXPECT_EQ(plans.value(), plans0 + 1);
    const uint64_t compiles0 = hits.value() + misses.value();
    for (int rep = 0; rep < 3; ++rep) {
        strat->gradient(engine, params, 0, nullptr);
        backend->applyAnsatz(fix.ansatz, params);
    }
    EXPECT_EQ(plans.value(), plans0 + 1);
    // Evaluations read their angles from params: no compile at all.
    EXPECT_EQ(hits.value() + misses.value(), compiles0);
}

TEST(Gradient, ShiftCountMatchesAnsatzStructure)
{
    const Fixture &fix = lih();
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    EXPECT_EQ(engine.numShiftedEvaluations(),
              2 * fix.ansatz.rotations.size());
    EXPECT_EQ(engine.unrolledAnsatz().nParams,
              fix.ansatz.rotations.size());
    EXPECT_EQ(engine.unrolledAnsatz().hfMask, fix.ansatz.hfMask);
}

TEST(Gradient, DescentWithAnalyticGradientsReachesFci)
{
    const Fixture &fix = h2();
    const double exact = lanczosGroundEnergy(fix.prob.hamiltonian);
    const std::shared_ptr<const VqeOptimizer> optimizers[] = {
        std::make_shared<GradientDescentVqeOptimizer>(),
        std::make_shared<LbfgsVqeOptimizer>()};
    for (const auto &optimizer : optimizers) {
        VqeDriverOptions o;
        o.optimizer = optimizer;
        o.maxIter = 300;
        VqeDriver driver(
            fix.prob.hamiltonian, fix.ansatz, o,
            makeEstimationStrategy(
                "ideal",
                EstimationConfig{&fix.prob.hamiltonian, {}, {}, {}}));
        VqeResult res = driver.run();
        EXPECT_NEAR(res.energy, exact, 1e-5) << optimizer->name();
        EXPECT_TRUE(res.converged) << optimizer->name();
        // The driver counted its energy evaluations.
        EXPECT_GT(res.evals, 0);
    }
}

TEST(Gradient, WidthAndCountMismatchesFatal)
{
    const Fixture &fix = h2();
    PauliSum wrong(fix.ansatz.nQubits + 2);
    wrong.add(1.0, PauliString(fix.ansatz.nQubits + 2));
    EXPECT_DEATH(ParameterShiftEngine(wrong, fix.ansatz),
                 "width mismatch");

    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    ExpectationEngine ee(fix.prob.hamiltonian);
    std::vector<double> tooFew(fix.ansatz.nParams - 1, 0.0);
    EXPECT_DEATH(
        engine.gradientStatevector(
            tooFew,
            [&](const Statevector &psi, size_t) {
                return ee.energy(psi);
            }),
        "parameter count");
    EXPECT_DEATH(engine.gradientAdjoint(tooFew), "parameter count");
}
