/**
 * @file
 * Single-seed reproducibility: every stochastic path in the library
 * (shot sampling, SPSA, the yield Monte-Carlo) must replay
 * bit-for-bit from one master seed. The core check runs a full
 * sampled VQE twice through the qcc::Experiment facade and diffs the
 * serialized traces — the machine-readable record is the
 * reproducibility contract, so it is what gets compared.
 */

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "arch/grid.hh"
#include "arch/yield.hh"
#include "common/logging.hh"
#include "common/optimize.hh"
#include "common/rng.hh"

using namespace qcc;

namespace {

ExperimentSpec
sampledH2()
{
    setLogLevel(LogLevel::Quiet);
    return {.molecule = "H2",
            .bond = 0.74,
            .mode = "sampled",
            .optimizer = "spsa",
            .shots = 2048,
            .spsaIter = 40,
            .reference = false};
}

} // namespace

TEST(Determinism, SampledVqeTraceReplaysExactly)
{
    // Run the whole stochastic pipeline twice; the serialized traces
    // (every energy, variance, shot count, in order) must be equal
    // byte for byte.
    ExperimentResult r1 = Experiment(sampledH2()).run();
    ExperimentResult r2 = Experiment(sampledH2()).run();

    EXPECT_EQ(r1.energy(), r2.energy());
    EXPECT_EQ(r1.vqe.params, r2.vqe.params);
    EXPECT_EQ(r1.shots, r2.shots);
    EXPECT_EQ(r1.trace.json(), r2.trace.json());
    ASSERT_FALSE(r1.trace.points.empty());
}

TEST(Determinism, DifferentSeedsProduceDifferentTraces)
{
    ExperimentSpec s = sampledH2();
    s.seed = globalSeed();
    ExperimentResult r1 = Experiment(s).run();
    s.seed = globalSeed() + 1;
    ExperimentResult r2 = Experiment(s).run();
    EXPECT_NE(r1.trace.json(), r2.trace.json());
}

TEST(Determinism, GradientDescentModeTraceReplaysExactly)
{
    ExperimentSpec s = sampledH2();
    s.optimizer = "gd";
    s.maxIter = 8;
    ExperimentResult r1 = Experiment(s).run();
    ExperimentResult r2 = Experiment(s).run();
    EXPECT_EQ(r1.trace.json(), r2.trace.json());
}

TEST(Determinism, SpecReplayReproducesRun)
{
    // The resolved spec a result carries is the replay recipe: a
    // second experiment built from its JSON round-trip must replay
    // the run bit-for-bit.
    ExperimentResult r1 = Experiment(sampledH2()).run();
    ExperimentSpec replay =
        ExperimentSpec::fromJson(r1.spec.json());
    ExperimentResult r2 = Experiment(replay).run();
    EXPECT_EQ(r1.energy(), r2.energy());
    EXPECT_EQ(r1.trace.json(), r2.trace.json());
}

TEST(Determinism, SpsaReproducibleFromOptionsSeed)
{
    auto rosenbrock = [](const std::vector<double> &x) {
        double s = 0.0;
        for (size_t i = 0; i + 1 < x.size(); ++i)
            s += 100.0 * (x[i + 1] - x[i] * x[i]) *
                     (x[i + 1] - x[i] * x[i]) +
                 (1.0 - x[i]) * (1.0 - x[i]);
        return s;
    };
    SpsaOptions so;
    so.maxIter = 50;
    so.seed = deriveSeed(99);
    OptimizeResult a = spsa(rosenbrock, {0.0, 0.0}, so);
    OptimizeResult b = spsa(rosenbrock, {0.0, 0.0}, so);
    EXPECT_EQ(a.fun, b.fun);
    EXPECT_EQ(a.x, b.x);
}

TEST(Determinism, YieldMonteCarloReproducibleFromDerivedSeed)
{
    CouplingGraph g = makeGrid17Q();
    auto freq = allocateFrequencies(g);
    Rng r1(deriveSeed(77)), r2(deriveSeed(77));
    double y1 = simulateYield(g, freq, 0.04, 2000, r1);
    double y2 = simulateYield(g, freq, 0.04, 2000, r2);
    EXPECT_EQ(y1, y2);
}

TEST(Determinism, DerivedStreamsAreStableAndDistinct)
{
    // deriveStream is a pure function: same inputs, same stream;
    // neighboring streams decorrelate (different values).
    EXPECT_EQ(deriveStream(2021, 5), deriveStream(2021, 5));
    EXPECT_NE(deriveStream(2021, 5), deriveStream(2021, 6));
    EXPECT_NE(deriveStream(2021, 5), deriveStream(2022, 5));
    // deriveSeed anchors at the process-wide master seed.
    EXPECT_EQ(deriveSeed(5), deriveStream(globalSeed(), 5));
}

TEST(Determinism, TraceJsonCarriesRunMetadata)
{
    ExperimentResult r = Experiment(sampledH2()).run();
    const std::string doc = r.trace.json();
    EXPECT_NE(doc.find("\"mode\": \"sampled\""), std::string::npos);
    EXPECT_NE(doc.find("\"optimizer\": \"spsa\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"points\""), std::string::npos);
    EXPECT_NE(doc.find("\"variance\""), std::string::npos);
    EXPECT_NE(doc.find("\"shots\""), std::string::npos);
}
