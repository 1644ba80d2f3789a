/**
 * @file
 * Golden tests for the Trotterized time-evolution workload and the
 * simulation-free resource estimator: pinned fidelity of the
 * product-formula circuits against the dense exp(-iHt) reference for
 * catalog molecules, build-structure invariants, estimator counts
 * against a direct compile, and Experiment-facade round-trips for
 * the "evolve" and "estimate" kinds.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "chem/molecules.hh"
#include "estimate/estimate.hh"
#include "evolve/trotter.hh"
#include "ferm/hamiltonian.hh"
#include "vqe/vqe.hh"

using namespace qcc;

namespace {

const BenchmarkMolecule &
catalogByName(const std::string &name)
{
    for (const auto &entry : benchmarkMolecules())
        if (entry.name == name)
            return entry;
    throw std::runtime_error("not in catalog: " + name);
}

MolecularProblem
problemFor(const std::string &name)
{
    const BenchmarkMolecule &entry = catalogByName(name);
    return buildMolecularProblem(entry, entry.equilibriumBond);
}

double
trotterFidelity(const MolecularProblem &prob, double t, int steps,
                int order)
{
    const uint64_t hf =
        hartreeFockMask(prob.nSpatial, prob.nElectrons);
    const TrotterBuild tb =
        buildTrotterAnsatz(prob.hamiltonian, hf, steps, order);
    const Statevector psi =
        prepareAnsatzState(tb.ansatz, {t / steps});
    const Statevector exact =
        exactEvolvedState(prob.hamiltonian, prob.nQubits, hf, t);
    return stateFidelity(exact, psi);
}

} // namespace

TEST(Evolve, H2TrotterMatchesDenseExponentialGolden)
{
    const MolecularProblem prob = problemFor("H2");
    // The acceptance pin: a small-step second-order formula already
    // reproduces exp(-iHt)|HF> to better than 1e-6 infidelity.
    EXPECT_GE(trotterFidelity(prob, 1.0, 8, 2), 1.0 - 1e-6);
    EXPECT_GE(trotterFidelity(prob, 1.0, 16, 2), 1.0 - 1e-7);
    // First order converges too, one order slower.
    EXPECT_GE(trotterFidelity(prob, 1.0, 16, 1), 1.0 - 1e-4);
}

TEST(Evolve, SecondOrderBeatsFirstOrderAtEqualSteps)
{
    const MolecularProblem prob = problemFor("H2");
    for (int steps : {1, 2, 4, 8}) {
        const double f1 = trotterFidelity(prob, 1.0, steps, 1);
        const double f2 = trotterFidelity(prob, 1.0, steps, 2);
        EXPECT_GT(f2, f1) << "steps=" << steps;
    }
}

TEST(Evolve, TrotterErrorShrinksWithStepCount)
{
    const MolecularProblem prob = problemFor("H2");
    double prevErr = 1.0;
    for (int steps : {1, 2, 4, 8, 16}) {
        const double err =
            1.0 - trotterFidelity(prob, 1.0, steps, 1);
        EXPECT_LT(err, prevErr) << "steps=" << steps;
        prevErr = err;
    }
}

TEST(Evolve, LiHShortTimeGolden)
{
    const MolecularProblem prob = problemFor("LiH");
    EXPECT_GE(trotterFidelity(prob, 0.25, 4, 2), 1.0 - 1e-6);
}

TEST(Evolve, ExactEvolutionConservesNormAndEnergy)
{
    const MolecularProblem prob = problemFor("H2");
    const uint64_t hf =
        hartreeFockMask(prob.nSpatial, prob.nElectrons);
    const Statevector initial(prob.nQubits, hf);
    const double e0 = initial.expectation(prob.hamiltonian);
    for (double t : {0.1, 0.7, 2.3}) {
        const Statevector psi =
            exactEvolvedState(prob.hamiltonian, prob.nQubits, hf, t);
        EXPECT_NEAR(psi.norm(), 1.0, 1e-12) << "t=" << t;
        EXPECT_NEAR(psi.expectation(prob.hamiltonian), e0, 1e-10)
            << "t=" << t;
    }
    // t = 0 is the identity.
    const Statevector same =
        exactEvolvedState(prob.hamiltonian, prob.nQubits, hf, 0.0);
    EXPECT_NEAR(stateFidelity(initial, same), 1.0, 1e-12);
}

TEST(Evolve, TrotterBuildStructure)
{
    const MolecularProblem prob = problemFor("H2");
    const uint64_t hf =
        hartreeFockMask(prob.nSpatial, prob.nElectrons);

    const TrotterBuild o1 =
        buildTrotterAnsatz(prob.hamiltonian, hf, 3, 1);
    EXPECT_EQ(o1.ansatz.nParams, 1u);
    EXPECT_EQ(o1.ansatz.hfMask, hf);
    EXPECT_EQ(o1.steps, 3);
    // Identity terms are global phase: skipped, counted.
    EXPECT_EQ(o1.termsPerStep + o1.identityTerms,
              prob.hamiltonian.numTerms());
    EXPECT_EQ(o1.ansatz.rotations.size(), 3 * o1.termsPerStep);

    // Strang doubles the per-step list (forward + reversed halves).
    const TrotterBuild o2 =
        buildTrotterAnsatz(prob.hamiltonian, hf, 3, 2);
    EXPECT_EQ(o2.termsPerStep, 2 * o1.termsPerStep);
    // ... and halves each coefficient.
    EXPECT_DOUBLE_EQ(o2.ansatz.rotations[0].coeff,
                     o1.ansatz.rotations[0].coeff / 2.0);
    // The reversed half mirrors the forward half.
    const size_t half = o1.termsPerStep;
    for (size_t j = 0; j < half; ++j)
        EXPECT_TRUE(o2.ansatz.rotations[half + j].string ==
                    o2.ansatz.rotations[half - 1 - j].string);

    EXPECT_THROW(buildTrotterAnsatz(prob.hamiltonian, hf, 0, 1),
                 std::invalid_argument);
    EXPECT_THROW(buildTrotterAnsatz(prob.hamiltonian, hf, 1, 3),
                 std::invalid_argument);
}

TEST(Estimate, CountsMatchDirectChainCompile)
{
    const MolecularProblem prob = problemFor("H2");
    const Ansatz ansatz =
        buildUccsd(prob.nSpatial, prob.nElectrons);

    EstimateRequest req;
    req.hamiltonian = &prob.hamiltonian;
    req.program = &ansatz;
    req.shotsPerEstimate = 4096;
    req.iterations = 25;
    const EstimateResult est = estimateResources(req);

    EXPECT_TRUE(est.present);
    EXPECT_EQ(est.qubits, prob.nQubits);
    EXPECT_EQ(est.parameters, ansatz.nParams);
    EXPECT_EQ(est.hamiltonianTerms, prob.hamiltonian.numTerms());
    EXPECT_EQ(est.measurementSettings,
              groupQubitWise(prob.hamiltonian).size());

    const std::vector<double> zeros(ansatz.nParams, 0.0);
    const Circuit chain = cachedChainCircuit(ansatz, zeros, true);
    EXPECT_EQ(est.gates, chain.totalGates());
    EXPECT_EQ(est.cnots, chain.cnotCount());
    EXPECT_EQ(est.depth, chain.depth());
    EXPECT_EQ(est.swaps, 0u);

    EXPECT_EQ(est.shotsPerEstimate, 4096u);
    EXPECT_EQ(est.shotBudget, 4096u * 25u);
}

TEST(Estimate, ShotBudgetArithmetic)
{
    const MolecularProblem prob = problemFor("H2");
    const Ansatz ansatz =
        buildUccsd(prob.nSpatial, prob.nElectrons);
    EstimateRequest req;
    req.hamiltonian = &prob.hamiltonian;
    req.program = &ansatz;
    req.shotsPerEstimate = 100;
    req.iterations = 0; // no optimizer loop: budget is zero
    EXPECT_EQ(estimateResources(req).shotBudget, 0u);
    req.iterations = -3; // clamped, not wrapped
    EXPECT_EQ(estimateResources(req).shotBudget, 0u);
}

TEST(Evolve, ExperimentFacadeEvolveKind)
{
    ExperimentResult r =
        Experiment(ExperimentSpec{.kind = "evolve",
                                  .molecule = "H2",
                                  .evolveTime = 0.5,
                                  .evolveSteps = 4,
                                  .evolveOrder = 2,
                                  .reference = true})
            .run();
    EXPECT_TRUE(r.evolution.present);
    EXPECT_FALSE(r.estimate.present);
    EXPECT_DOUBLE_EQ(r.evolution.time, 0.5);
    EXPECT_EQ(r.evolution.steps, 4);
    EXPECT_EQ(r.evolution.order, 2);
    EXPECT_TRUE(r.evolution.haveFidelity);
    EXPECT_GE(r.evolution.fidelity, 1.0 - 1e-6);
    EXPECT_GT(r.evolution.stepGates, 0u);
    // The headline energy is <psi(t)|H|psi(t)>.
    EXPECT_DOUBLE_EQ(r.energy(), r.evolution.finalEnergy);

    // Round-trip: the compact record rehydrates byte-identically.
    ExperimentResult::JsonOptions jo;
    jo.timings = false;
    jo.trace = false;
    const std::string doc = r.json(jo);
    ExperimentResult back;
    ASSERT_TRUE(ExperimentResult::fromJsonDom(JsonValue::parse(doc),
                                              back));
    EXPECT_EQ(back.json(jo), doc);
    EXPECT_DOUBLE_EQ(back.evolution.fidelity, r.evolution.fidelity);
}

TEST(Estimate, ExperimentFacadeEstimateKind)
{
    ExperimentResult r =
        Experiment(ExperimentSpec{.kind = "estimate",
                                  .molecule = "H2",
                                  .shots = 2048,
                                  .maxIter = 30})
            .run();
    EXPECT_TRUE(r.estimate.present);
    EXPECT_FALSE(r.evolution.present);
    EXPECT_EQ(r.estimate.qubits, 4u);
    EXPECT_GT(r.estimate.gates, 0u);
    EXPECT_GT(r.estimate.cnots, 0u);
    EXPECT_EQ(r.estimate.shotsPerEstimate, 2048u);
    EXPECT_EQ(r.estimate.shotBudget, 2048u * 30u);
    // Simulation-free: no VQE loop ran, no shots were spent.
    EXPECT_EQ(r.shots, 0u);
    EXPECT_EQ(r.vqe.evals, 0);
    EXPECT_DOUBLE_EQ(r.energy(), r.hartreeFock);

    ExperimentResult::JsonOptions jo;
    jo.timings = false;
    jo.trace = false;
    const std::string doc = r.json(jo);
    ExperimentResult back;
    ASSERT_TRUE(ExperimentResult::fromJsonDom(JsonValue::parse(doc),
                                              back));
    EXPECT_EQ(back.json(jo), doc);
}

TEST(Estimate, TrotterProgramSelectedByEvolveSteps)
{
    // evolve_steps >= 1 costs the Trotter program instead of UCCSD.
    ExperimentResult r =
        Experiment(ExperimentSpec{.kind = "estimate",
                                  .molecule = "H2",
                                  .evolveTime = 1.0,
                                  .evolveSteps = 2,
                                  .evolveOrder = 2})
            .run();
    EXPECT_TRUE(r.estimate.present);
    EXPECT_EQ(r.estimate.parameters, 1u); // one dt parameter
    EXPECT_EQ(r.fullParams, 1u);
}

TEST(Evolve, SpecValidationRejectsBadEvolveFields)
{
    ExperimentSpec bad;
    bad.kind = "evolve";
    bad.molecule = "H2";
    EXPECT_THROW(Experiment e(bad), SpecError); // steps/time missing

    bad.evolveSteps = 2;
    bad.evolveTime = 1.0;
    bad.evolveOrder = 3;
    EXPECT_THROW(Experiment e(bad), SpecError);

    bad.evolveOrder = 2;
    Experiment ok(bad); // now valid
    EXPECT_EQ(ok.spec().kind, "evolve");

    ExperimentSpec vqeSpec;
    vqeSpec.evolveSteps = 2; // evolve fields on a vqe spec
    EXPECT_THROW(Experiment e(vqeSpec), SpecError);

    ExperimentSpec unknownKind;
    unknownKind.kind = "nope";
    EXPECT_THROW(Experiment e(unknownKind), RegistryError);
}
