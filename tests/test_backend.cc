/**
 * @file
 * Tests for the pluggable SimBackend interface: statevector and
 * density-matrix backends agree in the noiseless limit, the noisy
 * backend reproduces the chain-synthesized noisy energies, and the
 * VQE driver runs unmodified against either state model (strategy
 * injection over statevectorModel / densityMatrixModel).
 */

#include <cmath>
#include <gtest/gtest.h>

#include "ansatz/uccsd.hh"
#include "chem/molecules.hh"
#include "common/rng.hh"
#include "ferm/hamiltonian.hh"
#include "sim/backend.hh"
#include "sim/lanczos.hh"
#include "vqe/driver.hh"
#include "vqe/estimation.hh"
#include "vqe/expectation_engine.hh"
#include "vqe/optimizers.hh"
#include "vqe/vqe.hh"

using namespace qcc;

namespace {

const MolecularProblem &
h2Problem()
{
    static MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    return prob;
}

std::vector<double>
randomParams(unsigned n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> p(n);
    for (auto &v : p)
        v = rng.uniform(-0.3, 0.3);
    return p;
}

/** Minimize through a caller-chosen state model (analytic readout). */
VqeResult
minimizeOn(StateModel model, const PauliSum &h, const Ansatz &a,
           VqeDriverOptions opts = {})
{
    VqeDriver driver(h, a, opts,
                     std::make_unique<AnalyticEstimation>(
                         h, std::move(model), "backend-test"));
    return driver.run();
}

} // namespace

TEST(Backend, StatevectorBackendMatchesDirectSimulator)
{
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    auto params = randomParams(a.nParams, 5);

    StatevectorBackend be(a.nQubits);
    be.applyAnsatz(a, params);
    Statevector direct = prepareAnsatzState(a, params);

    ASSERT_NE(be.statevector(), nullptr);
    for (size_t i = 0; i < direct.dim(); ++i)
        EXPECT_NEAR(std::abs(be.state().amplitudes()[i] -
                             direct.amplitudes()[i]),
                    0.0, 1e-12);
    EXPECT_NEAR(be.expectation(prob.hamiltonian),
                direct.expectation(prob.hamiltonian), 1e-12);
}

TEST(Backend, PrepareResetsState)
{
    StatevectorBackend be(3);
    Circuit c(3);
    c.h(0);
    c.cnot(0, 2);
    be.state().applyCircuit(c);
    be.prepare(0b101);
    EXPECT_NEAR(std::abs(be.state().amplitudes()[0b101]), 1.0, 1e-14);

    DensityMatrixBackend dm(2);
    Circuit c2(2);
    c2.h(1);
    dm.state().applyCircuit(c2);
    dm.prepare(0b10);
    EXPECT_NEAR(std::abs(dm.state().element(0b10, 0b10) - 1.0), 0.0,
                1e-14);
    EXPECT_NEAR(dm.state().trace(), 1.0, 1e-12);
}

TEST(Backend, NoiselessBackendsAgree)
{
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    auto params = randomParams(a.nParams, 9);

    StatevectorBackend ideal(a.nQubits);
    DensityMatrixBackend pure(a.nQubits); // default-noiseless
    double e1 = ansatzEnergy(ideal, prob.hamiltonian, a, params);
    double e2 = ansatzEnergy(pure, prob.hamiltonian, a, params);
    EXPECT_NEAR(e1, e2, 1e-9);
}

TEST(Backend, DensityMatrixPauliRotationMatchesStatevector)
{
    // Exact rho -> U rho U+ agrees with the pure-state rotation on
    // every Pauli expectation.
    Rng rng(31);
    const unsigned n = 3;
    for (int rep = 0; rep < 10; ++rep) {
        PauliString p(n, rng.index(1ull << n), rng.index(1ull << n));
        const double theta = rng.uniform(-2.0, 2.0);

        StatevectorBackend sv(n);
        DensityMatrixBackend dm(n);
        uint64_t basis = rng.index(1ull << n);
        sv.prepare(basis);
        dm.prepare(basis);
        sv.applyPauliRotation(theta, p);
        dm.applyPauliRotation(theta, p);

        for (int probe = 0; probe < 6; ++probe) {
            PauliString obs(n, rng.index(1ull << n),
                            rng.index(1ull << n));
            PauliSum one(n);
            one.add(1.0, obs);
            EXPECT_NEAR(sv.expectation(one), dm.expectation(one), 1e-11)
                << "rot " << p.str() << " obs " << obs.str();
        }
    }
}

TEST(Backend, NoisyBackendChargesCnotNoise)
{
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    auto params = randomParams(a.nParams, 13);

    double clean = ansatzEnergy(prob.hamiltonian, a, params);
    NoiseModel nm;
    nm.cnotDepolarizing = 1e-3;
    DensityMatrixBackend noisy(a.nQubits, nm);
    double e = ansatzEnergy(noisy, prob.hamiltonian, a, params);
    EXPECT_GT(e, clean);
    // And matches the long-standing noisy energy entry point.
    EXPECT_NEAR(e, ansatzEnergyNoisy(prob.hamiltonian, a, params, nm),
                1e-12);
}

TEST(Backend, EngineFallsBackToBackendExpectation)
{
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    auto params = randomParams(a.nParams, 17);

    DensityMatrixBackend dm(a.nQubits);
    dm.applyAnsatz(a, params);
    ExpectationEngine engine(prob.hamiltonian);
    EXPECT_NEAR(engine.energy(dm), dm.expectation(prob.hamiltonian),
                1e-12);
}

TEST(Backend, VqeRunsAgainstEitherBackend)
{
    // The integration check of the interface: the same driver, ansatz
    // and Hamiltonian reach the H2 ground state on the ideal
    // statevector backend and on the (noiseless) density-matrix
    // backend, and a noisy density-matrix run lands above both.
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    double exact = lanczosGroundEnergy(prob.hamiltonian);

    VqeResult rIdeal =
        minimizeOn(statevectorModel(a.nQubits), prob.hamiltonian, a);
    EXPECT_NEAR(rIdeal.energy, exact, 1e-6);
    EXPECT_TRUE(rIdeal.converged);

    VqeResult rPure = minimizeOn(
        densityMatrixModel(a.nQubits, {}), prob.hamiltonian, a);
    EXPECT_NEAR(rPure.energy, exact, 1e-6);

    NoiseModel nm;
    nm.cnotDepolarizing = 1e-3;
    VqeDriverOptions o;
    o.optimizer = std::make_shared<SpsaVqeOptimizer>();
    o.spsaIter = 120;
    VqeResult rNoisy = minimizeOn(densityMatrixModel(a.nQubits, nm),
                                  prob.hamiltonian, a, o);
    EXPECT_GT(rNoisy.energy, exact - 1e-9);
    EXPECT_NEAR(rNoisy.energy, exact, 0.05);
}
