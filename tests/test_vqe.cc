/**
 * @file
 * Unit tests for the VQE layer: exactness on H2, variational
 * bounds, convergence-iteration behaviour under compression, and
 * the noisy (density-matrix) energy path — all through the
 * strategy-injected VqeDriver (the legacy runVqe wrappers are
 * gone).
 */

#include <cmath>
#include <gtest/gtest.h>

#include "ansatz/compression.hh"
#include "chem/molecules.hh"
#include "ferm/hamiltonian.hh"
#include "sim/lanczos.hh"
#include "vqe/optimizers.hh"
#include "vqe_test_util.hh"

using namespace qcc;

namespace {

const MolecularProblem &
h2Problem()
{
    static MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    return prob;
}

using qcc_test::minimizeMode;

} // namespace

TEST(Vqe, ZeroParametersGiveHartreeFock)
{
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    std::vector<double> zeros(a.nParams, 0.0);
    EXPECT_NEAR(ansatzEnergy(prob.hamiltonian, a, zeros),
                prob.hartreeFockEnergy, 1e-8);
}

TEST(Vqe, H2ReachesFciEnergy)
{
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeResult res = minimizeMode("ideal", prob.hamiltonian, a);
    double exact = lanczosGroundEnergy(prob.hamiltonian);
    EXPECT_NEAR(res.energy, exact, 1e-6);
    EXPECT_TRUE(res.converged);
}

TEST(Vqe, VariationalLowerBound)
{
    // VQE can never dip below the exact ground energy.
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    double exact = lanczosGroundEnergy(prob.hamiltonian);
    for (double ratio : {0.34, 0.67, 1.0}) {
        CompressedAnsatz c =
            compressAnsatz(a, prob.hamiltonian, ratio);
        VqeResult res =
            minimizeMode("ideal", prob.hamiltonian, c.ansatz);
        EXPECT_GE(res.energy, exact - 1e-9) << ratio;
    }
}

TEST(Vqe, CompressionSpeedsConvergence)
{
    // Section VI-C's qualitative claim: fewer parameters, fewer
    // energy evaluations to converge (LiH, 30% vs full).
    const auto &entry = benchmarkMolecule("LiH");
    MolecularProblem prob = buildMolecularProblem(entry, 1.6);
    Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
    CompressedAnsatz small =
        compressAnsatz(full, prob.hamiltonian, 0.3);

    VqeResult rFull = minimizeMode("ideal", prob.hamiltonian, full);
    VqeResult rSmall =
        minimizeMode("ideal", prob.hamiltonian, small.ansatz);
    EXPECT_LT(rSmall.evals, rFull.evals);
}

TEST(Vqe, NelderMeadAgreesWithLbfgsOnH2)
{
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeDriverOptions nm;
    nm.optimizer = std::make_shared<NelderMeadVqeOptimizer>();
    nm.maxIter = 2000;
    VqeResult r1 = minimizeMode("ideal", prob.hamiltonian, a, nm);
    VqeResult r2 = minimizeMode("ideal", prob.hamiltonian, a);
    EXPECT_NEAR(r1.energy, r2.energy, 1e-5);
}

TEST(Vqe, NoisyEnergyAboveNoiseless)
{
    // Depolarizing noise mixes toward I/2^n, raising the energy of
    // a converged state above the noiseless optimum.
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeResult clean = minimizeMode("ideal", prob.hamiltonian, a);

    NoiseModel paper = NoiseModel::paperDefault();
    double noisy = ansatzEnergyNoisy(prob.hamiltonian, a,
                                     clean.params, paper);
    EXPECT_GT(noisy, clean.energy);
    // At CNOT error 1e-4 and ~56 CNOTs the shift is small.
    EXPECT_LT(noisy - clean.energy, 0.05);
}

TEST(Vqe, NoisyEnergyGrowsWithErrorRate)
{
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeResult clean = minimizeMode("ideal", prob.hamiltonian, a);

    double prev = clean.energy;
    for (double p : {1e-4, 1e-3, 1e-2}) {
        NoiseModel nm;
        nm.cnotDepolarizing = p;
        double e = ansatzEnergyNoisy(prob.hamiltonian, a,
                                     clean.params, nm);
        EXPECT_GT(e, prev) << p;
        prev = e;
    }
}

TEST(Vqe, NoisyVqeRecoversLandscape)
{
    // SPSA on the noisy H2 objective still lands near the true
    // minimum (Section VI-D's qualitative claim).
    const auto &prob = h2Problem();
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeDriverOptions o;
    o.optimizer = std::make_shared<SpsaVqeOptimizer>();
    o.spsaIter = 150;
    o.noise = NoiseModel::paperDefault();
    VqeResult res = minimizeMode("noisy", prob.hamiltonian, a, o);
    double exact = lanczosGroundEnergy(prob.hamiltonian);
    EXPECT_NEAR(res.energy, exact, 0.02);
}

TEST(Vqe, MismatchedWidthsFatal)
{
    PauliSum h(2);
    h.add(1.0, PauliString::fromString("ZZ"));
    Ansatz a = buildUccsd(2, 2); // 4 qubits
    EXPECT_DEATH(minimizeMode("ideal", h, a), "width mismatch");
}
