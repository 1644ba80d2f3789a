/**
 * @file
 * Golden-value regression suite: the chemistry numbers this repo
 * reproduces, pinned as hard-coded constants with explicit
 * tolerances. Hartree-Fock and FCI energies are deterministic
 * functions of the molecule/basis pipeline, so any refactor of the
 * integrals, SCF, active-space, Jordan-Wigner, simulator, or VQE
 * layers that silently shifts the chemistry fails here first. The
 * VQE-level checks run through the qcc::Experiment facade — the
 * same spec-driven path the examples and benches use.
 *
 * References: H2/STO-3G at 0.74 A has RHF = -1.11676 Ha and
 * FCI = -1.13728 Ha (standard textbook values, cf. the paper's
 * Table 1 molecule list); the LiH values pin this repo's 6-qubit
 * (3-orbital active space) problem at 1.6 A. Golden constants were
 * captured from the seeded implementation and agree with the
 * literature digits quoted above. The noisy-sampled pin captures
 * the end-to-end hardware model (density-matrix state + shot
 * readout) at the default QCC_SEED.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "ferm/hamiltonian.hh"
#include "sim/lanczos.hh"

using namespace qcc;

namespace {

// Pinned reference energies (Hartree).
constexpr double kH2HartreeFock = -1.116759312896;
constexpr double kH2Fci = -1.137283837576;
constexpr double kLiHHartreeFock = -7.860439103757;
constexpr double kLiHFci = -7.879466240336;

// Deterministic pipeline output: tight pin, far below any physical
// significance but loose enough for cross-platform libm drift.
constexpr double kPinTol = 1e-6;
// Optimizer-terminated results: driven by convergence tolerances.
constexpr double kVqeTol = 2e-6;
// Chemical accuracy, the paper's end-to-end bar.
constexpr double kChemicalAccuracy = 1.6e-3;

// Pinned BeH2 references: the repo's 12-qubit symmetric-stretch
// problem at 1.33 A (Table I row). The sampled-VQE pin is the
// seeded end-to-end shot-noise run (50% compressed UCCSD, SPSA,
// 16384 shots/estimate) captured from the implementation at the
// default QCC_SEED.
constexpr double kBeH2HartreeFock = -15.555777257802;
constexpr double kBeH2Fci = -15.590371791727;
constexpr double kBeH2Sampled = -15.555003;

// Seeded noisy-sampled H2 energy (QCC_SEED=2021 default): SPSA on
// the density-matrix state with shot readout, paper noise model.
// Captured from the seeded implementation (about 4.4 mHa above the
// noise-free FCI — the depolarizing CNOT penalty); the run must
// land within chemical accuracy of this pinned noisy value.
constexpr double kH2NoisySampled = -1.13292;

const MolecularProblem &
h2()
{
    static const MolecularProblem prob = [] {
        setLogLevel(LogLevel::Quiet);
        return buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    }();
    return prob;
}

const MolecularProblem &
lih()
{
    static const MolecularProblem prob = [] {
        setLogLevel(LogLevel::Quiet);
        return buildMolecularProblem(benchmarkMolecule("LiH"), 1.6);
    }();
    return prob;
}

/** Facade spec: molecule at a bond length, ideal mode unless set. */
ExperimentSpec
experimentOn(const char *molecule, double bond)
{
    setLogLevel(LogLevel::Quiet);
    return {.molecule = molecule, .bond = bond, .reference = false};
}

} // namespace

TEST(GoldenEnergies, H2HartreeFock)
{
    EXPECT_NEAR(h2().hartreeFockEnergy, kH2HartreeFock, kPinTol);
}

TEST(GoldenEnergies, H2Fci)
{
    EXPECT_NEAR(lanczosGroundEnergy(h2().hamiltonian), kH2Fci,
                kPinTol);
}

TEST(GoldenEnergies, H2VqeConvergesToGolden)
{
    ExperimentResult res = Experiment(experimentOn("H2", 0.74)).run();
    EXPECT_TRUE(res.vqe.converged);
    EXPECT_NEAR(res.energy(), kH2Fci, kVqeTol);
    // Variational bound: the optimizer may stop above, never below.
    EXPECT_GE(res.energy(), kH2Fci - kPinTol);
}

TEST(GoldenEnergies, H2CorrelationEnergySignificant)
{
    // The gap the VQE must recover; if HF and FCI pins ever drift
    // together this still catches a collapsed correlation energy.
    EXPECT_NEAR(kH2HartreeFock - kH2Fci, 0.020524524680, kPinTol);
}

TEST(GoldenEnergies, LiHHartreeFock)
{
    EXPECT_NEAR(lih().hartreeFockEnergy, kLiHHartreeFock, kPinTol);
}

TEST(GoldenEnergies, LiHFci)
{
    EXPECT_NEAR(lanczosGroundEnergy(lih().hamiltonian), kLiHFci,
                kPinTol);
}

TEST(GoldenEnergies, LiHVqeConvergesToGolden)
{
    ExperimentResult res = Experiment(experimentOn("LiH", 1.6)).run();
    EXPECT_TRUE(res.vqe.converged);
    EXPECT_NEAR(res.energy(), kLiHFci, kVqeTol);
    EXPECT_GE(res.energy(), kLiHFci - kPinTol);
}

TEST(GoldenEnergies, GradientDriverReachesGolden_H2)
{
    // The analytic-gradient optimizers must land on the same golden
    // energy as the legacy finite-difference path.
    for (const char *optimizer : {"lbfgs", "gd"}) {
        ExperimentSpec s = experimentOn("H2", 0.74);
        s.optimizer = optimizer;
        s.maxIter = 300;
        ExperimentResult res = Experiment(s).run();
        EXPECT_NEAR(res.energy(), kH2Fci, kVqeTol)
            << "optimizer " << optimizer;
    }
}

TEST(GoldenEnergies, BeH2HartreeFockAndFci)
{
    // The larger-molecule row: 12 qubits, 92 full UCCSD parameters.
    setLogLevel(LogLevel::Quiet);
    MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("BeH2"), 1.33);
    EXPECT_EQ(prob.nQubits, 12u);
    EXPECT_NEAR(prob.hartreeFockEnergy, kBeH2HartreeFock, kPinTol);
    EXPECT_NEAR(lanczosGroundEnergy(prob.hamiltonian), kBeH2Fci,
                kPinTol);
    // Correlation energy must stay significant (~34.6 mHa).
    EXPECT_NEAR(kBeH2HartreeFock - kBeH2Fci, 0.034594533925,
                kPinTol);
}

TEST(GoldenEnergies, BeH2SampledVqeMatchesPinnedValue)
{
    // Seeded shot-based run on the 12-qubit problem — cheap now
    // that every energy evaluation reuses the grouped sampling
    // engine and the batched gradient scratch comes from the shared
    // BufferPool. The pinned value is the captured seeded result;
    // the run must replay within chemical accuracy of it and can
    // only sit above the FCI floor (up to the shot-noise margin).
    ExperimentSpec s = experimentOn("BeH2", 1.33);
    s.compression = 0.5;
    s.mode = "sampled";
    s.optimizer = "spsa";
    s.spsaIter = 250;
    s.shots = 16384;
    ExperimentResult res = Experiment(s).run();
    EXPECT_GT(res.shots, uint64_t{0});
    EXPECT_NEAR(res.energy(), kBeH2Sampled, kChemicalAccuracy);
    EXPECT_GE(res.energy(), kBeH2Fci - kChemicalAccuracy);
    EXPECT_LT(res.energy(), kBeH2HartreeFock + kChemicalAccuracy);
}

TEST(GoldenEnergies, SampledVqeWithinChemicalAccuracy_H2)
{
    // The end-to-end acceptance bar: a shot-based VQE run (grouped
    // sampling, SPSA, generous but finite measurement budget) must
    // land within chemical accuracy of the analytic optimum.
    ExperimentResult analytic =
        Experiment(experimentOn("H2", 0.74)).run();

    ExperimentSpec s = experimentOn("H2", 0.74);
    s.mode = "sampled";
    s.optimizer = "spsa";
    s.spsaIter = 200;
    s.shots = 65536;
    ExperimentResult res = Experiment(s).run();

    EXPECT_NEAR(res.energy(), analytic.energy(), kChemicalAccuracy);
    EXPECT_GT(res.shots, uint64_t{0});
    // The trace must record the whole measurement bill.
    ASSERT_FALSE(res.trace.points.empty());
    EXPECT_EQ(res.trace.points.back().shots, res.shots);
}

TEST(GoldenEnergies, NoisySampledVqeMatchesPinnedValue_H2)
{
    // The ROADMAP composition: density-matrix state + shot readout,
    // one spec line. At the default seed the converged energy must
    // land within chemical accuracy of the pinned noisy value.
    ExperimentSpec s = experimentOn("H2", 0.74);
    s.mode = "noisy_sampled";
    s.optimizer = "spsa";
    s.spsaIter = 200;
    s.shots = 65536;
    s.cnotError = 1e-4;
    s.singleQubitError = 0.0;
    ExperimentResult res = Experiment(s).run();

    EXPECT_EQ(res.trace.mode, "noisy_sampled");
    EXPECT_GT(res.shots, uint64_t{0});
    EXPECT_NEAR(res.energy(), kH2NoisySampled, kChemicalAccuracy);
    // The depolarizing channels can only raise the energy above the
    // noise-free ground state (up to the shot-noise floor).
    EXPECT_GE(res.energy(), kH2Fci - kChemicalAccuracy);
}
