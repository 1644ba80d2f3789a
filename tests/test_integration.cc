/**
 * @file
 * Cross-module integration tests: the full pipeline from molecule to
 * compiled circuit, energy equivalence between the statevector path
 * and the compiled-circuit path, and the co-design claims in
 * miniature (compressed + MtR beats chain + SABRE on overhead while
 * matching the physics), and the noisy Pauli-transfer frame against
 * the density-matrix reference at HF's 10 qubits.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "ansatz/compression.hh"
#include "arch/grid.hh"
#include "chem/molecules.hh"
#include "compiler/chain_synthesis.hh"
#include "compiler/merge_to_root.hh"
#include "compiler/pipeline.hh"
#include "compiler/sabre.hh"
#include "compiler/verify.hh"
#include "ferm/hamiltonian.hh"
#include "sim/backend.hh"
#include "sim/lanczos.hh"
#include "sim_reference.hh"
#include "vqe_test_util.hh"
#include "vqe/vqe.hh"

using namespace qcc;

TEST(Integration, CompiledCircuitReproducesVqeEnergy)
{
    // Run VQE with fast kernels, then execute the *compiled physical
    // circuit* on the simulator and re-measure the energy through
    // the final layout permutation: both must agree.
    MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeResult res = qcc_test::minimizeIdeal(prob.hamiltonian, a);

    XTree tree = makeXTree(5);
    MtrResult mtr = mergeToRootCompile(a, res.params, tree, true);

    Statevector sv(5);
    // Start from |0...0> on the device; the HF X layer is inside the
    // compiled circuit.
    sv.applyCircuit(mtr.circuit);

    // Measure H mapped through the final layout.
    PauliSum hPhys(5);
    for (const auto &t : prob.hamiltonian.terms()) {
        PauliString p(5);
        for (unsigned q = 0; q < prob.nQubits; ++q)
            p.setOp(mtr.finalLayout.phys(q), t.string.op(q));
        hPhys.add(t.coeff, p);
    }
    EXPECT_NEAR(sv.expectation(hPhys), res.energy, 1e-9);
}

TEST(Integration, LiHDissociationCurveShape)
{
    // The Figure 3 landscape: a bound minimum between short and
    // stretched geometries for LiH with the 50% compressed ansatz.
    const auto &entry = benchmarkMolecule("LiH");
    std::vector<double> bonds{1.1, 1.6, 2.6};
    std::vector<double> energies;
    for (double b : bonds) {
        MolecularProblem prob = buildMolecularProblem(entry, b);
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
        CompressedAnsatz c =
            compressAnsatz(full, prob.hamiltonian, 0.5);
        energies.push_back(
            qcc_test::minimizeIdeal(prob.hamiltonian, c.ansatz).energy);
    }
    EXPECT_LT(energies[1], energies[0]);
    EXPECT_LT(energies[1], energies[2]);
}

TEST(Integration, ImportanceBeatsRandomAtEqualBudget)
{
    // Section VI-C: importance-selected 50% should be at least as
    // accurate as the mean of random 50% selections on LiH.
    const auto &entry = benchmarkMolecule("LiH");
    MolecularProblem prob = buildMolecularProblem(entry, 1.6);
    Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);

    CompressedAnsatz smart =
        compressAnsatz(full, prob.hamiltonian, 0.5);
    double eSmart =
        qcc_test::minimizeIdeal(prob.hamiltonian, smart.ansatz).energy;

    double eRandSum = 0.0;
    const int trials = 3;
    for (int t = 0; t < trials; ++t) {
        Rng rng(100 + t);
        CompressedAnsatz rnd = randomCompress(full, 0.5, rng);
        eRandSum +=
            qcc_test::minimizeIdeal(prob.hamiltonian, rnd.ansatz).energy;
    }
    EXPECT_LE(eSmart, eRandSum / trials + 1e-9);
}

TEST(Integration, MtrOverheadBelowSabre)
{
    // Table II in miniature: NaH at 50% compression, XTree17Q.
    const auto &entry = benchmarkMolecule("NaH");
    MolecularProblem prob =
        buildMolecularProblem(entry, entry.equilibriumBond);
    Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
    CompressedAnsatz comp =
        compressAnsatz(full, prob.hamiltonian, 0.5);

    std::vector<double> params(comp.ansatz.nParams, 0.0);
    XTree tree = makeXTree(17);

    MtrResult mtr = mergeToRootCompile(comp.ansatz, params, tree);
    Circuit logical = synthesizeChainCircuit(comp.ansatz, params);
    SabreResult sab = sabreCompile(
        logical, tree.graph,
        Layout::identity(logical.numQubits(), 17));

    EXPECT_TRUE(respectsCoupling(mtr.circuit, tree.graph));
    EXPECT_TRUE(respectsCoupling(sab.circuit, tree.graph));
    EXPECT_LT(mtr.overheadCnots(), sab.overheadCnots() / 4)
        << "MtR should dominate general-purpose routing on trees";
}

TEST(Integration, EndToEndNaHGroundState)
{
    // Medium-size end-to-end: NaH (8 qubits) 50% ansatz reaches
    // within chemical-accuracy-scale error of the exact value.
    const auto &entry = benchmarkMolecule("NaH");
    MolecularProblem prob = buildMolecularProblem(entry, 1.9);
    double exact = lanczosGroundEnergy(prob.hamiltonian);

    Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
    CompressedAnsatz comp =
        compressAnsatz(full, prob.hamiltonian, 0.5);
    VqeResult res = qcc_test::minimizeIdeal(prob.hamiltonian, comp.ansatz);

    EXPECT_GE(res.energy, exact - 1e-9);
    EXPECT_LT(res.energy - exact, 5e-3); // paper: ~0.05% level
}

TEST(Integration, NoisyHfEnergyMatchesTheDensityMatrixReference)
{
    // The fast suites hold the frame to the reference up to NaH's 8
    // qubits; HF's 4^10-entry reference replay is slow enough to live
    // here.
    const auto &entry = benchmarkMolecule("HF");
    MolecularProblem prob =
        buildMolecularProblem(entry, entry.equilibriumBond);
    Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
    NoiseModel paper = NoiseModel::paperDefault();
    NoiseModel both;
    both.cnotDepolarizing = 2e-2;
    both.singleQubitDepolarizing = 5e-3;
    const std::pair<double, NoiseModel> cases[] = {
        {0.3, paper}, {0.3, both}, {1.0, paper}};
    for (const auto &[compression, noise] : cases) {
        Ansatz a = compression < 1.0
                       ? compressAnsatz(full, prob.hamiltonian,
                                        compression)
                             .ansatz
                       : full;
        std::vector<double> params(a.nParams);
        for (size_t i = 0; i < params.size(); ++i)
            params[i] = 0.1 * std::sin(1.0 + 3.7 * double(i));
        qcc_test::DensityMatrix rho(a.nQubits);
        rho.applyCircuit(cachedChainCircuit(a, params, true), noise);
        const double ref = rho.expectation(prob.hamiltonian);
        PauliFrameBackend b(a.nQubits, noise);
        b.applyAnsatz(a, params);
        const double e = b.expectation(prob.hamiltonian);
        EXPECT_LE(std::fabs(e - ref), 1e-12 * std::fabs(ref))
            << "@" << compression << " p2 " << noise.cnotDepolarizing
            << ": " << e << " vs " << ref;
    }
}

TEST(Integration, QasmExportOfCompiledProgram)
{
    // The compiled artifact exports to OpenQASM without SWAPs (all
    // lowered), ready for an external toolchain.
    MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    std::vector<double> params(a.nParams, 0.1);
    XTree tree = makeXTree(5);
    MtrResult mtr = mergeToRootCompile(a, params, tree, true);
    std::string qasm = mtr.circuit.toQasm();
    EXPECT_NE(qasm.find("qreg q[5];"), std::string::npos);
    EXPECT_EQ(qasm.find("swap"), std::string::npos);
}
