/**
 * @file
 * Quickstart: end-to-end H2 ground-state estimation through the
 * qcc::Experiment facade — one spec names the molecule, the ansatz
 * compression, the evaluation mode, and the compilation target, and
 * run() assembles the whole co-optimized stack (STO-3G -> RHF ->
 * Jordan-Wigner -> UCCSD -> VQE -> Merge-to-Root on an X-Tree).
 * With QCC_JSON set, the structured records land in
 * RESULT_quickstart*.json.
 */

#include <cstdio>

#include "api/experiment.hh"
#include "common/logging.hh"

int
main()
{
    using namespace qcc;
    setLogLevel(LogLevel::Quiet);

    std::printf("== qcc quickstart: H2 at 0.74 Angstrom ==\n\n");

    // Full UCCSD ansatz, ideal evaluation, compiled onto XTree5Q.
    ExperimentResult res =
        Experiment(ExperimentSpec{.molecule = "H2",
                                  .bond = 0.74,
                                  .pipeline = "mtr",
                                  .architecture = "xtree5"})
            .run();
    std::printf("qubits: %u   Hamiltonian terms: %zu   "
                "measurement settings: %zu\n",
                res.nQubits, res.hamiltonianTerms,
                res.measurementSettings);
    std::printf("Hartree-Fock energy: %+.6f Ha\n", res.hartreeFock);
    std::printf("exact ground state:  %+.6f Ha\n", res.fci);
    std::printf("\nUCCSD: %u parameters\n", res.nParams);
    std::printf("VQE energy:          %+.6f Ha  (%d iterations)\n",
                res.energy(), res.vqe.iterations);
    std::printf("error vs exact:      %.2e Ha\n",
                res.energy() - res.fci);
    res.write("quickstart");

    // Compress the ansatz with the Hamiltonian-guided importance
    // estimate and re-run the same spec.
    ExperimentResult cres =
        Experiment(ExperimentSpec{.molecule = "H2",
                                  .bond = 0.74,
                                  .compression = 0.67,
                                  .pipeline = "mtr",
                                  .architecture = "xtree5"})
            .run();
    std::printf("\ncompressed to %u params: %+.6f Ha "
                "(%d iterations)\n",
                cres.nParams, cres.energy(), cres.vqe.iterations);
    std::printf("\ncompiled to XTree5Q: %zu gates, %zu CNOTs "
                "(mapping overhead %zu CNOTs)\n",
                cres.compiled.gates, cres.compiled.cnots,
                cres.compiled.overheadCnots);
    cres.write("quickstart_compressed");
    return 0;
}
