/**
 * @file
 * Ablation (Section VII, "deeper compiler optimization"): how many
 * gates does the peephole cancellation pass recover on top of chain
 * synthesis and on top of Merge-to-Root output? Consecutive Pauli
 * simulation circuits share basis/CNOT structure, so the mirrored
 * suffix of one string often cancels the prefix of the next.
 */

#include <cstdio>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "bench_util.hh"
#include "chem/molecules.hh"
#include "compiler/chain_synthesis.hh"
#include "compiler/merge_to_root.hh"
#include "compiler/peephole.hh"
#include "ferm/hamiltonian.hh"

using namespace qcc;
using namespace qccbench;

int
main()
{
    setLogLevel(LogLevel::Quiet);
    banner("Ablation: peephole gate cancellation on top of "
           "synthesis (50% compressed ansatz)");

    std::vector<std::string> molecules =
        fullMode()
            ? std::vector<std::string>{"H2", "LiH", "NaH", "HF",
                                       "BeH2", "H2O", "BH3"}
            : std::vector<std::string>{"H2", "LiH", "NaH", "HF"};

    XTree tree = makeXTree(17);
    std::printf("%-6s %14s %14s %16s %16s\n", "Mol", "chain gates",
                "after cancel", "MtR gates", "after cancel");
    rule();

    for (const auto &name : molecules) {
        const auto &entry = benchmarkMolecule(name);
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
        CompressedAnsatz comp =
            compressAnsatz(full, prob.hamiltonian, 0.5);
        std::vector<double> params(comp.ansatz.nParams, 0.1);

        Circuit chain =
            synthesizeChainCircuit(comp.ansatz, params, true);
        Circuit chainOpt = cancelGates(chain);

        MtrResult mtr =
            mergeToRootCompile(comp.ansatz, params, tree);
        Circuit mtrOpt = cancelGates(mtr.circuit);

        std::printf("%-6s %14zu %10zu (-%2.0f%%) %12zu "
                    "%10zu (-%2.0f%%)\n",
                    name.c_str(), chain.totalGates(),
                    chainOpt.totalGates(),
                    100.0 * double(chain.totalGates() -
                                   chainOpt.totalGates()) /
                        double(chain.totalGates()),
                    mtr.circuit.totalGates(), mtrOpt.totalGates(),
                    100.0 * double(mtr.circuit.totalGates() -
                                   mtrOpt.totalGates()) /
                        double(mtr.circuit.totalGates()));
    }
    rule();
    std::printf("cancellation is unitary-exact (verified in "
                "tests/test_peephole.cc) and composes with both "
                "flows.\n");
    return 0;
}
