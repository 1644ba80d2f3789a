/**
 * @file
 * Ablation (Section V-A): value of the hierarchical initial layout.
 * Merge-to-Root is run from the Algorithm 2 layout, the identity
 * layout, and random layouts; overhead differences isolate the
 * layout contribution from the router.
 */

#include <cstdio>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "bench_util.hh"
#include "chem/molecules.hh"
#include "common/rng.hh"
#include "compiler/merge_to_root.hh"
#include "ferm/hamiltonian.hh"

using namespace qcc;
using namespace qccbench;

int
main()
{
    setLogLevel(LogLevel::Quiet);
    banner("Ablation: hierarchical vs identity vs random initial "
           "layout (MtR on XTree17Q)");

    std::vector<std::string> molecules =
        fullMode() ? std::vector<std::string>{"LiH", "NaH", "HF",
                                              "BeH2", "H2O", "BH3"}
                   : std::vector<std::string>{"LiH", "NaH", "HF",
                                              "BeH2"};
    const int randomTrials = fullMode() ? 5 : 3;
    const double ratio = 0.5;

    XTree tree = makeXTree(17);
    std::printf("%-6s %14s %10s %14s\n", "Mol", "hierarchical",
                "identity", "random(mean)");
    rule();

    for (const auto &name : molecules) {
        const auto &entry = benchmarkMolecule(name);
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
        CompressedAnsatz comp =
            compressAnsatz(full, prob.hamiltonian, ratio);
        std::vector<double> zeros(comp.ansatz.nParams, 0.0);

        MtrResult hier =
            mergeToRootCompile(comp.ansatz, zeros, tree);
        MtrResult ident = mergeToRootCompile(
            comp.ansatz, zeros, tree,
            Layout::identity(comp.ansatz.nQubits, 17), true);

        double randMean = 0;
        for (int t = 0; t < randomTrials; ++t) {
            Rng rng(deriveSeed(500 + t));
            MtrResult r = mergeToRootCompile(
                comp.ansatz, zeros, tree,
                Layout::random(comp.ansatz.nQubits, 17, rng), true);
            randMean += double(r.overheadCnots());
        }
        randMean /= randomTrials;

        std::printf("%-6s %14zu %10zu %14.1f\n", name.c_str(),
                    hier.overheadCnots(), ident.overheadCnots(),
                    randMean);
    }
    rule();
    std::printf("hierarchical layout should dominate; identity is "
                "competitive only on tiny programs.\n");
    return 0;
}
