/**
 * @file
 * Ablation (Section VII, "hardware architecture variants"): sweep
 * the X-Tree child degree and compare mapping overhead against
 * coupler count and yield — the Pareto trade the paper flags as
 * future work. Degree 1 is a line; degree 3 is the paper's X-Tree.
 */

#include <cstdio>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "arch/yield.hh"
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
    banner("Ablation: X-Tree child-degree sweep "
           "(overhead vs coupler count vs yield)");

    std::vector<std::string> molecules =
        fullMode()
            ? std::vector<std::string>{"LiH", "NaH", "HF", "BeH2",
                                       "H2O"}
            : std::vector<std::string>{"LiH", "NaH", "HF", "BeH2", "H2O"};
    const double ratio = 0.9;
    const int samples = fullMode() ? 40000 : 8000;

    std::printf("%-8s %9s %9s %18s %12s\n", "degree", "qubits",
                "couplers", "overhead (CNOTs)", "yield@0.4");
    rule();

    for (unsigned degree : {1u, 2u, 3u}) {
        XTree tree = makeXTree(17, 4, degree);

        size_t overhead = 0;
        for (const auto &name : molecules) {
            const auto &entry = benchmarkMolecule(name);
            MolecularProblem prob = buildMolecularProblem(
                entry, entry.equilibriumBond);
            Ansatz full =
                buildUccsd(prob.nSpatial, prob.nElectrons);
            CompressedAnsatz comp =
                compressAnsatz(full, prob.hamiltonian, ratio);
            std::vector<double> zeros(comp.ansatz.nParams, 0.0);
            overhead +=
                mergeToRootCompile(comp.ansatz, zeros, tree)
                    .overheadCnots();
        }

        auto freqs = allocateFrequencies(tree.graph);
        Rng rng(deriveSeed(7));
        double y = simulateYield(tree.graph, freqs,
                                 0.4 * paperPrecisionToSigma,
                                 samples, rng);

        std::printf("%-8u %9u %9zu %18zu %12.4f\n", degree,
                    tree.graph.numQubits(), tree.graph.numEdges(),
                    overhead, y);
    }
    rule();
    std::printf("trees always use N-1 couplers; deeper (low-degree) "
                "trees raise routing overhead at equal yield,\n"
                "so the degree-3 X-Tree sits on the Pareto frontier "
                "the paper proposes.\n");
    return 0;
}
