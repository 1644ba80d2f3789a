/**
 * @file
 * Ablation (Section III-B): does importance-decreasing string
 * ordering actually improve qubit locality and reduce Merge-to-Root
 * mapping overhead? Compares the compressed ansatz as constructed
 * (importance order) against the same parameter set in original
 * UCCSD program order, on XTree17Q.
 */

#include <algorithm>
#include <cstdio>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "bench_util.hh"
#include "chem/molecules.hh"
#include "compiler/merge_to_root.hh"
#include "ferm/hamiltonian.hh"

using namespace qcc;
using namespace qccbench;

int
main()
{
    setLogLevel(LogLevel::Quiet);
    banner("Ablation: importance-ordered vs original-order ansatz "
           "(MtR overhead on XTree17Q)");

    const std::vector<double> ratios = {0.3, 0.5, 0.7, 0.9};
    std::vector<std::string> molecules =
        fullMode() ? std::vector<std::string>{"LiH", "NaH", "HF",
                                              "BeH2", "H2O", "BH3"}
                   : std::vector<std::string>{"LiH", "NaH", "HF",
                                              "BeH2"};

    XTree tree = makeXTree(17);
    std::printf("%-6s %7s %16s %16s\n", "Mol", "ratio",
                "ordered (CNOTs)", "unordered (CNOTs)");
    rule();

    double sumOrdered = 0, sumUnordered = 0;
    for (const auto &name : molecules) {
        const auto &entry = benchmarkMolecule(name);
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);

        for (double ratio : ratios) {
            CompressedAnsatz ordered =
                compressAnsatz(full, prob.hamiltonian, ratio);

            // Same parameters, original UCCSD order.
            std::vector<unsigned> params = ordered.keptParams;
            std::sort(params.begin(), params.end());
            Ansatz unordered = selectParameters(full, params);

            std::vector<double> z1(ordered.ansatz.nParams, 0.0);
            MtrResult a =
                mergeToRootCompile(ordered.ansatz, z1, tree);
            MtrResult b = mergeToRootCompile(unordered, z1, tree);

            std::printf("%-6s %6.0f%% %16zu %16zu\n", name.c_str(),
                        100 * ratio, a.overheadCnots(),
                        b.overheadCnots());
            sumOrdered += double(a.overheadCnots());
            sumUnordered += double(b.overheadCnots());
        }
    }
    rule();
    std::printf("total overhead: ordered %.0f vs unordered %.0f "
                "(%.1f%% of unordered)\n",
                sumOrdered, sumUnordered,
                sumUnordered > 0
                    ? 100.0 * sumOrdered / sumUnordered
                    : 0.0);
    return 0;
}
