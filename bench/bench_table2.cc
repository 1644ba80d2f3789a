/**
 * @file
 * Table II reproduction: mapping overhead (additional CNOTs; one
 * SWAP = 3 CNOTs) of the compressed-UCCSD benchmarks under three
 * compilation flows:
 *   - MtR on XTree17Q: hierarchical initial layout + Merge-to-Root
 *   - SAB on XTree17Q: chain synthesis + SABRE routing
 *   - SAB on Grid17Q:  chain synthesis + SABRE on the dense grid
 * plus the "Original # of CNOTs" of the compressed chain circuits.
 * Quick mode covers molecules up to H2O; QCC_FULL=1 runs all nine.
 */

#include <cstdio>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "api/experiment.hh"
#include "bench_util.hh"
#include "chem/molecules.hh"
#include "ferm/hamiltonian.hh"

using namespace qcc;
using namespace qccbench;

namespace {

const std::vector<double> ratios = {0.1, 0.3, 0.5, 0.7, 0.9};

struct Row
{
    std::string name;
    std::vector<size_t> original, mtr, sabTree, sabGrid;
};

} // namespace

int
main()
{
    setLogLevel(LogLevel::Quiet);
    banner("Table II: mapping overhead of MtR vs SABRE "
           "(additional CNOTs; SWAP = 3 CNOTs)");

    const size_t maxMolecules = fullMode() ? 9 : 6;
    Device tree = makeDevice("xtree17");
    Device grid = makeDevice("grid17");

    // All three flows run through registry presets on the
    // pass-manager pipeline; the MtR flow's verify pass enforces the
    // coupling constraint (a violation aborts with the offending
    // pass and gate index).
    const auto &presets = pipelinePresetRegistry();
    CompilerPipeline chainPipe(presets.get("chain")());
    CompilerPipeline mtrPipe(*tree.tree, presets.get("mtr")());
    CompilerPipeline sabTreePipe(*tree.tree, presets.get("sabre")());
    CompilerPipeline sabGridPipe(*grid.graph,
                                 presets.get("sabre")());

    std::vector<Row> rows;
    double sumMtr = 0, sumSabTree = 0, sumOrig = 0, sumSabGrid = 0;

    for (const auto &entry : benchmarkMolecules()) {
        if (rows.size() >= maxMolecules)
            break;
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);

        Row row;
        row.name = entry.name;
        for (double ratio : ratios) {
            CompressedAnsatz comp =
                compressAnsatz(full, prob.hamiltonian, ratio);
            std::vector<double> zeros(comp.ansatz.nParams, 0.0);

            CompileResult chain =
                chainPipe.compile(comp.ansatz, zeros);
            row.original.push_back(chain.circuit.cnotCount());

            CompileResult mtr = mtrPipe.compile(comp.ansatz, zeros);
            row.mtr.push_back(mtr.overheadCnots());

            CompileResult st =
                sabTreePipe.compile(comp.ansatz, zeros);
            row.sabTree.push_back(st.overheadCnots());

            CompileResult sg =
                sabGridPipe.compile(comp.ansatz, zeros);
            row.sabGrid.push_back(sg.overheadCnots());

            sumOrig += double(chain.circuit.cnotCount());
            sumMtr += double(mtr.overheadCnots());
            sumSabTree += double(st.overheadCnots());
            sumSabGrid += double(sg.overheadCnots());
        }
        rows.push_back(row);
        std::printf("  ... %s done\n", entry.name.c_str());
    }

    auto printBlock = [&](const char *title,
                          std::vector<size_t> Row::*field) {
        rule();
        std::printf("%s\n", title);
        std::printf("%-6s", "Ratio");
        for (double r : ratios)
            std::printf("%10.0f%%", 100 * r);
        std::printf("\n");
        for (const auto &row : rows) {
            std::printf("%-6s", row.name.c_str());
            for (size_t v : row.*field)
                std::printf("%11zu", v);
            std::printf("\n");
        }
    };

    printBlock("Original # of CNOTs (compressed chain circuits)",
               &Row::original);
    printBlock("MtR on XTree17Q (additional CNOTs)", &Row::mtr);
    printBlock("SAB on XTree17Q (additional CNOTs)", &Row::sabTree);
    printBlock("SAB on Grid17Q (additional CNOTs)", &Row::sabGrid);

    rule('=');
    std::printf("aggregate: MtR overhead / original CNOTs      = "
                "%5.2f%%   (paper: ~1.4%%)\n",
                100.0 * sumMtr / sumOrig);
    std::printf("aggregate: SAB/XTree overhead / original      = "
                "%5.1f%%   (paper: ~177%%)\n",
                100.0 * sumSabTree / sumOrig);
    std::printf("aggregate: MtR overhead / SAB-XTree overhead  = "
                "%5.2f%%   (paper: ~1%%, i.e. 99%%+ reduction)\n",
                100.0 * sumMtr / sumSabTree);
    std::printf("aggregate: MtR overhead / SAB-Grid overhead   = "
                "%5.2f%%   (paper: ~2.3%%)\n",
                100.0 * sumMtr / sumSabGrid);
    std::printf("CI rows: quick mode stops after H2O; BH3/NH3/CH4 "
                "need QCC_FULL=1. The molecule x compression\n"
                "sweep also ships as examples/specs/table2_full.json "
                "for qcc_sweep.\n");
    return 0;
}
