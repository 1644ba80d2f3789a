/**
 * @file
 * Compiler-pipeline walkthrough: take the NH3 UCCSD program at
 * several compression ratios and compile it through three registry
 * presets — "mtr" (hierarchical layout + Merge-to-Root) on XTree17Q,
 * "sabre" on the same tree, and "sabre" on the Grid17Q baseline — a
 * single-molecule slice of the paper's Table II. Devices come from
 * the api makeDevice parser and pipeline configurations from the
 * PipelinePresetRegistry; the per-pass PipelineReport of one compile
 * is printed, the circuit cache is demonstrated by recompiling with
 * fresh parameters, and the compiled circuit is exported to
 * OpenQASM.
 */

#include <cstdio>
#include <fstream>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "api/experiment.hh"
#include "common/logging.hh"
#include "ferm/hamiltonian.hh"

int
main()
{
    using namespace qcc;
    setLogLevel(LogLevel::Quiet);

    std::printf("== Compiling NH3 (14 qubits) onto XTree17Q ==\n\n");
    const auto &entry = benchmarkMolecule("NH3");
    MolecularProblem prob =
        buildMolecularProblem(entry, entry.equilibriumBond);
    Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
    std::printf("full UCCSD: %u params, %zu Pauli strings\n\n",
                full.nParams, full.numStrings());

    Device tree = makeDevice("xtree17");
    Device grid = makeDevice("grid17");

    // One pipeline per registry preset; every compile below routes
    // through a PassManager that times each pass and re-checks the
    // coupling invariant after every mutating stage.
    const auto &presets = pipelinePresetRegistry();
    CompilerPipeline chainPipe(presets.get("chain")());
    CompilerPipeline mtrPipe(*tree.tree, presets.get("mtr")());
    CompilerPipeline sabTreePipe(*tree.tree, presets.get("sabre")());
    CompilerPipeline sabGridPipe(*grid.graph,
                                 presets.get("sabre")());

    std::printf("pipeline passes:");
    for (const std::string &name : mtrPipe.passNames())
        std::printf(" %s", name.c_str());
    std::printf("\n\n");

    std::printf("%-7s %10s %12s %14s %14s\n", "ratio", "CNOTs",
                "MtR ovh", "SAB/XTree ovh", "SAB/Grid ovh");
    for (double ratio : {0.1, 0.3, 0.5}) {
        CompressedAnsatz comp =
            compressAnsatz(full, prob.hamiltonian, ratio);
        std::vector<double> zeros(comp.ansatz.nParams, 0.0);

        CompileResult chain = chainPipe.compile(comp.ansatz, zeros);
        CompileResult mtr = mtrPipe.compile(comp.ansatz, zeros);
        CompileResult st = sabTreePipe.compile(comp.ansatz, zeros);
        CompileResult sg = sabGridPipe.compile(comp.ansatz, zeros);

        std::printf("%-6.0f%% %10zu %12zu %14zu %14zu\n",
                    100 * ratio, chain.circuit.cnotCount(),
                    mtr.overheadCnots(), st.overheadCnots(),
                    sg.overheadCnots());
    }

    // Per-pass accounting for the 10% program (through an uncached
    // pipeline so the full pass sequence actually runs), then a
    // cached recompile with fresh parameters to show the cache
    // rebinding angles instead of re-running layout + routing.
    CompressedAnsatz comp =
        compressAnsatz(full, prob.hamiltonian, 0.1);
    std::vector<double> zeros(comp.ansatz.nParams, 0.0);
    PipelineOptions reportOpts = presets.get("mtr")();
    reportOpts.useCache = false;
    CompilerPipeline reportPipe(*tree.tree, reportOpts);
    CompileResult mtr = reportPipe.compile(comp.ansatz, zeros);
    std::printf("\nPipelineReport for NH3@10%% (MtR flow):\n%s",
                mtr.report.str().c_str());

    std::vector<double> bumped(comp.ansatz.nParams, 0.05);
    CompileResult again = mtrPipe.compile(comp.ansatz, bumped);
    std::printf("\nrecompile with new parameters: %.3f ms%s\n",
                again.report.totalMillis,
                again.report.cacheHit ? "  [cache hit]" : "");

    // Export the 10% program as OpenQASM for external toolchains.
    std::ofstream out("nh3_xtree17q.qasm");
    out << mtr.circuit.toQasm();
    std::printf("\nwrote nh3_xtree17q.qasm (%zu gates, depth %zu)\n",
                mtr.circuit.totalGates(), mtr.circuit.depth());
    return 0;
}
