/**
 * @file
 * Table I reproduction: benchmark molecules and their original full
 * UCCSD cost — qubit count, Pauli string count, parameter count, and
 * chain-synthesized gate/CNOT counts. Runs the real chemistry
 * pipeline (STO-3G -> RHF -> active space) for the qubit counts and
 * the real UCCSD generator for the circuit costs; synthesis goes
 * through the PipelinePresetRegistry's "chain" preset, whose
 * per-term fan-out makes the big programs (CH4: 66k gates) compile
 * in parallel.
 */

#include <cstdio>

#include "ansatz/uccsd.hh"
#include "api/registries.hh"
#include "bench_util.hh"
#include "chem/molecules.hh"
#include "ferm/hamiltonian.hh"

using namespace qcc;
using namespace qccbench;

int
main()
{
    setLogLevel(LogLevel::Quiet);
    banner("Table I: benchmark molecules and their original cost");

    std::printf("%-6s %9s %10s %10s %18s %10s\n", "Mol", "# Qubits",
                "# Pauli", "# Param", "# Gates (CNOTs)",
                "compile");
    rule();

    CompilerPipeline pipe(pipelinePresetRegistry().get("chain")());

    for (const auto &entry : benchmarkMolecules()) {
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
        std::vector<double> zeros(a.nParams, 0.0);
        CompileResult r = pipe.compile(a, zeros);
        std::printf("%-6s %9u %10zu %10u %11zu (%zu) %8.1fms\n",
                    entry.name.c_str(), prob.nQubits, a.numStrings(),
                    a.nParams, r.circuit.totalGates(),
                    r.circuit.cnotCount(), r.report.totalMillis);
    }
    rule();
    std::printf("paper reference rows: H2 4/12/3/150(56), "
                "LiH 6/40/8/610(280), NaH 8/84/15/1476(768),\n"
                "HF 10/144/24/2856(1616), BeH2 12/640/92/13704"
                "(8064), H2O 12/640/92/13704(8064),\n"
                "BH3 14/1488/204/34280(21072), NH3 14/1488/204/"
                "34280(21072), CH4 16/2688/360/66312(42368)\n");
    std::printf("CI runs every row (compile cost only); the full "
                "VQE study over all nine molecules ships as\n"
                "examples/specs/table1_full.json for qcc_sweep "
                "(BH3/NH3/CH4 rows are minutes, not CI-budget).\n");
    return 0;
}
