/**
 * @file
 * Noise trade-off study (the Section VI-D experiment in miniature):
 * for LiH at equilibrium, sweep compression ratio and CNOT error
 * rate, evaluating the converged noise-free parameters on the noisy
 * density-matrix simulator. More parameters help accuracy until the
 * extra CNOT noise masks them — the paper's "sweet spot" effect.
 *
 * The clean optimizations run through the Experiment facade (which
 * hands back the Hamiltonian, ansatz, and converged parameters for
 * composition); the noisy re-evaluations run on backends built by
 * the density-matrix StateModel, as the noisy modes build theirs.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "api/experiment.hh"
#include "common/logging.hh"
#include "vqe/estimation.hh"
#include "vqe/vqe.hh"

int
main()
{
    using namespace qcc;
    setLogLevel(LogLevel::Quiet);

    std::printf("== LiH noise trade-off: compression ratio vs CNOT "
                "error ==\n\n");

    ExperimentSpec clean{.molecule = "LiH", .bond = 1.6};
    const std::vector<double> ratios = {0.1, 0.3, 0.5, 0.7, 0.9};
    const std::vector<double> errorRates = {0.0, 1e-4, 1e-3, 5e-3};

    // One clean optimization per ratio through the facade.
    std::vector<ExperimentResult> results;
    for (double ratio : ratios) {
        clean.compression = ratio;
        results.push_back(Experiment(clean).run());
    }
    const double exact = results.front().fci;
    std::printf("exact ground state: %.6f Ha\n\n", exact);

    // One reusable backend per error rate (p = 0 reuses the clean
    // statevector energy, so no density matrix is allocated for it).
    std::vector<std::unique_ptr<SimBackend>> noisy(
        errorRates.size());
    for (size_t pi = 0; pi < errorRates.size(); ++pi) {
        if (errorRates[pi] == 0.0)
            continue;
        NoiseModel nm;
        nm.cnotDepolarizing = errorRates[pi];
        noisy[pi] =
            pauliFrameModel(results.front().nQubits, nm).make();
    }

    std::printf("%-7s", "ratio");
    for (double p : errorRates)
        std::printf("   err p=%-7.0e", p);
    std::printf("\n");

    for (size_t ri = 0; ri < ratios.size(); ++ri) {
        const ExperimentResult &res = results[ri];
        std::printf("%-6.0f%%", 100 * ratios[ri]);
        for (size_t pi = 0; pi < errorRates.size(); ++pi) {
            double e = errorRates[pi] == 0.0
                ? res.energy()
                : ansatzEnergy(*noisy[pi], res.hamiltonian,
                               res.ansatz, res.vqe.params);
            std::printf("   %12.5f", e - exact);
        }
        std::printf("\n");
    }

    std::printf("\ncolumns show energy error vs exact (Ha). At "
                "higher error rates the larger ansatzes'\n"
                "extra CNOTs cost more than their parameters "
                "recover - the sweet spot moves left.\n");
    return 0;
}
