/**
 * @file
 * Dissociation-curve study (the Figure 3 workflow): sweep the LiH
 * bond length through the Experiment facade — one spec per point,
 * 50%-compressed UCCSD — and print the energy landscape next to the
 * exact ground state and the Hartree-Fock reference. The minimum of
 * the printed curve is the predicted equilibrium bond length.
 */

#include <cstdio>

#include "api/experiment.hh"
#include "common/logging.hh"

int
main()
{
    using namespace qcc;
    setLogLevel(LogLevel::Quiet);

    std::printf("== LiH dissociation curve, 50%% compressed UCCSD "
                "==\n\n");
    std::printf("%-8s %14s %14s %14s %10s\n", "bond(A)", "HF",
                "VQE(50%)", "exact", "iters");

    ExperimentSpec point{.molecule = "LiH", .compression = 0.5};

    double bestBond = 0, bestEnergy = 1e9;
    for (double bond = 1.0; bond <= 2.6 + 1e-9; bond += 0.2) {
        point.bond = bond;
        ExperimentResult res = Experiment(point).run();
        std::printf("%-8.2f %14.6f %14.6f %14.6f %10d\n", bond,
                    res.hartreeFock, res.energy(), res.fci,
                    res.vqe.iterations);
        if (res.energy() < bestEnergy) {
            bestEnergy = res.energy();
            bestBond = bond;
        }
    }
    std::printf("\npredicted equilibrium bond length: %.2f A "
                "(experiment: ~1.60 A)\n",
                bestBond);
    return 0;
}
