/**
 * @file
 * Measurement-cost study: how many shots does a sampled VQE need?
 * Runs the H2 ground-state problem through the Experiment facade in
 * sampled mode across a sweep of per-evaluation shot budgets,
 * comparing each converged energy against the analytic
 * (infinite-shot) optimum and printing the total measurement bill.
 * With QCC_JSON set, each run's structured record (spec, energies,
 * full per-iteration trace) lands in RESULT_shot_budget_<shots>.json.
 *
 * Reproducible end to end from QCC_SEED. The final column is 16
 * times the sampler's default budget (SamplingOptions::shots).
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "api/experiment.hh"
#include "common/logging.hh"

int
main()
{
    using namespace qcc;
    setLogLevel(LogLevel::Quiet);

    std::printf("== Shot-budget study: sampled VQE on H2 ==\n");
    std::printf("(seed %llu; chemical accuracy is 1.6 mHa)\n\n",
                (unsigned long long)globalSeed());

    ExperimentResult analytic =
        Experiment(ExperimentSpec{.molecule = "H2", .bond = 0.74}).run();
    std::printf("analytic VQE: %.6f Ha (FCI %.6f)\n\n",
                analytic.energy(), analytic.fci);

    ExperimentSpec sampled{.molecule = "H2",
                           .bond = 0.74,
                           .mode = "sampled",
                           .optimizer = "spsa",
                           .spsaIter = 200,
                           .reference = false};

    std::printf("%-10s %12s %12s %12s %10s\n", "shots/eval",
                "energy", "err (mHa)", "total shots", "sigma");
    for (uint64_t shots :
         {uint64_t{1024}, uint64_t{8192}, uint64_t{65536},
          SamplingOptions{}.shots * 16}) {
        sampled.shots = shots;
        ExperimentResult res = Experiment(sampled).run();
        const auto &last = res.trace.points.back();
        std::printf("%-10llu %12.6f %12.3f %12llu %10.2e\n",
                    (unsigned long long)shots, res.energy(),
                    1e3 * (res.energy() - analytic.energy()),
                    (unsigned long long)res.shots,
                    std::sqrt(last.variance));
        res.write("shot_budget_" + std::to_string(shots));
    }

    std::printf("\nshot noise shrinks as 1/sqrt(shots); past the "
                "crossover the optimizer, not the\nmeasurement "
                "budget, limits accuracy — the shot-frugal grouped "
                "allocation is what\nmoves that crossover left.\n");
    return 0;
}
