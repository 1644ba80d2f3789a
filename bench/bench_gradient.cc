/**
 * @file
 * Gradient-engine study: serial (per-evaluation full replay on one
 * lane) vs batched (prefix-shared / pair-differenced, thread-pool
 * fan-out) parameter-shift gradients on LiH, in all three evaluation
 * modes, the ideal-mode adjoint against batched parameter shift,
 * plus analytic vs sampled gradient quality at a sweep of shot
 * budgets. Headline numbers land in BENCH_gradient.json under
 * QCC_JSON. The serial rows run the generic per-task replay under a
 * one-lane ParallelWidthCap. The batched-vs-serial ratio on the
 * gate-level noisy mode is algorithmic (pair-difference suffix
 * sweeps), so it holds even on one core; the statevector modes
 * additionally scale with QCC_THREADS, drawing their per-task
 * scratch states from the common/parallel buffer pool. QCC_FULL=1
 * adds a 14-qubit NH3 row.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "ferm/hamiltonian.hh"
#include "sim/noise_model.hh"
#include "vqe/estimation.hh"
#include "vqe/expectation_engine.hh"
#include "vqe/gradient.hh"

#include "bench_util.hh"

using namespace qcc;

namespace {

using clock_type = std::chrono::steady_clock;

double
millisSince(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               clock_type::now() - t0)
        .count();
}

/** `fn()` with every pool sweep it starts run inline, in order. */
template <typename Fn>
void
serially(Fn fn)
{
    ParallelWidthCap cap(1);
    fn();
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Quiet);
    qccbench::banner("Gradient engine: serial vs batched "
                     "parameter shift (LiH)");
    qccbench::JsonReport json("gradient");

    const auto &entry = benchmarkMolecule("LiH");
    MolecularProblem prob = buildMolecularProblem(entry, 1.6);
    Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
    std::vector<double> params(ansatz.nParams);
    for (size_t i = 0; i < params.size(); ++i)
        params[i] = 0.05 * double(i + 1);

    const int reps = qccbench::fullMode() ? 10 : 3;
    ExpectationEngine ee(prob.hamiltonian);
    NoiseModel noise = NoiseModel::paperDefault();
    SamplingOptions sampling;

    ParameterShiftEngine batched(prob.hamiltonian, ansatz);

    std::printf("molecule LiH: %u qubits, %u params, %zu shifted "
                "evaluations per gradient, %u threads\n\n",
                ansatz.nQubits, ansatz.nParams,
                batched.numShiftedEvaluations(), parallelThreads());
    std::printf("%-10s %12s %12s %9s\n", "mode", "serial ms",
                "batched ms", "speedup");

    // Serial baseline: the generic engine path on one lane — every
    // shifted energy is an independent full replay, one after
    // another, exactly what a driver evaluating one energy at a time
    // would do. Batched: prefix-shared (statevector) or
    // pair-differenced (density-matrix) sweeps fanned over the pool.
    auto timeMs = [&](auto fn) {
        fn(); // warm caches and the thread pool
        const auto t0 = clock_type::now();
        for (int r = 0; r < reps; ++r)
            fn();
        return millisSince(t0) / reps;
    };
    auto timeRow = [&](const char *mode, auto serialFn,
                       auto batchedFn) {
        const double serialMs = timeMs(serialFn);
        const double batchedMs = timeMs(batchedFn);
        const double speedup = serialMs / batchedMs;
        std::printf("%-10s %12.3f %12.3f %8.2fx\n", mode, serialMs,
                    batchedMs, speedup);
        json.row(mode, {{"serial_ms", serialMs},
                        {"batched_ms", batchedMs},
                        {"speedup", speedup}});
    };

    // Backends come from the estimation layer's state models, the
    // one place the evaluation modes build them.
    auto svMake = [&] { return statevectorModel(ansatz.nQubits).make(); };
    auto svEnergy = [&](SimBackend &b, size_t) {
        return ee.energy(b);
    };
    auto svEstimate = [&](const Statevector &psi, size_t) {
        return ee.energy(psi);
    };
    timeRow(
        "ideal",
        [&] {
            serially([&] { batched.gradient(params, svMake, svEnergy); });
        },
        [&] { batched.gradientStatevector(params, svEstimate); });

    // The route ideal-mode drivers take: reverse mode against the
    // batched parameter shift it replaced, and their largest
    // component disagreement.
    {
        const double shiftMs = timeMs([&] {
            batched.gradientStatevector(params, svEstimate);
        });
        const double adjointMs =
            timeMs([&] { batched.gradientAdjoint(params); });
        const double maxDelta =
            maxAbsDiff(batched.gradientAdjoint(params),
                       batched.gradientStatevector(params, svEstimate));
        std::printf("%-10s %12.3f %12.3f %8.2fx  (shift ms, adjoint "
                    "ms; max |dg| %.1e)\n",
                    "ideal_adjoint", shiftMs, adjointMs,
                    shiftMs / adjointMs, maxDelta);
        json.row("ideal_adjoint", {{"shift_ms", shiftMs},
                                   {"adjoint_ms", adjointMs},
                                   {"speedup", shiftMs / adjointMs},
                                   {"max_abs_dg", maxDelta}});
    }

    auto dmMake = [&] {
        return densityMatrixModel(ansatz.nQubits, noise).make();
    };
    auto dmEnergy = [&](SimBackend &b, size_t) {
        return b.expectation(prob.hamiltonian);
    };
    timeRow(
        "noisy",
        [&] {
            serially([&] { batched.gradient(params, dmMake, dmEnergy); });
        },
        [&] { batched.gradientNoisy(params, noise); });

    SamplingEngine samplerEngine(prob.hamiltonian, sampling);
    const uint64_t gradSeed = deriveSeed(0x6772); // "gr"
    auto sampledEnergy = [&](SimBackend &b, size_t task) {
        Rng rng(deriveStream(gradSeed, task));
        return samplerEngine.measure(b, rng).energy;
    };
    auto sampledEstimate = [&](const Statevector &psi, size_t task) {
        Rng rng(deriveStream(gradSeed, task));
        return samplerEngine.measure(psi, rng).energy;
    };
    timeRow(
        "sampled",
        [&] {
            serially(
                [&] { batched.gradient(params, svMake, sampledEnergy); });
        },
        [&] {
            batched.gradientStatevector(params, sampledEstimate);
        });

    // Gradient quality: sampled estimates against the analytic
    // parameter-shift gradient as the shot budget grows.
    qccbench::rule();
    std::printf("analytic vs sampled gradient (max |delta| over "
                "components)\n");
    std::vector<double> exact =
        batched.gradientStatevector(params, svEstimate);
    const std::vector<uint64_t> budgets =
        qccbench::fullMode()
            ? std::vector<uint64_t>{1024, 8192, 65536, 262144}
            : std::vector<uint64_t>{1024, 8192, 65536};
    for (uint64_t shots : budgets) {
        SamplingOptions so;
        so.shots = shots;
        SamplingEngine se(prob.hamiltonian, so);
        auto est = [&](const Statevector &psi, size_t task) {
            Rng rng(deriveStream(deriveSeed(shots), task));
            return se.measure(psi, rng).energy;
        };
        std::vector<double> g =
            batched.gradientStatevector(params, est);
        const double err = maxAbsDiff(g, exact);
        std::printf("  shots=%-8llu max_err=%.3e\n",
                    (unsigned long long)shots, err);
        json.row("sampled_shots_" + std::to_string(shots),
                 {{"shots", double(shots)}, {"max_err", err}});
    }

    // Full mode: a 14-qubit row (NH3, 20%-compressed UCCSD) where
    // the buffer-pooled per-task statevectors and the thread fan-out
    // actually have 2^14 amplitudes to chew on. One rep per variant:
    // the serial baseline replays every prefix from scratch.
    if (qccbench::fullMode()) {
        qccbench::rule();
        std::printf("QCC_FULL: 14-qubit gradient (NH3, 20%% "
                    "compressed)\n");
        const auto &bigEntry = benchmarkMolecule("NH3");
        MolecularProblem big = buildMolecularProblem(
            bigEntry, bigEntry.equilibriumBond);
        Ansatz bigFull =
            buildUccsd(big.nSpatial, big.nElectrons);
        Ansatz bigAnsatz =
            compressAnsatz(bigFull, big.hamiltonian, 0.2).ansatz;
        std::vector<double> bigParams(bigAnsatz.nParams);
        for (size_t i = 0; i < bigParams.size(); ++i)
            bigParams[i] = 0.05 * double(i + 1);
        ExpectationEngine bigEe(big.hamiltonian);
        ParameterShiftEngine bigBatched(big.hamiltonian, bigAnsatz);
        auto bigEstimate = [&](const Statevector &psi, size_t) {
            return bigEe.energy(psi);
        };
        auto bigMake = [&] {
            return statevectorModel(bigAnsatz.nQubits).make();
        };
        auto bigEnergy = [&](SimBackend &b, size_t) {
            return bigEe.energy(b);
        };
        std::printf("%u qubits, %u params, %zu shifted evaluations "
                    "per gradient\n",
                    bigAnsatz.nQubits, bigAnsatz.nParams,
                    bigBatched.numShiftedEvaluations());
        auto t0 = clock_type::now();
        serially(
            [&] { bigBatched.gradient(bigParams, bigMake, bigEnergy); });
        const double serialMs = millisSince(t0);
        t0 = clock_type::now();
        bigBatched.gradientStatevector(bigParams, bigEstimate);
        const double batchedMs = millisSince(t0);
        std::printf("%-10s %12.3f %12.3f %8.2fx\n", "ideal_14q",
                    serialMs, batchedMs, serialMs / batchedMs);
        json.row("ideal_14q", {{"serial_ms", serialMs},
                               {"batched_ms", batchedMs},
                               {"speedup", serialMs / batchedMs}});
    }

    json.write();
    return 0;
}
