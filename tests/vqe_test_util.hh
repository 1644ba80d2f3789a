/**
 * @file
 * Shared VQE test plumbing: one place for the strategy-injected
 * driver construction the suites repeat (the non-deprecated
 * replacement for the deleted runVqe wrappers), so a change to
 * EstimationConfig or driver construction is edited once, and the
 * finite-difference gradient the gradient tests cross-check against.
 */

#ifndef QCC_TESTS_VQE_TEST_UTIL_HH
#define QCC_TESTS_VQE_TEST_UTIL_HH

#include <memory>
#include <vector>

#include "vqe/driver.hh"
#include "vqe/estimation.hh"
#include "vqe/gradient.hh"

namespace qcc_test {

/** Drive h/ansatz through a named estimation mode. */
inline qcc::VqeResult
minimizeMode(const char *mode, const qcc::PauliSum &h,
             const qcc::Ansatz &a, qcc::VqeDriverOptions opts = {})
{
    qcc::VqeDriver driver(
        h, a, opts,
        qcc::makeEstimationStrategy(
            mode, qcc::EstimationConfig{&h, opts.noise,
                                        opts.sampling, {}}));
    return driver.run();
}

/** Analytic ideal-mode minimization (the old runVqe default). */
inline qcc::VqeResult
minimizeIdeal(const qcc::PauliSum &h, const qcc::Ansatz &a)
{
    return minimizeMode("ideal", h, a);
}

/**
 * Central finite-difference gradient evaluated through the same
 * backend/energy plumbing as the gradient engine: the independent
 * cross-check the gradient tests compare the shift rule against.
 */
inline std::vector<double>
finiteDifferenceGradient(const qcc::Ansatz &ansatz,
                         const std::vector<double> &params,
                         const qcc::BackendFactory &make,
                         const qcc::StateEnergyFn &energy,
                         double step = 1e-5)
{
    std::vector<double> grad(params.size());
    std::vector<double> x = params;
    for (size_t k = 0; k < params.size(); ++k) {
        const double orig = x[k];
        double e[2];
        for (int s = 0; s < 2; ++s) {
            x[k] = orig + (s == 0 ? step : -step);
            std::unique_ptr<qcc::SimBackend> backend = make();
            backend->applyAnsatz(ansatz, x);
            e[s] = energy(*backend, 2 * k + size_t(s));
        }
        x[k] = orig;
        grad[k] = (e[0] - e[1]) / (2.0 * step);
    }
    return grad;
}

} // namespace qcc_test

#endif // QCC_TESTS_VQE_TEST_UTIL_HH
