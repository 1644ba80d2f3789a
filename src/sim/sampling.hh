/**
 * @file
 * Shot-based Hamiltonian estimation — the NISQ measurement model the
 * ideal expectation path bypasses. Construction partitions the Pauli
 * sum into qubit-wise-commuting measurement families (pauli/grouping)
 * and fixes a per-family shot allocation proportional to the family's
 * total |coefficient| weight, with a floor of 16 shots per family
 * (the shot-frugal heuristic: families that move the energy most get
 * measured most; cf. the grouped measurement-cost analyses of
 * arXiv:2503.02778). Identity terms are an exact constant and consume
 * no shots.
 *
 * measure() then samples each family's outcome distribution through
 * SimBackend::measurementProbabilities with a caller-supplied seeded
 * Rng, estimates every member term from the family's shared shot
 * record, and returns the energy with its statistical variance and
 * the shots actually spent. The draw order is fixed (family by
 * family, shot by shot), so a given (state, seed, options) triple
 * reproduces bit-for-bit.
 */

#ifndef QCC_SIM_SAMPLING_HH
#define QCC_SIM_SAMPLING_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "pauli/grouping.hh"
#include "pauli/pauli_sum.hh"
#include "sim/backend.hh"
#include "sim/statevector.hh"

namespace qcc {

/** Shot budget and family partition for one energy estimate. */
struct SamplingOptions
{
    /**
     * Total shots per energy estimate, split across the measurement
     * families. A spec's `shots` field sets it.
     */
    uint64_t shots = 8192;

    /**
     * Measurement-family partition strategy (null = greedy
     * first-fit). The api-layer GroupingRegistry resolves strategy
     * names ("greedy", "sorted-insertion") onto this hook.
     */
    GroupingFn grouping;
};

/** One sampled energy estimate. */
struct SampledEnergy
{
    double energy = 0.0;   ///< shot-estimated <H>
    /**
     * Variance of the energy estimator: the sum over families of the
     * sample variance of the family observable divided by its shots.
     * Zero only when every sampled family is deterministic.
     */
    double variance = 0.0;
    uint64_t shots = 0;    ///< shots actually spent
};

/**
 * Precompiled shot-sampling estimator for one Hamiltonian. Immutable
 * after construction and safe to share across threads; each measure()
 * call works entirely in locals plus the caller's Rng.
 */
class SamplingEngine
{
  public:
    explicit SamplingEngine(const PauliSum &h,
                            SamplingOptions opts = {});

    /**
     * Estimate <H> in the backend's current (already prepared)
     * state. Draws every family's shots from the backend's outcome
     * distribution using `rng`; consumes exactly the same rng stream
     * for the same engine regardless of threading.
     */
    SampledEnergy measure(SimBackend &backend, Rng &rng) const;

    /**
     * Same estimate directly from a bare statevector (the gradient
     * engine's prefix-shared states never live in a backend).
     */
    SampledEnergy measure(const Statevector &psi, Rng &rng) const;

    /** Measurement families holding at least one sampled term. */
    size_t numGroups() const { return groups.size(); }

    /** Shots assigned to each family (allocation, not spend). */
    const std::vector<uint64_t> &shotAllocation() const
    {
        return allocation;
    }

    /** Exact contribution of identity terms (never sampled). */
    double constantOffset() const { return offset; }

    const SamplingOptions &options() const { return opts; }
    const PauliSum &hamiltonian() const { return ham; }

  private:
    using ProbabilityFn = std::function<std::vector<double>(
        const std::vector<std::pair<unsigned, PauliOp>> &)>;

    SampledEnergy measureFrom(const ProbabilityFn &probabilities,
                              Rng &rng) const;

    /** One QWC family compiled for sampling. */
    struct SampledGroup
    {
        /** Measurement-basis rotations shared by every member. */
        std::vector<std::pair<unsigned, PauliOp>> rotations;
        std::vector<double> weights;  ///< real term coefficients
        std::vector<uint64_t> zMasks; ///< post-rotation Z supports
        double absWeight = 0.0;       ///< sum of |weights|
    };

    PauliSum ham;
    SamplingOptions opts;
    unsigned nQubits;
    double offset = 0.0;
    std::vector<SampledGroup> groups;
    std::vector<uint64_t> allocation;
};

} // namespace qcc

#endif // QCC_SIM_SAMPLING_HH
