/**
 * @file
 * Grouped Hamiltonian-expectation engine for the VQE inner loop.
 * Construction partitions the Pauli sum into qubit-wise-commuting
 * measurement families (pauli/grouping) and compiles a cost-aware
 * evaluation plan per family:
 *
 *  - every diagonal (Z/I-only) term joins one shared family that is
 *    evaluated in a single probability sweep directly on the state —
 *    no copy, no basis change;
 *  - an off-diagonal family whose member count amortizes its basis
 *    rotations is rotated into the family's shared eigenbasis one
 *    cache block at a time and swept once for all members
 *    (rotatedGroupExpectation, sim/fusion.hh);
 *  - small families fall back to the pair-compacted per-term
 *    expectation kernel, which is the cheapest option for dense
 *    statevector simulation when a family holds only a few terms.
 *
 * This mirrors the measurement-grouping economics the paper cites
 * (Section VIII-A — fewer settings per energy evaluation) while
 * never losing to the plain termwise sweep. Evaluation rotates into
 * thread-local scratch buffers, so steady-state calls perform no
 * O(2^n) allocations and one engine can serve concurrent gradient
 * tasks (energy() is const and thread-safe).
 */

#ifndef QCC_VQE_EXPECTATION_ENGINE_HH
#define QCC_VQE_EXPECTATION_ENGINE_HH

#include <cstdint>
#include <vector>

#include "pauli/grouping.hh"
#include "pauli/pauli_sum.hh"
#include "sim/backend.hh"
#include "sim/statevector.hh"

namespace qcc {

/** Precompiled grouped evaluator for one Hamiltonian. */
class ExpectationEngine
{
  public:
    /**
     * Compile the evaluation plan, partitioning off-diagonal terms
     * with `grouping` (null = the greedy first-fit baseline).
     */
    explicit ExpectationEngine(const PauliSum &h,
                               const GroupingFn &grouping = {});

    /** <psi| H |psi> via the compiled per-family plans. */
    double energy(const Statevector &psi) const;

    /**
     * Energy in a backend's current state: the grouped statevector
     * path when available, the backend's own expectation otherwise
     * (a density matrix has no per-family pure-state sweep).
     */
    double energy(const SimBackend &backend) const;

    /** Evaluation units: swept families plus one per termwise term. */
    size_t numGroups() const;
    /** Families evaluated by a shared (direct or rotated) sweep. */
    size_t numSweptFamilies() const { return plans.size(); }
    size_t numTerms() const { return ham.numTerms(); }
    const PauliSum &hamiltonian() const { return ham; }

  private:
    /** One family evaluated by a single sweep. */
    struct GroupPlan
    {
        /** (qubit, X|Y) rotations mapping the basis to Z-strings
         *  (empty for the diagonal family: sweep psi directly). */
        std::vector<std::pair<unsigned, PauliOp>> rotations;
        std::vector<double> weights;  ///< real term coefficients
        std::vector<uint64_t> zMasks; ///< post-rotation Z supports
    };

    /** A term cheaper to evaluate with the per-term pair kernel. */
    struct TermPlan
    {
        double weight;
        uint64_t x, z;
    };

    PauliSum ham;
    unsigned nQubits;
    std::vector<GroupPlan> plans;
    std::vector<TermPlan> termwise;
};

} // namespace qcc

#endif // QCC_VQE_EXPECTATION_ENGINE_HH
