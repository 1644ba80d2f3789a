/**
 * @file
 * Trotterized Hamiltonian time evolution — the second workload class
 * next to ground-state VQE. A product-formula approximation of
 * exp(-iHt) for H = sum_j w_j P_j is just an ordered sequence of
 * Pauli rotations, which is exactly the Ansatz IR the whole stack
 * already compiles, caches, routes, and simulates: one Trotter
 * program is an Ansatz with a single parameter theta_0 = dt = t/r
 * and per-rotation coefficients -w_j (our convention applies
 * exp(i theta coeff P), so coeff = -w_j yields exp(-i w_j dt P)).
 * Changing t rebinds angles on the memoized circuit structure;
 * changing r or the order changes the structure (and the cache key).
 *
 * Term order within a step follows the spec's measurement grouping:
 * rotations from one qubit-wise-commuting family share measurement
 * bases, so adjacent terms hand the peephole pass cancellable basis
 * sandwiches — the same co-optimization the paper applies to VQE
 * ansatz circuits, reused verbatim on dynamics.
 *
 * The exact reference exp(-iHt)|basis> for fidelity checks is a
 * scaled Taylor expm-multiply over the kern::XMaskGroups matvec, one
 * sweep per distinct X mask (no dense matrix is ever formed), capped
 * at kMaxExactEvolveQubits.
 */

#ifndef QCC_EVOLVE_TROTTER_HH
#define QCC_EVOLVE_TROTTER_HH

#include <cstdint>

#include "ansatz/uccsd.hh"
#include "pauli/grouping.hh"
#include "pauli/pauli_sum.hh"
#include "sim/statevector.hh"

namespace qcc {

/** Largest width the exact Taylor reference will attempt (LiH=12). */
constexpr unsigned kMaxExactEvolveQubits = 12;

/** A Trotter program plus its construction bookkeeping. */
struct TrotterBuild
{
    /** The program: nParams == 1, theta_0 = dt = t / steps. */
    Ansatz ansatz;

    size_t termsPerStep = 0;  ///< non-identity rotations per step
    size_t identityTerms = 0; ///< dropped (global phase only)
    int steps = 1;
    int order = 1;
};

/**
 * Build the order-1 (Lie-Trotter) or order-2 (Strang) product
 * formula for exp(-iHt) as a one-parameter Ansatz: `steps`
 * repetitions of the per-step term sequence, rotation coefficients
 * -w_j (order 1) or -w_j/2 forward then reversed (order 2), with
 * theta_0 = t/steps to be bound at evaluation time. `hf_mask` seeds
 * the initial state exactly as in the VQE programs. Identity terms
 * contribute only a global phase and are dropped (counted in the
 * result). `grouping` fixes the within-step term order (family by
 * family); null means greedy first-fit. Throws std::invalid_argument
 * on steps < 1 or an order other than 1/2.
 */
TrotterBuild buildTrotterAnsatz(const PauliSum &h, uint64_t hf_mask,
                                int steps, int order,
                                const GroupingFn &grouping = nullptr);

/**
 * Exact exp(-iHt)|basis> by scaled-and-squared Taylor expm-multiply:
 * t is sliced so each slice has ||H dt|| <= 1 in the L1 coefficient
 * norm, and each slice sums the Taylor series with one H*v
 * (kern::XMaskGroups) per order until the term norm vanishes at
 * double precision. Deterministic, simulation-grade accurate
 * (~1e-14), O(2^n) memory. Throws std::invalid_argument above
 * kMaxExactEvolveQubits.
 */
Statevector exactEvolvedState(const PauliSum &h, unsigned n_qubits,
                              uint64_t basis, double time);

/** |<a|b>|^2 (states assumed normalized). */
double stateFidelity(const Statevector &a, const Statevector &b);

/** Serialized summary of one time-evolution run (kind "evolve"). */
struct TimeEvolutionResult
{
    bool present = false;

    double time = 0.0; ///< total evolution time t
    int steps = 0;     ///< Trotter step count r
    int order = 1;     ///< product-formula order (1 or 2)

    size_t termsPerStep = 0;  ///< rotations per step
    size_t identityTerms = 0; ///< identity terms dropped

    double initialEnergy = 0.0; ///< <HF| H |HF>
    double finalEnergy = 0.0;   ///< <psi(t)| H |psi(t)>

    /** |<exact|trotter>|^2 vs the Taylor reference (small n). */
    double fidelity = 0.0;
    bool haveFidelity = false;

    /** Chain-plan cost of ONE Trotter step (no HF prep). */
    size_t stepGates = 0;
    size_t stepCnots = 0;
    size_t stepDepth = 0;
};

} // namespace qcc

#endif // QCC_EVOLVE_TROTTER_HH
