/**
 * @file
 * Measurement grouping: partition a Hamiltonian's Pauli strings into
 * qubit-wise commuting (QWC) families that can be estimated from one
 * measurement setting each. This is the inner-loop optimization the
 * paper cites as orthogonal/complementary to its techniques
 * (Section VIII-A) — fewer circuit executions per energy evaluation.
 */

#ifndef QCC_PAULI_GROUPING_HH
#define QCC_PAULI_GROUPING_HH

#include <complex>
#include <functional>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "pauli/pauli_sum.hh"

namespace qcc {

/** One measurement family. */
struct MeasurementGroup
{
    /** Indices into the source sum's term list. */
    std::vector<size_t> termIndices;
    /**
     * The family's shared measurement basis: on each qubit, the
     * unique non-identity operator among members (I where all
     * members are I).
     */
    PauliString basis;
};

/**
 * True if two strings are qubit-wise commuting: on every qubit the
 * operators are equal or at least one is the identity.
 */
bool qubitWiseCommute(const PauliString &a, const PauliString &b);

/**
 * Greedy first-fit QWC grouping (the standard baseline grouping
 * heuristic). Terms are scanned in descending |coefficient| order
 * and placed in the first compatible family.
 */
std::vector<MeasurementGroup> groupQubitWise(const PauliSum &h);

/**
 * Sorted-insertion QWC grouping: terms are scanned in descending
 * Pauli-weight order (heaviest supports first, |coefficient| as the
 * tie-break) and placed in the first compatible family whose basis
 * already covers the term's support — falling back to the first
 * compatible family. Wide strings seed the families before narrow
 * strings fill them, which needs fewer measurement settings than
 * greedy first-fit on the larger Table I Hamiltonians (HF, BeH2,
 * BH3; cf. the sorted-insertion heuristic of arXiv:1908.06942).
 */
std::vector<MeasurementGroup> groupQubitWiseSorted(const PauliSum &h);

/**
 * Graph-coloring QWC grouping: build the conflict graph (one vertex
 * per term, an edge wherever two strings are not qubit-wise
 * commuting) and color it with the DSATUR heuristic — repeatedly
 * color the vertex with the most distinctly-colored neighbors,
 * breaking ties by conflict degree then term index, with the
 * smallest feasible color. Color classes are the measurement
 * families (pairwise QWC by construction, so the shared basis is
 * well defined). DSATUR's global view of the conflict structure
 * needs fewer settings than one-pass insertion orders on the larger
 * Table I Hamiltonians (cf. the coloring formulation of
 * arXiv:1907.03358 / arXiv:1908.06942); the O(n^2) bitset
 * construction is immaterial next to one VQE iteration.
 */
std::vector<MeasurementGroup> groupQubitWiseColoring(const PauliSum &h);

/**
 * A pluggable grouping strategy: PauliSum -> QWC measurement
 * families. The api-layer GroupingRegistry maps strategy names onto
 * these; a null GroupingFn always means the greedy first-fit
 * baseline.
 */
using GroupingFn =
    std::function<std::vector<MeasurementGroup>(const PauliSum &)>;

/** Number of measurement settings saved vs. one-term-per-setting. */
double groupingReduction(const PauliSum &h,
                         const std::vector<MeasurementGroup> &groups);

/**
 * Single-qubit rotations diagonalizing a family's measurement basis:
 * the (qubit, operator) pairs where the basis is X or Y. Applying H
 * (for X) or H S-dagger (for Y) on those qubits maps every member of
 * the family to a Z-string on its own support, which is what lets an
 * expectation engine evaluate the whole family in one probability
 * sweep (see vqe/expectation_engine.hh).
 */
std::vector<std::pair<unsigned, PauliOp>>
basisChangeOps(const PauliString &basis);

/**
 * The 2x2 unitary conjugating op to Z exactly (no residual sign):
 * H for X, the fused H * Sdg for Y. `op` must be X or Y. This is the
 * matrix form of one basisChangeOps entry, used by the shot-sampling
 * path on both simulators.
 */
void basisChangeMatrix(PauliOp op, std::complex<double> u[4]);

/**
 * Gate-level measurement-basis rotation for a family: the circuit a
 * hardware run would append before the terminal Z-basis readout
 * (H on X qubits, Sdg then H on Y qubits). Applying it maps every
 * member of the family to a Z-string on its own support.
 */
Circuit basisChangeCircuit(const PauliString &basis);

} // namespace qcc

#endif // QCC_PAULI_GROUPING_HH
