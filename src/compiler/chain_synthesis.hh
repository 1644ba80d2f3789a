/**
 * @file
 * Traditional Pauli-string synthesis (Section II-A / Figure 2): a
 * basis-change layer (H for X, RX(pi/2) for Y), a CNOT chain over the
 * non-identity qubits in index order, the RZ rotation on the last
 * qubit, and the mirrored un-compute. This is the uniform plan used
 * by conventional compilers (e.g. Qiskit) and the input circuit for
 * the SABRE baseline; it also defines the paper's "original" gate and
 * CNOT counts (Table I).
 */

#ifndef QCC_COMPILER_CHAIN_SYNTHESIS_HH
#define QCC_COMPILER_CHAIN_SYNTHESIS_HH

#include <vector>

#include "ansatz/uccsd.hh"
#include "circuit/circuit.hh"
#include "pauli/pauli.hh"

namespace qcc {

/**
 * Chain-synthesized circuit for exp(i theta P) on n logical qubits.
 * Identity strings contribute only a global phase and synthesize to
 * an empty circuit.
 */
Circuit pauliRotationChain(const PauliString &p, double theta,
                           unsigned n_qubits);

/**
 * Chain-synthesize a whole ansatz program, optionally prefixed by the
 * Hartree-Fock X-gate preparation layer. The per-term subcircuits
 * are synthesized on the common/parallel thread pool and stitched in
 * program order (each term's plan is independent of every other's,
 * so only the final concatenation is ordered): the circuit is the
 * same at any lane cap.
 */
Circuit synthesizeChainCircuit(const Ansatz &ansatz,
                               const std::vector<double> &params,
                               bool include_hf_prep = true);

/** CNOT count of the chain plan without materializing the circuit. */
size_t chainCnotCount(const Ansatz &ansatz);

} // namespace qcc

#endif // QCC_COMPILER_CHAIN_SYNTHESIS_HH
