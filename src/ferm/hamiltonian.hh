/**
 * @file
 * Qubit Hamiltonian assembly: MO integrals -> second-quantized
 * spin-orbital Hamiltonian -> Jordan-Wigner Pauli sum. Also provides
 * the Hartree-Fock occupation mask and an end-to-end convenience
 * driver (molecule -> qubit Hamiltonian) used by examples and benches.
 */

#ifndef QCC_FERM_HAMILTONIAN_HH
#define QCC_FERM_HAMILTONIAN_HH

#include <cstdint>

#include "chem/mo_integrals.hh"
#include "chem/molecules.hh"
#include "ferm/active_space.hh"
#include "pauli/pauli_sum.hh"

namespace qcc {

/**
 * Build the qubit Hamiltonian for the given active-space integrals
 * with block-spin Jordan-Wigner encoding: spin orbital p_alpha maps
 * to qubit p, p_beta to qubit p + nOrb.
 *
 *   H = E_core + sum_pq h_pq a+_ps a_qs
 *       + 1/2 sum_pqrs (pq|rs) a+_ps a+_rt a_st a_qs
 */
PauliSum buildQubitHamiltonian(const MoIntegrals &act);

/**
 * Hartree-Fock occupation bitmask for n_electrons in 2*n_spatial
 * block-spin qubits: the n_electrons/2 lowest alpha and beta
 * orbitals occupied.
 */
uint64_t hartreeFockMask(unsigned n_spatial, unsigned n_electrons);

/** Everything the VQE stack needs about one molecular problem. */
struct MolecularProblem
{
    PauliSum hamiltonian;          ///< qubit Hamiltonian
    unsigned nSpatial = 0;         ///< active spatial orbitals
    unsigned nElectrons = 0;       ///< active electrons
    unsigned nQubits = 0;          ///< 2 * nSpatial
    double hartreeFockEnergy = 0;  ///< total RHF energy (Hartree)
    ActiveSpaceResult activeSpace; ///< reduction bookkeeping
};

/**
 * Full pipeline for a catalog molecule at a bond length: geometry ->
 * STO-nG basis (n_gauss 1-6) -> integrals -> RHF -> MO transform ->
 * active space -> Jordan-Wigner.
 */
MolecularProblem buildMolecularProblem(const BenchmarkMolecule &entry,
                                       double bond_angstrom,
                                       int n_gauss = 3);

} // namespace qcc

#endif // QCC_FERM_HAMILTONIAN_HH
