/**
 * @file
 * One- and two-electron Gaussian integrals over a contracted basis,
 * via the McMurchie-Davidson scheme (Hermite expansion coefficients
 * plus Hermite Coulomb tensors with the Boys function). Produces the
 * AO-basis overlap, kinetic, nuclear-attraction matrices and the full
 * (ij|kl) electron-repulsion tensor with 8-fold symmetry.
 *
 * Each basis-function pair's primitive data (exponent sum, product
 * center, coefficients, Hermite E rows) is built once and read by
 * every quartet; the Hermite and Boys work runs in fixed-size stack
 * arrays sized for shells up to l = 1. Every expression keeps the
 * evaluation order of the seed's per-call loop, which lives on in
 * tests/chem_reference.hh: Integrals.MatchTheReferenceBitForBit
 * requires S, T, V and the ERI tensor to equal it bit for bit.
 */

#ifndef QCC_CHEM_INTEGRALS_HH
#define QCC_CHEM_INTEGRALS_HH

#include <vector>

#include "chem/basis.hh"
#include "chem/molecule.hh"
#include "common/matrix.hh"

namespace qcc {

/** AO-basis integral tables. */
struct IntegralTables
{
    size_t nbf = 0;
    Matrix s;  ///< overlap
    Matrix t;  ///< kinetic energy
    Matrix v;  ///< nuclear attraction (includes -Z factors)
    std::vector<double> eri; ///< chemist-notation (ij|kl), dense

    double
    eriAt(size_t i, size_t j, size_t k, size_t l) const
    {
        return eri[((i * nbf + j) * nbf + k) * nbf + l];
    }
};

/** Compute all AO integrals for the basis/molecule pair. */
IntegralTables computeIntegrals(const BasisSet &basis,
                                const Molecule &mol);

/**
 * Hermite expansion coefficients E_t^{ij} (t = 0..i+j) for the 1D
 * product of Gaussians with exponents a, b separated by ab = Ax - Bx.
 * Exposed for unit testing.
 */
std::vector<double> hermiteE(int i, int j, double a, double b,
                             double ab);

} // namespace qcc

#endif // QCC_CHEM_INTEGRALS_HH
