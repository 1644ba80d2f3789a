/**
 * @file
 * Contracted Gaussian basis sets built from the STO-nG table and the
 * element zeta table. A shell is a contraction of primitives sharing a
 * center and angular momentum; basis functions are its Cartesian
 * components (1 for s, 3 for p).
 */

#ifndef QCC_CHEM_BASIS_HH
#define QCC_CHEM_BASIS_HH

#include <array>
#include <vector>

#include "chem/molecule.hh"

namespace qcc {

/** Contracted Gaussian shell. */
struct Shell
{
    int l;                        ///< angular momentum (0 or 1)
    std::array<double, 3> center; ///< position (Bohr)
    std::vector<double> alpha;    ///< primitive exponents
    std::vector<double> coeff;    ///< contraction coefficients over
                                  ///< 3D-normalized primitives
    int atomIndex;                ///< owning atom
};

/** One Cartesian basis function: a shell plus (lx, ly, lz). */
struct BasisFunction
{
    int shell;  ///< index into BasisSet::shells
    int lx, ly, lz;
};

/** The full basis for a molecule. */
class BasisSet
{
  public:
    /**
     * Build the STO-nG basis for a molecule, 1 <= n_gauss <= 6
     * (default 3, i.e. STO-3G as used in the paper's evaluation).
     */
    static BasisSet stoNg(const Molecule &mol, int n_gauss = 3);

    size_t size() const { return funcs.size(); }
    const std::vector<Shell> &shells() const { return shellList; }
    const std::vector<BasisFunction> &functions() const { return funcs; }

  private:
    std::vector<Shell> shellList;
    std::vector<BasisFunction> funcs;
};

/**
 * 3D normalization constant of a primitive Cartesian Gaussian
 * x^lx y^ly z^lz exp(-a r^2).
 */
double primitiveNorm(double a, int lx, int ly, int lz);

} // namespace qcc

#endif // QCC_CHEM_BASIS_HH
