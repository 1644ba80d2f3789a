/**
 * @file
 * Matrix-free Lanczos ground-state solver. The paper's "Ground State"
 * reference curves are the exact minimum eigenvalues of the qubit
 * Hamiltonians; this solver computes them without materializing the
 * 2^n x 2^n matrix: H v takes one sweep per distinct X mask
 * (kern::XMaskGroups).
 */

#ifndef QCC_SIM_LANCZOS_HH
#define QCC_SIM_LANCZOS_HH

#include <cstdint>

#include "pauli/pauli_sum.hh"

namespace qcc {

/** Options for the Lanczos iteration. */
struct LanczosOptions
{
    int maxIter = 300;        ///< Krylov dimension cap
    double tol = 1e-10;       ///< Ritz-value convergence tolerance
    uint64_t seed = 12345;    ///< random start vector seed
};

/**
 * Minimum eigenvalue of a Hermitian Pauli sum via plain three-term
 * Lanczos with a random start vector. Loss of orthogonality can clone
 * converged Ritz values but cannot produce a spurious value below the
 * true minimum, so the returned ground energy is reliable.
 */
double lanczosGroundEnergy(const PauliSum &h,
                           const LanczosOptions &opts = {});

/**
 * Minimum eigenvalue of the symmetric tridiagonal matrix with the
 * given diagonal and off-diagonal entries (bisection on the Sturm
 * sequence). Exposed for testing.
 */
double tridiagMinEigen(const std::vector<double> &diag,
                       const std::vector<double> &off);

} // namespace qcc

#endif // QCC_SIM_LANCZOS_HH
