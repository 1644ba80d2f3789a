/**
 * @file
 * MolecularProblemStore — memoized molecular-problem construction.
 * Building a MolecularProblem (geometry -> integrals -> RHF -> MO
 * transform -> active space -> Jordan-Wigner) is pure in its inputs
 * (catalog entry, bond length, basis size) and is by far the dominant
 * per-job cost once circuits hit the compile cache, so it is worth
 * computing at most once per process — and, with the persistent tier
 * enabled, at most once ever per machine.
 *
 * Two levels:
 *
 *  - an in-process single-flight memo: concurrent callers of the same
 *    problem (sweep workers fanning out over seeds) share one build
 *    instead of redundantly integrating in parallel;
 *  - an on-disk tier under `<store>/problems/` (same configuration,
 *    format discipline, and corruption tolerance as the circuit
 *    store: magic + version + full key + checksum, any invalid entry
 *    deleted and rebuilt).
 *
 * The disk tier obeys QCC_STORE_DIR / QCC_STORE / setStoreDir (see
 * store.hh); the in-process memo is always on — it changes wall time,
 * never results, because builds are deterministic.
 */

#ifndef QCC_STORE_PROBLEM_STORE_HH
#define QCC_STORE_PROBLEM_STORE_HH

#include <future>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ferm/hamiltonian.hh"

namespace qcc {

/** Two-level molecular-problem cache (see file comment). */
class MolecularProblemStore
{
  public:
    /**
     * The problem for (entry, bond, n_gauss 1-6), from the memo, the
     * disk tier, or a fresh build (in that order); fresh builds are
     * written through to disk when the store is enabled. Safe to call
     * concurrently; callers racing on one key share a single build.
     * Each call traces one `chem.problem` span whose `source` arg
     * names the tier that served it (memo, disk or build).
     */
    MolecularProblem get(const BenchmarkMolecule &entry,
                         double bond_angstrom, int n_gauss = 3);

    /**
     * Drop the in-process memo (cold-cache baselines). In-flight
     * builds complete for their waiters; the disk tier is untouched.
     */
    void clearMemory();

    /** Resident memo entries (tests). */
    size_t memoSize() const;

    /**
     * Disk path the entry for (entry, bond, n_gauss) would use, or
     * "" when the store is disabled. Exposed for tests (corruption
     * injection) and debugging.
     */
    std::string pathFor(const BenchmarkMolecule &entry,
                        double bond_angstrom, int n_gauss = 3) const;

  private:
    mutable std::mutex mtx;
    std::unordered_map<std::string,
                       std::shared_future<MolecularProblem>>
        memo;
};

/** Process-wide store used by api::Experiment and the sweep engine. */
MolecularProblemStore &globalProblemStore();

/**
 * Serialize/deserialize one problem entry (payload format documented
 * in docs/caching.md; checksum included). Exposed for tests; false on
 * any validation failure.
 */
std::string serializeMolecularProblem(const std::string &key_bytes,
                                      const MolecularProblem &mp);
bool deserializeMolecularProblem(const std::string &bytes,
                                 const std::string &key_bytes,
                                 MolecularProblem &out);

/** Current on-disk format version of problem entries. */
uint32_t problemStoreVersion();

} // namespace qcc

#endif // QCC_STORE_PROBLEM_STORE_HH
