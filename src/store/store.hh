/**
 * @file
 * Persistent-store configuration — the shared substrate of the
 * on-disk cache tier (docs/caching.md documents the full
 * architecture). The two stores in this directory —
 * DiskCircuitStore (compiled circuits, keyed by the CircuitCache
 * content hash) and MolecularProblemStore (integrals/HF artifacts,
 * keyed by the chemistry inputs) — both resolve their root directory
 * and on/off switch through this one configuration:
 *
 *  - `QCC_STORE_DIR=<dir>` names the store root and enables the
 *    tier; entries land under `<dir>/circuits/` and
 *    `<dir>/problems/`.
 *  - `QCC_STORE=0` force-disables the tier even when a directory is
 *    configured (kill switch for A/B runs and debugging).
 *  - setStoreDir() overrides the environment at runtime (benches and
 *    tests point the tier at scratch directories; "" disables).
 *
 * The store is a cache, never a source of truth: every consumer
 * treats a missing, truncated, version-skewed, or corrupted entry as
 * a miss and recomputes. Deleting the store directory is always
 * safe.
 *
 * Both stores count their traffic in the metrics registry
 * (obs/metrics.hh) under `store.circuit.*` and `store.problem.*`.
 * "Bad entries" are files that failed validation — wrong
 * magic/version/checksum, truncation, key mismatch after a
 * filename-hash collision — all of which demote to a rebuild, never
 * an error.
 */

#ifndef QCC_STORE_STORE_HH
#define QCC_STORE_STORE_HH

#include <string>

namespace qcc {

/**
 * Active store root: the runtime override when one was set, else
 * `QCC_STORE_DIR`, else "". Does not imply the tier is on — check
 * storeEnabled().
 */
std::string storeDir();

/**
 * True when the persistent tier is active: a root directory is
 * configured and neither `QCC_STORE=0` nor setStoreEnabled(false)
 * has disabled it.
 */
bool storeEnabled();

/**
 * Point the store at `dir` for the rest of the process, overriding
 * `QCC_STORE_DIR`; "" disables the tier (and clears the override
 * back to "no directory", not back to the environment).
 */
void setStoreDir(const std::string &dir);

/** Runtime master switch, overriding `QCC_STORE`. */
void setStoreEnabled(bool enabled);

/**
 * Create `dir` (and parents) if needed; false when the directory
 * cannot be created. Never throws.
 */
bool ensureDirectory(const std::string &dir);

} // namespace qcc

#endif // QCC_STORE_STORE_HH
