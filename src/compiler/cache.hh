/**
 * @file
 * Content-hash keyed circuit cache for the compiler pipeline. The
 * synthesis flows (chain and Merge-to-Root) produce a gate structure
 * that depends only on the Pauli strings, the device, and the pass
 * configuration — the rotation angles enter through exactly one RZ
 * per non-identity string. The cache therefore memoizes the compiled
 * structure under a fingerprint of the angle-independent inputs and
 * rebinds the RZ angles on every hit, so repeated compilation of the
 * same program across VQE iterations (new parameters each energy
 * evaluation) and ablation sweeps skips layout and routing entirely.
 *
 * Flows whose gate order may depend on parameter values (SABRE) are
 * not cached: they cannot be angle-rebound, and exact-key entries
 * would only hit on exact parameter repeats while flooding the
 * shared table under parameter sweeps. PipelineOptions::useCache
 * turns memoization off per pipeline.
 */

#ifndef QCC_COMPILER_CACHE_HH
#define QCC_COMPILER_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hh"
#include "compiler/layout.hh"

namespace qcc {

/**
 * Fingerprint of a compile request.
 *
 * ## Hashing contract
 *
 * A key is an ordered stream of 64-bit words that must encode every
 * angle-independent input the compile depends on — and nothing else.
 * For the pipeline flows the stream is: a format tag, the flow
 * enum, the HF-prep flag, the device shape (tree parent vector or
 * coupling-graph edge list), then the program (qubit count, HF mask,
 * and the (x, z) masks of every rotation string, in program order).
 * Rotation angles and term coefficients are deliberately absent:
 * they are rebind data, applied to the memoized structure on every
 * hit.
 *
 * hash() condenses the stream into one 64-bit bucket index; it is
 * fast, not collision-free, and nothing may rely on its injectivity.
 * Correctness comes from the probe comparing the full word stream
 * (operator==) before a hit is declared, so a hash collision can
 * never alias two different programs — in memory or on disk, where
 * DiskCircuitStore (src/store) persists the full key words inside
 * each entry and re-compares them on load.
 *
 * Stability: the word stream doubles as the persistent identity of a
 * compiled circuit in the disk store. Any change to how keys are
 * derived (word order, new inputs, encoding of the device) must bump
 * the circuit-store format version (store/circuit_store.cc) so stale
 * entries demote to misses instead of rebinding onto the wrong
 * structure.
 */
struct CacheKey
{
    std::vector<uint64_t> words;

    void add(uint64_t w) { words.push_back(w); }
    uint64_t hash() const;
    bool operator==(const CacheKey &o) const = default;
};

/** One memoized compile. */
struct CachedCompile
{
    Circuit circuit; ///< compiled structure (angles from first compile)
    /**
     * Gate index of the RZ carrying the k-th non-identity rotation;
     * a hit rewrites these against the caller's resolved angles, so
     * entries are shared across parameter bindings (and coefficient
     * values).
     */
    std::vector<size_t> rzIndex;
    Layout initialLayout;
    Layout finalLayout;
    size_t swapCount = 0;
};

/**
 * Thread-safe memo table with an optional persistent second tier.
 * Lookups copy the entry out under the lock; rebinding happens on
 * the caller's copy. When the table exceeds its capacity it is
 * cleared wholesale — the working sets here are a few programs, so
 * anything fancier is wasted machinery.
 *
 * When a DiskTier is attached (setDiskTier), the cache is
 * write-through: a memory miss probes the tier before reporting a
 * miss (a tier hit is promoted into the memory table), and every
 * fresh insert is persisted. The tier sees only (key, entry) pairs;
 * all policy — directory, enablement, serialization, corruption
 * handling — lives behind the interface in src/store.
 *
 * Hits (memory and disk), misses and disk hits count in the metrics
 * registry as `compile.cache.{hits,misses,disk_hits}`, summed over
 * every instance in the process; the tier counts its own writes
 * (`store.circuit.disk_writes`).
 */
class CircuitCache
{
  public:
    /**
     * Persistent tier under the in-memory table. Implementations
     * must be thread-safe and must treat any unreadable or invalid
     * entry as a miss — a load() failure of any kind returns false
     * and the caller recompiles.
     */
    class DiskTier
    {
      public:
        virtual ~DiskTier() = default;

        /** Fetch the entry for `key`; false on miss/invalid entry. */
        virtual bool load(const CacheKey &key, CachedCompile &out) = 0;

        /**
         * Persist an entry (best effort); true when the entry was
         * actually written (false when the tier is disabled or the
         * write failed).
         */
        virtual bool save(const CacheKey &key,
                          const CachedCompile &entry) = 0;
    };

    explicit CircuitCache(size_t capacity = 8192) : cap(capacity) {}

    /** Attach (or detach, with nullptr) the persistent tier. */
    void setDiskTier(std::shared_ptr<DiskTier> tier);

    /**
     * Probe for `key`; on a hit, copy the entry into `out`, rewrite
     * the k-th memoized RZ with `angles[k]`, and return true. A hit
     * whose slot count disagrees with `angles` is treated as a miss
     * (the key fingerprints the strings, so this cannot happen
     * unless a caller mixes keys and programs). The copy and rebind
     * run outside the table lock.
     */
    bool lookup(const CacheKey &key, const std::vector<double> &angles,
                CachedCompile &out);

    /** Memoize a compile (no-op if an equal key is already present). */
    void insert(const CacheKey &key, CachedCompile entry);

    /** Drop every entry. */
    void clear();

  private:
    // Entries are immutable once inserted and held by shared_ptr, so
    // the lock covers only the probe/bookkeeping: the O(gates)
    // circuit copy and rebind happen on the caller's thread outside
    // the critical section (compileTerms fans many threads through
    // here).
    /** Memory-table insert; true when `sp` was newly added. */
    bool insertMemo(const CacheKey &key,
                    std::shared_ptr<const CachedCompile> sp);

    std::mutex mtx;
    size_t cap;
    size_t entries = 0; ///< resident entries, for the capacity rule
    std::unordered_map<
        uint64_t,
        std::vector<std::pair<CacheKey,
                              std::shared_ptr<const CachedCompile>>>>
        table;
    std::shared_ptr<DiskTier> disk;
};

/**
 * Process-wide cache shared by the pipeline convenience paths.
 * Capacity defaults to 8192 entries (a whole-Hamiltonian per-term
 * sweep of the largest catalog molecule fits with room to spare) and
 * can be overridden with QCC_COMPILE_CACHE_CAP. The persistent
 * DiskCircuitStore tier (src/store) is attached on first use; it
 * no-ops unless QCC_STORE_DIR (or qcc::setStoreDir) configures a
 * store root.
 */
CircuitCache &globalCircuitCache();

/**
 * Factory for the persistent tier attached to globalCircuitCache().
 * Declared here, defined in src/store/circuit_store.cc — the store
 * layer owns serialization and storage policy; the compiler layer
 * only sees the DiskTier interface.
 */
std::shared_ptr<CircuitCache::DiskTier> makeGlobalCircuitDiskTier();

} // namespace qcc

#endif // QCC_COMPILER_CACHE_HH
