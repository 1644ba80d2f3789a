#include "compiler/cache.hh"

#include "common/rng.hh"
#include "obs/metrics.hh"

namespace qcc {

uint64_t
CacheKey::hash() const
{
    // splitmix64-style word mix; collisions are harmless (the full
    // word stream is compared on probe) so speed wins over strength.
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t w : words) {
        h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
    }
    return h;
}

void
CircuitCache::setDiskTier(std::shared_ptr<DiskTier> tier)
{
    std::lock_guard<std::mutex> lock(mtx);
    disk = std::move(tier);
}

bool
CircuitCache::insertMemo(const CacheKey &key,
                         std::shared_ptr<const CachedCompile> sp)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (entries >= cap) {
        table.clear();
        entries = 0;
    }
    auto &bucket = table[key.hash()];
    for (const auto &[k, v] : bucket)
        if (k == key)
            return false;
    bucket.emplace_back(key, std::move(sp));
    ++entries;
    return true;
}

bool
CircuitCache::lookup(const CacheKey &key,
                     const std::vector<double> &angles,
                     CachedCompile &out)
{
    static MetricCounter &hits = metricCounter("compile.cache.hits");
    static MetricCounter &misses = metricCounter("compile.cache.misses");
    static MetricCounter &diskHits =
        metricCounter("compile.cache.disk_hits");
    std::shared_ptr<const CachedCompile> found;
    std::shared_ptr<DiskTier> tier;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = table.find(key.hash());
        if (it != table.end())
            for (const auto &[k, v] : it->second)
                if (k == key) {
                    found = v;
                    break;
                }
        if (found && found->rzIndex.size() != angles.size())
            found.reset();
        if (!found)
            tier = disk;
    }

    if (tier) {
        // Second-tier probe outside the lock: file IO must never
        // serialize the other workers' memory probes.
        CachedCompile entry;
        if (tier->load(key, entry) &&
            entry.rzIndex.size() == angles.size()) {
            found =
                std::make_shared<const CachedCompile>(std::move(entry));
            // Promote into the memory table (no write-back to disk:
            // the entry just came from there).
            insertMemo(key, found);
            diskHits.add();
        }
    }

    if (!found) {
        misses.add();
        return false;
    }
    hits.add();

    // Copy and rebind outside the lock: rewrite each memoized RZ
    // with the caller's angles.
    out = *found;
    auto &gates = out.circuit.gates();
    for (size_t k = 0; k < out.rzIndex.size(); ++k)
        gates[out.rzIndex[k]].angle = angles[k];
    return true;
}

void
CircuitCache::insert(const CacheKey &key, CachedCompile entry)
{
    auto sp = std::make_shared<const CachedCompile>(std::move(entry));
    if (!insertMemo(key, sp))
        return; // duplicate: already memoized (and persisted)
    std::shared_ptr<DiskTier> tier;
    {
        std::lock_guard<std::mutex> lock(mtx);
        tier = disk;
    }
    if (tier)
        tier->save(key, *sp); // write-through, outside the lock
}

void
CircuitCache::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    entries = 0;
    table.clear();
}

CircuitCache &
globalCircuitCache()
{
    static CircuitCache cache(
        size_t(envUint("QCC_COMPILE_CACHE_CAP", 8192, 1)));
    // The persistent tier is attached exactly once; it consults the
    // store configuration (QCC_STORE_DIR / setStoreDir) on every
    // call, so attaching it while the store is disabled costs one
    // predicate per miss.
    static const bool attached = [] {
        cache.setDiskTier(makeGlobalCircuitDiskTier());
        return true;
    }();
    (void)attached;
    return cache;
}

} // namespace qcc
