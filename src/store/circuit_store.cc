#include "store/circuit_store.hh"

#include <cstdio>
#include <vector>

#include "common/binio.hh"
#include "obs/metrics.hh"
#include "store/store.hh"

namespace qcc {

namespace {

constexpr uint32_t kMagic = 0x51434343; // 'QCCC'
constexpr uint32_t kVersion = 1;

/**
 * A layout is serialized as (numLogical, numPhysical, l2p words) and
 * rebuilt through Layout::fromLogToPhys — which panics on invalid
 * input, so every invariant it assumes (entries in range, no two
 * logical qubits on one physical) is checked here first.
 */
void
writeLayout(BinaryWriter &w, const Layout &l)
{
    w.u32(l.numLogical());
    w.u32(l.numPhysical());
    for (unsigned q = 0; q < l.numLogical(); ++q)
        w.u32(l.phys(q));
}

bool
readLayout(BinaryReader &r, Layout &out)
{
    const uint32_t nLog = r.u32();
    const uint32_t nPhys = r.u32();
    if (nLog > nPhys || nPhys > (1u << 20))
        return false;
    std::vector<unsigned> l2p(nLog);
    std::vector<bool> used(nPhys, false);
    for (uint32_t q = 0; q < nLog; ++q) {
        const uint32_t p = r.u32();
        if (p >= nPhys || used[p])
            return false;
        used[p] = true;
        l2p[q] = p;
    }
    out = Layout::fromLogToPhys(l2p, nPhys);
    return true;
}

/**
 * Rebuild the circuit gate-by-gate through Circuit::push (which
 * panics on bad operands, hence the manual range checks) so a
 * deserialized circuit satisfies exactly the invariants a compiled
 * one does.
 */
bool
readCircuit(BinaryReader &r, Circuit &out)
{
    const uint32_t n = r.u32();
    if (n > (1u << 20))
        return false;
    const uint64_t count = r.u64();
    // Each serialized gate is >= 17 bytes; reject counts the
    // remaining payload cannot possibly hold.
    if (count > r.remaining() / 17)
        return false;
    Circuit c(n);
    for (uint64_t i = 0; i < count; ++i) {
        Gate g;
        const uint8_t kind = r.u8();
        if (kind > uint8_t(GateKind::SWAP))
            return false;
        g.kind = GateKind(kind);
        g.q0 = r.u32();
        g.q1 = r.u32();
        g.angle = r.f64();
        if (g.q0 >= n)
            return false;
        if (isTwoQubit(g.kind) && (g.q1 >= n || g.q1 == g.q0))
            return false;
        c.push(g);
    }
    out = std::move(c);
    return true;
}

} // namespace

uint32_t
circuitStoreVersion()
{
    return kVersion;
}

std::string
serializeCachedCompile(const CacheKey &key, const CachedCompile &entry)
{
    BinaryWriter w;
    w.u32(kMagic);
    w.u32(kVersion);
    w.u64s(key.words);

    w.u32(entry.circuit.numQubits());
    w.u64(entry.circuit.size());
    for (const Gate &g : entry.circuit.gates()) {
        w.u8(uint8_t(g.kind));
        w.u32(g.q0);
        w.u32(g.q1);
        w.f64(g.angle);
    }

    std::vector<uint64_t> rz(entry.rzIndex.begin(), entry.rzIndex.end());
    w.u64s(rz);
    writeLayout(w, entry.initialLayout);
    writeLayout(w, entry.finalLayout);
    w.u64(entry.swapCount);

    std::string payload = w.take();
    BinaryWriter tail;
    tail.u64(fnv1a(payload.data(), payload.size()));
    payload += tail.bytes();
    return payload;
}

bool
deserializeCachedCompile(const std::string &bytes, const CacheKey &key,
                         CachedCompile &out)
{
    try {
        if (bytes.size() < 8)
            return false;
        const size_t body = bytes.size() - 8;
        BinaryReader check(
            std::string_view(bytes.data() + body, 8));
        if (check.u64() != fnv1a(bytes.data(), body))
            return false;

        BinaryReader r(std::string_view(bytes.data(), body));
        if (r.u32() != kMagic || r.u32() != kVersion)
            return false;
        CacheKey stored;
        stored.words = r.u64s();
        // The filename is a hash; the words are the identity. A
        // collision (or a copied file) demotes to a miss here.
        if (!(stored == key))
            return false;

        CachedCompile entry;
        if (!readCircuit(r, entry.circuit))
            return false;

        const std::vector<uint64_t> rz = r.u64s();
        entry.rzIndex.reserve(rz.size());
        for (uint64_t idx : rz) {
            if (idx >= entry.circuit.size() ||
                entry.circuit.gates()[idx].kind != GateKind::RZ)
                return false;
            entry.rzIndex.push_back(size_t(idx));
        }

        if (!readLayout(r, entry.initialLayout) ||
            !readLayout(r, entry.finalLayout))
            return false;
        entry.swapCount = size_t(r.u64());
        if (!r.atEnd())
            return false;

        out = std::move(entry);
        return true;
    } catch (const BinioError &) {
        return false; // truncated / length-corrupted payload
    }
}

DiskCircuitStore::DiskCircuitStore(std::string dir)
    : dirOverride(std::move(dir))
{
}

std::string
DiskCircuitStore::resolveDir() const
{
    if (!dirOverride.empty())
        return dirOverride;
    if (!storeEnabled())
        return "";
    return storeDir();
}

std::string
DiskCircuitStore::pathFor(const CacheKey &key) const
{
    const std::string dir = resolveDir();
    if (dir.empty())
        return "";
    // Two independent FNV passes over the word bytes: 128 filename
    // bits make accidental collisions irrelevant in practice, and a
    // real collision is still caught by the in-entry key comparison.
    const void *raw = key.words.data();
    const size_t n = key.words.size() * sizeof(uint64_t);
    const uint64_t h1 = fnv1a(raw, n);
    const uint64_t h2 = fnv1a(raw, n, 0x84222325cbf29ce4ull);
    char name[64];
    std::snprintf(name, sizeof(name), "c_%016llx%016llx.bin",
                  (unsigned long long)h1, (unsigned long long)h2);
    return dir + "/circuits/" + name;
}

bool
DiskCircuitStore::load(const CacheKey &key, CachedCompile &out)
{
    const std::string path = pathFor(key);
    if (path.empty())
        return false;
    static MetricCounter &misses =
        metricCounter("store.circuit.disk_misses");
    static MetricCounter &badEntries =
        metricCounter("store.circuit.bad_entries");
    static MetricCounter &hits = metricCounter("store.circuit.disk_hits");
    std::string bytes;
    if (!readFileBytes(path, bytes)) {
        misses.add();
        return false;
    }
    if (!deserializeCachedCompile(bytes, key, out)) {
        // Corrupt or stale entry: drop the file and recompile.
        badEntries.add();
        std::remove(path.c_str());
        return false;
    }
    hits.add();
    return true;
}

bool
DiskCircuitStore::save(const CacheKey &key, const CachedCompile &entry)
{
    const std::string path = pathFor(key);
    if (path.empty())
        return false;
    const size_t slash = path.rfind('/');
    if (!ensureDirectory(path.substr(0, slash)))
        return false;
    if (!atomicWriteFile(path, serializeCachedCompile(key, entry)))
        return false;
    // A write follows the miss or bad entry that caused it, so a
    // release increment lets a reader that loads disk_writes first
    // never see more writes than misses + bad entries.
    static MetricCounter &writes =
        metricCounter("store.circuit.disk_writes");
    writes.addRelease();
    return true;
}

std::shared_ptr<CircuitCache::DiskTier>
makeGlobalCircuitDiskTier()
{
    // Defined here (not in compiler/cache.cc) so linking the cache
    // pulls this object file — and with it the store layer — out of
    // the static archive.
    return std::make_shared<DiskCircuitStore>();
}

} // namespace qcc
