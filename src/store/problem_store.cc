#include "store/problem_store.hh"

#include <cstdio>
#include <cstring>

#include "common/binio.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/store.hh"

namespace qcc {

namespace {

constexpr uint32_t kMagic = 0x51434350; // 'QCCP'
constexpr uint32_t kVersion = 1;

/**
 * The identity of a problem: everything buildMolecularProblem's
 * output depends on. The catalog entry's active-space settings are
 * included explicitly so an edited catalog invalidates old entries
 * even under an unchanged molecule name.
 */
std::string
keyBytes(const BenchmarkMolecule &entry, double bond, int n_gauss)
{
    BinaryWriter w;
    w.str(entry.name);
    w.f64(bond);
    w.u32(uint32_t(n_gauss));
    w.u32(entry.nFrozen);
    w.u32(uint32_t(entry.targetSpatial));
    return w.take();
}

void
writeIntegrals(BinaryWriter &w, const MoIntegrals &mo)
{
    w.u64(mo.nOrb);
    std::vector<double> h(mo.nOrb * mo.nOrb);
    for (size_t r = 0; r < mo.nOrb; ++r)
        for (size_t c = 0; c < mo.nOrb; ++c)
            h[r * mo.nOrb + c] = mo.h(r, c);
    w.doubles(h);
    w.doubles(mo.eri);
    w.f64(mo.coreEnergy);
}

bool
readIntegrals(BinaryReader &r, MoIntegrals &out)
{
    const uint64_t nOrb = r.u64();
    // Catalog molecules top out well under 64 orbitals; anything
    // larger is corruption (and would imply a multi-GiB ERI tensor).
    if (nOrb > 64)
        return false;
    const std::vector<double> h = r.doubles();
    const std::vector<double> eri = r.doubles();
    if (h.size() != nOrb * nOrb || eri.size() != nOrb * nOrb * nOrb * nOrb)
        return false;
    out.nOrb = size_t(nOrb);
    out.h = Matrix(out.nOrb, out.nOrb);
    for (size_t i = 0; i < out.nOrb; ++i)
        for (size_t j = 0; j < out.nOrb; ++j)
            out.h(i, j) = h[i * out.nOrb + j];
    out.eri = eri;
    out.coreEnergy = r.f64();
    return true;
}

std::string
entryPath(const std::string &dir, const std::string &key)
{
    const uint64_t h1 = fnv1a(key.data(), key.size());
    const uint64_t h2 =
        fnv1a(key.data(), key.size(), 0x84222325cbf29ce4ull);
    char name[64];
    std::snprintf(name, sizeof(name), "p_%016llx%016llx.bin",
                  (unsigned long long)h1, (unsigned long long)h2);
    return dir + "/problems/" + name;
}

bool
loadFromDisk(const std::string &path, const std::string &key,
             MolecularProblem &out)
{
    std::string bytes;
    if (!readFileBytes(path, bytes))
        return false;
    if (!deserializeMolecularProblem(bytes, key, out)) {
        static MetricCounter &badEntries =
            metricCounter("store.problem.bad_entries");
        badEntries.add();
        std::remove(path.c_str());
        return false;
    }
    static MetricCounter &hits = metricCounter("store.problem.disk_hits");
    hits.add();
    return true;
}

void
saveToDisk(const std::string &path, const std::string &key,
           const MolecularProblem &mp)
{
    const size_t slash = path.rfind('/');
    if (!ensureDirectory(path.substr(0, slash)))
        return;
    // A write follows the build that caused it, so a release
    // increment lets a reader that loads disk_writes first never see
    // more writes than builds.
    static MetricCounter &writes =
        metricCounter("store.problem.disk_writes");
    if (atomicWriteFile(path, serializeMolecularProblem(key, mp)))
        writes.addRelease();
}

} // namespace

uint32_t
problemStoreVersion()
{
    return kVersion;
}

std::string
serializeMolecularProblem(const std::string &key_bytes,
                          const MolecularProblem &mp)
{
    BinaryWriter w;
    w.u32(kMagic);
    w.u32(kVersion);
    w.str(key_bytes);

    w.u32(mp.hamiltonian.numQubits());
    w.u64(mp.hamiltonian.numTerms());
    for (const PauliTerm &t : mp.hamiltonian.terms()) {
        w.f64(t.coeff.real());
        w.f64(t.coeff.imag());
        w.u64(t.string.xMask());
        w.u64(t.string.zMask());
    }

    w.u32(mp.nSpatial);
    w.u32(mp.nElectrons);
    w.u32(mp.nQubits);
    w.f64(mp.hartreeFockEnergy);

    writeIntegrals(w, mp.activeSpace.active);
    w.u32(mp.activeSpace.nActiveElectrons);
    std::vector<uint64_t> idx;
    auto writeIdx = [&](const std::vector<size_t> &v) {
        idx.assign(v.begin(), v.end());
        w.u64s(idx);
    };
    writeIdx(mp.activeSpace.frozenMos);
    writeIdx(mp.activeSpace.activeMos);
    writeIdx(mp.activeSpace.removedMos);

    std::string payload = w.take();
    BinaryWriter tail;
    tail.u64(fnv1a(payload.data(), payload.size()));
    payload += tail.bytes();
    return payload;
}

bool
deserializeMolecularProblem(const std::string &bytes,
                            const std::string &key_bytes,
                            MolecularProblem &out)
{
    try {
        if (bytes.size() < 8)
            return false;
        const size_t body = bytes.size() - 8;
        BinaryReader check(std::string_view(bytes.data() + body, 8));
        if (check.u64() != fnv1a(bytes.data(), body))
            return false;

        BinaryReader r(std::string_view(bytes.data(), body));
        if (r.u32() != kMagic || r.u32() != kVersion)
            return false;
        if (r.str() != key_bytes)
            return false; // filename-hash collision or copied file

        MolecularProblem mp;
        const uint32_t nQubits = r.u32();
        if (nQubits > 64)
            return false;
        const uint64_t nTerms = r.u64();
        if (nTerms > r.remaining() / 32)
            return false;
        mp.hamiltonian = PauliSum(nQubits);
        for (uint64_t i = 0; i < nTerms; ++i) {
            const double re = r.f64();
            const double im = r.f64();
            const uint64_t x = r.u64();
            const uint64_t z = r.u64();
            if (nQubits < 64 && ((x | z) >> nQubits) != 0)
                return false;
            mp.hamiltonian.add({re, im},
                               PauliString(nQubits, x, z));
        }

        mp.nSpatial = r.u32();
        mp.nElectrons = r.u32();
        mp.nQubits = r.u32();
        if (mp.nQubits != nQubits || mp.nQubits != 2 * mp.nSpatial)
            return false;
        mp.hartreeFockEnergy = r.f64();

        if (!readIntegrals(r, mp.activeSpace.active))
            return false;
        mp.activeSpace.nActiveElectrons = r.u32();
        auto readIdx = [&](std::vector<size_t> &v) {
            const std::vector<uint64_t> raw = r.u64s();
            v.assign(raw.begin(), raw.end());
        };
        readIdx(mp.activeSpace.frozenMos);
        readIdx(mp.activeSpace.activeMos);
        readIdx(mp.activeSpace.removedMos);
        if (!r.atEnd())
            return false;

        out = std::move(mp);
        return true;
    } catch (const BinioError &) {
        return false;
    }
}

std::string
MolecularProblemStore::pathFor(const BenchmarkMolecule &entry,
                               double bond_angstrom,
                               int n_gauss) const
{
    if (!storeEnabled())
        return "";
    return entryPath(storeDir(),
                     keyBytes(entry, bond_angstrom, n_gauss));
}

MolecularProblem
MolecularProblemStore::get(const BenchmarkMolecule &entry,
                           double bond_angstrom, int n_gauss)
{
    // One span per call, whichever tier serves it; the builders
    // below carry none of their own.
    TraceSpan span("chem.problem");
    span.arg("molecule", entry.name);
    span.arg("basis_ng", n_gauss);
    const std::string key = keyBytes(entry, bond_angstrom, n_gauss);

    std::promise<MolecularProblem> prom;
    std::shared_future<MolecularProblem> fut;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = memo.find(key);
        if (it != memo.end()) {
            fut = it->second;
        } else {
            // Single flight: this caller builds; concurrent callers
            // of the same key block on the future instead of
            // duplicating the integrals/HF work.
            fut = prom.get_future().share();
            memo.emplace(key, fut);
            owner = true;
        }
    }

    if (!owner) {
        static MetricCounter &memHits =
            metricCounter("store.problem.mem_hits");
        memHits.add();
        span.arg("source", "memo");
        return fut.get();
    }

    try {
        MolecularProblem mp;
        const bool disk = storeEnabled();
        const std::string path =
            disk ? entryPath(storeDir(), key) : std::string();
        if (disk && loadFromDisk(path, key, mp)) {
            span.arg("source", "disk");
            prom.set_value(mp);
            return mp;
        }

        static MetricCounter &builds =
            metricCounter("store.problem.builds");
        builds.add();
        span.arg("source", "build");
        mp = buildMolecularProblem(entry, bond_angstrom, n_gauss);
        if (disk)
            saveToDisk(path, key, mp);
        prom.set_value(mp);
        return mp;
    } catch (...) {
        // Don't strand waiters, and don't memoize the failure.
        prom.set_exception(std::current_exception());
        {
            std::lock_guard<std::mutex> lock(mtx);
            auto it = memo.find(key);
            if (it != memo.end() &&
                it->second.valid()) // same flight
                memo.erase(it);
        }
        throw;
    }
}

void
MolecularProblemStore::clearMemory()
{
    std::lock_guard<std::mutex> lock(mtx);
    memo.clear();
}

size_t
MolecularProblemStore::memoSize() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return memo.size();
}

MolecularProblemStore &
globalProblemStore()
{
    static MolecularProblemStore store;
    return store;
}

} // namespace qcc
