/**
 * @file
 * Persistent-store tests: circuit-entry round trips and every
 * corruption path (truncation, version skew, garbage, key
 * mismatch), CircuitCache write-through and disk promotion,
 * molecular-problem round trips against fresh builds, single-flight
 * memoization under concurrency, concurrent writer/reader races on
 * one entry, and byte-identical sweep results with the store off,
 * cold, and warm.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "ansatz/uccsd.hh"
#include "arch/xtree.hh"
#include "chem/molecules.hh"
#include "common/binio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "compiler/pipeline.hh"
#include "ferm/hamiltonian.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/circuit_store.hh"
#include "store/problem_store.hh"
#include "store/store.hh"
#include "sweep/sweep_engine.hh"

using namespace qcc;

namespace {

/**
 * Scoped store root: a unique scratch directory while alive, the
 * store disabled (and the directory deleted, and the in-memory
 * caches that may now hold disk-promoted entries cleared) on exit,
 * so tests cannot leak state into each other.
 */
class StoreDirGuard
{
  public:
    StoreDirGuard()
    {
        static std::atomic<int> seq{0};
        dir = (std::filesystem::temp_directory_path() /
               ("qcc_test_store_" + std::to_string(::getpid()) +
                "_" + std::to_string(seq++)))
                  .string();
        setStoreDir(dir);
        setStoreEnabled(true);
    }

    ~StoreDirGuard()
    {
        setStoreDir("");
        globalCircuitCache().clear();
        globalProblemStore().clearMemory();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    const std::string &path() const { return dir; }

  private:
    std::string dir;
};

/** Current value of a registry counter. */
uint64_t
counter(const char *name)
{
    return metricCounter(name).value();
}

CachedCompile
sampleEntry()
{
    Circuit c(3);
    c.h(0);
    c.cnot(0, 1);
    c.rz(1, 0.25);
    c.cnot(1, 2);
    c.rz(2, -1.5);
    c.swap(0, 2);
    CachedCompile e;
    e.circuit = c;
    e.rzIndex = {2, 4};
    e.initialLayout = Layout::fromLogToPhys({2, 0, 1}, 4);
    e.finalLayout = Layout::fromLogToPhys({1, 0, 3}, 4);
    e.swapCount = 1;
    return e;
}

CacheKey
sampleKey(uint64_t salt = 7)
{
    CacheKey k;
    k.add(0x1234);
    k.add(salt);
    k.add(0xfeed);
    return k;
}

::testing::AssertionResult
entriesIdentical(const CachedCompile &a, const CachedCompile &b)
{
    if (a.circuit.numQubits() != b.circuit.numQubits() ||
        a.circuit.size() != b.circuit.size())
        return ::testing::AssertionFailure() << "circuit shape";
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        const Gate &ga = a.circuit.gates()[i];
        const Gate &gb = b.circuit.gates()[i];
        if (ga.kind != gb.kind || ga.q0 != gb.q0 ||
            ga.q1 != gb.q1 || ga.angle != gb.angle)
            return ::testing::AssertionFailure()
                   << "gate " << i << ": " << ga.str() << " vs "
                   << gb.str();
    }
    if (a.rzIndex != b.rzIndex)
        return ::testing::AssertionFailure() << "rzIndex";
    if (a.swapCount != b.swapCount)
        return ::testing::AssertionFailure() << "swapCount";
    auto sameLayout = [](const Layout &la, const Layout &lb) {
        if (la.numLogical() != lb.numLogical() ||
            la.numPhysical() != lb.numPhysical())
            return false;
        for (unsigned q = 0; q < la.numLogical(); ++q)
            if (la.phys(q) != lb.phys(q))
                return false;
        return true;
    };
    if (!sameLayout(a.initialLayout, b.initialLayout))
        return ::testing::AssertionFailure() << "initial layout";
    if (!sameLayout(a.finalLayout, b.finalLayout))
        return ::testing::AssertionFailure() << "final layout";
    return ::testing::AssertionSuccess();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), std::streamsize(bytes.size()));
}

std::string
readBytes(const std::string &path)
{
    std::string out;
    EXPECT_TRUE(readFileBytes(path, out)) << path;
    return out;
}

} // namespace

TEST(CircuitStore, SerializeRoundTrip)
{
    const CacheKey key = sampleKey();
    const CachedCompile entry = sampleEntry();
    const std::string bytes = serializeCachedCompile(key, entry);

    CachedCompile out;
    ASSERT_TRUE(deserializeCachedCompile(bytes, key, out));
    EXPECT_TRUE(entriesIdentical(entry, out));
}

TEST(CircuitStore, KeyMismatchIsMiss)
{
    const std::string bytes =
        serializeCachedCompile(sampleKey(1), sampleEntry());
    CachedCompile out;
    // A copied/renamed file (or filename-hash collision) carries the
    // wrong key words and must demote to a miss.
    EXPECT_FALSE(deserializeCachedCompile(bytes, sampleKey(2), out));
}

TEST(CircuitStore, TruncationIsMiss)
{
    const CacheKey key = sampleKey();
    const std::string bytes =
        serializeCachedCompile(key, sampleEntry());
    CachedCompile out;
    for (size_t n : {size_t(0), size_t(3), size_t(11),
                     bytes.size() / 2, bytes.size() - 1})
        EXPECT_FALSE(deserializeCachedCompile(bytes.substr(0, n),
                                              key, out))
            << "prefix " << n;
}

TEST(CircuitStore, VersionSkewIsMiss)
{
    const CacheKey key = sampleKey();
    std::string bytes = serializeCachedCompile(key, sampleEntry());
    // Bump the version field (bytes 4..8) and re-seal the checksum,
    // mimicking an entry written by a future format revision.
    bytes[4] = char(bytes[4] + 1);
    const uint64_t sum = fnv1a(bytes.data(), bytes.size() - 8);
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] = char(sum >> (8 * i));
    CachedCompile out;
    EXPECT_FALSE(deserializeCachedCompile(bytes, key, out));
}

TEST(CircuitStore, BitFlipIsMiss)
{
    const CacheKey key = sampleKey();
    const std::string good =
        serializeCachedCompile(key, sampleEntry());
    CachedCompile out;
    // Any single corrupted byte must fail the checksum.
    for (size_t i = 0; i < good.size(); i += 7) {
        std::string bad = good;
        bad[i] = char(bad[i] ^ 0x5a);
        EXPECT_FALSE(deserializeCachedCompile(bad, key, out))
            << "byte " << i;
    }
    EXPECT_FALSE(deserializeCachedCompile(
        std::string(64, '\x42'), key, out));
}

TEST(CircuitStore, BadEntryIsDeletedAndRecovered)
{
    StoreDirGuard guard;
    DiskCircuitStore store;
    const CacheKey key = sampleKey();
    const CachedCompile entry = sampleEntry();
    ASSERT_TRUE(store.save(key, entry));

    const std::string path = store.pathFor(key);
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(std::filesystem::exists(path));

    const uint64_t before = counter("store.circuit.bad_entries");
    writeBytes(path, readBytes(path).substr(0, 10));
    CachedCompile out;
    EXPECT_FALSE(store.load(key, out));
    EXPECT_FALSE(std::filesystem::exists(path)); // dropped
    EXPECT_EQ(counter("store.circuit.bad_entries"), before + 1);

    // The slot is reusable after the bad entry is dropped.
    ASSERT_TRUE(store.save(key, entry));
    ASSERT_TRUE(store.load(key, out));
    EXPECT_TRUE(entriesIdentical(entry, out));
}

TEST(CircuitStore, DisabledStoreNoops)
{
    setStoreDir("");
    DiskCircuitStore store;
    CachedCompile out;
    EXPECT_EQ(store.pathFor(sampleKey()), "");
    EXPECT_FALSE(store.save(sampleKey(), sampleEntry()));
    EXPECT_FALSE(store.load(sampleKey(), out));
}

TEST(CircuitStore, CacheWriteThroughAndPromotion)
{
    setLogLevel(LogLevel::Quiet);
    StoreDirGuard guard;
    globalCircuitCache().clear();

    const auto &entry = benchmarkMolecule("H2");
    MolecularProblem prob =
        buildMolecularProblem(entry, entry.equilibriumBond);
    Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
    std::vector<double> params(ansatz.nParams, 0.0);
    for (size_t i = 0; i < params.size(); ++i)
        params[i] = 0.1 * double(i + 1);

    XTree tree = makeXTree(7);
    CompilerPipeline pipeline(tree);

    const uint64_t writes0 = counter("store.circuit.disk_writes");
    CompileResult fresh = pipeline.compile(ansatz, params);
    const uint64_t writes1 = counter("store.circuit.disk_writes");
    const uint64_t diskHits1 = counter("compile.cache.disk_hits");
    EXPECT_EQ(writes1, writes0 + 1); // write-through

    // A new process is simulated by dropping the memory table; the
    // recompile must be served by the persistent tier and match the
    // fresh compile gate for gate.
    globalCircuitCache().clear();
    CompileResult warm = pipeline.compile(ansatz, params);
    EXPECT_EQ(counter("compile.cache.disk_hits"), diskHits1 + 1);
    // Promotion, no rewrite.
    EXPECT_EQ(counter("store.circuit.disk_writes"), writes1);

    ASSERT_EQ(fresh.circuit.size(), warm.circuit.size());
    for (size_t i = 0; i < fresh.circuit.size(); ++i) {
        const Gate &ga = fresh.circuit.gates()[i];
        const Gate &gb = warm.circuit.gates()[i];
        EXPECT_TRUE(ga.kind == gb.kind && ga.q0 == gb.q0 &&
                    ga.q1 == gb.q1 && ga.angle == gb.angle)
            << "gate " << i;
    }
    EXPECT_EQ(fresh.swapCount, warm.swapCount);

    // Rebinding must work on disk-served structures too.
    for (auto &p : params)
        p += 0.5;
    CompileResult rebound = pipeline.compile(ansatz, params);
    EXPECT_EQ(rebound.circuit.size(), fresh.circuit.size());
}

TEST(ProblemStore, RoundTripMatchesFreshBuild)
{
    setLogLevel(LogLevel::Quiet);
    StoreDirGuard guard;
    const auto &entry = benchmarkMolecule("H2");
    const double bond = 0.8125; // off-catalog bond: unique key

    const uint64_t builds0 = counter("store.problem.builds");
    const uint64_t writes0 = counter("store.problem.disk_writes");
    MolecularProblem built =
        globalProblemStore().get(entry, bond);
    const uint64_t builds1 = counter("store.problem.builds");
    const uint64_t diskHits1 = counter("store.problem.disk_hits");
    EXPECT_EQ(builds1, builds0 + 1);
    EXPECT_EQ(counter("store.problem.disk_writes"), writes0 + 1);

    globalProblemStore().clearMemory();
    MolecularProblem loaded =
        globalProblemStore().get(entry, bond);
    EXPECT_EQ(counter("store.problem.disk_hits"), diskHits1 + 1);
    EXPECT_EQ(counter("store.problem.builds"), builds1); // no rebuild

    // Bit-exact round trip against the direct build.
    MolecularProblem direct = buildMolecularProblem(entry, bond);
    EXPECT_EQ(loaded.nSpatial, direct.nSpatial);
    EXPECT_EQ(loaded.nElectrons, direct.nElectrons);
    EXPECT_EQ(loaded.nQubits, direct.nQubits);
    EXPECT_EQ(loaded.hartreeFockEnergy, direct.hartreeFockEnergy);
    ASSERT_EQ(loaded.hamiltonian.numTerms(),
              direct.hamiltonian.numTerms());
    for (size_t t = 0; t < direct.hamiltonian.numTerms(); ++t) {
        const PauliTerm &a = loaded.hamiltonian.terms()[t];
        const PauliTerm &b = direct.hamiltonian.terms()[t];
        EXPECT_EQ(a.coeff, b.coeff) << "term " << t;
        EXPECT_EQ(a.string, b.string) << "term " << t;
    }
    const MoIntegrals &ia = loaded.activeSpace.active;
    const MoIntegrals &ib = direct.activeSpace.active;
    ASSERT_EQ(ia.nOrb, ib.nOrb);
    EXPECT_EQ(ia.coreEnergy, ib.coreEnergy);
    EXPECT_EQ(ia.eri, ib.eri);
    for (size_t r = 0; r < ia.nOrb; ++r)
        for (size_t c = 0; c < ia.nOrb; ++c)
            EXPECT_EQ(ia.h(r, c), ib.h(r, c));
    EXPECT_EQ(loaded.activeSpace.nActiveElectrons,
              direct.activeSpace.nActiveElectrons);
    EXPECT_EQ(loaded.activeSpace.frozenMos,
              direct.activeSpace.frozenMos);
    EXPECT_EQ(loaded.activeSpace.activeMos,
              direct.activeSpace.activeMos);
    EXPECT_EQ(loaded.activeSpace.removedMos,
              direct.activeSpace.removedMos);
}

TEST(ProblemStore, EveryGetTracesOneChemProblemSpanNamingItsSource)
{
    setLogLevel(LogLevel::Quiet);
    StoreDirGuard guard;
    const auto &entry = benchmarkMolecule("H2");
    const double bond = 0.8437; // off-catalog bond: unique key

    setTraceEnabled(true);
    clearTrace();
    globalProblemStore().get(entry, bond, 2); // build
    globalProblemStore().get(entry, bond, 2); // memo
    globalProblemStore().clearMemory();
    globalProblemStore().get(entry, bond, 2); // disk
    const std::string json = traceEventsArrayJson();
    setTraceEnabled(false);
    clearTrace();

    // Args ride on the end events; a span inside a builder would
    // show up here as a second name.
    std::vector<std::string> sources;
    const JsonValue events = JsonValue::parse(json);
    for (const JsonValue &e : events.items) {
        const JsonValue *name = e.find("name");
        ASSERT_TRUE(name);
        EXPECT_EQ(name->text, "chem.problem");
        if (e.find("ph")->text != "E")
            continue;
        const JsonValue *args = e.find("args");
        ASSERT_TRUE(args);
        EXPECT_EQ(args->find("molecule")->text, "H2");
        EXPECT_EQ(args->find("basis_ng")->number, 2.0);
        sources.push_back(args->find("source")->text);
    }
    EXPECT_EQ(sources,
              (std::vector<std::string>{"build", "memo", "disk"}));
}

TEST(ProblemStore, CorruptEntryRebuilds)
{
    setLogLevel(LogLevel::Quiet);
    StoreDirGuard guard;
    const auto &entry = benchmarkMolecule("H2");
    const double bond = 0.8750;

    globalProblemStore().get(entry, bond);
    const std::string path =
        globalProblemStore().pathFor(entry, bond);
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(std::filesystem::exists(path));
    writeBytes(path, std::string(128, '\x7f'));

    globalProblemStore().clearMemory();
    const uint64_t bad0 = counter("store.problem.bad_entries");
    const uint64_t builds0 = counter("store.problem.builds");
    MolecularProblem rebuilt =
        globalProblemStore().get(entry, bond);
    EXPECT_EQ(counter("store.problem.bad_entries"), bad0 + 1);
    EXPECT_EQ(counter("store.problem.builds"), builds0 + 1);
    EXPECT_GT(rebuilt.hamiltonian.numTerms(), 0u);
}

TEST(ProblemStore, SingleFlightUnderConcurrency)
{
    setLogLevel(LogLevel::Quiet);
    setStoreDir(""); // memo-only: isolate the single-flight logic
    globalProblemStore().clearMemory();
    const auto &entry = benchmarkMolecule("H2");
    const double bond = 0.9375;

    const uint64_t builds0 = counter("store.problem.builds");
    const uint64_t memHits0 = counter("store.problem.mem_hits");
    std::vector<std::thread> workers;
    std::atomic<int> ok{0};
    for (int t = 0; t < 8; ++t)
        workers.emplace_back([&] {
            MolecularProblem p = globalProblemStore().get(entry, bond);
            if (p.nQubits == 4)
                ++ok;
        });
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(ok.load(), 8);
    // Exactly one thread built; the other seven shared the flight.
    EXPECT_EQ(counter("store.problem.builds"), builds0 + 1);
    EXPECT_EQ(counter("store.problem.mem_hits"), memHits0 + 7);
    globalProblemStore().clearMemory();
}

TEST(CircuitStore, ConcurrentWritersAndReadersAgree)
{
    StoreDirGuard guard;
    const CacheKey key = sampleKey();
    const CachedCompile entry = sampleEntry();

    // Writers rewrite one path while readers hammer it: with atomic
    // renames every load must be a miss or the complete entry.
    std::atomic<bool> stop{false};
    std::atomic<int> badLoads{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&] {
            DiskCircuitStore store;
            for (int i = 0; i < 50; ++i)
                store.save(key, entry);
        });
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&] {
            DiskCircuitStore store;
            while (!stop.load()) {
                CachedCompile out;
                if (store.load(key, out) &&
                    !entriesIdentical(entry, out))
                    ++badLoads;
            }
        });
    for (int t = 0; t < 4; ++t)
        workers[size_t(t)].join();
    stop = true;
    for (size_t t = 4; t < workers.size(); ++t)
        workers[t].join();

    EXPECT_EQ(badLoads.load(), 0);
    CachedCompile out;
    DiskCircuitStore store;
    ASSERT_TRUE(store.load(key, out));
    EXPECT_TRUE(entriesIdentical(entry, out));
}

TEST(Store, SweepResultsByteIdenticalAcrossTiers)
{
    setLogLevel(LogLevel::Quiet);
    SweepSpec spec;
    spec.name = "store_identity";
    spec.emitTimings = false; // documents become pure spec+seed
    spec.base.molecule = "H2";
    spec.base.bond = 0.74;
    spec.base.mode = "sampled";
    spec.base.optimizer = "spsa";
    spec.base.spsaIter = 3;
    spec.base.shots = 256;
    spec.base.reference = false;
    SweepAxis seeds;
    seeds.field = "seed";
    for (int s = 1; s <= 3; ++s) {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = double(s);
        v.text = std::to_string(s);
        seeds.values.push_back(v);
    }
    spec.axes.push_back(seeds);

    auto runOnce = [&] {
        globalCircuitCache().clear();
        globalProblemStore().clearMemory();
        SweepEngineOptions opts;
        opts.concurrency = 1;
        SweepEngine engine(spec, opts);
        return engine.run().json();
    };

    setStoreDir("");
    const std::string off = runOnce();

    StoreDirGuard guard;
    const std::string cold = runOnce(); // populates the store
    const std::string warm = runOnce(); // served from the store
    EXPECT_GT(counter("store.circuit.disk_hits") +
                  counter("store.problem.disk_hits"),
              0u);

    EXPECT_EQ(off, cold);
    EXPECT_EQ(off, warm);
}
