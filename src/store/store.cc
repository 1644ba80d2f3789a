#include "store/store.hh"

#include <cstdlib>
#include <filesystem>
#include <mutex>

#include "obs/metrics.hh"

namespace qcc {

namespace {

/**
 * The store counters live in the process-wide metrics registry (so
 * METRICS_*.json and sweepd aggregation see them for free); this
 * struct is one-time name resolution, cached because registry
 * lookup takes a lock and the count*() paths sit next to file IO
 * but also next to memo hits.
 */
struct Counters
{
    MetricCounter &circuitDiskHits =
        metricCounter("store.circuit.disk_hits");
    MetricCounter &circuitDiskMisses =
        metricCounter("store.circuit.disk_misses");
    MetricCounter &circuitDiskWrites =
        metricCounter("store.circuit.disk_writes");
    MetricCounter &circuitBadEntries =
        metricCounter("store.circuit.bad_entries");
    MetricCounter &problemMemHits =
        metricCounter("store.problem.mem_hits");
    MetricCounter &problemDiskHits =
        metricCounter("store.problem.disk_hits");
    MetricCounter &problemBuilds =
        metricCounter("store.problem.builds");
    MetricCounter &problemDiskWrites =
        metricCounter("store.problem.disk_writes");
    MetricCounter &problemBadEntries =
        metricCounter("store.problem.bad_entries");
};

Counters &
counters()
{
    static Counters c;
    return c;
}

/**
 * Runtime configuration with env fallback. The mutex makes the
 * override setters safe against concurrent store probes; steady-state
 * reads are a lock + two small copies, dwarfed by the file IO they
 * gate.
 */
struct Config
{
    std::mutex mtx;
    bool dirOverridden = false;
    std::string dirOverride;
    bool enabledOverridden = false;
    bool enabledOverride = true;
};

Config &
config()
{
    static Config c;
    return c;
}

} // namespace

StoreStats
storeStats()
{
    // Snapshot in reverse dependency order: a disk write follows
    // the miss (or bad entry, or build) that caused it in its
    // thread's program order, and the write increment is a release.
    // Loading the write counters first (value() is an acquire)
    // therefore makes every causing increment visible before the
    // cause counters are read, so a snapshot can never show more
    // writes than misses — the torn-snapshot case the
    // store_stats_consistency test pins.
    const Counters &c = counters();
    StoreStats s;
    s.circuitDiskWrites = c.circuitDiskWrites.value();
    s.circuitDiskMisses = c.circuitDiskMisses.value();
    s.circuitBadEntries = c.circuitBadEntries.value();
    s.circuitDiskHits = c.circuitDiskHits.value();
    s.problemDiskWrites = c.problemDiskWrites.value();
    s.problemBuilds = c.problemBuilds.value();
    s.problemMemHits = c.problemMemHits.value();
    s.problemDiskHits = c.problemDiskHits.value();
    s.problemBadEntries = c.problemBadEntries.value();
    return s;
}

void
resetStoreStats()
{
    Counters &c = counters();
    c.circuitDiskHits.reset();
    c.circuitDiskMisses.reset();
    c.circuitDiskWrites.reset();
    c.circuitBadEntries.reset();
    c.problemMemHits.reset();
    c.problemDiskHits.reset();
    c.problemBuilds.reset();
    c.problemDiskWrites.reset();
    c.problemBadEntries.reset();
}

void countCircuitDiskHit() { counters().circuitDiskHits.add(); }
void countCircuitDiskMiss() { counters().circuitDiskMisses.add(); }
void countCircuitBadEntry() { counters().circuitBadEntries.add(); }
void countProblemMemHit() { counters().problemMemHits.add(); }
void countProblemDiskHit() { counters().problemDiskHits.add(); }
void countProblemBuild() { counters().problemBuilds.add(); }
void countProblemBadEntry() { counters().problemBadEntries.add(); }

// The write counters are the dependent side of the snapshot
// invariants (writes <= misses + bad entries; writes <= builds), so
// their increment publishes the preceding cause increments — see
// storeStats().
void countCircuitDiskWrite()
{
    counters().circuitDiskWrites.addRelease();
}
void countProblemDiskWrite()
{
    counters().problemDiskWrites.addRelease();
}

std::string
storeDir()
{
    Config &c = config();
    std::lock_guard<std::mutex> lock(c.mtx);
    if (c.dirOverridden)
        return c.dirOverride;
    const char *env = std::getenv("QCC_STORE_DIR");
    return env ? std::string(env) : std::string();
}

bool
storeEnabled()
{
    {
        Config &c = config();
        std::lock_guard<std::mutex> lock(c.mtx);
        if (c.enabledOverridden && !c.enabledOverride)
            return false;
        if (!c.enabledOverridden) {
            const char *env = std::getenv("QCC_STORE");
            if (env && std::string(env) == "0")
                return false;
        }
    }
    return !storeDir().empty();
}

void
setStoreDir(const std::string &dir)
{
    Config &c = config();
    std::lock_guard<std::mutex> lock(c.mtx);
    c.dirOverridden = true;
    c.dirOverride = dir;
}

void
setStoreEnabled(bool enabled)
{
    Config &c = config();
    std::lock_guard<std::mutex> lock(c.mtx);
    c.enabledOverridden = true;
    c.enabledOverride = enabled;
}

bool
ensureDirectory(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return !ec && std::filesystem::is_directory(dir, ec);
}

} // namespace qcc
