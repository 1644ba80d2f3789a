/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket latency histograms with lock-free hot paths. The
 * registry is the one home for operational counts: the compile
 * cache, the persistent stores, the thread pool and the sweep
 * engine count here and nowhere else, and readers (tests, benches,
 * CLI summaries) take before/after values of the same counters.
 * Everything snapshots into METRICS_<name>.json under the QCC_JSON
 * convention and merges across processes (sweepd workers ship their
 * snapshot back in the reply frame and the service folds it into
 * its own registry).
 *
 * Hot-path contract: add()/record() are a single relaxed fetch_add
 * (plus one for the histogram sum), no locks, no allocation. The
 * registry lookup itself takes a mutex, so call sites cache the
 * reference in a function-local static:
 *
 *     static MetricCounter &hits = metricCounter("x.hits");
 *     hits.add();
 *
 * Cross-counter consistency: callers that maintain invariants
 * between counters (e.g. "writes never exceed misses") publish the
 * dependent counter with addRelease() and read snapshots in reverse
 * dependency order through value()'s acquire load. The worked
 * example is the stores' `disk_writes` increments
 * (store/circuit_store.cc, store/problem_store.cc): a reader that
 * loads `disk_writes` before the misses or builds never sees more
 * writes than causes.
 */

#ifndef QCC_OBS_METRICS_HH
#define QCC_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace qcc {

struct JsonValue;

/** Monotonic event count. */
class MetricCounter
{
  public:
    /** Hot-path increment: one relaxed fetch_add. */
    void add(uint64_t n = 1)
    {
        val.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Increment that publishes every prior write in this thread.
     * Use for the dependent counter of a cross-counter invariant:
     * a reader that observes this increment through value() also
     * observes the cause counters incremented before it.
     */
    void addRelease(uint64_t n = 1)
    {
        val.fetch_add(n, std::memory_order_release);
    }

    uint64_t value() const
    {
        return val.load(std::memory_order_acquire);
    }

    void reset() { val.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> val{0};
};

/** Last-write-wins instantaneous value. */
class MetricGauge
{
  public:
    void set(int64_t v) { val.store(v, std::memory_order_relaxed); }
    void max(int64_t v)
    {
        int64_t cur = val.load(std::memory_order_relaxed);
        while (v > cur &&
               !val.compare_exchange_weak(cur, v,
                                          std::memory_order_relaxed))
            ;
    }
    int64_t value() const
    {
        return val.load(std::memory_order_relaxed);
    }
    void reset() { val.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> val{0};
};

/**
 * Latency histogram over fixed power-of-two microsecond buckets:
 * bucket i counts samples whose bit width is i (bucket 0 holds the
 * zeros, the last bucket is open-ended). Coarse by design — it
 * answers "is queue wait micro- or milliseconds" without a single
 * lock on the record path.
 */
class MetricHistogram
{
  public:
    static constexpr size_t kBuckets = 24;

    /** Hot-path record: two relaxed fetch_adds, no locks. */
    void record(uint64_t micros)
    {
        size_t b = bucketOf(micros);
        buckets[b].fetch_add(1, std::memory_order_relaxed);
        sumUs.fetch_add(micros, std::memory_order_relaxed);
    }

    /** Merge a foreign (e.g. worker-process) histogram in. */
    void merge(uint64_t sum_us, const uint64_t *counts, size_t n);

    struct Snapshot
    {
        uint64_t count = 0;
        uint64_t sumUs = 0;
        uint64_t buckets[kBuckets] = {};

        double mean() const
        {
            return count ? double(sumUs) / double(count) : 0.0;
        }
        /** Bucket-upper-bound estimate of the q-quantile (µs). */
        double quantile(double q) const;
    };

    Snapshot snapshot() const;
    void reset();

    static size_t bucketOf(uint64_t micros)
    {
        size_t b = 0;
        while (micros) {
            ++b;
            micros >>= 1;
        }
        return b < kBuckets ? b : kBuckets - 1;
    }

  private:
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> sumUs{0};
};

/**
 * Registry lookup by name; creates on first use. References are
 * stable for the process lifetime — cache them in a function-local
 * static at hot call sites. Naming scheme: subsystem.object.event,
 * lower_snake leaf (e.g. "store.circuit.disk_hits",
 * "parallel.queue_wait_us").
 */
MetricCounter &metricCounter(const std::string &name);
MetricGauge &metricGauge(const std::string &name);
MetricHistogram &metricHistogram(const std::string &name);

/**
 * Snapshot every registered metric as one JSON document:
 * {"counters": {...}, "gauges": {...}, "histograms": {...}} with
 * names in sorted order (the registry is a std::map).
 */
std::string metricsJson();

/**
 * Fold a metricsJson() document from another process into this
 * registry: counters and histogram buckets are summed, gauges take
 * the foreign value only via max (a merged gauge is a high-water
 * mark; a gauge outside the int64 range is skipped). Returns false
 * when the document does not look like a metrics snapshot.
 */
bool mergeMetricsDom(const JsonValue &doc);

/**
 * Write metricsJson() to METRICS_<name>.json under the QCC_JSON
 * convention; returns the path, or "" when QCC_JSON disables
 * output.
 */
std::string writeMetricsJson(const std::string &name);

/** Zero every registered metric (tests and per-run resets). */
void resetMetrics();

} // namespace qcc

#endif // QCC_OBS_METRICS_HH
