#include "obs/metrics.hh"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "common/json.hh"
#include "common/logging.hh"

namespace qcc {

namespace {

struct Registry
{
    std::mutex mtx;
    // Node-based maps: references stay valid across inserts, and
    // iteration comes out name-sorted for free.
    std::map<std::string, std::unique_ptr<MetricCounter>> counters;
    std::map<std::string, std::unique_ptr<MetricGauge>> gauges;
    std::map<std::string, std::unique_ptr<MetricHistogram>>
        histograms;
};

Registry &
registry()
{
    // Deliberately immortal: pool worker threads can record metrics
    // during static destruction, and destruction order against the
    // thread-pool singleton is unspecified.
    static Registry *r = new Registry();
    return *r;
}

} // namespace

void
MetricHistogram::merge(uint64_t sum_us, const uint64_t *counts,
                       size_t n)
{
    sumUs.fetch_add(sum_us, std::memory_order_relaxed);
    if (n > kBuckets)
        n = kBuckets;
    for (size_t i = 0; i < n; ++i)
        if (counts[i])
            buckets[i].fetch_add(counts[i],
                                 std::memory_order_relaxed);
}

MetricHistogram::Snapshot
MetricHistogram::snapshot() const
{
    Snapshot s;
    s.sumUs = sumUs.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kBuckets; ++i) {
        s.buckets[i] = buckets[i].load(std::memory_order_relaxed);
        s.count += s.buckets[i];
    }
    return s;
}

void
MetricHistogram::reset()
{
    sumUs.store(0, std::memory_order_relaxed);
    for (auto &b : buckets)
        b.store(0, std::memory_order_relaxed);
}

double
MetricHistogram::Snapshot::quantile(double q) const
{
    if (!count)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    uint64_t rank = uint64_t(q * double(count - 1)) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        seen += buckets[i];
        if (seen >= rank)
            // Upper edge of bucket i: 2^i - 1 is the largest value
            // with bit width i (bucket 0 holds exact zeros).
            return i ? double((uint64_t(1) << i) - 1) : 0.0;
    }
    return double((uint64_t(1) << (kBuckets - 1)));
}

MetricCounter &
metricCounter(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mtx);
    auto &slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<MetricCounter>();
    return *slot;
}

MetricGauge &
metricGauge(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mtx);
    auto &slot = r.gauges[name];
    if (!slot)
        slot = std::make_unique<MetricGauge>();
    return *slot;
}

MetricHistogram &
metricHistogram(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mtx);
    auto &slot = r.histograms[name];
    if (!slot)
        slot = std::make_unique<MetricHistogram>();
    return *slot;
}

std::string
metricsJson()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mtx);
    char buf[64];
    std::string out = "{\n\"counters\": {";
    bool first = true;
    for (const auto &[name, c] : r.counters) {
        std::snprintf(buf, sizeof(buf), "%llu",
                      (unsigned long long)c->value());
        out += (first ? "\n  \"" : ",\n  \"") + jsonEscape(name) +
               "\": " + buf;
        first = false;
    }
    out += first ? "},\n" : "\n},\n";

    out += "\"gauges\": {";
    first = true;
    for (const auto &[name, g] : r.gauges) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      (long long)g->value());
        out += (first ? "\n  \"" : ",\n  \"") + jsonEscape(name) +
               "\": " + buf;
        first = false;
    }
    out += first ? "},\n" : "\n},\n";

    out += "\"histograms\": {";
    first = true;
    for (const auto &[name, h] : r.histograms) {
        const MetricHistogram::Snapshot s = h->snapshot();
        out += (first ? "\n  \"" : ",\n  \"") + jsonEscape(name) +
               "\": {";
        std::snprintf(buf, sizeof(buf),
                      "\"count\": %llu, \"sum_us\": %llu, ",
                      (unsigned long long)s.count,
                      (unsigned long long)s.sumUs);
        out += buf;
        out += "\"buckets\": [";
        for (size_t i = 0; i < MetricHistogram::kBuckets; ++i) {
            std::snprintf(buf, sizeof(buf), "%s%llu", i ? ", " : "",
                          (unsigned long long)s.buckets[i]);
            out += buf;
        }
        out += "]}";
        first = false;
    }
    out += first ? "}\n" : "\n}\n";
    out += "}\n";
    return out;
}

bool
mergeMetricsDom(const JsonValue &doc)
{
    if (!doc.isObject())
        return false;
    const JsonValue *counters = doc.find("counters");
    const JsonValue *gauges = doc.find("gauges");
    const JsonValue *histograms = doc.find("histograms");
    if (!counters && !gauges && !histograms)
        return false;

    if (counters && counters->isObject())
        for (const auto &[name, v] : counters->members) {
            uint64_t n = 0;
            if (v.asUint64(n) && n)
                metricCounter(name).add(n);
        }

    if (gauges && gauges->isObject())
        for (const auto &[name, v] : gauges->members)
            if (v.isNumber() && fitsInt64(v.number))
                metricGauge(name).max(int64_t(v.number));

    if (histograms && histograms->isObject())
        for (const auto &[name, v] : histograms->members) {
            if (!v.isObject())
                continue;
            const JsonValue *sum = v.find("sum_us");
            const JsonValue *bkts = v.find("buckets");
            uint64_t sumUs = 0;
            if (sum)
                sum->asUint64(sumUs);
            uint64_t counts[MetricHistogram::kBuckets] = {};
            size_t n = 0;
            if (bkts && bkts->isArray())
                for (const JsonValue &b : bkts->items) {
                    if (n >= MetricHistogram::kBuckets)
                        break;
                    uint64_t c = 0;
                    b.asUint64(c);
                    counts[n++] = c;
                }
            metricHistogram(name).merge(sumUs, counts, n);
        }
    return true;
}

std::string
writeMetricsJson(const std::string &name)
{
    const std::string path =
        qccJsonPath("METRICS_" + name + ".json");
    if (path.empty())
        return {};
    return writeOutputFile(path, metricsJson(), "writeMetricsJson");
}

void
resetMetrics()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mtx);
    for (auto &[name, c] : r.counters)
        c->reset();
    for (auto &[name, g] : r.gauges)
        g->reset();
    for (auto &[name, h] : r.histograms)
        h->reset();
}

} // namespace qcc
