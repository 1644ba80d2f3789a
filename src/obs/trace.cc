#include "obs/trace.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace qcc {

namespace {

using clock_type = std::chrono::steady_clock;

/** Per-thread buffer cap; beyond it events are counted as dropped. */
constexpr size_t kMaxEventsPerThread = size_t(1) << 16;

struct TraceEvent
{
    std::string name;
    char phase = 'B';
    uint64_t tsNs = 0;    ///< native timestamp (sort key)
    std::string tsText;   ///< foreign raw literal; "" = format tsNs
    long long pid = 0;
    long long tid = 0;
    std::string args;     ///< full "{...}" object text; "" = none
};

/**
 * One buffer per thread. Only the owning thread appends; the mutex
 * exists for the rare flush/clear from another thread, so the
 * append-path lock is effectively uncontended.
 */
struct ThreadBuf
{
    std::mutex mtx;
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
    long long tid = 0;
};

struct TraceRegistry
{
    std::mutex mtx;
    std::vector<std::unique_ptr<ThreadBuf>> bufs;
    long long nextTid = 0;
};

TraceRegistry &
traceRegistry()
{
    // Deliberately immortal: pool worker threads may still emit
    // during static destruction, and destruction order against the
    // thread-pool singleton is unspecified.
    static TraceRegistry *r = new TraceRegistry();
    return *r;
}

long long
tracePid()
{
    static const long long pid = (long long)::getpid();
    return pid;
}

ThreadBuf &
localBuf()
{
    thread_local ThreadBuf *buf = [] {
        TraceRegistry &r = traceRegistry();
        std::lock_guard<std::mutex> lock(r.mtx);
        r.bufs.push_back(std::make_unique<ThreadBuf>());
        r.bufs.back()->tid = r.nextTid++;
        return r.bufs.back().get();
    }();
    return *buf;
}

void
appendEvent(TraceEvent &&e)
{
    ThreadBuf &b = localBuf();
    std::lock_guard<std::mutex> lock(b.mtx);
    if (b.events.size() >= kMaxEventsPerThread) {
        ++b.dropped;
        return;
    }
    b.events.push_back(std::move(e));
}

uint64_t
toNs(clock_type::time_point tp)
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count());
}

std::atomic<bool> &
traceFlag()
{
    static std::atomic<bool> flag{[] {
        const char *env = std::getenv("QCC_TRACE");
        return env && *env && std::strcmp(env, "0") != 0;
    }()};
    return flag;
}

void
eventInto(std::string &out, const TraceEvent &e)
{
    char buf[96];
    out += "{\"name\": \"" + jsonEscape(e.name) + "\", \"ph\": \"";
    out += e.phase;
    out += "\", \"ts\": ";
    if (!e.tsText.empty()) {
        out += e.tsText;
    } else {
        std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                      (unsigned long long)(e.tsNs / 1000),
                      (unsigned long long)(e.tsNs % 1000));
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), ", \"pid\": %lld, \"tid\": %lld",
                  e.pid, e.tid);
    out += buf;
    if (!e.args.empty()) {
        out += ", \"args\": ";
        out += e.args;
    }
    out += "}";
}

} // namespace

bool
traceEnabled()
{
    return traceFlag().load(std::memory_order_relaxed);
}

void
setTraceEnabled(bool on)
{
    traceFlag().store(on, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char *span_name)
    : t0(clock_type::now()), live(traceEnabled())
{
    if (!live)
        return;
    name = span_name;
    TraceEvent e;
    e.name = name;
    e.phase = 'B';
    e.tsNs = toNs(t0);
    e.pid = tracePid();
    e.tid = localBuf().tid;
    appendEvent(std::move(e));
}

TraceSpan::TraceSpan(const char *prefix,
                     const std::string &span_name)
    : t0(clock_type::now()), live(traceEnabled())
{
    if (!live)
        return;
    name = prefix;
    name += span_name;
    TraceEvent e;
    e.name = name;
    e.phase = 'B';
    e.tsNs = toNs(t0);
    e.pid = tracePid();
    e.tid = localBuf().tid;
    appendEvent(std::move(e));
}

TraceSpan::~TraceSpan()
{
    if (!live)
        return;
    TraceEvent e;
    e.name = std::move(name);
    e.phase = 'E';
    e.tsNs = toNs(clock_type::now());
    e.pid = tracePid();
    e.tid = localBuf().tid;
    if (!argsJson.empty())
        e.args = "{" + argsJson + "}";
    appendEvent(std::move(e));
}

void
TraceSpan::appendKey(const char *key)
{
    argsJson += argsJson.empty() ? "\"" : ", \"";
    argsJson += key;
    argsJson += "\": ";
}

void
TraceSpan::arg(const char *key, const char *v)
{
    if (!live)
        return;
    appendKey(key);
    argsJson += '"';
    argsJson += jsonEscape(v);
    argsJson += '"';
}

void
TraceSpan::arg(const char *key, const std::string &v)
{
    if (!live)
        return;
    appendKey(key);
    argsJson += '"';
    argsJson += jsonEscape(v);
    argsJson += '"';
}

void
TraceSpan::arg(const char *key, bool v)
{
    if (!live)
        return;
    appendKey(key);
    argsJson += v ? "true" : "false";
}

void
TraceSpan::arg(const char *key, double v)
{
    if (!live)
        return;
    appendKey(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    argsJson += buf;
}

void
TraceSpan::argSigned(const char *key, long long v)
{
    appendKey(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", v);
    argsJson += buf;
}

void
TraceSpan::argUnsigned(const char *key, unsigned long long v)
{
    appendKey(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", v);
    argsJson += buf;
}

double
TraceSpan::elapsedMillis() const
{
    return std::chrono::duration<double, std::milli>(
               clock_type::now() - t0)
        .count();
}

size_t
traceEventCount()
{
    TraceRegistry &r = traceRegistry();
    std::lock_guard<std::mutex> lock(r.mtx);
    size_t n = 0;
    for (const auto &b : r.bufs) {
        std::lock_guard<std::mutex> bl(b->mtx);
        n += b->events.size();
    }
    return n;
}

uint64_t
traceDroppedCount()
{
    TraceRegistry &r = traceRegistry();
    std::lock_guard<std::mutex> lock(r.mtx);
    uint64_t n = 0;
    for (const auto &b : r.bufs) {
        std::lock_guard<std::mutex> bl(b->mtx);
        n += b->dropped;
    }
    return n;
}

void
clearTrace()
{
    TraceRegistry &r = traceRegistry();
    std::lock_guard<std::mutex> lock(r.mtx);
    for (const auto &b : r.bufs) {
        std::lock_guard<std::mutex> bl(b->mtx);
        b->events.clear();
        b->dropped = 0;
    }
}

std::string
traceEventsArrayJson()
{
    std::vector<TraceEvent> all;
    {
        TraceRegistry &r = traceRegistry();
        std::lock_guard<std::mutex> lock(r.mtx);
        for (const auto &b : r.bufs) {
            std::lock_guard<std::mutex> bl(b->mtx);
            all.insert(all.end(), b->events.begin(),
                       b->events.end());
        }
    }
    // Stable sort: each buffer is chronological, so equal-timestamp
    // runs keep per-thread order and B/E pairs stay matched.
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tsNs < b.tsNs;
                     });
    std::string out = "[";
    for (size_t i = 0; i < all.size(); ++i) {
        out += i ? ",\n " : "\n ";
        eventInto(out, all[i]);
    }
    out += all.empty() ? "]" : "\n]";
    return out;
}

std::string
traceEventsJson()
{
    return "{\"traceEvents\": " + traceEventsArrayJson() + "}\n";
}

std::string
writeTraceJson(const std::string &name)
{
    if (!traceEventCount())
        return {};
    const std::string path =
        qccJsonPath("TRACE_EVENTS_" + name + ".json");
    if (path.empty())
        return {};
    return writeOutputFile(path, traceEventsJson(), "writeTraceJson");
}

size_t
adoptTraceEventsDom(const JsonValue &events)
{
    if (!events.isArray())
        return 0;
    // Foreign numbers must fit the integer fields they are cast to;
    // an event with one that does not is dropped.
    auto fits = [](const JsonValue *v) {
        return !v || !v->isNumber() || fitsInt64(v->number);
    };
    size_t adopted = 0;
    for (const JsonValue &item : events.items) {
        if (!item.isObject())
            continue;
        const JsonValue *name = item.find("name");
        const JsonValue *ph = item.find("ph");
        const JsonValue *ts = item.find("ts");
        const JsonValue *pid = item.find("pid");
        const JsonValue *tid = item.find("tid");
        if (!name || !name->isString() || !ph || !ph->isString() ||
            ph->text.empty() || !ts || !ts->isNumber())
            continue;
        const double tsNs = ts->number * 1000.0;
        if (!(tsNs < 0x1p64) || !fits(pid) || !fits(tid))
            continue;
        TraceEvent e;
        e.name = name->text;
        e.phase = ph->text[0];
        e.tsText = ts->text.empty() ? std::to_string(ts->number)
                                    : ts->text;
        // Sort key only; serialization uses tsText.
        e.tsNs = tsNs > 0 ? uint64_t(tsNs) : 0;
        if (pid && pid->isNumber())
            e.pid = (long long)pid->number;
        if (tid && tid->isNumber())
            e.tid = (long long)tid->number;
        if (const JsonValue *args = item.find("args"))
            if (args->isObject())
                e.args = args->dump();
        appendEvent(std::move(e));
        ++adopted;
    }
    return adopted;
}

} // namespace qcc
