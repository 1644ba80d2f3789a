/**
 * @file
 * Scoped span tracer emitting Chrome trace-event JSON. Spans are
 * RAII: construction appends a "B" (begin) event into a per-thread
 * buffer, destruction appends the matching "E" with any args
 * attached in between; TRACE_EVENTS_<name>.json (written under the
 * QCC_JSON convention) loads directly into Perfetto or
 * chrome://tracing.
 *
 * Cost model: tracing is off by default (QCC_TRACE unset/0) and a
 * disabled span is one relaxed load, one branch, and one
 * steady_clock read — no allocation, no locking, no buffer traffic.
 * The clock read stays so elapsedMillis() works either way, which
 * is what lets spans replace bespoke wall-time plumbing (the
 * compiler's per-pass timing) instead of duplicating it.
 *
 * Timestamps are steady_clock microseconds. On Linux that is
 * CLOCK_MONOTONIC, whose timebase is shared by every process on the
 * machine, so events recorded in forked sweepd workers land on the
 * same timeline as the service without an epoch handshake; the
 * service adopts worker events verbatim (their pid/tid preserved)
 * via adoptTraceEventsDom().
 */

#ifndef QCC_OBS_TRACE_HH
#define QCC_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>

namespace qcc {

struct JsonValue;

/** Cached QCC_TRACE flag (default off; any value but "0" enables). */
bool traceEnabled();

/** Flip the cached flag (tests and bench harnesses). */
void setTraceEnabled(bool on);

/**
 * One RAII span. Name spans by layer taxonomy
 * ("subsystem.operation", e.g. "compile.sabre-route",
 * "sweepd.job"); attach dimensions with arg() — they serialize into
 * the Chrome "args" object on the end event.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *span_name);
    /** Concatenating form for dynamic names ("compile." + pass). */
    TraceSpan(const char *prefix, const std::string &span_name);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    void arg(const char *key, const char *v);
    void arg(const char *key, const std::string &v);
    void arg(const char *key, bool v);
    void arg(const char *key, double v);

    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T> &&
                                          !std::is_same_v<T, bool>>>
    void
    arg(const char *key, T v)
    {
        if (!live)
            return;
        if constexpr (std::is_signed_v<T>)
            argSigned(key, (long long)v);
        else
            argUnsigned(key, (unsigned long long)v);
    }

    /** Wall time since construction, traced or not. */
    double elapsedMillis() const;

    bool active() const { return live; }

  private:
    void argSigned(const char *key, long long v);
    void argUnsigned(const char *key, unsigned long long v);
    void appendKey(const char *key);

    std::chrono::steady_clock::time_point t0;
    bool live = false;
    std::string name;     // filled only when live
    std::string argsJson; // object interior, no braces
};

#define QCC_SPAN_CAT2(a, b) a##b
#define QCC_SPAN_CAT(a, b) QCC_SPAN_CAT2(a, b)
/** Anonymous span covering the rest of the enclosing scope. */
#define QCC_SPAN(...) \
    ::qcc::TraceSpan QCC_SPAN_CAT(qccSpan_, __LINE__)(__VA_ARGS__)

/** Total buffered events across all threads (native + adopted). */
size_t traceEventCount();

/** Events dropped after a thread hit its buffer cap. */
uint64_t traceDroppedCount();

/** Discard every buffered event (per-run resets and tests). */
void clearTrace();

/**
 * All buffered events as a Chrome trace-event array, stable-sorted
 * by timestamp (per-thread chronological order is preserved, so
 * B/E pairs stay matched and nested).
 */
std::string traceEventsArrayJson();

/** The array wrapped as {"traceEvents": [...]} for Perfetto. */
std::string traceEventsJson();

/**
 * Write traceEventsJson() to TRACE_EVENTS_<name>.json under the
 * QCC_JSON convention; returns the path, or "" when output is
 * disabled or no events are buffered.
 */
std::string writeTraceJson(const std::string &name);

/**
 * Adopt events recorded by another process (a parsed
 * traceEventsArrayJson() document, e.g. from a sweepd worker
 * reply). Foreign pid/tid/ts/args are preserved verbatim — adopted
 * events re-serialize byte-identically. An event whose ts, pid or
 * tid does not fit its integer field is skipped. Returns the number
 * of events adopted.
 */
size_t adoptTraceEventsDom(const JsonValue &events);

} // namespace qcc

#endif // QCC_OBS_TRACE_HH
