/**
 * @file
 * sweepd wire protocol — the JSON messages framed over the
 * parent/worker pipes (common/subprocess supplies the framing:
 * magic + length + payload + FNV-1a checksum). A worker serves one
 * exchange per job, as many as the service sends before it closes
 * the worker's stdin:
 *
 *   parent -> worker (stdin):  {"spec": { ...ExperimentSpec... }}
 *   worker -> parent (stdout): {"status": "done",
 *                               "result": { ...ExperimentResult... },
 *                               "trace": [...], "metrics": {...}}
 *                         or:  {"status": "failed",
 *                               "fast_fail": true|false,
 *                               "error": "...",
 *                               "trace": [...], "metrics": {...}}
 *
 * The result document is ExperimentResult::json() with the trace
 * dropped and timings kept; the parent rehydrates it with
 * ExperimentResult::fromJsonDom, so a record that travelled through
 * a worker re-serializes byte-for-byte identically to one computed
 * in-process (the concurrency-1-vs-N identity the ResultStore
 * promises). `fast_fail` marks spec, registry and JSON errors
 * (jobFaultOf's BadInput) — failures a retry cannot fix. Both reply
 * kinds carry the same telemetry riders, and each rider describes
 * exactly the job it answers (the worker resets its registry and
 * trace buffers after every reply). The `metrics` rider's cache and
 * store counters are how cross-process disk-tier sharing is observed
 * (a warm-store worker reports zero compile misses).
 */

#ifndef QCC_SWEEPD_PROTOCOL_HH
#define QCC_SWEEPD_PROTOCOL_HH

#include <string>

#include "api/experiment.hh"
#include "api/spec.hh"
#include "common/json.hh"

namespace qcc {
namespace sweepd {

/** One job, parent -> worker. */
struct JobRequest
{
    ExperimentSpec spec;
};

/** Decoded worker -> parent reply. */
struct WorkerReply
{
    bool done = false;     ///< status == "done"
    bool fastFail = false; ///< failed: spec/registry error, no retry
    std::string error;     ///< failed: diagnostic
    ExperimentResult result; ///< valid when done
    /**
     * Optional telemetry riders of either reply kind: `trace` is the
     * job's Chrome trace-event array (obs/trace
     * traceEventsArrayJson, present only when the worker ran with
     * QCC_TRACE on), `metrics` its metrics-registry snapshot
     * (obs/metrics metricsJson). The service adopts the first into
     * its own trace buffers and merges the second into its registry,
     * which is what turns a forked sweep into one coherent timeline.
     */
    JsonValue trace;
    JsonValue metrics;
};

/** Serialize a job request payload. */
std::string encodeJobRequest(const JobRequest &request);

/**
 * Parse a job request payload; throws JsonError/SpecError (which
 * the worker reports back as a fast-fail).
 */
JobRequest decodeJobRequest(const std::string &payload);

/**
 * Serialize a done reply (result without its optimizer trace).
 * `trace_events` is a Chrome trace-event array document ("" = omit
 * the member) and `metrics` a metricsJson() document ("" = omit).
 */
std::string encodeDoneReply(const ExperimentResult &result,
                            const std::string &trace_events = "",
                            const std::string &metrics = "");

/** Serialize a failed reply; the riders as for encodeDoneReply. */
std::string encodeFailedReply(const std::string &error,
                              bool fast_fail,
                              const std::string &trace_events = "",
                              const std::string &metrics = "");

/**
 * Parse a worker reply; false when the payload is not a
 * well-formed reply document (the parent records a failed job
 * naming the corruption rather than crashing).
 */
bool decodeReply(const std::string &payload, WorkerReply &out);

} // namespace sweepd
} // namespace qcc

#endif // QCC_SWEEPD_PROTOCOL_HH
