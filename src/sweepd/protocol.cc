#include "sweepd/protocol.hh"

#include "common/json.hh"

namespace qcc {
namespace sweepd {

namespace {

/** Append `doc` (multi-line) with its trailing newlines trimmed. */
void
appendTrimmed(std::string &out, std::string doc)
{
    while (!doc.empty() && doc.back() == '\n')
        doc.pop_back();
    out += doc;
}

/** Close a reply object after its riders ("" = omit the member). */
void
appendRiders(std::string &out, const std::string &trace_events,
             const std::string &metrics)
{
    if (!trace_events.empty()) {
        out += ",\n\"trace\": ";
        out += trace_events;
    }
    if (!metrics.empty()) {
        out += ",\n\"metrics\": ";
        appendTrimmed(out, metrics);
    }
    out += "}\n";
}

} // namespace

std::string
encodeJobRequest(const JobRequest &request)
{
    std::string out = "{\"spec\": ";
    appendTrimmed(out, request.spec.json());
    out += "}\n";
    return out;
}

JobRequest
decodeJobRequest(const std::string &payload)
{
    const JsonValue doc = JsonValue::parse(payload);
    if (!doc.isObject())
        throw SpecError("(request)", "expected a request object");
    JobRequest request;
    bool haveSpec = false;
    for (const auto &[key, v] : doc.members) {
        if (key == "spec") {
            if (!v.isObject())
                throw SpecError("(request)",
                                "spec must be an object");
            applySpecObject(request.spec, v);
            haveSpec = true;
        } else {
            throw SpecError("(request)",
                            "unknown request member: " + key);
        }
    }
    if (!haveSpec)
        throw SpecError("(request)", "request carries no spec");
    return request;
}


std::string
encodeDoneReply(const ExperimentResult &result,
                const std::string &trace_events,
                const std::string &metrics)
{
    std::string out = "{\"status\": \"done\",\n\"result\": ";
    ExperimentResult::JsonOptions jo;
    jo.timings = true; // the store drops them when configured to
    jo.trace = false;
    appendTrimmed(out, result.json(jo));
    appendRiders(out, trace_events, metrics);
    return out;
}

std::string
encodeFailedReply(const std::string &error, bool fast_fail,
                  const std::string &trace_events,
                  const std::string &metrics)
{
    std::string out = "{\"status\": \"failed\", \"fast_fail\": ";
    out += fast_fail ? "true" : "false";
    out += ", \"error\": \"" + jsonEscape(error) + "\"";
    appendRiders(out, trace_events, metrics);
    return out;
}

bool
decodeReply(const std::string &payload, WorkerReply &out)
{
    JsonValue doc;
    try {
        doc = JsonValue::parse(payload);
    } catch (const JsonError &) {
        return false;
    }
    if (!doc.isObject())
        return false;
    const JsonValue *status = doc.find("status");
    if (!status || !status->isString())
        return false;

    WorkerReply reply;
    if (status->text == "done") {
        reply.done = true;
        const JsonValue *result = doc.find("result");
        if (!result ||
            !ExperimentResult::fromJsonDom(*result, reply.result))
            return false;
    } else if (status->text == "failed") {
        const JsonValue *error = doc.find("error");
        if (!error || !error->isString())
            return false;
        reply.error = error->text;
        if (const JsonValue *ff = doc.find("fast_fail")) {
            if (!ff->isBool())
                return false;
            reply.fastFail = ff->boolean;
        }
    } else {
        return false;
    }
    if (const JsonValue *trace = doc.find("trace"))
        if (trace->isArray())
            reply.trace = *trace;
    if (const JsonValue *metrics = doc.find("metrics"))
        if (metrics->isObject())
            reply.metrics = *metrics;
    out = std::move(reply);
    return true;
}

} // namespace sweepd
} // namespace qcc
