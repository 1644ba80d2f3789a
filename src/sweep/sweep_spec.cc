#include "sweep/sweep_spec.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/binio.hh"

namespace qcc {

namespace {

/** %.17g literal as a JSON number value. */
JsonValue
numberValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    JsonValue out;
    out.kind = JsonValue::Kind::Number;
    out.number = v;
    out.text = buf;
    return out;
}

/**
 * product * n, or SweepError("axes") when that passes
 * kMaxAxisPoints. The check divides before anything multiplies, so
 * it cannot overflow.
 */
size_t
grownProduct(size_t product, size_t n)
{
    if (n > 0 && product > SweepSpec::kMaxAxisPoints / n)
        throw SweepError("axes",
                         "the axes expand to more than " +
                             std::to_string(SweepSpec::kMaxAxisPoints) +
                             " jobs");
    return product * n;
}

/**
 * Expand one axis entry: an array is taken verbatim; an object is a
 * numeric {"from", "to", "step"} range, endpoint-inclusive when the
 * span is a whole number of steps (so 1.0..2.6 step 0.2 lands on
 * 2.6) and never emitting a point past `to` otherwise. `product`
 * (the earlier axes' product) grows by this axis's size, checked
 * before a range is materialized.
 */
std::vector<JsonValue>
axisValues(const std::string &field, const JsonValue &v,
           size_t &product)
{
    if (v.isArray()) {
        if (v.items.empty())
            throw SweepError("axes." + field, "axis list is empty");
        product = grownProduct(product, v.items.size());
        return v.items;
    }
    if (!v.isObject())
        throw SweepError("axes." + field,
                         "expected a value list or a "
                         "{from, to, step} range");
    const JsonValue *from = v.find("from");
    const JsonValue *to = v.find("to");
    const JsonValue *step = v.find("step");
    if (!from || !to || !step || !from->isNumber() ||
        !to->isNumber() || !step->isNumber())
        throw SweepError("axes." + field,
                         "range needs numeric from, to, and step");
    if (v.members.size() != 3)
        throw SweepError("axes." + field,
                         "range takes exactly from, to, and step");
    const double lo = from->number, hi = to->number,
                 d = step->number;
    if (d <= 0.0 || hi < lo)
        throw SweepError("axes." + field,
                         "range needs step > 0 and to >= from");
    // A double-to-size_t cast of a wild quotient is UB (and a huge
    // one is an OOM, not a sweep): gate the point count before the
    // cast, like api/spec gates its int casts.
    const double quotient = (hi - lo) / d;
    if (!std::isfinite(quotient) ||
        quotient >= double(SweepSpec::kMaxAxisPoints))
        throw SweepError("axes." + field,
                         "range expands to too many points");
    // Index-based stepping avoids accumulating rounding error; the
    // step-relative tolerance only absorbs FP noise at the
    // endpoint, so a range whose span is not a multiple of the
    // step never emits a point past `to`.
    const size_t n = size_t(quotient + 1e-6) + 1;
    product = grownProduct(product, n);
    std::vector<JsonValue> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(numberValue(lo + double(i) * d));
    return out;
}

/**
 * Size of the axes' cartesian product; SweepError("axes") above
 * kMaxAxisPoints.
 */
size_t
axisProduct(const std::vector<SweepAxis> &axes)
{
    size_t product = 1;
    for (const auto &axis : axes)
        product = grownProduct(product, axis.values.size());
    return product;
}

} // namespace

std::vector<ExperimentSpec>
SweepSpec::expand() const
{
    // Axis fields/values are validated here too: applySpecField
    // throws SpecError (naming the field) from the first product
    // job, so programmatically built specs fail exactly like parsed
    // ones — fromJson() just surfaces the same errors earlier.
    std::vector<ExperimentSpec> jobs;
    if (!axes.empty()) {
        const size_t product = axisProduct(axes);
        jobs.reserve(product + explicitJobs.size());

        // Odometer over the axes: first axis slowest, like nested
        // loops written in document order.
        std::vector<size_t> digit(axes.size(), 0);
        for (size_t j = 0; j < product; ++j) {
            ExperimentSpec spec = base;
            for (size_t a = 0; a < axes.size(); ++a)
                applySpecField(spec, axes[a].field,
                               axes[a].values[digit[a]]);
            jobs.push_back(std::move(spec));
            for (size_t a = axes.size(); a-- > 0;) {
                if (++digit[a] < axes[a].values.size())
                    break;
                digit[a] = 0;
            }
        }
    } else if (explicitJobs.empty()) {
        jobs.push_back(base); // a bare base is a one-job sweep
    }

    for (const auto &job : explicitJobs)
        jobs.push_back(job);
    return jobs;
}

size_t
SweepSpec::jobCount() const
{
    if (axes.empty())
        return explicitJobs.empty() ? 1 : explicitJobs.size();
    return axisProduct(axes) + explicitJobs.size();
}

std::string
SweepSpec::json() const
{
    std::string out = "{\n";
    out += "  \"name\": \"" + jsonEscape(name) + "\",\n";
    out += "  \"base\": ";
    jsonIndentInto(out, base.json(), 2);
    out += ",\n  \"axes\": {";
    for (size_t a = 0; a < axes.size(); ++a) {
        out += (a ? "," : "");
        out += "\n    \"" + jsonEscape(axes[a].field) + "\": [";
        for (size_t i = 0; i < axes[a].values.size(); ++i)
            out += (i ? ", " : "") + axes[a].values[i].dump();
        out += "]";
    }
    out += axes.empty() ? "},\n" : "\n  },\n";
    out += "  \"jobs\": [";
    for (size_t j = 0; j < explicitJobs.size(); ++j) {
        out += (j ? "," : "");
        out += "\n    ";
        jsonIndentInto(out, explicitJobs[j].json(), 4);
    }
    out += explicitJobs.empty() ? "],\n" : "\n  ],\n";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  \"concurrency\": %u,\n"
                  "  \"timeout_ms\": %.17g,\n"
                  "  \"retries\": %d,\n"
                  "  \"emit_timings\": %s\n}\n",
                  concurrency, jobTimeoutMs, retries,
                  emitTimings ? "true" : "false");
    out += buf;
    return out;
}

SweepSpec
SweepSpec::fromJson(const std::string &doc)
{
    JsonValue root;
    try {
        root = JsonValue::parse(doc);
    } catch (const JsonError &e) {
        throw SweepError("(document)", e.what());
    }
    if (!root.isObject())
        throw SweepError("(document)",
                         "sweep spec must be a JSON object");

    SweepSpec spec;
    // Jobs are expanded after the whole document is parsed, so an
    // explicit job inherits the base defaults no matter where the
    // "base" member appears relative to "jobs".
    const JsonValue *rawJobs = nullptr;
    for (const auto &[key, value] : root.members) {
        if (key == "name") {
            if (!value.isString())
                throw SweepError("name", "expected a string");
            spec.name = value.text;
        } else if (key == "base") {
            if (!value.isObject())
                throw SweepError("base",
                                 "expected a spec object");
            applySpecObject(spec.base, value);
        } else if (key == "axes") {
            if (!value.isObject())
                throw SweepError("axes",
                                 "expected an object of field -> "
                                 "values");
            size_t product = 1;
            for (const auto &[field, av] : value.members)
                spec.axes.push_back(
                    {field, axisValues(field, av, product)});
        } else if (key == "jobs") {
            if (!value.isArray())
                throw SweepError("jobs",
                                 "expected a list of spec objects");
            rawJobs = &value;
        } else if (key == "concurrency") {
            uint64_t n = 0;
            if (!value.asUint64(n) || n > kMaxConcurrency)
                throw SweepError("concurrency",
                                 "expected an integer in [0, " +
                                     std::to_string(kMaxConcurrency) +
                                     "]");
            spec.concurrency = unsigned(n);
        } else if (key == "timeout_ms") {
            if (!value.isNumber() || value.number < 0.0)
                throw SweepError("timeout_ms",
                                 "expected a non-negative number");
            spec.jobTimeoutMs = value.number;
        } else if (key == "retries") {
            uint64_t n = 0;
            if (!value.asUint64(n) || n > 100)
                throw SweepError("retries",
                                 "expected an integer in [0, 100]");
            spec.retries = int(n);
        } else if (key == "emit_timings") {
            if (!value.isBool())
                throw SweepError("emit_timings",
                                 "expected true or false");
            spec.emitTimings = value.boolean;
        } else {
            throw SweepError(key, "unknown sweep field");
        }
    }

    if (rawJobs) {
        for (size_t j = 0; j < rawJobs->items.size(); ++j) {
            const JsonValue &jv = rawJobs->items[j];
            if (!jv.isObject())
                throw SweepError("jobs[" + std::to_string(j) + "]",
                                 "expected a spec object");
            ExperimentSpec job = spec.base;
            applySpecObject(job, jv);
            spec.explicitJobs.push_back(std::move(job));
        }
    }

    // Surface unknown axis fields / ill-typed values at parse time
    // rather than on the first run() — but keep jobs unvalidated
    // against the registries (that is per-job work for the engine).
    for (const auto &axis : spec.axes) {
        ExperimentSpec scratch = spec.base;
        for (const auto &v : axis.values)
            applySpecField(scratch, axis.field, v);
    }
    return spec;
}

SweepSpec
SweepSpec::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SweepError("(file)", "cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromJson(buf.str());
}

bool
parseConcurrency(const char *text, unsigned &out)
{
    if (!text || *text < '0' || *text > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || n > SweepSpec::kMaxConcurrency)
        return false;
    out = unsigned(n);
    return true;
}

std::string
sweepJobHash(const ExperimentSpec &spec)
{
    const std::string doc = spec.json();
    // Two independently seeded FNV-1a passes: 128 bits of key, so a
    // hash match really does mean "same spec" for resume purposes.
    const uint64_t lo = fnv1a(doc.data(), doc.size());
    const uint64_t hi =
        fnv1a(doc.data(), doc.size(), 0x84222325cbf29ce4ull);
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  (unsigned long long)hi, (unsigned long long)lo);
    return buf;
}

} // namespace qcc
