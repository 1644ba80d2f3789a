#include "api/spec.hh"

#include <iterator>

#include "api/json_fields.hh"

namespace qcc {

namespace {

/** The spec document, one row per field in emission order. */
constexpr JsonField<ExperimentSpec> kSpecFields[] = {
    {"kind", &ExperimentSpec::kind},
    {"molecule", &ExperimentSpec::molecule},
    {"bond", &ExperimentSpec::bond},
    {"basis_ng", &ExperimentSpec::basisNg},
    {"compression", &ExperimentSpec::compression},
    {"grouping", &ExperimentSpec::grouping},
    {"mode", &ExperimentSpec::mode},
    {"optimizer", &ExperimentSpec::optimizer},
    {"pipeline", &ExperimentSpec::pipeline},
    {"architecture", &ExperimentSpec::architecture},
    {"cnot_error", &ExperimentSpec::cnotError},
    {"single_qubit_error", &ExperimentSpec::singleQubitError},
    {"shots", &ExperimentSpec::shots},
    {"seed", &ExperimentSpec::seed},
    {"max_iter", &ExperimentSpec::maxIter},
    {"spsa_iter", &ExperimentSpec::spsaIter},
    {"evolve_time", &ExperimentSpec::evolveTime},
    {"evolve_steps", &ExperimentSpec::evolveSteps},
    {"evolve_order", &ExperimentSpec::evolveOrder},
    {"reference", &ExperimentSpec::reference},
};

const JsonField<ExperimentSpec> &
specField(const std::string &key)
{
    if (const JsonField<ExperimentSpec> *field =
            findJsonField(kSpecFields, key))
        return *field;
    throw SpecError(key, "unknown spec field");
}

/** Spec typing: ints take any in-range number. */
void
readSpecField(ExperimentSpec &spec, const JsonField<ExperimentSpec> &field,
              const JsonValue &v)
{
    if (const char *error = readJsonField(spec, field, v, false))
        throw SpecError(std::string(field.key), error);
}

} // namespace

std::string
ExperimentSpec::json() const
{
    std::string out = "{\n";
    for (const JsonField<ExperimentSpec> &field : kSpecFields) {
        out += "  ";
        appendJsonField(out, *this, field);
        out += &field == std::end(kSpecFields) - 1 ? "\n" : ",\n";
    }
    out += "}\n";
    return out;
}

void
applySpecField(ExperimentSpec &spec, const std::string &key,
               const JsonValue &v)
{
    readSpecField(spec, specField(key), v);
}

void
applySpecObject(ExperimentSpec &spec, const JsonValue &object)
{
    // The ordered DOM preserves duplicate members; silently letting
    // the last one win would mask an editing mistake in a
    // hand-authored spec, so reject them with field provenance.
    bool seen[std::size(kSpecFields)] = {};
    for (const auto &[key, value] : object.members) {
        const JsonField<ExperimentSpec> &field = specField(key);
        if (seen[&field - kSpecFields])
            throw SpecError(key, "duplicate spec field");
        seen[&field - kSpecFields] = true;
        readSpecField(spec, field, value);
    }
}

ExperimentSpec
ExperimentSpec::fromJson(const std::string &doc)
{
    JsonValue root;
    try {
        root = JsonValue::parse(doc);
    } catch (const JsonError &e) {
        throw SpecError("(document)", e.what());
    }
    if (!root.isObject())
        throw SpecError("(document)", "spec must be a JSON object");
    ExperimentSpec spec;
    applySpecObject(spec, root);
    return spec;
}

} // namespace qcc
