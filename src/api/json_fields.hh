/**
 * @file
 * Field tables for the api layer's JSON documents: the
 * ExperimentSpec document, and the ExperimentResult document's
 * scalars and its compiled / evolution / estimate / timing_ms
 * blocks. A table is an array of
 * {json key, member pointer} rows in emission order, and both the
 * writer and the reader of a document walk the same table, so each
 * member is named exactly once. Rows flagged `timing` hold volatile
 * wall-clock values: they print as %.6g and writers drop them when
 * timings are off.
 *
 * The documents differ in one typing rule only: a spec's int
 * fields take any in-range number (truncated), while every integer
 * in a result is an exact unsigned literal (readJsonField's
 * `exactInts`).
 */

#ifndef QCC_API_JSON_FIELDS_HH
#define QCC_API_JSON_FIELDS_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/json.hh"

namespace qcc {

/**
 * Pointer to one serialized member of T. The three unsigned widths
 * cover size_t and uint64_t on every ABI without naming either twice.
 */
template <class T>
using JsonMember =
    std::variant<std::string T::*, double T::*, bool T::*, int T::*,
                 unsigned T::*, unsigned long T::*,
                 unsigned long long T::*>;

/** One row of a document's field table. */
template <class T>
struct JsonField
{
    std::string_view key; ///< length known up front: cheap lookups
    JsonMember<T> member;
    bool timing = false; ///< volatile: %.6g, dropped without timings
};

/** Append `"key": value` for `obj`'s member under `field`. */
template <class T>
void
appendJsonField(std::string &out, const T &obj, const JsonField<T> &field)
{
    out += '"';
    out += field.key;
    out += "\": ";
    std::visit(
        [&](auto member) {
            const auto &v = obj.*member;
            using V = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<V, std::string>) {
                out += '"';
                out += jsonEscape(v);
                out += '"';
            } else if constexpr (std::is_same_v<V, bool>) {
                out += v ? "true" : "false";
            } else if constexpr (std::is_same_v<V, double>) {
                char buf[32];
                std::snprintf(buf, sizeof(buf),
                              field.timing ? "%.6g" : "%.17g", v);
                out += buf;
            } else {
                out += std::to_string(v);
            }
        },
        field.member);
}

/**
 * Parse `v` into `obj`'s member for `field`: strings, booleans and
 * doubles must match their JSON kind, unsigned members take exact
 * unsigned literals, and int members take any in-range number,
 * truncated, unless `exactInts`. Returns nullptr on success, else
 * the diagnostic.
 */
template <class T>
const char *
readJsonField(T &obj, const JsonField<T> &field, const JsonValue &v,
              bool exactInts)
{
    return std::visit(
        [&](auto member) -> const char * {
            auto &slot = obj.*member;
            using V = std::decay_t<decltype(slot)>;
            if constexpr (std::is_same_v<V, std::string>) {
                if (!v.isString())
                    return "expected a string";
                slot = v.text;
            } else if constexpr (std::is_same_v<V, bool>) {
                if (!v.isBool())
                    return "expected true or false";
                slot = v.boolean;
            } else if constexpr (std::is_same_v<V, double>) {
                if (!v.isNumber())
                    return "expected a number";
                slot = v.number;
            } else {
                if constexpr (std::is_same_v<V, int>) {
                    if (!exactInts) {
                        if (!v.isNumber())
                            return "expected a number";
                        // Double-to-int conversion outside int's
                        // range is UB; gate the cast.
                        if (!(v.number >= -2147483648.0 &&
                              v.number <= 2147483647.0))
                            return "integer out of range";
                        slot = int(v.number);
                        return nullptr;
                    }
                }
                uint64_t u = 0;
                if (!v.asUint64(u))
                    return "expected an unsigned integer";
                slot = V(u);
            }
            return nullptr;
        },
        field.member);
}

/** The row of `table` named `key`; nullptr when there is none. */
template <class T, size_t N>
const JsonField<T> *
findJsonField(const JsonField<T> (&table)[N], const std::string &key)
{
    for (const JsonField<T> &field : table)
        if (key == field.key)
            return &field;
    return nullptr;
}

} // namespace qcc

#endif // QCC_API_JSON_FIELDS_HH
