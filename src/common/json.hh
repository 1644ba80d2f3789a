/**
 * @file
 * Minimal JSON document model shared by the declarative layers. The
 * flat ExperimentSpec parser (api/spec) and the nested SweepSpec
 * documents (sweep/) both need to read user-authored JSON; this is
 * the one parser behind them: a small ordered DOM (object member
 * order is preserved, so axis order in a sweep document is
 * meaningful) with provenance-carrying errors. Numbers keep their
 * raw source text next to the parsed double, so 64-bit integers
 * (seeds, shot counts) round-trip exactly instead of through a
 * double.
 *
 * This is deliberately not a general-purpose JSON library: no
 * comments, no NaN/Inf extensions, UTF-8 pass-through for string
 * bytes. \uXXXX escapes cover the full Unicode range: astral-plane
 * characters arrive as UTF-16 surrogate pairs and decode to 4-byte
 * UTF-8; an unpaired surrogate is a JsonError naming the offset.
 */

#ifndef QCC_COMMON_JSON_HH
#define QCC_COMMON_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace qcc {

/** Malformed-document failure with byte-offset provenance. */
class JsonError : public std::runtime_error
{
  public:
    JsonError(const std::string &detail, size_t offset)
        : std::runtime_error("JSON error at offset " +
                             std::to_string(offset) + ": " + detail),
          byteOffset(offset)
    {
    }

    size_t offset() const { return byteOffset; }

  private:
    size_t byteOffset;
};

/** One parsed JSON value (ordered-member objects). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** String payload, or the raw literal text of a number. */
    std::string text;
    std::vector<JsonValue> items; ///< array elements
    /** Object members in document order. */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup (objects); nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /**
     * Number as an exact unsigned 64-bit integer, parsed from the
     * raw literal (doubles cannot carry a full uint64). False when
     * the value is not a non-negative integer literal in range.
     */
    bool asUint64(uint64_t &out) const;

    /** Serialize (compact; numbers keep their literal text). */
    std::string dump() const;

    /**
     * Parse one document; throws JsonError on malformed input or
     * trailing content.
     */
    static JsonValue parse(const std::string &doc);
};

/**
 * True when a parsed JSON number converts to int64_t without
 * overflow; false for NaN and the infinities. A foreign number must
 * pass this before an integer cast, which is undefined out of range.
 */
inline bool
fitsInt64(double v)
{
    return v >= -0x1p63 && v < 0x1p63;
}

/** JSON string escaping for the hand-rolled serializers. */
std::string jsonEscape(const std::string &s);

/**
 * Append a multi-line JSON document into `out`, indenting every
 * line after the first by `spaces` (embedding one hand-rolled
 * document inside another at the right nesting depth).
 */
void jsonIndentInto(std::string &out, const std::string &doc,
                    int spaces);

} // namespace qcc

#endif // QCC_COMMON_JSON_HH
