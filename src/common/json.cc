#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace qcc {

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &doc) : s(doc) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos < s.size())
            throw JsonError("trailing content after document", pos);
        return v;
    }

  private:
    JsonValue
    parseValue()
    {
        skipWs();
        if (pos >= s.size())
            throw JsonError("unexpected end of document", pos);
        const char c = s[pos];
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (c == 't' || c == 'f')
            return parseBool();
        if (c == 'n')
            return parseNull();
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parseNumber();
        throw JsonError(std::string("unexpected character '") + c +
                            "'",
                        pos);
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipWs();
        if (peek('}')) {
            ++pos;
            return v;
        }
        for (;;) {
            skipWs();
            JsonValue key = parseString();
            skipWs();
            expect(':');
            v.members.emplace_back(key.text, parseValue());
            skipWs();
            if (peek(',')) {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        skipWs();
        if (peek(']')) {
            ++pos;
            return v;
        }
        for (;;) {
            v.items.push_back(parseValue());
            skipWs();
            if (peek(',')) {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    parseString()
    {
        if (!peek('"'))
            throw JsonError("expected a string", pos);
        ++pos;
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c != '\\') {
                v.text += c;
                continue;
            }
            if (pos >= s.size())
                throw JsonError("unterminated escape", pos);
            const char e = s[pos++];
            switch (e) {
              case '"': v.text += '"'; break;
              case '\\': v.text += '\\'; break;
              case '/': v.text += '/'; break;
              case 'b': v.text += '\b'; break;
              case 'f': v.text += '\f'; break;
              case 'n': v.text += '\n'; break;
              case 'r': v.text += '\r'; break;
              case 't': v.text += '\t'; break;
              case 'u': v.text += parseUnicodeEscape(); break;
              default:
                  throw JsonError(std::string("unknown escape '\\") +
                                      e + "'",
                                  pos - 1);
            }
        }
        if (pos >= s.size())
            throw JsonError("unterminated string", pos);
        ++pos;
        return v;
    }

    /** The four hex digits of one \uXXXX escape. */
    unsigned
    readHex4()
    {
        if (pos + 4 > s.size())
            throw JsonError("truncated \\u escape", pos);
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
                cp |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f')
                cp |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                cp |= unsigned(h - 'A' + 10);
            else
                throw JsonError("bad hex digit in \\u escape",
                                pos - 1);
        }
        return cp;
    }

    /**
     * \uXXXX, encoded back to UTF-8. Astral-plane characters arrive
     * as a UTF-16 surrogate pair (high D800-DBFF immediately
     * followed by \u-escaped low DC00-DFFF) and are combined into
     * one 4-byte UTF-8 sequence; an unpaired or out-of-order
     * surrogate is a JsonError naming the offset — emitting it raw
     * would silently corrupt the string on round trip (invalid
     * UTF-8 that re-serializes as garbage).
     */
    std::string
    parseUnicodeEscape()
    {
        const size_t escapeStart = pos - 2; // the backslash
        unsigned cp = readHex4();
        if (cp >= 0xDC00 && cp <= 0xDFFF)
            throw JsonError("unpaired low surrogate in \\u escape",
                            escapeStart);
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos + 2 > s.size() || s[pos] != '\\' ||
                s[pos + 1] != 'u')
                throw JsonError(
                    "high surrogate not followed by a \\u escape",
                    escapeStart);
            pos += 2;
            const unsigned lo = readHex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
                throw JsonError("high surrogate followed by a "
                                "non-low-surrogate \\u escape",
                                escapeStart);
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        }
        std::string out;
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xC0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += char(0xE0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        } else {
            out += char(0xF0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3F));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        }
        return out;
    }

    JsonValue
    parseNumber()
    {
        const size_t start = pos;
        const char *begin = s.c_str() + pos;
        char *end = nullptr;
        const double d = std::strtod(begin, &end);
        if (end == begin)
            throw JsonError("expected a number", pos);
        pos += size_t(end - begin);
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = d;
        v.text = s.substr(start, pos - start);
        return v;
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (s.compare(pos, 4, "true") == 0) {
            v.boolean = true;
            pos += 4;
            return v;
        }
        if (s.compare(pos, 5, "false") == 0) {
            v.boolean = false;
            pos += 5;
            return v;
        }
        throw JsonError("expected true or false", pos);
    }

    JsonValue
    parseNull()
    {
        if (s.compare(pos, 4, "null") != 0)
            throw JsonError("expected null", pos);
        pos += 4;
        return JsonValue{};
    }

    void
    expect(char c)
    {
        skipWs();
        if (pos >= s.size() || s[pos] != c)
            throw JsonError(std::string("expected '") + c + "'", pos);
        ++pos;
    }

    bool
    peek(char c)
    {
        skipWs();
        return pos < s.size() && s[pos] == c;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    const std::string &s;
    size_t pos = 0;
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

bool
JsonValue::asUint64(uint64_t &out) const
{
    if (kind != Kind::Number || text.empty())
        return false;
    // Reject signs and fractional/exponent forms: an exact machine
    // word must come from a plain digit run.
    for (char c : text)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
              if (static_cast<unsigned char>(c) < 0x20) {
                  char buf[8];
                  std::snprintf(buf, sizeof(buf), "\\u%04x",
                                unsigned(c) & 0xFF);
                  out += buf;
              } else {
                  out += c;
              }
        }
    }
    return out;
}

void
jsonIndentInto(std::string &out, const std::string &doc, int spaces)
{
    const std::string pad(size_t(spaces), ' ');
    size_t pos = 0;
    bool first = true;
    while (pos < doc.size()) {
        size_t eol = doc.find('\n', pos);
        if (eol == std::string::npos)
            eol = doc.size();
        if (!first)
            out += "\n" + pad;
        out.append(doc, pos, eol - pos);
        first = false;
        pos = eol + 1;
    }
}

std::string
JsonValue::dump() const
{
    switch (kind) {
      case Kind::Null:
          return "null";
      case Kind::Bool:
          return boolean ? "true" : "false";
      case Kind::Number:
          return text.empty() ? std::to_string(number) : text;
      case Kind::String: {
          std::string out = "\"";
          out += jsonEscape(text);
          out += '"';
          return out;
      }
      case Kind::Array: {
          std::string out = "[";
          for (size_t i = 0; i < items.size(); ++i) {
              out += i ? ", " : "";
              out += items[i].dump();
          }
          return out + "]";
      }
      case Kind::Object: {
          std::string out = "{";
          for (size_t i = 0; i < members.size(); ++i) {
              out += i ? ", \"" : "\"";
              out += jsonEscape(members[i].first);
              out += "\": ";
              out += members[i].second.dump();
          }
          return out + "}";
      }
    }
    return "null";
}

JsonValue
JsonValue::parse(const std::string &doc)
{
    Parser p(doc);
    return p.parseDocument();
}

} // namespace qcc
