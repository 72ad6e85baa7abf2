#include "obs/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ev8
{

std::string
escapeJson(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
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
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

JsonWriter::~JsonWriter()
{
    // An unfinished document still goes out, as it was written so far.
    flush();
}

void
JsonWriter::flush()
{
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
JsonWriter::separate()
{
    if (pendingKey) {
        pendingKey = false;
        return; // the key already emitted its comma
    }
    if (!firstInScope.back())
        buf_ += ',';
    firstInScope.back() = false;
}

void
JsonWriter::closeValue()
{
    if (firstInScope.size() == 1)
        flush();
}

void
JsonWriter::beginObject()
{
    separate();
    buf_ += '{';
    firstInScope.push_back(true);
}

void
JsonWriter::endObject()
{
    firstInScope.pop_back();
    buf_ += '}';
    closeValue();
}

void
JsonWriter::beginArray()
{
    separate();
    buf_ += '[';
    firstInScope.push_back(true);
}

void
JsonWriter::endArray()
{
    firstInScope.pop_back();
    buf_ += ']';
    closeValue();
}

void
JsonWriter::quoted(std::string_view text)
{
    // Runs of plain characters go in whole; only the rare escaped ones
    // take the slow path.
    buf_ += '"';
    size_t run = 0;
    for (size_t i = 0; i < text.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        buf_.append(text.data() + run, i - run);
        buf_ += escapeJson(std::string(1, text[i]));
        run = i + 1;
    }
    buf_.append(text.data() + run, text.size() - run);
    buf_ += '"';
}

void
JsonWriter::key(std::string_view name)
{
    if (!firstInScope.back())
        buf_ += ',';
    firstInScope.back() = false;
    quoted(name);
    buf_ += ':';
    pendingKey = true;
}

void
JsonWriter::value(std::string_view text)
{
    separate();
    quoted(text);
    closeValue();
}

void
JsonWriter::value(const char *text)
{
    value(std::string_view(text));
}

void
JsonWriter::value(double number)
{
    separate();
    if (!std::isfinite(number)) {
        buf_ += "null";
    } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g", number);
        buf_ += buf;
    }
    closeValue();
}

void
JsonWriter::value(uint64_t number)
{
    separate();
    char buf[24];
    buf_.append(buf, std::to_chars(buf, buf + sizeof(buf), number).ptr);
    closeValue();
}

void
JsonWriter::value(int number)
{
    separate();
    char buf[16];
    buf_.append(buf, std::to_chars(buf, buf + sizeof(buf), number).ptr);
    closeValue();
}

void
JsonWriter::value(bool flag)
{
    separate();
    buf_ += flag ? "true" : "false";
    closeValue();
}

void
JsonWriter::valueNull()
{
    separate();
    buf_ += "null";
    closeValue();
}

void
JsonWriter::rawValue(const std::string &json)
{
    separate();
    buf_ += json;
    closeValue();
}

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[key, val] : members) {
        if (key == name)
            return &val;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &name) const
{
    const JsonValue *v = find(name);
    if (!v)
        throw std::out_of_range("json: no member '" + name + "'");
    return *v;
}

namespace
{

/** Recursive-descent JSON parser over a string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        if (pos != s.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("json parse error at offset "
                                 + std::to_string(pos) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos < s.size()
               && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n'
                   || s[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= s.size())
            fail("unexpected end of input");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consumeWord(const char *word)
    {
        size_t n = 0;
        while (word[n] != '\0')
            ++n;
        if (s.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    JsonValue
    value()
    {
        skipWs();
        JsonValue v;
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"':
            v.kind = JsonValue::Kind::String;
            v.text = string();
            return v;
          case 't':
            if (!consumeWord("true"))
                fail("bad literal");
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
          case 'f':
            if (!consumeWord("false"))
                fail("bad literal");
            v.kind = JsonValue::Kind::Bool;
            v.boolean = false;
            return v;
          case 'n':
            if (!consumeWord("null"))
                fail("bad literal");
            v.kind = JsonValue::Kind::Null;
            return v;
          default: return numberValue();
        }
    }

    JsonValue
    numberValue()
    {
        const size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < s.size()
               && (std::isdigit(static_cast<unsigned char>(s[pos]))
                   || s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E'
                   || s[pos] == '+' || s[pos] == '-'))
            ++pos;
        if (pos == start)
            fail("expected a value");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        try {
            v.number = std::stod(s.substr(start, pos - start));
        } catch (const std::exception &) {
            fail("malformed number");
        }
        return v;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= s.size())
                fail("unterminated string");
            const char c = s[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                fail("unterminated escape");
            const char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos + 4 > s.size())
                    fail("truncated \\u escape");
                const unsigned code = static_cast<unsigned>(
                    std::stoul(s.substr(pos, 4), nullptr, 16));
                pos += 4;
                // Basic-multilingual-plane only; enough for our ASCII
                // metric names and benchmark labels.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skipWs();
        if (peek() == ']') {
            ++pos;
            return v;
        }
        while (true) {
            v.items.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skipWs();
        if (peek() == '}') {
            ++pos;
            return v;
        }
        while (true) {
            skipWs();
            std::string name = string();
            skipWs();
            expect(':');
            v.members.emplace_back(std::move(name), value());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    const std::string &s;
    size_t pos = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).document();
}

} // namespace ev8
