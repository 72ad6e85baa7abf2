/**
 * @file
 * Minimal JSON support for the instrumentation layer: a streaming writer
 * for the exporters and event sink, and a small recursive-descent parser
 * so tests (and tools) can round-trip the artifacts without external
 * dependencies.
 *
 * The writer emits RFC 8259 JSON with one deliberate policy: non-finite
 * doubles (NaN/inf) serialize as null, since JSON has no spelling for
 * them and zero-instruction rows do produce NaN misp/KI values.
 */

#ifndef EV8_OBS_JSON_HH
#define EV8_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ev8
{

/** Escapes @p text for inclusion inside a JSON string literal. */
std::string escapeJson(const std::string &text);

/**
 * Streaming JSON writer. Commas and nesting are tracked internally, so
 * callers just alternate key()/value() inside objects:
 *
 *     JsonWriter w(out);
 *     w.beginObject();
 *     w.key("rows"); w.beginArray(); w.value(1.5); w.endArray();
 *     w.endObject();
 *
 * The text is assembled in memory and reaches @p out in one write when
 * the top-level value is complete (or when the writer is destroyed), so
 * raw writes to @p out belong between documents, not inside one.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out) : out_(out)
    {
        buf_.reserve(256); // one allocation covers a typical record
    }
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    void key(std::string_view name);
    void value(std::string_view text);
    void value(const char *text);
    void value(double number); //!< non-finite emits null
    void value(uint64_t number);
    void value(int number);
    void value(bool flag);
    void valueNull();

    /**
     * Splices @p json verbatim as one value. The caller guarantees it
     * is a complete, well-formed JSON value (used to embed
     * pre-serialized span args without re-parsing).
     */
    void rawValue(const std::string &json);

  private:
    void separate(); //!< comma/space before a new element
    void quoted(std::string_view text); //!< escaped, in quotes
    void closeValue(); //!< writes out a completed top-level value
    void flush();

    std::ostream &out_;
    std::string buf_; //!< the document's text not yet written out
    std::vector<char> firstInScope{true}; //!< per nesting level
    bool pendingKey = false;
};

/** A parsed JSON document node. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items; //!< Array elements
    std::vector<std::pair<std::string, JsonValue>> members; //!< Object

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    /** Object member access; throws std::out_of_range when absent. */
    const JsonValue &at(const std::string &name) const;
};

/**
 * Parses one JSON document from @p text (trailing whitespace allowed,
 * trailing garbage not). Throws std::runtime_error on malformed input.
 */
JsonValue parseJson(const std::string &text);

} // namespace ev8

#endif // EV8_OBS_JSON_HH
