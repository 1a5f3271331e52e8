/**
 * @file
 * Minimal in-repo JSON support for sweep/bench output: a streaming
 * writer (objects, arrays, scalars, correct string escaping and
 * round-trippable doubles) plus a small recursive-descent parser used
 * by tests and tools to validate emitted documents. No external
 * dependency; deliberately tiny rather than general (no comments, no
 * NaN/Inf — they are not valid JSON and writers must avoid them).
 */

#ifndef GEX_COMMON_JSON_HPP
#define GEX_COMMON_JSON_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace gex::json {

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string escape(const std::string &s);

/**
 * Format a double so that parsing the text recovers the exact same
 * bits (shortest round-trippable form). Integral values print without
 * an exponent or trailing ".0" noise where possible.
 */
std::string formatNumber(double v);

/**
 * Streaming JSON writer. Usage:
 *
 *     json::Writer w(os);
 *     w.beginObject();
 *     w.key("name").value("fig10");
 *     w.key("runs").beginArray();
 *     ...
 *     w.endArray();
 *     w.endObject();
 *
 * The writer tracks nesting and inserts commas/indentation; it panics
 * on gross misuse (closing the wrong scope, value without a key inside
 * an object).
 */
class Writer
{
  public:
    /**
     * @p indentWidth spaces per nesting level; a negative width
     * selects compact mode (no newlines or padding — for large
     * machine-consumed documents like traces).
     */
    explicit Writer(std::ostream &os, int indentWidth = 2)
        : os_(os), indentWidth_(indentWidth)
    {}

    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();

    /** Start a "key": inside the current object. */
    Writer &key(const std::string &k);

    Writer &value(const std::string &v);
    Writer &value(const char *v);
    Writer &value(double v);
    Writer &value(std::uint64_t v);
    Writer &value(int v);
    Writer &value(bool v);
    Writer &null();

    /** True once every opened scope has been closed. */
    bool complete() const { return scopes_.empty() && wroteTop_; }

  private:
    enum class Scope : std::uint8_t { Object, Array };

    void preValue(); ///< comma/newline bookkeeping before any value
    void indent();
    void raw(const std::string &text);

    std::ostream &os_;
    int indentWidth_;
    std::vector<Scope> scopes_;
    std::vector<bool> scopeHasItems_;
    bool pendingKey_ = false;
    bool wroteTop_ = false;
};

/** Parsed JSON value (tree form), produced by parse(). */
struct Value {
    enum class Kind : std::uint8_t {
        Null, Bool, Number, String, Array, Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> items;                    ///< Kind::Array
    std::map<std::string, Value> members;        ///< Kind::Object
    std::vector<std::string> keys; ///< Kind::Object: names in file order

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &k) const;

    /** Convenience accessors that panic on kind mismatch. */
    double asNumber() const;
    const std::string &asString() const;
};

/**
 * Parse @p text as one JSON document. On success returns the root
 * value; on failure returns nullptr and, when @p error is non-null,
 * stores a human-readable message with the byte offset.
 */
std::unique_ptr<Value> parse(const std::string &text,
                             std::string *error = nullptr);

} // namespace gex::json

#endif // GEX_COMMON_JSON_HPP
