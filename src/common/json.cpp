#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/log.hpp"

namespace gex::json {

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
formatNumber(double v)
{
    GEX_ASSERT(std::isfinite(v), "NaN/Inf cannot be represented in JSON");
    // Integral values within uint64/int64 range print exactly without
    // an exponent; everything else gets the shortest round-trip form.
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    char buf[40];
    // %.17g always round-trips an IEEE double; try shorter first.
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    return buf;
}

// --- Writer -----------------------------------------------------------

void
Writer::raw(const std::string &text)
{
    os_ << text;
}

void
Writer::indent()
{
    if (indentWidth_ < 0)
        return; // compact mode: no newlines or indentation
    os_ << '\n';
    for (std::size_t i = 0;
         i < scopes_.size() * static_cast<std::size_t>(indentWidth_); ++i)
        os_ << ' ';
}

void
Writer::preValue()
{
    if (scopes_.empty()) {
        GEX_ASSERT(!wroteTop_, "JSON document already complete");
        wroteTop_ = true;
        return;
    }
    if (scopes_.back() == Scope::Object) {
        GEX_ASSERT(pendingKey_, "value inside an object needs key() first");
        pendingKey_ = false;
        return;
    }
    if (scopeHasItems_.back())
        raw(",");
    scopeHasItems_.back() = true;
    indent();
}

Writer &
Writer::key(const std::string &k)
{
    GEX_ASSERT(!scopes_.empty() && scopes_.back() == Scope::Object,
               "key() outside an object");
    GEX_ASSERT(!pendingKey_, "key() twice without a value");
    if (scopeHasItems_.back())
        raw(",");
    scopeHasItems_.back() = true;
    indent();
    raw(indentWidth_ < 0 ? "\"" + escape(k) + "\":"
                         : "\"" + escape(k) + "\": ");
    pendingKey_ = true;
    return *this;
}

Writer &
Writer::beginObject()
{
    preValue();
    raw("{");
    scopes_.push_back(Scope::Object);
    scopeHasItems_.push_back(false);
    return *this;
}

Writer &
Writer::endObject()
{
    GEX_ASSERT(!scopes_.empty() && scopes_.back() == Scope::Object,
               "endObject() without matching beginObject()");
    GEX_ASSERT(!pendingKey_, "endObject() with a dangling key");
    bool had = scopeHasItems_.back();
    scopes_.pop_back();
    scopeHasItems_.pop_back();
    if (had)
        indent();
    raw("}");
    return *this;
}

Writer &
Writer::beginArray()
{
    preValue();
    raw("[");
    scopes_.push_back(Scope::Array);
    scopeHasItems_.push_back(false);
    return *this;
}

Writer &
Writer::endArray()
{
    GEX_ASSERT(!scopes_.empty() && scopes_.back() == Scope::Array,
               "endArray() without matching beginArray()");
    bool had = scopeHasItems_.back();
    scopes_.pop_back();
    scopeHasItems_.pop_back();
    if (had)
        indent();
    raw("]");
    return *this;
}

Writer &
Writer::value(const std::string &v)
{
    preValue();
    raw("\"" + escape(v) + "\"");
    return *this;
}

Writer &
Writer::value(const char *v)
{
    return value(std::string(v));
}

Writer &
Writer::value(double v)
{
    preValue();
    raw(formatNumber(v));
    return *this;
}

Writer &
Writer::value(std::uint64_t v)
{
    preValue();
    raw(std::to_string(v));
    return *this;
}

Writer &
Writer::value(int v)
{
    preValue();
    raw(std::to_string(v));
    return *this;
}

Writer &
Writer::value(bool v)
{
    preValue();
    raw(v ? "true" : "false");
    return *this;
}

Writer &
Writer::null()
{
    preValue();
    raw("null");
    return *this;
}

// --- Value ------------------------------------------------------------

const Value *
Value::find(const std::string &k) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = members.find(k);
    return it == members.end() ? nullptr : &it->second;
}

double
Value::asNumber() const
{
    GEX_ASSERT(kind == Kind::Number, "JSON value is not a number");
    return number;
}

const std::string &
Value::asString() const
{
    GEX_ASSERT(kind == Kind::String, "JSON value is not a string");
    return str;
}

// --- Parser -----------------------------------------------------------

namespace {

class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    std::unique_ptr<Value>
    parseDocument()
    {
        auto v = std::make_unique<Value>();
        if (!parseValue(*v))
            return nullptr;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            return nullptr;
        }
        return v;
    }

  private:
    void
    fail(const std::string &msg)
    {
        if (error_ && error_->empty())
            *error_ = msg + " at offset " + std::to_string(pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"')) {
            fail("expected string");
            return false;
        }
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20) {
                // A raw control byte inside a string is how a torn or
                // corrupted document usually manifests; JSON requires
                // these to be \u-escaped.
                --pos_;
                fail("unescaped control character in string");
                return false;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char e = text_[pos_++];
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
                  if (pos_ + 4 > text_.size()) {
                      fail("truncated \\u escape");
                      return false;
                  }
                  unsigned cp = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = text_[pos_++];
                      cp <<= 4;
                      if (h >= '0' && h <= '9') cp |= h - '0';
                      else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
                      else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
                      else {
                          fail("bad \\u escape digit");
                          return false;
                      }
                  }
                  // UTF-8 encode the BMP code point (no surrogate-pair
                  // combining; the writer never emits surrogates).
                  if (cp < 0x80) {
                      out += static_cast<char>(cp);
                  } else if (cp < 0x800) {
                      out += static_cast<char>(0xC0 | (cp >> 6));
                      out += static_cast<char>(0x80 | (cp & 0x3F));
                  } else {
                      out += static_cast<char>(0xE0 | (cp >> 12));
                      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                      out += static_cast<char>(0x80 | (cp & 0x3F));
                  }
                  break;
              }
              default:
                fail("unknown escape");
                return false;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool
    parseValue(Value &v)
    {
        // Containers recurse once per nesting level; a pathological
        // "[[[[..." document must produce a parse error, not exhaust
        // the thread stack. 200 levels is far beyond any document the
        // writer emits.
        if (depth_ >= kMaxDepth) {
            fail("nesting deeper than 200 levels");
            return false;
        }
        ++depth_;
        bool ok = parseValueInner(v);
        --depth_;
        return ok;
    }

    bool
    parseValueInner(Value &v)
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            v.kind = Value::Kind::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                std::string k;
                if (!parseString(k))
                    return false;
                if (!consume(':')) {
                    fail("expected ':' in object");
                    return false;
                }
                Value member;
                if (!parseValue(member))
                    return false;
                if (v.members.emplace(k, std::move(member)).second)
                    v.keys.push_back(std::move(k));
                if (consume(','))
                    { skipWs(); continue; }
                if (consume('}'))
                    return true;
                fail("expected ',' or '}' in object");
                return false;
            }
        }
        if (c == '[') {
            ++pos_;
            v.kind = Value::Kind::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                Value item;
                if (!parseValue(item))
                    return false;
                v.items.push_back(std::move(item));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                fail("expected ',' or ']' in array");
                return false;
            }
        }
        if (c == '"') {
            v.kind = Value::Kind::String;
            return parseString(v.str);
        }
        if (literal("true")) {
            v.kind = Value::Kind::Bool;
            v.boolean = true;
            return true;
        }
        if (literal("false")) {
            v.kind = Value::Kind::Bool;
            v.boolean = false;
            return true;
        }
        if (literal("null")) {
            v.kind = Value::Kind::Null;
            return true;
        }
        // Number: strtod accepts a superset of JSON numbers; reject the
        // parts JSON forbids (leading '+', hex, inf/nan).
        if (c == '-' || (c >= '0' && c <= '9')) {
            const char *start = text_.c_str() + pos_;
            char *end = nullptr;
            double d = std::strtod(start, &end);
            if (end == start || std::isinf(d) || std::isnan(d)) {
                fail("bad number");
                return false;
            }
            // strtod happily consumes C hex floats ("0x1A"), which
            // JSON forbids.
            for (const char *p = start; p != end; ++p)
                if (*p == 'x' || *p == 'X') {
                    fail("hex numbers are not JSON");
                    return false;
                }
            v.kind = Value::Kind::Number;
            v.number = d;
            pos_ += static_cast<std::size_t>(end - start);
            return true;
        }
        fail("unexpected character");
        return false;
    }

    static constexpr int kMaxDepth = 200;

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

std::unique_ptr<Value>
parse(const std::string &text, std::string *error)
{
    if (error)
        error->clear();
    Parser p(text, error);
    return p.parseDocument();
}

} // namespace gex::json
