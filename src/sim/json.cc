#include "json.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pktchase::sim
{

namespace
{

/**
 * Deepest array/object nesting accepted. The parser recurses once per
 * level, so without a cap a file of a few hundred thousand '['
 * overflows the stack; the reports this parser reads nest about five
 * levels.
 */
constexpr unsigned kMaxDepth = 256;

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out, std::string &err)
    {
        out = value();
        skipWs();
        if (!failed_ && pos_ != text_.size())
            fail("trailing junk after JSON value");
        if (failed_)
            err = err_;
        return !failed_;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return '\0';
        }
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        else
            ++pos_;
    }

    void
    fail(const std::string &why)
    {
        if (!failed_)
            err_ = "JSON parse error at byte " + std::to_string(pos_) +
                   ": " + why;
        failed_ = true;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\' && pos_ < text_.size())
                c = text_[pos_++];
            out.push_back(c);
        }
        expect('"');
        return out;
    }

    JsonValue
    value()
    {
        const char c = peek();
        JsonValue v;
        if (failed_)
            return v;
        if ((c == '{' || c == '[') && depth_ == kMaxDepth) {
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
            return v;
        }
        const DepthGuard guard(depth_);
        if (c == '{') {
            ++pos_;
            v.kind = JsonValue::Object;
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            while (!failed_) {
                std::string key = string();
                expect(':');
                v.obj.emplace_back(std::move(key), value());
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            expect('}');
        } else if (c == '[') {
            ++pos_;
            v.kind = JsonValue::Array;
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            while (!failed_) {
                v.arr.push_back(value());
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            expect(']');
        } else if (c == '"') {
            v.kind = JsonValue::String;
            v.str = string();
        } else {
            v.kind = JsonValue::Number;
            char *end = nullptr;
            v.num = std::strtod(text_.c_str() + pos_, &end);
            if (end == text_.c_str() + pos_) {
                fail("expected a number");
            } else if (!std::isfinite(v.num)) {
                // strtod takes "inf", "nan" and overflows such as
                // 1e999999 to infinity; none is a JSON number.
                fail("non-finite number");
            } else {
                pos_ = static_cast<std::size_t>(end - text_.c_str());
            }
        }
        return v;
    }

    /** Counts one nesting level for the scope of a value() call. */
    struct DepthGuard
    {
        explicit DepthGuard(unsigned &depth) : depth_(++depth) {}
        ~DepthGuard() { --depth_; }
        unsigned &depth_;
    };

    const std::string &text_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;
    bool failed_ = false;
    std::string err_;
};

const char *
kindName(JsonValue::Kind kind)
{
    switch (kind) {
      case JsonValue::Null:
        return "null";
      case JsonValue::Number:
        return "number";
      case JsonValue::String:
        return "string";
      case JsonValue::Array:
        return "array";
      case JsonValue::Object:
        return "object";
    }
    return "?";
}

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &kv : obj)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const JsonValue *
JsonValue::require(const std::string &key, Kind want,
                   const std::string &what, std::string &err) const
{
    const JsonValue *v = find(key);
    if (!v) {
        err = what + ": missing \"" + key + "\"";
        return nullptr;
    }
    if (v->kind != want) {
        err = what + ": \"" + key + "\" is not a " + kindName(want);
        return nullptr;
    }
    return v;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    return Parser(text).parse(out, err);
}

bool
parseJsonFile(const std::string &path, JsonValue &out, std::string &err)
{
    std::ifstream in(path);
    if (!in.good()) {
        err = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    if (!parseJson(ss.str(), out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

} // namespace pktchase::sim
