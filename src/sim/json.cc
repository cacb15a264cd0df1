#include "src/sim/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/sim/logging.hh"

namespace jumanji {

namespace {

/** Largest integer magnitude a double represents exactly (2^53). */
constexpr std::uint64_t kExactDoubleLimit = 1ull << 53;

} // namespace

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue j;
    j.kind_ = Kind::Bool;
    j.bool_ = v;
    return j;
}

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue j;
    j.kind_ = Kind::Number;
    // Keep integral-valued doubles exact so that e.g. percentile 95.0
    // round-trips as "95" == makeU64(95).
    if (std::floor(v) == v && std::fabs(v) <
        static_cast<double>(kExactDoubleLimit)) {
        j.integral_ = true;
        j.negative_ = v < 0.0;
        j.magnitude_ = static_cast<std::uint64_t>(std::fabs(v));
    }
    j.number_ = v;
    return j;
}

JsonValue
JsonValue::makeU64(std::uint64_t v)
{
    JsonValue j;
    j.kind_ = Kind::Number;
    j.integral_ = true;
    j.magnitude_ = v;
    j.number_ = static_cast<double>(v);
    return j;
}

JsonValue
JsonValue::makeI64(std::int64_t v)
{
    JsonValue j;
    j.kind_ = Kind::Number;
    j.integral_ = true;
    j.negative_ = v < 0;
    j.magnitude_ = v < 0 ? 0ull - static_cast<std::uint64_t>(v)
                         : static_cast<std::uint64_t>(v);
    j.number_ = static_cast<double>(v);
    return j;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue j;
    j.kind_ = Kind::String;
    j.string_ = std::move(v);
    return j;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue j;
    j.kind_ = Kind::Array;
    return j;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue j;
    j.kind_ = Kind::Object;
    return j;
}

const char *
JsonValue::kindName() const
{
    switch (kind_) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

bool
JsonValue::asBool(const std::string &path) const
{
    if (kind_ != Kind::Bool)
        fatal(path + ": expected bool, got " + kindName());
    return bool_;
}

double
JsonValue::asDouble(const std::string &path) const
{
    if (kind_ != Kind::Number)
        fatal(path + ": expected number, got " + kindName());
    if (integral_) {
        double mag = static_cast<double>(magnitude_);
        return negative_ ? -mag : mag;
    }
    return number_;
}

std::uint64_t
JsonValue::asU64(const std::string &path) const
{
    if (kind_ != Kind::Number)
        fatal(path + ": expected number, got " + kindName());
    if (!integral_)
        fatal(path + ": expected an integer, got a fraction");
    if (negative_ && magnitude_ != 0)
        fatal(path + ": must be >= 0");
    return magnitude_;
}

std::uint32_t
JsonValue::asU32(const std::string &path) const
{
    std::uint64_t v = asU64(path);
    if (v > 0xffffffffull)
        fatal(path + ": must be <= 4294967295");
    return static_cast<std::uint32_t>(v);
}

const std::string &
JsonValue::asString(const std::string &path) const
{
    if (kind_ != Kind::String)
        fatal(path + ": expected string, got " + kindName());
    return string_;
}

void
JsonValue::push(JsonValue v)
{
    if (kind_ != Kind::Array) panic("JsonValue::push on non-array");
    items_.push_back(std::move(v));
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    if (kind_ != Kind::Object) panic("JsonValue::set on non-object");
    for (auto &[k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(key, std::move(v));
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members_)
        if (k == key) return &v;
    return nullptr;
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (kind_ != other.kind_) return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return bool_ == other.bool_;
      case Kind::Number:
        if (integral_ != other.integral_) return false;
        if (integral_) {
            if (magnitude_ != other.magnitude_) return false;
            return magnitude_ == 0 || negative_ == other.negative_;
        }
        return number_ == other.number_;
      case Kind::String:
        return string_ == other.string_;
      case Kind::Array:
        return items_ == other.items_;
      case Kind::Object:
        return members_ == other.members_;
    }
    return false;
}

// ---- Writer ----------------------------------------------------------

namespace {

void
escapeTo(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent < 0) return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) *
                       static_cast<std::size_t>(d),
                   ' ');
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number: {
        char buf[40];
        if (integral_) {
            std::snprintf(buf, sizeof(buf), "%s%llu",
                          negative_ && magnitude_ != 0 ? "-" : "",
                          static_cast<unsigned long long>(magnitude_));
        } else {
            std::snprintf(buf, sizeof(buf), "%.17g", number_);
        }
        out += buf;
        break;
      }
      case Kind::String:
        escapeTo(out, string_);
        break;
      case Kind::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < items_.size(); i++) {
            if (i > 0) out += ',';
            newline(depth + 1);
            items_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Kind::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < members_.size(); i++) {
            if (i > 0) out += ',';
            newline(depth + 1);
            escapeTo(out, members_[i].first);
            out += indent < 0 ? ":" : ": ";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent >= 0) out += '\n';
    return out;
}

// ---- Parser ----------------------------------------------------------

namespace {

class Parser
{
  public:
    Parser(const std::string &text, const std::string &where)
        : text_(text), where_(where)
    {
    }

    JsonValue
    parseDocument()
    {
        skipWs();
        JsonValue v = parseValue(0);
        skipWs();
        if (pos_ != text_.size()) fail("trailing characters");
        return v;
    }

  private:
    const std::string &text_;
    const std::string &where_;
    std::size_t pos_ = 0;

    /** Nesting guard: scenario files are shallow; 64 is generous. */
    static constexpr int kMaxDepth = 64;

    [[noreturn]] void
    fail(const std::string &reason) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); i++) {
            if (text_[i] == '\n') {
                line++;
                col = 1;
            } else {
                col++;
            }
        }
        fatal(where_ + ":" + std::to_string(line) + ":" +
              std::to_string(col) + ": " + reason);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos_++;
    }

    bool
    consumeWord(const char *word)
    {
        std::size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) != 0) return false;
        pos_ += n;
        return true;
    }

    JsonValue
    parseValue(int depth)
    {
        if (depth > kMaxDepth) fail("nesting too deep");
        switch (peek()) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': return JsonValue::makeString(parseString());
          case 't':
            if (consumeWord("true")) return JsonValue::makeBool(true);
            fail("invalid literal");
          case 'f':
            if (consumeWord("false")) return JsonValue::makeBool(false);
            fail("invalid literal");
          case 'n':
            if (consumeWord("null")) return JsonValue();
            fail("invalid literal");
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject(int depth)
    {
        expect('{');
        JsonValue obj = JsonValue::makeObject();
        skipWs();
        if (peek() == '}') {
            pos_++;
            return obj;
        }
        while (true) {
            skipWs();
            if (peek() != '"') fail("expected object key");
            std::string key = parseString();
            if (obj.find(key) != nullptr)
                fail("duplicate key \"" + key + "\"");
            skipWs();
            expect(':');
            skipWs();
            obj.set(key, parseValue(depth + 1));
            skipWs();
            if (peek() == ',') {
                pos_++;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    JsonValue
    parseArray(int depth)
    {
        expect('[');
        JsonValue arr = JsonValue::makeArray();
        skipWs();
        if (peek() == ']') {
            pos_++;
            return arr;
        }
        while (true) {
            skipWs();
            arr.push(parseValue(depth + 1));
            skipWs();
            if (peek() == ',') {
                pos_++;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; i++) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= h - '0';
                    else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                    else fail("invalid \\u escape");
                }
                // Encode as UTF-8 (basic multilingual plane only;
                // surrogate pairs are not needed by scenario files).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("invalid escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        std::size_t start = pos_;
        if (peek() == '-') pos_++;
        bool sawDigit = false;
        while (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
            pos_++;
            sawDigit = true;
        }
        bool integral = true;
        if (peek() == '.') {
            integral = false;
            pos_++;
            while (std::isdigit(static_cast<unsigned char>(peek())) !=
                   0)
                pos_++;
        }
        if (peek() == 'e' || peek() == 'E') {
            integral = false;
            pos_++;
            if (peek() == '+' || peek() == '-') pos_++;
            while (std::isdigit(static_cast<unsigned char>(peek())) !=
                   0)
                pos_++;
        }
        if (!sawDigit) fail("invalid number");
        std::string token = text_.substr(start, pos_ - start);
        if (integral) {
            bool neg = token[0] == '-';
            const char *digits = token.c_str() + (neg ? 1 : 0);
            errno = 0;
            char *end = nullptr;
            std::uint64_t mag = std::strtoull(digits, &end, 10);
            if (errno != 0 || end == digits || *end != '\0')
                fail("integer out of range");
            JsonValue v = JsonValue::makeU64(mag);
            if (neg) {
                if (mag > 0x8000000000000000ull)
                    fail("integer out of range");
                v = JsonValue::makeI64(
                    -static_cast<std::int64_t>(mag - 1) - 1);
            }
            return v;
        }
        errno = 0;
        char *end = nullptr;
        double d = std::strtod(token.c_str(), &end);
        if (errno != 0 || end != token.c_str() + token.size())
            fail("invalid number");
        return JsonValue::makeNumber(d);
    }
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text, const std::string &where)
{
    return Parser(text, where).parseDocument();
}

ObjectReader::ObjectReader(const JsonValue &json, std::string prefix,
                           const std::string &rootName)
    : json_(json), prefix_(std::move(prefix))
{
    if (!json.isObject())
        fatal((prefix_.empty() ? rootName : prefix_) +
              ": expected object, got " + json.kindName());
    consumed_.resize(json.members().size(), false);
}

const JsonValue *
ObjectReader::get(const std::string &key)
{
    const auto &members = json_.members();
    for (std::size_t i = 0; i < members.size(); i++) {
        if (members[i].first == key) {
            consumed_[i] = true;
            return &members[i].second;
        }
    }
    return nullptr;
}

std::string
ObjectReader::path(const std::string &key) const
{
    return prefix_.empty() ? key : prefix_ + "." + key;
}

void
ObjectReader::finish() const
{
    const auto &members = json_.members();
    for (std::size_t i = 0; i < members.size(); i++)
        if (!consumed_[i])
            fatal(path(members[i].first) + ": unknown key");
}

} // namespace jumanji
