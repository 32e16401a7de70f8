#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "base/base64.hh"
#include "base/logging.hh"

namespace chex
{
namespace json
{

namespace
{

const std::string kEmptyString;
const Value::Array kEmptyArray;
const Value::Object kEmptyObject;

} // namespace

namespace
{

/** Take one more share of @p p. */
template <class T>
void
share(Shared<T> *p) noexcept
{
    if (p)
        p->refs.fetch_add(1, std::memory_order_relaxed);
}

/** Let go of one share of @p p, freeing it with the last. */
template <class T>
void
drop(Shared<T> *p) noexcept
{
    // A count of 1 is this Value's alone: no other can raise it.
    if (p && (p->refs.load(std::memory_order_acquire) == 1 ||
              p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1))
        delete p;
}

/** @p p's payload, allocated when null and copied when shared. */
template <class T>
T &
unshare(Shared<T> *&p)
{
    if (!p) {
        p = new Shared<T>;
    } else if (p->refs.load(std::memory_order_acquire) != 1) {
        auto *own = new Shared<T>;
        own->data = p->data;
        drop(p);
        p = own;
    }
    return p->data;
}

} // namespace

Value::Value(std::string s) : Value(Kind::String)
{
    if (!s.empty()) {
        _u.str = new Shared<std::string>;
        _u.str->data = std::move(s);
    }
}

Value::Value(const Value &other) noexcept
    : _kind(other._kind), _exactUint(other._exactUint), _u(other._u)
{
    switch (_kind) {
      case Kind::String: share(_u.str); break;
      case Kind::Array: share(_u.arr); break;
      case Kind::Object: share(_u.obj); break;
      default: break;
    }
}

void
Value::release() noexcept
{
    switch (_kind) {
      case Kind::String: drop(_u.str); break;
      case Kind::Array: drop(_u.arr); break;
      case Kind::Object: drop(_u.obj); break;
      default: break;
    }
}

Value::Array &
Value::arrayPayload()
{
    return unshare(_u.arr);
}

Value::Object &
Value::objectPayload()
{
    return unshare(_u.obj);
}

bool
Value::boolean() const
{
    chex_assert(_kind == Kind::Bool, "json: not a bool");
    return _u.boolean;
}

double
Value::number() const
{
    chex_assert(_kind == Kind::Number, "json: not a number");
    return _exactUint ? static_cast<double>(_u.uint) : _u.num;
}

uint64_t
Value::asUint64() const
{
    chex_assert(_kind == Kind::Number, "json: not a number");
    return _exactUint ? _u.uint : static_cast<uint64_t>(_u.num);
}

const std::string &
Value::str() const
{
    chex_assert(_kind == Kind::String, "json: not a string");
    return _u.str ? _u.str->data : kEmptyString;
}

const Value::Array &
Value::items() const
{
    return _kind == Kind::Array && _u.arr ? _u.arr->data : kEmptyArray;
}

const Value::Object &
Value::members() const
{
    return _kind == Kind::Object && _u.obj ? _u.obj->data : kEmptyObject;
}

Value &
Value::push(Value v) &
{
    if (_kind == Kind::Null)
        _kind = Kind::Array;
    chex_assert(_kind == Kind::Array, "json: push on non-array");
    arrayPayload().push_back(std::move(v));
    return *this;
}

Value &
Value::set(const std::string &key, Value v) &
{
    if (_kind == Kind::Null)
        _kind = Kind::Object;
    chex_assert(_kind == Kind::Object, "json: set on non-object");
    Object &obj = objectPayload();
    for (auto &m : obj) {
        if (m.first == key) {
            m.second = std::move(v);
            return *this;
        }
    }
    obj.emplace_back(key, std::move(v));
    return *this;
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &m : members())
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    if (!v)
        chex_panic("json: missing object member '%s'", key.c_str());
    return *v;
}

const Value &
Value::at(size_t index) const
{
    chex_assert(_kind == Kind::Array, "json: at() on non-array");
    chex_assert(index < size(), "json: array index out of range");
    return items()[index];
}

size_t
Value::size() const
{
    if (_kind == Kind::Array)
        return items().size();
    if (_kind == Kind::Object)
        return members().size();
    return 0;
}

namespace
{

// Largest integer magnitude a double represents exactly.
constexpr double kExactIntLimit = 9007199254740992.0; // 2^53

/** Bytes a string literal must escape: '"', '\\' and controls. */
struct EscapeTable
{
    bool needs[256] = {};
    constexpr EscapeTable()
    {
        for (int c = 0; c < 0x20; ++c)
            needs[c] = true;
        needs[static_cast<unsigned char>('"')] = true;
        needs[static_cast<unsigned char>('\\')] = true;
    }
};
constexpr EscapeTable kEscape;

void
appendEscaped(std::string &out, const std::string &s)
{
    static const char kHex[] = "0123456789abcdef";
    out += '"';
    const char *p = s.data();
    const char *end = p + s.size();
    while (p < end) {
        const char *run = p;
        while (p < end && !kEscape.needs[static_cast<unsigned char>(*p)])
            ++p;
        out.append(run, p);
        if (p == end)
            break;
        unsigned char c = static_cast<unsigned char>(*p++);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 15]};
            out.append(u, sizeof(u));
          }
        }
    }
    out += '"';
}

/**
 * Write @p d as the printf "%.0f" (integral, below 2^53) or "%.17g"
 * form; std::to_chars with an explicit format and precision is
 * specified to match printf in the C locale.
 */
char *
doubleText(char *buf, double d)
{
    if (!std::isfinite(d)) {
        std::memcpy(buf, "null", 4); // JSON has no NaN/Inf
        return buf + 4;
    }
    char *end = buf + Value::kNumberTextMax;
    return (d == std::floor(d) && std::fabs(d) < kExactIntLimit
                ? std::to_chars(buf, end, d, std::chars_format::fixed, 0)
                : std::to_chars(buf, end, d, std::chars_format::general,
                                17))
        .ptr;
}

void
newlineIndent(std::string &out, unsigned indent, unsigned depth)
{
    out += '\n';
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
Value::writeTo(std::string &out, unsigned indent, unsigned depth) const
{
    switch (_kind) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += _u.boolean ? "true" : "false";
        break;
      case Kind::Number: {
        char buf[kNumberTextMax];
        out.append(buf, numberText(buf));
        break;
      }
      case Kind::String:
        appendEscaped(out, str());
        break;
      case Kind::Array: {
        const Array &items = this->items();
        if (items.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ',';
            if (indent)
                newlineIndent(out, indent, depth + 1);
            items[i].writeTo(out, indent, depth + 1);
        }
        if (indent)
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        const Object &members = this->members();
        if (members.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < members.size(); ++i) {
            if (i)
                out += ',';
            if (indent)
                newlineIndent(out, indent, depth + 1);
            appendEscaped(out, members[i].first);
            out += indent ? ": " : ":";
            members[i].second.writeTo(out, indent, depth + 1);
        }
        if (indent)
            newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

char *
Value::numberText(char *buf) const
{
    chex_assert(_kind == Kind::Number, "json: not a number");
    return _exactUint ? std::to_chars(buf, buf + kNumberTextMax, _u.uint).ptr
                      : doubleText(buf, _u.num);
}

void
Value::write(std::ostream &os, unsigned indent) const
{
    std::string text = dump(indent);
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string
Value::dump(unsigned indent) const
{
    std::string out;
    writeTo(out, indent, 0);
    return out;
}

/**
 * Recursive-descent parser over the raw bytes of one document. It
 * stacks the elements of open aggregates in two reused vectors and
 * moves each into a payload of its final size when it closes,
 * appends string runs in bulk and converts numbers where they lie,
 * without copying the token.
 */
class Parser
{
  public:
    explicit Parser(const std::string &text)
        : begin(text.c_str()), p(begin), end(begin + text.size())
    {
    }

    bool
    parse(Value &out, std::string *err)
    {
        bool ok = value(out, 0);
        if (ok) {
            skipWs();
            if (p != end)
                ok = fail("trailing garbage");
        }
        if (!ok && err)
            *err = error;
        return ok;
    }

  private:
    /** Objects up to this size look for a duplicate key by scanning. */
    static constexpr size_t kLinearKeys = 32;

    bool
    fail(const char *what)
    {
        if (error.empty()) {
            error = csprintf("json: %s at byte %zu", what,
                             static_cast<size_t>(p - begin));
        }
        return false;
    }

    static bool
    isDigit(char c)
    {
        return c >= '0' && c <= '9';
    }

    void
    skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    literal(const char *lit, size_t n)
    {
        if (static_cast<size_t>(end - p) < n || std::memcmp(p, lit, n))
            return fail("bad literal");
        p += n;
        return true;
    }

    bool
    value(Value &out, unsigned depth)
    {
        skipWs();
        if (p == end)
            return fail("unexpected end of input");
        switch (*p) {
          case 'n':
            out = Value();
            return literal("null", 4);
          case 't':
            out = Value(true);
            return literal("true", 4);
          case 'f':
            out = Value(false);
            return literal("false", 5);
          case '"': {
            std::string str;
            if (!string(str))
                return false;
            out = Value(std::move(str));
            return true;
          }
          case '[':
          case '{':
            if (depth == kMaxDepth) {
                return fail(
                    csprintf("nesting deeper than %u", kMaxDepth)
                        .c_str());
            }
            return *p == '[' ? array(out, depth + 1)
                             : object(out, depth + 1);
          default:
            return number(out);
        }
    }

    bool
    hex4(unsigned &cp)
    {
        if (end - p < 4)
            return fail("bad \\u escape");
        cp = 0;
        for (int i = 0; i < 4; ++i, ++p) {
            char h = *p;
            cp <<= 4;
            if (h >= '0' && h <= '9')
                cp |= h - '0';
            else if (h >= 'a' && h <= 'f')
                cp |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F')
                cp |= h - 'A' + 10;
            else
                return fail("bad \\u escape");
        }
        return true;
    }

    bool
    string(std::string &out)
    {
        ++p; // opening quote
        for (;;) {
            const char *run = p;
            while (p < end && *p != '"' && *p != '\\' &&
                   static_cast<unsigned char>(*p) >= 0x20)
                ++p;
            out.append(run, p);
            if (p == end)
                return fail("unterminated string");
            if (*p == '"') {
                ++p;
                return true;
            }
            if (*p != '\\')
                return fail("control character in string");
            if (++p == end)
                return fail("bad escape");
            char c = *p++;
            switch (c) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp;
                if (!hex4(cp))
                    return false;
                // UTF-8 encode the BMP code point.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                --p;
                return fail("bad escape");
            }
        }
    }

    /** One or more digits, or fail with @p what. */
    bool
    digits(const char *what)
    {
        if (p == end || !isDigit(*p))
            return fail(what);
        while (p < end && isDigit(*p))
            ++p;
        return true;
    }

    bool
    number(Value &out)
    {
        const char *start = p;
        bool negative = p < end && *p == '-';
        if (negative)
            ++p;
        if (p == end || !isDigit(*p)) {
            p = start;
            return fail("expected value");
        }
        if (*p == '0') {
            ++p;
            if (p < end && isDigit(*p))
                return fail("leading zero in number");
        } else {
            while (p < end && isDigit(*p))
                ++p;
        }
        bool integral = true;
        if (p < end && *p == '.') {
            ++p;
            integral = false;
            if (!digits("expected digit after '.'"))
                return false;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            integral = false;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            if (!digits("expected exponent digit"))
                return false;
        }
        // Non-negative integer literals that fit uint64 stay exact,
        // so 64-bit counters/seeds round-trip losslessly; larger
        // ones fall back to the double, as strtoull's ERANGE did.
        if (integral && !negative) {
            uint64_t u = 0;
            std::from_chars_result r = std::from_chars(start, p, u);
            if (r.ec == std::errc() && r.ptr == p) {
                out = Value(u);
                return true;
            }
        }
        // The token is a complete RFC-8259 number, so strtod reads
        // exactly it unless what follows makes a longer C literal
        // (a hex float after "-0"), which is garbage here anyway.
        char *stop = nullptr;
        double d = std::strtod(start, &stop);
        if (stop != p)
            return fail("bad number");
        if (std::isinf(d)) {
            p = start;
            return fail("number out of range");
        }
        out = Value(d);
        return true;
    }

    bool
    array(Value &out, unsigned depth)
    {
        ++p; // '['
        out = Value::array();
        skipWs();
        if (p < end && *p == ']') {
            ++p;
            return true;
        }
        const size_t base = values.size();
        for (;;) {
            Value elem;
            if (!value(elem, depth))
                return false;
            values.push_back(std::move(elem));
            skipWs();
            if (p == end)
                return fail("unterminated array");
            if (*p == ',') {
                ++p;
                continue;
            }
            if (*p == ']') {
                ++p;
                break;
            }
            return fail("expected ',' or ']'");
        }
        Value::Array &items = out.arrayPayload();
        items.reserve(values.size() - base);
        for (size_t i = base; i < values.size(); ++i)
            items.push_back(std::move(values[i]));
        values.resize(base);
        return true;
    }

    bool
    object(Value &out, unsigned depth)
    {
        ++p; // '{'
        out = Value::object();
        skipWs();
        if (p < end && *p == '}') {
            ++p;
            return true;
        }
        const size_t base = members.size();
        std::unordered_set<std::string> seen; // past kLinearKeys only
        for (;;) {
            skipWs();
            if (p == end || *p != '"')
                return fail("expected object key");
            const char *keyStart = p;
            std::string key;
            if (!string(key))
                return false;
            if (!uniqueKey(base, seen, key)) {
                p = keyStart;
                return fail("duplicate object key");
            }
            skipWs();
            if (p == end || *p != ':')
                return fail("expected ':'");
            ++p;
            Value member;
            if (!value(member, depth))
                return false;
            members.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (p == end)
                return fail("unterminated object");
            if (*p == ',') {
                ++p;
                continue;
            }
            if (*p == '}') {
                ++p;
                break;
            }
            return fail("expected ',' or '}'");
        }
        Value::Object &obj = out.objectPayload();
        obj.reserve(members.size() - base);
        for (size_t i = base; i < members.size(); ++i)
            obj.push_back(std::move(members[i]));
        members.erase(members.begin() + base, members.end());
        return true;
    }

    /**
     * Whether @p key is new to the object whose members start at
     * @p base: a scan while the object is small, then a hash set of
     * every key seen so far.
     */
    bool
    uniqueKey(size_t base, std::unordered_set<std::string> &seen,
              const std::string &key) const
    {
        if (members.size() - base < kLinearKeys) {
            for (size_t i = base; i < members.size(); ++i)
                if (members[i].first == key)
                    return false;
            return true;
        }
        if (seen.empty())
            for (size_t i = base; i < members.size(); ++i)
                seen.insert(members[i].first);
        return seen.insert(key).second;
    }

    const char *const begin;
    const char *p;
    const char *const end;
    std::string error;
    // Elements and members of the aggregates still open, innermost
    // last: each one closes into a payload allocated at its final
    // size.
    std::vector<Value> values;
    std::vector<Value::Member> members;
};

bool
Value::parse(const std::string &text, Value &out, std::string *err)
{
    return Parser(text).parse(out, err);
}

bool
Error::fail(std::string what)
{
    _path.clear();
    _what = std::move(what);
    return false;
}

void
Error::within(const char *key)
{
    if (_path.empty() || _path[0] == '[')
        _path.insert(0, key);
    else
        _path.insert(0, std::string(key) + ".");
}

void
Error::within(size_t index)
{
    std::string item = csprintf("[%zu]", index);
    if (!_path.empty() && _path[0] != '[')
        item += ".";
    _path.insert(0, item);
}

std::string
Error::message() const
{
    if (_path.empty())
        return "value " + _what;
    if (_path.back() == ']')
        return "item " + _path + " " + _what;
    // The member by name, then where it sits when that is deeper.
    size_t dot = _path.find_last_of(".]");
    std::string key = dot == std::string::npos ? _path
                                               : _path.substr(dot + 1);
    std::string msg = "member '" + key + "' " + _what;
    return key == _path ? msg : msg + " at " + _path;
}

void
Writer::add(const char *key, Value v)
{
    obj.objectPayload().emplace_back(key, std::move(v));
}

bool
readBool(const Value &v, bool &out, Error &err)
{
    if (!v.isBool())
        return err.fail("is not a bool");
    out = v.boolean();
    return true;
}

bool
readUint(const Value &v, uint64_t max, uint64_t &out, Error &err)
{
    // Exact uints are the only numbers the writer emits for unsigned
    // members; a negative, fractional or exponent-form number is not
    // one, and casting its double to an integer would be undefined.
    if (!v.isExactUint())
        return err.fail("is not an unsigned integer");
    if (v.asUint64() > max)
        return err.fail("is out of range");
    out = v.asUint64();
    return true;
}

bool
readInt(const Value &v, int64_t min, int64_t max, int64_t &out,
        Error &err)
{
    if (v.isExactUint()) {
        if (v.asUint64() > static_cast<uint64_t>(max))
            return err.fail("is out of range");
        out = static_cast<int64_t>(v.asUint64());
        return true;
    }
    if (!v.isNumber())
        return err.fail("is not an integer");
    double d = v.number();
    if (d != std::trunc(d))
        return err.fail("is not an integer");
    // max + 1.0 is exact (a power of two) for every signed width.
    if (!(d >= static_cast<double>(min) &&
          d < static_cast<double>(max) + 1.0))
        return err.fail("is out of range");
    out = static_cast<int64_t>(d);
    return true;
}

bool
readDouble(const Value &v, double &out, Error &err)
{
    if (v.isNull()) {
        out = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    if (!v.isNumber())
        return err.fail("is not a number");
    out = v.number();
    return true;
}

bool
readString(const Value &v, std::string &out, Error &err)
{
    if (!v.isString())
        return err.fail("is not a string");
    out = v.str();
    return true;
}

bool
readSize(const Value &v, size_t n, Error &err)
{
    if (!v.isArray())
        return err.fail("is not an array");
    if (v.size() != n)
        return err.fail(csprintf("has %zu items, want %zu", v.size(), n));
    return true;
}

bool
readBase64(const Value &v, void *out, size_t n, Error &err)
{
    if (!v.isString())
        return err.fail("is not a string");
    if (!base64Decode(v.str(), out, n))
        return err.fail(csprintf("is not base64 of %zu bytes", n));
    return true;
}

} // namespace json
} // namespace chex
