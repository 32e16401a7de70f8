/**
 * @file
 * A minimal dependency-free JSON value type with a writer and a
 * strict recursive-descent parser.
 *
 * The campaign driver uses it to emit machine-readable reports and
 * the tests use the parser to round-trip them; System::dumpStatsJson
 * uses it for structured single-run stats. Deliberately small: no
 * comments, no NaN/Inf (written as null), objects preserve insertion
 * order, numbers are doubles (integral values in the exactly
 * representable range are printed without a decimal point so
 * uint64 counters round-trip textually).
 */

#ifndef CHEX_BASE_JSON_HH
#define CHEX_BASE_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace chex
{
namespace json
{

/** One JSON value (null, bool, number, string, array, or object). */
class Value
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Value() = default;
    Value(std::nullptr_t) {}
    Value(bool b) : _kind(Kind::Bool), _bool(b) {}
    Value(double d) : _kind(Kind::Number), _num(d) {}
    // Non-negative signed integers keep the exact-uint flag too, so
    // asUint64() never round-trips an int-constructed counter
    // through its double approximation.
    Value(int i) : _kind(Kind::Number), _num(i)
    {
        if (i >= 0) {
            _uint = static_cast<uint64_t>(i);
            _exactUint = true;
        }
    }
    Value(unsigned u) : Value(static_cast<uint64_t>(u)) {}
    Value(int64_t i)
        : _kind(Kind::Number), _num(static_cast<double>(i))
    {
        if (i >= 0) {
            _uint = static_cast<uint64_t>(i);
            _exactUint = true;
        }
    }
    // Unsigned 64-bit values (counters, seeds) stay exact: the
    // writer prints the integer, not its double approximation.
    Value(uint64_t u)
        : _kind(Kind::Number), _num(static_cast<double>(u)),
          _uint(u), _exactUint(true) {}
    Value(const char *s) : _kind(Kind::String), _str(s) {}
    Value(std::string s) : _kind(Kind::String), _str(std::move(s)) {}

    /** Empty-aggregate factories (distinguish {} from []). */
    static Value object();
    static Value array();

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isObject() const { return _kind == Kind::Object; }

    /** @{ @name Typed accessors (panic on kind mismatch) */
    bool boolean() const;
    double number() const;
    /**
     * The number as an exact uint64 when it was written/parsed as a
     * non-negative integer literal; otherwise the double, cast.
     */
    uint64_t asUint64() const;
    const std::string &str() const;
    /** @} */

    /** Append to an array (converts a Null value to an array). */
    Value &push(Value v);

    /**
     * Set an object member (converts a Null value to an object);
     * returns *this so construction chains.
     */
    Value &set(const std::string &key, Value v);

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Object member by key; panics when absent. */
    const Value &at(const std::string &key) const;

    /** Array element by index; panics when out of range. */
    const Value &at(size_t index) const;

    /** Element/member count (0 for scalars). */
    size_t size() const;

    const std::vector<Value> &items() const { return _items; }
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        return _members;
    }

    /**
     * Serialize. @p indent 0 writes compact single-line JSON;
     * positive values pretty-print with that many spaces per level.
     */
    void write(std::ostream &os, unsigned indent = 0) const;

    /** write() into a string. */
    std::string dump(unsigned indent = 0) const;

    /**
     * Strict RFC-8259-style parse of @p text (whole-input; trailing
     * garbage is an error). Returns false and fills @p err (if
     * non-null) on malformed input.
     */
    static bool parse(const std::string &text, Value &out,
                      std::string *err = nullptr);

  private:
    void writeIndented(std::ostream &os, unsigned indent,
                       unsigned depth) const;

    Kind _kind = Kind::Null;
    bool _bool = false;
    double _num = 0.0;
    uint64_t _uint = 0;       // exact value when _exactUint
    bool _exactUint = false;
    std::string _str;
    std::vector<Value> _items;                          // Array
    std::vector<std::pair<std::string, Value>> _members; // Object
};

/** Write @p s as a quoted, escaped JSON string literal. */
void writeEscaped(std::ostream &os, const std::string &s);

/**
 * @{ @name Parse→struct helpers
 *
 * Member lookups with a default, for mapping parsed documents onto
 * structs (the `fromJson` direction of the report serializers): the
 * default is returned when @p obj is not an object, the member is
 * absent, or the member has the wrong kind, so optional/older-schema
 * fields read cleanly.
 */
bool getBool(const Value &obj, const std::string &key, bool dflt);
uint64_t getUint(const Value &obj, const std::string &key,
                 uint64_t dflt);
/** Signed variant for members that can be negative (exit codes). */
int64_t getInt(const Value &obj, const std::string &key,
               int64_t dflt);
double getDouble(const Value &obj, const std::string &key, double dflt);
std::string getString(const Value &obj, const std::string &key,
                      const std::string &dflt);
/** @} */

/**
 * @{ @name Strict parse→struct helpers
 *
 * For readers that must refuse rather than default: member() is
 * member @p key of @p obj when it is present with @p kind, otherwise
 * nullptr with @p err (if non-null) naming the missing or mistyped
 * member; require() reads such a member into @p out and returns
 * false when it cannot.
 */
const Value *member(const Value &obj, const char *key, Value::Kind kind,
                    std::string *err);
bool require(const Value &obj, const char *key, bool &out,
             std::string *err);
bool require(const Value &obj, const char *key, std::string &out,
             std::string *err);
bool require(const Value &obj, const char *key, int &out,
             std::string *err);
bool require(const Value &obj, const char *key, unsigned &out,
             std::string *err);
bool require(const Value &obj, const char *key, uint64_t &out,
             std::string *err);
bool require(const Value &obj, const char *key, double &out,
             std::string *err);
/** @} */

} // namespace json
} // namespace chex

#endif // CHEX_BASE_JSON_HH
