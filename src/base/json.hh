/**
 * @file
 * A minimal dependency-free JSON value type with a writer and a
 * strict recursive-descent parser.
 *
 * The campaign driver uses it to emit machine-readable reports, the
 * snapshot subsystem to hold and serialise machine checkpoints, and
 * the tests use the parser to round-trip them; System::dumpStatsJson
 * uses it for structured single-run stats. Deliberately small: no
 * comments, no NaN/Inf (written as null), objects preserve insertion
 * order, numbers are doubles (integral values in the exactly
 * representable range are printed without a decimal point) unless
 * they were built from, or parsed as, a non-negative integer that
 * fits uint64, which is kept and printed exactly.
 *
 * Node layout: a Value is 16 bytes, a kind byte and an exact-uint
 * flag beside one 8-byte union of {bool, double, exact uint64,
 * owning pointer to a std::string, array or object payload}. A null
 * payload pointer is the empty string, array or object, so empty
 * aggregates cost no allocation; items() and members() return a
 * shared empty container for every other kind.
 *
 * Writer: dump() appends every token to one std::string (numbers
 * through std::to_chars, strings escaped a run at a time) and
 * write() hands that buffer to the stream in one call.
 *
 * Grammar (RFC 8259, whole input, surrounding whitespace allowed):
 * numbers are -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and must
 * be finite as a double; strings hold no raw control bytes and only
 * the eight short escapes plus four-hex-digit u-escapes (BMP, UTF-8
 * encoded; no surrogate pairing, the writer never emits them); an
 * object never repeats a key; arrays and objects nest at most
 * kMaxDepth deep.
 * Every rejection reads "json: <what> at byte <offset>".
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

/** Deepest array/object nesting Value::parse accepts. */
constexpr unsigned kMaxDepth = 512;

class Parser;

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

    using Array = std::vector<Value>;
    using Member = std::pair<std::string, Value>;
    using Object = std::vector<Member>;

    Value() noexcept { _u.uint = 0; }
    Value(std::nullptr_t) noexcept : Value() {}
    Value(bool b) noexcept : Value(Kind::Bool) { _u.boolean = b; }
    Value(double d) noexcept : Value(Kind::Number) { _u.num = d; }
    // Non-negative signed integers keep the exact-uint flag too, so
    // asUint64() never round-trips an int-constructed counter
    // through its double approximation.
    Value(int i) noexcept : Value(static_cast<int64_t>(i)) {}
    Value(unsigned u) noexcept : Value(static_cast<uint64_t>(u)) {}
    Value(int64_t i) noexcept : Value(Kind::Number)
    {
        _exactUint = i >= 0;
        if (_exactUint)
            _u.uint = static_cast<uint64_t>(i);
        else
            _u.num = static_cast<double>(i);
    }
    // Unsigned 64-bit values (counters, seeds) stay exact: the
    // writer prints the integer, not its double approximation.
    Value(uint64_t u) noexcept : Value(Kind::Number)
    {
        _exactUint = true;
        _u.uint = u;
    }
    Value(const char *s) : Value(std::string(s)) {}
    Value(std::string s);

    Value(const Value &other);
    Value(Value &&other) noexcept
        : _kind(other._kind), _exactUint(other._exactUint), _u(other._u)
    {
        other._kind = Kind::Null;
    }
    /** Copy-and-swap; self- and subtree-assignment are safe. */
    Value &
    operator=(Value other) noexcept
    {
        std::swap(_kind, other._kind);
        std::swap(_exactUint, other._exactUint);
        std::swap(_u, other._u);
        return *this;
    }
    ~Value() { release(); }

    /** Empty-aggregate factories (distinguish {} from []). */
    static Value object() { return Value(Kind::Object); }
    static Value array() { return Value(Kind::Array); }

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
    /** Whether this is a number held as an exact uint64. */
    bool isExactUint() const
    {
        return _kind == Kind::Number && _exactUint;
    }
    const std::string &str() const;
    /** @} */

    /** Append to an array (converts a Null value to an array). */
    Value &push(Value v) &;

    /**
     * Set an object member (converts a Null value to an object);
     * returns *this so construction chains.
     */
    Value &set(const std::string &key, Value v) &;

    /**
     * @{ The same on a temporary: the chain yields an rvalue, so
     * `a.push(Value::object().set(...))` moves the built record in
     * instead of copying it.
     */
    Value &&
    push(Value v) &&
    {
        push(std::move(v));
        return std::move(*this);
    }
    Value &&
    set(const std::string &key, Value v) &&
    {
        set(key, std::move(v));
        return std::move(*this);
    }
    /** @} */

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Object member by key; panics when absent. */
    const Value &at(const std::string &key) const;

    /** Array element by index; panics when out of range. */
    const Value &at(size_t index) const;

    /** Element/member count (0 for scalars). */
    size_t size() const;

    /** Array elements (empty for every other kind). */
    const Array &items() const;
    /** Object members in insertion order (empty for other kinds). */
    const Object &members() const;

    /**
     * Serialize. @p indent 0 writes compact single-line JSON;
     * positive values pretty-print with that many spaces per level.
     */
    void write(std::ostream &os, unsigned indent = 0) const;

    /** The write() text as a string. */
    std::string dump(unsigned indent = 0) const;

    /**
     * Strict RFC-8259 parse of @p text (whole input; trailing
     * garbage is an error; see the file comment for the grammar).
     * Returns false and fills @p err (if non-null) with a message
     * naming the byte offset on malformed input.
     */
    static bool parse(const std::string &text, Value &out,
                      std::string *err = nullptr);

  private:
    friend class Parser;

    explicit Value(Kind kind) noexcept : _kind(kind) { _u.uint = 0; }
    void release() noexcept;
    Array &arrayPayload();
    Object &objectPayload();
    void writeTo(std::string &out, unsigned indent,
                 unsigned depth) const;

    Kind _kind = Kind::Null;
    bool _exactUint = false; // Number: _u.uint is exact
    union Payload
    {
        bool boolean;
        double num;
        uint64_t uint;
        std::string *str; // String; nullptr is ""
        Array *arr;       // Array; nullptr is []
        Object *obj;      // Object; nullptr is {}
    } _u;
};

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
