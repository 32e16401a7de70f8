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
 * pointer to a std::string, array or object payload}. A null
 * payload pointer is the empty string, array or object, so empty
 * aggregates cost no allocation; items() and members() return a
 * shared empty container for every other kind.
 *
 * Shared payloads: a payload carries an atomic reference count, and
 * copying a Value shares it, so a copy costs O(1) whatever the size
 * of the tree beneath. The first write through push() or set() to
 * a shared payload detaches one level: the writer gets its own copy
 * of that array or object, whose items share their payloads in
 * turn. Strings are never written in place. Values that share a
 * payload may be copied, read, written and destroyed from different
 * threads at once; one Value is not safe to write from two.
 *
 * Writer: dump() appends every token to one std::string (numbers
 * through std::to_chars, strings escaped a run at a time) and
 * write() hands that buffer to the stream in one call.
 *
 * Record binder: json::write() and json::read() are the one way a
 * struct becomes a document and back. A record lists its members
 * once, in document order, as a static template both directions
 * share:
 *
 *     template <class Self, class F>
 *     static void fields(Self &self, F &f)
 *     {
 *         f("fetchCycle", self.fetchCycle);
 *         f("bpred", self.bpred);
 *     }
 *
 * Writing runs the list with a const Self and a Writer, which builds
 * the object in list order. Reading runs it with a Reader, which
 * requires every member with its kind and range and stops at the
 * first that fails, naming its path ("core.fetchCycle",
 * "heap.bins[3]"); no member is ever filled in with a default.
 * F::reading tells the two apart for the rare list that recomputes
 * derived state after a read. Codec<T> maps one C++ type to its
 * value: unsigned integers as exact uints, signed ones as int64,
 * bool, double (a NaN is written as null, so null reads back as
 * NaN), std::string, enums as their underlying integer, vectors,
 * deques and C arrays as arrays, std::pair as [a, b], and any type
 * with fields() as an object. An adapter (Sized, Below, Match,
 * Base64, Text, Group, Each, Slots, Custom) wraps one member to give
 * it another encoding in place: f("ras", json::Sized{self.ras}).
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

#include <atomic>
#include <concepts>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/base64.hh"

namespace chex
{
namespace json
{

/** Deepest array/object nesting Value::parse accepts. */
constexpr unsigned kMaxDepth = 512;

class Parser;
class Writer;

/** A heap payload and the count of Values that share it. */
template <class T>
struct Shared
{
    std::atomic<size_t> refs{1};
    T data;
};

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

    /** Shares @p other's payload (see "Shared payloads" above). */
    Value(const Value &other) noexcept;
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
    const Value *find(std::string_view key) const;

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

    /** Room numberText() needs. */
    static constexpr size_t kNumberTextMax = 32;
    /**
     * The token write() prints for this number into @p buf, which
     * holds kNumberTextMax bytes: the exact uint, an integral double
     * below 2^53 without a decimal point, another finite double in
     * "%.17g" form, or "null" for a NaN or infinity. Returns the
     * end of the token.
     */
    char *numberText(char *buf) const;

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
    friend class Writer;

    explicit Value(Kind kind) noexcept : _kind(kind) { _u.uint = 0; }
    void release() noexcept;
    /** @{ The payload to write: allocated when null, detached from
     * the other Values when shared. */
    Array &arrayPayload();
    Object &objectPayload();
    /** @} */
    void writeTo(std::string &out, unsigned indent,
                 unsigned depth) const;

    Kind _kind = Kind::Null;
    bool _exactUint = false; // Number: _u.uint is exact
    union Payload
    {
        bool boolean;
        double num;
        uint64_t uint;
        Shared<std::string> *str; // String; nullptr is ""
        Shared<Array> *arr;       // Array; nullptr is []
        Shared<Object> *obj;      // Object; nullptr is {}
    } _u;
};

/** @{ @name Record binder (see the file comment) */

/** Why a read failed and where: the member path from the root. */
class Error
{
  public:
    /** Record @p what ("is missing") at the current value; false. */
    bool fail(std::string what);
    /** Prefix the path with object member @p key / array item @p i. */
    void within(const char *key);
    void within(size_t i);
    /** "member 'fetchCycle' is missing at core.fetchCycle", "item
     * heap.bins[3] is out of range" ("value ..." at the root). */
    std::string message() const;

  private:
    std::string _path;
    std::string _what;
};

template <class T>
struct Codec;

/** Builds one object from a field list, in list order. */
class Writer
{
  public:
    static constexpr bool reading = false;

    template <class T>
    void
    operator()(const char *key, const T &m)
    {
        add(key, Codec<T>::write(m));
    }
    /** A member the record carries only when @p present. */
    template <class T>
    void
    optional(const char *key, const T &m, bool present)
    {
        if (present)
            (*this)(key, m);
    }
    /** A reader-side consistency check: nothing to write. */
    void check(bool, const char *) {}
    Value take() { return std::move(obj); }

  private:
    void add(const char *key, Value v);
    Value obj = Value::object();
};

/** Reads one object's members into a field list's targets. */
class Reader
{
  public:
    static constexpr bool reading = true;

    /** Read the members of object @p o, failing into @p e. */
    Reader(const Value &o, Error &e) : obj(o), err(e) {}

    template <class T>
    void
    operator()(const char *key, T &&m)
    {
        if (good)
            take(key, obj.find(key), m);
    }
    /** Read @p key when present (the writer emitted it conditionally). */
    template <class T>
    void
    optional(const char *key, T &&m, bool)
    {
        if (const Value *v = good ? obj.find(key) : nullptr)
            take(key, v, m);
    }
    /** Fail the record with @p what unless @p cond holds. */
    void
    check(bool cond, const char *what)
    {
        if (good && !cond)
            good = err.fail(what);
    }
    bool ok() const { return good; }

  private:
    template <class T>
    void
    take(const char *key, const Value *v, T &m)
    {
        good = v ? Codec<std::remove_const_t<T>>::read(*v, m, err)
                 : err.fail("is missing");
        if (!good)
            err.within(key);
    }

    const Value &obj;
    Error &err;
    bool good = true;
};

/** The object @p fields(w) builds with a Writer w. */
template <class Fn>
Value
writeObject(Fn &&fields)
{
    Writer w;
    fields(w);
    return w.take();
}

/** Require @p v to be an object and read it with @p fields(r). */
template <class Fn>
bool
readObject(const Value &v, Error &err, Fn &&fields)
{
    if (!v.isObject())
        return err.fail("is not an object");
    Reader r(v, err);
    fields(r);
    return r.ok();
}

/** Require @p v to be an array and read each item with @p item(x). */
template <class Fn>
bool
readEach(const Value &v, Error &err, Fn &&item)
{
    if (!v.isArray())
        return err.fail("is not an array");
    for (size_t i = 0; i < v.size(); ++i) {
        if (!item(v.items()[i])) {
            err.within(i);
            return false;
        }
    }
    return true;
}

/** @{ Scalar reads: the kind, then the range (integers exactly). */
bool readBool(const Value &v, bool &out, Error &err);
bool readUint(const Value &v, uint64_t max, uint64_t &out, Error &err);
bool readInt(const Value &v, int64_t min, int64_t max, int64_t &out,
             Error &err);
bool readDouble(const Value &v, double &out, Error &err);
bool readString(const Value &v, std::string &out, Error &err);
/** An array of exactly @p n items. */
bool readSize(const Value &v, size_t n, Error &err);
/** A byte image of exactly @p n bytes as padded base64. */
bool readBase64(const Value &v, void *out, size_t n, Error &err);
/** @} */

/** Every item of @p range as an array. */
template <class Range>
Value
writeItems(const Range &range)
{
    Value out = Value::array();
    for (const auto &e : range)
        out.push(Codec<std::remove_cvref_t<decltype(e)>>::write(e));
    return out;
}

/** Read array @p v's items in order into *out, out[1], ... */
template <class It>
bool
readItems(const Value &v, It out, Error &err)
{
    return readEach(v, err, [&](const Value &x) {
        return Codec<std::remove_cvref_t<decltype(*out)>>::read(x, *out++,
                                                                err);
    });
}

/** bool, double and std::string: the JSON kinds of those names. */
template <class T>
    requires std::same_as<T, bool> || std::same_as<T, double> ||
             std::same_as<T, std::string>
struct Codec<T>
{
    static Value write(const T &x) { return x; }
    static bool
    read(const Value &v, T &out, Error &err)
    {
        if constexpr (std::same_as<T, bool>)
            return readBool(v, out, err);
        else if constexpr (std::same_as<T, double>)
            return readDouble(v, out, err);
        else
            return readString(v, out, err);
    }
};

/** Integers and enums (by their underlying integer): exact uints
 * when unsigned, int64 when signed, refused outside their range. */
template <class T>
    requires(std::integral<T> || std::is_enum_v<T>) &&
            (!std::same_as<T, bool>)
struct Codec<T>
{
    using I = typename std::conditional_t<std::is_enum_v<T>,
                                          std::underlying_type<T>,
                                          std::type_identity<T>>::type;
    using L = std::numeric_limits<I>;
    using Wide = std::conditional_t<std::is_signed_v<I>, int64_t, uint64_t>;

    static Value write(T x) { return static_cast<Wide>(x); }
    static bool
    read(const Value &v, T &out, Error &err)
    {
        Wide w = 0;
        bool ok = false;
        if constexpr (std::is_signed_v<I>)
            ok = readInt(v, L::min(), L::max(), w, err);
        else
            ok = readUint(v, L::max(), w, err);
        out = static_cast<T>(w);
        return ok;
    }
};

/** Sequences (vector, deque): any length. */
template <class C>
    requires requires(C &c) { c.resize(size_t{}); } &&
             (!std::same_as<C, std::string>)
struct Codec<C>
{
    static Value write(const C &c) { return writeItems(c); }
    static bool
    read(const Value &v, C &out, Error &err)
    {
        out.clear();
        out.resize(v.size());
        return readItems(v, out.begin(), err);
    }
};

template <class T, size_t N>
struct Codec<T[N]>
{
    static Value write(const T (&a)[N]) { return writeItems(a); }
    static bool
    read(const Value &v, T (&out)[N], Error &err)
    {
        return readSize(v, N, err) && readItems(v, out, err);
    }
};

template <class A, class B>
struct Codec<std::pair<A, B>>
{
    static Value
    write(const std::pair<A, B> &p)
    {
        return Value::array()
            .push(Codec<A>::write(p.first))
            .push(Codec<B>::write(p.second));
    }
    static bool
    read(const Value &v, std::pair<A, B> &out, Error &err)
    {
        size_t i = 0;
        return readSize(v, 2, err) && readEach(v, err, [&](const Value &x) {
                   return i++ ? Codec<B>::read(x, out.second, err)
                              : Codec<A>::read(x, out.first, err);
               });
    }
};

/** Types that declare a field list are objects. */
template <class T>
    requires requires(T &t, Reader &r) { T::fields(t, r); }
struct Codec<T>
{
    static Value
    write(const T &in)
    {
        return writeObject([&](Writer &w) { T::fields(in, w); });
    }
    static bool
    read(const Value &v, T &out, Error &err)
    {
        return readObject(v, err, [&](Reader &r) { T::fields(out, r); });
    }
};

/** Adapters: types with write() and read(v, err) of their own. */
template <class T>
    requires requires(T &a, const Value &v, Error &e) {
        { std::as_const(a).write() } -> std::same_as<Value>;
        a.read(v, e);
    }
struct Codec<T>
{
    static Value write(const T &a) { return a.write(); }
    static bool read(const Value &v, T &a, Error &e) { return a.read(v, e); }
};

/** Read [[a, b], ...], the shared encoding of integer maps and
 * range lists, handing each pair to @p add(a, b). */
template <class A, class B, class Add>
bool
readPairs(const Value &v, Error &err, Add &&add)
{
    return readEach(v, err, [&](const Value &x) {
        std::pair<A, B> p;
        bool ok = Codec<std::pair<A, B>>::read(x, p, err);
        if (ok)
            add(p.first, p.second);
        return ok;
    });
}

/** A vector whose length construction fixes (geometry). */
template <class V>
struct Sized
{
    V &items;
    Value write() const { return writeItems(items); }
    bool
    read(const Value &v, Error &err) const
    {
        return readSize(v, items.size(), err) &&
               readItems(v, items.begin(), err);
    }
};

/** An unsigned integer below @p limit (slot indices, saturations). */
template <class T>
struct Below
{
    T &value;
    uint64_t limit;
    Value write() const { return static_cast<uint64_t>(value); }
    bool
    read(const Value &v, Error &err) const
    {
        uint64_t u = 0;
        bool ok = limit ? readUint(v, limit - 1, u, err)
                        : err.fail("is out of range");
        value = static_cast<T>(u);
        return ok;
    }
};

/** A value the reader must find equal to @p want (geometry, tags). */
template <class T>
struct Match
{
    T want;
    Value write() const { return Codec<T>::write(want); }
    bool
    read(const Value &v, Error &err) const
    {
        T got{};
        return Codec<T>::read(v, got, err) &&
               (got == want ||
                err.fail("is " + v.dump() + ", want " + write().dump()));
    }
};

/** A fixed-size byte buffer (data(), size()) as base64. */
template <class T>
struct Base64
{
    T &bytes;
    Value write() const { return base64Encode(bytes.data(), bytes.size()); }
    bool
    read(const Value &v, Error &e) const
    {
        return readBase64(v, bytes.data(), bytes.size(), e);
    }
};

/** A value written as the text @p format(value) and read back by
 * @p parse(text, value), which refuses what is not @p what. */
template <class T, class W, class R>
struct Text
{
    T &value;
    W format;
    R parse;
    const char *what;
    Value write() const { return std::string(format(value)); }
    bool
    read(const Value &v, Error &err) const
    {
        std::string s;
        return readString(v, s, err) &&
               (parse(s, value) || err.fail(std::string("is not ") + what));
    }
};

/** @p obj as an object under the field list @p list(obj, f). */
template <class T, class Fn>
struct Group
{
    T &obj;
    Fn list;
    Value
    write() const
    {
        return writeObject([&](Writer &w) { list(std::as_const(obj), w); });
    }
    bool
    read(const Value &v, Error &err) const
    {
        return readObject(v, err, [&](Reader &r) { list(obj, r); });
    }
};

/** A vector of records, each an object under @p list(item, f). */
template <class V, class Fn>
struct Each
{
    V &items;
    Fn list;
    Value
    write() const
    {
        Value out = Value::array();
        for (const auto &item : items)
            out.push(Group{item, list}.write());
        return out;
    }
    bool
    read(const Value &v, Error &err) const
    {
        items.clear();
        items.resize(v.size());
        auto next = items.begin();
        return readEach(v, err, [&](const Value &x) {
            return Group{*next++, list}.read(x, err);
        });
    }
};

/**
 * A sparse table: the entries with `valid` set, each an object of
 * its index ("slot") and @p list(entry, f). A vector of tables adds
 * the table index ("table") first. Reading resets every entry, then
 * refuses an index that is out of range or repeated.
 */
template <class V, class Fn>
struct Slots
{
    V &tables;
    Fn list;

    static constexpr bool Nested =
        !requires(typename std::remove_const_t<V>::value_type & e) {
            e.valid;
        };
    /** The tables: @p tables itself, or a one-table view of it. */
    auto
    all() const
    {
        if constexpr (Nested)
            return std::span(tables);
        else
            return std::span(&tables, 1);
    }

    Value
    write() const
    {
        Value out = Value::array();
        auto tabs = all();
        for (uint64_t t = 0; t < tabs.size(); ++t) {
            for (uint64_t i = 0; i < tabs[t].size(); ++i) {
                if (!tabs[t][i].valid)
                    continue;
                out.push(writeObject([&](Writer &w) {
                    if constexpr (Nested)
                        w("table", t);
                    w("slot", i);
                    list(tabs[t][i], w);
                }));
            }
        }
        return out;
    }
    bool
    read(const Value &v, Error &err) const
    {
        auto tabs = all();
        for (auto &table : tabs)
            for (auto &e : table)
                e = {};
        return readEach(v, err, [&](const Value &x) {
            return readObject(x, err, [&](Reader &r) {
                uint64_t t = 0, i = 0;
                if constexpr (Nested)
                    r("table", Below<uint64_t>{t, tabs.size()});
                if (r.ok())
                    r("slot", Below<uint64_t>{i, tabs[t].size()});
                r.check(!r.ok() || !tabs[t][i].valid, "repeats a slot");
                if (r.ok()) {
                    list(tabs[t][i], r);
                    tabs[t][i].valid = true;
                }
            });
        });
    }
};

/** A member with its own encoding: writeFn(obj) builds its value
 * and readFn(obj, v, err) restores it. */
template <class T, class W, class R>
struct Custom
{
    T &obj;
    W writeFn;
    R readFn;
    Value write() const { return writeFn(obj); }
    bool read(const Value &v, Error &e) const { return readFn(obj, v, e); }
};

/** The JSON value of @p in. */
template <class T>
Value
write(const T &in)
{
    return Codec<T>::write(in);
}

/**
 * Read @p v into @p out (a value, a record, or an adapter). Returns
 * false with @p err (if non-null) naming the first member that is
 * missing, mistyped or out of range; @p out is then unspecified.
 */
template <class T>
bool
read(const Value &v, T &&out, std::string *err = nullptr)
{
    Error e;
    bool ok = Codec<std::remove_cvref_t<T>>::read(v, out, e);
    if (!ok && err)
        *err = e.message();
    return ok;
}

/** read() into a copy of @p out: @p out is kept as it was on failure. */
template <class T>
bool
readOrKeep(const Value &v, T &out, std::string *err = nullptr)
{
    T next = out;
    bool ok = read(v, next, err);
    if (ok)
        out = std::move(next);
    return ok;
}

/** Read the one member @p key of object @p obj into @p out. */
template <class T>
bool
require(const Value &obj, const char *key, T &out,
        std::string *err = nullptr)
{
    return read(obj, Group{out, [key](auto &o, auto &f) { f(key, o); }},
                err);
}
/** @} */

} // namespace json
} // namespace chex

/** Instantiate T::fields for json::write and json::read in the one
 * source file that defines the list. */
#define CHEX_JSON_FIELDS(T)                                           \
    template void T::fields(const T &, ::chex::json::Writer &);       \
    template void T::fields(T &, ::chex::json::Reader &)

#endif // CHEX_BASE_JSON_HH
