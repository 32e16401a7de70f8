#include "codec.hh"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "base/fnv.hh"

namespace chex
{
namespace snapshot
{

namespace
{

/** One node's header word: its kind, and its length or count. */
void
header(WordHasher &h, json::Value::Kind kind, uint64_t size)
{
    h.word(static_cast<uint64_t>(kind) | size << 8);
}

/** A node whose payload is @p n bytes of text: a string or a token. */
void
textNode(WordHasher &h, json::Value::Kind kind, const char *p, size_t n)
{
    header(h, kind, n);
    h.bytes(p, n);
}

void
digestNode(WordHasher &h, const json::Value &v)
{
    using Kind = json::Value::Kind;
    switch (v.kind()) {
      case Kind::Null:
        header(h, Kind::Null, 0);
        break;
      case Kind::Bool:
        header(h, Kind::Bool, v.boolean());
        break;
      case Kind::Number: {
        char buf[json::Value::kNumberTextMax];
        size_t n = static_cast<size_t>(v.numberText(buf) - buf);
        if (std::string_view(buf, n) == "null")
            header(h, Kind::Null, 0); // NaN/Inf read back as null
        else
            textNode(h, Kind::Number, buf, n);
        break;
      }
      case Kind::String:
        textNode(h, Kind::String, v.str().data(), v.str().size());
        break;
      case Kind::Array:
        header(h, Kind::Array, v.size());
        for (const json::Value &item : v.items())
            digestNode(h, item);
        break;
      case Kind::Object:
        header(h, Kind::Object, v.size());
        for (const auto &[key, m] : v.members()) {
            textNode(h, Kind::String, key.data(), key.size());
            digestNode(h, m);
        }
        break;
    }
}

} // namespace

uint64_t
jsonStateHash(const json::Value &v)
{
    WordHasher h;
    digestNode(h, v);
    return h.digest();
}

bool
readTextFile(const std::string &path, std::string *out,
             std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err)
            *err = "cannot open '" + path + "' for reading";
        return false;
    }
    std::string text;
    std::error_code ec;
    uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec) {
        // A regular file: one read into a string of its size.
        text.resize(size);
        in.read(text.data(), static_cast<std::streamsize>(size));
    } else {
        // A pipe or another file with no size: read to its end.
        std::ostringstream ss;
        ss << in.rdbuf();
        text = std::move(ss).str();
    }
    if (in.bad() || (!ec && !in)) {
        if (err)
            *err = "read error on '" + path + "'";
        return false;
    }
    *out = std::move(text);
    return true;
}

bool
writeTextFile(const std::string &path, const std::string &text,
              std::string *err)
{
    std::ofstream outf(path, std::ios::binary | std::ios::trunc);
    if (!outf) {
        if (err)
            *err = "cannot open '" + path + "' for writing";
        return false;
    }
    outf << text;
    outf.flush();
    if (!outf) {
        if (err)
            *err = "write error on '" + path + "'";
        return false;
    }
    return true;
}

} // namespace snapshot
} // namespace chex
