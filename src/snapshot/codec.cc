#include "codec.hh"

#include <fstream>
#include <sstream>

#include "base/fnv.hh"

namespace chex
{
namespace snapshot
{

uint64_t
jsonStateHash(const json::Value &v)
{
    TaggedHasher h;
    h.str("snapshot.state", v.dump(0));
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
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) {
        if (err)
            *err = "read error on '" + path + "'";
        return false;
    }
    *out = ss.str();
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
