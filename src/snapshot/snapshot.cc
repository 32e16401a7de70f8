#include "snapshot.hh"

#include "base/fnv.hh"
#include "snapshot/codec.hh"
#include "workload/generator.hh"

namespace chex
{
namespace snapshot
{

const MachineEntry *
Bundle::findBySpecKey(uint64_t key) const
{
    if (!key)
        return nullptr; // 0 marks unhashable jobs; never match them
    for (const MachineEntry &e : entries)
        if (e.specKey == key)
            return &e;
    return nullptr;
}

bool
buildEntry(const BenchmarkProfile &profile, const SystemConfig &config,
           uint64_t seed, uint64_t warmup_macros, uint64_t spec_key,
           MachineEntry *out, std::string *err)
{
    System sys(config);
    sys.load(generateWorkload(profile, seed));
    if (!sys.runMacros(warmup_macros)) {
        if (err) {
            *err = "workload '" + profile.name + "' terminated before " +
                   "the warm-up point; nothing to checkpoint "
                   "(shorten --warmup)";
        }
        return false;
    }
    std::string save_err;
    json::Value state = sys.saveSnapshot(&save_err);
    if (state.isNull()) {
        if (err)
            *err = save_err;
        return false;
    }
    out->profileName = profile.name;
    out->variant = variantName(config.variant.kind);
    out->seed = seed;
    out->specKey = spec_key;
    out->warmupMacros = warmup_macros;
    out->stateHash = jsonStateHash(state);
    out->state = std::move(state);
    return true;
}

bool
restoreEntry(const MachineEntry &entry, const BenchmarkProfile &profile,
             System *sys, std::string *err)
{
    sys->load(generateWorkload(profile, entry.seed));
    return sys->restoreSnapshot(entry.state, err);
}

namespace
{

constexpr const char *HexDigits = "16 lower-case hex digits";

bool
parseHash(const std::string &hex, uint64_t &hash)
{
    return parseHashHex(hex, &hash);
}

bool
restoreMachine(json::Value &state, const json::Value &v, json::Error &err)
{
    if (!v.isObject())
        return err.fail("is not an object");
    state = v;
    return true;
}

constexpr auto entryFields = [](auto &e, auto &f) {
    f("profile", e.profileName);
    f("variant", e.variant);
    f("seed", e.seed);
    f("specKey", json::Text{e.specKey, hashHex, parseHash, HexDigits});
    f("warmupMacros", e.warmupMacros);
    f("stateHash", json::Text{e.stateHash, hashHex, parseHash, HexDigits});
    f("state", json::Custom{e.state, [](const json::Value &v) { return v; },
                            restoreMachine});
};

constexpr auto bundleFields = [](auto &b, auto &f) {
    f("format", json::Match{std::string(BundleFormatTag)});
    f("campaignSeed", b.campaignSeed);
    f("warmupMacros", b.warmupMacros);
    f("entries", json::Each{b.entries, entryFields});
};

} // namespace

json::Value
toJson(const Bundle &bundle)
{
    return json::write(json::Group{bundle, bundleFields});
}

bool
fromJson(const json::Value &v, Bundle *out, std::string *err)
{
    auto fail = [err](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    if (!v.isObject())
        return fail("snapshot bundle is not a JSON object");
    Bundle b;
    std::string why;
    if (!json::read(v, json::Group{b, bundleFields}, &why))
        return fail("snapshot bundle: " + why);
    for (size_t i = 0; i < b.entries.size(); ++i) {
        const MachineEntry &e = b.entries[i];
        // Verify the recorded state digest against the state just
        // parsed: bundles are large files that get copied between
        // machines, and a silently truncated or edited state must
        // not restore into a subtly different simulation.
        uint64_t got = jsonStateHash(e.state);
        if (got != e.stateHash) {
            return fail("snapshot bundle entry " + std::to_string(i) +
                        " '" + e.profileName + "/" + e.variant +
                        "' is corrupt: state hash " + hashHex(got) +
                        " != recorded " + hashHex(e.stateHash));
        }
    }
    *out = std::move(b);
    return true;
}

bool
writeBundleFile(const std::string &path, const Bundle &bundle,
                std::string *err)
{
    return writeTextFile(path, toJson(bundle).dump(2) + "\n", err);
}

bool
loadBundleFile(const std::string &path, Bundle *out, std::string *err)
{
    std::string text;
    if (!readTextFile(path, &text, err))
        return false;
    json::Value v;
    std::string parse_err;
    if (!json::Value::parse(text, v, &parse_err)) {
        if (err)
            *err = "'" + path + "' is not valid JSON: " + parse_err;
        return false;
    }
    return fromJson(v, out, err);
}

} // namespace snapshot
} // namespace chex
