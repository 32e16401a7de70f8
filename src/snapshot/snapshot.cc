#include "snapshot.hh"

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

json::Value
toJson(const Bundle &bundle)
{
    json::Value jentries = json::Value::array();
    for (const MachineEntry &e : bundle.entries) {
        jentries.push(json::Value::object()
                          .set("profile", e.profileName)
                          .set("variant", e.variant)
                          .set("seed", e.seed)
                          .set("specKey", stateHashHex(e.specKey))
                          .set("warmupMacros", e.warmupMacros)
                          .set("stateHash", stateHashHex(e.stateHash))
                          .set("state", e.state));
    }
    return json::Value::object()
        .set("format", BundleFormatTag)
        .set("campaignSeed", bundle.campaignSeed)
        .set("warmupMacros", bundle.warmupMacros)
        .set("entries", std::move(jentries));
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
    std::string format, why;
    if (!json::require(v, "format", format, &why))
        return fail("snapshot bundle: " + why);
    if (format != BundleFormatTag) {
        return fail("unrecognized snapshot bundle format (want " +
                    std::string(BundleFormatTag) + ")");
    }
    Bundle b;
    const json::Value *jentries =
        json::member(v, "entries", json::Value::Kind::Array, &why);
    if (!jentries ||
        !json::require(v, "campaignSeed", b.campaignSeed, &why) ||
        !json::require(v, "warmupMacros", b.warmupMacros, &why))
        return fail("snapshot bundle: " + why);
    for (size_t i = 0; i < jentries->size(); ++i) {
        const json::Value &je = jentries->at(i);
        std::string where = "snapshot bundle entry " + std::to_string(i);
        if (!je.isObject())
            return fail(where + " is not an object");
        MachineEntry e;
        std::string spec_key, state_hash;
        const json::Value *jstate = nullptr;
        if (!json::require(je, "profile", e.profileName, &why) ||
            !json::require(je, "variant", e.variant, &why) ||
            !json::require(je, "seed", e.seed, &why) ||
            !json::require(je, "warmupMacros", e.warmupMacros, &why) ||
            !json::require(je, "specKey", spec_key, &why) ||
            !json::require(je, "stateHash", state_hash, &why) ||
            !(jstate = json::member(je, "state", json::Value::Kind::Object,
                                    &why)))
            return fail(where + ": " + why);
        where += " '" + e.profileName + "/" + e.variant + "'";
        if (!stateHashFromHex(spec_key, &e.specKey) ||
            !stateHashFromHex(state_hash, &e.stateHash))
            return fail(where + " has a malformed key hash");
        e.state = *jstate;
        // Verify the recorded state digest against the bytes we just
        // parsed: bundles are large files that get copied between
        // machines, and a silently truncated or edited state must
        // not restore into a subtly different simulation.
        uint64_t got = jsonStateHash(e.state);
        if (got != e.stateHash) {
            return fail(where + " is corrupt: state hash " +
                        stateHashHex(got) + " != recorded " +
                        stateHashHex(e.stateHash));
        }
        b.entries.push_back(std::move(e));
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
