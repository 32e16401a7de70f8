/**
 * @file
 * Checkpoint/restore subsystem tests: snapshot round-trips, the
 * restore-then-run bit-identity guarantee across variants, and the
 * strict rejection of mismatched or corrupt snapshots.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "snapshot/codec.hh"
#include "snapshot/snapshot.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace chex;

namespace
{

constexpr uint64_t TestSeed = 12345;
constexpr uint64_t Warmup = 2000;

BenchmarkProfile
testProfile()
{
    // Allocation-heavy and pointer-intensive, so the warm-up state
    // exercises the capability table, tracker, and alias machinery.
    return profileByName("xalancbmk").scaledBy(40);
}

SystemConfig
configFor(VariantKind kind)
{
    SystemConfig cfg;
    cfg.variant.kind = kind;
    return cfg;
}

/** @p obj without member @p key. */
json::Value
without(const json::Value &obj, const std::string &key)
{
    json::Value out = json::Value::object();
    for (const auto &[k, v] : obj.members())
        if (k != key)
            out.set(k, v);
    return out;
}

/** Fields of RunResult that must survive a pause bit-identically. */
void
expectIdenticalResults(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.exited, b.exited);
    EXPECT_EQ(a.violationDetected, b.violationDetected);
    EXPECT_EQ(a.hijackedControlFlow, b.hijackedControlFlow);
    EXPECT_EQ(a.hitMacroCap, b.hitMacroCap);
    EXPECT_EQ(a.violations.size(), b.violations.size());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.macroOps, b.macroOps);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.squashCyclesBranch, b.squashCyclesBranch);
    EXPECT_EQ(a.squashCyclesAlias, b.squashCyclesAlias);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.capChecksInjected, b.capChecksInjected);
    EXPECT_EQ(a.zeroIdiomChecks, b.zeroIdiomChecks);
    EXPECT_EQ(a.injectedUops, b.injectedUops);
    EXPECT_EQ(a.capCacheMissRate, b.capCacheMissRate);
    EXPECT_EQ(a.capCacheAccesses, b.capCacheAccesses);
    EXPECT_EQ(a.aliasCacheMissRate, b.aliasCacheMissRate);
    EXPECT_EQ(a.aliasCacheAccesses, b.aliasCacheAccesses);
    EXPECT_EQ(a.aliasPredAccuracy, b.aliasPredAccuracy);
    EXPECT_EQ(a.p0anFlushes, b.p0anFlushes);
    EXPECT_EQ(a.pmanForwards, b.pmanForwards);
    EXPECT_EQ(a.pna0ZeroIdioms, b.pna0ZeroIdioms);
    EXPECT_EQ(a.pointerSpills, b.pointerSpills);
    EXPECT_EQ(a.pointerReloads, b.pointerReloads);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.residentBytes, b.residentBytes);
    EXPECT_EQ(a.shadowBytes, b.shadowBytes);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.totalAllocations, b.totalAllocations);
    EXPECT_EQ(a.maxLiveAllocations, b.maxLiveAllocations);
    EXPECT_EQ(a.avgAllocationsInUse, b.avgAllocationsInUse);
}

} // anonymous namespace

TEST(Snapshot, PauseResumeMatchesUninterrupted)
{
    BenchmarkProfile p = testProfile();
    for (VariantKind kind :
         {VariantKind::Baseline, VariantKind::MicrocodePrediction,
          VariantKind::MicrocodeAlwaysOn, VariantKind::Asan}) {
        SystemConfig cfg = configFor(kind);

        System plain(cfg);
        plain.load(generateWorkload(p, TestSeed));
        RunResult a = plain.run();

        System paused(cfg);
        paused.load(generateWorkload(p, TestSeed));
        ASSERT_TRUE(paused.runMacros(Warmup)) << variantName(kind);
        EXPECT_TRUE(paused.paused());
        RunResult b = paused.run();

        SCOPED_TRACE(variantName(kind));
        expectIdenticalResults(a, b);
    }
}

TEST(Snapshot, RestoreRunsBitIdentically)
{
    BenchmarkProfile p = testProfile();
    for (VariantKind kind :
         {VariantKind::MicrocodePrediction, VariantKind::HardwareOnly,
          VariantKind::Baseline}) {
        SCOPED_TRACE(variantName(kind));
        SystemConfig cfg = configFor(kind);

        System plain(cfg);
        plain.load(generateWorkload(p, TestSeed));
        RunResult a = plain.run();

        snapshot::MachineEntry entry;
        std::string err;
        ASSERT_TRUE(snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1,
                                         &entry, &err))
            << err;
        EXPECT_EQ(entry.warmupMacros, Warmup);
        EXPECT_NE(entry.stateHash, 0u);

        System restored(cfg);
        ASSERT_TRUE(snapshot::restoreEntry(entry, p, &restored, &err))
            << err;
        ASSERT_TRUE(restored.paused());
        RunResult b = restored.run();

        expectIdenticalResults(a, b);
    }
}

TEST(Snapshot, SaveRestoreSaveIsStable)
{
    // Restoring a snapshot and snapshotting again must reproduce the
    // exact serialized document: proof that no state is dropped or
    // reordered on the way through.
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);

    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;

    System restored(cfg);
    ASSERT_TRUE(snapshot::restoreEntry(entry, p, &restored, &err))
        << err;
    json::Value again = restored.saveSnapshot(&err);
    ASSERT_FALSE(again.isNull()) << err;
    EXPECT_EQ(entry.state.dump(0), again.dump(0));
    EXPECT_EQ(entry.stateHash, snapshot::jsonStateHash(again));
}

TEST(Snapshot, BundleFileRoundTrip)
{
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);

    snapshot::Bundle bundle;
    bundle.campaignSeed = 7;
    bundle.warmupMacros = Warmup;
    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(snapshot::buildEntry(p, cfg, TestSeed, Warmup, 0xabcd,
                                     &entry, &err))
        << err;
    bundle.entries.push_back(std::move(entry));

    std::string path = testing::TempDir() + "/chex_snapshot_rt.json";
    ASSERT_TRUE(snapshot::writeBundleFile(path, bundle, &err)) << err;

    snapshot::Bundle loaded;
    ASSERT_TRUE(snapshot::loadBundleFile(path, &loaded, &err)) << err;
    ASSERT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.campaignSeed, 7u);
    EXPECT_EQ(loaded.warmupMacros, Warmup);
    const snapshot::MachineEntry &e = loaded.entries[0];
    EXPECT_EQ(e.profileName, p.name);
    EXPECT_EQ(e.variant,
              std::string(variantName(VariantKind::MicrocodePrediction)));
    EXPECT_EQ(e.seed, TestSeed);
    EXPECT_EQ(e.specKey, 0xabcdu);
    EXPECT_EQ(e.stateHash, bundle.entries[0].stateHash);
    EXPECT_EQ(e.state.dump(0), bundle.entries[0].state.dump(0));
    EXPECT_NE(loaded.findBySpecKey(0xabcd), nullptr);
    EXPECT_EQ(loaded.findBySpecKey(0x9999), nullptr);
    EXPECT_EQ(loaded.findBySpecKey(0), nullptr);
    std::remove(path.c_str());
}

TEST(Snapshot, CorruptBundleRejected)
{
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::Baseline);

    snapshot::Bundle bundle;
    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;
    bundle.entries.push_back(std::move(entry));

    json::Value doc = snapshot::toJson(bundle);

    // Wrong bundle format tag, and the v1 tag, whose entries carry
    // the older state digest: refused at `format`, by name.
    for (const char *tag :
         {"chex-snapshot-bundle-v999", "chex-snapshot-bundle-v1"}) {
        json::Value bad = doc;
        bad.set("format", tag);
        snapshot::Bundle out;
        EXPECT_FALSE(snapshot::fromJson(bad, &out, &err));
        EXPECT_NE(err.find("member 'format' is \"" + std::string(tag)),
                  std::string::npos)
            << err;
    }

    // Tampered state (hash mismatch): flip the saved macro count.
    {
        json::Value bad = doc;
        json::Value state = bundle.entries[0].state;
        json::Value machine = state.at("machine");
        machine.set("macroCount", uint64_t{999999});
        state.set("machine", std::move(machine));
        json::Value jentries = json::Value::array();
        json::Value je = bad.at("entries").at(size_t{0});
        je.set("state", std::move(state));
        jentries.push(std::move(je));
        bad.set("entries", std::move(jentries));
        snapshot::Bundle out;
        EXPECT_FALSE(snapshot::fromJson(bad, &out, &err));
        EXPECT_NE(err.find("corrupt"), std::string::npos) << err;
    }
}

TEST(Snapshot, MalformedBundleRejectedByName)
{
    snapshot::Bundle bundle;
    bundle.campaignSeed = 3;
    bundle.warmupMacros = Warmup;
    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(snapshot::buildEntry(testProfile(),
                                     configFor(VariantKind::Baseline),
                                     TestSeed, Warmup, 1, &entry, &err))
        << err;
    bundle.entries.push_back(std::move(entry));
    const json::Value doc = snapshot::toJson(bundle);
    snapshot::Bundle out;
    ASSERT_TRUE(snapshot::fromJson(doc, &out, &err)) << err;

    // @p bad must be refused with an error naming @p name.
    auto rejects = [&](const json::Value &bad, const std::string &name) {
        SCOPED_TRACE(name);
        err.clear();
        EXPECT_FALSE(snapshot::fromJson(bad, &out, &err));
        EXPECT_NE(err.find("'" + name + "'"), std::string::npos) << err;
    };
    const json::Value junk(true); // no bundle member is a bool
    for (const char *key :
         {"format", "campaignSeed", "warmupMacros", "entries"}) {
        json::Value bad = doc;
        rejects(without(doc, key), key);
        rejects(bad.set(key, junk), key);
    }
    const json::Value &je = doc.at("entries").at(size_t{0});
    for (const char *key : {"profile", "variant", "seed", "warmupMacros",
                            "specKey", "stateHash", "state"}) {
        json::Value bad = doc, item = je;
        rejects(bad.set("entries",
                        json::Value::array().push(without(je, key))),
                key);
        rejects(bad.set("entries",
                        json::Value::array().push(item.set(key, junk))),
                key);
    }
}

TEST(Snapshot, MismatchedRestoreRejected)
{
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);

    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;

    // Different config (variant changed) -> configHash mismatch.
    {
        SystemConfig other = configFor(VariantKind::MicrocodeAlwaysOn);
        System sys(other);
        EXPECT_FALSE(snapshot::restoreEntry(entry, p, &sys, &err));
        EXPECT_NE(err.find("configuration mismatch"),
                  std::string::npos)
            << err;
    }

    // Different config (cache geometry changed) -> rejected too.
    {
        SystemConfig other = cfg;
        other.capCacheEntries = 16;
        System sys(other);
        EXPECT_FALSE(snapshot::restoreEntry(entry, p, &sys, &err));
        EXPECT_NE(err.find("configuration mismatch"),
                  std::string::npos)
            << err;
    }

    // Different program (other seed) -> programHash mismatch.
    {
        System sys(cfg);
        sys.load(generateWorkload(p, TestSeed + 1));
        EXPECT_FALSE(sys.restoreSnapshot(entry.state, &err));
        EXPECT_NE(err.find("program mismatch"), std::string::npos)
            << err;
    }

    // Wrong snapshot format tag.
    {
        json::Value bad = entry.state;
        bad.set("format", "chex-snapshot-v999");
        System sys(cfg);
        sys.load(generateWorkload(p, TestSeed));
        EXPECT_FALSE(sys.restoreSnapshot(bad, &err));
        EXPECT_NE(err.find("format"), std::string::npos) << err;
    }

    // No program loaded at all.
    {
        System sys(cfg);
        EXPECT_FALSE(sys.restoreSnapshot(entry.state, &err));
        EXPECT_NE(err.find("no program"), std::string::npos) << err;
    }
}

TEST(Snapshot, CheckerConfigNotSnapshottable)
{
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);
    cfg.enableChecker = true;
    cfg.useTableIRules = false;
    BenchmarkProfile p = testProfile();
    snapshot::MachineEntry entry;
    std::string err;
    EXPECT_FALSE(snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1,
                                      &entry, &err));
    EXPECT_NE(err.find("checker"), std::string::npos) << err;
}

TEST(Snapshot, WarmupPastEndOfRunRejected)
{
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::Baseline);
    snapshot::MachineEntry entry;
    std::string err;
    EXPECT_FALSE(snapshot::buildEntry(p, cfg, TestSeed,
                                      uint64_t{1} << 62, 1, &entry,
                                      &err));
    EXPECT_NE(err.find("terminated before"), std::string::npos) << err;
}

TEST(Snapshot, MalformedRunStateRejectedByName)
{
    // Binary translation, so the warm state carries translated-code
    // indices and in-use PIDs as well as the common run state.
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::BinaryTranslation);
    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;
    const json::Value &machine = entry.state.at("machine");
    ASSERT_GT(machine.at("intervalPids").size(), 0u);
    ASSERT_GT(machine.at("btTranslated").size(), 0u);

    // Restore @p state's machine section replaced by @p m; the
    // error must name @p name.
    auto rejects = [&](const json::Value &m, const std::string &name) {
        SCOPED_TRACE(name);
        json::Value state = entry.state;
        state.set("machine", m);
        System sys(cfg);
        sys.load(generateWorkload(p, TestSeed));
        err.clear();
        EXPECT_FALSE(sys.restoreSnapshot(state, &err));
        EXPECT_NE(err.find(name), std::string::npos) << err;
    };
    const json::Value junk("junk");

    for (const char *key :
         {"seq", "macroCount", "pc", "intervalMacros", "intervalSamples",
          "intervalPidSum", "pending", "intervalPids", "btTranslated",
          "result"}) {
        rejects(without(machine, key), key);
        json::Value m = machine;
        rejects(m.set(key, junk), key);
    }
    for (const char *key :
         {"violationDetected", "violations", "injectedUops",
          "capChecksInjected", "zeroIdiomChecks", "pna0ZeroIdioms",
          "p0anFlushes", "pmanForwards"}) {
        json::Value m = machine;
        rejects(m.set("result", without(machine.at("result"), key)),
                key);
        json::Value r = machine.at("result");
        rejects(m.set("result", r.set(key, junk)), key);
    }

    // Array items: non-numbers, and records missing or mistyping a
    // member.
    for (const char *key : {"intervalPids", "btTranslated"}) {
        json::Value m = machine;
        rejects(m.set(key, json::Value::array().push(junk)), key);
    }
    json::Value pend = json::Value::object()
                           .set("kind", uint64_t{1})
                           .set("genPid", uint64_t{2})
                           .set("freePid", uint64_t{3});
    for (const char *key : {"kind", "genPid", "freePid"}) {
        json::Value m = machine;
        json::Value item = pend;
        std::string name = std::string("pending[0].") + key;
        rejects(m.set("pending", json::Value::array().push(
                                     without(pend, key))),
                name);
        rejects(m.set("pending",
                      json::Value::array().push(item.set(key, junk))),
                name);
    }
    json::Value viol = json::Value::object()
                           .set("kind", uint64_t{1})
                           .set("pc", uint64_t{2})
                           .set("addr", uint64_t{3})
                           .set("pid", uint64_t{4});
    for (const char *key : {"kind", "pc", "addr", "pid"}) {
        json::Value m = machine;
        json::Value r = machine.at("result");
        json::Value item = viol;
        std::string name = std::string("violations[0].") + key;
        rejects(m.set("result",
                      r.set("violations", json::Value::array().push(
                                              without(viol, key)))),
                name);
        rejects(m.set("result",
                      r.set("violations", json::Value::array().push(
                                              item.set(key, junk)))),
                name);
    }

    // The untouched state still restores.
    System sys(cfg);
    sys.load(generateWorkload(p, TestSeed));
    EXPECT_TRUE(sys.restoreSnapshot(entry.state, &err)) << err;
}

namespace
{

/**
 * One step into a document: an object member by key, or (an empty
 * key) the first item of an array.
 */
using Step = std::string;

/** The path as restore errors print it: "core.bpred.tagged[0].tag". */
std::string
pathText(const std::vector<Step> &path)
{
    std::string out;
    for (const Step &key : path)
        out += key.empty() ? "[0]" : (out.empty() ? "" : ".") + key;
    return out;
}

/**
 * @p v with the value at @p path (from step @p depth on) dropped, or
 * replaced by @p with when non-null.
 */
json::Value
edited(const json::Value &v, const std::vector<Step> &path, size_t depth,
       const json::Value *with)
{
    const Step &key = path[depth];
    bool last = depth + 1 == path.size();
    if (v.isArray()) {
        json::Value out = json::Value::array();
        for (size_t i = 0; i < v.size(); ++i) {
            if (i != 0)
                out.push(v.at(i));
            else if (!last)
                out.push(edited(v.at(i), path, depth + 1, with));
            else if (with)
                out.push(*with);
        }
        return out;
    }
    json::Value out = json::Value::object();
    for (const auto &[k, m] : v.members()) {
        if (k != key)
            out.set(k, m);
        else if (!last)
            out.set(k, edited(m, path, depth + 1, with));
        else if (with)
            out.set(k, *with);
    }
    return out;
}

/**
 * Every object member at every depth, and the first item of every
 * array, under @p v (descending through those first items).
 */
void
collectPaths(const json::Value &v, std::vector<Step> &path,
             std::vector<std::vector<Step>> &members,
             std::vector<std::vector<Step>> &items)
{
    if (v.isObject()) {
        for (const auto &[key, m] : v.members()) {
            path.push_back(key);
            members.push_back(path);
            collectPaths(m, path, members, items);
            path.pop_back();
        }
    } else if (v.isArray() && v.size() > 0) {
        path.push_back("");
        items.push_back(path);
        collectPaths(v.at(size_t{0}), path, members, items);
        path.pop_back();
    }
}

/** The value at @p path under @p v. */
const json::Value &
valueAt(const json::Value &v, const std::vector<Step> &path)
{
    const json::Value *at = &v;
    for (const Step &key : path)
        at = key.empty() ? &at->at(size_t{0}) : &at->at(key);
    return *at;
}

/** Scalar @p leaf changed to another value (of its kind but null's). */
json::Value
changedLeaf(const json::Value &leaf)
{
    if (leaf.isBool())
        return !leaf.boolean();
    if (leaf.isExactUint()) {
        uint64_t u = leaf.asUint64();
        return u == std::numeric_limits<uint64_t>::max() ? u - 1 : u + 1;
    }
    if (leaf.isNumber()) {
        double d = leaf.number();
        return std::isfinite(d) && d != 0.0 ? d * 2 : 1.0;
    }
    if (leaf.isString() && !leaf.str().empty()) {
        // One byte in the middle: base64 images keep their length.
        std::string s = leaf.str();
        char &c = s[s.size() / 2];
        c = c == 'A' ? 'B' : 'A';
        return s;
    }
    return leaf.isString() ? json::Value("x") : json::Value(uint64_t{0});
}

} // anonymous namespace

TEST(Snapshot, RestoreRefusesEveryDroppedOrMistypedMember)
{
    // Prediction-driven CHEx86 with initialization tracking, so the
    // warm state fills the tracker, alias, capability and
    // init-shadow sections as well as the core and memory ones.
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);
    cfg.detectUninitializedReads = true;
    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;
    const json::Value &machine = entry.state.at("machine");

    std::vector<Step> path;
    std::vector<std::vector<Step>> members, items;
    collectPaths(machine, path, members, items);
    ASSERT_GT(members.size(), 200u);

    System sys(cfg);
    sys.load(generateWorkload(p, TestSeed));
    const json::Value junk("not-a-value");
    auto refuses = [&](const std::vector<Step> &at, const json::Value *with) {
        json::Value state = entry.state;
        state.set("machine", edited(machine, at, 0, with));
        err.clear();
        std::string name = pathText(at);
        EXPECT_FALSE(sys.restoreSnapshot(state, &err))
            << name << (with ? " mistyped" : " dropped");
        EXPECT_NE(err.find(name), std::string::npos) << err;
    };
    for (const auto &at : members) {
        refuses(at, nullptr);
        refuses(at, &junk);
    }
    for (const auto &at : items)
        refuses(at, &junk);

    // The untouched state still restores.
    EXPECT_TRUE(sys.restoreSnapshot(entry.state, &err)) << err;
}

TEST(Snapshot, StateHashSeesEveryLeafAndMemberOrder)
{
    // The same real machine document as above: changing any one
    // scalar anywhere in it, or the order of two members, must
    // change the digest that pins a bundle entry's state.
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);
    cfg.detectUninitializedReads = true;
    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;
    const json::Value &doc = entry.state;
    const uint64_t base = snapshot::jsonStateHash(doc);
    ASSERT_EQ(base, entry.stateHash);

    std::vector<Step> path;
    std::vector<std::vector<Step>> members, items;
    collectPaths(doc, path, members, items);
    members.insert(members.end(), items.begin(), items.end());
    size_t leaves = 0;
    for (const auto &at : members) {
        const json::Value &leaf = valueAt(doc, at);
        if (leaf.isArray() || leaf.isObject())
            continue;
        const json::Value with = changedLeaf(leaf);
        EXPECT_NE(snapshot::jsonStateHash(edited(doc, at, 0, &with)), base)
            << pathText(at) << ": " << leaf.dump() << " -> " << with.dump();
        ++leaves;
    }
    EXPECT_GT(leaves, 200u);

    // The machine section's first two members swapped.
    const json::Value::Object &m = doc.at("machine").members();
    ASSERT_GE(m.size(), 2u);
    json::Value swapped = json::Value::object();
    swapped.set(m[1].first, m[1].second).set(m[0].first, m[0].second);
    for (size_t i = 2; i < m.size(); ++i)
        swapped.set(m[i].first, m[i].second);
    json::Value reordered = doc;
    reordered.set("machine", swapped);
    EXPECT_NE(snapshot::jsonStateHash(reordered), base);
}

TEST(Snapshot, StateHashSurvivesWriteParse)
{
    // Each value digests the same after dump and parse, though 3.0
    // and 2^53 + 2 read back as exact uints and NaN as null.
    const json::Value doc =
        json::Value::object()
            .set("three", 3.0)
            .set("pastExact", 9007199254740994.0) // 2^53 + 2
            .set("huge", 1e300)
            .set("negZero", -0.0)
            .set("nan", std::numeric_limits<double>::quiet_NaN())
            .set("max", std::numeric_limits<uint64_t>::max())
            .set("str", "")
            .set("arr", json::Value::array())
            .set("obj", json::Value::object());
    std::vector<json::Value> values;
    for (const auto &[key, v] : doc.members())
        values.push_back(v);
    values.push_back(doc);
    for (const json::Value &v : values) {
        for (unsigned indent : {0u, 2u}) {
            json::Value back;
            ASSERT_TRUE(json::Value::parse(v.dump(indent), back));
            EXPECT_EQ(snapshot::jsonStateHash(back),
                      snapshot::jsonStateHash(v))
                << v.dump();
        }
    }
    json::Value back;
    ASSERT_TRUE(json::Value::parse(doc.dump(), back));
    EXPECT_TRUE(back.at("three").isExactUint());
    EXPECT_TRUE(back.at("pastExact").isExactUint());
    EXPECT_TRUE(back.at("nan").isNull());

    // Values that print differently digest differently.
    std::vector<uint64_t> hashes;
    for (const json::Value &v :
         {json::Value(), json::Value(false), json::Value(uint64_t{0}),
          json::Value(-0.0), json::Value(""), json::Value("0"),
          json::Value::array(), json::Value::object(),
          json::Value::array().push(json::Value()),
          json::Value::array().push(json::Value::array())})
        hashes.push_back(snapshot::jsonStateHash(v));
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end());
}
