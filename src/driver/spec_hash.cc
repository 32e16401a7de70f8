#include "spec_hash.hh"

#include "base/fnv.hh"
#include "sim/config_hash.hh"

namespace chex
{
namespace driver
{

namespace
{

void
hashProfile(TaggedHasher &h, const BenchmarkProfile &p)
{
    h.str("profile.name", p.name);
    h.u64("profile.isParsec", p.isParsec);
    h.u64("profile.totalAllocations", p.totalAllocations);
    h.u64("profile.maxLiveBuffers", p.maxLiveBuffers);
    h.u64("profile.buffersInUse", p.buffersInUse);
    h.u64("profile.allocSizeMin", p.allocSizeMin);
    h.u64("profile.allocSizeMax", p.allocSizeMax);
    h.u64("profile.dominantPattern",
          static_cast<uint64_t>(p.dominantPattern));
    h.f64("profile.pointerIntensity", p.pointerIntensity);
    h.u64("profile.chaseDepth", p.chaseDepth);
    h.u64("profile.accessesPerVisit", p.accessesPerVisit);
    h.f64("profile.fpFraction", p.fpFraction);
    h.f64("profile.branchiness", p.branchiness);
    h.u64("profile.iterations", p.iterations);
    h.u64("profile.scheduleLength", p.scheduleLength);
}

} // namespace

uint64_t
specHash(const JobSpec &spec, uint64_t seed)
{
    TaggedHasher h;
    hashProfile(h, spec.profile);
    hashSystemConfig(h, spec.config);
    h.u64("seed", seed);
    // Guarded so every pre-existing (non-attack) spec keeps its
    // historical hash: old reports stay valid cache inputs.
    if (!spec.attack.empty())
        h.str("attack.case", spec.attack);
    return h.digest();
}

uint64_t
foldSnapshotHash(uint64_t spec_hash, uint64_t state_hash)
{
    TaggedHasher h;
    h.u64("spec", spec_hash);
    h.u64("snapshot.stateHash", state_hash);
    return h.digest();
}

std::string
specHashHex(uint64_t hash)
{
    return hashHex(hash);
}

uint64_t
specHashFromHex(const std::string &hex)
{
    uint64_t hash = 0;
    return parseHashHex(hex, &hash) ? hash : 0;
}

} // namespace driver
} // namespace chex
