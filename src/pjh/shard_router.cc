#include "pjh/shard_router.hh"

#include <algorithm>
#include <cstring>

#include "nvm/nvm_device.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace espresso {

// ---------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------

std::uint64_t
ShardRouter::mix(std::uint64_t v)
{
    // splitmix64 finalizer: full-avalanche, cheap, stable.
    v += 0x9e3779b97f4a7c15ull;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
    return v ^ (v >> 31);
}

std::uint64_t
ShardRouter::hashName(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    for (unsigned char c : name)
        h = (h ^ c) * 0x100000001b3ull; // FNV prime
    return mix(h);
}

ShardRouter::ShardRouter(unsigned shards, unsigned vnodes)
    : shards_(shards), vnodes_(vnodes ? vnodes : kDefaultVnodes)
{
    if (shards_ == 0)
        fatal("ShardRouter: zero shards");
    // Domain-separate the vnode points from the key-hash domain.
    // Integer keys route via mix(pk) directly, and mix is a
    // bijection: deriving points as mix((s << 32) | v) made every
    // pk < vnodes collide exactly with one of member 0's points, so
    // small primary keys all piled onto member 0. A salted second
    // mix round keeps the point set disjoint from the hash of any
    // structured key.
    constexpr std::uint64_t kPointSalt = 0xe5a7ca7e5a1ad5e5ull;
    ring_.reserve(static_cast<std::size_t>(shards_) * vnodes_);
    for (unsigned s = 0; s < shards_; ++s) {
        for (unsigned v = 0; v < vnodes_; ++v) {
            std::uint64_t point =
                mix(mix((static_cast<std::uint64_t>(s) << 32) | v) ^
                    kPointSalt);
            ring_.push_back({point, s});
        }
    }
    std::sort(ring_.begin(), ring_.end());
}

unsigned
ShardRouter::shardForHash(std::uint64_t hash) const
{
    if (ring_.empty())
        fatal("ShardRouter: routing through an empty ring");
    // First ring point at or past the hash; wrap to the lowest point.
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), hash,
        [](const Point &p, std::uint64_t h) { return p.hash < h; });
    if (it == ring_.end())
        it = ring_.begin();
    return it->shard;
}

ShardLayout
resolveShardLayout(unsigned shards, unsigned vnodes)
{
    return {shards ? shards : envUnsigned("ESPRESSO_SHARDS", 1),
            vnodes ? vnodes
                   : envUnsigned("ESPRESSO_SHARD_VNODES",
                                 ShardRouter::kDefaultVnodes)};
}

void
RoutingEpochs::publish(ShardRouter committed, ShardRouter next,
                       bool migrating)
{
    auto e = std::make_unique<RoutingEpoch>();
    e->committed = std::move(committed);
    e->next = std::move(next);
    e->migrating = migrating;
    const RoutingEpoch *raw = e.get();
    {
        std::lock_guard<std::mutex> g(historyMu_);
        history_.push_back(std::move(e));
    }
    current_.store(raw, std::memory_order_release);
}

// ---------------------------------------------------------------------
// RingManifest
// ---------------------------------------------------------------------

Word
RingManifestData::computeDeclChecksum() const
{
    Word h = 0xcbf29ce484222325ull;
    auto fold = [&h](Word v) {
        h = (h ^ v) * 0x100000001b3ull;
        h = ShardRouter::mix(h);
    };
    fold(version);
    fold(targetShardCount);
    fold(vnodes);
    fold(dataSize);
    fold(nameTableCapacity);
    fold(klassSegSize);
    fold(regionSize);
    fold(bounceSize);
    fold(undoLogSize);
    fold(tlabSize);
    return h;
}

Word
RingManifestData::computeMigrChecksum() const
{
    Word h = 0xcbf29ce484222325ull;
    auto fold = [&h](Word v) {
        h = (h ^ v) * 0x100000001b3ull;
        h = ShardRouter::mix(h);
    };
    fold(version);
    fold(migrTarget);
    fold(migrFrom);
    fold(migrEpoch);
    return h;
}

RingManifest::RingManifest(NvmDevice *device) : dev_(device)
{
    if (device->size() < persistedBytes())
        fatal("RingManifest: manifest device too small");
    d_ = reinterpret_cast<RingManifestData *>(device->base());
}

bool
RingManifest::declared() const
{
    return d_ && d_->magic == RingManifestData::kMagic &&
           d_->version == RingManifestData::kVersion &&
           d_->targetShardCount >= 1 &&
           d_->targetShardCount <= RingManifestData::kMaxShards &&
           d_->declChecksum == d_->computeDeclChecksum();
}

void
RingManifest::declare(unsigned target_shards, unsigned vnodes,
                      const PjhConfig &shard_cfg)
{
    if (target_shards == 0 ||
        target_shards > RingManifestData::kMaxShards)
        fatal("RingManifest: shard count out of range");
    std::memset(d_, 0, sizeof(*d_));
    d_->version = RingManifestData::kVersion;
    d_->epoch = 0;
    d_->shardCount = 0;
    d_->targetShardCount = target_shards;
    d_->vnodes = vnodes ? vnodes : ShardRouter::kDefaultVnodes;
    d_->dataSize = shard_cfg.dataSize;
    d_->nameTableCapacity = shard_cfg.nameTableCapacity;
    d_->klassSegSize = shard_cfg.klassSegSize;
    d_->regionSize = shard_cfg.regionSize;
    d_->bounceSize = shard_cfg.bounceSize;
    d_->undoLogSize = shard_cfg.undoLogSize;
    d_->tlabSize = shard_cfg.tlabSize;
    d_->declChecksum = d_->computeDeclChecksum();
    // One fence commits the whole declaration; the checksum (and the
    // magic) make it atomic even when a crash persists a random
    // subset of its cache lines, so a torn declare reads back as
    // "never declared" and a complete one as a fully declared,
    // zero-member fabric.
    d_->magic = RingManifestData::kMagic;
    dev_->flush(reinterpret_cast<Addr>(d_), sizeof(*d_));
    dev_->fence();
}

void
RingManifest::markFormatted(unsigned k)
{
    d_->memberState[k] = RingManifestData::kMemberFormatted;
    dev_->persist(reinterpret_cast<Addr>(&d_->memberState[k]),
                  sizeof(Word));
}

void
RingManifest::clearMember(unsigned k)
{
    d_->memberState[k] = RingManifestData::kMemberEmpty;
    dev_->persist(reinterpret_cast<Addr>(&d_->memberState[k]),
                  sizeof(Word));
}

bool
RingManifest::migrationDeclared() const
{
    return declared() && d_->migrTarget >= 1 &&
           d_->migrTarget <= RingManifestData::kMaxShards &&
           d_->migrCheck == d_->computeMigrChecksum() &&
           d_->migrEpoch == d_->epoch;
}

bool
RingManifest::migrationStale() const
{
    return declared() && d_->migrTarget >= 1 &&
           d_->migrTarget <= RingManifestData::kMaxShards &&
           d_->migrCheck == d_->computeMigrChecksum() &&
           d_->migrEpoch != d_->epoch;
}

void
RingManifest::declareMigration(unsigned target)
{
    if (target == 0 || target > RingManifestData::kMaxShards)
        fatal("RingManifest: migration target out of range");
    // Fence 1: retire any done flags left by a previous change. The
    // header is written after its own fence so a crash between the
    // two reads as "never declared" with clean flags — the header
    // line and the flag lines would otherwise persist independently.
    std::memset(d_->migrDone, 0, sizeof(d_->migrDone));
    dev_->flush(reinterpret_cast<Addr>(d_->migrDone),
                sizeof(d_->migrDone));
    dev_->fence();
    // Fence 2: the atomic declaration point. Header + checksum live
    // on one cache line; a torn persist fails the checksum.
    d_->migrTarget = target;
    d_->migrFrom = d_->shardCount;
    d_->migrEpoch = d_->epoch;
    d_->migrCheck = d_->computeMigrChecksum();
    dev_->flush(reinterpret_cast<Addr>(&d_->migrTarget),
                4 * sizeof(Word));
    dev_->fence();
}

void
RingManifest::markMigrated(unsigned k)
{
    d_->migrDone[k] = 1;
    dev_->persist(reinterpret_cast<Addr>(&d_->migrDone[k]),
                  sizeof(Word));
}

bool
RingManifest::memberMigrated(unsigned k) const
{
    return d_->migrDone[k] == 1;
}

void
RingManifest::commitMembership()
{
    commit(static_cast<unsigned>(d_->migrTarget));
}

void
RingManifest::clearMigration()
{
    d_->migrTarget = 0;
    d_->migrFrom = 0;
    d_->migrEpoch = 0;
    d_->migrCheck = 0;
    std::memset(d_->migrDone, 0, sizeof(d_->migrDone));
    dev_->flush(reinterpret_cast<Addr>(&d_->migrTarget),
                4 * sizeof(Word));
    dev_->flush(reinterpret_cast<Addr>(d_->migrDone),
                sizeof(d_->migrDone));
    dev_->fence();
}

void
RingManifest::commit(unsigned n)
{
    d_->epoch += 1;
    d_->shardCount = n;
    dev_->flush(reinterpret_cast<Addr>(&d_->epoch), sizeof(Word));
    dev_->flush(reinterpret_cast<Addr>(&d_->shardCount), sizeof(Word));
    dev_->fence();
}

PjhConfig
RingManifest::shardConfig() const
{
    PjhConfig cfg;
    cfg.dataSize = d_->dataSize;
    cfg.nameTableCapacity = d_->nameTableCapacity;
    cfg.klassSegSize = d_->klassSegSize;
    cfg.regionSize = d_->regionSize;
    cfg.bounceSize = d_->bounceSize;
    cfg.undoLogSize = d_->undoLogSize;
    cfg.tlabSize = d_->tlabSize;
    return cfg;
}

} // namespace espresso
