/**
 * @file
 * Consistent-hash routing and the durable ring manifest of a
 * HeapFabric.
 *
 * A fabric spreads named roots and allocations over N PJH instances
 * (each on its own NvmDevice). The ShardRouter is the volatile
 * routing structure: a consistent-hash ring of shard * vnodes points,
 * so a name or key deterministically picks one shard and growing the
 * membership by one shard remaps only ~1/(N+1) of the key space.
 *
 * The RingManifest is the durable side: a small, fixed-layout region
 * on the fabric's own manifest device recording the target
 * membership, the per-shard sizing needed to rebuild an unformatted
 * member, a per-member "formatted" flag, and the committed shard
 * count + epoch. Creation is crash-tolerant:
 *
 *   declare(target, vnodes, cfg)   -- one fence; the fabric now
 *                                     durably exists with 0 members
 *   markFormatted(k)               -- after shard k's own device is
 *                                     durably formatted
 *   commit(n)                      -- epoch++, shardCount = n
 *
 * A crash between a shard's format and the final commit leaves
 * memberState[k] behind; recovery rolls such members forward
 * (re-attaching them) and re-formats members that never reached the
 * flag, then re-commits — so fabric creation is atomic at the
 * declare() fence and idempotent afterwards.
 */

#ifndef ESPRESSO_PJH_SHARD_ROUTER_HH
#define ESPRESSO_PJH_SHARD_ROUTER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pjh/pjh_layout.hh"
#include "util/common.hh"

namespace espresso {

class NvmDevice;

/** Volatile consistent-hash ring over shard indices [0, N). */
class ShardRouter
{
  public:
    /** Virtual nodes per shard when the caller passes 0. */
    static constexpr unsigned kDefaultVnodes = 64;

    ShardRouter() = default;

    /** Build the ring for @p shards members with @p vnodes points
     * each (0 selects kDefaultVnodes). */
    ShardRouter(unsigned shards, unsigned vnodes);

    unsigned shardCount() const { return shards_; }
    unsigned vnodes() const { return vnodes_; }

    /** Shard owning @p hash (wraps past the highest ring point). */
    unsigned shardForHash(std::uint64_t hash) const;

    /** Route a root/route name. */
    unsigned
    shardForName(const std::string &name) const
    {
        return shardForHash(hashName(name));
    }

    /** Route an integer key (database primary keys). */
    unsigned
    shardForKey(std::uint64_t key) const
    {
        return shardForHash(mix(key));
    }

    /** Remap diff against another epoch's ring: true when @p hash
     * routes to a different shard on @p next than on this ring. */
    bool
    remapped(const ShardRouter &next, std::uint64_t hash) const
    {
        return shardForHash(hash) != next.shardForHash(hash);
    }

    /** FNV-1a with a finalizer; stable across processes. */
    static std::uint64_t hashName(const std::string &name);

    /** splitmix64 finalizer; stable across processes. */
    static std::uint64_t mix(std::uint64_t v);

  private:
    struct Point
    {
        std::uint64_t hash;
        unsigned shard;

        bool
        operator<(const Point &o) const
        {
            return hash < o.hash || (hash == o.hash && shard < o.shard);
        }
    };

    std::vector<Point> ring_;
    unsigned shards_ = 0;
    unsigned vnodes_ = 0;
};

/** A sharded layer's member count and ring points per member. */
struct ShardLayout
{
    unsigned shards;
    unsigned vnodes;
};

/** Resolve configured sizing: 0 @p shards reads ESPRESSO_SHARDS
 * (then 1), 0 @p vnodes reads ESPRESSO_SHARD_VNODES (then
 * ShardRouter::kDefaultVnodes). */
ShardLayout resolveShardLayout(unsigned shards, unsigned vnodes);

/**
 * One routing epoch pair. While a membership change is migrating,
 * writes route by @p next and reads probe next-then-committed;
 * outside a change the two rings are identical.
 */
struct RoutingEpoch
{
    ShardRouter committed;
    ShardRouter next;
    bool migrating = false;
};

/**
 * The current RoutingEpoch of a sharded layer (the heap fabric, the
 * sharded database), swapped atomically so traffic threads read a
 * consistent triple. Published instances are immutable and live
 * until destruction, so a lock-free reader's pointer never dangles.
 */
class RoutingEpochs
{
  public:
    /** The current pair; null before the first publish. */
    const RoutingEpoch *
    current() const
    {
        return current_.load(std::memory_order_acquire);
    }

    /** Publish a new pair (membership contexts only). */
    void publish(ShardRouter committed, ShardRouter next,
                 bool migrating);

  private:
    std::atomic<const RoutingEpoch *> current_{nullptr};
    std::mutex historyMu_;
    std::vector<std::unique_ptr<RoutingEpoch>> history_;
};

/** The persistent manifest record (manifest-device offset 0). */
struct RingManifestData
{
    static constexpr Word kMagic = 0x45535052464d4e01ull; // "ESPRFAB",v1
    static constexpr Word kVersion = 1;
    static constexpr std::size_t kMaxShards = 64;

    Word magic;
    Word version;

    /** Bumped by every committed membership change. */
    Word epoch;

    /** Committed member count; members [0, shardCount) are live. */
    Word shardCount;

    /** Declared target membership of the in-progress (or completed)
     * create; recovery drives shardCount up to this. */
    Word targetShardCount;

    Word vnodes;

    /** @name Per-shard PjhConfig (uniform across members), so
     * recovery can re-format a member that crashed mid-create. */
    /// @{
    Word dataSize;
    Word nameTableCapacity;
    Word klassSegSize;
    Word regionSize;
    Word bounceSize;
    Word undoLogSize;
    Word tlabSize;
    /// @}

    /**
     * Checksum over the declaration fields (version, target, vnodes,
     * per-shard sizing). The declaration spans more than one cache
     * line, and under random-eviction crashes each unfenced dirty
     * line survives independently — so a magic word alone could
     * survive a torn declare. declared() therefore requires the
     * checksum too; a half-persisted declaration reads as "never
     * declared". epoch/shardCount/memberState are deliberately
     * excluded: they change after the declare and every reachable
     * combination of old/new values is a consistent state recovery
     * rolls forward from.
     */
    Word declChecksum;

    Word pad[2];

    /** 1 once member k's own device is durably formatted. */
    Word memberState[kMaxShards];

    /**
     * @name In-progress membership change (grow/shrink)
     *
     * A durable migration record, declared with the same
     * checksummed-declare pattern as fabric creation: the header
     * below occupies one cache line, and migrCheck folds the fields
     * that define the change — so a torn declare reads back as "no
     * change in progress" and the declare fence is the atomic point
     * past which recovery rolls the change forward. migrEpoch pins
     * the record to the epoch it was declared under: once commit()
     * bumps the epoch the record is stale, and recovery only has
     * post-commit cleanup (forward retirement, member teardown) left.
     */
    /// @{
    Word migrTarget; ///< declared new member count (0 = none)
    Word migrFrom;   ///< member count the change started from
    Word migrEpoch;  ///< epoch the change was declared under
    Word migrCheck;  ///< checksum over the three fields above
    Word migrPad[4];
    /** 1 once source member k's remapped roots are fully streamed. */
    Word migrDone[kMaxShards];
    /// @}

    static constexpr Word kMemberEmpty = 0;
    static constexpr Word kMemberFormatted = 1;

    /** The declaration checksum (FNV-mix over the declared fields). */
    Word computeDeclChecksum() const;

    /** The migration-record checksum (FNV-mix over the header). */
    Word computeMigrChecksum() const;
};

/** View over the manifest region of the fabric's manifest device. */
class RingManifest
{
  public:
    RingManifest() = default;

    /** @param device the fabric's manifest device (offset 0). */
    explicit RingManifest(NvmDevice *device);

    /** Bytes the manifest region needs. */
    static constexpr std::size_t
    persistedBytes()
    {
        return sizeof(RingManifestData);
    }

    /** True when the device carries a valid, committed declaration. */
    bool declared() const;

    /**
     * Durably declare a fabric: zero membership, record the target
     * count, vnodes and per-shard sizing. One fence; the atomic
     * creation point.
     */
    void declare(unsigned target_shards, unsigned vnodes,
                 const PjhConfig &shard_cfg);

    /** Durably flag member @p k as formatted. */
    void markFormatted(unsigned k);

    /** Durably clear member @p k's formatted flag (shrink teardown). */
    void clearMember(unsigned k);

    /** Commit the membership: shardCount = @p n, epoch += 1. */
    void commit(unsigned n);

    /** @name Membership-change (grow/shrink) migration record */
    /// @{

    /** True when a declared migration is pending under the current
     * epoch (the commit fence has not retired it yet). */
    bool migrationDeclared() const;

    /** True when the record survived its own commit fence: the epoch
     * moved past migrEpoch, so only post-commit cleanup remains. */
    bool migrationStale() const;

    /**
     * Durably declare a membership change to @p target members. Two
     * fences: the first retires any stale per-member done flags, the
     * second — the atomic declaration point — publishes the
     * checksummed header. After it, recovery rolls the change
     * forward; before it, nothing happened.
     */
    void declareMigration(unsigned target);

    /** Durably flag source member @p k as fully migrated. */
    void markMigrated(unsigned k);

    bool memberMigrated(unsigned k) const;

    /** The commit fence: shardCount = migrTarget, epoch += 1. The
     * membership change is now durable; the record goes stale. */
    void commitMembership();

    /** Durably retire the migration record after cleanup. */
    void clearMigration();

    /// @}

    const RingManifestData &data() const { return *d_; }

    /** Rebuild the stored per-shard PjhConfig. */
    PjhConfig shardConfig() const;

  private:
    NvmDevice *dev_ = nullptr;
    RingManifestData *d_ = nullptr;
};

} // namespace espresso

#endif // ESPRESSO_PJH_SHARD_ROUTER_HH
