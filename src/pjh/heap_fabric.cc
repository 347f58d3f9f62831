#include "pjh/heap_fabric.hh"

#include <atomic>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "runtime/klass.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace espresso {

HeapFabric::HeapFabric(KlassRegistry *registry,
                       VolatileHeap *volatile_heap, NvmConfig nvm_cfg)
    : registry_(registry), volatileHeap_(volatile_heap),
      nvmCfg_(nvm_cfg)
{}

HeapFabric::~HeapFabric()
{
    for (auto &h : heaps_)
        if (h)
            unwireShard(h.get());
}

void
HeapFabric::wireShard(PjhHeap *heap)
{
    if (gcThreads_ != 0)
        heap->setGcThreads(gcThreads_);
    if (gcConcurrent_ >= 0)
        heap->setGcConcurrent(gcConcurrent_ != 0);
    if (volatileHeap_) {
        volatileHeap_->addExternalSpace(heap);
        VolatileHeap *vh = volatileHeap_;
        heap->setGcTrigger([heap, vh]() { heap->collect(vh); });
    } else {
        heap->setGcTrigger([heap]() { heap->collect(nullptr); });
    }
}

void
HeapFabric::unwireShard(PjhHeap *heap)
{
    if (volatileHeap_)
        volatileHeap_->removeExternalSpace(heap);
}

void
HeapFabric::formatShard(unsigned k, const PjhConfig &cfg)
{
    if (devices_.size() <= k)
        devices_.resize(k + 1);
    if (!devices_[k]) {
        PjhMetadata scratch{};
        std::size_t total = computeLayout(cfg, scratch);
        devices_[k] = std::make_unique<NvmDevice>(total, nvmCfg_);
    } else {
        // Re-formatting a member whose create crashed part-way
        // (recovery roll-forward): wipe the device first — the
        // partial format may have left durable name-table or klass
        // state behind (PjhHeap::create only rewrites the metadata
        // area), and under random-eviction crashes even torn lines
        // can read as valid.
        std::memset(devices_[k]->base(), 0, devices_[k]->size());
        devices_[k]->shutdownClean();
    }
    auto heap = PjhHeap::create(devices_[k].get(), cfg, registry_);
    wireShard(heap.get());
    if (heaps_.size() <= k)
        heaps_.resize(k + 1);
    heaps_[k] = std::move(heap);
    publishMember(k, heaps_[k].get());
}

void
HeapFabric::publishMember(unsigned k, PjhHeap *heap)
{
    live_[k].store(heap, std::memory_order_release);
    unsigned cur = memberSlots_.load(std::memory_order_relaxed);
    while (cur < k + 1 &&
           !memberSlots_.compare_exchange_weak(
               cur, k + 1, std::memory_order_release,
               std::memory_order_relaxed)) {
    }
}

void
HeapFabric::create(const FabricConfig &cfg)
{
    if (exists())
        fatal("HeapFabric::create: fabric already exists");
    auto [shards, vnodes] = resolveShardLayout(cfg.shards, cfg.vnodes);
    if (shards > RingManifestData::kMaxShards)
        fatal("HeapFabric::create: shard count exceeds manifest "
              "capacity");

    manifestDev_ = std::make_unique<NvmDevice>(
        rootIntentsOff() + DecisionLog::bytesFor(kRootStripes),
        nvmCfg_);
    if (manifestInjector_)
        manifestDev_->setInjector(manifestInjector_);
    manifest_ = RingManifest(manifestDev_.get());
    // The declaration fence is the atomic creation point; everything
    // after it is rolled forward by recover() if power fails.
    manifest_.declare(shards, vnodes, cfg.shard);
    for (unsigned k = 0; k < shards; ++k) {
        formatShard(k, cfg.shard);
        manifest_.markFormatted(k);
    }
    manifest_.commit(shards);
    // The intent region formats after the membership commit: a crash
    // anywhere before this point leaves an invalid intent header,
    // which replayRootIntents()'s recover() reads as an empty log
    // and re-formats.
    rootIntents_ =
        DecisionLog(manifestDev_.get(), rootIntentsOff(), kRootStripes);
    rootIntents_.format();
    ShardRouter ring(shards, vnodes);
    routing_.publish(ring, ring, false);
}

void
HeapFabric::recover(SafetyLevel safety)
{
    if (!exists())
        fatal("HeapFabric::recover: fabric was never created");
    // A crashed create may leave partially attached members behind;
    // recovery always starts from volatile zero.
    for (auto &h : heaps_)
        if (h)
            unwireShard(h.get());
    heaps_.clear();
    for (auto &slot : live_)
        slot.store(nullptr, std::memory_order_relaxed);
    memberSlots_.store(0, std::memory_order_release);

    manifest_ = RingManifest(manifestDev_.get());
    if (!manifest_.declared())
        fatal("HeapFabric::recover: manifest was never durably "
              "declared");
    const RingManifestData &d = manifest_.data();
    // shardCount == 0 means the original create never committed; its
    // declared target is the membership to roll forward to. A
    // non-zero count is the committed membership (possibly changed
    // by grow/shrink since creation) and must NOT be reset to the
    // creation target.
    unsigned creating =
        d.shardCount == 0 ? static_cast<unsigned>(d.targetShardCount)
                          : 0;
    unsigned n = creating ? creating
                          : static_cast<unsigned>(d.shardCount);
    bool migr = manifest_.migrationDeclared();
    // A declared-but-uncommitted migration rolls forward below; its
    // joining members (grow) attach or format here too.
    unsigned bound =
        migr ? std::max(n, static_cast<unsigned>(d.migrTarget)) : n;
    PjhConfig shard_cfg = manifest_.shardConfig();

    if (devices_.size() < bound)
        devices_.resize(bound);
    heaps_.resize(bound);
    for (unsigned k = 0; k < bound; ++k) {
        if (d.memberState[k] == RingManifestData::kMemberFormatted &&
            devices_[k]) {
            // Committed or rolled-forward member: per-shard recovery
            // (tail repair, interrupted compaction, rebase) happens
            // inside attach.
            auto heap = PjhHeap::attach(devices_[k].get(), registry_,
                                        safety);
            wireShard(heap.get());
            heaps_[k] = std::move(heap);
            publishMember(k, heaps_[k].get());
        } else {
            // The create (or grow) crashed before this member's
            // format was durably flagged: its device holds garbage
            // (or was never made). Re-format from the manifest's
            // sizing.
            formatShard(k, shard_cfg);
            manifest_.markFormatted(k);
        }
    }
    memberSlots_.store(bound, std::memory_order_release);
    if (creating)
        manifest_.commit(creating);
    n = static_cast<unsigned>(manifest_.data().shardCount);
    ShardRouter ring(n, static_cast<unsigned>(d.vnodes));
    routing_.publish(ring, ring, false);
    replayRootIntents();

    if (migr) {
        // The declare fence passed but the commit fence did not:
        // roll the membership change forward (members whose durable
        // migrated flag is set are skipped; per-root moves are
        // idempotent).
        std::lock_guard<std::mutex> g(membershipMu_);
        completeMembershipChangeLocked();
    } else if (manifest_.migrationStale()) {
        // The commit fence passed but cleanup did not: retire the
        // forwards and tear down evacuated members.
        std::lock_guard<std::mutex> g(membershipMu_);
        finishMigrationCleanupLocked();
    }
}

std::size_t
HeapFabric::rootIntentsOff()
{
    return alignUp(RingManifest::persistedBytes(), kCacheLineSize);
}

void
HeapFabric::replayRootIntents()
{
    rootIntents_ =
        DecisionLog(manifestDev_.get(), rootIntentsOff(), kRootStripes);
    for (const DecisionLog::Record &r : rootIntents_.recover()) {
        if (r.kind != DecisionLog::kKindRootIntent) {
            rootIntents_.clear(r.slot);
            continue;
        }
        const std::string &name = r.payload;
        bool null_publish = r.txnId != 0;
        PjhHeap *target =
            r.argA < heaps_.size() ? heaps_[r.argA].get() : nullptr;
        if (null_publish) {
            // Unpublish replay is idempotent: null the binding
            // everywhere, whether or not the original got that far.
            for (const auto &h : heaps_)
                if (h && !h->getRoot(name).isNull())
                    h->setRoot(name, Oop());
        } else if (target && !target->getRoot(name).isNull()) {
            // The new home's binding durably landed: complete the
            // stale-entry sweep (roll forward).
            for (const auto &h : heaps_) {
                if (!h || h.get() == target)
                    continue;
                if (!h->getRoot(name).isNull())
                    h->setRoot(name, Oop());
            }
        }
        // else: the publication never landed; the old fully-swept
        // binding is still current (roll back = do nothing).
        rootIntents_.clear(r.slot);
    }
}

void
HeapFabric::ensureAttached(SafetyLevel safety)
{
    if (!attached()) {
        recover(safety);
        return;
    }
    for (unsigned i = 0; i < shardCount(); ++i)
        if (devices_[i] && !heaps_[i])
            reattachShard(i, safety);
}

void
HeapFabric::detach()
{
    if (!attached())
        fatal("HeapFabric::detach: fabric is not attached");
    for (auto &h : heaps_) {
        if (!h)
            continue;
        h->detach();
        unwireShard(h.get());
    }
    heaps_.clear();
    for (auto &slot : live_)
        slot.store(nullptr, std::memory_order_relaxed);
    manifestDev_->shutdownClean();
}

std::uint64_t
HeapFabric::epoch() const
{
    return manifest_.declared() ? manifest_.data().epoch : 0;
}

PjhHeap *
HeapFabric::shard(unsigned i) const
{
    return i < RingManifestData::kMaxShards
               ? live_[i].load(std::memory_order_acquire)
               : nullptr;
}

NvmDevice *
HeapFabric::shardDevice(unsigned i) const
{
    return i < devices_.size() ? devices_[i].get() : nullptr;
}

const ShardRouter &
HeapFabric::router() const
{
    static const ShardRouter kEmpty;
    const RoutingEpoch *rt = routing_.current();
    return rt ? rt->committed : kEmpty;
}

bool
HeapFabric::migrating() const
{
    const RoutingEpoch *rt = routing_.current();
    return rt && rt->migrating;
}

unsigned
HeapFabric::shardIndexFor(const std::string &route_key) const
{
    return router().shardForName(route_key);
}

unsigned
HeapFabric::shardIndexForWrite(const std::string &route_key) const
{
    const RoutingEpoch *rt = routing_.current();
    if (!rt)
        fatal("HeapFabric: routing before create/recover");
    return rt->next.shardForName(route_key);
}

PjhHeap *
HeapFabric::shardFor(const std::string &route_key) const
{
    PjhHeap *h = shard(router().shardForName(route_key));
    if (!h)
        fatal("HeapFabric: route '" + route_key +
              "' targets a detached shard");
    return h;
}

PjhHeap *
HeapFabric::shardForKey(std::uint64_t key) const
{
    PjhHeap *h = shard(router().shardForKey(key));
    if (!h)
        fatal("HeapFabric: key routes to a detached shard");
    return h;
}

PjhHeap *
HeapFabric::shardForWrite(const std::string &route_key) const
{
    PjhHeap *h = shard(shardIndexForWrite(route_key));
    if (!h)
        fatal("HeapFabric: route '" + route_key +
              "' targets a detached shard");
    return h;
}

PjhHeap *
HeapFabric::shardForKeyWrite(std::uint64_t key) const
{
    const RoutingEpoch *rt = routing_.current();
    if (!rt)
        fatal("HeapFabric: routing before create/recover");
    PjhHeap *h = shard(rt->next.shardForKey(key));
    if (!h)
        fatal("HeapFabric: key routes to a detached shard");
    return h;
}

PjhHeap *
HeapFabric::homeOf(Oop obj) const
{
    if (obj.isNull())
        return nullptr;
    unsigned n = shardCount();
    for (unsigned i = 0; i < n; ++i) {
        PjhHeap *h = shard(i);
        if (h && h->containsData(obj.addr()))
            return h;
    }
    return nullptr;
}

void
HeapFabric::setRoot(const std::string &name, Oop obj)
{
    PjhHeap *home = homeOf(obj);
    if (obj && !home)
        fatal("HeapFabric::setRoot: object is not in any shard");
    // The ring shard only matters for a null publish; a non-null
    // object goes to its live home shard even while the name's ring
    // shard is crashed (failures must stay shard-local). A null
    // publish (unpublish) with the ring member down degrades to the
    // stale-entry sweep alone: every live binding is nulled, and the
    // crashed member's own entry — if it is the home — falls under
    // the membership quiescence contract until reattach.
    // A null publish lands on the WRITE ring's shard: during a
    // membership change the name's post-change home is where future
    // lookups probe first.
    const RoutingEpoch *rt = routing_.current();
    if (!rt)
        fatal("HeapFabric::setRoot: fabric is not attached");
    PjhHeap *target =
        home ? home : shard(rt->next.shardForName(name));
    // One name, one writer at a time: without this, two racing
    // republications could each null the other's fresh binding.
    // The same stripe also serializes against the migration sweep
    // moving this name, so a publish and a move never interleave.
    std::size_t stripe = ShardRouter::hashName(name) % kRootStripes;
    SpinGuard g(rootLocks_[stripe]);
    // Durable republication intent (slot = stripe: the stripe lock
    // makes the slot exclusively ours). A crash anywhere between
    // here and the clear below is rolled forward or back by
    // replayRootIntents(), so the fabric recovers to exactly one
    // complete publication. Single-shard fabrics have no sweep to
    // tear, and over-long names fall back to the legacy contract.
    unsigned n = shardCount();
    bool intent = n > 1 && rootIntents_.valid() &&
                  DecisionLog::payloadFits(name.size());
    if (intent) {
        unsigned target_idx = ~0u;
        for (unsigned i = 0; i < n; ++i)
            if (shard(i) == target)
                target_idx = i;
        rootIntents_.publish(static_cast<unsigned>(stripe),
                             DecisionLog::kKindRootIntent,
                             /*txn_id=*/obj.isNull() ? 1 : 0,
                             /*arg_a=*/target_idx, name.data(),
                             name.size());
    }
    if (target)
        target->setRoot(name, obj);
    // Republication may move a name's home shard; null out stale
    // entries elsewhere so lookups do not resurrect the old binding
    // (the name table has no deletion, but a null value reads as a
    // miss at the fabric level). Forwarding stubs left by a
    // migration are retired the same way: the fresh publication
    // supersedes whatever move left them behind.
    for (unsigned i = 0; i < n; ++i) {
        PjhHeap *h = shard(i);
        if (!h)
            continue;
        if (h != target && !h->getRoot(name).isNull())
            h->setRoot(name, Oop());
        NameEntry *f = h->names().find(name, NameKind::kForward);
        if (f && NameTable::readValue(f) != 0)
            h->names().updateValue(f, 0);
    }
    if (intent)
        rootIntents_.clear(static_cast<unsigned>(stripe));
}

Oop
HeapFabric::getRoot(const std::string &name) const
{
    const RoutingEpoch *rt = routing_.current();
    if (!rt)
        return Oop();
    // Probe one member: its kRoot binding first; on a miss, its
    // kForward stub (a migration moved the name away mid-change).
    // The move publishes dest-binding, then forward, then nulls the
    // source binding — all release-ordered — so a reader that sees
    // the nulled source is guaranteed to see the forward and the
    // destination binding.
    auto probe = [&](unsigned idx, bool follow) -> Oop {
        PjhHeap *h = shard(idx);
        if (!h)
            return Oop();
        // kRoot reads go through the shard's guarded accessor: they
        // wait out the shard's GC safepoints and load-shade the
        // result under a concurrent mark (the PR 8 root-op
        // contract). kForward stubs hold member indices, not heap
        // refs, so the raw read stays.
        Oop o = h->getRoot(name);
        if (!o.isNull())
            return o;
        if (follow) {
            NameEntry *f = h->names().find(name, NameKind::kForward);
            if (f) {
                Word fv = NameTable::readValue(f);
                if (fv) {
                    PjhHeap *d =
                        shard(static_cast<unsigned>(fv) - 1);
                    if (d) {
                        Oop o2 = d->getRoot(name);
                        if (!o2.isNull())
                            return o2;
                    }
                }
            }
        }
        return Oop();
    };
    // Write ring first (post-change home, also the committed ring
    // when no change is in flight)...
    unsigned w = rt->next.shardForName(name);
    Oop o = probe(w, false);
    if (!o.isNull())
        return o;
    // ...then the committed ring's shard, following its forward.
    if (rt->migrating) {
        unsigned c = rt->committed.shardForName(name);
        if (c != w) {
            o = probe(c, true);
            if (!o.isNull())
                return o;
        }
    }
    // Fallback scan for non-ring-homed roots (objects published on
    // their home shard), forwards followed.
    unsigned n = shardCount();
    for (unsigned i = 0; i < n; ++i) {
        if (i == w)
            continue;
        o = probe(i, true);
        if (!o.isNull())
            return o;
    }
    return Oop();
}

bool
HeapFabric::hasRoot(const std::string &name) const
{
    if (!getRoot(name).isNull())
        return true;
    const RoutingEpoch *rt = routing_.current();
    if (!rt)
        return false;
    PjhHeap *ring = shard(rt->next.shardForName(name));
    return ring && ring->hasRoot(name);
}

void
HeapFabric::collectShard(unsigned i)
{
    PjhHeap *h = shard(i);
    if (!h)
        fatal("HeapFabric::collectShard: shard is not attached");
    h->collect(volatileHeap_);
}

void
HeapFabric::collectAll()
{
    std::vector<unsigned> live;
    for (unsigned i = 0; i < shardCount(); ++i)
        if (shard(i))
            live.push_back(i);
    if (live.empty())
        return;

    unsigned workers = gcWorkers_
                           ? gcWorkers_
                           : envUnsigned("ESPRESSO_FABRIC_GC_WORKERS",
                                         static_cast<unsigned>(
                                             live.size()));
    workers = std::min<unsigned>(
        std::max(workers, 1u), static_cast<unsigned>(live.size()));
    std::atomic<std::size_t> next{0};
    gcPool_.run(workers, [&](unsigned) {
        for (;;) {
            std::size_t n = next.fetch_add(1, std::memory_order_relaxed);
            if (n >= live.size())
                return;
            collectShard(live[n]);
        }
    });
}

void
HeapFabric::setGcWorkers(unsigned n)
{
    gcWorkers_ = n;
}

void
HeapFabric::setGcThreads(unsigned n)
{
    gcThreads_ = n;
    for (auto &h : heaps_)
        if (h)
            h->setGcThreads(n);
}

void
HeapFabric::setGcConcurrent(bool on)
{
    gcConcurrent_ = on ? 1 : 0;
    for (auto &h : heaps_)
        if (h)
            h->setGcConcurrent(on);
}

void
HeapFabric::dropShardHeap(unsigned i)
{
    if (i < RingManifestData::kMaxShards)
        live_[i].store(nullptr, std::memory_order_release);
    if (i < heaps_.size() && heaps_[i]) {
        unwireShard(heaps_[i].get());
        heaps_[i].reset();
    }
}

void
HeapFabric::crashShard(unsigned i, CrashMode mode, std::uint64_t seed)
{
    if (i >= devices_.size() || !devices_[i])
        fatal("HeapFabric::crashShard: no such shard");
    dropShardHeap(i);
    devices_[i]->crash(mode, seed);
}

PjhHeap *
HeapFabric::reattachShard(unsigned i, SafetyLevel safety)
{
    if (!attached())
        fatal("HeapFabric::reattachShard: fabric is not attached");
    if (i >= devices_.size() || !devices_[i])
        fatal("HeapFabric::reattachShard: no such shard");
    if (heaps_[i])
        return heaps_[i].get();
    auto heap = PjhHeap::attach(devices_[i].get(), registry_, safety);
    wireShard(heap.get());
    heaps_[i] = std::move(heap);
    publishMember(i, heaps_[i].get());
    return heaps_[i].get();
}

void
HeapFabric::crashAll(CrashMode mode, std::uint64_t seed)
{
    for (unsigned i = 0; i < heaps_.size(); ++i)
        dropShardHeap(i);
    heaps_.clear();
    for (std::size_t i = 0; i < devices_.size(); ++i)
        if (devices_[i])
            devices_[i]->crash(mode, seed + i);
    if (manifestDev_)
        manifestDev_->crash(mode, seed + 0x4d414e49ull);
}

void
HeapFabric::setManifestInjector(CrashInjector *injector)
{
    manifestInjector_ = injector;
    if (manifestDev_)
        manifestDev_->setInjector(injector);
}

void
HeapFabric::migrate()
{
    if (attached())
        fatal("HeapFabric::migrate: detach or crash the fabric first");
    auto remap = [this](std::unique_ptr<NvmDevice> &dev) {
        if (!dev)
            return;
        auto fresh = std::make_unique<NvmDevice>(dev->size(), nvmCfg_);
        std::memcpy(fresh->base(), dev->base(), dev->size());
        fresh->shutdownClean();
        dev = std::move(fresh);
    };
    for (auto &dev : devices_)
        remap(dev);
    remap(manifestDev_);
    manifest_ = RingManifest(manifestDev_.get());
}

// ---------------------------------------------------------------------
// Elastic membership: online grow/shrink with key migration
// ---------------------------------------------------------------------

void
HeapFabric::grow(unsigned added)
{
    if (added == 0)
        return;
    std::lock_guard<std::mutex> g(membershipMu_);
    if (!attached())
        fatal("HeapFabric::grow: fabric is not attached");
    changeMembershipLocked(
        static_cast<unsigned>(manifest_.data().shardCount) + added);
}

void
HeapFabric::shrink(unsigned removed)
{
    if (removed == 0)
        return;
    std::lock_guard<std::mutex> g(membershipMu_);
    if (!attached())
        fatal("HeapFabric::shrink: fabric is not attached");
    unsigned from = static_cast<unsigned>(manifest_.data().shardCount);
    if (removed >= from)
        fatal("HeapFabric::shrink: cannot remove every member");
    changeMembershipLocked(from - removed);
}

void
HeapFabric::changeMembershipLocked(unsigned target)
{
    const RingManifestData &d = manifest_.data();
    unsigned from = static_cast<unsigned>(d.shardCount);
    if (from == 0)
        fatal("HeapFabric: membership change before creation "
              "committed");
    if (target == 0 || target > RingManifestData::kMaxShards)
        fatal("HeapFabric: membership target out of range");
    if (target == from)
        return;
    if (manifest_.migrationDeclared())
        fatal("HeapFabric: a membership change is already declared");
    // Every source member must be live: its roots are about to be
    // streamed (a crashed member's keys cannot move).
    unsigned src_begin = target > from ? 0 : target;
    for (unsigned s = src_begin; s < from; ++s)
        if (!shard(s))
            fatal("HeapFabric: membership change with a crashed "
                  "member; reattach it first");
    // The declaration fence: past this point a crash rolls the
    // change forward (recover() re-enters the completion below).
    manifest_.declareMigration(target);
    completeMembershipChangeLocked();
}

void
HeapFabric::completeMembershipChangeLocked()
{
    const RingManifestData &d = manifest_.data();
    unsigned from = static_cast<unsigned>(d.migrFrom);
    unsigned target = static_cast<unsigned>(d.migrTarget);
    bool grow_dir = target > from;
    PjhConfig shard_cfg = manifest_.shardConfig();

    // 1. Bring joining members up (grow). On crash-resume a joiner
    // whose format was durably flagged re-attached in recover();
    // the rest (re-)format here.
    for (unsigned k = from; k < target; ++k) {
        if (shard(k))
            continue;
        formatShard(k, shard_cfg);
        manifest_.markFormatted(k);
    }

    // 2. Route by the epoch pair: writes land on the next ring,
    // reads probe next, then committed + forwards.
    ShardRouter old_ring(from, static_cast<unsigned>(d.vnodes));
    ShardRouter new_ring(target, static_cast<unsigned>(d.vnodes));
    routing_.publish(old_ring, new_ring, true);

    // 3. Stream each source member's remapped roots to their new
    // homes; the durable migrated flag makes a crashed change resume
    // where it left off.
    unsigned src_begin = grow_dir ? 0 : target;
    for (unsigned s = src_begin; s < from; ++s) {
        if (manifest_.memberMigrated(s))
            continue;
        migrateMember(s, old_ring, new_ring, grow_dir);
        manifest_.markMigrated(s);
    }

    // 4. The commit fence: the new membership (and epoch) is
    // durable; old-epoch state is now garbage to clean up.
    manifest_.commitMembership();
    routing_.publish(new_ring, new_ring, false);

    // 5. Post-commit cleanup (also recover()'s stale-record path).
    finishMigrationCleanupLocked();
}

void
HeapFabric::finishMigrationCleanupLocked()
{
    const RingManifestData &d = manifest_.data();
    unsigned from = static_cast<unsigned>(d.migrFrom);
    unsigned target = static_cast<unsigned>(d.migrTarget);
    bool grow_dir = target > from;
    if (grow_dir) {
        // The commit fence retired the old epoch; the forwards are
        // now dead weight in the source name tables.
        for (unsigned s = 0; s < from; ++s)
            retireForwards(s);
    } else {
        // Tear evacuated members down: volatile first, then their
        // durable formatted flags (a crash between re-runs this
        // cleanup from the stale record).
        for (unsigned k = target; k < from; ++k) {
            dropShardHeap(k);
            if (k < devices_.size())
                devices_[k].reset();
            manifest_.clearMember(k);
        }
        memberSlots_.store(target, std::memory_order_release);
    }
    manifest_.clearMigration();
}

void
HeapFabric::retireForwards(unsigned s)
{
    PjhHeap *h = shard(s);
    if (!h)
        return;
    std::vector<std::string> names;
    h->names().forEach([&](NameEntry &e) {
        if (e.kind == static_cast<Word>(NameKind::kForward) &&
            NameTable::readValue(&e) != 0)
            names.emplace_back(e.name);
    });
    for (const std::string &name : names) {
        std::size_t stripe =
            ShardRouter::hashName(name) % kRootStripes;
        SpinGuard g(rootLocks_[stripe]);
        NameEntry *f = h->names().find(name, NameKind::kForward);
        if (f && NameTable::readValue(f) != 0)
            h->names().updateValue(f, 0);
    }
}

void
HeapFabric::migrateMember(unsigned s, const ShardRouter &old_ring,
                          const ShardRouter &new_ring, bool grow_dir)
{
    PjhHeap *src = shard(s);
    if (!src)
        fatal("HeapFabric: migrating a crashed member");
    // Snapshot the candidate names first (forEach holds no locks);
    // each move re-checks its entry under the name's stripe lock, so
    // roots republished concurrently are handled by whichever of the
    // two (move, setRoot) runs second.
    std::vector<std::pair<std::string, unsigned>> moves;
    src->names().forEach([&](NameEntry &e) {
        if (e.kind != static_cast<Word>(NameKind::kRoot))
            return;
        if (NameTable::readValue(&e) == 0)
            return;
        std::string name(e.name);
        unsigned dest = new_ring.shardForName(name);
        if (dest == s)
            return;
        // Grow moves only this member's ring-remapped names; roots
        // parked here because their object lives here (homeOf
        // publication) stay — the object is not remapped by the
        // ring. Shrink evacuates everything.
        if (grow_dir && old_ring.shardForName(name) != s)
            return;
        moves.emplace_back(std::move(name), dest);
    });
    for (const auto &mv : moves)
        migrateRoot(src, mv.first, mv.second);
}

void
HeapFabric::migrateRoot(PjhHeap *src, const std::string &name,
                        unsigned dest_idx)
{
    PjhHeap *dst = shard(dest_idx);
    if (!dst)
        fatal("HeapFabric: migration destination is not live");
    // Same stripe as setRoot: a move and a republication of one name
    // never interleave.
    std::size_t stripe = ShardRouter::hashName(name) % kRootStripes;
    SpinGuard g(rootLocks_[stripe]);
    NameEntry *se = src->names().find(name, NameKind::kRoot);
    if (!se)
        return;
    Word val = NameTable::readValue(se);
    if (val == 0)
        return; // republished away since the scan
    Oop obj(val);
    if (!src->containsData(obj.addr()))
        return; // foreign-homed value; not ours to move
    // Crash-resume idempotency: a previous attempt may have durably
    // published the destination binding already — never clone twice
    // (the dest copy is the one readers may have seen).
    Oop copy = dst->getRoot(name);
    if (copy.isNull()) {
        copy = cloneClosure(src, dst, obj);
        dst->setRoot(name, copy);
    }
    // Publication order is the read path's correctness argument:
    // dest binding (above), then the forward, then null the source
    // binding — each a release-publish — so a reader that misses
    // the source binding sees the forward and the dest binding.
    src->names().upsert(name, NameKind::kForward, dest_idx + 1);
    src->setRoot(name, Oop());
}

Oop
HeapFabric::cloneClosure(PjhHeap *src, PjhHeap *dst, Oop obj) const
{
    // Pass 1: discover the intra-shard closure and allocate shells
    // on the destination. References out of the source shard (other
    // members' objects, pinned by their own name tables) carry over
    // verbatim.
    std::unordered_map<Addr, Oop> moved;
    std::vector<Oop> order;
    std::vector<Oop> work{obj};
    while (!work.empty()) {
        Oop o = work.back();
        work.pop_back();
        if (moved.count(o.addr()))
            continue;
        const Klass *k = o.klass();
        Oop copy = k->isArray() ? dst->allocArray(k, o.arrayLength())
                                : dst->allocInstance(k);
        moved.emplace(o.addr(), copy);
        order.push_back(o);
        o.forEachRefSlot([&](Addr slot) {
            Word ref = loadWord(slot);
            if (ref && src->containsData(ref))
                work.push_back(Oop(ref));
        });
    }
    // Pass 2: copy bodies, remap intra-closure references, persist.
    for (Oop o : order) {
        Oop copy = moved[o.addr()];
        const Klass *k = o.klass();
        std::size_t hdr = k->isArray()
                              ? ObjectLayout::kArrayHeaderSize
                              : ObjectLayout::kHeaderSize;
        std::size_t sz = o.sizeInBytes();
        if (sz > hdr)
            std::memcpy(
                reinterpret_cast<void *>(copy.addr() + hdr),
                reinterpret_cast<const void *>(o.addr() + hdr),
                sz - hdr);
        copy.forEachRefSlot([&](Addr slot) {
            Word ref = loadWord(slot);
            auto it = moved.find(ref);
            if (it != moved.end())
                storeWord(slot, it->second.addr());
        });
        dst->flushObject(copy);
    }
    return moved[obj.addr()];
}

std::vector<HeapFabric::Occupancy>
HeapFabric::occupancy() const
{
    std::vector<Occupancy> out;
    unsigned n = shardCount();
    for (unsigned i = 0; i < n; ++i) {
        PjhHeap *h = shard(i);
        if (h)
            out.push_back({i, h->dataUsed(), h->dataCapacity()});
    }
    return out;
}

bool
HeapFabric::balance(double high_water, unsigned add_shards)
{
    if (add_shards == 0)
        return false;
    bool pressed = false;
    for (const Occupancy &o : occupancy()) {
        if (o.capacity == 0)
            continue;
        double frac = static_cast<double>(o.used) /
                      static_cast<double>(o.capacity);
        if (frac >= high_water)
            pressed = true;
    }
    if (!pressed)
        return false;
    unsigned from = static_cast<unsigned>(manifest_.data().shardCount);
    if (from + add_shards > RingManifestData::kMaxShards)
        return false;
    grow(add_shards);
    return true;
}

} // namespace espresso
