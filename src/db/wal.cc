#include "db/wal.hh"

#include <cstring>
#include <thread>

#include "nvm/nvm_device.hh"

namespace espresso {
namespace db {

namespace {

/** Entries per segment are bounded so epochSeq can pack both. */
constexpr Word kSeqBits = 20;
constexpr Word kMaxEntries = Word(1) << kSeqBits;

Word
makeEpochSeq(Word epoch, Word seq)
{
    return (epoch << kSeqBits) | (seq & (kMaxEntries - 1));
}

} // namespace

WalShard::WalShard(NvmDevice *device, Addr base, std::size_t size,
                   unsigned id)
    : device_(device), base_(base), size_(size), id_(id)
{}

bool
WalShard::active() const
{
    return header()->active != 0;
}

void
WalShard::begin()
{
    if (active())
        panic(strCat("db wal: shard ", id_,
                     ": transaction already open"));
    Header *h = header();
    h->count = 0;
    h->used = 0;
    h->epoch += 1;
    h->active = 1;
    h->prepared = 0;
    device_->flush(base_, sizeof(Header));
    // No fence: the first logRange's fence publishes the header
    // together with the first entry; an empty transaction has
    // nothing to roll back either way.
    logged_.clear();
}

Word
WalShard::checksum(const Entry *entry)
{
    // FNV-1a over the identifying fields and the payload.
    Word h = 1469598103934665603ull;
    auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    mix(&entry->deviceOffset, sizeof(Word));
    mix(&entry->length, sizeof(Word));
    mix(&entry->epochSeq, sizeof(Word));
    mix(entry + 1, entry->length);
    return h;
}

void
WalShard::logRange(Addr addr, std::size_t len)
{
    if (!active())
        panic(strCat("db wal: shard ", id_,
                     ": logRange outside a transaction"));
    auto it = logged_.find(addr);
    if (it != logged_.end() && it->second >= len)
        return; // old image already durable for this range
    Header *h = header();
    std::size_t entry_bytes = sizeof(Entry) + alignUp(len, kWordSize);
    if (h->used + entry_bytes > capacity() || h->count + 1 >= kMaxEntries)
        throw WalFullError(strCat(
            "db wal: shard ", id_, ": undo segment full (used ",
            h->used, " of ", capacity(), " bytes, entry needs ",
            entry_bytes, ")"));
    Addr entry_addr = payload() + h->used;
    auto *entry = reinterpret_cast<Entry *>(entry_addr);
    entry->deviceOffset = device_->toOffset(addr);
    entry->length = len;
    entry->epochSeq = makeEpochSeq(h->epoch, h->count);
    std::memcpy(entry + 1, reinterpret_cast<const void *>(addr), len);
    entry->check = checksum(entry);
    device_->flush(entry_addr, entry_bytes);
    h->used += entry_bytes;
    h->count += 1;
    device_->flush(base_, sizeof(Header));
    // One fence publishes entry + header (+ the begin's active bit).
    // At most the tail entry can be torn by a power failure, and its
    // target row has not been overwritten yet.
    device_->fence();
    logged_[addr] = std::max(it != logged_.end() ? it->second : 0, len);
}

void
WalShard::stageCommit()
{
    if (!active())
        panic(strCat("db wal: shard ", id_,
                     ": commit outside a transaction"));
    Header *h = header();
    Addr cursor = payload();
    for (Word i = 0; i < h->count; ++i) {
        auto *entry = reinterpret_cast<Entry *>(cursor);
        device_->flush(device_->toAddr(entry->deviceOffset),
                       entry->length);
        cursor += sizeof(Entry) + alignUp(entry->length, kWordSize);
    }
}

void
WalShard::stageRetire()
{
    Header *h = header();
    h->active = 0;
    h->prepared = 0;
    h->committed += 1;
    device_->flush(base_, sizeof(Header));
    logged_.clear();
}

void
WalShard::stagePrepare(Word txn_id)
{
    if (!active())
        panic(strCat("db wal: shard ", id_,
                     ": prepare outside a transaction"));
    if (txn_id == 0)
        panic(strCat("db wal: shard ", id_, ": prepare with id 0"));
    // Stage the new row images and the prepared mark: after the
    // caller's fence, this member can be rolled forward by header
    // state alone (nothing further needs to be copied in).
    stageCommit();
    header()->prepared = txn_id;
    device_->flush(base_, sizeof(Header));
}

void
WalShard::rollback(const std::vector<Entry *> &entries,
                   const UndoFn &on_undone, const RestoreFn &restore)
{
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        Addr dst = device_->toAddr((*it)->deviceOffset);
        const auto *src = reinterpret_cast<const std::uint8_t *>(
            *it + 1);
        if (restore)
            restore(dst, src, (*it)->length);
        else
            std::memcpy(reinterpret_cast<void *>(dst), src,
                        (*it)->length);
        device_->flush(dst, (*it)->length);
    }
    device_->fence();
    if (on_undone) {
        for (auto it = entries.rbegin(); it != entries.rend(); ++it)
            on_undone(device_->toAddr((*it)->deviceOffset),
                      (*it)->length);
    }
}

void
WalShard::rollbackAndRetire(const UndoFn &on_undone,
                            const RestoreFn &restore)
{
    if (!active())
        panic(strCat("db wal: shard ", id_,
                     ": rollback outside a transaction"));
    rollback(walkValidEntries(), on_undone, restore);
    retire();
}

void
WalShard::retire()
{
    Header *h = header();
    h->active = 0;
    h->prepared = 0;
    device_->persist(base_, sizeof(Header));
    logged_.clear();
}

void
WalShard::retireEmpty()
{
    if (!active())
        panic(strCat("db wal: shard ", id_,
                     ": commit outside a transaction"));
    if (header()->count != 0)
        panic(strCat("db wal: shard ", id_,
                     ": retireEmpty with logged entries"));
    // Nothing was written, so nothing needs a fence: whether or not
    // the cleared active bit (or the begin's set bit) ever becomes
    // durable, recovery finds zero entries to roll back.
    Header *h = header();
    h->active = 0;
    h->committed += 1;
    device_->flush(base_, sizeof(Header));
    logged_.clear();
}

bool
WalShard::headerSane() const
{
    const Header *h = header();
    return h->active == 1 && h->used <= capacity() &&
           h->used % kWordSize == 0 && h->count < kMaxEntries &&
           h->count * sizeof(Entry) <= h->used;
}

std::vector<WalShard::Entry *>
WalShard::walkValidEntries() const
{
    const Header *h = header();
    std::vector<Entry *> out;
    Addr cursor = payload();
    Addr end = payload() + std::min<std::size_t>(h->used, capacity());
    for (Word i = 0; i < h->count; ++i) {
        if (cursor + sizeof(Entry) > end)
            break;
        auto *entry = reinterpret_cast<Entry *>(cursor);
        std::size_t len = entry->length;
        if (len == 0 || len > capacity())
            break;
        std::size_t entry_bytes = sizeof(Entry) + alignUp(len, kWordSize);
        if (cursor + entry_bytes > end)
            break;
        if (entry->epochSeq != makeEpochSeq(h->epoch, i))
            break;
        if (entry->deviceOffset + len > device_->size())
            break;
        if (checksum(entry) != entry->check)
            break;
        out.push_back(entry);
        cursor += entry_bytes;
    }
    return out;
}

void
WalShard::recover(const ResolveFn &is_committed)
{
    busy_.store(0, std::memory_order_release);
    logged_.clear();
    Header *h = header();
    if (h->active == 0) {
        if (h->prepared != 0) {
            // Unreachable by protocol (retire clears both words in
            // one line write), but scrub defensively.
            h->prepared = 0;
            device_->persist(base_, sizeof(Header));
        }
        return;
    }
    if (!headerSane()) {
        warn(strCat("db wal: shard ", id_,
                    ": corrupt undo segment header (active=",
                    h->active, " count=", h->count, " used=", h->used,
                    "); discarding segment"));
        h->active = 0;
        h->count = 0;
        h->used = 0;
        h->prepared = 0;
        device_->persist(base_, sizeof(Header));
        return;
    }
    if (h->prepared != 0 && is_committed && is_committed(h->prepared)) {
        // Roll forward: the decision record is durable, and it was
        // only written after every member's prepare fence — so this
        // member's new images are already durable. Retire as a
        // committed transaction.
        h->active = 0;
        h->prepared = 0;
        h->committed += 1;
        device_->persist(base_, sizeof(Header));
        return;
    }
    // No durable decision: presumed abort.
    std::vector<Entry *> entries = walkValidEntries();
    if (entries.size() != h->count) {
        warn(strCat("db wal: shard ", id_, ": torn tail — rolling back ",
                    entries.size(), " of ", h->count, " entries"));
    }
    rollback(entries, {});
    retire();
}

bool
WalShard::tryAcquireTx()
{
    Word expect = 0;
    return busy_.compare_exchange_strong(expect, 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
}

void
WalShard::acquireTx()
{
    while (!tryAcquireTx()) {
        // Die with a simulated power failure instead of spinning on
        // a shard whose owner was killed by it.
        CrashInjector *inj = device_->injector();
        if (inj && inj->tripped())
            throw SimulatedCrash();
        std::this_thread::yield();
    }
}

void
WalShard::releaseTx()
{
    busy_.store(0, std::memory_order_release);
}

Wal::Wal(NvmDevice *device, Addr base, std::size_t size, unsigned shards)
{
    if (shards == 0)
        shards = 1;
    std::size_t seg = alignDown(size / shards, kCacheLineSize);
    if (seg < kCacheLineSize + 256)
        fatal(strCat("db wal: region too small for ", shards,
                     " shards (", size, " bytes)"));
    for (unsigned i = 0; i < shards; ++i)
        shards_.emplace_back(device, base + i * seg, seg, i);
}

void
Wal::recover(const WalShard::ResolveFn &is_committed)
{
    for (WalShard &shard : shards_)
        shard.recover(is_committed);
}

} // namespace db
} // namespace espresso
